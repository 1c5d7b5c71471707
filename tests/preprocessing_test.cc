// The bucket k-core peel against a naive queue-based reference peel,
// demanding exact equality of the survivor set, the removed set and the
// peel depth on a corpus of fixed shapes and generated graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "gen/rmat.h"
#include "graph/graph.h"
#include "graph/k_core.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

using kvcc::testing::DisconnectedFixture;
using kvcc::testing::RandomConnectedGraph;

/// Correctness corpus: small fixed shapes plus a few thousand-vertex
/// generated graphs.
std::vector<Graph> Corpus() {
  std::vector<Graph> corpus;
  corpus.push_back(Graph());
  corpus.push_back(Graph::FromEdges(1, {}));
  corpus.push_back(CompleteGraph(6));
  corpus.push_back(CycleGraph(10));
  corpus.push_back(GridGraph(6, 7));
  corpus.push_back(TwoCliquesSharing(8, 2));
  corpus.push_back(DisconnectedFixture());
  corpus.push_back(RandomConnectedGraph(60, 90, 3));
  corpus.push_back(RandomConnectedGraph(400, 900, 4));
  corpus.push_back(BarabasiAlbert(6000, 3, 9));
  RmatConfig rmat;
  rmat.scale = 13;
  rmat.edges = 1 << 15;
  rmat.seed = 2;
  corpus.push_back(Rmat(rmat));
  return corpus;
}

/// Naive reference peel: vector<bool> removed + FIFO queue, the shape the
/// bucket kernel replaced.
struct NaivePeel {
  std::vector<VertexId> survivors;  // ascending
  std::vector<VertexId> removed;    // in removal order
  std::vector<bool> is_removed;
  /// Longest chain of removals: a vertex below k at the start has depth 1,
  /// and one pushed below k by a removal of depth d has depth d + 1.
  std::uint64_t depth = 0;
};

NaivePeel NaiveKCore(const Graph& g, std::uint32_t k) {
  const VertexId n = g.NumVertices();
  NaivePeel out;
  out.is_removed.assign(n, false);
  std::vector<std::uint32_t> degree(n);
  std::vector<std::uint64_t> depth(n, 0);
  std::queue<VertexId> queue;
  const auto remove = [&](VertexId v, std::uint64_t d) {
    out.is_removed[v] = true;
    out.removed.push_back(v);
    depth[v] = d;
    out.depth = std::max(out.depth, d);
    queue.push(v);
  };
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.Neighbors(v).size());
    if (degree[v] < k) remove(v, 1);
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    for (const VertexId w : g.Neighbors(v)) {
      if (out.is_removed[w]) continue;
      if (--degree[w] < k) remove(w, depth[v] + 1);
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!out.is_removed[v]) out.survivors.push_back(v);
  }
  return out;
}

// The bucket peel's survivors, its removal queue (the removal list: each
// vertex the reference removes, exactly once), its mask (the residual
// degrees) and its round count (the reference's peel depth) all match the
// reference. One scratch serves the whole corpus, largest k first, so
// stale state from a deeper peel or another graph must not leak into the
// next.
TEST(BucketPeelTest, MatchesNaiveReference) {
  KCoreScratch scratch;
  std::vector<VertexId> survivors;
  std::uint64_t deepest = 0;
  for (const Graph& g : Corpus()) {
    for (const std::uint32_t k : {8u, 5u, 3u, 2u, 0u}) {
      SCOPED_TRACE("n=" + std::to_string(g.NumVertices()) +
                   " k=" + std::to_string(k));
      const NaivePeel expected = NaiveKCore(g, k);
      const std::uint64_t rounds =
          KCoreVerticesInto(g, k, scratch, survivors);
      EXPECT_EQ(survivors, expected.survivors);
      // The allocating wrapper agrees with the pooled variant.
      EXPECT_EQ(KCoreVertices(g, k), expected.survivors);
      EXPECT_EQ(rounds, expected.depth);
      deepest = std::max(deepest, rounds);

      std::vector<VertexId> queued = scratch.queue;
      std::sort(queued.begin(), queued.end());
      EXPECT_TRUE(std::adjacent_find(queued.begin(), queued.end()) ==
                  queued.end())
          << "a vertex was queued twice";
      std::vector<VertexId> removed = expected.removed;
      std::sort(removed.begin(), removed.end());
      EXPECT_EQ(queued, removed);

      const PeelMask mask = scratch.Mask();
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(mask.Removed(v), expected.is_removed[v]) << "v=" << v;
        EXPECT_EQ(mask.Alive(v), !expected.is_removed[v]) << "v=" << v;
      }
    }
  }
  EXPECT_GT(deepest, 1u);  // some peel ran more than one round
}

}  // namespace
}  // namespace kvcc
