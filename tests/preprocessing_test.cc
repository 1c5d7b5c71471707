// The bucket k-core peel against a naive queue-based reference peel,
// demanding exact equality of the survivor set on a corpus of fixed shapes
// and generated graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
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
/// bucket kernel replaced. Returns sorted survivors.
std::vector<VertexId> NaiveKCore(const Graph& g, std::uint32_t k) {
  const VertexId n = g.NumVertices();
  std::vector<bool> removed(n, false);
  std::vector<std::uint32_t> degree(n);
  std::queue<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.Neighbors(v).size());
    if (degree[v] < k) {
      removed[v] = true;
      queue.push(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    for (const VertexId w : g.Neighbors(v)) {
      if (removed[w]) continue;
      if (--degree[w] < k) {
        removed[w] = true;
        queue.push(w);
      }
    }
  }
  std::vector<VertexId> survivors;
  for (VertexId v = 0; v < n; ++v) {
    if (!removed[v]) survivors.push_back(v);
  }
  return survivors;
}

TEST(BucketPeelTest, MatchesNaiveReference) {
  // One scratch serves the whole corpus, so stale marks from one graph
  // must not leak into the next.
  KCoreScratch scratch;
  std::vector<VertexId> survivors;
  for (const Graph& g : Corpus()) {
    for (const std::uint32_t k : {2u, 3u, 5u, 8u}) {
      const std::vector<VertexId> expected = NaiveKCore(g, k);
      KCoreVerticesInto(g, k, scratch, survivors);
      EXPECT_EQ(survivors, expected)
          << "n=" << g.NumVertices() << " k=" << k;
      // The allocating wrapper agrees with the pooled variant.
      EXPECT_EQ(KCoreVertices(g, k), expected);
    }
  }
}

}  // namespace
}  // namespace kvcc
