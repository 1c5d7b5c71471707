// The flat-parallel preprocessing kernels against their serial references:
// Afforest labeling vs BFS labeling, the bucket peel vs a naive
// queue-based peel, the fused prune vs the staged pipeline, full
// enumeration fused-vs-staged, and the edge-list loader vs the graph it
// was written from — all demanding *exact* equality at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"
#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "gen/rmat.h"
#include "graph/connected_components.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/k_core.h"
#include "graph/preprocess.h"
#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

using kvcc::testing::RandomConnectedGraph;

/// Thread counts every determinism test sweeps. 1 runs the serial kernel;
/// the others run the flat-parallel one (when the graph clears the size
/// cutoff) with different wavefront widths.
const std::vector<unsigned> kThreadCounts = {1, 2, 8};

/// Runs `fn(scheduler)` with a started scheduler of `threads` workers, or
/// nullptr for the serial path.
template <typename Fn>
void WithScheduler(unsigned threads, Fn&& fn) {
  if (threads <= 1) {
    fn(nullptr);
    return;
  }
  exec::TaskScheduler pool(threads);
  pool.Start();
  fn(&pool);
  pool.Stop();
}

/// A disconnected graph with isolated vertices, two cliques, and a path —
/// exercises component numbering with gaps.
Graph DisconnectedFixture() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 5; ++i) {     // clique on {2..6}
    for (VertexId j = i + 1; j < 5; ++j) edges.emplace_back(2 + i, 2 + j);
  }
  for (VertexId i = 0; i < 4; ++i) {     // clique on {10..13}
    for (VertexId j = i + 1; j < 4; ++j) edges.emplace_back(10 + i, 10 + j);
  }
  edges.emplace_back(15, 16);            // an edge; 0,1,7,8,9,14 isolated
  return Graph::FromEdges(17, edges);
}

/// Correctness corpus: small fixed shapes plus graphs large enough to
/// cross the parallel cutoff (2048) and the sampling threshold (4096).
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

TEST(AfforestTest, MatchesBfsLabelingExactly) {
  for (const Graph& g : Corpus()) {
    const ComponentLabeling reference = LabelComponents(g);
    for (const unsigned threads : kThreadCounts) {
      WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
        AfforestScratch scratch;
        ComponentLabeling labeling;
        const std::uint64_t hooks = AfforestComponentsInto(
            g, nullptr, scheduler, exec::TaskPriority::kNormal, scratch,
            labeling);
        EXPECT_EQ(labeling.count, reference.count)
            << "n=" << g.NumVertices() << " threads=" << threads;
        EXPECT_EQ(labeling.component_of, reference.component_of)
            << "n=" << g.NumVertices() << " threads=" << threads;
        // Each successful hook retires exactly one union root.
        EXPECT_EQ(hooks, g.NumVertices() - labeling.count);
      });
    }
  }
}

TEST(AfforestTest, ScratchReuseAcrossDifferentGraphs) {
  // One scratch serving the whole corpus, largest graph first and last:
  // stale state from a bigger graph must not leak into a smaller one.
  AfforestScratch scratch;
  ComponentLabeling labeling;
  std::vector<Graph> corpus = Corpus();
  std::sort(corpus.begin(), corpus.end(), [](const Graph& a, const Graph& b) {
    return a.NumVertices() > b.NumVertices();
  });
  corpus.push_back(DisconnectedFixture());
  for (const Graph& g : corpus) {
    const ComponentLabeling reference = LabelComponents(g);
    AfforestComponentsInto(g, nullptr, nullptr,
                           exec::TaskPriority::kNormal, scratch, labeling);
    EXPECT_EQ(labeling.component_of, reference.component_of);
  }
}

TEST(AfforestTest, MaskedLabelingMatchesCoreComponents) {
  for (const Graph& g : Corpus()) {
    if (g.NumVertices() == 0) continue;
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      // Reference: components of the peeled core via the staged path.
      const std::vector<VertexId> survivors = KCoreVertices(g, k);
      const Graph core = g.InducedSubgraphAsRoot(survivors);
      const std::vector<std::vector<VertexId>> core_comps =
          ConnectedComponents(core);
      std::vector<std::vector<VertexId>> expected;
      for (const auto& comp : core_comps) {
        std::vector<VertexId> ids;
        ids.reserve(comp.size());
        for (const VertexId v : comp) ids.push_back(core.LabelOf(v));
        expected.push_back(std::move(ids));
      }
      for (const unsigned threads : kThreadCounts) {
        WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
          KCoreScratch kcore;
          std::vector<VertexId> peeled;
          KCoreVerticesInto(g, k, scheduler, exec::TaskPriority::kNormal,
                            kcore, peeled);
          ASSERT_EQ(peeled, survivors);
          const PeelMask mask = kcore.Mask();
          AfforestScratch scratch;
          ComponentLabeling labeling;
          const std::uint64_t hooks = AfforestComponentsInto(
              g, &mask, scheduler, exec::TaskPriority::kNormal, scratch,
              labeling);
          EXPECT_EQ(hooks, survivors.size() - labeling.count);
          std::vector<std::vector<VertexId>> grouped(labeling.count);
          for (const VertexId v : survivors) {
            ASSERT_LT(labeling.component_of[v], labeling.count);
            grouped[labeling.component_of[v]].push_back(v);
          }
          EXPECT_EQ(grouped, expected) << "k=" << k << " threads=" << threads;
          // Peeled vertices carry the invalid label.
          for (VertexId v = 0; v < g.NumVertices(); ++v) {
            if (mask.Removed(v)) {
              EXPECT_EQ(labeling.component_of[v], kInvalidVertex);
            }
          }
        });
      }
    }
  }
}

TEST(BucketPeelTest, MatchesNaiveReferenceAtEveryThreadCount) {
  for (const Graph& g : Corpus()) {
    for (const std::uint32_t k : {2u, 3u, 5u, 8u}) {
      const std::vector<VertexId> expected = NaiveKCore(g, k);
      std::uint64_t reference_rounds = 0;
      bool have_reference = false;
      for (const unsigned threads : kThreadCounts) {
        WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
          KCoreScratch scratch;
          std::vector<VertexId> survivors;
          const std::uint64_t rounds = KCoreVerticesInto(
              g, k, scheduler, exec::TaskPriority::kNormal, scratch,
              survivors);
          EXPECT_EQ(survivors, expected)
              << "n=" << g.NumVertices() << " k=" << k
              << " threads=" << threads;
          if (!have_reference) {
            reference_rounds = rounds;
            have_reference = true;
          } else {
            EXPECT_EQ(rounds, reference_rounds) << "k=" << k;
          }
        });
      }
      // The shared wrapper agrees with the pooled variant.
      EXPECT_EQ(KCoreVertices(g, k), expected);
    }
  }
}

TEST(FusedPruneTest, MatchesStagedPipeline) {
  for (const Graph& g : Corpus()) {
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      const std::vector<VertexId> survivors = KCoreVertices(g, k);
      const Graph core = g.InducedSubgraphAsRoot(survivors);
      std::vector<std::vector<VertexId>> expected;
      for (const auto& comp : ConnectedComponents(core)) {
        std::vector<VertexId> ids;
        for (const VertexId v : comp) ids.push_back(core.LabelOf(v));
        expected.push_back(std::move(ids));
      }
      for (const unsigned threads : kThreadCounts) {
        WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
          FusedPruneScratch scratch;
          const PruneCounters counters = FusedPrune(
              g, k, scheduler, exec::TaskPriority::kNormal, scratch);
          EXPECT_EQ(scratch.survivors, survivors);
          EXPECT_EQ(counters.cc_hooks,
                    survivors.size() - scratch.labeling.count);
          ASSERT_EQ(scratch.labeling.count, expected.size());
          std::vector<std::vector<VertexId>> grouped;
          for (std::uint32_t c = 0; c < scratch.labeling.count; ++c) {
            grouped.emplace_back(
                scratch.comp_vertices.begin() +
                    static_cast<std::ptrdiff_t>(scratch.comp_offsets[c]),
                scratch.comp_vertices.begin() +
                    static_cast<std::ptrdiff_t>(scratch.comp_offsets[c + 1]));
          }
          EXPECT_EQ(grouped, expected) << "k=" << k << " threads=" << threads;
        });
      }
    }
  }
}

/// Stats must match fused-vs-staged except prune_fused_passes (only the
/// fused path books elided materializations); compare with it zeroed.
std::string StatsFingerprint(KvccStats stats) {
  stats.prune_fused_passes = 0;
  return stats.ToJson();
}

TEST(FusedPruneTest, EnumerationIdenticalFusedVsStaged) {
  for (const Graph& g :
       {TwoCliquesSharing(8, 2), RandomConnectedGraph(60, 120, 5),
        DisconnectedFixture(), BarabasiAlbert(300, 4, 7)}) {
    for (const std::uint32_t k : {2u, 3u, 4u}) {
      KvccOptions staged = KvccOptions::VcceStar();
      staged.fused_prune = false;
      const KvccResult reference = EnumerateKVccs(g, k, staged);
      EXPECT_EQ(reference.stats.prune_fused_passes, 0u);

      KvccOptions fused = KvccOptions::VcceStar();
      fused.fused_prune = true;
      for (const unsigned threads : kThreadCounts) {
        fused.num_threads = threads;
        const KvccResult result = EnumerateKVccs(g, k, fused);
        EXPECT_EQ(result.components, reference.components)
            << "k=" << k << " threads=" << threads;
        if (threads == 1) {
          EXPECT_EQ(StatsFingerprint(result.stats),
                    StatsFingerprint(reference.stats))
              << "k=" << k;
        }
      }
    }
  }
}

// ---- edge-list loader -------------------------------------------------------

/// Full structural fingerprint: vertex numbering, labels, and adjacency
/// order all included. Equal fingerprints mean byte-identical graphs.
std::string GraphFingerprint(const Graph& g) {
  std::ostringstream out;
  out << g.NumVertices() << "/" << g.NumEdges() << ";";
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out << g.LabelOf(v) << ":";
    for (const VertexId w : g.Neighbors(v)) out << g.LabelOf(w) << ",";
    out << ";";
  }
  return out.str();
}

/// Numbering-independent fingerprint: rows keyed and sorted by label,
/// neighbor labels sorted, so a loaded graph compares equal to the graph
/// that was written however either numbers its vertices.
std::string CanonicalFingerprint(const Graph& g) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> rows;
  rows.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> nbrs;
    nbrs.reserve(g.Neighbors(v).size());
    for (const VertexId w : g.Neighbors(v)) nbrs.push_back(g.LabelOf(w));
    std::sort(nbrs.begin(), nbrs.end());
    rows.emplace_back(g.LabelOf(v), std::move(nbrs));
  }
  std::sort(rows.begin(), rows.end());
  std::ostringstream out;
  out << g.NumVertices() << "/" << g.NumEdges() << ";";
  for (const auto& [label, nbrs] : rows) {
    out << label << ":";
    for (const VertexId w : nbrs) out << w << ",";
    out << ";";
  }
  return out.str();
}

TEST(ParallelLoaderTest, RoundTripMatchesWrittenGraph) {
  for (const Graph& g :
       {RandomConnectedGraph(50, 80, 1), BarabasiAlbert(3000, 3, 4),
        GridGraph(20, 20)}) {
    std::ostringstream text;
    WriteEdgeList(g, text);
    for (const unsigned threads : kThreadCounts) {
      EXPECT_EQ(CanonicalFingerprint(ReadEdgeList(text.str(), threads)),
                CanonicalFingerprint(g))
          << "threads=" << threads;
    }
  }
}

TEST(ParallelLoaderTest, ThreadCountInvariant) {
  std::ostringstream text;
  WriteEdgeList(BarabasiAlbert(5000, 4, 13), text);
  const std::string reference =
      GraphFingerprint(ReadEdgeList(text.str(), 1));
  for (const unsigned threads : {2u, 3u, 8u, 16u}) {
    EXPECT_EQ(GraphFingerprint(ReadEdgeList(text.str(), threads)),
              reference)
        << "threads=" << threads;
  }
}

// Repeating every line leaves the graph unchanged but multiplies the
// parsed pairs, which moves the input from the sparse id table (sort +
// unique) to the dense one (present bitmap). Both must number alike.
TEST(ParallelLoaderTest, DenseAndSparseIdTablesAgree) {
  const std::string lines = "4999 3\n70 1000\n3 70\n2500 4999\n1000 2500\n";
  std::string repeated;
  for (int copy = 0; copy < 63; ++copy) repeated += lines;  // 16*315 >= 5000
  for (const unsigned threads : kThreadCounts) {
    const Graph sparse = ReadEdgeList(lines, threads);
    const Graph dense = ReadEdgeList(repeated, threads);
    ASSERT_EQ(sparse.NumVertices(), 5u);
    EXPECT_EQ(sparse.LabelsOf(std::vector<VertexId>{0, 1, 2, 3, 4}),
              (std::vector<VertexId>{3, 70, 1000, 2500, 4999}));
    EXPECT_EQ(GraphFingerprint(dense), GraphFingerprint(sparse))
        << "threads=" << threads;
  }
}

TEST(ParallelLoaderTest, CommentsBlanksAndTrailingTokens) {
  const std::string text =
      "# header comment\n"
      "% percent comment\n"
      "\n"
      "   \t \n"
      "1 2 weight=7 extra tokens\n"
      "\t2  3\n"
      "3 1\r\n";
  const Graph g = ReadEdgeList(text, 2);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(ParallelLoaderTest, LabelsSortedByRawId) {
  const Graph g = ReadEdgeList("100 7\n7 3\n", 2);
  ASSERT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.LabelOf(0), 3u);
  EXPECT_EQ(g.LabelOf(1), 7u);
  EXPECT_EQ(g.LabelOf(2), 100u);
  // Vertex 1 (raw 7) neighbors raw 3 and raw 100.
  EXPECT_EQ(g.Neighbors(1).size(), 2u);
  EXPECT_EQ(g.Neighbors(0).size(), 1u);
}

TEST(ParallelLoaderTest, DuplicatesAndSelfLoops) {
  // Duplicate edges collapse (in either direction); a self-loop keeps the
  // vertex but contributes no edge.
  const Graph g = ReadEdgeList("1 2\n2 1\n1 2\n5 5\n", 2);
  ASSERT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.LabelOf(2), 5u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(ParallelLoaderTest, MalformedInputNamesFirstBadLineInFileOrder) {
  const auto expect_throws_line = [](const std::string& text,
                                     const std::string& needle) {
    for (const unsigned threads : kThreadCounts) {
      try {
        ReadEdgeList(text, threads);
        FAIL() << "expected malformed-input throw for: " << text;
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
            << "threads=" << threads << " what=" << error.what();
      }
    }
  };
  expect_throws_line("1 2\nbad line\n3 4\n", "line 2");
  expect_throws_line("1 2\n3\n", "line 2");            // missing endpoint
  expect_throws_line("1 -2\n", "line 1");              // negative id
  expect_throws_line("99999999999 1\n", "line 1");     // > 32-bit id
  // Two bad lines in different chunks: the *first in file order* wins
  // regardless of which chunk parses first.
  std::string text;
  text += "nope\n";
  for (int i = 0; i < 5000; ++i) text += "1 2\n";
  text += "also bad\n";
  expect_throws_line(text, "line 1");
}

TEST(ParallelLoaderTest, EmptyInputYieldsEmptyGraph) {
  const Graph g = ReadEdgeList("", 4);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  const Graph comments_only = ReadEdgeList("# nothing\n\n", 4);
  EXPECT_EQ(comments_only.NumVertices(), 0u);
}

TEST(ParallelLoaderTest, MissingFileThrows) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/kvcc.el", 2),
               std::runtime_error);
}

}  // namespace
}  // namespace kvcc
