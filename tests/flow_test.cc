#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "flow/stoer_wagner.h"
#include "gen/erdos_renyi.h"
#include "gen/fixtures.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "kvcc/connectivity.h"
#include "kvcc/flow_graph.h"
#include "support/brute_force.h"
#include "support/referee.h"
#include "util/random.h"

namespace kvcc {
namespace {

/// True iff removing `cut` (which must avoid u and v) leaves u and v in
/// different components of g.
bool CutSeparates(const Graph& g, const std::vector<VertexId>& cut,
                  VertexId u, VertexId v) {
  if (std::find(cut.begin(), cut.end(), u) != cut.end()) return false;
  if (std::find(cut.begin(), cut.end(), v) != cut.end()) return false;
  std::vector<VertexId> keep;
  std::vector<VertexId> relabel(g.NumVertices(), 0);
  for (VertexId w = 0; w < g.NumVertices(); ++w) {
    if (std::find(cut.begin(), cut.end(), w) == cut.end()) {
      relabel[w] = static_cast<VertexId>(keep.size());
      keep.push_back(w);
    }
  }
  const Graph remainder = g.InducedSubgraph(keep);
  std::vector<std::uint32_t> dist;
  BfsDistances(remainder, relabel[u], dist);
  return dist[relabel[v]] == kUnreachable;
}

/// Vertex mask (n < 32) of the vertices reachable from u once the vertices
/// of `removed` are gone.
std::uint32_t ReachMask(const Graph& g, VertexId u, std::uint32_t removed) {
  std::uint32_t reach = 1u << u;
  std::uint32_t frontier = reach;
  while (frontier != 0) {
    const auto x = static_cast<VertexId>(std::countr_zero(frontier));
    frontier &= frontier - 1;
    for (const VertexId y : g.Neighbors(x)) {
      const std::uint32_t bit = 1u << y;
      if (((removed | reach) & bit) != 0) continue;
      reach |= bit;
      frontier |= bit;
    }
  }
  return reach;
}

std::uint32_t MaskOf(const std::vector<VertexId>& vertices) {
  std::uint32_t mask = 0;
  for (const VertexId x : vertices) mask |= 1u << x;
  return mask;
}

/// Brute force over every set of at most `max_size` vertices other than u
/// and v (n < 32): entry c is the intersection of the vertex masks left
/// reachable from u by the c-vertex u-v separators, or 0 when no separator
/// has c vertices (a reachable set always holds u).
std::vector<std::uint32_t> ClosestReachBySize(const Graph& g, VertexId u,
                                              VertexId v,
                                              std::uint32_t max_size) {
  const std::uint32_t others =
      ((1u << g.NumVertices()) - 1) & ~(1u << u) & ~(1u << v);
  std::vector<std::uint32_t> closest(max_size + 1, 0);
  for (std::uint32_t removed = others;; removed = (removed - 1) & others) {
    const auto size = static_cast<std::uint32_t>(std::popcount(removed));
    if (size <= max_size) {
      const std::uint32_t reach = ReachMask(g, u, removed);
      if (((reach >> v) & 1) == 0) {
        closest[size] = closest[size] == 0 ? reach : closest[size] & reach;
      }
    }
    if (removed == 0) break;
  }
  return closest;
}

// A probe binds no graph: one object answers on graph after graph.
TEST(FlowProbeTest, ReusesOneProbeAcrossGraphs) {
  FlowProbe probe;
  const Graph k5 = CompleteGraph(5);
  // Adjacent vertices have no separating cut: LocCut returns empty.
  EXPECT_TRUE(probe.LocCut(k5, 0, 1, 4).empty());

  const Graph cycle = CycleGraph(8);
  // In C8, kappa(0, 4) = 2 < 3: a 2-vertex cut must come back.
  EXPECT_EQ(probe.LocCut(cycle, 0, 4, 3), (std::vector<VertexId>{1, 7}));

  const Graph bip = CompleteBipartite(3, 3);
  // kappa between two left-side vertices of K_{3,3} is 3: no cut below 3.
  EXPECT_TRUE(probe.LocCut(bip, 0, 1, 3).empty());
}

// Probe by probe on random graphs: LocCut answers empty iff the
// brute-force kappa(u, v) >= k, and otherwise a separating cut of exactly
// kappa vertices (a minimum cut has the max-flow size).
TEST(FlowProbeTest, LocCutMatchesBruteForceConnectivity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, seed);
    FlowProbe probe;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
        if (g.HasEdge(u, v)) continue;
        const std::uint32_t kappa =
            kvcc::testing::BruteLocalVertexConnectivity(g, u, v);
        for (std::uint32_t k = 2; k <= 5; ++k) {
          const std::vector<VertexId> cut = probe.LocCut(g, u, v, k);
          if (kappa >= k) {
            EXPECT_TRUE(cut.empty())
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
          } else {
            EXPECT_EQ(cut.size(), kappa)
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
            EXPECT_TRUE(CutSeparates(g, cut, u, v))
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
          }
        }
      }
    }
  }
}

// The cut is the minimum u-v separator closest to u: removing it leaves u
// a reachable set that every other separator of its size leaves reachable
// too. That set is the residual-reachable set of every maximum flow, so
// the cut does not depend on how the flow was found, which is what lets
// the probe seed its flow with the two-hop paths. Brute force over every
// separator of fewer than six vertices.
TEST(FlowProbeTest, CutIsClosestMinimumSeparator) {
  constexpr std::uint32_t kMaxK = 6;
  FlowProbe probe;
  int cuts = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto n = static_cast<VertexId>(8 + seed % 6);
    const double density = 0.25 + 0.05 * static_cast<double>(seed % 9);
    const Graph g = ErdosRenyiGnp(n, density, seed);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        const std::vector<std::uint32_t> closest =
            ClosestReachBySize(g, u, v, kMaxK - 1);
        std::uint32_t kappa = 0;
        while (kappa < kMaxK && closest[kappa] == 0) ++kappa;
        for (std::uint32_t k = 1; k <= kMaxK; ++k) {
          const std::vector<VertexId> cut = probe.LocCut(g, u, v, k);
          if (kappa >= k) {
            EXPECT_TRUE(cut.empty())
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
            continue;
          }
          ++cuts;
          ASSERT_EQ(cut.size(), kappa)
              << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
          const std::uint32_t mask = MaskOf(cut);
          EXPECT_EQ(mask & ((1u << u) | (1u << v)), 0u);
          EXPECT_EQ(ReachMask(g, u, mask), closest[kappa])
              << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
        }
      }
    }
  }
  EXPECT_GT(cuts, 10000);
}

// Common neighbours settle the flow before any level search. In K_{5,5}
// the left vertices 0 and 1 share all five right vertices, so one merge of
// their rows reaches any limit up to 5, at one move per row entry at most.
// In the second graph, 0 and 1 share 2 and 3 and are also joined by the
// longer path 0-4-5-1, which only a level search finds; 6 hangs off 0 and
// 4, so of the two minimum cuts {2, 3, 4} and {2, 3, 5} the first is the
// one closest to 0.
TEST(FlowProbeTest, SharedNeighboursSettleWithoutLevelSearch) {
  FlowProbe probe;
  const Graph bip = CompleteBipartite(5, 5);
  const std::uint64_t row_entries = bip.Degree(0) + bip.Degree(1);
  for (const std::uint32_t limit : {3u, 5u}) {
    const std::uint64_t before = probe.work_moves();
    EXPECT_EQ(probe.LocalConnectivity(bip, 0, 1, limit), limit);
    EXPECT_LE(probe.work_moves() - before, row_entries) << "limit=" << limit;
  }

  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 1}, {0, 6}, {6, 4}};
  const Graph g = Graph::FromEdges(7, edges);
  const std::uint32_t kappa =
      kvcc::testing::BruteLocalVertexConnectivity(g, 0, 1);
  ASSERT_EQ(kappa, 3u);
  EXPECT_EQ(probe.LocalConnectivity(g, 0, 1, 10), kappa);
  const std::vector<VertexId> cut = probe.LocCut(g, 0, 1, 4);
  EXPECT_EQ(cut, (std::vector<VertexId>{2, 3, 4}));
  EXPECT_EQ(ReachMask(g, 0, MaskOf(cut)), ClosestReachBySize(g, 0, 1, 3)[3]);
}

// Three-hop paths settle the rest of the flow before any level search.
// Vertices 0 and 1 share the neighbours 2 and 3, and 0's other neighbours
// 4..7 each reach a neighbour of 1 (8..11) in one more hop, so seeding
// alone reaches the limit 6. It reads the rows of 0 and 1 once and a
// prefix of each of 4..7's rows, and never a row of the shared neighbours.
// The same bound holds when 1 is a hub with 10,000 more neighbours: its
// row is read once, however long.
TEST(FlowProbeTest, ThreeHopPathsSettleWithoutLevelSearch) {
  constexpr std::uint32_t kLimit = 6;
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 2}, {2, 1}, {0, 3}, {3, 1}};
  for (VertexId a = 4; a < 8; ++a) {
    edges.insert(edges.end(), {{0, a}, {a, a + 4}, {a + 4, 1}});
    if (a + 1 < 8) edges.emplace_back(a, a + 1);
  }
  const Graph g = Graph::FromEdges(12, edges);
  for (VertexId leaf = 12; leaf < 10012; ++leaf) edges.emplace_back(1, leaf);
  const Graph hub = Graph::FromEdges(10012, edges);
  ASSERT_EQ(hub.Degree(1), 10006u);

  FlowProbe probe;
  for (const Graph* graph : {&g, &hub}) {
    std::uint64_t row_entries = graph->Degree(0) + graph->Degree(1);
    for (const VertexId a : graph->Neighbors(0)) {
      row_entries += graph->Degree(a);
    }
    const std::uint64_t before = probe.work_moves();
    EXPECT_EQ(probe.LocalConnectivity(*graph, 0, 1, kLimit), kLimit)
        << "n=" << graph->NumVertices();
    EXPECT_LE(probe.work_moves() - before, row_entries)
        << "n=" << graph->NumVertices();
  }
  EXPECT_EQ(kvcc::testing::BruteLocalVertexConnectivity(g, 0, 1), kLimit);
}

// A greedy three-hop choice can block another one: 2 takes 4, the only
// neighbour of 1 that 3 reaches, so the maximum flow needs an augmenting
// path 0-3-4-2-5-1 that cancels the seeded link 2 -> 4. Vertex 6 hangs off
// 0 and 2, so of the minimum cuts {2, 3}, {2, 4} and {4, 5} the first is
// the one closest to 0.
TEST(FlowProbeTest, AugmentationCancelsSeededThreeHopPath) {
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 2}, {0, 3}, {0, 6}, {6, 2}, {2, 4}, {2, 5}, {3, 4}, {4, 1}, {5, 1}};
  const Graph g = Graph::FromEdges(7, edges);
  const std::uint32_t kappa =
      kvcc::testing::BruteLocalVertexConnectivity(g, 0, 1);
  ASSERT_EQ(kappa, 2u);
  FlowProbe probe;
  EXPECT_EQ(probe.LocalConnectivity(g, 0, 1, 10), kappa);
  const std::vector<VertexId> cut = probe.LocCut(g, 0, 1, 3);
  EXPECT_EQ(cut, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(ReachMask(g, 0, MaskOf(cut)), ClosestReachBySize(g, 0, 1, 2)[2]);
}

// The probe against the independent referee on graphs too large for brute
// force: LocCut answers empty iff kappa(u, v) >= k, and otherwise a cut of
// exactly kappa vertices that the referee confirms separates u from v;
// LocalVertexConnectivity returns kappa itself.
TEST(LocCutRefereeTest, MatchesRefereeOnRandomGraphs) {
  std::uint64_t seed = 0;
  for (const VertexId n : {40u, 90u, 160u}) {
    for (const std::uint64_t extra : {2ull * n, 5ull * n}) {
      ++seed;
      const Graph g = kvcc::testing::RandomConnectedGraph(n, extra, seed);
      const kvcc::testing::Referee referee(g);
      FlowProbe probe;
      Rng rng(seed);
      for (int sample = 0; sample < 400; ++sample) {
        const auto u = static_cast<VertexId>(rng.NextBounded(n));
        const auto v = static_cast<VertexId>(rng.NextBounded(n));
        if (u == v || referee.Adjacent(u, v)) continue;
        const std::uint32_t kappa = referee.LocalConnectivity(u, v);
        ASSERT_EQ(LocalVertexConnectivity(g, u, v), kappa)
            << "n=" << n << " seed=" << seed << " u=" << u << " v=" << v;
        for (std::uint32_t k = 2; k <= 9; ++k) {
          const std::vector<VertexId> cut = probe.LocCut(g, u, v, k);
          if (kappa >= k) {
            EXPECT_TRUE(cut.empty()) << "n=" << n << " seed=" << seed
                                     << " u=" << u << " v=" << v
                                     << " k=" << k;
          } else {
            EXPECT_EQ(cut.size(), kappa) << "n=" << n << " seed=" << seed
                                         << " u=" << u << " v=" << v
                                         << " k=" << k;
            EXPECT_TRUE(referee.Separates(cut, u, v))
                << "n=" << n << " seed=" << seed << " u=" << u
                << " v=" << v << " k=" << k;
          }
        }
      }
    }
  }
}

// Adjacent pairs and self-probes are locally k-connected for free (Lemma
// 5): LocCut answers empty without running any flow.
TEST(FlowProbeTest, AdjacentAndSelfProbesRunNoFlow) {
  const Graph g = PetersenGraph();
  FlowProbe probe;
  EXPECT_TRUE(probe.LocCut(g, 0, 0, 3).empty());
  // Petersen vertex 0 is adjacent to 1.
  EXPECT_TRUE(probe.LocCut(g, 0, 1, 3).empty());
  EXPECT_EQ(probe.work_moves(), 0u);
}

// A probe that runs a flow books the residual moves it examined.
TEST(FlowProbeTest, FlowProbeCountsInspectedArcs) {
  const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, 3);
  FlowProbe probe;
  VertexId v = 2;
  while (v < g.NumVertices() && g.HasEdge(0, v)) ++v;
  ASSERT_LT(v, g.NumVertices());
  probe.LocCut(g, 0, v, 4);
  EXPECT_GT(probe.work_moves(), 0u);
}

// One probe reused across graphs that shrink and grow answers every pair
// exactly like a fresh probe: the same cut and the same work count, so
// probe_edges_touched does not depend on which pool slot ran a probe.
TEST(FlowProbeTest, ReusedProbeMatchesFreshProbeAcrossGraphSizes) {
  const Graph big = kvcc::testing::RandomConnectedGraph(14, 40, 9);
  const Graph small = kvcc::testing::RandomConnectedGraph(8, 14, 10);
  const Graph grown = kvcc::testing::RandomConnectedGraph(16, 50, 11);
  FlowProbe reused;
  for (const Graph* g : {&big, &small, &grown, &small, &big}) {
    for (VertexId u = 0; u < g->NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g->NumVertices(); ++v) {
        if (g->HasEdge(u, v)) continue;
        for (const std::uint32_t k : {3u, 6u}) {
          FlowProbe fresh;
          const std::uint64_t before = reused.work_moves();
          EXPECT_EQ(reused.LocCut(*g, u, v, k), fresh.LocCut(*g, u, v, k))
              << "n=" << g->NumVertices() << " u=" << u << " v=" << v
              << " k=" << k;
          EXPECT_EQ(reused.work_moves() - before, fresh.work_moves())
              << "n=" << g->NumVertices() << " u=" << u << " v=" << v
              << " k=" << k;
        }
      }
    }
  }
}

// A probe stopped early at its limit leaves no flow behind: the next,
// exact probe on the same object still finds the full value and the cut.
TEST(FlowProbeTest, ExactProbeAfterLimitedProbeOnOneObject) {
  const Graph g = TwoCliquesSharing(6, 2);  // kappa(0, 9) = 2 via {4, 5}.
  const Graph bip = CompleteBipartite(5, 5);  // kappa(0, 1) = 5.
  FlowProbe probe;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(probe.LocalConnectivity(bip, 0, 1, 2), 2u) << "round=" << round;
    EXPECT_EQ(probe.LocalConnectivity(bip, 0, 1, 100), 5u)
        << "round=" << round;
    EXPECT_TRUE(probe.LocCut(g, 0, 9, 2).empty()) << "round=" << round;
    EXPECT_EQ(probe.LocCut(g, 0, 9, 4), (std::vector<VertexId>{4, 5}))
        << "round=" << round;
  }
}

// A maximum flow that needs a cancellation. In the path 0-1-2-3 with the
// detours 1-4-5-3 and 0-6-7-2, the only shortest augmenting path 0-1-2-3
// blocks both disjoint paths, so the second phase must cancel the flow on
// 1 -> 2: its path enters 2_in on the new arc 7_out -> 2_in and leaves it
// back along 1_out -> 2_in, so the cancellation must be applied before the
// addition, which both rewrite 2's flow predecessor. With the extra detour
// 0-8-2 the new predecessor is 8, and the final level BFS reads it: a
// lost predecessor would let that BFS walk through vertex 2 and miscut.
TEST(FlowProbeTest, AugmentationCancelsFlow) {
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {1, 4}, {4, 5}, {5, 3}, {0, 6}, {6, 7}, {7, 2}};
  const Graph g = Graph::FromEdges(8, edges);
  FlowProbe probe;
  EXPECT_EQ(probe.LocalConnectivity(g, 0, 3, 10), 2u);
  EXPECT_EQ(probe.LocCut(g, 0, 3, 3), (std::vector<VertexId>{1, 6}));

  edges.insert(edges.end(), {{0, 8}, {8, 2}});
  const Graph detour = Graph::FromEdges(9, edges);
  EXPECT_EQ(probe.LocalConnectivity(detour, 0, 3, 10), 2u);
  EXPECT_EQ(probe.LocCut(detour, 0, 3, 3), (std::vector<VertexId>{1, 2}));
}

TEST(StoerWagnerTest, TrivialGraphs) {
  EXPECT_EQ(StoerWagnerMinCut(Graph()).weight, GlobalMinCut::kInfiniteCut);
  EXPECT_EQ(StoerWagnerMinCut(CompleteGraph(1)).weight,
            GlobalMinCut::kInfiniteCut);
}

TEST(StoerWagnerTest, DisconnectedGraphHasZeroCut) {
  const Graph g = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {2, 3}});
  const auto cut = StoerWagnerMinCut(g);
  EXPECT_EQ(cut.weight, 0u);
}

TEST(StoerWagnerTest, BridgeGraph) {
  // Two triangles joined by one edge: min cut 1.
  const Graph g = Graph::FromEdges(
      6, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  const auto cut = StoerWagnerMinCut(g);
  EXPECT_EQ(cut.weight, 1u);
  EXPECT_TRUE(cut.side.size() == 3 || cut.side.size() == 3u);
}

TEST(StoerWagnerTest, CompleteGraphCut) {
  // K_5: min cut isolates one vertex, weight 4.
  EXPECT_EQ(StoerWagnerMinCut(CompleteGraph(5)).weight, 4u);
}

TEST(StoerWagnerTest, CycleCutIsTwo) {
  EXPECT_EQ(StoerWagnerMinCut(CycleGraph(9)).weight, 2u);
}

TEST(StoerWagnerTest, EarlyStopReturnsValidSubThresholdCut) {
  const Graph g = MakeFigure1Graph().graph;
  const auto cut = StoerWagnerMinCut(g, /*early_stop_below=*/4);
  ASSERT_LT(cut.weight, 4u);
  ASSERT_FALSE(cut.side.empty());
  ASSERT_LT(cut.side.size(), g.NumVertices());
  // Verify the reported weight matches the actual crossing-edge count.
  std::vector<bool> in_side(g.NumVertices(), false);
  for (VertexId v : cut.side) in_side[v] = true;
  std::uint64_t crossing = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v && in_side[u] != in_side[v]) ++crossing;
    }
  }
  EXPECT_EQ(crossing, cut.weight);
}

// Property: Stoer–Wagner matches the brute-force min cut on random graphs.
TEST(StoerWagnerTest, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(10, seed % 14, seed);
    const auto cut = StoerWagnerMinCut(g);
    EXPECT_EQ(cut.weight, kvcc::testing::BruteMinEdgeCutWeight(g))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace kvcc
