#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow/stoer_wagner.h"
#include "flow/unit_flow_network.h"
#include "gen/fixtures.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "kvcc/flow_graph.h"
#include "support/brute_force.h"

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

TEST(UnitFlowNetworkTest, SingleArc) {
  UnitFlowNetwork net(2);
  net.AddArc(0, 1, 1);
  EXPECT_EQ(net.MaxFlow(0, 1), 1);
}

TEST(UnitFlowNetworkTest, NoPathMeansZeroFlow) {
  UnitFlowNetwork net(3);
  net.AddArc(0, 1, 1);
  EXPECT_EQ(net.MaxFlow(0, 2), 0);
}

TEST(UnitFlowNetworkTest, ParallelPaths) {
  // Two disjoint 0 -> 3 paths.
  UnitFlowNetwork net(4);
  net.AddArc(0, 1, 1);
  net.AddArc(1, 3, 1);
  net.AddArc(0, 2, 1);
  net.AddArc(2, 3, 1);
  EXPECT_EQ(net.MaxFlow(0, 3), 2);
}

TEST(UnitFlowNetworkTest, BottleneckLimitsFlow) {
  // 0 -> 1 (cap 3), 1 -> 2 (cap 1): flow is 1.
  UnitFlowNetwork net(3);
  net.AddArc(0, 1, 3);
  net.AddArc(1, 2, 1);
  EXPECT_EQ(net.MaxFlow(0, 2), 1);
}

TEST(UnitFlowNetworkTest, RequiresAugmentingPathReRouting) {
  // Classic case where a greedy path must be re-routed via residual arcs.
  //   0 -> 1, 0 -> 2, 1 -> 2, 1 -> 3, 2 -> 3 (all cap 1): max flow 2.
  UnitFlowNetwork net(4);
  net.AddArc(0, 1, 1);
  net.AddArc(0, 2, 1);
  net.AddArc(1, 2, 1);
  net.AddArc(1, 3, 1);
  net.AddArc(2, 3, 1);
  EXPECT_EQ(net.MaxFlow(0, 3), 2);
}

TEST(UnitFlowNetworkTest, EarlyTerminationHonorsLimit) {
  // 5 parallel paths; ask for at most 2.
  UnitFlowNetwork net(12);
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.AddArc(0, 2 + i, 1);
    net.AddArc(2 + i, 1, 1);
  }
  EXPECT_EQ(net.MaxFlow(0, 1, 2), 2);
  net.ResetFlow();
  EXPECT_EQ(net.MaxFlow(0, 1), 5);
}

TEST(UnitFlowNetworkTest, ResetFlowRestoresCapacities) {
  UnitFlowNetwork net(2);
  net.AddArc(0, 1, 1);
  EXPECT_EQ(net.MaxFlow(0, 1), 1);
  EXPECT_EQ(net.MaxFlow(0, 1), 0);  // Saturated without reset.
  net.ResetFlow();
  EXPECT_EQ(net.MaxFlow(0, 1), 1);
}

TEST(UnitFlowNetworkTest, ResidualReachabilityDefinesCut) {
  // 0 -> 1 -> 2; after saturating, only 0 is residual-reachable.
  UnitFlowNetwork net(3);
  net.AddArc(0, 1, 1);
  net.AddArc(1, 2, 1);
  EXPECT_EQ(net.MaxFlow(0, 2), 1);
  const auto reachable = net.ResidualReachable(0);
  EXPECT_TRUE(reachable[0]);
  EXPECT_FALSE(reachable[2]);
}

TEST(UnitFlowNetworkTest, RepeatedResetCyclesStayExact) {
  // ResetFlow restores only dirtied arcs; many query/reset cycles against
  // one network must keep matching a fresh network's answers.
  const Graph g = MakeFigure1Graph().graph;
  UnitFlowNetwork reused(g.NumVertices());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) reused.AddArc(u, v, 1);
  }
  for (std::uint32_t trial = 0; trial < 30; ++trial) {
    const std::uint32_t s = trial % g.NumVertices();
    const std::uint32_t t = (trial * 7 + 3) % g.NumVertices();
    if (s == t) continue;
    UnitFlowNetwork fresh(g.NumVertices());
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v : g.Neighbors(u)) fresh.AddArc(u, v, 1);
    }
    EXPECT_EQ(reused.MaxFlow(s, t), fresh.MaxFlow(s, t))
        << "s=" << s << " t=" << t;
    reused.ResetFlow();
  }
}

TEST(UnitFlowNetworkTest, ResetAfterLimitedFlowRestoresFullValue) {
  UnitFlowNetwork net(12);
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.AddArc(0, 2 + i, 1);
    net.AddArc(2 + i, 1, 1);
  }
  for (int cycle = 0; cycle < 4; ++cycle) {
    EXPECT_EQ(net.MaxFlow(0, 1, 2), 2) << "cycle=" << cycle;
    net.ResetFlow();
    EXPECT_EQ(net.MaxFlow(0, 1), 5) << "cycle=" << cycle;
    net.ResetFlow();
  }
}

TEST(UnitFlowNetworkTest, ReinitReusesNetworkForNewTopology) {
  UnitFlowNetwork net(2);
  net.AddArc(0, 1, 1);
  EXPECT_EQ(net.MaxFlow(0, 1), 1);

  // Rebind to a larger network: two disjoint 0 -> 3 paths.
  net.Reinit(4);
  EXPECT_EQ(net.NumNodes(), 4u);
  EXPECT_EQ(net.NumArcs(), 0u);
  net.AddArc(0, 1, 1);
  net.AddArc(1, 3, 1);
  net.AddArc(0, 2, 1);
  net.AddArc(2, 3, 1);
  EXPECT_EQ(net.MaxFlow(0, 3), 2);

  // And back down to a smaller one.
  net.Reinit(3);
  net.AddArc(0, 1, 2);
  net.AddArc(1, 2, 1);
  EXPECT_EQ(net.MaxFlow(0, 2), 1);
}

TEST(DirectedFlowGraphTest, RebuildReusesOracleAcrossGraphs) {
  DirectedFlowGraph oracle;  // unbound
  const Graph k5 = CompleteGraph(5);
  oracle.Rebuild(k5);
  // kappa(u, v) in K5 \ {u,v} paths: adjacent -> LocCut returns empty.
  EXPECT_TRUE(oracle.LocCut(0, 1, 4).empty());

  const Graph cycle = CycleGraph(8);
  oracle.Rebuild(cycle);
  // In C8, kappa(0, 4) = 2 < 3: a 2-vertex cut must come back.
  const auto cut = oracle.LocCut(0, 4, 3);
  EXPECT_EQ(cut.size(), 2u);

  const Graph bip = CompleteBipartite(3, 3);
  oracle.Rebuild(bip);
  // kappa between two left-side vertices of K_{3,3} is 3: no cut below 3.
  EXPECT_TRUE(oracle.LocCut(0, 1, 3).empty());
}

// Probe by probe on random graphs: LocCut answers empty iff the
// brute-force kappa(u, v) >= k, and otherwise a separating cut of exactly
// kappa vertices (a minimum cut has the max-flow size).
TEST(DirectedFlowGraphTest, LocCutMatchesBruteForceConnectivity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, seed);
    DirectedFlowGraph flow(g);
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
        if (g.HasEdge(u, v)) continue;
        const std::uint32_t kappa =
            kvcc::testing::BruteLocalVertexConnectivity(g, u, v);
        for (std::uint32_t k = 2; k <= 5; ++k) {
          const std::vector<VertexId> cut = flow.LocCut(u, v, k);
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

// Adjacent pairs and self-probes are locally k-connected for free (Lemma
// 5): LocCut answers empty without running any flow.
TEST(DirectedFlowGraphTest, AdjacentAndSelfProbesRunNoFlow) {
  const Graph g = PetersenGraph();
  DirectedFlowGraph flow(g);
  const std::uint64_t before = flow.work_arcs();
  EXPECT_TRUE(flow.LocCut(0, 0, 3).empty());
  // Petersen vertex 0 is adjacent to 1.
  EXPECT_TRUE(flow.LocCut(0, 1, 3).empty());
  EXPECT_EQ(flow.work_arcs(), before);
}

// A probe that runs a flow books the arcs it inspected.
TEST(DirectedFlowGraphTest, FlowProbeCountsInspectedArcs) {
  const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, 3);
  DirectedFlowGraph flow(g);
  VertexId v = 2;
  while (v < g.NumVertices() && g.HasEdge(0, v)) ++v;
  ASSERT_LT(v, g.NumVertices());
  const std::uint64_t before = flow.work_arcs();
  flow.LocCut(0, v, 4);
  EXPECT_GT(flow.work_arcs(), before);
}

// The incremental rebind: a RebindShared borrower answers exactly like a
// fresh Rebuild, including after the owner rebinds to a smaller and then a
// larger graph (the borrower's private capacity state is restamped, never
// trusted stale).
TEST(DirectedFlowGraphTest, RebindSharedMatchesFreshRebuildAcrossOwnerRebinds) {
  const Graph big = kvcc::testing::RandomConnectedGraph(14, 40, 9);
  const Graph small = kvcc::testing::RandomConnectedGraph(8, 14, 10);
  const Graph grown = kvcc::testing::RandomConnectedGraph(16, 50, 11);

  DirectedFlowGraph owner;
  DirectedFlowGraph borrower;
  DirectedFlowGraph fresh;
  for (const Graph* g : {&big, &small, &grown, &small, &big}) {
    owner.Rebuild(*g);
    borrower.RebindShared(owner);
    fresh.Rebuild(*g);
    EXPECT_EQ(borrower.graph(), owner.graph());
    for (VertexId u = 0; u < g->NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g->NumVertices(); ++v) {
        if (g->HasEdge(u, v)) continue;
        EXPECT_EQ(borrower.LocCut(u, v, 3), fresh.LocCut(u, v, 3))
            << "n=" << g->NumVertices() << " u=" << u << " v=" << v;
      }
    }
  }
}

// A borrower keeps answering correctly over many probes without rebinding
// (dirty-pair reset must restore shared-topology capacities correctly).
TEST(DirectedFlowGraphTest, RepeatedProbesOnOneBindStayConsistent) {
  const Graph g = TwoCliquesSharing(6, 2);  // kappa = 2 via the shared pair.
  DirectedFlowGraph owner(g);
  DirectedFlowGraph borrower;
  borrower.RebindShared(owner);
  const std::vector<VertexId> first = borrower.LocCut(0, 9, 4);
  ASSERT_EQ(first.size(), 2u);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(borrower.LocCut(0, 9, 4), first) << "round=" << round;
    EXPECT_TRUE(borrower.LocCut(0, 9, 2).empty());
  }
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
