#include "ecc/kecc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/fixtures.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/k_core.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

TEST(KeccTest, Figure1MatchesPaper) {
  const Figure1Fixture f = MakeFigure1Graph();
  EXPECT_EQ(KEdgeConnectedComponents(f.graph, 4), f.expected_eccs);
}

TEST(KeccTest, CliqueIsSingleComponent) {
  const auto eccs = KEdgeConnectedComponents(CompleteGraph(6), 4);
  ASSERT_EQ(eccs.size(), 1u);
  EXPECT_EQ(eccs[0].size(), 6u);
}

TEST(KeccTest, CycleAtKTwo) {
  const auto eccs = KEdgeConnectedComponents(CycleGraph(8), 2);
  ASSERT_EQ(eccs.size(), 1u);
  EXPECT_EQ(eccs[0].size(), 8u);
  EXPECT_TRUE(KEdgeConnectedComponents(CycleGraph(8), 3).empty());
}

TEST(KeccTest, BridgedCliquesSplit) {
  // Two K5 joined by a single edge: 4-ECCs are the two cliques.
  GraphBuilder builder(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 5, v + 5);
    }
  }
  builder.AddEdge(0, 5);
  const Graph g = builder.Build();
  const auto eccs = KEdgeConnectedComponents(g, 4);
  ASSERT_EQ(eccs.size(), 2u);
  EXPECT_EQ(eccs[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(eccs[1], (std::vector<VertexId>{5, 6, 7, 8, 9}));
}

TEST(KeccTest, ComponentsAreDisjoint) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(40, 120, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto eccs = KEdgeConnectedComponents(g, k);
      std::set<VertexId> seen;
      for (const auto& ecc : eccs) {
        EXPECT_GT(ecc.size(), k);
        for (VertexId v : ecc) {
          EXPECT_TRUE(seen.insert(v).second)
              << "vertex in two k-ECCs, seed=" << seed;
        }
      }
    }
  }
}

TEST(KeccTest, EveryComponentIsKEdgeConnected) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(30, 90, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      for (const auto& ecc : KEdgeConnectedComponents(g, k)) {
        EXPECT_TRUE(IsKEdgeConnected(g.InducedSubgraph(ecc), k))
            << "seed=" << seed << " k=" << k;
      }
    }
  }
}

// Each component comes with a lower bound b >= k on its edge
// connectivity. Where Stoer–Wagner confirmed the component (k >= 3), b is
// its exact edge connectivity: the component is b- but not
// (b + 1)-edge-connected.
TEST(KeccTest, ReportsEachComponentsEdgeConnectivity) {
  int above_k = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(30, 130, seed);
    for (std::uint32_t k = 1; k <= 6; ++k) {
      std::vector<std::uint32_t> bounds;
      const auto eccs = KEdgeConnectedComponents(g, k, &bounds);
      EXPECT_EQ(eccs, KEdgeConnectedComponents(g, k));
      ASSERT_EQ(bounds.size(), eccs.size()) << "seed=" << seed << " k=" << k;
      for (std::size_t c = 0; c < eccs.size(); ++c) {
        const Graph sub = g.InducedSubgraph(eccs[c]);
        EXPECT_GE(bounds[c], k) << "seed=" << seed << " k=" << k;
        EXPECT_TRUE(IsKEdgeConnected(sub, bounds[c]))
            << "seed=" << seed << " k=" << k << " bound=" << bounds[c];
        if (k >= 3) {
          EXPECT_FALSE(IsKEdgeConnected(sub, bounds[c] + 1))
              << "seed=" << seed << " k=" << k << " bound=" << bounds[c];
        }
        if (bounds[c] > k) ++above_k;
      }
    }
  }
  EXPECT_GT(above_k, 0);
}

TEST(KeccTest, ComponentsNestInKCore) {
  const Graph g = kvcc::testing::RandomConnectedGraph(50, 150, 3);
  const std::uint32_t k = 3;
  const auto core = KCoreVertices(g, k);
  const std::set<VertexId> core_set(core.begin(), core.end());
  for (const auto& ecc : KEdgeConnectedComponents(g, k)) {
    for (VertexId v : ecc) EXPECT_TRUE(core_set.count(v));
  }
}

TEST(KeccTest, MaximalityNoMergeableNeighborPair) {
  // Merging any two k-ECCs joined by edges must not be k-edge-connected.
  const Figure1Fixture f = MakeFigure1Graph();
  const auto eccs = KEdgeConnectedComponents(f.graph, 4);
  ASSERT_EQ(eccs.size(), 2u);
  std::vector<VertexId> merged;
  merged.insert(merged.end(), eccs[0].begin(), eccs[0].end());
  merged.insert(merged.end(), eccs[1].begin(), eccs[1].end());
  EXPECT_FALSE(IsKEdgeConnected(f.graph.InducedSubgraph(merged), 4));
}

TEST(IsKEdgeConnectedTest, Basics) {
  EXPECT_TRUE(IsKEdgeConnected(CycleGraph(5), 2));
  EXPECT_FALSE(IsKEdgeConnected(CycleGraph(5), 3));
  EXPECT_TRUE(IsKEdgeConnected(CompleteGraph(5), 4));
  EXPECT_FALSE(IsKEdgeConnected(PathGraph(4), 2));
  EXPECT_FALSE(IsKEdgeConnected(CompleteGraph(1), 1));
}

}  // namespace
}  // namespace kvcc
