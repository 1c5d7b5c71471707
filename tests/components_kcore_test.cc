#include <gtest/gtest.h>

#include <algorithm>

#include "gen/fixtures.h"
#include "graph/connected_components.h"
#include "graph/graph.h"
#include "graph/k_core.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

TEST(ConnectedComponentsTest, SingleComponent) {
  const Graph g = CycleGraph(5);
  EXPECT_TRUE(IsConnected(g));
  const auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 5u);
}

TEST(ConnectedComponentsTest, MultipleComponentsAndIsolated) {
  Graph g = Graph::FromEdges(
      6, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {2, 3}});
  EXPECT_FALSE(IsConnected(g));
  const auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 4u);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(comps[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(comps[2], (std::vector<VertexId>{4}));
}

TEST(ConnectedComponentsTest, EmptyGraphIsConnected) {
  EXPECT_TRUE(IsConnected(Graph()));
}

TEST(KCoreTest, CompleteGraphSurvivesUpToDegree) {
  const Graph g = CompleteGraph(6);  // every degree = 5
  EXPECT_EQ(KCoreVertices(g, 5).size(), 6u);
  EXPECT_TRUE(KCoreVertices(g, 6).empty());
}

TEST(KCoreTest, PathPeelsEntirelyAtTwo) {
  const Graph g = PathGraph(10);
  EXPECT_EQ(KCoreVertices(g, 1).size(), 10u);
  EXPECT_TRUE(KCoreVertices(g, 2).empty());
}

TEST(KCoreTest, CorePeelingCascades) {
  // Triangle with a pendant path: 0-1-2 triangle, 2-3-4 path.
  const Graph g = Graph::FromEdges(
      5, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  const auto core2 = KCoreVertices(g, 2);
  EXPECT_EQ(core2, (std::vector<VertexId>{0, 1, 2}));
}

TEST(KCoreTest, SubgraphMatchesVertices) {
  const Graph g = MakeFigure1Graph().graph;
  const auto vertices = KCoreVertices(g, 4);
  const Graph core = KCoreSubgraph(g, 4);
  EXPECT_EQ(core.NumVertices(), vertices.size());
}

TEST(KCoreTest, Figure1FourCoreIsWholeGraph) {
  const Figure1Fixture f = MakeFigure1Graph();
  const auto core = KCoreVertices(f.graph, 4);
  EXPECT_EQ(core, f.expected_core);
  // And it is a single connected component, unlike the VCCs/ECCs.
  EXPECT_TRUE(IsConnected(f.graph.InducedSubgraph(core)));
}

TEST(CoreNumbersTest, MatchesKCorePeeling) {
  // core[v] >= k  <=>  v in k-core, for every k.
  const Graph g = kvcc::testing::RandomConnectedGraph(60, 140, 7);
  const auto core = CoreNumbers(g);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const auto survivors = KCoreVertices(g, k);
    std::vector<VertexId> by_core_number;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (core[v] >= k) by_core_number.push_back(v);
    }
    EXPECT_EQ(survivors, by_core_number) << "k=" << k;
  }
}

TEST(CoreNumbersTest, DegeneracyOfClique) {
  EXPECT_EQ(Degeneracy(CompleteGraph(7)), 6u);
  EXPECT_EQ(Degeneracy(CycleGraph(9)), 2u);
  EXPECT_EQ(Degeneracy(PathGraph(9)), 1u);
}

}  // namespace
}  // namespace kvcc
