#include <gtest/gtest.h>

#include <algorithm>

#include "gen/fixtures.h"
#include "graph/bfs.h"
#include "graph/biconnected.h"
#include "graph/graph.h"
#include "kvcc/connectivity.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

TEST(BfsTest, DistancesOnPath) {
  const Graph g = PathGraph(5);
  std::vector<std::uint32_t> dist;
  const std::uint32_t reached = BfsDistances(g, 0, dist);
  EXPECT_EQ(reached, 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, UnreachableMarked) {
  const Graph g = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {2, 3}});
  std::vector<std::uint32_t> dist;
  BfsDistances(g, 0, dist);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(BfsTest, FarthestVertexAndEccentricity) {
  const Graph g = PathGraph(7);
  const auto [far, dist] = FarthestVertex(g, 0);
  EXPECT_EQ(far, 6u);
  EXPECT_EQ(dist, 6u);
  EXPECT_EQ(Eccentricity(g, 3), 3u);
}

TEST(BiconnectedTest, PathDecomposesIntoBridgeBlocks) {
  const Graph g = PathGraph(4);
  const auto decomposition = BiconnectedComponents(g);
  EXPECT_EQ(decomposition.blocks.size(), 3u);  // Each edge is a block.
  EXPECT_EQ(decomposition.cut_vertices, (std::vector<VertexId>{1, 2}));
}

TEST(BiconnectedTest, CycleIsOneBlockNoCutVertices) {
  const Graph g = CycleGraph(8);
  const auto decomposition = BiconnectedComponents(g);
  ASSERT_EQ(decomposition.blocks.size(), 1u);
  EXPECT_EQ(decomposition.blocks[0].size(), 8u);
  EXPECT_TRUE(decomposition.cut_vertices.empty());
}

TEST(BiconnectedTest, TwoTrianglesSharingAVertex) {
  // Bowtie: triangles {0,1,2} and {2,3,4} share vertex 2.
  const Graph g = Graph::FromEdges(
      5, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  const auto decomposition = BiconnectedComponents(g);
  ASSERT_EQ(decomposition.blocks.size(), 2u);
  EXPECT_EQ(decomposition.cut_vertices, (std::vector<VertexId>{2}));
  std::vector<std::vector<VertexId>> blocks = decomposition.blocks;
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(blocks[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(blocks[1], (std::vector<VertexId>{2, 3, 4}));
}

TEST(BiconnectedTest, IsolatedVerticesFormNoBlock) {
  const Graph g = Graph::FromEdges(
      3, std::vector<std::pair<VertexId, VertexId>>{{0, 1}});
  const auto decomposition = BiconnectedComponents(g);
  EXPECT_EQ(decomposition.blocks.size(), 1u);
}

TEST(BiconnectedTest, BlocksOfAtLeastFiltersBridges) {
  const Graph g = PathGraph(4);
  EXPECT_TRUE(BlocksOfAtLeast(g, 3).empty());
  EXPECT_EQ(BlocksOfAtLeast(g, 2).size(), 3u);
}

// Property: every block with >= 3 vertices is 2-vertex-connected, blocks
// cover all edges, and distinct blocks overlap in at most one vertex.
TEST(BiconnectedTest, RandomGraphsBlockInvariants) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(24, 18, seed);
    const auto decomposition = BiconnectedComponents(g);
    std::uint64_t edge_total = 0;
    for (const auto& block : decomposition.blocks) {
      const Graph sub = g.InducedSubgraph(block);
      edge_total += sub.NumEdges();
      if (block.size() >= 3) {
        EXPECT_TRUE(kvcc::testing::BruteIsKVertexConnected(sub, 2))
            << "seed=" << seed;
      }
    }
    // Blocks partition the edges: induced subgraphs of blocks can only
    // contain block edges because two blocks share at most one vertex.
    EXPECT_EQ(edge_total, g.NumEdges()) << "seed=" << seed;
    for (std::size_t i = 0; i < decomposition.blocks.size(); ++i) {
      for (std::size_t j = i + 1; j < decomposition.blocks.size(); ++j) {
        std::vector<VertexId> overlap;
        std::set_intersection(decomposition.blocks[i].begin(),
                              decomposition.blocks[i].end(),
                              decomposition.blocks[j].begin(),
                              decomposition.blocks[j].end(),
                              std::back_inserter(overlap));
        EXPECT_LE(overlap.size(), 1u) << "seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace kvcc
