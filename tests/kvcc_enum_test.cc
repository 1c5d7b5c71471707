#include "kvcc/kvcc_enum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "ecc/kecc.h"
#include "gen/fixtures.h"
#include "gen/planted_vcc.h"
#include "graph/biconnected.h"
#include "graph/connected_components.h"
#include "graph/k_core.h"
#include "kvcc/connectivity.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

std::vector<KvccOptions> AllVariants() {
  return {KvccOptions::Vcce(), KvccOptions::VcceN(), KvccOptions::VcceG(),
          KvccOptions::VcceStar()};
}

TEST(KvccEnumTest, RejectsKZero) {
  EXPECT_THROW(EnumerateKVccs(CompleteGraph(3), 0), std::invalid_argument);
}

TEST(KvccEnumTest, EmptyAndTinyGraphs) {
  EXPECT_TRUE(EnumerateKVccs(Graph(), 2).components.empty());
  EXPECT_TRUE(EnumerateKVccs(CompleteGraph(3), 3).components.empty());
  // K4 at k=3 is itself a 3-VCC.
  const auto result = EnumerateKVccs(CompleteGraph(4), 3);
  ASSERT_EQ(result.components.size(), 1u);
  EXPECT_EQ(result.components[0], (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(KvccEnumTest, Figure1ReproducesThePaper) {
  const Figure1Fixture f = MakeFigure1Graph();
  for (const auto& options : AllVariants()) {
    const auto result = EnumerateKVccs(f.graph, 4, options);
    EXPECT_EQ(result.components, f.expected_vccs);
  }
  // And the contrasting models behave as in Fig. 1:
  EXPECT_EQ(KEdgeConnectedComponents(f.graph, 4), f.expected_eccs);
  EXPECT_EQ(KCoreVertices(f.graph, 4), f.expected_core);
}

TEST(KvccEnumTest, TwoCliquesSharingFewerThanKVertices) {
  const Graph g = TwoCliquesSharing(6, 2);  // Shared pair {4, 5}.
  const auto result = EnumerateKVccs(g, 4);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.components[0],
            (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(result.components[1],
            (std::vector<VertexId>{4, 5, 6, 7, 8, 9}));
  // Overlap below k (Property 1).
  std::vector<VertexId> overlap;
  std::set_intersection(result.components[0].begin(),
                        result.components[0].end(),
                        result.components[1].begin(),
                        result.components[1].end(),
                        std::back_inserter(overlap));
  EXPECT_EQ(overlap, (std::vector<VertexId>{4, 5}));
}

TEST(KvccEnumTest, TwoCliquesSharingKVerticesMerge) {
  // Sharing k vertices means the union is k-connected: one k-VCC.
  const Graph g = TwoCliquesSharing(8, 4);
  const auto result = EnumerateKVccs(g, 4);
  ASSERT_EQ(result.components.size(), 1u);
  EXPECT_EQ(result.components[0].size(), g.NumVertices());
}

TEST(KvccEnumTest, KOneGivesConnectedComponents) {
  const Graph g = Graph::FromEdges(
      7, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}});
  const auto result = EnumerateKVccs(g, 1);
  // 1-VCCs = connected components with >= 2 vertices (vertex 6 isolated).
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.components[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(result.components[1], (std::vector<VertexId>{3, 4, 5}));
}

TEST(KvccEnumTest, KTwoMatchesBiconnectedBlocks) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(40, 30, seed);
    auto expected = BlocksOfAtLeast(g, 3);
    std::sort(expected.begin(), expected.end());
    const auto result = EnumerateKVccs(g, 2);
    EXPECT_EQ(result.components, expected) << "seed=" << seed;
  }
}

TEST(KvccEnumTest, MatchesBruteForceOnSmallRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 22, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      for (const auto& options : AllVariants()) {
        const auto result = EnumerateKVccs(g, k, options);
        EXPECT_EQ(result.components, expected)
            << "seed=" << seed << " k=" << k;
      }
    }
  }
}

TEST(KvccEnumTest, PlantedBlocksAreRecoveredExactly) {
  PlantedVccConfig config;
  config.num_blocks = 5;
  config.block_size_min = 18;
  config.block_size_max = 26;
  config.connectivity = 8;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 77;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  for (std::uint32_t k = planted.min_separating_k;
       k <= planted.max_connected_k; ++k) {
    const auto result = EnumerateKVccs(planted.graph, k);
    EXPECT_EQ(result.components, planted.blocks) << "k=" << k;
  }
}

TEST(KvccEnumTest, PlantedRingRecovered) {
  PlantedVccConfig config;
  config.num_blocks = 4;
  config.block_size_min = 16;
  config.block_size_max = 20;
  config.connectivity = 7;
  config.overlap = 1;
  config.bridge_edges = 1;
  config.ring = true;
  config.seed = 5;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const auto result = EnumerateKVccs(planted.graph, planted.max_connected_k);
  EXPECT_EQ(result.components, planted.blocks);
}

TEST(KvccEnumTest, OverlapPartitionDuplicatesCut) {
  const Graph g = TwoCliquesSharing(5, 1);  // Cut vertex 4.
  const auto pieces = OverlapPartition(g, {4});
  ASSERT_EQ(pieces.size(), 2u);
  for (const auto& piece : pieces) {
    EXPECT_EQ(piece.vertices.size(), 5u);
    EXPECT_TRUE(std::binary_search(piece.vertices.begin(),
                                   piece.vertices.end(), 4u));
    EXPECT_EQ(piece.graph.NumVertices(), 5u);
  }
}

TEST(KvccEnumTest, OverlapPartitionRejectsNonSeparatingCut) {
  // Regression: this precondition used to be an assert, so a Release build
  // fed a non-cut would return the parent graph as its own single piece
  // and the recursion would respawn it forever. Now every build mode
  // throws.
  const Graph g = CompleteGraph(5);
  EXPECT_THROW(OverlapPartition(g, {0}), std::logic_error);   // 1 piece.
  EXPECT_THROW(OverlapPartition(g, {}), std::logic_error);    // No cut.
  EXPECT_THROW(OverlapPartition(g, {0, 1, 2, 3, 4}), std::logic_error);
  // A real cut still partitions fine.
  const Graph chain = TwoCliquesSharing(5, 1);
  EXPECT_EQ(OverlapPartition(chain, {4}).size(), 2u);
}

TEST(KvccEnumTest, CaseStudyShapesMatchFig14) {
  const CaseStudyFixture f = MakeCaseStudyGraph();
  const auto vccs = EnumerateKVccs(f.graph, 4);
  EXPECT_EQ(vccs.components.size(), f.expected_vcc_count);
  // The ego is in every group; the bridge author is in none.
  for (const auto& component : vccs.components) {
    EXPECT_TRUE(std::binary_search(component.begin(), component.end(),
                                   f.ego));
    EXPECT_FALSE(std::binary_search(component.begin(), component.end(),
                                    f.bridge_author));
  }
  // The bridge author *is* in the (single) 4-ECC and in the 4-core.
  const auto eccs = KEdgeConnectedComponents(f.graph, 4);
  ASSERT_EQ(eccs.size(), 1u);
  EXPECT_TRUE(std::binary_search(eccs[0].begin(), eccs[0].end(),
                                 f.bridge_author));
  const auto core = KCoreVertices(f.graph, 4);
  EXPECT_TRUE(std::binary_search(core.begin(), core.end(),
                                 f.bridge_author));
}

TEST(KvccEnumTest, ComponentInducesKConnectedSubgraph) {
  const Figure1Fixture f = MakeFigure1Graph();
  const auto result = EnumerateKVccs(f.graph, 4);
  ASSERT_FALSE(result.components.empty());
  const Graph sub = f.graph.InducedSubgraph(result.components[0]);
  EXPECT_EQ(sub.NumVertices(), result.components[0].size());
  EXPECT_TRUE(IsKVertexConnected(sub, 4));
}

TEST(KvccEnumTest, StatsCountKvccsAndPartitions) {
  const Figure1Fixture f = MakeFigure1Graph();
  const auto result = EnumerateKVccs(f.graph, 4);
  EXPECT_EQ(result.stats.kvccs_found, 4u);
  EXPECT_GE(result.stats.overlap_partitions, 2u);
  EXPECT_GE(result.stats.global_cut_calls, 4u);
}

}  // namespace
}  // namespace kvcc
