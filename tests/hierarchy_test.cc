#include "kvcc/hierarchy.h"

#include <gtest/gtest.h>

#include "gen/fixtures.h"
#include "gen/planted_vcc.h"
#include "graph/graph.h"
#include "kvcc/engine.h"
#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

/// Field-by-field equality of two hierarchies (vertices, nesting links,
/// level grouping, and per-vertex cohesion).
void ExpectSameHierarchy(const KvccHierarchy& a, const KvccHierarchy& b,
                         VertexId num_vertices, const std::string& context) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << context;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].level, b.nodes[i].level) << context << " node " << i;
    EXPECT_EQ(a.nodes[i].vertices, b.nodes[i].vertices)
        << context << " node " << i;
    EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent) << context << " node "
                                                    << i;
    EXPECT_EQ(a.nodes[i].children, b.nodes[i].children)
        << context << " node " << i;
  }
  EXPECT_EQ(a.levels, b.levels) << context;
  for (VertexId v = 0; v < num_vertices; ++v) {
    EXPECT_EQ(a.CohesionOf(v), b.CohesionOf(v)) << context << " v=" << v;
  }
  EXPECT_EQ(a.stats.kvccs_found, b.stats.kvccs_found) << context;
  EXPECT_EQ(a.stats.global_cut_calls, b.stats.global_cut_calls) << context;
}

TEST(HierarchyTest, CliqueHasSingleChain) {
  const Graph g = CompleteGraph(6);
  const KvccHierarchy h = BuildKvccHierarchy(g);
  EXPECT_EQ(h.MaxLevel(), 5u);  // K6 is 5-connected with 6 > 5 vertices.
  for (std::uint32_t k = 1; k <= 5; ++k) {
    ASSERT_EQ(h.NodesAtLevel(k).size(), 1u) << "k=" << k;
    EXPECT_EQ(h.nodes[h.NodesAtLevel(k)[0]].vertices.size(), 6u);
  }
  EXPECT_TRUE(h.NodesAtLevel(6).empty());
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(h.CohesionOf(v), 5u);
}

TEST(HierarchyTest, EveryLevelMatchesDirectEnumeration) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(30, 70, seed);
    const KvccHierarchy h = BuildKvccHierarchy(g);
    for (std::uint32_t k = 1; k <= h.MaxLevel() + 1; ++k) {
      EXPECT_EQ(h.ComponentsAtLevel(k), EnumerateKVccs(g, k).components)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(HierarchyTest, ThreadedBuildMatchesSerialExactly) {
  // The engine-driven build submits each level's parents as independent
  // jobs; the merged hierarchy must be identical to the serial one for
  // every worker count.
  std::vector<Graph> inputs;
  inputs.push_back(MakeFigure1Graph().graph);
  inputs.push_back(kvcc::testing::RandomConnectedGraph(30, 70, 3));
  PlantedVccConfig config;
  config.num_blocks = 4;
  config.block_size_min = 12;
  config.block_size_max = 18;
  config.connectivity = 7;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 77;
  inputs.push_back(GeneratePlantedVcc(config).graph);

  for (std::size_t gi = 0; gi < inputs.size(); ++gi) {
    const Graph& g = inputs[gi];
    const KvccHierarchy serial = BuildKvccHierarchy(g);
    for (std::uint32_t threads : {2u, 8u}) {
      KvccEngine engine(threads);
      const KvccHierarchy parallel = BuildKvccHierarchy(engine, g);
      ExpectSameHierarchy(serial, parallel, g.NumVertices(),
                          "graph=" + std::to_string(gi) +
                              " threads=" + std::to_string(threads));
    }
  }
}

TEST(HierarchyTest, SharedEngineBuildMatchesSerial) {
  // Several hierarchies built back to back on one warm engine.
  const Figure1Fixture f = MakeFigure1Graph();
  const KvccHierarchy serial = BuildKvccHierarchy(f.graph);
  KvccEngine engine(4);
  for (int round = 0; round < 3; ++round) {
    const KvccHierarchy shared = BuildKvccHierarchy(engine, f.graph);
    ExpectSameHierarchy(serial, shared, f.graph.NumVertices(),
                        "round=" + std::to_string(round));
  }
}

TEST(HierarchyTest, ParentsNestChildren) {
  const Figure1Fixture f = MakeFigure1Graph();
  const KvccHierarchy h = BuildKvccHierarchy(f.graph);
  for (const auto& node : h.nodes) {
    if (node.parent == HierarchyNode::kNoParent) {
      EXPECT_EQ(node.level, 1u);
      continue;
    }
    const HierarchyNode& parent = h.nodes[node.parent];
    EXPECT_EQ(parent.level + 1, node.level);
    // The child's vertex set is contained in the parent's.
    EXPECT_TRUE(std::includes(parent.vertices.begin(),
                              parent.vertices.end(),
                              node.vertices.begin(), node.vertices.end()));
  }
}

TEST(HierarchyTest, Figure1LevelsTellTheStory) {
  const Figure1Fixture f = MakeFigure1Graph();
  const KvccHierarchy h = BuildKvccHierarchy(f.graph);
  // Level 1: one connected component. Level 4: the four blocks.
  EXPECT_EQ(h.NodesAtLevel(1).size(), 1u);
  EXPECT_EQ(h.ComponentsAtLevel(4), f.expected_vccs);
  // The K7 blocks survive to level 6, the K6 blocks only to level 5.
  EXPECT_EQ(h.NodesAtLevel(6).size(), 2u);
  EXPECT_EQ(h.NodesAtLevel(7).size(), 0u);
}

TEST(HierarchyTest, CohesionOfTracksDeepestLevel) {
  const Graph g = TwoCliquesSharing(6, 2);  // K6s sharing 2 vertices.
  const KvccHierarchy h = BuildKvccHierarchy(g);
  // Every vertex is in a K6 -> cohesion 5; shared vertices no higher.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(h.CohesionOf(v), 5u);
  }
  EXPECT_EQ(h.CohesionOf(9999), 0u);  // Out of range is safe.
}

TEST(HierarchyTest, MaxLevelCapRespected) {
  const Graph g = CompleteGraph(8);
  const KvccHierarchy h = BuildKvccHierarchy(g, /*max_level=*/3);
  EXPECT_EQ(h.MaxLevel(), 3u);
}

TEST(HierarchyTest, PlantedBlocksAppearAtTheirLevel) {
  PlantedVccConfig config;
  config.num_blocks = 4;
  config.block_size_min = 14;
  config.block_size_max = 18;
  config.connectivity = 6;
  config.overlap = 1;
  config.bridge_edges = 1;
  config.seed = 12;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const KvccHierarchy h =
      BuildKvccHierarchy(planted.graph, planted.max_connected_k);
  EXPECT_EQ(h.ComponentsAtLevel(planted.max_connected_k), planted.blocks);
}

}  // namespace
}  // namespace kvcc
