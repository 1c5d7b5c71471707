// Cross-module integration tests: determinism, labeled inputs, clique
// chains, dataset-suite decompositions, dot export — the seams between
// subsystems that unit tests do not cover.

#include <gtest/gtest.h>

#include <sstream>

#include "ecc/kecc.h"
#include "gen/clique_chain.h"
#include "gen/dataset_suite.h"
#include "gen/fixtures.h"
#include "graph/dot_export.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "kvcc/connectivity.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/validation.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

TEST(CliqueChainTest, ConnectivityEqualsOverlap) {
  // Chain of 3 K8s sharing 4: kappa = 4.
  const Graph g = CliqueChain(3, 8, 4);
  EXPECT_EQ(g.NumVertices(), 3u * 4 + 4);
  EXPECT_EQ(VertexConnectivity(g), 4u);
}

TEST(CliqueChainTest, SingleCliqueDegenerate) {
  const Graph g = CliqueChain(1, 6, 2);
  EXPECT_EQ(g.NumEdges(), 15u);
  EXPECT_EQ(VertexConnectivity(g), 5u);
}

TEST(CliqueChainTest, KvccPhaseTransitionAtOverlap) {
  const Graph g = CliqueChain(4, 8, 4);
  // k <= overlap: one k-VCC spanning the chain.
  const auto merged = EnumerateKVccs(g, 4);
  ASSERT_EQ(merged.components.size(), 1u);
  EXPECT_EQ(merged.components[0].size(), g.NumVertices());
  // k > overlap: shatters into the individual cliques.
  const auto split = EnumerateKVccs(g, 5);
  EXPECT_EQ(split.components.size(), 4u);
  for (const auto& component : split.components) {
    EXPECT_EQ(component.size(), 8u);
  }
}

TEST(CliqueChainTest, RejectsBadParameters) {
  EXPECT_THROW(CliqueChain(0, 5, 2), std::invalid_argument);
  EXPECT_THROW(CliqueChain(2, 5, 5), std::invalid_argument);
  EXPECT_THROW(CliqueChain(2, 5, 0), std::invalid_argument);
}

TEST(DeterminismTest, RepeatedRunsProduceIdenticalOutput) {
  const Graph g = kvcc::testing::RandomConnectedGraph(60, 180, 99);
  for (const auto& variant : {"VCCE", "VCCE-N", "VCCE-G", "VCCE*"}) {
    const KvccOptions options = KvccOptions::FromVariantName(variant);
    const auto a = EnumerateKVccs(g, 4, options);
    const auto b = EnumerateKVccs(g, 4, options);
    EXPECT_EQ(a.components, b.components) << variant;
    EXPECT_EQ(a.stats.loc_cut_flow_calls, b.stats.loc_cut_flow_calls)
        << variant;
  }
}

TEST(LabeledInputTest, ResultsAreInInputIdSpace) {
  // Read a graph whose raw ids are sparse; EnumerateKVccs must report ids
  // of the *compacted* input graph, mappable back via LabelsOf.
  const Graph g = ReadEdgeList(
      "100 101\n100 102\n100 103\n101 102\n101 103\n102 103\n"  // K4
      "103 200\n200 201\n");
  const auto result = EnumerateKVccs(g, 3);
  ASSERT_EQ(result.components.size(), 1u);
  const auto raw = g.LabelsOf(result.components[0]);
  EXPECT_EQ(raw, (std::vector<VertexId>{100, 101, 102, 103}));
}

TEST(DisconnectedInputTest, ComponentsHandledIndependently) {
  // Two K5s with no connection at all.
  GraphBuilder builder(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 5, v + 5);
    }
  }
  const Graph g = builder.Build();
  const auto result = EnumerateKVccs(g, 4);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.components[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.components[1], (std::vector<VertexId>{5, 6, 7, 8, 9}));
}

TEST(DatasetIntegrationTest, TinyScaleDecomposesAndValidates) {
  // End-to-end over the suite at tiny scale: enumerate, then validate all
  // paper properties with the independent checker.
  for (const auto& name : DatasetNames()) {
    const Graph g = GenerateDataset(name, 0.05);
    const std::uint32_t k = name == "youtube" ? 8 : 20;
    const auto result = EnumerateKVccs(g, k);
    const ValidationReport report =
        ValidateKvccResult(g, k, result.components);
    EXPECT_TRUE(report.ok)
        << name << ": "
        << (report.violations.empty() ? "" : report.violations.front());
  }
}

TEST(DatasetIntegrationTest, VariantsAgreeOnDataset) {
  const Graph g = GenerateDataset("dblp", 0.05);
  const auto reference = EnumerateKVccs(g, 20).components;
  for (const auto& variant : {"VCCE", "VCCE-N", "VCCE-G"}) {
    EXPECT_EQ(
        EnumerateKVccs(g, 20, KvccOptions::FromVariantName(variant))
            .components,
        reference)
        << variant;
  }
}

TEST(DotExportTest, EmitsValidishDot) {
  const Graph g = CompleteGraph(3);
  DotOptions options;
  options.names = {"a", "b", "c"};
  options.groups_of = {{0}, {0, 1}, {1}};
  std::ostringstream out;
  WriteDot(g, out, options);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=black"), std::string::npos);  // b: 2 groups
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);  // Each edge once.
}

TEST(DotExportTest, FileWriteFailsGracefully) {
  EXPECT_THROW(WriteDotFile(CompleteGraph(2), "/nonexistent/dir/x.dot"),
               std::runtime_error);
}

TEST(EccVccConsistencyTest, EveryVccInsideSomeEcc) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(50, 160, seed);
    const std::uint32_t k = 4;
    const auto vccs = EnumerateKVccs(g, k).components;
    const auto eccs = KEdgeConnectedComponents(g, k);
    for (const auto& vcc : vccs) {
      bool nested = false;
      for (const auto& ecc : eccs) {
        if (std::includes(ecc.begin(), ecc.end(), vcc.begin(), vcc.end())) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << "seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace kvcc
