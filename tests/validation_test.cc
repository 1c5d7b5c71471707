#include "kvcc/validation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "graph/graph.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "support/brute_force.h"
#include "support/workers.h"

namespace kvcc {
namespace {

using kvcc::testing::DisconnectedFixture;
using kvcc::testing::RandomConnectedGraph;

TEST(ValidationTest, AcceptsCorrectDecomposition) {
  const Figure1Fixture f = MakeFigure1Graph();
  const auto result = EnumerateKVccs(f.graph, 4);
  const ValidationReport report =
      ValidateKvccResult(f.graph, 4, result.components);
  EXPECT_TRUE(report.ok)
      << (report.violations.empty() ? "" : report.violations.front());
}

TEST(ValidationTest, RejectsUndersizedComponent) {
  const Graph g = CompleteGraph(6);
  // A 4-element "4-VCC" violates |V| > k.
  const std::vector<std::vector<VertexId>> bad = {{0, 1, 2, 3}};
  const ValidationReport report = ValidateKvccResult(g, 4, bad);
  EXPECT_FALSE(report.ok);
}

TEST(ValidationTest, RejectsDisconnectedClaim) {
  const Graph g = TwoCliquesSharing(6, 2);
  // Claiming the whole graph as one 4-VCC: it has a 2-cut.
  std::vector<VertexId> all;
  for (VertexId v = 0; v < g.NumVertices(); ++v) all.push_back(v);
  const ValidationReport report = ValidateKvccResult(g, 4, {all});
  EXPECT_FALSE(report.ok);
}

TEST(ValidationTest, RejectsExcessiveOverlap) {
  const Graph g = CompleteGraph(8);
  // Two fabricated components overlapping in 5 >= k vertices.
  const std::vector<std::vector<VertexId>> bad = {{0, 1, 2, 3, 4, 5},
                                                  {1, 2, 3, 4, 5, 6}};
  const ValidationReport report = ValidateKvccResult(g, 4, bad);
  EXPECT_FALSE(report.ok);
}

TEST(ValidationTest, RejectsMissedComponent) {
  const Figure1Fixture f = MakeFigure1Graph();
  const auto result = EnumerateKVccs(f.graph, 4);
  // Drop one component: completeness check must notice the k-connected
  // uncovered region.
  auto partial = result.components;
  partial.pop_back();
  const ValidationReport report = ValidateKvccResult(f.graph, 4, partial);
  EXPECT_FALSE(report.ok);
}

TEST(ValidationTest, RejectsNestedComponents) {
  const Graph g = CompleteGraph(9);
  const std::vector<std::vector<VertexId>> bad = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 2, 3, 4}};
  const ValidationReport report = ValidateKvccResult(g, 4, bad);
  EXPECT_FALSE(report.ok);
}

TEST(ValidationTest, RejectsOutOfRangeVertex) {
  const Graph g = CompleteGraph(6);
  const std::vector<std::vector<VertexId>> bad = {{0, 1, 2, 3, 99}};
  const ValidationReport report = ValidateKvccResult(g, 4, bad);
  EXPECT_FALSE(report.ok);
}

TEST(ValidationTest, RejectsNonMaximalComponent) {
  // K4 inside K5 is 3-connected, but vertex 4 has 4 >= 3 neighbours in
  // it: the 3-VCC set of K5 is all five vertices.
  const Graph g = CompleteGraph(5);
  const ValidationReport report = ValidateKvccResult(g, 3, {{0, 1, 2, 3}});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(ValidateKvccResult(g, 3, {{0, 1, 2, 3, 4}}).ok);
}

TEST(ValidationTest, RejectsPrismHalves) {
  // The triangular prism: triangles {0, 1, 2} and {3, 4, 5} joined by the
  // perfect matching 0-3, 1-4, 2-5. Each triangle is 2-connected and no
  // outside vertex has 2 neighbours in it, but the three matching edges
  // keep the union connected after removing any one vertex: the 2-VCC set
  // is all six vertices.
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}, {1, 4}, {2, 5}};
  const Graph g = Graph::FromEdges(6, edges);
  EXPECT_FALSE(ValidateKvccResult(g, 2, {{0, 1, 2}, {3, 4, 5}}).ok);
  const std::vector<std::vector<VertexId>> all = {{0, 1, 2, 3, 4, 5}};
  EXPECT_TRUE(ValidateKvccResult(g, 2, all).ok);
  EXPECT_EQ(EnumerateKVccs(g, 2).components, all);
}

// Shapes whose k-core splits into several components, or peels down to a
// proper subgraph, enumerated at several thread counts: every run must
// agree and pass the validator.
TEST(ValidationTest, SplitCoreShapesValidateAtEveryThreadCount) {
  for (const Graph& g :
       {TwoCliquesSharing(8, 2), RandomConnectedGraph(60, 120, 5),
        DisconnectedFixture(), BarabasiAlbert(300, 4, 7)}) {
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const KvccOptions options = KvccOptions::VcceStar();
      const KvccResult serial = EnumerateKVccs(g, k, options);
      const ValidationReport report =
          ValidateKvccResult(g, k, serial.components);
      EXPECT_TRUE(report.ok)
          << "n=" << g.NumVertices() << " k=" << k << ": "
          << (report.violations.empty() ? "" : report.violations.front());
      for (const unsigned threads : {2u, 8u}) {
        EXPECT_EQ(kvcc::testing::EnumerateOnWorkers(g, k, options, threads)
                      .components,
                  serial.components)
            << "n=" << g.NumVertices() << " k=" << k
            << " threads=" << threads;
      }
    }
  }
}

TEST(ValidationTest, RandomDecompositionsAlwaysValidate) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = RandomConnectedGraph(40, 110, seed);
    for (std::uint32_t k = 2; k <= 5; ++k) {
      const auto result = EnumerateKVccs(g, k);
      const ValidationReport report =
          ValidateKvccResult(g, k, result.components);
      EXPECT_TRUE(report.ok)
          << "seed=" << seed << " k=" << k << ": "
          << (report.violations.empty() ? "" : report.violations.front());
    }
  }
}

}  // namespace
}  // namespace kvcc
