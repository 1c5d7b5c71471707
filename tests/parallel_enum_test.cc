// Determinism of the parallel enumeration engine: a job on a KvccEngine
// must produce the components and stats totals of the serial
// EnumerateKVccs for every worker count, because each work item is a pure
// function of its input and the merged output is canonically sorted.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/fixtures.h"
#include "gen/planted_vcc.h"
#include "graph/connected_components.h"
#include "graph/k_core.h"
#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"
#include "support/replay_stats.h"
#include "support/workers.h"

namespace kvcc {
namespace {

const std::vector<std::uint32_t> kThreadCounts = {1, 2, 4, 8};

void ExpectSameStats(const KvccStats& a, const KvccStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.kvccs_found, b.kvccs_found) << context;
  EXPECT_EQ(a.global_cut_calls, b.global_cut_calls) << context;
  EXPECT_EQ(a.overlap_partitions, b.overlap_partitions) << context;
  EXPECT_EQ(a.kcore_rounds, b.kcore_rounds) << context;
  EXPECT_EQ(a.kcore_removed_vertices, b.kcore_removed_vertices) << context;
  EXPECT_EQ(a.loc_cut_flow_calls, b.loc_cut_flow_calls) << context;
  EXPECT_EQ(a.Phase1Total(), b.Phase1Total()) << context;
  EXPECT_EQ(a.phase1_tested_flow, b.phase1_tested_flow) << context;
  EXPECT_EQ(a.phase2_pairs_tested, b.phase2_pairs_tested) << context;
  EXPECT_EQ(a.strong_side_checks_run, b.strong_side_checks_run) << context;
  EXPECT_EQ(a.certificate_cut_fallbacks, b.certificate_cut_fallbacks)
      << context;
}

/// Runs every configured thread count and asserts all runs agree with the
/// serial one (components byte-identical, stats totals equal).
KvccResult ExpectThreadInvariant(const Graph& g, std::uint32_t k,
                                 const KvccOptions& options) {
  const KvccResult serial = EnumerateKVccs(g, k, options);
  for (std::uint32_t threads : kThreadCounts) {
    const KvccResult run =
        kvcc::testing::EnumerateOnWorkers(g, k, options, threads);
    const std::string context = "threads=" + std::to_string(threads) +
                                " k=" + std::to_string(k);
    EXPECT_EQ(run.components, serial.components) << context;
    ExpectSameStats(run.stats, serial.stats, context);
  }
  return serial;
}

TEST(ParallelEnumTest, LargeCoreComponentsGiveIdenticalResults) {
  // The k-core falls into three components of 512 or more vertices, so
  // the root item spawns each as an item of its own, and on a pool every
  // one of their GLOBAL-CUT calls forks its certificate and side-vertex
  // ranges onto the workers. Every stats field a serial run books must
  // repeat, k-core rounds included.
  const std::uint32_t k = 5;
  const Graph g = kvcc::testing::SplitCoreGraph(k, 11);
  const Graph core = g.InducedSubgraph(KCoreVertices(g, k));
  const auto components = ConnectedComponents(core);
  ASSERT_EQ(components.size(), 3u);
  for (const auto& component : components) {
    ASSERT_GE(component.size(), 512u);
  }

  const KvccOptions options = KvccOptions::VcceStar();
  const KvccResult serial = EnumerateKVccs(g, k, options);
  EXPECT_GE(serial.components.size(), 3u);
  EXPECT_GT(serial.stats.overlap_partitions, 0u);
  for (const std::uint32_t threads : {2u, 4u}) {
    const KvccResult run =
        kvcc::testing::EnumerateOnWorkers(g, k, options, threads);
    const std::string context = "threads=" + std::to_string(threads);
    EXPECT_EQ(run.components, serial.components) << context;
    EXPECT_EQ(kvcc::testing::ReplayIdenticalStats(run.stats),
              kvcc::testing::ReplayIdenticalStats(serial.stats))
        << context;
    EXPECT_GT(run.stats.probes_launched, 0u) << context;
  }
}

TEST(ParallelEnumTest, PlantedVccFixture) {
  PlantedVccConfig config;
  config.num_blocks = 6;
  config.block_size_min = 18;
  config.block_size_max = 30;
  config.connectivity = 8;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 99;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const KvccResult serial =
      ExpectThreadInvariant(planted.graph, planted.max_connected_k,
                            KvccOptions::VcceStar());
  EXPECT_EQ(serial.components, planted.blocks);
}

TEST(ParallelEnumTest, PlantedRingAllVariants) {
  PlantedVccConfig config;
  config.num_blocks = 5;
  config.block_size_min = 14;
  config.block_size_max = 20;
  config.connectivity = 7;
  config.overlap = 1;
  config.bridge_edges = 1;
  config.ring = true;
  config.seed = 12;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  for (KvccOptions options :
       {KvccOptions::Vcce(), KvccOptions::VcceN(), KvccOptions::VcceG(),
        KvccOptions::VcceStar()}) {
    const KvccResult serial = ExpectThreadInvariant(
        planted.graph, planted.max_connected_k, options);
    EXPECT_EQ(serial.components, planted.blocks);
  }
}

TEST(ParallelEnumTest, Figure1Fixture) {
  const Figure1Fixture f = MakeFigure1Graph();
  const KvccResult serial =
      ExpectThreadInvariant(f.graph, 4, KvccOptions::VcceStar());
  EXPECT_EQ(serial.components, f.expected_vccs);
}

TEST(ParallelEnumTest, CaseStudyFixture) {
  const CaseStudyFixture f = MakeCaseStudyGraph();
  const KvccResult serial =
      ExpectThreadInvariant(f.graph, 4, KvccOptions::VcceStar());
  EXPECT_EQ(serial.components.size(), f.expected_vcc_count);
}

TEST(ParallelEnumTest, RandomGraphsMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 26, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      const KvccResult run = kvcc::testing::EnumerateOnWorkers(g, k, {}, 4);
      EXPECT_EQ(run.components, expected) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(ParallelEnumTest, HardwareConcurrencyAutoDetect) {
  // Zero workers resolves to hardware concurrency; result unchanged.
  const Figure1Fixture f = MakeFigure1Graph();
  const KvccResult run = kvcc::testing::EnumerateOnWorkers(f.graph, 4, {}, 0);
  EXPECT_EQ(run.components, f.expected_vccs);
}

TEST(ParallelEnumTest, LabeledInputReportsLocalIds) {
  // A subgraph carries labels into EnumerateKVccs; results must still be
  // in the *input graph's* id space for every thread count (the root
  // used to be re-labeled via an identity copy; now the label chain is
  // seeded lazily).
  const Graph big = TwoCliquesSharing(6, 2);  // 4-VCCs {0..5}, {4..9}.
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < big.NumVertices(); ++v) keep.push_back(v);
  // Drop vertex 0: the labeled subgraph maps local v -> big id v + 1.
  keep.erase(keep.begin());
  const Graph labeled = big.InducedSubgraph(keep);
  ASSERT_TRUE(labeled.HasLabels());
  for (std::uint32_t threads : kThreadCounts) {
    const KvccResult run =
        kvcc::testing::EnumerateOnWorkers(labeled, 4, {}, threads);
    // Big's clique {0..5} loses vertex 0 but stays a 4-VCC as a 5-clique
    // (local ids {0..4}); clique {4..9} survives whole (local ids {3..8}).
    ASSERT_EQ(run.components.size(), 2u) << "threads=" << threads;
    EXPECT_EQ(run.components[0], (std::vector<VertexId>{0, 1, 2, 3, 4}))
        << "threads=" << threads;
    EXPECT_EQ(run.components[1], (std::vector<VertexId>{3, 4, 5, 6, 7, 8}))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace kvcc
