// Exhaustive option-knob correctness sweep: every combination of the
// GLOBAL-CUT* switches must produce exactly the brute-force k-VCC set.
// Sweeps/certificates/ordering/maintenance are pure optimizations — any
// output difference is a soundness bug.

#include <gtest/gtest.h>

#include <string>

#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

struct Knobs {
  bool neighbor_sweep;
  bool group_sweep;
  bool sparse_certificate;
  bool distance_order;
  bool maintain_side_vertices;
  bool phase2_common_neighbor_skip;
  std::uint32_t degree_cap;
};

class OptionsMatrixTest : public ::testing::TestWithParam<Knobs> {};

std::string KnobsName(const ::testing::TestParamInfo<Knobs>& info) {
  const Knobs& knobs = info.param;
  std::string name;
  name += knobs.neighbor_sweep ? "Ns" : "ns";
  name += knobs.group_sweep ? "Gs" : "gs";
  name += knobs.sparse_certificate ? "Sc" : "sc";
  name += knobs.distance_order ? "Do" : "do";
  name += knobs.maintain_side_vertices ? "Mv" : "mv";
  name += knobs.phase2_common_neighbor_skip ? "P2" : "p2";
  name += "cap" + std::to_string(knobs.degree_cap);
  return name;
}

TEST_P(OptionsMatrixTest, MatchesBruteForce) {
  const Knobs& knobs = GetParam();
  KvccOptions options;
  options.neighbor_sweep = knobs.neighbor_sweep;
  options.group_sweep = knobs.group_sweep;
  options.sparse_certificate = knobs.sparse_certificate;
  options.distance_order = knobs.distance_order;
  options.maintain_side_vertices = knobs.maintain_side_vertices;
  options.phase2_common_neighbor_skip = knobs.phase2_common_neighbor_skip;
  options.side_vertex_degree_cap = knobs.degree_cap;

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 26, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      const auto result = EnumerateKVccs(g, k, options);
      EXPECT_EQ(result.components, expected)
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(result.stats.certificate_cut_fallbacks, 0u);
    }
  }
}

// Execution-dimension sweep: the decomposition must be byte-identical to
// the brute-force set for every thread count x intra-cut-parallelism
// combination — the parallel paths replay the serial decision sequence.
TEST(ExecutionMatrixTest, ThreadsTimesIntraCutMatchesBruteForce) {
  for (std::uint64_t seed : {2ull, 5ull, 9ull}) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 26, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      for (std::uint32_t threads : {1u, 2u, 8u}) {
        for (const bool intra_cut : {false, true}) {
          KvccOptions options = KvccOptions::VcceStar();
          options.num_threads = threads;
          options.intra_cut_parallelism = intra_cut;
          const auto result = EnumerateKVccs(g, k, options);
          EXPECT_EQ(result.components, expected)
              << "seed=" << seed << " k=" << k << " threads=" << threads
              << " intra_cut=" << intra_cut;
          EXPECT_EQ(result.stats.certificate_cut_fallbacks, 0u);
        }
      }
    }
  }
}

// All 2^4 combinations of the two sweeps x certificate x ordering, with
// the remaining knobs at both extremes on the diagonal.
INSTANTIATE_TEST_SUITE_P(
    AllKnobCombinations, OptionsMatrixTest,
    ::testing::Values(
        Knobs{false, false, false, false, false, false, 0},
        Knobs{false, false, false, true, false, false, 0},
        Knobs{false, false, true, false, false, false, 0},
        Knobs{false, false, true, true, false, false, 0},
        Knobs{false, true, false, false, false, false, 0},
        Knobs{false, true, false, true, false, false, 0},
        Knobs{false, true, true, false, false, false, 0},
        Knobs{false, true, true, true, false, false, 0},
        Knobs{true, false, false, false, true, false, 0},
        Knobs{true, false, false, true, false, true, 0},
        Knobs{true, false, true, false, true, true, 0},
        Knobs{true, false, true, true, true, true, 0},
        Knobs{true, true, false, false, false, false, 0},
        Knobs{true, true, false, true, true, false, 0},
        Knobs{true, true, true, false, false, true, 0},
        Knobs{true, true, true, true, true, true, 0},
        // Degree caps: a tiny cap (heavy under-detection) and cap 1.
        Knobs{true, true, true, true, true, true, 2},
        Knobs{true, true, true, true, false, true, 1}),
    KnobsName);

}  // namespace
}  // namespace kvcc
