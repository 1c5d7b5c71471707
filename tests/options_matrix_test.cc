// Exhaustive variant correctness sweep: each of the four reachable
// algorithm configurations (neighbor sweep x group sweep, the paper's VCCE,
// VCCE-N, VCCE-G and VCCE*) must produce exactly the brute-force k-VCC set.
// Sweeps, the certificate, ordering and verdict maintenance are pure
// optimizations — any output difference is a soundness bug.

#include <gtest/gtest.h>

#include <string>

#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"
#include "support/workers.h"

namespace kvcc {
namespace {

struct Sweeps {
  bool neighbor_sweep;
  bool group_sweep;
};

class OptionsMatrixTest : public ::testing::TestWithParam<Sweeps> {};

std::string SweepsName(const ::testing::TestParamInfo<Sweeps>& info) {
  std::string name;
  name += info.param.neighbor_sweep ? "Ns" : "ns";
  name += info.param.group_sweep ? "Gs" : "gs";
  return name;
}

TEST_P(OptionsMatrixTest, MatchesBruteForce) {
  KvccOptions options;
  options.neighbor_sweep = GetParam().neighbor_sweep;
  options.group_sweep = GetParam().group_sweep;

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 26, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      const auto result = EnumerateKVccs(g, k, options);
      EXPECT_EQ(result.components, expected)
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(result.stats.certificate_cut_fallbacks, 0u);
      // A serial search runs every wave inline, one probe each, and
      // settles what precedes a wave's probe on the spot: no speculation.
      EXPECT_EQ(result.stats.probe_wavefronts, 0u);
      EXPECT_EQ(result.stats.probes_launched, 0u);
      EXPECT_EQ(result.stats.probes_wasted_swept, 0u)
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(result.stats.probes_wasted_after_cut, 0u)
          << "seed=" << seed << " k=" << k;
    }
  }
}

// Execution-dimension sweep: the decomposition must be byte-identical to
// the brute-force set for every thread count — the parallel paths replay
// the serial decision sequence.
TEST(ExecutionMatrixTest, ThreadCountsMatchBruteForce) {
  for (std::uint64_t seed : {2ull, 5ull, 9ull}) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 26, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      for (std::uint32_t threads : {1u, 2u, 8u}) {
        const auto result = kvcc::testing::EnumerateOnWorkers(
            g, k, KvccOptions::VcceStar(), threads);
        EXPECT_EQ(result.components, expected)
            << "seed=" << seed << " k=" << k << " threads=" << threads;
        EXPECT_EQ(result.stats.certificate_cut_fallbacks, 0u);
      }
    }
  }
}

// Every combination of the two sweeps; nothing else in KvccOptions
// selects an algorithm.
INSTANTIATE_TEST_SUITE_P(AllVariants, OptionsMatrixTest,
                         ::testing::Values(Sweeps{false, false},
                                           Sweeps{true, false},
                                           Sweeps{false, true},
                                           Sweeps{true, true}),
                         SweepsName);

}  // namespace
}  // namespace kvcc
