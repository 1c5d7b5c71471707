// Parameterized property sweeps over random graphs: every invariant the
// paper proves about k-VCCs is checked against the algorithm's output, and
// all four algorithm variants must agree bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "ecc/kecc.h"
#include "gen/fixtures.h"
#include "graph/k_core.h"
#include "kvcc/connectivity.h"
#include "kvcc/kvcc_enum.h"
#include "metrics/diameter.h"
#include "support/brute_force.h"
#include "support/referee.h"

namespace kvcc {
namespace {

struct PropertyCase {
  VertexId n;
  std::uint64_t extra_edges;
  std::uint32_t k;
  std::uint64_t seed;
};

class KvccPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  // Built via append (not operator+ chains), which also sidesteps a GCC 12
  // -Wrestrict false positive in the inlined rvalue string concatenation.
  const auto& c = info.param;
  std::string name = "n";
  name += std::to_string(c.n);
  name += "_e";
  name += std::to_string(c.extra_edges);
  name += "_k";
  name += std::to_string(c.k);
  name += "_s";
  name += std::to_string(c.seed);
  return name;
}

TEST_P(KvccPropertyTest, AllInvariantsHold) {
  const auto& c = GetParam();
  const Graph g = kvcc::testing::RandomConnectedGraph(c.n, c.extra_edges,
                                                      c.seed);
  const KvccResult result = EnumerateKVccs(g, c.k);

  // --- variant agreement: all four algorithms return identical output ---
  for (const auto& options :
       {KvccOptions::Vcce(), KvccOptions::VcceN(), KvccOptions::VcceG()}) {
    EXPECT_EQ(EnumerateKVccs(g, c.k, options).components, result.components);
  }

  // --- Theorem 6: at most n/2 k-VCCs ---
  EXPECT_LT(2 * result.components.size(), g.NumVertices() + 1);

  const auto core = KCoreVertices(g, c.k);
  const std::set<VertexId> core_set(core.begin(), core.end());
  const auto eccs = KEdgeConnectedComponents(g, c.k);

  for (const auto& component : result.components) {
    // --- component sizes obey Definition 2 ---
    EXPECT_GT(component.size(), c.k);
    EXPECT_TRUE(std::is_sorted(component.begin(), component.end()));

    // --- every k-VCC is k-vertex-connected (Lemma 1) ---
    const Graph sub = g.InducedSubgraph(component);
    EXPECT_TRUE(IsKVertexConnected(sub, c.k));

    // --- nesting (Theorem 3): inside the k-core and inside some k-ECC ---
    for (VertexId v : component) EXPECT_TRUE(core_set.count(v));
    bool inside_one_ecc = false;
    for (const auto& ecc : eccs) {
      if (std::includes(ecc.begin(), ecc.end(), component.begin(),
                        component.end())) {
        inside_one_ecc = true;
        break;
      }
    }
    EXPECT_TRUE(inside_one_ecc);

    // --- diameter bound (Theorem 2) ---
    const std::uint32_t kappa = VertexConnectivity(sub);
    EXPECT_GE(kappa, c.k);
    EXPECT_LE(ExactDiameter(sub),
              KvccDiameterUpperBound(sub.NumVertices(), kappa));
  }

  // --- Property 1: pairwise overlap below k; no containment (Lemma 3) ---
  for (std::size_t i = 0; i < result.components.size(); ++i) {
    for (std::size_t j = i + 1; j < result.components.size(); ++j) {
      std::vector<VertexId> overlap;
      std::set_intersection(
          result.components[i].begin(), result.components[i].end(),
          result.components[j].begin(), result.components[j].end(),
          std::back_inserter(overlap));
      EXPECT_LT(overlap.size(), c.k);
    }
  }

  // --- maximality: adding any adjacent outside vertex breaks
  //     k-connectivity (spot-check via brute force on small cases) ---
  if (g.NumVertices() <= 12) {
    EXPECT_EQ(result.components, kvcc::testing::BruteKVccs(g, c.k));
  }
}

// The referee's enumeration shares no code with the engine, so it is held
// to the definition itself: every vertex subset, on graphs small enough to
// enumerate.
TEST(KvccRefereeTest, MatchesBruteForceOnSmallGraphs) {
  std::size_t components = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(
        11 + seed % 3, 18 + 2 * seed, seed);
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto expected = kvcc::testing::BruteKVccs(g, k);
      EXPECT_EQ(kvcc::testing::RefereeKVccs(g, k), expected)
          << "seed=" << seed << " k=" << k;
      components += expected.size();
    }
  }
  EXPECT_GT(components, 20u);  // The graphs are not all trivially empty.
}

INSTANTIATE_TEST_SUITE_P(
    SmallDense, KvccPropertyTest,
    ::testing::Values(PropertyCase{10, 25, 3, 1}, PropertyCase{10, 25, 3, 2},
                      PropertyCase{11, 30, 4, 3}, PropertyCase{11, 30, 4, 4},
                      PropertyCase{12, 34, 3, 5}, PropertyCase{12, 34, 4, 6},
                      PropertyCase{12, 20, 2, 7}, PropertyCase{10, 18, 2, 8}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    MediumSparse, KvccPropertyTest,
    ::testing::Values(PropertyCase{60, 90, 3, 11}, PropertyCase{60, 90, 4, 12},
                      PropertyCase{80, 160, 4, 13},
                      PropertyCase{80, 160, 5, 14},
                      PropertyCase{100, 260, 5, 15},
                      PropertyCase{100, 260, 6, 16}),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    MediumDense, KvccPropertyTest,
    ::testing::Values(PropertyCase{40, 260, 6, 21}, PropertyCase{40, 300, 7, 22},
                      PropertyCase{50, 420, 8, 23},
                      PropertyCase{50, 420, 9, 24}),
    CaseName);

}  // namespace
}  // namespace kvcc
