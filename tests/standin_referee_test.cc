// The benchmark's six dataset stand-ins, held to the independent referee.
//
// perfbench's reference sweep decomposes these graphs at scale 0.5, and its
// expected digests were recorded from the engine's own output. Here the
// k = 40 row of each stand-in is checked against RefereeKVccs
// (tests/support/referee.h), which shares no code with the engine. CMake
// registers one ctest per stand-in, so under `ctest -j` the slowest one
// (cit) sets the wall time rather than their sum.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gen/dataset_suite.h"
#include "kvcc/kvcc_enum.h"
#include "support/referee.h"

namespace kvcc {
namespace {

class StandInRefereeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StandInRefereeTest, EnumerationMatchesReferee) {
  const std::uint32_t k = 40;
  const Graph g = GenerateDataset(GetParam(), 0.5);
  const KvccResult result = EnumerateKVccs(g, k);
  EXPECT_FALSE(result.components.empty());
  EXPECT_EQ(result.components, kvcc::testing::RefereeKVccs(g, k));
}

INSTANTIATE_TEST_SUITE_P(
    StandIns, StandInRefereeTest,
    ::testing::Values("stanford", "dblp", "cnr", "nd", "google", "cit"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace kvcc
