#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "gen/dataset_suite.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"

namespace kvcc {
namespace {

TEST(KvccOptionsTest, PresetsMatchPaperVariants) {
  const KvccOptions vcce = KvccOptions::Vcce();
  EXPECT_FALSE(vcce.neighbor_sweep);
  EXPECT_FALSE(vcce.group_sweep);

  const KvccOptions vcce_n = KvccOptions::VcceN();
  EXPECT_TRUE(vcce_n.neighbor_sweep);
  EXPECT_FALSE(vcce_n.group_sweep);

  const KvccOptions vcce_g = KvccOptions::VcceG();
  EXPECT_FALSE(vcce_g.neighbor_sweep);
  EXPECT_TRUE(vcce_g.group_sweep);

  const KvccOptions star = KvccOptions::VcceStar();
  EXPECT_TRUE(star.neighbor_sweep);
  EXPECT_TRUE(star.group_sweep);
}

// What each preset turns on, read from the counters of one decomposition
// on which every rule fires: the certificate always; strong side-vertex
// checks and their Lemma 15/16 reuse with neighbor sweep; group prunes and
// same-group pair skips with group sweep; the Lemma-13 phase-2 skip only
// with both.
TEST(KvccOptionsTest, PresetsTurnOnTheirRules) {
  const Graph g = GenerateDataset("dblp", 0.1);
  const std::uint32_t k = 10;
  for (const char* name : {"VCCE", "VCCE-N", "VCCE-G", "VCCE*"}) {
    const KvccOptions options = KvccOptions::FromVariantName(name);
    const KvccStats stats = EnumerateKVccs(g, k, options).stats;
    EXPECT_GT(stats.certificate_edges_kept, 0u) << name;
    EXPECT_EQ(stats.certificate_cut_fallbacks, 0u) << name;
    EXPECT_EQ(stats.strong_side_checks_run > 0, options.neighbor_sweep)
        << name;
    EXPECT_EQ(stats.strong_side_verdicts_reused > 0, options.neighbor_sweep)
        << name;
    EXPECT_EQ(stats.phase1_pruned_gs > 0, options.group_sweep) << name;
    EXPECT_EQ(stats.phase2_pairs_skipped_group > 0, options.group_sweep)
        << name;
    EXPECT_EQ(stats.phase2_pairs_skipped_common > 0,
              options.neighbor_sweep && options.group_sweep)
        << name;
  }
}

TEST(KvccOptionsTest, FromVariantName) {
  EXPECT_TRUE(KvccOptions::FromVariantName("VCCE*").neighbor_sweep);
  EXPECT_FALSE(KvccOptions::FromVariantName("VCCE").neighbor_sweep);
  EXPECT_TRUE(KvccOptions::FromVariantName("VCCE-N").neighbor_sweep);
  EXPECT_TRUE(KvccOptions::FromVariantName("VCCE-G").group_sweep);
  EXPECT_THROW(KvccOptions::FromVariantName("nope"), std::invalid_argument);
}

TEST(KvccStatsTest, SharesSumToOne) {
  KvccStats stats;
  stats.phase1_pruned_ns1 = 10;
  stats.phase1_pruned_ns2 = 20;
  stats.phase1_pruned_gs = 30;
  stats.phase1_tested_flow = 25;
  stats.phase1_tested_trivial = 15;
  EXPECT_EQ(stats.Phase1Total(), 100u);
  EXPECT_DOUBLE_EQ(stats.Ns1Share(), 0.10);
  EXPECT_DOUBLE_EQ(stats.Ns2Share(), 0.20);
  EXPECT_DOUBLE_EQ(stats.GsShare(), 0.30);
  EXPECT_DOUBLE_EQ(stats.NonPrunedShare(), 0.40);
}

TEST(KvccStatsTest, EmptyStatsShares) {
  const KvccStats stats;
  EXPECT_DOUBLE_EQ(stats.Ns1Share(), 0.0);
  EXPECT_DOUBLE_EQ(stats.NonPrunedShare(), 0.0);
}

TEST(KvccStatsTest, AddAccumulates) {
  KvccStats a, b;
  a.loc_cut_flow_calls = 5;
  a.kvccs_found = 1;
  b.loc_cut_flow_calls = 7;
  b.overlap_partitions = 2;
  a.Add(b);
  EXPECT_EQ(a.loc_cut_flow_calls, 12u);
  EXPECT_EQ(a.kvccs_found, 1u);
  EXPECT_EQ(a.overlap_partitions, 2u);
}

TEST(KvccStatsTest, ToStringMentionsKeyCounters) {
  KvccStats stats;
  stats.kvccs_found = 3;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("kvccs_found=3"), std::string::npos);
  EXPECT_NE(s.find("phase1"), std::string::npos);
}

// Every KvccStats member is a std::uint64_t counter, so the struct can be
// viewed as an array; the test then needs no field list of its own.
constexpr std::size_t kNumFields = sizeof(KvccStats) / sizeof(std::uint64_t);
using FieldArray = std::array<std::uint64_t, kNumFields>;

TEST(KvccStatsTest, EveryFieldReachesJsonToStringAndAdd) {
  FieldArray values;
  for (std::size_t i = 0; i < kNumFields; ++i) {
    values[i] = 100001 + i;  // distinct, all six digits wide
  }
  const KvccStats stats = std::bit_cast<KvccStats>(values);
  const std::string json = stats.ToJson();
  const std::string text = stats.ToString();
  for (const std::uint64_t value : values) {
    const std::string digits = std::to_string(value);
    EXPECT_NE(json.find("\": " + digits), std::string::npos) << digits;
    EXPECT_NE(text.find("=" + digits), std::string::npos) << digits;
  }
  EXPECT_NE(json.find("\"kcore_rounds\": "), std::string::npos);
  EXPECT_NE(text.find("kcore_rounds="), std::string::npos);

  // Adding to zero copies every field; adding again doubles every counter
  // but the watermark stream_peak_buffered, which merges by max.
  KvccStats sum;
  sum.Add(stats);
  EXPECT_EQ(std::bit_cast<FieldArray>(sum), values);
  sum.Add(stats);
  const FieldArray twice = std::bit_cast<FieldArray>(sum);
  const std::size_t peak =
      offsetof(KvccStats, stream_peak_buffered) / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < kNumFields; ++i) {
    EXPECT_EQ(twice[i], i == peak ? values[i] : 2 * values[i]) << i;
  }
}

}  // namespace
}  // namespace kvcc
