#include "kvcc/stats.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

namespace kvcc {
namespace {

// The one list of KvccStats counters, in ToJson key order. ToString starts
// a new line whenever `group` changes.
struct Field {
  std::string_view group;
  std::string_view name;
  std::uint64_t KvccStats::*member;
};

constexpr Field kFields[] = {
    {"phase1", "phase1_pruned_ns1", &KvccStats::phase1_pruned_ns1},
    {"phase1", "phase1_pruned_ns2", &KvccStats::phase1_pruned_ns2},
    {"phase1", "phase1_pruned_gs", &KvccStats::phase1_pruned_gs},
    {"phase1", "phase1_tested_flow", &KvccStats::phase1_tested_flow},
    {"phase1", "phase1_tested_trivial", &KvccStats::phase1_tested_trivial},
    {"phase2", "phase2_pairs_tested", &KvccStats::phase2_pairs_tested},
    {"phase2", "phase2_pairs_skipped_group",
     &KvccStats::phase2_pairs_skipped_group},
    {"phase2", "phase2_pairs_skipped_adjacent",
     &KvccStats::phase2_pairs_skipped_adjacent},
    {"phase2", "phase2_pairs_skipped_common",
     &KvccStats::phase2_pairs_skipped_common},
    {"framework", "global_cut_calls", &KvccStats::global_cut_calls},
    {"framework", "loc_cut_flow_calls", &KvccStats::loc_cut_flow_calls},
    {"framework", "overlap_partitions", &KvccStats::overlap_partitions},
    {"framework", "kvccs_found", &KvccStats::kvccs_found},
    {"kcore", "kcore_rounds", &KvccStats::kcore_rounds},
    {"kcore", "kcore_removed_vertices", &KvccStats::kcore_removed_vertices},
    {"kcore", "kcore_bucket_rounds", &KvccStats::kcore_bucket_rounds},
    {"certificate", "certificate_edges_input",
     &KvccStats::certificate_edges_input},
    {"certificate", "certificate_edges_kept",
     &KvccStats::certificate_edges_kept},
    {"certificate", "side_groups_found", &KvccStats::side_groups_found},
    {"certificate", "strong_side_vertices_found",
     &KvccStats::strong_side_vertices_found},
    {"certificate", "strong_side_checks_run",
     &KvccStats::strong_side_checks_run},
    {"certificate", "strong_side_verdicts_reused",
     &KvccStats::strong_side_verdicts_reused},
    {"certificate", "certificate_cut_fallbacks",
     &KvccStats::certificate_cut_fallbacks},
    {"wavefronts", "probe_wavefronts", &KvccStats::probe_wavefronts},
    {"wavefronts", "probes_launched", &KvccStats::probes_launched},
    {"wavefronts", "probes_wasted_swept", &KvccStats::probes_wasted_swept},
    {"wavefronts", "probes_wasted_after_cut",
     &KvccStats::probes_wasted_after_cut},
    {"probes", "probes_localvc", &KvccStats::probes_localvc},
    {"probes", "probe_edges_touched", &KvccStats::probe_edges_touched},
    {"incremental", "delta_edges_applied", &KvccStats::delta_edges_applied},
    {"incremental", "dirty_components", &KvccStats::dirty_components},
    {"incremental", "incremental_reruns", &KvccStats::incremental_reruns},
    {"job control", "tasks_cancelled", &KvccStats::tasks_cancelled},
    {"job control", "cuts_cancelled", &KvccStats::cuts_cancelled},
    {"job control", "stream_backpressure_blocks",
     &KvccStats::stream_backpressure_blocks},
    {"job control", "stream_peak_buffered", &KvccStats::stream_peak_buffered},
};

constexpr bool MembersDistinct() {
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    for (std::size_t j = i + 1; j < std::size(kFields); ++j) {
      if (kFields[i].member == kFields[j].member) return false;
    }
  }
  return true;
}

// Every KvccStats data member is a std::uint64_t counter, so distinct
// entries whose count fills sizeof(KvccStats) name every member once.
static_assert(MembersDistinct(), "kFields lists a KvccStats field twice");
static_assert(std::size(kFields) * sizeof(std::uint64_t) == sizeof(KvccStats),
              "a KvccStats field is missing from kFields");

double Share(std::uint64_t part, std::uint64_t total) {
  return total == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(total);
}

}  // namespace

double KvccStats::Ns1Share() const {
  return Share(phase1_pruned_ns1, Phase1Total());
}

double KvccStats::Ns2Share() const {
  return Share(phase1_pruned_ns2, Phase1Total());
}

double KvccStats::GsShare() const {
  return Share(phase1_pruned_gs, Phase1Total());
}

double KvccStats::NonPrunedShare() const {
  return Share(phase1_tested_flow + phase1_tested_trivial, Phase1Total());
}

void KvccStats::Add(const KvccStats& other) {
  for (const Field& field : kFields) {
    std::uint64_t& mine = this->*field.member;
    const std::uint64_t theirs = other.*field.member;
    // A watermark, not a flow: the merged peak is the largest observed.
    mine = field.member == &KvccStats::stream_peak_buffered
               ? std::max(mine, theirs)
               : mine + theirs;
  }
}

std::string KvccStats::ToJson() const {
  std::ostringstream out;
  const char* separator = "{";
  for (const Field& field : kFields) {
    out << separator << '"' << field.name << "\": " << this->*field.member;
    separator = ", ";
  }
  out << "}";
  return out.str();
}

std::string KvccStats::ToString() const {
  std::ostringstream out;
  std::string_view group;
  for (const Field& field : kFields) {
    if (field.group != group) {
      if (!group.empty()) out << "\n";
      group = field.group;
      out << group << ":";
    }
    out << " " << field.name << "=" << this->*field.member;
  }
  out << "\n";
  return out.str();
}

}  // namespace kvcc
