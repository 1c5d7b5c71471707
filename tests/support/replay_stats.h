// Comparing the stats of runs at different thread counts.
#ifndef KVCC_TESTS_SUPPORT_REPLAY_STATS_H_
#define KVCC_TESTS_SUPPORT_REPLAY_STATS_H_

#include <string>

#include "kvcc/stats.h"

namespace kvcc::testing {

/// The stats as JSON, without the counters that may differ between thread
/// counts: the wavefront diagnostics and probe work (speculative probes)
/// and the job-control diagnostics (timing).
inline std::string ReplayIdenticalStats(KvccStats stats) {
  stats.probe_wavefronts = 0;
  stats.probes_launched = 0;
  stats.probes_wasted_swept = 0;
  stats.probes_wasted_after_cut = 0;
  stats.probe_edges_touched = 0;
  stats.tasks_cancelled = 0;
  stats.cuts_cancelled = 0;
  stats.stream_backpressure_blocks = 0;
  stats.stream_peak_buffered = 0;
  return stats.ToJson();
}

}  // namespace kvcc::testing

#endif  // KVCC_TESTS_SUPPORT_REPLAY_STATS_H_
