// The three workloads, the metric tables they report, and the shared run
// configuration. README.md in this directory explains each workload and
// metric.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics.h"
#include "util/random.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
  /// The benchmark's source directory (holds expected_digests.tsv).
  std::string bench_dir;
  /// Scratch directory inside the checkout for edge-list files and trace
  /// output; created by the caller.
  std::string work_dir;
  std::string kvccd_path;
  /// Fault injection for the self-test: alters one component line of
  /// this timed kvccd response (-1 = none) before it is checked.
  long corrupt_response = -1;
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's end_to_end metrics, reported by every untraced run.
extern const std::vector<MetricName> kEndToEndMetrics;
/// BENCHMARK.json's per_layer metrics, reported by every traced run. A
/// layer a workload does not run reports 0.
extern const std::vector<MetricName> kPerLayerMetrics;

/// The sweep stand-ins are generated at half the generator's default size:
/// a serial pass takes ~5 s on a 4-vCPU guest, so every run averages
/// several passes while the graphs stay at 10-27k vertices.
inline constexpr double kStandInScale = 0.5;
/// The six efficiency stand-ins of the paper's Figs. 10-12.
const std::vector<std::string>& StandInNames();

/// paper_sweep_t1 (threads = 1) and paper_sweep_t4 (threads = 4).
void RunSweepWorkload(const RunConfig& config, unsigned threads,
                      Report& report);
/// kvccd_mixed.
void RunServingWorkload(const RunConfig& config, Report& report);
/// Prints the expected-digest table for the sweep stand-ins (seed 0).
void PrintSweepDigests();
/// Returns the number of failed self-tests.
int RunSelfTests();

/// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>& items, kvcc::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
}

/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();
/// Online processors (the stamp and the busy-share denominator).
unsigned OnlineCpus();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
