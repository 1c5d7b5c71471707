// Percentiles with a tail-support rule, and the run report: every metric
// by name and unit, the run's stamps, and the final one-line JSON result.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// The q-quantile (0 < q < 1) of `samples`, interpolated linearly between
/// closest ranks. Refused (nullopt) unless at least kMinSamplesBeyond
/// samples lie above it: a median needs 21 samples, a p90 about 101.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of a handful of repetitions (set-up time), where the tail rule
/// does not apply because no tail is reported.
double SmallMedian(std::vector<double> samples);

/// Seconds to three decimals, space-separated, for a run's stamps.
std::string JoinSeconds(const std::vector<double>& seconds);

/// One reported number. `samples` is the count behind a percentile or
/// average (0 for counts and ratios of counts).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run prints: metrics, stamps, and the pass/fail tally.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  /// Adds the q-quantile of `samples`; throws std::runtime_error when the
  /// tail rule refuses it, so no unsupported percentile is ever printed.
  void AddPercentile(const std::string& name, const std::vector<double>& samples,
                     double q, const std::string& unit);
  void Stamp(const std::string& key, const std::string& value);

  bool Has(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Set when a check other than a per-op comparison failed (replay
  /// counts, daemon counters).
  bool check_failed = false;

  bool Correct() const { return failed == 0 && !check_failed && attempted > 0; }

  /// Human-readable lines: stamps, then one line per metric with unit and
  /// sample count.
  std::string Table() const;
  /// The result line: {"correct","attempted","failed","metrics"} holding
  /// exactly the metrics named in `names`, in that order.
  std::string ResultJson(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::string> stamps_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
