// Self-tests of the benchmark's own machinery: the percentile tail rule,
// self-time subtraction, and the pass/fail result line. The end-to-end
// fault-injection and count-repeat checks are in run.py --self-test.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-6; }

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

void TestPercentileTailRule() {
  Expect(!Percentile(Ramp(20), 0.5).has_value(),
         "median of 20 samples is refused (9 beyond)");
  const auto median = Percentile(Ramp(21), 0.5);
  Expect(median.has_value() && Near(*median, 11.0),
         "median of 21 samples is reported (10 beyond)");
  Expect(!Percentile(Ramp(100), 0.9).has_value(),
         "p90 of 100 samples is refused");
  const auto p90 = Percentile(Ramp(111), 0.9);
  Expect(p90.has_value() && Near(*p90, 100.0), "p90 of 111 samples is 100");
  Report report;
  bool threw = false;
  try {
    report.AddPercentile("x_ms", Ramp(15), 0.5, "ms");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  Expect(threw && !report.Has("x_ms"),
         "Report refuses to print an unsupported percentile");
}

void TestSelfTime() {
  // root [0,100] -> a [10,30] -> d (out of line, 5 ms)
  //              -> b [40,90] -> c [50,60]
  SpanRecorder spans;
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int root = spans.Record("root", 0, -1, at(0), at(100));
  const int a = spans.Record("a", 0, root, at(10), at(30));
  const int b = spans.Record("b", 0, root, at(40), at(90));
  spans.Record("c", 0, b, at(50), at(60));
  spans.Record("d", 0, a, at(200), at(205));
  std::map<std::string, double> self = spans.SelfMillisByName();
  Expect(Near(self["root"], 30) && Near(self["a"], 15) &&
             Near(self["b"], 40) && Near(self["c"], 10) && Near(self["d"], 5),
         "self time = span minus child spans on a synthetic tree");

  SpanRecorder nested;
  {
    ScopedSpan outer(&nested, "outer", 1);
    ScopedSpan inner(&nested, "inner", 1);
  }
  Expect(nested.spans().size() == 2 && nested.spans()[1].parent == 0,
         "scoped spans nest under the innermost open span");
}

void TestResultLine() {
  Report report;
  report.attempted = 10;
  report.Add("wall_s", 1.25, "s");
  Expect(report.Correct() &&
             report.ResultJson({"wall_s"}) ==
                 "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                 "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": "
                 "\"s\"}}}",
         "result line carries exactly the four keys");
  report.failed = 1;
  Expect(!report.Correct() &&
             report.ResultJson({"wall_s"}).find("\"correct\": false") == 1,
         "one failed op makes the run incorrect");
  bool threw = false;
  try {
    report.ResultJson({"missing_ms"});
  } catch (const std::runtime_error&) {
    threw = true;
  }
  Expect(threw, "a metric that was not measured cannot be printed");
}

}  // namespace

int RunSelfTests() {
  TestPercentileTailRule();
  TestSelfTime();
  TestResultLine();
  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
