// The repository benchmark program. run.py builds it and runs
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --bench-dir DIR --work-dir DIR --kvccd PATH [--commit C]
//
// and the last line it prints is the one-line JSON result. Exit status is
// 0 only when every output matched; see README.md in this directory.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricName> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricName> kPerLayerMetrics = {
    {"kvcc.global_cut.self_ms", "ms"},
    {"kvcc.probe.flow_calls", "count"},
    {"kvcc.probe.edges_touched", "count"},
    {"kvcc.probe.localvc_share", "ratio"},
    {"kvcc.certificate.ms", "ms"},
    {"kvcc.certificate.keep_ratio", "ratio"},
    {"kvcc.side_vertex.ms", "ms"},
    {"kvcc.side_vertex.checks", "count"},
    {"kvcc.side_vertex.reuse_share", "ratio"},
    {"kvcc.sweep.prune_share", "ratio"},
    {"kvcc.phase2.skip_share", "ratio"},
    {"kvcc.global_cut.calls", "count"},
    {"kvcc.partition.count", "count"},
    {"kvcc.partition.ms", "ms"},
    {"graph.subgraph.ms", "ms"},
    {"graph.kcore.ms", "ms"},
    {"graph.components.ms", "ms"},
    {"exec.busy_share", "ratio"},
    {"exec.probes_launched", "count"},
    {"exec.probe_waste_share", "ratio"},
    {"exec.edge_inflation", "ratio"},
    {"server.transport.first_line_ms", "ms"},
    {"server.transport.tail_gap_ms", "ms"},
    {"server.parse.ms", "ms"},
    {"server.resolve.ms", "ms"},
    {"graph.load.ms", "ms"},
    {"graph.load.mb_per_s", "MB/s"},
    {"server.cache.lookup_ms", "ms"},
    {"server.cache.hit_ratio", "ratio"},
    {"server.cache.evictions", "count"},
    {"server.render.ms", "ms"},
    {"server.engine.ms", "ms"},
    {"graph.delta.ms", "ms"},
    {"kvcc.incremental.ms", "ms"},
    {"kvcc.incremental.dirty_share", "ratio"},
    {"kvcc.incremental.reruns", "count"},
    {"server.cache.rekey_ms", "ms"},
    {"kvcc.hierarchy.extract_ms", "ms"},
    {"server.admission.shed", "count"},
    {"trace.overhead", "ratio"},
};

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

unsigned OnlineCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep_t1|paper_sweep_t4|"
               "kvccd_mixed --seed N --seconds S --trace 0|1\n"
               "                 --bench-dir DIR --work-dir DIR --kvccd PATH"
               " [--commit C] [--corrupt-response I]\n"
               "       perfbench --self-test\n"
               "       perfbench --print-digests\n");
  return 2;
}

int Run(const RunConfig& config, const std::string& commit) {
  Report report;
  report.Stamp("workload", config.workload);
  report.Stamp("seed", std::to_string(config.seed));
  report.Stamp("seconds", std::to_string(config.seconds));
  report.Stamp("trace", config.trace ? "1" : "0");
  report.Stamp("nproc", std::to_string(OnlineCpus()));
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("commit", commit);

  if (config.workload == "paper_sweep_t1") {
    RunSweepWorkload(config, 1, report);
  } else if (config.workload == "paper_sweep_t4") {
    RunSweepWorkload(config, 4, report);
  } else if (config.workload == "kvccd_mixed") {
    RunServingWorkload(config, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 config.workload.c_str());
    return Usage();
  }

  const std::vector<MetricName>& table =
      config.trace ? kPerLayerMetrics : kEndToEndMetrics;
  std::vector<std::string> names;
  for (const MetricName& metric : table) {
    // A traced layer this workload never calls did no work.
    if (config.trace && !report.Has(metric.name)) {
      report.Add(metric.name, 0.0, metric.unit);
    }
    names.push_back(metric.name);
  }
  report.Stamp("cpu_s (benchmark process)",
               std::to_string(ProcessCpuSeconds()));
  std::printf("%s", report.Table().c_str());
  std::printf("%s\n", report.ResultJson(names).c_str());
  std::fflush(stdout);
  return report.Correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::RunConfig;
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") return perfbench::RunSelfTests() == 0 ? 0 : 1;
      if (arg == "--print-digests") {
        perfbench::PrintSweepDigests();
        return 0;
      }
      if (i + 1 >= argc) return perfbench::Usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return perfbench::Usage();
        config.trace = value == "1";
      } else if (arg == "--bench-dir") {
        config.bench_dir = value;
      } else if (arg == "--work-dir") {
        config.work_dir = value;
      } else if (arg == "--kvccd") {
        config.kvccd_path = value;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--corrupt-response") {
        config.corrupt_response = std::stol(value);
      } else {
        return perfbench::Usage();
      }
    }
    if (!have_workload || config.bench_dir.empty() ||
        config.work_dir.empty() || config.kvccd_path.empty() ||
        !(config.seconds > 0)) {
      return perfbench::Usage();
    }
    return perfbench::Run(config, commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
