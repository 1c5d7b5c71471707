// paper_sweep_t1 / paper_sweep_t4: the paper's efficiency experiment
// (Figs. 10-12) — the six stand-ins x k in {20, 25, 30, 35, 40} — as a
// closed loop of one decomposition at a time.
//
// The seed relabels every stand-in with a seeded permutation (seed 0 keeps
// the generator's numbering) and orders the ops of every pass. Outputs are
// mapped back to generator ids before they are digested, so every seed is
// checked against the same recorded table (expected_digests.tsv).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "gen/dataset_suite.h"
#include "kvcc/engine.h"
#include "kvcc/kvcc_enum.h"
#include "replay.h"
#include "trace.h"
#include "util/process_memory.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kvcc::Graph;
using kvcc::KvccStats;
using kvcc::VertexId;

constexpr int kSetupRepeats = 3;

struct StandIn {
  std::string name;
  Graph graph;                     // relabelled by the run's seed
  std::vector<VertexId> original;  // graph id -> generator id
};

struct SweepOp {
  std::size_t dataset = 0;
  std::uint32_t k = 0;
};

StandIn MakeStandIn(std::size_t index, std::uint64_t seed) {
  StandIn s;
  s.name = StandInNames()[index];
  Graph generated = kvcc::GenerateDataset(s.name, kStandInScale);
  const VertexId n = generated.NumVertices();
  s.original.resize(n);
  std::iota(s.original.begin(), s.original.end(), VertexId{0});
  if (seed == 0) {
    s.graph = std::move(generated);
    return s;
  }
  kvcc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index);
  Shuffle(s.original, rng);
  std::vector<VertexId> new_id(n);
  for (VertexId v = 0; v < n; ++v) new_id[s.original[v]] = v;
  std::vector<std::pair<VertexId, VertexId>> edges = generated.Edges();
  for (auto& [u, v] : edges) {
    u = new_id[u];
    v = new_id[v];
  }
  s.graph = Graph::FromEdges(n, edges);
  return s;
}

std::vector<SweepOp> AllOps() {
  std::vector<SweepOp> ops;
  for (std::size_t d = 0; d < StandInNames().size(); ++d) {
    for (const std::uint32_t k : kvcc::EfficiencyKs()) ops.push_back({d, k});
  }
  return ops;
}

/// Component count plus an FNV-1a hash of the canonical component lists
/// in generator ids.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

Digest DigestOf(const ComponentList& components,
                const std::vector<VertexId>& original) {
  ComponentList mapped;
  mapped.reserve(components.size());
  for (const std::vector<VertexId>& component : components) {
    std::vector<VertexId> ids;
    ids.reserve(component.size());
    for (const VertexId v : component) ids.push_back(original[v]);
    std::sort(ids.begin(), ids.end());
    mapped.push_back(std::move(ids));
  }
  std::sort(mapped.begin(), mapped.end());
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const std::vector<VertexId>& component : mapped) {
    mix(component.size());
    for (const VertexId v : component) mix(v);
  }
  return {mapped.size(), hash};
}

using DigestTable = std::map<std::pair<std::string, std::uint32_t>, Digest>;

DigestTable LoadDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  DigestTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint32_t k = 0;
    Digest digest;
    fields >> name >> k >> digest.count >> std::hex >> digest.hash;
    if (!fields) throw std::runtime_error("malformed line in " + path);
    table[{name, k}] = digest;
  }
  return table;
}

/// One decomposition at a time: serial EnumerateKVccs, or one job in
/// flight on a held engine.
class SweepRunner {
 public:
  explicit SweepRunner(unsigned threads) {
    if (threads > 1) engine_ = std::make_unique<kvcc::KvccEngine>(threads);
  }
  kvcc::KvccResult Run(const Graph& g, std::uint32_t k) {
    if (engine_ == nullptr) return kvcc::EnumerateKVccs(g, k);
    return engine_->Wait(engine_->Submit(g, k));
  }

 private:
  std::unique_ptr<kvcc::KvccEngine> engine_;
};

class Sweep {
 public:
  Sweep(const RunConfig& config, unsigned threads, Report& report)
      : config_(config),
        threads_(threads),
        report_(report),
        digests_(LoadDigests(config.bench_dir + "/expected_digests.tsv")),
        order_rng_(config.seed ^ 0x5bd1e995u) {}

  /// Sets up kSetupRepeats times -- inputs, runner, and a warm-up running
  /// the largest op of every stand-in, so allocator arenas and the
  /// engine's per-worker scratch reach their working size -- and returns
  /// the median, in seconds. The timed phase uses the last set-up.
  double SetUp() {
    std::vector<double> samples;
    for (int r = 0; r < kSetupRepeats; ++r) {
      stand_ins_.clear();
      runner_.reset();
      const Clock::time_point start = Clock::now();
      for (std::size_t d = 0; d < StandInNames().size(); ++d) {
        stand_ins_.push_back(MakeStandIn(d, config_.seed));
      }
      runner_ = std::make_unique<SweepRunner>(threads_);
      for (std::size_t d = 0; d < stand_ins_.size(); ++d) {
        RunChecked({d, kvcc::EfficiencyKs().front()});
      }
      samples.push_back(MillisBetween(start, Clock::now()) / 1e3);
    }
    report_.Stamp("setup_s samples", JoinSeconds(samples));
    return SmallMedian(samples);
  }

  std::vector<SweepOp> NextPassOrder() {
    std::vector<SweepOp> order = AllOps();
    Shuffle(order, order_rng_);
    return order;
  }

  /// Runs one op, checks its digest, and books it. Returns the result (the
  /// components are empty if the op threw).
  kvcc::KvccResult RunChecked(const SweepOp& op, double* millis = nullptr) {
    const StandIn& s = stand_ins_[op.dataset];
    ++report_.attempted;
    kvcc::KvccResult result;
    try {
      const Clock::time_point start = Clock::now();
      result = runner_->Run(s.graph, op.k);
      if (millis != nullptr) *millis = MillisBetween(start, Clock::now());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s k=%u threw: %s\n", s.name.c_str(),
                   op.k, e.what());
      ++report_.failed;
      return result;
    }
    const auto expected = digests_.find({s.name, op.k});
    if (expected == digests_.end() ||
        !(DigestOf(result.components, s.original) == expected->second)) {
      std::fprintf(stderr, "perfbench: %s k=%u output differs from the "
                   "recorded digest\n", s.name.c_str(), op.k);
      ++report_.failed;
    }
    return result;
  }

  void Measure() {
    std::vector<double> pass_s;
    std::vector<double> op_ms;
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point phase_start = Clock::now();
    double elapsed = 0;
    do {
      const Clock::time_point pass_start = Clock::now();
      for (const SweepOp& op : NextPassOrder()) {
        double millis = -1;  // stays negative if the op threw
        RunChecked(op, &millis);
        if (millis >= 0) op_ms.push_back(millis);
      }
      pass_s.push_back(MillisBetween(pass_start, Clock::now()) / 1e3);
      elapsed = MillisBetween(phase_start, Clock::now()) / 1e3;
    } while (elapsed + elapsed / static_cast<double>(pass_s.size()) <=
             config_.seconds);
    const double wall_s = elapsed / static_cast<double>(pass_s.size());
    report_.Add("wall_s", wall_s, "s", pass_s.size());
    report_.AddPercentile("op_p50_ms", op_ms, 0.5, "ms");
    report_.Add("peak_rss_mb",
                static_cast<double>(kvcc::PeakRssBytes()) / 1e6, "MB");
    report_.Stamp("pass_s", JoinSeconds(pass_s));
    report_.Stamp("cpu_s (timed phase)",
                  std::to_string(ProcessCpuSeconds() - cpu_start));
  }

  /// One pass of the end-to-end ops, whose KvccStats give the counts; for
  /// t4 a serial pass for the edge baseline; then Algorithm 1 replayed on
  /// every op, untraced and traced.
  void Trace() {
    const std::vector<SweepOp> order = NextPassOrder();
    std::vector<kvcc::KvccResult> results;
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point pass_start = Clock::now();
    for (const SweepOp& op : order) results.push_back(RunChecked(op));
    const double pass_s = MillisBetween(pass_start, Clock::now()) / 1e3;
    const double cpu_s = ProcessCpuSeconds() - cpu_start;

    KvccStats total;
    for (const kvcc::KvccResult& r : results) total.Add(r.stats);
    std::uint64_t serial_edges = total.probe_edges_touched;
    if (threads_ > 1) {
      serial_edges = 0;
      for (const SweepOp& op : order) {
        serial_edges += kvcc::EnumerateKVccs(stand_ins_[op.dataset].graph,
                                             op.k).stats.probe_edges_touched;
      }
    }

    // Both replays' components must equal each op's output.
    const auto replay_all = [&](Algorithm1Replay& replay) {
      const Clock::time_point start = Clock::now();
      for (std::uint32_t i = 0; i < order.size(); ++i) {
        const StandIn& s = stand_ins_[order[i].dataset];
        if (replay.Run(s.graph, order[i].k, i) != results[i].components) {
          std::fprintf(stderr, "perfbench: replay of %s k=%u differs from "
                       "the op's output\n", s.name.c_str(), order[i].k);
          report_.check_failed = true;
        }
      }
      return MillisBetween(start, Clock::now());
    };
    double untraced_ms = 0;
    {
      Algorithm1Replay untraced(/*traced=*/false);
      untraced_ms = replay_all(untraced);
    }
    Algorithm1Replay replay(/*traced=*/true);
    const double traced_ms = replay_all(replay);

    replay.AddLayerMetrics(report_);
    AddKvccStatsMetrics(total, serial_edges, report_);
    report_.Add("exec.busy_share", cpu_s / (pass_s * OnlineCpus()), "ratio");
    report_.Add("trace.overhead", traced_ms / untraced_ms, "ratio");
    replay.spans().WriteTsv(config_.work_dir + "/spans.tsv");
  }

 private:
  const RunConfig& config_;
  const unsigned threads_;
  Report& report_;
  const DigestTable digests_;
  kvcc::Rng order_rng_;
  std::vector<StandIn> stand_ins_;
  std::unique_ptr<SweepRunner> runner_;
};

}  // namespace

const std::vector<std::string>& StandInNames() {
  static const std::vector<std::string> names = {"stanford", "dblp", "cnr",
                                                 "nd",       "google", "cit"};
  return names;
}

void RunSweepWorkload(const RunConfig& config, unsigned threads,
                      Report& report) {
  Sweep sweep(config, threads, report);
  const double setup_s = sweep.SetUp();
  report.Add("setup_s", setup_s, "s", kSetupRepeats);
  if (config.trace) {
    sweep.Trace();
  } else {
    sweep.Measure();
  }
}

void PrintSweepDigests() {
  std::printf("# dataset k components fnv1a64 -- stand-ins at scale %g, "
              "generator numbering, VCCE* defaults\n", kStandInScale);
  kvcc::KvccEngine engine(0);
  for (std::size_t d = 0; d < StandInNames().size(); ++d) {
    const StandIn s = MakeStandIn(d, 0);
    for (const std::uint32_t k : kvcc::EfficiencyKs()) {
      const kvcc::KvccResult result = engine.Wait(engine.Submit(s.graph, k));
      const Digest digest = DigestOf(result.components, s.original);
      std::printf("%s %u %llu %016llx\n", s.name.c_str(), k,
                  static_cast<unsigned long long>(digest.count),
                  static_cast<unsigned long long>(digest.hash));
    }
  }
}

}  // namespace perfbench
