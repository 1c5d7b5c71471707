// Bytes-on-disk to first GLOBAL-CUT: the flat-parallel preprocessing
// pipeline (the edge-list loader on every thread + fused k-core/component
// prune) against the staged baseline (the same loader on one thread,
// whole-core InducedSubgraph, BFS component labeling, per-component
// InducedSubgraph).
//
// Two workloads, both far beyond the correctness corpus:
//   1. rmat — R-MAT web-graph stand-in (skewed degrees, community blocks);
//      the peel removes most of the id space and the core splits.
//   2. ba   — Barabasi-Albert social-graph stand-in (heavy-tailed degrees,
//      one dense surviving core).
//
// Each workload is written to a temp edge-list file first, so both
// pipelines start from the same bytes on disk. The staged pipeline is the
// serial reference; the fused pipeline runs at each requested thread count
// and must produce identical survivors, identical component splits, an
// identical first-component subgraph, the identical first GLOBAL-CUT
// answer, and identical replay counters at every thread count. Any
// divergence hard-fails the binary. Both legs load with ReadEdgeListFile,
// whose numbering does not depend on the thread count, so both cut the
// same numbering and speedup_vs_staged measures preprocessing rather
// than the ~2x that the vertex numbering alone moves a first cut.
//
// Flags:
//   --scale=<double>   workload size multiplier (default 1.0)
//   --threads=1,2,4    fused-pipeline thread counts (default 1,2,4)
//   --quick            shrink the workload for smoke runs
//   --json=<path>      append a machine-readable perf snapshot to <path>
//   --build-type=<s>   stamp the snapshot with the CMake build type
//   --commit=<s>       stamp the snapshot with the git commit

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/task_scheduler.h"
#include "gen/barabasi_albert.h"
#include "gen/rmat.h"
#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/k_core.h"
#include "graph/preprocess.h"
#include "kvcc/global_cut.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"
#include "util/timer.h"

namespace {

using namespace kvcc;
using namespace kvcc::bench;

struct PreprocBenchArgs {
  double scale = 1.0;
  bool quick = false;
  std::vector<std::uint32_t> threads = {1, 2, 4};
  std::string json_path;
  std::string build_type = "unknown";
  std::string commit = "unknown";
};

PreprocBenchArgs ParsePreprocBenchArgs(int argc, char** argv) {
  PreprocBenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      args.scale = std::atof(arg.substr(8).c_str());
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = ParseUintList(arg.substr(10));
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--build-type=", 0) == 0) {
      args.build_type = arg.substr(13);
    } else if (arg.rfind("--commit=", 0) == 0) {
      args.commit = arg.substr(9);
    } else if (arg == "--quick") {
      args.quick = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: bench_preprocessing [--scale=S] [--threads=1,2,4]"
                   " [--quick] [--json=path] [--build-type=s] [--commit=s]\n";
      std::exit(2);
    }
  }
  return args;
}

/// Everything one pipeline run produces, reported in label space.
struct PipelineOutput {
  double load_ms = 0.0;
  double prune_ms = 0.0;
  double first_cut_ms = 0.0;
  std::vector<VertexId> survivor_labels;               // sorted
  std::vector<std::vector<VertexId>> component_labels; // sorted, by min label
  VertexId sub_n = 0;
  std::uint64_t sub_m = 0;
  std::vector<std::vector<VertexId>> sub_adjacency;    // by label, sorted
  std::vector<VertexId> cut_labels;                    // sorted
  PruneCounters counters;

  double TotalMs() const { return load_ms + prune_ms + first_cut_ms; }
};

/// Neighbor lists of `sub` in label space: row i holds the sorted neighbor
/// labels of the vertex with the i-th smallest label.
std::vector<std::vector<VertexId>> AdjacencyByLabel(const Graph& sub) {
  std::vector<VertexId> order(sub.NumVertices());
  for (VertexId v = 0; v < sub.NumVertices(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return sub.LabelOf(a) < sub.LabelOf(b);
  });
  std::vector<std::vector<VertexId>> rows;
  rows.reserve(order.size());
  for (const VertexId v : order) {
    std::vector<VertexId> row;
    row.reserve(sub.Neighbors(v).size());
    for (const VertexId w : sub.Neighbors(v)) row.push_back(sub.LabelOf(w));
    std::sort(row.begin(), row.end());
    rows.push_back(std::move(row));
  }
  return rows;
}

void RecordFirstCutSub(const Graph& sub, PipelineOutput& out) {
  out.sub_n = sub.NumVertices();
  out.sub_m = sub.NumEdges();
  out.sub_adjacency = AdjacencyByLabel(sub);
}

void RecordCut(const Graph& sub, const std::vector<VertexId>& cut,
               PipelineOutput& out) {
  out.cut_labels.clear();
  for (const VertexId v : cut) out.cut_labels.push_back(sub.LabelOf(v));
  std::sort(out.cut_labels.begin(), out.cut_labels.end());
}

/// Staged reference: the loader on one thread, KCoreVertices + whole-core
/// InducedSubgraph + BFS components + per-component InducedSubgraph, then
/// one GlobalCut on the qualifying component with the smallest label.
PipelineOutput RunStaged(const std::string& path, std::uint32_t k) {
  PipelineOutput out;
  Timer load_timer;
  const Graph g = ReadEdgeListFile(path);
  out.load_ms = load_timer.ElapsedMillis();

  Timer prune_timer;
  const std::vector<VertexId> survivors = KCoreVertices(g, k);
  const Graph core = g.InducedSubgraph(survivors);
  const std::vector<std::vector<VertexId>> comps = ConnectedComponents(core);
  // The qualifying (|comp| > k) component with the smallest member label,
  // the component the fused pipeline picks first.
  std::size_t pick = comps.size();
  VertexId pick_label = 0;
  for (std::size_t c = 0; c < comps.size(); ++c) {
    if (comps[c].size() <= k) continue;
    VertexId min_label = core.LabelOf(comps[c][0]);
    for (const VertexId v : comps[c]) {
      min_label = std::min(min_label, core.LabelOf(v));
    }
    if (pick == comps.size() || min_label < pick_label) {
      pick = c;
      pick_label = min_label;
    }
  }
  if (pick == comps.size()) {
    std::cerr << "ERROR: no component larger than k survives the peel; "
                 "retune the workload\n";
    std::exit(1);
  }
  const Graph sub = core.InducedSubgraph(comps[pick]);
  out.prune_ms = prune_timer.ElapsedMillis();

  for (const VertexId v : survivors) {
    out.survivor_labels.push_back(g.LabelOf(v));
  }
  std::sort(out.survivor_labels.begin(), out.survivor_labels.end());
  for (const auto& comp : comps) {
    std::vector<VertexId> labels;
    labels.reserve(comp.size());
    for (const VertexId v : comp) labels.push_back(core.LabelOf(v));
    std::sort(labels.begin(), labels.end());
    out.component_labels.push_back(std::move(labels));
  }
  std::sort(out.component_labels.begin(), out.component_labels.end());
  RecordFirstCutSub(sub, out);

  KvccOptions options = KvccOptions::VcceStar();
  options.num_threads = 1;
  KvccStats stats;
  Timer cut_timer;
  const GlobalCutResult cut = GlobalCut(sub, k, {}, options, &stats);
  out.first_cut_ms = cut_timer.ElapsedMillis();
  RecordCut(sub, cut.cut, out);
  return out;
}

/// Fused pipeline: the loader on `threads`, FusedPrune (peel + Afforest +
/// counting sort, no intermediate core graph), direct builder
/// materialization of the picked component, one GlobalCut.
PipelineOutput RunFused(const std::string& path, std::uint32_t k,
                        std::uint32_t threads) {
  PipelineOutput out;
  unsigned workers = threads == 0 ? std::thread::hardware_concurrency()
                                  : threads;
  if (workers == 0) workers = 1;
  exec::TaskScheduler pool(workers);
  exec::TaskScheduler* scheduler = nullptr;
  if (pool.num_workers() > 1) {
    pool.Start();
    scheduler = &pool;
  }

  Timer load_timer;
  const Graph g = ReadEdgeListFile(path, threads);
  out.load_ms = load_timer.ElapsedMillis();

  Timer prune_timer;
  FusedPruneScratch scratch;
  out.counters =
      FusedPrune(g, k, scheduler, exec::TaskPriority::kNormal, scratch);
  const PeelMask mask = scratch.kcore.Mask();
  // Components come out ordered by smallest contained vertex, and the
  // loader's labels ascend with vertex ids, so the first qualifying
  // component is the min-label pick of the staged reference.
  std::size_t pick = scratch.labeling.count;
  for (std::size_t c = 0; c < scratch.labeling.count; ++c) {
    if (scratch.comp_offsets[c + 1] - scratch.comp_offsets[c] > k) {
      pick = c;
      break;
    }
  }
  if (pick == scratch.labeling.count) {
    std::cerr << "ERROR: no component larger than k survives the peel; "
                 "retune the workload\n";
    std::exit(1);
  }
  const std::span<const VertexId> comp(
      scratch.comp_vertices.data() + scratch.comp_offsets[pick],
      scratch.comp_offsets[pick + 1] - scratch.comp_offsets[pick]);
  // Direct induced-subgraph build: local ids follow the ascending member
  // list, edges emitted upper-triangle in sorted order (alive neighbors of
  // a member stay inside its component).
  std::vector<VertexId> local_id(g.NumVertices());
  for (std::size_t i = 0; i < comp.size(); ++i) {
    local_id[comp[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder;
  builder.EnsureVertex(static_cast<VertexId>(comp.size() - 1));
  for (std::size_t i = 0; i < comp.size(); ++i) {
    const VertexId li = static_cast<VertexId>(i);
    for (const VertexId w : g.Neighbors(comp[i])) {
      if (mask.Removed(w)) continue;
      const VertexId lw = local_id[w];
      if (lw > li) builder.AddEdge(li, lw);
    }
  }
  builder.SetLabelsFromSubset(g, comp, /*as_root=*/false);
  const Graph sub = builder.Build();
  out.prune_ms = prune_timer.ElapsedMillis();

  for (const VertexId v : scratch.survivors) {
    out.survivor_labels.push_back(g.LabelOf(v));
  }
  std::sort(out.survivor_labels.begin(), out.survivor_labels.end());
  for (std::size_t c = 0; c < scratch.labeling.count; ++c) {
    std::vector<VertexId> labels;
    for (std::uint64_t i = scratch.comp_offsets[c];
         i < scratch.comp_offsets[c + 1]; ++i) {
      labels.push_back(g.LabelOf(scratch.comp_vertices[i]));
    }
    std::sort(labels.begin(), labels.end());
    out.component_labels.push_back(std::move(labels));
  }
  std::sort(out.component_labels.begin(), out.component_labels.end());
  RecordFirstCutSub(sub, out);

  KvccOptions options = KvccOptions::VcceStar();
  options.num_threads = threads;
  KvccStats stats;
  GlobalCutScratch cut_scratch;
  Timer cut_timer;
  const GlobalCutResult cut =
      GlobalCut(sub, k, {}, options, &stats, &cut_scratch, scheduler);
  out.first_cut_ms = cut_timer.ElapsedMillis();
  RecordCut(sub, cut.cut, out);
  if (scheduler != nullptr) pool.Stop();
  return out;
}

bool SameOutput(const PipelineOutput& a, const PipelineOutput& b) {
  return a.survivor_labels == b.survivor_labels &&
         a.component_labels == b.component_labels && a.sub_n == b.sub_n &&
         a.sub_m == b.sub_m && a.sub_adjacency == b.sub_adjacency &&
         a.cut_labels == b.cut_labels;
}

bool RunScenario(const std::string& name, const Graph& g, std::uint32_t k,
                 const std::vector<std::uint32_t>& thread_counts,
                 std::ostream& json_out) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("kvcc_bench_preprocessing_" + std::to_string(::getpid()) + "_" + name +
       ".el");
  WriteEdgeListFile(g, path.string());
  const std::uint64_t bytes = fs::file_size(path);

  std::cout << "\n" << name << ": |V|=" << g.NumVertices()
            << " |E|=" << g.NumEdges() << " k=" << k << " ("
            << FormatBytes(bytes) << " on disk)\n\n";
  const std::vector<int> widths = {10, 10, 10, 12, 10, 10, 8};
  PrintRow({"pipeline", "load", "prune", "first-cut", "total", "speedup",
            "match"},
           widths);

  const PipelineOutput staged = RunStaged(path.string(), k);
  PrintRow({"staged", FormatSeconds(staged.load_ms / 1e3),
            FormatSeconds(staged.prune_ms / 1e3),
            FormatSeconds(staged.first_cut_ms / 1e3),
            FormatSeconds(staged.TotalMs() / 1e3), "1.00x", "ref"},
           widths);

  bool all_match = true;
  bool first = true;
  json_out << "{\"bench\": \"preprocessing\", \"scenario\": \"" << name
           << "\", \"workload\": {\"n\": " << g.NumVertices()
           << ", \"m\": " << g.NumEdges() << ", \"k\": " << k
           << ", \"bytes_on_disk\": " << bytes
           << "}, \"staged\": {\"load_ms\": " << staged.load_ms
           << ", \"prune_ms\": " << staged.prune_ms
           << ", \"first_cut_ms\": " << staged.first_cut_ms
           << ", \"total_ms\": " << staged.TotalMs() << "}, \"results\": [";

  PipelineOutput reference_fused;
  bool have_reference = false;
  for (const std::uint32_t threads : thread_counts) {
    const PipelineOutput fused = RunFused(path.string(), k, threads);
    bool match = SameOutput(staged, fused);
    if (!have_reference) {
      reference_fused = fused;
      have_reference = true;
    } else {
      // Counters must replay identically across thread counts too.
      match = match &&
              fused.counters.kcore_bucket_rounds ==
                  reference_fused.counters.kcore_bucket_rounds &&
              fused.counters.cc_hooks == reference_fused.counters.cc_hooks;
    }
    all_match = all_match && match;
    const double speedup =
        fused.TotalMs() > 0 ? staged.TotalMs() / fused.TotalMs() : 0.0;
    PrintRow({"fused t=" + std::to_string(threads),
              FormatSeconds(fused.load_ms / 1e3),
              FormatSeconds(fused.prune_ms / 1e3),
              FormatSeconds(fused.first_cut_ms / 1e3),
              FormatSeconds(fused.TotalMs() / 1e3),
              FormatDouble(speedup, 2) + "x", match ? "yes" : "NO"},
             widths);
    if (!first) json_out << ", ";
    first = false;
    json_out << "{\"threads\": " << threads
             << ", \"load_ms\": " << fused.load_ms
             << ", \"prune_ms\": " << fused.prune_ms
             << ", \"first_cut_ms\": " << fused.first_cut_ms
             << ", \"total_ms\": " << fused.TotalMs()
             << ", \"speedup_vs_staged\": " << speedup
             << ", \"kcore_bucket_rounds\": "
             << fused.counters.kcore_bucket_rounds
             << ", \"cc_hooks\": " << fused.counters.cc_hooks
             << ", \"identical_output\": " << (match ? "true" : "false")
             << "}";
  }
  json_out << "]}";
  std::remove(path.string().c_str());
  return all_match;
}

}  // namespace

int main(int argc, char** argv) {
  const PreprocBenchArgs args = ParsePreprocBenchArgs(argc, argv);
  const double s = args.quick ? args.scale * 0.25 : args.scale;

  PrintBanner("Preprocessing pipeline",
              "bytes-on-disk to first GLOBAL-CUT: fused flat-parallel "
              "prune vs the staged serial baseline");

  // R-MAT web-graph stand-in: most of the id space peels away at k and the
  // surviving core splits into several components.
  RmatConfig rmat_config;
  rmat_config.scale = args.quick ? 13 : 15;
  rmat_config.edges = static_cast<std::uint64_t>(
      std::max(1.0, s) * (1ull << (rmat_config.scale + 3)));
  rmat_config.seed = 5;
  const Graph rmat = Rmat(rmat_config);
  const std::uint32_t rmat_k = 5;

  // Barabasi-Albert social-graph stand-in. Its degeneracy is exactly
  // edges_per_vertex, so k = 8 keeps the whole graph: the peel is a no-op
  // scan, the core is one component, and the pipeline cost is
  // load-dominated — the complementary shape to rmat's heavy peel.
  const VertexId ba_n = std::max<VertexId>(
      10000, static_cast<VertexId>(40000 * s));
  const Graph ba = BarabasiAlbert(ba_n, 8, 11);
  const std::uint32_t ba_k = 8;

  const std::string stamp = "\"build_type\": \"" + args.build_type +
                            "\", \"git_commit\": \"" + args.commit + "\", ";
  std::ostringstream rmat_body, ba_body;
  bool ok = RunScenario("rmat", rmat, rmat_k, args.threads, rmat_body);
  ok = RunScenario("ba", ba, ba_k, args.threads, ba_body) && ok;

  // Splice the build stamp into the front of each snapshot object.
  const auto stamped = [&stamp](const std::string& body) {
    return "{\"bench\": \"preprocessing\", " + stamp +
           body.substr(std::string("{\"bench\": \"preprocessing\", ").size());
  };
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path, std::ios::app);
    out << stamped(rmat_body.str()) << "\n" << stamped(ba_body.str()) << "\n";
    std::cout << "\nwrote perf snapshot to " << args.json_path << "\n";
  }
  std::cout << "\nExpected shape: both legs load through one loader and "
               "cut the same numbering, so at t=1 the load and first-cut "
               "columns agree and the speedup is about 1x (the fused "
               "prune is no faster than the staged one); at t>1 the gain "
               "comes from the first cut's probe wavefronts. Survivors, "
               "component splits, the first-cut subgraph, and the cut "
               "itself are identical everywhere, and the replay counters "
               "are byte-identical at every thread count.\n";
  if (!ok) {
    std::cerr << "ERROR: fused pipeline diverged from the staged "
                 "reference\n";
    return 1;
  }
  return 0;
}
