// kvcc — command-line front end for the library.
//
// Subcommands:
//   decompose   enumerate the k-VCCs of an edge-list graph
//   stream      like decompose, but emit each k-VCC as NDJSON the moment
//               it commits (KvccEngine streaming delivery)
//   batch       serve many (graph, k) jobs on one shared KvccEngine
//   hierarchy   print the full k-VCC hierarchy (cohesive blocking)
//   connectivity  report kappa(G) / test k-vertex-connectivity
//   models      compare k-core / k-ECC / k-VCC on one graph
//   update      replay an edge-mutation script against the incremental
//               dynamic-graph engine (VersionedGraph + IncrementalKvcc)
//   generate    write a synthetic dataset stand-in as an edge list
//
// Graphs are plain SNAP-style edge lists ('#'/'%' comments, "u v" lines).
// Vertices are numbered by ascending original id, so each output component
// is printed on one line as its original ids in ascending order.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ecc/kecc.h"
#include "gen/dataset_suite.h"
#include "graph/delta_store.h"
#include "graph/graph_io.h"
#include "graph/k_core.h"
#include "kvcc/connectivity.h"
#include "kvcc/engine.h"
#include "kvcc/hierarchy.h"
#include "kvcc/incremental.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/stream.h"
#include "kvcc/validation.h"
#include "metrics/cohesion_report.h"
#include "util/timer.h"

namespace {

using namespace kvcc;

int Usage() {
  std::cerr <<
      "usage: kvcc <command> [args]\n"
      "  decompose <graph> <k> [--variant=VCCE*|VCCE|VCCE-N|VCCE-G]\n"
      "            [--threads=N] [--deadline-ms=D] [--validate]\n"
      "            [--stats] [--quiet]\n"
      "            (--threads: 1 = serial, 0 = all hardware threads;\n"
      "             --deadline-ms: wall-clock budget, exit 3 with\n"
      "             partial stats once it elapses)\n"
      "  stream <graph> <k> [--variant=VCCE*|VCCE|VCCE-N|VCCE-G]\n"
      "         [--threads=N] [--deadline-ms=D] [--stream-buffer=L]\n"
      "         [--priority=interactive|normal|bulk] [--stats]\n"
      "         (NDJSON: one {\"type\": \"component\", ...} line per k-VCC\n"
      "          as soon as it commits, in completion order, then one\n"
      "          \"complete\" line; --stream-buffer bounds undelivered\n"
      "          components (0 = unbounded, producer blocks when full);\n"
      "          --deadline-ms cancels mid-stream, closing with a\n"
      "          \"cancelled\" line; --threads defaults to 0 = all\n"
      "          hardware threads)\n"
      "  batch <jobs-file> [--variant=...] [--threads=N] [--deadline-ms=D]\n"
      "        [--priority=interactive|normal|bulk] [--stats] [--quiet]\n"
      "        (jobs-file lines: \"<graph> <k> [variant]\"; '#' comments.\n"
      "         All jobs run concurrently on one shared engine; output\n"
      "         order and content match per-job serial decompose runs.\n"
      "         --variant is the default preset for lines naming none;\n"
      "         --deadline-ms/--priority apply to every job in the file;\n"
      "         deadline-cancelled jobs are reported and skipped.)\n"
      "  hierarchy <graph> [max_k] [--threads=N]\n"
      "  connectivity <graph> [k]\n"
      "  models <graph> <k>\n"
      "  update <graph> <mutations> [k] [--threads=N] [--check]\n"
      "         [--stats] [--quiet]\n"
      "         (mutations file lines: \"+ u v\" stages an insert,\n"
      "          \"- u v\" a delete, \"apply\" runs the staged batch\n"
      "          through the incremental engine, \"compact\" folds the\n"
      "          delta memtable; '#' comments. Endpoints use the graph\n"
      "          file's original ids; unseen ids grow the graph. Each\n"
      "          apply prints the incremental outcome counters; with k,\n"
      "          the final k-VCCs are printed. --check re-verifies every\n"
      "          apply against a cold hierarchy build, exit 1 on any\n"
      "          divergence)\n"
      "  generate <dataset> <out-file> [scale]\n"
      "  datasets\n";
  return 2;
}

/// Strict unsigned parse: pure digits only, capped. strtoul alone accepts
/// a leading '-' (wrapping) and trailing junk, so "-1" or "12abc" would
/// otherwise slip through as enormous or truncated values.
bool ParseUint(const std::string& value, unsigned long cap,
               std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || value[0] == '-' || parsed > cap) {
    return false;
  }
  out = static_cast<std::uint32_t>(parsed);
  return true;
}

/// Parses the positional k of `command` before any graph is loaded; prints
/// one error line naming k and returns false on junk or on k < min_k.
bool ParseK(const char* command, const std::string& value,
            std::uint32_t min_k, std::uint32_t& k) {
  if (!ParseUint(value, 0xffffffffUL, k) || k < min_k) {
    std::cerr << "error: " << command << " expects an integer k >= " << min_k
              << "\n";
    return false;
  }
  return true;
}

/// Parses a --threads=N value; prints an error and returns false on junk.
bool ParseThreads(const std::string& value, std::uint32_t& threads) {
  if (!ParseUint(value, 1024, threads)) {
    std::cerr << "error: --threads expects an integer in [0, 1024] "
                 "(0 = all hardware threads)\n";
    return false;
  }
  return true;
}

/// Parses a --deadline-ms=D value; prints an error and returns false on
/// junk.
bool ParseDeadlineMs(const std::string& value, std::uint32_t& deadline_ms) {
  if (!ParseUint(value, 0xffffffffUL, deadline_ms)) {
    std::cerr << "error: --deadline-ms expects a non-negative integer "
                 "(0 = no deadline)\n";
    return false;
  }
  return true;
}

/// Parses a --priority= class name; prints an error and returns false on
/// junk.
bool ParsePriority(const std::string& value, JobPriority& priority) {
  const std::optional<JobPriority> parsed = JobPriorityFromName(value);
  if (!parsed) {
    std::cerr << "error: --priority expects interactive, normal, or bulk\n";
    return false;
  }
  priority = *parsed;
  return true;
}

/// Flags shared by the decompose, stream and batch subcommands: --variant=,
/// --threads=, --deadline-ms=, --priority=, --stats. Parsed into state that
/// Options() applies *after* the whole command line is consumed (batch
/// applies ApplyExecutionKnobs() to each jobs-file line instead), so a
/// later --variant= cannot clobber the effect of an earlier flag (each
/// subcommand likewise applies its own extra flags post-loop).
struct CommonEnumFlags {
  explicit CommonEnumFlags(std::uint32_t default_threads)
      : threads(default_threads) {}

  enum class Parse { kHandled, kNotMine, kError };

  Parse TryParse(const std::string& arg) {
    if (arg.rfind("--variant=", 0) == 0) {
      variant = KvccOptions::FromVariantName(arg.substr(10));
      return Parse::kHandled;
    }
    if (arg.rfind("--threads=", 0) == 0) {
      return ParseThreads(arg.substr(10), threads) ? Parse::kHandled
                                                   : Parse::kError;
    }
    if (arg.rfind("--deadline-ms=", 0) == 0) {
      return ParseDeadlineMs(arg.substr(14), deadline_ms) ? Parse::kHandled
                                                          : Parse::kError;
    }
    if (arg.rfind("--priority=", 0) == 0) {
      return ParsePriority(arg.substr(11), priority) ? Parse::kHandled
                                                     : Parse::kError;
    }
    if (arg == "--stats") {
      stats = true;
      return Parse::kHandled;
    }
    return Parse::kNotMine;
  }

  /// Applies the shared execution knobs, leaving the variant alone —
  /// batch mode resolves its variant per jobs-file line and layers these
  /// on top.
  void ApplyExecutionKnobs(KvccOptions& options) const {
    options.deadline_ms = deadline_ms;
    options.priority = priority;
  }

  /// The selected variant with the shared execution knobs applied.
  KvccOptions Options() const {
    KvccOptions options = variant;
    ApplyExecutionKnobs(options);
    return options;
  }

  KvccOptions variant = KvccOptions::VcceStar();
  std::uint32_t threads;
  std::uint32_t deadline_ms = 0;
  JobPriority priority = JobPriority::kNormal;
  bool stats = false;
};

void PrintComponents(const Graph& g,
                     const std::vector<std::vector<VertexId>>& components) {
  for (std::size_t i = 0; i < components.size(); ++i) {
    std::cout << "component " << i << " (" << components[i].size() << "):";
    for (VertexId v : components[i]) std::cout << " " << g.LabelOf(v);
    std::cout << "\n";
  }
}

int CmdDecompose(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::uint32_t k = 0;
  if (!ParseK("decompose", args[1], 1, k)) return 2;
  CommonEnumFlags flags(/*default_threads=*/1);
  bool validate = false, quiet = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const CommonEnumFlags::Parse parsed = flags.TryParse(args[i]);
    if (parsed == CommonEnumFlags::Parse::kError) return 2;
    if (parsed == CommonEnumFlags::Parse::kHandled) continue;
    if (args[i] == "--validate") {
      validate = true;
    } else if (args[i] == "--quiet") {
      quiet = true;
    } else {
      return Usage();
    }
  }
  const bool stats = flags.stats;
  const Graph g = ReadEdgeListFile(args[0]);
  const KvccOptions options = flags.Options();
  Timer timer;
  KvccResult result;
  try {
    if (flags.threads == 1) {
      result = EnumerateKVccs(g, k, options);
    } else {
      KvccEngine engine(flags.threads);
      result = engine.Wait(engine.Submit(g, k, options));
    }
  } catch (const JobCancelled& cancelled) {
    std::cerr << "cancelled: " << cancelled.what() << " after "
              << timer.ElapsedMillis() << "ms ("
              << cancelled.partial_stats().kvccs_found
              << " k-VCCs found before the deadline)\n";
    if (stats) std::cerr << cancelled.partial_stats().ToString();
    return 3;
  }
  std::cerr << "|V|=" << g.NumVertices() << " |E|=" << g.NumEdges() << " k="
            << k << ": " << result.components.size() << " k-VCCs in "
            << timer.ElapsedMillis() << "ms\n";
  if (!quiet) PrintComponents(g, result.components);
  if (stats) std::cerr << result.stats.ToString();
  if (validate) {
    const ValidationReport report =
        ValidateKvccResult(g, k, result.components);
    if (report.ok) {
      std::cerr << "validation: OK\n";
    } else {
      std::cerr << "validation FAILED:\n";
      for (const auto& violation : report.violations) {
        std::cerr << "  - " << violation << "\n";
      }
      return 1;
    }
  }
  return 0;
}

int CmdStream(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::uint32_t k = 0;
  if (!ParseK("stream", args[1], 1, k)) return 2;
  // Streaming defaults to all hardware threads (the serving shape).
  CommonEnumFlags flags(/*default_threads=*/0);
  std::uint32_t stream_buffer = 0;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const CommonEnumFlags::Parse parsed = flags.TryParse(args[i]);
    if (parsed == CommonEnumFlags::Parse::kError) return 2;
    if (parsed == CommonEnumFlags::Parse::kHandled) continue;
    if (args[i].rfind("--stream-buffer=", 0) == 0) {
      if (!ParseUint(args[i].substr(16), 1u << 20, stream_buffer)) {
        std::cerr << "error: --stream-buffer expects an integer in "
                     "[0, 2^20] (0 = unbounded)\n";
        return 2;
      }
    } else {
      return Usage();
    }
  }
  const bool stats = flags.stats;
  const Graph g = ReadEdgeListFile(args[0]);
  KvccOptions options = flags.Options();
  options.stream_buffer_limit = stream_buffer;

  KvccEngine engine(flags.threads);
  Timer timer;
  ResultStream result_stream = engine.SubmitStream(g, k, options);
  double first_ms = -1.0;
  std::size_t count = 0;
  try {
    while (std::optional<StreamedComponent> c = result_stream.Next()) {
      if (count == 0) first_ms = timer.ElapsedMillis();
      std::cout << "{\"type\": \"component\", \"sequence\": " << c->sequence
                << ", \"size\": " << c->vertices.size()
                << ", \"vertices\": [";
      for (std::size_t i = 0; i < c->vertices.size(); ++i) {
        if (i != 0) std::cout << ", ";
        std::cout << g.LabelOf(c->vertices[i]);
      }
      std::cout << "]}\n";
      ++count;
    }
  } catch (const JobCancelled& cancelled) {
    // Deadline fired mid-stream: the components above were delivered and
    // stay valid; close the NDJSON stream with a distinct outcome line.
    std::cout << "{\"type\": \"cancelled\", \"components\": " << count
              << ", \"elapsed_ms\": " << timer.ElapsedMillis();
    if (stats) {
      std::cout << ", \"partial_stats\": "
                << cancelled.partial_stats().ToJson();
    }
    std::cout << "}\n";
    std::cerr << "cancelled: " << cancelled.what() << " (" << count
              << " k-VCCs streamed before the deadline)\n";
    return 3;
  }
  const double total_ms = timer.ElapsedMillis();
  std::cout << "{\"type\": \"complete\", \"components\": " << count
            << ", \"first_component_ms\": " << (count ? first_ms : total_ms)
            << ", \"elapsed_ms\": " << total_ms;
  if (stats) std::cout << ", \"stats\": " << result_stream.Stats().ToJson();
  std::cout << "}\n";
  std::cerr << "|V|=" << g.NumVertices() << " |E|=" << g.NumEdges()
            << " k=" << k << ": streamed " << count << " k-VCCs in "
            << total_ms << "ms (first after "
            << (count ? first_ms : total_ms) << "ms, "
            << engine.num_workers() << " workers)\n";
  return 0;
}

/// One parsed line of a batch jobs file.
struct BatchJobLine {
  std::string graph_path;
  std::uint32_t k = 0;
  KvccOptions options;
};

int CmdBatch(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  // Batch mode defaults to all hardware threads; the shared enumeration
  // flags (--threads/--deadline-ms/--priority/--variant/--stats) parse
  // exactly as in decompose/stream, with --variant acting as the default
  // preset for jobs-file lines that name none.
  CommonEnumFlags flags(/*default_threads=*/0);
  bool quiet = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const CommonEnumFlags::Parse parsed = flags.TryParse(args[i]);
    if (parsed == CommonEnumFlags::Parse::kError) return 2;
    if (parsed == CommonEnumFlags::Parse::kHandled) continue;
    if (args[i] == "--quiet") {
      quiet = true;
    } else {
      return Usage();
    }
  }
  const bool stats = flags.stats;

  std::ifstream in(args[0]);
  if (!in) {
    std::cerr << "error: cannot open jobs file " << args[0] << "\n";
    return 1;
  }
  std::vector<BatchJobLine> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    BatchJobLine job;
    if (!(fields >> job.graph_path) || job.graph_path[0] == '#' ||
        job.graph_path[0] == '%') {
      continue;  // Blank or comment line.
    }
    std::string k_field, variant;
    if (!(fields >> k_field) ||
        !ParseUint(k_field, 0xffffffffUL, job.k) || job.k == 0) {
      std::cerr << "error: " << args[0] << ":" << line_no
                << ": expected \"<graph> <k> [variant]\" with k >= 1\n";
      return 2;
    }
    job.options = fields >> variant ? KvccOptions::FromVariantName(variant)
                                    : flags.variant;
    flags.ApplyExecutionKnobs(job.options);
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    std::cerr << "error: no jobs in " << args[0] << "\n";
    return 1;
  }

  // Load each distinct graph once; jobs borrow from the cache (std::map
  // nodes are pointer-stable while the engine runs).
  std::map<std::string, Graph> graphs;
  for (const BatchJobLine& job : jobs) {
    if (!graphs.count(job.graph_path)) {
      graphs.emplace(job.graph_path, ReadEdgeListFile(job.graph_path));
    }
  }

  KvccEngine engine(flags.threads);
  Timer timer;
  std::vector<KvccEngine::JobId> ids;
  ids.reserve(jobs.size());
  for (const BatchJobLine& job : jobs) {
    ids.push_back(engine.Submit(graphs.at(job.graph_path), job.k,
                                job.options));
  }
  KvccStats totals;
  std::size_t total_components = 0;
  std::size_t cancelled_jobs = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Graph& g = graphs.at(jobs[i].graph_path);
    KvccResult result;
    try {
      result = engine.Wait(ids[i]);
    } catch (const JobCancelled& cancelled) {
      // A deadline only fails its own job; the rest of the batch stands.
      std::cerr << "job " << i << ": " << jobs[i].graph_path
                << " k=" << jobs[i].k << ": CANCELLED ("
                << cancelled.what() << ")\n";
      totals.Add(cancelled.partial_stats());
      ++cancelled_jobs;
      continue;
    }
    std::cerr << "job " << i << ": " << jobs[i].graph_path
              << " |V|=" << g.NumVertices() << " |E|=" << g.NumEdges()
              << " k=" << jobs[i].k << ": " << result.components.size()
              << " k-VCCs\n";
    if (!quiet) PrintComponents(g, result.components);
    totals.Add(result.stats);
    total_components += result.components.size();
  }
  std::cerr << jobs.size() << " jobs (" << total_components
            << " k-VCCs, " << cancelled_jobs << " cancelled) on "
            << engine.num_workers() << " workers in "
            << timer.ElapsedMillis() << "ms\n";
  if (stats) std::cerr << totals.ToString();
  return cancelled_jobs == 0 ? 0 : 3;
}

int CmdHierarchy(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::uint32_t max_k = 0;
  std::uint32_t threads = 1;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--threads=", 0) == 0) {
      if (!ParseThreads(args[i].substr(10), threads)) return 2;
    } else if (!ParseUint(args[i], 0xffffffffUL, max_k)) {
      std::cerr << "error: hierarchy max_k must be a non-negative integer\n";
      return 2;
    }
  }
  const Graph g = ReadEdgeListFile(args[0]);
  KvccHierarchy hierarchy;
  if (threads == 1) {
    hierarchy = BuildKvccHierarchy(g, max_k);
  } else {
    KvccEngine engine(threads);
    hierarchy = BuildKvccHierarchy(engine, g, max_k);
  }
  for (std::uint32_t k = 1; k <= hierarchy.MaxLevel(); ++k) {
    const auto& nodes = hierarchy.NodesAtLevel(k);
    std::cout << "level " << k << ": " << nodes.size() << " component(s)";
    std::size_t largest = 0;
    for (std::size_t index : nodes) {
      largest = std::max(largest, hierarchy.nodes[index].vertices.size());
    }
    std::cout << ", largest " << largest << "\n";
  }
  return 0;
}

int CmdConnectivity(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::uint32_t k = 0;
  if (args.size() > 1 && !ParseK("connectivity", args[1], 0, k)) return 2;
  const Graph g = ReadEdgeListFile(args[0]);
  if (args.size() > 1) {
    const bool yes = IsKVertexConnected(g, k);
    std::cout << (yes ? "yes" : "no") << ": graph is "
              << (yes ? "" : "NOT ") << k << "-vertex-connected\n";
    return yes ? 0 : 1;
  }
  std::cout << "kappa(G) = " << VertexConnectivity(g) << "\n";
  return 0;
}

int CmdModels(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::uint32_t k = 0;
  if (!ParseK("models", args[1], 1, k)) return 2;
  const Graph g = ReadEdgeListFile(args[0]);
  const auto core = KCoreVertices(g, k);
  const auto eccs = KEdgeConnectedComponents(g, k);
  const auto vccs = EnumerateKVccs(g, k).components;
  std::cout << "k=" << k << "\n  k-core: " << core.size() << " vertices\n"
            << "  k-ECCs: " << eccs.size() << "\n  k-VCCs: " << vccs.size()
            << "\n";
  const CohesionSummary summary = SummarizeComponents(g, vccs);
  std::cout << "  k-VCC avg diameter " << summary.avg_diameter
            << ", avg density " << summary.avg_edge_density
            << ", avg clustering " << summary.avg_clustering << "\n";
  return 0;
}

/// Replays an edge-mutation script against the dynamic-graph stack:
/// VersionedGraph (snapshot-isolated delta store) + IncrementalKvcc
/// (dirty-region re-decomposition) on a shared engine. The same stack
/// kvccd serves; docs/DYNAMIC.md describes the algorithm.
int CmdUpdate(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::uint32_t k = 0;
  std::uint32_t threads = 1;
  bool check = false, stats = false, quiet = false;
  bool have_k = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i].rfind("--threads=", 0) == 0) {
      if (!ParseThreads(args[i].substr(10), threads)) return 2;
    } else if (args[i] == "--check") {
      check = true;
    } else if (args[i] == "--stats") {
      stats = true;
    } else if (args[i] == "--quiet") {
      quiet = true;
    } else if (!have_k && ParseUint(args[i], 0xffffffffUL, k) && k >= 1) {
      have_k = true;
    } else {
      return Usage();
    }
  }

  // The delta store works in root-id space; keep the file's original ids
  // as a label table of our own so output matches the other subcommands.
  const Graph loaded = ReadEdgeListFile(args[0]);
  std::vector<VertexId> labels(loaded.NumVertices());
  std::map<VertexId, VertexId> label_to_root;
  for (VertexId v = 0; v < loaded.NumVertices(); ++v) {
    labels[v] = loaded.LabelOf(v);
    label_to_root[labels[v]] = v;
  }
  const auto resolve = [&](VertexId label) {
    const auto [it, fresh] =
        label_to_root.emplace(label, static_cast<VertexId>(labels.size()));
    if (fresh) labels.push_back(label);
    return it->second;
  };

  VersionedGraph vg(loaded.WithIdentityLabels());
  IncrementalKvcc state;
  KvccEngine engine(threads);
  engine.SubmitIncremental(state, vg);  // initial (full) build

  std::ifstream in(args[1]);
  if (!in) {
    std::cerr << "error: cannot open mutations file " << args[1] << "\n";
    return 1;
  }

  std::vector<std::pair<VertexId, VertexId>> inserts, deletes;
  std::size_t batch_no = 0;
  std::size_t line_no = 0;
  std::string line;
  const auto apply = [&]() -> bool {
    if (inserts.empty() && deletes.empty()) return true;
    ++batch_no;
    const std::size_t applied =
        vg.InsertEdges(inserts) + vg.DeleteEdges(deletes);
    inserts.clear();
    deletes.clear();
    const IncrementalOutcome outcome = engine.SubmitIncremental(state, vg);
    std::cout << "batch " << batch_no << ": version=" << outcome.version
              << " applied=" << applied
              << " dirty_components=" << outcome.dirty_components
              << " reruns=" << outcome.incremental_reruns
              << " full_rebuild=" << (outcome.full_rebuild ? "yes" : "no")
              << " dirty_levels=[";
    for (std::size_t i = 0; i < outcome.dirty_levels.size(); ++i) {
      std::cout << (i ? "," : "") << outcome.dirty_levels[i];
    }
    std::cout << "]\n";
    if (check) {
      const KvccHierarchy cold = BuildKvccHierarchy(*state.CurrentGraph());
      const KvccHierarchy& warm = *state.Hierarchy();
      const std::uint32_t top = std::max(cold.MaxLevel(), warm.MaxLevel());
      for (std::uint32_t level = 1; level <= top; ++level) {
        if (cold.ComponentsAtLevel(level) !=
            warm.ComponentsAtLevel(level)) {
          std::cerr << "check FAILED: batch " << batch_no << " level "
                    << level
                    << ": incremental result diverges from cold build\n";
          return false;
        }
      }
    }
    return true;
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string op;
    if (!(fields >> op) || op[0] == '#' || op[0] == '%') continue;
    if (op == "apply") {
      if (!apply()) return 1;
      continue;
    }
    if (op == "compact") {
      if (!apply()) return 1;  // a compact closes any staged batch
      std::cout << "compact: folded=" << vg.Compact()
                << " version=" << vg.Version() << "\n";
      continue;
    }
    VertexId u = 0, v = 0;
    if ((op != "+" && op != "-") || !(fields >> u >> v) || u == v) {
      std::cerr << "error: " << args[1] << ":" << line_no
                << ": expected \"+ u v\", \"- u v\", \"apply\", or "
                   "\"compact\"\n";
      return 2;
    }
    auto& staged = op == "+" ? inserts : deletes;
    staged.emplace_back(resolve(u), resolve(v));
  }
  if (!apply()) return 1;  // trailing staged ops apply at EOF

  const Graph& g = *state.CurrentGraph();
  const KvccHierarchy& hierarchy = *state.Hierarchy();
  std::cerr << "final: |V|=" << g.NumVertices() << " |E|=" << g.NumEdges()
            << " version=" << vg.Version() << " batches=" << batch_no
            << "\n";
  for (std::uint32_t level = 1; level <= hierarchy.MaxLevel(); ++level) {
    std::cout << "level " << level << ": "
              << hierarchy.NodesAtLevel(level).size() << " component(s)\n";
  }
  if (have_k && !quiet) {
    const auto components = hierarchy.ComponentsAtLevel(k);
    for (std::size_t i = 0; i < components.size(); ++i) {
      std::cout << "component " << i << " (" << components[i].size()
                << "):";
      for (VertexId v : components[i]) std::cout << " " << labels[v];
      std::cout << "\n";
    }
  }
  if (check) std::cout << "check: OK (" << batch_no << " batches)\n";
  if (stats) std::cerr << state.Stats().ToString();
  return 0;
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  const double scale = args.size() > 2 ? std::atof(args[2].c_str()) : 1.0;
  const Graph g = GenerateDataset(args[0], scale);
  WriteEdgeListFile(g, args[1]);
  std::cerr << "wrote " << args[1] << ": |V|=" << g.NumVertices()
            << " |E|=" << g.NumEdges() << "\n";
  return 0;
}

int CmdDatasets() {
  for (const auto& name : DatasetNames()) {
    const DatasetInfo info = GetDatasetInfo(name);
    std::cout << name << "\t" << info.family << "\t"
              << info.paper_counterpart << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "decompose") return CmdDecompose(args);
    if (command == "stream") return CmdStream(args);
    if (command == "batch") return CmdBatch(args);
    if (command == "hierarchy") return CmdHierarchy(args);
    if (command == "connectivity") return CmdConnectivity(args);
    if (command == "models") return CmdModels(args);
    if (command == "update") return CmdUpdate(args);
    if (command == "generate") return CmdGenerate(args);
    if (command == "datasets") return CmdDatasets();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return Usage();
}
