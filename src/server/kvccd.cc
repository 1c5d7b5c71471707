#include "server/kvccd.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "graph/graph_io.h"
#include "kvcc/hierarchy.h"
#include "kvcc/job_control.h"

namespace kvcc {
namespace server {
namespace {

/// Pairs every TryAdmit with its Release, whatever path the handler
/// takes out.
class AdmissionGuard {
 public:
  AdmissionGuard(AdmissionController& admission, JobPriority priority)
      : admission_(admission),
        priority_(priority),
        admitted_(admission.TryAdmit(priority)) {}
  ~AdmissionGuard() {
    if (admitted_) admission_.Release(priority_);
  }
  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;

  bool admitted() const { return admitted_; }

 private:
  AdmissionController& admission_;
  JobPriority priority_;
  bool admitted_;
};

}  // namespace

KvccdServer::KvccdServer(const KvccdConfig& config)
    : config_(config),
      engine_(config.engine_threads),
      cache_(config.cache_bytes),
      admission_(config.admission),
      dynamic_state_(KvccOptions::VcceStar()) {
  // Eagerly initialize the dynamic state (on the empty graph) so the
  // first mutation takes the incremental path, not a cold rebuild.
  dynamic_state_.Update(dynamic_graph_);
}

void KvccdServer::ServeConnection(Transport& transport) {
  std::string line;
  while (transport.ReadLine(line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank keep-alive line
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    // Every response ends in one terminal line, written here once Dispatch
    // has returned and released the request's admission slot, so a client
    // that has read it never sees the request still running.
    std::optional<std::string> terminal;
    std::string detail;
    JsonValue json;
    Request request;
    if (line.size() > kMaxRequestBytes) {
      const std::string limit = std::to_string(kMaxRequestBytes);
      terminal = ErrorLine("overlong", "request exceeds " + limit + " bytes");
    } else if (!IsValidUtf8(line)) {
      terminal = ErrorLine("invalid-utf8", "request is not valid UTF-8");
    } else if (!ParseJson(line, json, detail)) {
      terminal = ErrorLine("malformed", detail);
    } else if (!ParseRequest(json, request, detail)) {
      terminal = ErrorLine("bad-request", detail);
    }
    if (terminal.has_value()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
    } else {
      terminal = Dispatch(transport, request);
    }
    if (!terminal.has_value() || !transport.WriteLine(*terminal)) return;
  }
}

std::optional<std::string> KvccdServer::Dispatch(Transport& transport,
                                                 const Request& request) {
  if (request.op == Request::Op::kPing) return PongLine();
  if (request.op == Request::Op::kStats) return StatsLine();

  const bool dynamic_op = request.dynamic ||
                          request.op == Request::Op::kInsertEdges ||
                          request.op == Request::Op::kDeleteEdges ||
                          request.op == Request::Op::kCompact;
  Graph g;
  if (!dynamic_op) {
    std::string error;
    if (!ResolveGraph(request, g, error)) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return ErrorLine("graph", error);
    }
  }

  AdmissionGuard guard(admission_, request.options.priority);
  if (!guard.admitted()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorLine("overloaded",
                     std::string("admission limit reached for class '") +
                         JobPriorityName(request.options.priority) +
                         "'; retry later");
  }
  switch (request.op) {
    case Request::Op::kDecompose:
      if (request.dynamic) return HandleDynamicDecompose(transport, request);
      return HandleDecompose(transport, request, g);
    case Request::Op::kHierarchy: {
      if (!request.dynamic) return HandleHierarchy(transport, request, g);
      std::shared_ptr<const KvccHierarchy> hierarchy;
      {
        std::lock_guard<std::mutex> lock(dynamic_mutex_);
        hierarchy = dynamic_state_.Hierarchy();
      }
      return RenderHierarchy(transport, request, *hierarchy);
    }
    case Request::Op::kMembership: {
      if (!request.dynamic) return HandleMembership(request, g);
      std::shared_ptr<const Graph> dynamic_graph;
      std::shared_ptr<const KvccHierarchy> hierarchy;
      {
        std::lock_guard<std::mutex> lock(dynamic_mutex_);
        dynamic_graph = dynamic_state_.CurrentGraph();
        hierarchy = dynamic_state_.Hierarchy();
      }
      return RenderMembership(request, *dynamic_graph, *hierarchy);
    }
    case Request::Op::kInsertEdges:
    case Request::Op::kDeleteEdges:
      return HandleMutation(request);
    case Request::Op::kCompact:
      return HandleCompact();
    case Request::Op::kPing:
    case Request::Op::kStats:
      break;  // answered above, outside admission
  }
  return std::nullopt;  // not reached
}

std::string KvccdServer::HandleMutation(const Request& request) {
  const bool insert = request.op == Request::Op::kInsertEdges;
  std::uint64_t version = 0;
  std::size_t applied = 0;
  IncrementalOutcome outcome;
  std::string internal_error;
  {
    std::lock_guard<std::mutex> lock(dynamic_mutex_);
    const std::shared_ptr<const Graph> before =
        dynamic_state_.CurrentGraph();
    applied = insert ? dynamic_graph_.InsertEdges(request.edges)
                     : dynamic_graph_.DeleteEdges(request.edges);
    if (applied > 0) {
      try {
        outcome = engine_.SubmitIncremental(dynamic_state_, dynamic_graph_);
      } catch (const std::exception& e) {
        internal_error = e.what();
      }
      if (internal_error.empty()) {
        cache_.RekeyAfterMutation(*before, *dynamic_state_.CurrentGraph(),
                                  outcome.dirty_levels);
        delta_edges_applied_.fetch_add(outcome.delta_edges_applied,
                                       std::memory_order_relaxed);
        dirty_components_.fetch_add(outcome.dirty_components,
                                    std::memory_order_relaxed);
        incremental_reruns_.fetch_add(outcome.incremental_reruns,
                                      std::memory_order_relaxed);
      }
    }
    version = dynamic_graph_.Version();
  }
  if (!internal_error.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorLine("internal", internal_error);
  }
  return UpdatedLine(insert ? "insert_edges" : "delete_edges", version, applied,
                     outcome.dirty_components, outcome.incremental_reruns);
}

std::string KvccdServer::HandleCompact() {
  std::uint64_t version = 0;
  std::size_t folded = 0;
  {
    std::lock_guard<std::mutex> lock(dynamic_mutex_);
    folded = dynamic_graph_.Compact();
    version = dynamic_graph_.Version();
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return CompactedLine(version, folded);
}

std::optional<std::string> KvccdServer::HandleDynamicDecompose(
    Transport& transport, const Request& request) {
  std::shared_ptr<const Graph> g;
  std::shared_ptr<const KvccHierarchy> hierarchy;
  {
    std::lock_guard<std::mutex> lock(dynamic_mutex_);
    g = dynamic_state_.CurrentGraph();
    hierarchy = dynamic_state_.Hierarchy();
  }
  std::shared_ptr<const ComponentList> components =
      cache_.LookupComponents(*g, request.k);
  if (components == nullptr) {
    // The maintained hierarchy answers any k exactly (ComponentsAtLevel
    // equals the cold enumeration's canonical output); cache the list so
    // later replays hit.
    components = std::make_shared<const ComponentList>(
        hierarchy->ComponentsAtLevel(request.k));
    cache_.InsertComponents(*g, request.k, components);
  }
  // Miss and hit render through the same path, so a post-mutation cold
  // render and its cached replay are byte-identical.
  return ReplayDecompose(transport, request, *components);
}

bool KvccdServer::ResolveGraph(const Request& request, Graph& g,
                               std::string& error) {
  if (request.has_edges) {
    VertexId num_vertices = 0;
    for (const auto& [u, v] : request.edges) {
      num_vertices = std::max({num_vertices, u + 1, v + 1});
    }
    g = Graph::FromEdges(num_vertices, request.edges);
    return true;
  }
  try {
    g = ReadEdgeListFile(request.graph_path);
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  return true;
}

std::optional<std::string> KvccdServer::EmitDecompose(
    Transport& transport, const Request& request,
    const ComponentList& components) {
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!transport.WriteLine(ComponentLine(i, components[i]))) {
      return std::nullopt;
    }
  }
  return DecomposeCompleteLine(request.k, components.size());
}

std::optional<std::string> KvccdServer::ReplayDecompose(
    Transport& transport, const Request& request,
    const ComponentList& components) {
  if (request.progress_every != 0) {
    for (std::uint64_t d = request.progress_every; d <= components.size();
         d += request.progress_every) {
      if (!transport.WriteLine(ProgressLine(d))) return std::nullopt;
    }
  }
  return EmitDecompose(transport, request, components);
}

std::optional<std::string> KvccdServer::HandleDecompose(
    Transport& transport, const Request& request, const Graph& g) {
  const std::shared_ptr<const ComponentList> cached =
      cache_.LookupComponents(g, request.k);
  if (cached != nullptr) {
    // Replay: the cold run's progress cadence, regenerated from the
    // component count, then the identical component and complete lines.
    return ReplayDecompose(transport, request, *cached);
  }

  auto components = std::make_shared<ComponentList>();
  std::uint64_t delivered = 0;
  try {
    ResultStream stream = engine_.SubmitStream(g, request.k, request.options);
    for (;;) {
      std::optional<StreamedComponent> component = stream.Next();
      if (!component.has_value()) break;
      components->push_back(std::move(component->vertices));
      ++delivered;
      // The cold run's only mid-compute output: a deterministic
      // count-based heartbeat. Its write is where a gone client is
      // noticed mid-job (returning destroys `stream`, which abandons the
      // channel and fires the job's cancel token) and where a slow
      // reader's transport backpressure reaches the engine.
      if (request.progress_every != 0 &&
          delivered % request.progress_every == 0) {
        if (!transport.WriteLine(ProgressLine(delivered))) {
          disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
          return std::nullopt;
        }
      }
    }
  } catch (const JobCancelled&) {
    deadline_cancels_.fetch_add(1, std::memory_order_relaxed);
    return CancelledLine("decompose", delivered);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorLine("internal", e.what());
  }
  std::sort(components->begin(), components->end());
  cache_.InsertComponents(g, request.k, components);
  return EmitDecompose(transport, request, *components);
}

std::shared_ptr<const KvccHierarchy> KvccdServer::ObtainHierarchy(
    const Request& request, const Graph& g, std::uint32_t max_level,
    bool need_exhausted, const char* op, std::string& failure) {
  std::shared_ptr<const KvccHierarchy> hierarchy =
      cache_.LookupHierarchy(g, max_level, need_exhausted);
  if (hierarchy != nullptr) return hierarchy;
  try {
    auto built = std::make_shared<KvccHierarchy>(
        BuildKvccHierarchy(engine_, g, max_level, request.options));
    const bool exhausted =
        max_level == 0 || built->MaxLevel() < max_level;
    cache_.InsertHierarchy(g, built, max_level, exhausted);
    return built;
  } catch (const JobCancelled&) {
    deadline_cancels_.fetch_add(1, std::memory_order_relaxed);
    failure = CancelledLine(op, 0);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    failure = ErrorLine("internal", e.what());
  }
  return nullptr;
}

std::optional<std::string> KvccdServer::RenderHierarchy(
    Transport& transport, const Request& request,
    const KvccHierarchy& hierarchy) {
  std::uint32_t levels = hierarchy.MaxLevel();
  if (request.max_k != 0) levels = std::min(levels, request.max_k);
  for (std::uint32_t k = 1; k <= levels; ++k) {
    const std::vector<std::size_t>& nodes = hierarchy.NodesAtLevel(k);
    std::uint64_t largest = 0;
    for (const std::size_t index : nodes) {
      largest =
          std::max<std::uint64_t>(largest,
                                  hierarchy.nodes[index].vertices.size());
    }
    if (!transport.WriteLine(LevelLine(k, nodes.size(), largest))) {
      return std::nullopt;
    }
  }
  return HierarchyCompleteLine(levels);
}

std::string KvccdServer::RenderMembership(const Request& request,
                                          const Graph& g,
                                          const KvccHierarchy& hierarchy) {
  if (request.vertex >= g.NumVertices()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorLine("bad-request", "vertex out of range");
  }
  return MembershipLine(g.LabelOf(request.vertex),
                        hierarchy.CohesionOf(request.vertex),
                        hierarchy.PathOf(request.vertex));
}

std::optional<std::string> KvccdServer::HandleHierarchy(
    Transport& transport, const Request& request, const Graph& g) {
  std::string failure;
  const std::shared_ptr<const KvccHierarchy> hierarchy = ObtainHierarchy(
      request, g, request.max_k, request.max_k == 0, "hierarchy", failure);
  if (hierarchy == nullptr) return failure;
  return RenderHierarchy(transport, request, *hierarchy);
}

std::string KvccdServer::HandleMembership(const Request& request,
                                          const Graph& g) {
  if (request.vertex >= g.NumVertices()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorLine("bad-request", "vertex out of range");
  }
  std::string failure;
  const std::shared_ptr<const KvccHierarchy> hierarchy =
      ObtainHierarchy(request, g, /*max_level=*/0, /*need_exhausted=*/true,
                      "membership", failure);
  if (hierarchy == nullptr) return failure;
  return RenderMembership(request, g, *hierarchy);
}

std::string KvccdServer::StatsLine() const {
  std::string line = "{\"type\":\"stats\",\"requests\":";
  line += std::to_string(requests_.load(std::memory_order_relaxed));
  line += ",\"errors\":";
  line += std::to_string(errors_.load(std::memory_order_relaxed));
  line += ",\"cache_hits\":";
  line += std::to_string(cache_.Hits());
  line += ",\"cache_misses\":";
  line += std::to_string(cache_.Misses());
  line += ",\"cache_evictions\":";
  line += std::to_string(cache_.Evictions());
  line += ",\"cache_entries\":";
  line += std::to_string(cache_.Entries());
  line += ",\"cache_bytes\":";
  line += std::to_string(cache_.BytesUsed());
  line += ",\"jobs_shed\":";
  line += std::to_string(admission_.JobsShed());
  line += ",\"bulk_shed\":";
  line += std::to_string(admission_.BulkShed());
  line += ",\"running\":";
  line += std::to_string(admission_.Running());
  line += ",\"disconnect_cancels\":";
  line += std::to_string(disconnect_cancels_.load(std::memory_order_relaxed));
  line += ",\"deadline_cancels\":";
  line += std::to_string(deadline_cancels_.load(std::memory_order_relaxed));
  line += ",\"delta_edges_applied\":";
  line +=
      std::to_string(delta_edges_applied_.load(std::memory_order_relaxed));
  line += ",\"dirty_components\":";
  line += std::to_string(dirty_components_.load(std::memory_order_relaxed));
  line += ",\"incremental_reruns\":";
  line +=
      std::to_string(incremental_reruns_.load(std::memory_order_relaxed));
  line += ",\"compactions\":";
  line += std::to_string(compactions_.load(std::memory_order_relaxed));
  line += "}";
  return line;
}

}  // namespace server
}  // namespace kvcc
