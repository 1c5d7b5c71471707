#include "kvcc/kvcc_enum.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/task_scheduler.h"
#include "kvcc/engine.h"
#include "kvcc/enum_internal.h"
#include "kvcc/job_control.h"

namespace kvcc {

namespace {

/// Arms `token` from options.deadline_ms and returns it as the cancel
/// pointer the serial loop polls (null when no deadline is set — the
/// serial paths have no other cancellation trigger).
const CancelToken* ArmDeadline(const KvccOptions& options,
                               CancelToken& token) {
  if (options.deadline_ms == 0) return nullptr;
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options.deadline_ms));
  return &token;
}

/// The serial recursion behind both serial drivers: an explicit LIFO stack
/// run on the calling thread. The stack *is* the definition of the serial
/// emission order (stable_order replays it) — each item's own components
/// reach `emit` first, then the subtree of its last-spawned child, and so
/// on. Returns the run's stats. When options.deadline_ms elapses, throws
/// JobCancelled("<caller>: deadline elapsed") carrying the partial stats;
/// any other exception (a sink's included) propagates unchanged.
template <typename Emit>
KvccStats RunSerial(const Graph& g, std::uint32_t k,
                    const KvccOptions& options, const char* caller,
                    Emit&& emit) {
  internal::EnumScratch scratch;
  CancelToken deadline_token;
  const CancelToken* cancel = ArmDeadline(options, deadline_token);
  KvccStats stats;
  std::vector<internal::WorkItem> stack;
  auto spawn = [&stack](internal::WorkItem&& child) {
    stack.push_back(std::move(child));
  };
  try {
    internal::ProcessItem(internal::WorkItem{}, &g, k, options, scratch, stats,
                          /*scheduler=*/nullptr, cancel, emit, spawn);
    while (!stack.empty()) {
      // Task-boundary check: the remaining stack is never processed.
      if (cancel != nullptr && cancel->Cancelled()) {
        throw JobCancelled(std::string(caller) + ": deadline elapsed");
      }
      internal::WorkItem item = std::move(stack.back());
      stack.pop_back();
      internal::ProcessItem(std::move(item), nullptr, k, options, scratch,
                            stats, /*scheduler=*/nullptr, cancel, emit, spawn);
    }
  } catch (const JobCancelled& cancelled) {
    // Attach the partial counters (a mid-GLOBAL-CUT unwind carries none)
    // and account the stack items the unwind left unprocessed.
    stats.tasks_cancelled += stack.size();
    throw JobCancelled(cancelled.what(), stats);
  }
  return stats;
}

}  // namespace

std::vector<PartitionPiece> OverlapPartition(
    const Graph& g, const std::vector<VertexId>& cut, bool as_root) {
  const VertexId n = g.NumVertices();
  std::vector<bool> in_cut(n, false);
  for (VertexId v : cut) in_cut[v] = true;

  std::vector<PartitionPiece> pieces;
  std::vector<bool> seen(n, false);
  std::vector<VertexId> queue;
  for (VertexId start = 0; start < n; ++start) {
    if (seen[start] || in_cut[start]) continue;
    // BFS one component of g - cut.
    queue.clear();
    queue.push_back(start);
    seen[start] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (VertexId w : g.Neighbors(queue[head])) {
        if (!seen[w] && !in_cut[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
    PartitionPiece piece;
    piece.vertices.reserve(queue.size() + cut.size());
    piece.vertices.insert(piece.vertices.end(), queue.begin(), queue.end());
    piece.vertices.insert(piece.vertices.end(), cut.begin(), cut.end());
    std::sort(piece.vertices.begin(), piece.vertices.end());
    piece.graph = as_root ? g.InducedSubgraphAsRoot(piece.vertices)
                          : g.InducedSubgraph(piece.vertices);
    pieces.push_back(std::move(piece));
  }
  if (pieces.size() < 2) {
    // Hard check, not an assert: in a Release build a non-separating "cut"
    // would otherwise yield a single piece equal to its parent, and the
    // recursion would respawn that piece forever.
    throw std::logic_error(
        "OverlapPartition: set of " + std::to_string(cut.size()) +
        " vertices is not a vertex cut of the " + std::to_string(n) +
        "-vertex graph (" + std::to_string(pieces.size()) +
        " piece(s) after removal)");
  }
  return pieces;
}

KvccResult EnumerateKVccs(const Graph& g, std::uint32_t k,
                          const KvccOptions& options) {
  if (k == 0) {
    throw std::invalid_argument("EnumerateKVccs: k must be at least 1");
  }
  const unsigned num_workers = exec::ResolveThreadCount(options.num_threads);
  if (num_workers > 1) {
    // One-job batch on a transient engine. Callers that decompose many
    // graphs should hold a KvccEngine themselves and Submit jobs against
    // its warm worker pool instead of paying this spin-up per call.
    KvccEngine engine(num_workers);
    return engine.Wait(engine.Submit(g, k, options));
  }

  KvccResult result;
  result.stats = RunSerial(g, k, options, "EnumerateKVccs",
                           [&result](std::vector<VertexId> ids) {
                             result.components.push_back(std::move(ids));
                           });
  std::sort(result.components.begin(), result.components.end());
  return result;
}

void EnumerateKVccsStreaming(const Graph& g, std::uint32_t k,
                             ComponentSink& sink,
                             const KvccOptions& options) {
  if (k == 0) {
    throw std::invalid_argument(
        "EnumerateKVccsStreaming: k must be at least 1");
  }
  const unsigned num_workers = exec::ResolveThreadCount(options.num_threads);
  if (num_workers > 1) {
    // One-job streaming batch on a transient engine; Wait() rethrows the
    // first algorithm or sink error after the tree drains, matching the
    // serial path's throw-through semantics. The sink is borrowed, not
    // owned: alias it into a shared_ptr with no ownership.
    KvccEngine engine(num_workers);
    std::shared_ptr<ComponentSink> borrowed(std::shared_ptr<void>(), &sink);
    engine.Wait(engine.SubmitStreaming(g, k, std::move(borrowed), options));
    return;
  }

  std::uint64_t sequence = 0;
  KvccStats stats;
  try {
    stats = RunSerial(g, k, options, "EnumerateKVccsStreaming",
                      [&](std::vector<VertexId> ids) {
                        StreamedComponent component;
                        component.sequence = sequence++;
                        component.vertices = std::move(ids);
                        sink.OnComponent(std::move(component));
                      });
  } catch (...) {
    // A deadline's JobCancelled (with partial stats) or any algorithm or
    // sink error: components delivered so far stay delivered.
    const std::exception_ptr error = std::current_exception();
    try {
      sink.OnError(error);
    } catch (...) {
      // OnError is informational; the first error is the one the caller
      // must see (same semantics as the engine path's FinishStreaming).
    }
    std::rethrow_exception(error);
  }
  sink.OnComplete(stats);
}

}  // namespace kvcc
