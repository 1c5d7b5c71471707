#include "kvcc/kvcc_enum.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "kvcc/enum_internal.h"
#include "kvcc/job_control.h"

namespace kvcc {

namespace {

/// Arms `token` from options.deadline_ms and returns it as the cancel
/// pointer the serial loop polls (null when no deadline is set — the
/// serial path has no other cancellation trigger).
const CancelToken* ArmDeadline(const KvccOptions& options,
                               CancelToken& token) {
  if (options.deadline_ms == 0) return nullptr;
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options.deadline_ms));
  return &token;
}

/// The serial recursion behind EnumerateKVccs: an explicit LIFO stack run
/// on the calling thread. Returns every component, unsorted, and the
/// run's stats. When options.deadline_ms elapses, throws
/// JobCancelled("EnumerateKVccs: deadline elapsed") carrying the partial
/// stats.
KvccResult RunSerial(const Graph& g, std::uint32_t k,
                     const KvccOptions& options) {
  internal::EnumScratch scratch;
  CancelToken deadline_token;
  const CancelToken* cancel = ArmDeadline(options, deadline_token);
  KvccResult result;
  auto emit = [&result](std::vector<VertexId> ids) {
    result.components.push_back(std::move(ids));
  };
  std::vector<internal::WorkItem> stack;
  auto spawn = [&stack](internal::WorkItem&& child) {
    stack.push_back(std::move(child));
  };
  try {
    internal::ProcessItem(internal::WorkItem{}, &g, k, options, scratch,
                          result.stats, /*pool=*/nullptr, cancel, emit,
                          spawn);
    while (!stack.empty()) {
      // Task-boundary check: the remaining stack is never processed.
      if (cancel != nullptr && cancel->Cancelled()) {
        throw JobCancelled("EnumerateKVccs: deadline elapsed");
      }
      internal::WorkItem item = std::move(stack.back());
      stack.pop_back();
      internal::ProcessItem(std::move(item), nullptr, k, options, scratch,
                            result.stats, /*pool=*/nullptr, cancel, emit,
                            spawn);
    }
  } catch (const JobCancelled& cancelled) {
    // Attach the partial counters (a mid-GLOBAL-CUT unwind carries none)
    // and account the stack items the unwind left unprocessed.
    result.stats.tasks_cancelled += stack.size();
    throw JobCancelled(cancelled.what(), result.stats);
  }
  return result;
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
  KvccResult result = RunSerial(g, k, options);
  std::sort(result.components.begin(), result.components.end());
  return result;
}

}  // namespace kvcc
