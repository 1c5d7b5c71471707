// Streaming result delivery for k-VCC enumeration.
//
// The VCCE recursion (paper Algorithm 1) emits each k-VCC the moment its
// recursion branch bottoms out, but KvccEngine::Wait buffers the whole
// component set until the last subtree finishes. A ResultStream lets a
// consumer observe components as they commit instead:
// KvccEngine::SubmitStream returns an iterator-like handle whose Next()
// blocks for the next component. The job's tasks push each component
// straight into the stream's channel; no caller code runs on a worker.
//
// Delivery contract (enforced by tests/engine_test.cc): the multiset of
// streamed components is byte-identical to the KvccResult::components a
// Wait() on the same (graph, k, options) would return, for every worker
// count. Components arrive in completion order, which depends on the
// worker count and the interleaving; callers that need a canonical order
// sort, as Wait() does.
#ifndef KVCC_KVCC_STREAM_H_
#define KVCC_KVCC_STREAM_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "kvcc/job_control.h"
#include "kvcc/stats.h"

/// \file
/// \brief Streaming result delivery: a ResultStream observes each k-VCC
/// the moment its subproblem commits, instead of buffering until
/// KvccEngine::Wait.

namespace kvcc {

/// \brief One k-VCC delivered through a streaming channel.
struct StreamedComponent {
  /// \brief Per-job delivery index: 0 for the first component a job
  /// delivers, then 1, 2, ... with no gaps.
  std::uint64_t sequence = 0;

  /// \brief The component's vertex ids in the input graph's id space,
  /// sorted ascending — the same bytes Wait() would have returned for
  /// this component.
  std::vector<VertexId> vertices;
};

namespace internal {

/// Shared state between a SubmitStream job's tasks (the producer) and its
/// ResultStream (the consumer). Unbounded by default: undelivered
/// components occupy the same memory a buffered Wait() would have held.
/// With `limit` > 0 (KvccOptions::stream_buffer_limit) the queue is
/// bounded: a push blocks while it is full, until the consumer pops, the
/// stream is abandoned, or the job's cancel token fires — so a slow
/// consumer pins at most `limit` undelivered components instead of the
/// whole result set.
struct StreamChannel {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<StreamedComponent> queue;
  bool complete = false;   // producer finished (stats or error valid)
  bool abandoned = false;  // consumer gone; drop further pushes
  KvccStats stats;
  std::exception_ptr error;

  // --- job control (set by the engine before the job's root task runs) ---
  std::size_t limit = 0;  // 0 = unbounded
  CancelToken cancel;     // shares the job's flag; Abandon() requests it

  // --- producer side ---
  std::uint64_t next_sequence = 0;
  // A push found the job cancelled with the bounded queue still full and
  // dropped its component, so the job must not complete cleanly.
  bool dropped = false;
  // Delivery diagnostics, patched into the job's final stats.
  std::uint64_t backpressure_blocks = 0;
  std::uint64_t peak_queued = 0;

  /// Delivers one component with the next sequence number (called by the
  /// job's tasks). On a full bounded queue it waits; if the job is
  /// cancelled while the queue is still full, the component is dropped
  /// and `dropped` set. Pushes after abandonment are dropped silently.
  void Push(std::vector<VertexId> vertices);

  /// Publishes the job's outcome — `failure`, or else `final_stats` — and
  /// wakes the consumer and a joining Abandon(). Called once, by the job's
  /// last task, after every Push.
  void Finish(const KvccStats& final_stats, std::exception_ptr failure);
};

}  // namespace internal

/// \brief Pull-style handle to one streaming job
/// (see KvccEngine::SubmitStream).
///
/// Next() blocks until the next component commits; after it returns
/// std::nullopt the job is finished and Stats() is valid. Destroying a
/// stream mid-flight *abandons* it: undelivered components are discarded
/// and the job's cancel token is requested, so its remaining recursion
/// short-circuits at the next task / probe boundary and the workers
/// return promptly instead of draining the whole tree (the partial
/// bookkeeping is still reclaimed normally). Abandonment then joins the
/// job — it blocks until the final task has retired — so once the stream
/// is gone the caller may destroy the graph it submitted: a detached
/// SubmitStream job reads that graph in place, and the join is what
/// makes the detachment memory-safe. A stream must not outlive its
/// engine.
class ResultStream {
 public:
  /// \brief Streams are movable but not copyable (one consumer per job).
  ResultStream(ResultStream&&) noexcept = default;
  /// \brief Move assignment; the overwritten stream is abandoned.
  ResultStream& operator=(ResultStream&&) noexcept;
  /// \brief Streams are not copyable (one consumer per job).
  ResultStream(const ResultStream&) = delete;
  /// \brief Streams are not copyable (one consumer per job).
  ResultStream& operator=(const ResultStream&) = delete;

  /// \brief Abandons the stream if it was not fully drained (see class
  /// comment): cancels the job and joins it, blocking until its final
  /// task retires so the submitted graph may be destroyed afterwards.
  ~ResultStream();

  /// \brief Blocks until the next component is available and returns it;
  /// returns std::nullopt once the job has completed and every component
  /// has been delivered.
  /// \return The next component in delivery order, or std::nullopt at
  ///   end of stream.
  /// \throws Whatever the job failed with (first recorded exception),
  ///   after the components delivered so far. A job cancelled by
  ///   KvccOptions::deadline_ms surfaces here as JobCancelled (with the
  ///   partial stats of the work that ran).
  std::optional<StreamedComponent> Next();

  /// \brief Components currently buffered in the channel (delivered by
  /// the job but not yet returned by Next()). With
  /// KvccOptions::stream_buffer_limit > 0 this never exceeds the limit —
  /// the producer blocks instead.
  /// \return The instantaneous undelivered-component count.
  std::size_t BufferedComponents() const;

  /// \brief Deliveries that have blocked on the full bounded channel so
  /// far (live view of what KvccStats::stream_backpressure_blocks will
  /// report at completion). Monitoring hook: a consumer watching this
  /// grow knows it is the bottleneck while the job still runs.
  /// \return The running backpressure-block count.
  std::uint64_t BackpressureBlocks() const;

  /// \brief The job's final merged counters.
  /// \return Reference valid for the stream's lifetime.
  /// \throws std::logic_error if the stream has not finished yet (call
  ///   Next() until it returns std::nullopt first); rethrows the job's
  ///   recorded error if it finished by failing (a failed job has no
  ///   final stats).
  const KvccStats& Stats() const;

 private:
  friend class KvccEngine;
  explicit ResultStream(std::shared_ptr<internal::StreamChannel> channel);

  void Abandon();

  std::shared_ptr<internal::StreamChannel> channel_;
};

}  // namespace kvcc

#endif  // KVCC_KVCC_STREAM_H_
