// Job control primitives for the k-VCC serving surface.
//
// A production engine needs more than "submit and wait": a caller that
// abandons a stream, hits a deadline, or explicitly cancels must get its
// worker threads back *now*, not after the remaining recursion drains.
// The contract here is cooperative: a CancelToken is shared between the
// caller side (KvccEngine::Cancel, ResultStream abandonment, the
// KvccOptions::deadline_ms timer) and the execution side, which checks it
// at recursion-task boundaries (KvccEngine::RunTask) and inside GLOBAL-CUT
// at every flow-probe / wavefront-batch boundary — the two granularities
// that bound time-to-worker-return by one task prologue or one probe
// batch, whichever is in flight.
//
// A cancelled job finishes by reporting JobCancelled (thrown by Wait(),
// rethrown by ResultStream::Next) carrying the stats of the work that
// *did* run. docs/JOB_CONTROL.md has
// the full map of triggers and cancellation points.
#ifndef KVCC_KVCC_JOB_CONTROL_H_
#define KVCC_KVCC_JOB_CONTROL_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "exec/task_scheduler.h"
#include "kvcc/options.h"
#include "kvcc/stats.h"

/// \file
/// \brief Cooperative job control: CancelToken (explicit cancel, stream
/// abandonment, deadlines) and the JobCancelled outcome it produces.

namespace kvcc {

/// \brief Maps a job's latency class to the scheduler's task class.
///
/// Every task a job puts on the pool — root, spawned subproblems, and
/// the helper stubs of its intra-cut wavefronts — carries this class, so
/// the whole recursion inherits the job's priority.
/// \param priority The job-level class from KvccOptions::priority.
/// \return The matching scheduler class.
inline exec::TaskPriority ToTaskPriority(JobPriority priority) {
  switch (priority) {
    case JobPriority::kInteractive:
      return exec::TaskPriority::kInteractive;
    case JobPriority::kBulk:
      return exec::TaskPriority::kBulk;
    case JobPriority::kNormal:
      break;
  }
  return exec::TaskPriority::kNormal;
}

/// \brief Shared cooperative-cancellation handle for one job.
///
/// Copies of a token share one flag: any copy's RequestCancel() (or an
/// elapsed deadline) makes every copy's Cancelled() return true. The
/// execution side polls Cancelled() at recursion-task and probe/wavefront
/// boundaries and unwinds by throwing JobCancelled; cancellation is
/// therefore cooperative — it never interrupts a flow probe or a sink
/// call already in progress, it short-circuits the next one.
class CancelToken {
 public:
  /// \brief Creates a fresh token: not cancelled, no deadline.
  CancelToken();

  /// \brief Arms a deadline: Cancelled() latches to true once the steady
  /// clock passes `deadline`.
  ///
  /// Call before the token is shared with running tasks (the engine arms
  /// it at submission, before the root task is enqueued); the deadline is
  /// not synchronized for later rearming.
  /// \param deadline Absolute steady-clock expiry time.
  void SetDeadline(std::chrono::steady_clock::time_point deadline);

  /// \brief Requests cancellation. Thread-safe, idempotent, never blocks.
  void RequestCancel() noexcept;

  /// \brief True once cancellation was requested or the armed deadline
  /// elapsed (latching: never reverts to false). Thread-safe; cheap
  /// enough to poll per flow probe.
  /// \return Whether the job should stop as soon as it can.
  bool Cancelled() const noexcept;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    // Written only before the token is shared (see SetDeadline).
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };
  std::shared_ptr<State> state_;
};

/// \brief The outcome of a cancelled job: thrown by KvccEngine::Wait and
/// the serial EnumerateKVccs family, and rethrown by ResultStream::Next.
///
/// Distinct from algorithm failures: a cancelled job ran correctly as far
/// as it got, so the exception carries the counters of the work that did
/// execute (partial_stats()). A job that failed *and* was cancelled
/// reports the failure — cancellation is only the outcome when nothing
/// else went wrong.
class JobCancelled : public std::runtime_error {
 public:
  /// \brief Builds the outcome.
  /// \param what Human-readable reason (which trigger fired, if known).
  /// \param partial Counters accumulated before the job stopped. Engine
  ///   jobs report the merge of every task that ran; the deep-unwind
  ///   instances thrown inside GLOBAL-CUT carry empty stats and are
  ///   re-wrapped with the real partials before reaching the caller.
  explicit JobCancelled(const std::string& what, KvccStats partial = {});

  /// \brief Counters of the work that ran before cancellation took
  /// effect. Cancellation diagnostics included (KvccStats::tasks_cancelled,
  /// cuts_cancelled).
  /// \return The partial counters, valid for the exception's lifetime.
  const KvccStats& partial_stats() const { return partial_; }

 private:
  KvccStats partial_;
};

}  // namespace kvcc

#endif  // KVCC_KVCC_JOB_CONTROL_H_
