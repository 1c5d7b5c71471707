// KvccEngine: a long-lived batch execution engine for k-VCC enumeration.
//
// The paper's VCCE algorithm decomposes each (graph, k) request into many
// independent GLOBAL-CUT subproblems. One engine owns a single persistent
// work-stealing TaskScheduler plus one EnumScratch (flow probes, sparse
// certificate, sweep buffers) per worker; every submitted job's subproblem
// tasks interleave on that shared pool, so a server handling many requests
// keeps its workers and their scratch hot instead of paying scheduler
// spin-up and buffer allocation per call.
//
// The engine's worker count is the library's one parallel setting:
// EnumerateKVccs runs on the calling thread, and a caller that wants
// workers submits its job here.
//
// Determinism: each job's result is byte-identical to a serial
// EnumerateKVccs call on the same (graph, k, options) regardless of the
// engine's worker count, concurrent jobs, or submission order — subproblem
// tasks are pure functions of their input and each job's merged output is
// canonically sorted.
//
// Streaming: SubmitStream delivers each k-VCC the moment its subproblem
// commits instead of buffering until Wait(). The multiset of streamed
// components is byte-identical to the buffered result; the delivery order
// is completion order (see stream.h and docs/ARCHITECTURE.md).
//
// Job control (docs/JOB_CONTROL.md): every job carries a CancelToken —
// fired by Cancel(ticket), by abandoning the job's ResultStream, or by an
// elapsed KvccOptions::deadline_ms — that its tasks poll at recursion and
// probe/wavefront boundaries, so a cancelled job returns its workers
// within one probe batch instead of draining the remaining recursion;
// Wait() then throws JobCancelled with the partial stats.
// KvccOptions::stream_buffer_limit bounds a SubmitStream channel with
// blocking producer backpressure, and KvccOptions::priority places every
// task of a job in a latency class on the shared pool.
#ifndef KVCC_KVCC_ENGINE_H_
#define KVCC_KVCC_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/task_scheduler.h"
#include "kvcc/enum_internal.h"
#include "kvcc/job_control.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/stream.h"

/// \file
/// \brief KvccEngine: a long-lived batch engine serving many concurrent
/// (graph, k) jobs on one persistent work-stealing pool, with buffered
/// (Wait) and streaming (SubmitStream) result delivery.

namespace kvcc {

class VersionedGraph;
class IncrementalKvcc;
struct IncrementalOutcome;

/// \brief One (graph, k) request for KvccEngine::RunBatch.
///
/// The graph is borrowed: it must stay alive until the batch call returns.
struct EngineJobSpec {
  /// \brief The graph to decompose (borrowed, non-null).
  const Graph* graph = nullptr;
  /// \brief Connectivity parameter (>= 1).
  std::uint32_t k = 0;
  /// \brief Algorithm and job-control options for this job.
  KvccOptions options;
};

/// \brief Batch execution engine serving many concurrent (graph, k)
/// decomposition jobs on one persistent work-stealing worker pool.
class KvccEngine {
 public:
  /// \brief Ticket for a submitted job; pass to Wait() exactly once.
  using JobId = std::size_t;

  /// \brief Creates the engine and starts the persistent worker pool
  /// immediately.
  /// \param workers Worker count; 0 = one per hardware thread.
  explicit KvccEngine(unsigned workers = 0);

  /// \brief Drains any jobs still in flight, then joins the workers.
  /// Results of jobs never Wait()ed on are discarded.
  ~KvccEngine();

  /// \brief Engines are not copyable (they own threads and scratch).
  KvccEngine(const KvccEngine&) = delete;
  /// \brief Engines are not copyable (they own threads and scratch).
  KvccEngine& operator=(const KvccEngine&) = delete;

  /// \brief Number of worker threads serving this engine.
  /// \return The resolved worker count (>= 1).
  unsigned num_workers() const { return scheduler_.num_workers(); }

  /// \brief Enqueues one buffered job.
  ///
  /// Returns immediately; the job starts running on the shared pool right
  /// away, interleaved with every other in-flight job.
  /// \param g The graph to decompose; borrowed, must outlive the matching
  ///   Wait.
  /// \param k Connectivity parameter (>= 1).
  /// \param options Algorithm and job-control options.
  /// \return Ticket to pass to Wait() exactly once.
  /// \throws std::invalid_argument if k == 0.
  JobId Submit(const Graph& g, std::uint32_t k,
               const KvccOptions& options = {});

  /// \brief Enqueues one streaming job and returns a pull-style handle.
  ///
  /// The job's tasks push each component into the stream's channel as it
  /// commits. The job gets no ticket: completion, stats, and errors are
  /// all observed through the stream (Next() rethrows job errors), and
  /// destroying the stream mid-flight abandons the remaining components,
  /// fires the job's cancel token — so the remaining recursion
  /// short-circuits at the next task / probe boundary instead of
  /// draining (bookkeeping is still reclaimed normally) — and then joins
  /// the job, returning once its final task has retired. With
  /// options.stream_buffer_limit > 0 the channel is bounded: a producer
  /// that runs `limit` components ahead of Next() blocks until the
  /// consumer catches up, the stream is abandoned, or the job is
  /// cancelled. The stream must not outlive the engine.
  /// \param g The graph to decompose; borrowed, must stay alive until the
  ///   stream reports completion or is destroyed (abandonment joins the
  ///   job, so either event means no worker reads the graph anymore).
  /// \param k Connectivity parameter (>= 1).
  /// \param options Algorithm options (stream_buffer_limit bounds the
  ///   channel; deadline_ms arms a wall-clock budget; priority picks the
  ///   latency class).
  /// \return Stream handle delivering the job's components.
  /// \throws std::invalid_argument if k == 0.
  ResultStream SubmitStream(const Graph& g, std::uint32_t k,
                            const KvccOptions& options = {});

  /// \brief Requests cooperative cancellation of job `id`.
  ///
  /// Returns immediately; the job's tasks observe the token at their next
  /// recursion-task or probe/wavefront boundary, short-circuit the
  /// remaining work, and the job completes with the JobCancelled outcome
  /// — Wait(id) (still required, and still the ticket's one consumer)
  /// throws JobCancelled carrying the partial stats of the work that ran.
  /// A job that completes before observing the token returns its full
  /// result normally — cancellation is best-effort by design.
  /// \param id Ticket from Submit (SubmitStream jobs have no ticket; they
  ///   are cancelled by abandoning their stream).
  /// \return True if the ticket was live — job in flight, unclaimed, or
  ///   currently blocked in another thread's Wait(id) (the watchdog
  ///   pattern: Cancel unsticks the waiter); false once that Wait has
  ///   returned, or for unknown ids.
  bool Cancel(JobId id);

  /// \brief Blocks until job `id` completes and returns its result
  /// (components canonically sorted, stats totals equal to the serial
  /// run's).
  ///
  /// If the job failed, rethrows its first recorded exception. Waiting
  /// consumes the ticket and reclaims the job's bookkeeping — a
  /// long-lived engine holds state only for in-flight and not-yet-waited
  /// jobs — so each id is valid for exactly one Wait.
  /// \param id Ticket from Submit.
  /// \return The job's result.
  /// \throws std::out_of_range on an unknown or already-consumed id.
  /// \throws JobCancelled if the job was cancelled (Cancel, deadline_ms)
  ///   and no other failure was recorded first; carries the partial
  ///   stats of the work that ran.
  KvccResult Wait(JobId id);

  /// \brief Convenience: submits every spec, waits for all, and returns
  /// results in spec order. Equivalent to per-call EnumerateKVccs
  /// output-wise.
  ///
  /// Every job is waited out (and its bookkeeping reclaimed) even when
  /// one fails: the first failure — including a JobCancelled from a
  /// per-spec deadline_ms — is rethrown only after the whole batch has
  /// drained. Callers that need per-job outcomes (e.g. "skip cancelled
  /// jobs, keep the rest") should Submit and Wait individually, as the
  /// CLI's batch mode does.
  /// \param jobs The specs to run (graphs borrowed for the call).
  /// \return One result per spec, in spec order.
  /// \throws std::invalid_argument if any spec's graph is null or its k
  ///   is 0, after the jobs already submitted are cancelled and waited
  ///   out.
  /// \throws JobCancelled (or the job's own first error) for the first
  ///   failed job, after all jobs finished.
  std::vector<KvccResult> RunBatch(const std::vector<EngineJobSpec>& jobs);

  /// \brief Catches an incremental decomposition state up to a
  /// VersionedGraph's current version, running every dirty-region
  /// re-enumeration (across all levels) as one batch on this engine's
  /// pool.
  ///
  /// Equivalent to state.Update(graph, this) — see
  /// IncrementalKvcc::Update (kvcc/incremental.h) for the dirty-region
  /// contract; the patched hierarchy is byte-identical to a cold build
  /// on the materialized graph at every worker count.
  /// \param state The incremental state to advance (caller-serialized).
  /// \param graph The versioned graph to catch up to.
  /// \return Counters describing the work done.
  IncrementalOutcome SubmitIncremental(IncrementalKvcc& state,
                                       const VersionedGraph& graph);

 private:
  struct JobState {
    const Graph* graph = nullptr;
    std::uint32_t k = 0;
    KvccOptions options;
    // Ticket already claimed by a Wait() (guarded by jobs_mutex_). The
    // table entry outlives the claim so Cancel() can still reach a job
    // someone is blocked waiting on; it is erased when that Wait returns.
    bool claimed = false;
    // Cooperative cancel flag shared with Cancel(), the job's stream
    // channel (abandonment), and the deadline armed at submission; every
    // task and GLOBAL-CUT of this job polls it.
    CancelToken cancel;
    // Latency class every task of this job carries on the shared pool.
    exec::TaskPriority priority = exec::TaskPriority::kNormal;

    // Unfinished tasks of this job's recursion tree; incremented before a
    // child is submitted, decremented when its task finishes, so reaching
    // zero proves the whole tree (and every merge into the accumulators
    // below) is done.
    std::atomic<std::size_t> pending{0};

    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<std::vector<VertexId>> components;  // buffered mode only
    KvccStats stats;
    std::exception_ptr error;
    bool done = false;  // buffered mode only

    // A SubmitStream job's delivery channel (null for a buffered job): its
    // tasks push components here, and its last task publishes the outcome
    // here. Lock order: mutex before channel->mutex, never the reverse.
    std::shared_ptr<internal::StreamChannel> channel;
  };

  // Builds a job (channel may be null: buffered) and enqueues its root
  // task. Throws std::invalid_argument if k == 0.
  std::shared_ptr<JobState> Launch(
      const Graph& g, std::uint32_t k, const KvccOptions& options,
      std::shared_ptr<internal::StreamChannel> channel);
  void RunTask(const std::shared_ptr<JobState>& job,
               internal::WorkItem&& item, bool is_root, unsigned worker_id);

  // One per worker. A worker's tasks use its entry alone; between them,
  // GLOBAL-CUT fork-joins of other workers borrow its cut_scratch through
  // cut_pool_ (src/kvcc/global_cut.h says why that is safe).
  std::vector<internal::EnumScratch> scratch_;
  std::mutex jobs_mutex_;
  // Live tickets only: a returning Wait() frees its entry (and stream jobs
  // never enter the table), so it holds in-flight / unclaimed /
  // being-waited-on jobs, not the full submission history — keeping an
  // entry until its Wait *returns* is what lets Cancel() reach a job
  // another thread is blocked waiting on. Tasks share ownership of their
  // JobState, so erasing an entry while the job runs is safe — the state
  // dies with its last task.
  std::unordered_map<JobId, std::shared_ptr<JobState>> jobs_;
  JobId next_job_id_ = 0;
  exec::TaskScheduler scheduler_;
  // scheduler_ and each worker's scratch_[w].cut_scratch, handed to every
  // GLOBAL-CUT the engine runs.
  GlobalCutPool cut_pool_;
};

}  // namespace kvcc

#endif  // KVCC_KVCC_ENGINE_H_
