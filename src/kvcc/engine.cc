#include "kvcc/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace kvcc {

namespace {

/// Producer side of a SubmitStream channel: forwards deliveries into the
/// shared StreamChannel, dropping them once the consumer abandoned it.
/// With channel->limit > 0 the queue is bounded: a delivery that would
/// overfill it blocks (backpressure) until the consumer pops, the stream
/// is abandoned, or the job's cancel token fires.
class ChannelSink : public ComponentSink {
 public:
  explicit ChannelSink(std::shared_ptr<internal::StreamChannel> channel)
      : channel_(std::move(channel)) {}

  void OnComponent(StreamedComponent component) override {
    std::unique_lock<std::mutex> lock(channel_->mutex);
    if (channel_->limit != 0 &&
        channel_->queue.size() >= channel_->limit) {
      ++channel_->backpressure_blocks;
      // The timed wait doubles as the deadline poll: an elapsed
      // KvccOptions::deadline_ms latches the token but notifies no
      // condition variable, so the producer must look for itself.
      while (channel_->queue.size() >= channel_->limit &&
             !channel_->abandoned && !channel_->cancel.Cancelled()) {
        channel_->cv.wait_for(lock, std::chrono::milliseconds(10));
      }
    }
    if (channel_->abandoned) return;
    if (channel_->limit != 0 &&
        channel_->queue.size() >= channel_->limit) {
      // Cancelled while the channel is still full: this component cannot
      // be delivered without violating the bound, and silently dropping
      // it would let a job whose every other boundary check passed
      // complete "cleanly" with a missing component. Poison the job
      // instead (the standard throwing-sink path), so the stream reports
      // JobCancelled rather than a silently incomplete success.
      throw JobCancelled(
          "stream delivery cancelled with the bounded channel full");
    }
    channel_->queue.push_back(std::move(component));
    channel_->peak_queued = std::max<std::uint64_t>(
        channel_->peak_queued, channel_->queue.size());
    channel_->cv.notify_all();
  }

  void OnComplete(const KvccStats& stats) override {
    std::lock_guard<std::mutex> lock(channel_->mutex);
    channel_->stats = stats;
    // Channel-side delivery diagnostics live here, not in the job's task
    // accumulators; patch them into the final counters the consumer sees.
    channel_->stats.stream_backpressure_blocks +=
        channel_->backpressure_blocks;
    channel_->stats.stream_peak_buffered = std::max(
        channel_->stats.stream_peak_buffered, channel_->peak_queued);
    channel_->complete = true;
    channel_->cv.notify_all();
  }

  void OnError(std::exception_ptr error) override {
    std::lock_guard<std::mutex> lock(channel_->mutex);
    // A cancelled job is the outcome most likely to have backpressured;
    // rewrap its partial stats with the channel-side diagnostics so the
    // JobCancelled that Next() rethrows reports them. Other failures
    // carry no final stats, so there is nothing to patch.
    try {
      std::rethrow_exception(error);
    } catch (const JobCancelled& cancelled) {
      KvccStats partial = cancelled.partial_stats();
      partial.stream_backpressure_blocks += channel_->backpressure_blocks;
      partial.stream_peak_buffered = std::max(
          partial.stream_peak_buffered, channel_->peak_queued);
      error = std::make_exception_ptr(
          JobCancelled(cancelled.what(), std::move(partial)));
    } catch (...) {
    }
    channel_->error = std::move(error);
    channel_->complete = true;
    channel_->cv.notify_all();
  }

 private:
  std::shared_ptr<internal::StreamChannel> channel_;
};

}  // namespace

KvccEngine::KvccEngine(unsigned workers)
    : scratch_(exec::ResolveThreadCount(workers)),
      scheduler_(exec::ResolveThreadCount(workers)) {
  cut_pool_.scheduler = &scheduler_;
  cut_pool_.worker_scratch.reserve(scratch_.size());
  for (internal::EnumScratch& worker : scratch_) {
    cut_pool_.worker_scratch.push_back(&worker.cut_scratch);
  }
  scheduler_.Start();
}

KvccEngine::~KvccEngine() { scheduler_.Stop(); }

KvccEngine::JobId KvccEngine::Submit(const Graph& g, std::uint32_t k,
                                     const KvccOptions& options) {
  return SubmitJob(g, k, options, /*sink=*/nullptr, CancelToken{});
}

KvccEngine::JobId KvccEngine::SubmitStreaming(
    const Graph& g, std::uint32_t k, std::shared_ptr<ComponentSink> sink,
    const KvccOptions& options) {
  if (!sink) {
    throw std::invalid_argument(
        "KvccEngine::SubmitStreaming: sink must be non-null");
  }
  return SubmitJob(g, k, options, std::move(sink), CancelToken{});
}

ResultStream KvccEngine::SubmitStream(const Graph& g, std::uint32_t k,
                                      const KvccOptions& options) {
  auto channel = std::make_shared<internal::StreamChannel>();
  channel->limit = options.stream_buffer_limit;
  // The channel shares the job's cancel flag *before* the root task can
  // run, so abandonment observed at any point of the job's life reaches
  // every subsequent boundary check.
  CancelToken cancel;
  channel->cancel = cancel;
  const JobId id = SubmitJob(g, k, options,
                             std::make_shared<ChannelSink>(channel),
                             std::move(cancel));
  {
    // Detach: the stream observes completion (and errors) through the
    // channel, so the Wait table must not hold the job hostage — and an
    // abandoned stream must not leak an unclaimable ticket. Tasks keep
    // the JobState alive through their shared_ptr until the tree drains.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(id);
  }
  return ResultStream(std::move(channel));
}

bool KvccEngine::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second->cancel.RequestCancel();
  return true;
}

KvccEngine::JobId KvccEngine::SubmitJob(const Graph& g, std::uint32_t k,
                                        const KvccOptions& options,
                                        std::shared_ptr<ComponentSink> sink,
                                        CancelToken cancel) {
  if (k == 0) {
    throw std::invalid_argument("KvccEngine::Submit: k must be at least 1");
  }
  if (options.deadline_ms > 0) {
    // Armed before any task exists, so no synchronization is needed and
    // the budget covers queueing delay too (a deadline is an end-to-end
    // promise, not a compute budget).
    cancel.SetDeadline(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options.deadline_ms));
  }
  auto state = std::make_shared<JobState>();
  state->graph = &g;
  state->k = k;
  state->options = options;
  state->cancel = std::move(cancel);
  state->priority = ToTaskPriority(options.priority);
  state->sink = std::move(sink);
  state->pending.store(1, std::memory_order_relaxed);  // The root task.
  std::shared_ptr<JobState> job = state;
  JobId id;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    id = next_job_id_++;
    jobs_.emplace(id, std::move(state));
  }
  // Root tasks seed round-robin across the worker deques even when Submit
  // is called from inside a worker (e.g. a job spawned from a running
  // task): landing a new job behind the submitter's whole LIFO subtree
  // would let one huge job starve every small one.
  const exec::TaskPriority priority = job->priority;
  scheduler_.SubmitShared(
      [this, job = std::move(job)](unsigned worker_id) {
        RunTask(job, internal::WorkItem{}, /*is_root=*/true, worker_id);
      },
      priority);
  return id;
}

void KvccEngine::DeliverLocked(JobState* job, std::vector<VertexId> ids) {
  if (job->delivery_suppressed) return;
  StreamedComponent component;
  component.sequence = job->next_sequence++;
  component.vertices = std::move(ids);
  try {
    job->sink->OnComponent(std::move(component));
  } catch (...) {
    // A throwing sink poisons the job exactly like a failing subproblem:
    // stop delivering, let the tree drain, surface the error at the end.
    job->delivery_suppressed = true;
    std::lock_guard<std::mutex> lock(job->mutex);
    if (!job->error) job->error = std::current_exception();
  }
}

void KvccEngine::FinishStreaming(JobState* job) {
  std::lock_guard<std::mutex> lock(job->emit_mutex);
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> job_lock(job->mutex);
    error = job->error;
  }
  if (error) {
    try {
      job->sink->OnError(error);
    } catch (...) {
      // The job already failed; a throwing OnError has nothing further
      // to add. Wait() rethrows the original error.
    }
  } else {
    try {
      // Safe to read without job->mutex: every task merged its stats
      // (under the mutex) before the final pending decrement that led
      // here, and acq_rel on that counter orders the merges before us.
      job->sink->OnComplete(job->stats);
    } catch (...) {
      std::lock_guard<std::mutex> job_lock(job->mutex);
      if (!job->error) job->error = std::current_exception();
    }
  }
}

void KvccEngine::RunTask(const std::shared_ptr<JobState>& job,
                         internal::WorkItem&& item, bool is_root,
                         unsigned worker_id) {
  const bool streaming = job->sink != nullptr;
  // Buffered mode keeps task-local accumulators: one lock acquisition per
  // task (below), not one per found component. Streaming mode delivers
  // each component under the job's emit mutex the moment it commits.
  std::vector<std::vector<VertexId>> found;
  KvccStats stats;
  std::exception_ptr error;

  auto emit = [&](std::vector<VertexId> ids) {
    if (!streaming) {
      found.push_back(std::move(ids));
      return;
    }
    std::lock_guard<std::mutex> lock(job->emit_mutex);
    DeliverLocked(job.get(), std::move(ids));
  };

  auto spawn = [&](internal::WorkItem&& child) {
    // Count the child before it can possibly run and finish, so
    // `pending` can never dip to zero while work remains.
    job->pending.fetch_add(1, std::memory_order_relaxed);
    scheduler_.Submit(
        [this, job, moved = std::move(child)](unsigned w) mutable {
          RunTask(job, std::move(moved), /*is_root=*/false, w);
        },
        job->priority);
  };

  // Task-boundary cancellation check: a cancelled job's queued tasks each
  // start, observe the token, and retire in O(1) — the pool drains the
  // tree's *bookkeeping* without processing any further subgraph (and
  // GLOBAL-CUT polls the same token at its probe/wavefront boundaries for
  // the task already in flight).
  if (job->cancel.Cancelled()) {
    ++stats.tasks_cancelled;
  } else {
    try {
      internal::ProcessItem(std::move(item), is_root ? job->graph : nullptr,
                            job->k, job->options, scratch_[worker_id], stats,
                            &cut_pool_, &job->cancel, emit, spawn);
    } catch (const JobCancelled&) {
      // Cooperative unwind from inside GLOBAL-CUT; the token is already
      // latched, so every remaining task short-circuits above, and the
      // final task reports the JobCancelled outcome with merged partials
      // (a deep-unwind instance carries none).
    } catch (...) {
      // A failing subproblem poisons only its own job: record the first
      // exception for Wait() to rethrow; sibling tasks (already spawned
      // children included) still run to completion so `pending` drains.
      error = std::current_exception();
    }
  }

  {
    std::lock_guard<std::mutex> lock(job->mutex);
    for (std::vector<VertexId>& component : found) {
      job->components.push_back(std::move(component));
    }
    job->stats.Add(stats);
    if (error && !job->error) job->error = error;
  }
  if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the tree. A cancelled job (with no earlier real
    // failure) reports the JobCancelled outcome, carrying the merged
    // partial stats — every task's merge happened before its pending
    // decrement, so the read below sees all of them. The counters also
    // gate the report: a token that latched only after every task had
    // already run to completion short-circuited nothing, and the
    // documented contract is that such a job returns its full result.
    if (job->cancel.Cancelled()) {
      std::lock_guard<std::mutex> lock(job->mutex);
      if (!job->error &&
          job->stats.tasks_cancelled + job->stats.cuts_cancelled > 0) {
        job->error = std::make_exception_ptr(JobCancelled(
            "k-VCC job cancelled (explicit cancel, stream abandonment, "
            "or deadline)",
            job->stats));
      } else if (job->error) {
        // A JobCancelled recorded mid-flight (e.g. the bounded channel's
        // cancelled-while-full delivery) carries no counters; rewrap it
        // with the merged partials now that every task has reported.
        try {
          std::rethrow_exception(job->error);
        } catch (const JobCancelled& cancelled) {
          job->error = std::make_exception_ptr(
              JobCancelled(cancelled.what(), job->stats));
        } catch (...) {
        }
      }
    }
    // Streaming jobs close out the sink before the done flag is
    // published, so a Wait()er observes delivery fully finished.
    if (streaming) FinishStreaming(job.get());
    // No other thread touches the accumulators anymore, but the mutex
    // still orders the publication against a concurrent Wait().
    std::lock_guard<std::mutex> lock(job->mutex);
    std::sort(job->components.begin(), job->components.end());
    job->done = true;
    job->done_cv.notify_all();
  }
}

KvccResult KvccEngine::Wait(JobId id) {
  // Claim the ticket up front (one Wait per id), but leave the table
  // entry in place until the job finishes: a Cancel() racing with a
  // blocked Wait must still find the job — the watchdog pattern is
  // "thread A waits, thread B cancels to unstick it". The entry is
  // erased once the wait is over, so a completed-and-returned job holds
  // no engine state. Destruction is safe after `done` — the final task's
  // notify happens under the job mutex, so reacquiring it in the wait
  // proves no task touches the state anymore.
  std::shared_ptr<JobState> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->claimed) {
      throw std::out_of_range(
          "KvccEngine::Wait: unknown or already-consumed job id");
    }
    it->second->claimed = true;
    job = it->second;
  }
  KvccResult result;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&] { return job->done; });
    error = job->error;
    if (!error) {
      result.components = std::move(job->components);
      result.stats = job->stats;
    }
  }
  {
    // Ticket fully consumed: from here Cancel(id) reports false.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(id);
  }
  if (error) std::rethrow_exception(error);
  return result;
}

std::vector<KvccResult> KvccEngine::RunBatch(
    const std::vector<EngineJobSpec>& jobs) {
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  try {
    for (const EngineJobSpec& spec : jobs) {
      if (spec.graph == nullptr) {
        throw std::invalid_argument("KvccEngine::RunBatch: null graph");
      }
      ids.push_back(Submit(*spec.graph, spec.k, spec.options));
    }
  } catch (...) {
    // A spec that cannot be submitted must not strand the jobs already
    // running (tickets the caller never receives, tasks reading graphs it
    // may free once the error reaches it): cancel and reclaim them first.
    for (JobId id : ids) Cancel(id);
    for (JobId id : ids) {
      try {
        Wait(id);
      } catch (...) {
        // The caller gets the submit error, not these cancellations.
      }
    }
    throw;
  }
  std::vector<KvccResult> results;
  results.reserve(ids.size());
  // Wait out *every* job before surfacing a failure: throwing at the
  // first bad job would strand the later tickets un-Waited (their
  // bookkeeping held until engine destruction) with ids the caller never
  // received. The first failure — including a JobCancelled from a
  // per-spec deadline — is rethrown once the whole batch is reclaimed;
  // callers that want per-job outcomes should Submit/Wait themselves.
  std::exception_ptr first_error;
  for (JobId id : ids) {
    try {
      results.push_back(Wait(id));
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace kvcc
