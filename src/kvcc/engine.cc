#include "kvcc/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace kvcc {

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
  std::shared_ptr<JobState> job = Launch(g, k, options, /*channel=*/nullptr);
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const JobId id = next_job_id_++;
  jobs_.emplace(id, std::move(job));
  return id;
}

ResultStream KvccEngine::SubmitStream(const Graph& g, std::uint32_t k,
                                      const KvccOptions& options) {
  // No ticket: the stream observes completion and errors through the
  // channel, and abandoning it cancels the job. Tasks keep the JobState
  // alive through their shared_ptr until the tree drains.
  auto channel = std::make_shared<internal::StreamChannel>();
  Launch(g, k, options, channel);
  return ResultStream(std::move(channel));
}

bool KvccEngine::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second->cancel.RequestCancel();
  return true;
}

std::shared_ptr<KvccEngine::JobState> KvccEngine::Launch(
    const Graph& g, std::uint32_t k, const KvccOptions& options,
    std::shared_ptr<internal::StreamChannel> channel) {
  if (k == 0) {
    throw std::invalid_argument("KvccEngine::Submit: k must be at least 1");
  }
  auto job = std::make_shared<JobState>();
  job->graph = &g;
  job->k = k;
  job->options = options;
  if (options.deadline_ms > 0) {
    // Armed before any task exists, so no synchronization is needed and
    // the budget covers queueing delay too (a deadline is an end-to-end
    // promise, not a compute budget).
    job->cancel.SetDeadline(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(options.deadline_ms));
  }
  job->priority = ToTaskPriority(options.priority);
  if (channel) {
    channel->limit = options.stream_buffer_limit;
    // The channel shares the job's cancel flag *before* the root task can
    // run, so abandonment observed at any point of the job's life reaches
    // every subsequent boundary check.
    channel->cancel = job->cancel;
    job->channel = std::move(channel);
  }
  job->pending.store(1, std::memory_order_relaxed);  // The root task.
  // Root tasks seed round-robin across the worker deques even when Submit
  // is called from inside a worker (e.g. a job spawned from a running
  // task): landing a new job behind the submitter's whole LIFO subtree
  // would let one huge job starve every small one.
  scheduler_.SubmitShared(
      [this, job](unsigned worker_id) {
        RunTask(job, internal::WorkItem{}, /*is_root=*/true, worker_id);
      },
      job->priority);
  return job;
}

void KvccEngine::RunTask(const std::shared_ptr<JobState>& job,
                         internal::WorkItem&& item, bool is_root,
                         unsigned worker_id) {
  // A buffered job keeps task-local accumulators: one lock acquisition per
  // task (below), not one per found component. A streaming job pushes each
  // component into its channel, under the channel's mutex alone, the
  // moment it commits.
  std::vector<std::vector<VertexId>> found;
  KvccStats stats;
  std::exception_ptr error;

  auto emit = [&](std::vector<VertexId> ids) {
    if (job->channel) {
      job->channel->Push(std::move(ids));
    } else {
      found.push_back(std::move(ids));
    }
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
  if (job->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last task of the tree: every task merged into the job above before its
  // pending decrement, so the reads below see all of them. The mutex
  // still orders the publication against a concurrent Wait().
  std::lock_guard<std::mutex> lock(job->mutex);
  internal::StreamChannel* channel = job->channel.get();
  bool delivery_dropped = false;
  if (channel != nullptr) {
    // Delivery diagnostics live in the channel, not in the task
    // accumulators; patch them into the counters the consumer sees.
    std::lock_guard<std::mutex> channel_lock(channel->mutex);
    job->stats.stream_backpressure_blocks = channel->backpressure_blocks;
    job->stats.stream_peak_buffered = channel->peak_queued;
    delivery_dropped = channel->dropped;
  }
  // A cancelled job (with no earlier real failure) reports JobCancelled,
  // carrying the merged partial stats, if the cancel cost it anything: a
  // task or cut cut short, or a component its full bounded channel could
  // not take. A token that latched only after every task had already run
  // to completion short-circuited nothing, and the documented contract is
  // that such a job returns its full result.
  if (!job->error && job->cancel.Cancelled() &&
      (delivery_dropped ||
       job->stats.tasks_cancelled + job->stats.cuts_cancelled > 0)) {
    job->error = std::make_exception_ptr(JobCancelled(
        "k-VCC job cancelled (explicit cancel, stream abandonment, "
        "or deadline)",
        job->stats));
  }
  if (channel != nullptr) {
    channel->Finish(job->stats, job->error);
    return;
  }
  std::sort(job->components.begin(), job->components.end());
  job->done = true;
  job->done_cv.notify_all();
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
