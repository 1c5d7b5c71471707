#include "exec/task_scheduler.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace kvcc::exec {
namespace {

/// Worker id of the current thread while inside WorkerLoop; -1 elsewhere.
/// Lets Submit route child tasks to the spawning worker's own deque.
thread_local int tls_worker_id = -1;

/// The scheduler the current thread is a worker of; null elsewhere. A
/// worker id is only meaningful relative to its own scheduler — ParallelFor
/// on scheduler A called from a worker of scheduler B must treat the caller
/// as external, or its slot could collide with one of A's helpers.
thread_local const TaskScheduler* tls_scheduler = nullptr;

}  // namespace

unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

TaskScheduler::TaskScheduler(unsigned num_workers) {
  if (num_workers == 0) num_workers = 1;
  queues_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
}

TaskScheduler::~TaskScheduler() { Stop(); }

void TaskScheduler::Enqueue(Task task, TaskPriority priority, bool shared) {
  unsigned target;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++outstanding_;
    const int self = tls_worker_id;
    if (!shared && tls_scheduler == this && self >= 0 &&
        static_cast<unsigned>(self) < queues_.size()) {
      target = static_cast<unsigned>(self);
    } else {
      target = next_seed_queue_++ % num_workers();
    }
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks[static_cast<unsigned>(priority)].push_back(
        std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++submit_seq_;  // After the push: sleepers re-scan once they see it.
  }
  wake_cv_.notify_one();
}

void TaskScheduler::Submit(Task task, TaskPriority priority) {
  Enqueue(std::move(task), priority, false);
}

void TaskScheduler::SubmitShared(Task task, TaskPriority priority) {
  Enqueue(std::move(task), priority, true);
}

std::uint64_t TaskScheduler::ApproxOutstanding() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return outstanding_;
}

void TaskScheduler::ParallelFor(
    std::size_t count,
    const std::function<void(std::size_t index, unsigned slot)>& body,
    TaskPriority priority) {
  const unsigned caller_slot =
      (tls_scheduler == this && tls_worker_id >= 0)
          ? static_cast<unsigned>(tls_worker_id)
          : num_workers();
  if (count <= 1 || num_workers() == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i, caller_slot);
    return;
  }

  // Shared by the caller and the helper stubs. Heap-owned so a stub that
  // runs after the caller already returned (every index long claimed) finds
  // dead-but-valid state instead of a dangling stack frame; such a straggler
  // sees next >= count and exits without ever touching `body`.
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t completed = 0;
    std::size_t count = 0;
    std::exception_ptr first_error;
    const std::function<void(std::size_t, unsigned)>* body = nullptr;
  };
  auto state = std::make_shared<ForState>();
  state->count = count;
  state->body = &body;

  auto drain = [](const std::shared_ptr<ForState>& s, unsigned slot) {
    std::size_t done_here = 0;
    std::exception_ptr error;
    while (true) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->count) break;
      try {
        (*s->body)(i, slot);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      ++done_here;
    }
    if (done_here == 0 && !error) return;
    std::lock_guard<std::mutex> lock(s->mutex);
    if (error && !s->first_error) s->first_error = error;
    s->completed += done_here;
    if (s->completed == s->count) s->done_cv.notify_all();
  };

  // Helper stubs are worth their submission cost only when part of the pool
  // is idle (outstanding < workers, counting the caller's own task). When
  // the queues are already saturated with real tasks, the caller simply
  // drains the whole range itself — same results, no stub churn.
  const std::uint64_t outstanding = ApproxOutstanding();
  std::size_t helpers = 0;
  if (outstanding < num_workers()) {
    helpers = std::min<std::size_t>(num_workers() - 1, count - 1);
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    SubmitShared([state, drain](unsigned worker) { drain(state, worker); },
                 priority);
  }

  drain(state, caller_slot);

  // Bounded wait: every unclaimed index was drained by the caller above, so
  // this only waits for bodies other threads are executing right now. A
  // helper stub never blocks, so no wait cycle can form — nested calls
  // (even on one worker, even from inside a body) always terminate.
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->completed == state->count; });
  if (state->first_error) {
    std::exception_ptr error = std::exchange(state->first_error, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

bool TaskScheduler::TryPopOwn(unsigned worker, Task& task) {
  WorkerQueue& q = *queues_[worker];
  std::lock_guard<std::mutex> lock(q.mutex);
  // Weighted pop: usually take the highest class waiting (interactive
  // overtakes bulk), but every kFairnessStride-th pop serves a *lower*
  // class first — alternating which one, so both bulk and normal keep a
  // guaranteed share even when a saturating interactive stream would
  // otherwise monopolize the regular pops (and a bulk backlog would
  // monopolize the fairness turns, starving the middle class).
  const std::uint64_t pop = q.pops++;
  const bool fairness_turn = (pop % kFairnessStride) == 0;
  const bool serve_bulk_first =
      fairness_turn && (pop / kFairnessStride) % 2 == 0;
  // Scan orders: regular {0,1,2}; fairness turns alternate {2,1,0} and
  // {1,2,0} (favored lower class first, the other lower class next, the
  // top class only as a fallback).
  static_assert(kNumTaskPriorities == 3,
                "fairness rotation below spells out the three classes");
  unsigned order[kNumTaskPriorities];
  if (!fairness_turn) {
    for (unsigned c = 0; c < kNumTaskPriorities; ++c) order[c] = c;
  } else if (serve_bulk_first) {
    order[0] = 2, order[1] = 1, order[2] = 0;
  } else {
    order[0] = 1, order[1] = 2, order[2] = 0;
  }
  for (unsigned step = 0; step < kNumTaskPriorities; ++step) {
    std::deque<Task>& tasks = q.tasks[order[step]];
    if (tasks.empty()) continue;
    task = std::move(tasks.back());  // LIFO: newest subtree, cache-hot.
    tasks.pop_back();
    return true;
  }
  return false;
}

bool TaskScheduler::TrySteal(unsigned thief, Task& task) {
  const unsigned n = num_workers();
  // One lock per victim: within each victim, steal the highest class
  // waiting there — a thief is idle capacity, and idle capacity should
  // serve the latency-sensitive class first. (No global class-before-
  // victim order: that would cost up to kNumTaskPriorities locked passes
  // over every queue per failed scan, and the weighted owner pops make
  // cross-queue class order best-effort anyway.)
  for (unsigned offset = 1; offset < n; ++offset) {
    WorkerQueue& q = *queues_[(thief + offset) % n];
    std::lock_guard<std::mutex> lock(q.mutex);
    for (unsigned cls = 0; cls < kNumTaskPriorities; ++cls) {
      std::deque<Task>& tasks = q.tasks[cls];
      if (tasks.empty()) continue;
      task = std::move(tasks.front());  // FIFO: oldest = largest subtree.
      tasks.pop_front();
      return true;
    }
  }
  return false;
}

void TaskScheduler::WorkerLoop(unsigned worker) {
  tls_worker_id = static_cast<int>(worker);
  tls_scheduler = this;
  Task task;
  while (true) {
    // Snapshot the submit sequence *before* scanning: any task pushed
    // before the snapshot is visible to the scan, and any task pushed
    // after it advances submit_seq_, so the wait below cannot sleep
    // through a submission.
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (stop_ && outstanding_ == 0) break;
      seen = submit_seq_;
    }
    if (TryPopOwn(worker, task) || TrySteal(worker, task)) {
      try {
        task(worker);
      } catch (...) {
        // Keep draining so the counter still reaches zero; owners capture
        // failures per job inside their tasks.
      }
      task = nullptr;  // Release captures before possibly blocking.
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (--outstanding_ == 0) {
        // Quiescent: wake Stop() waiters and parked siblings (which
        // either exit, if stopping, or re-park until the next Submit).
        wake_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(state_mutex_);
    wake_cv_.wait(lock, [&] {
      return (stop_ && outstanding_ == 0) || submit_seq_ != seen;
    });
    if (stop_ && outstanding_ == 0) break;
  }
  tls_worker_id = -1;
  tls_scheduler = nullptr;
}

void TaskScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) return;
    started_ = true;
  }
  threads_.reserve(num_workers());
  for (unsigned i = 0; i < num_workers(); ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void TaskScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stop_ && threads_.empty()) return;  // Already stopped (or never ran).
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

}  // namespace kvcc::exec
