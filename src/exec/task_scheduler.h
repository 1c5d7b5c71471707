// Work-stealing task scheduler for recursive decomposition workloads.
//
// The k-VCC recursion (and any divide-and-conquer over graphs) produces a
// dynamic tree of independent tasks: processing one work item may spawn
// several child items. This scheduler runs such a tree to quiescence on a
// fixed set of worker threads:
//
//   * each worker owns a deque; the owner pushes/pops at the back (LIFO,
//     keeps the working set cache-hot and the deque shallow), thieves steal
//     from the front (FIFO, steals the largest remaining subtrees first);
//   * tasks submitted from within a task go to the submitting worker's own
//     deque, so a worker keeps draining its subtree until someone steals;
//   * quiescence is detected with a global outstanding-task counter:
//     when it drops to zero no task is running or queued, so no new task
//     can appear until the next external Submit.
//
// Start() spawns workers that park at quiescence instead of exiting, so a
// long-lived owner (KvccEngine) can keep submitting batches of independent
// jobs against warm per-worker state. Stop() drains every remaining task,
// then joins.
//
// Tasks receive their worker's id (0 <= id < num_workers), which callers
// use to index per-worker scratch state without any synchronization.
//
// Besides whole tasks, a running task can fan a flat index range out to the
// idle part of the pool with ParallelFor: the caller claims indices itself
// (so progress never depends on anyone else being free) while helper stubs
// submitted to the other workers claim from the same shared counter. The
// wait at the end is bounded by the in-flight bodies only — helpers never
// block and the owner never executes unrelated tasks — so ParallelFor nests
// inside tasks (and inside other ParallelFor bodies) without deadlock even
// on a single worker. The same two facts let a body borrow the scratch of
// the worker it runs on, as long as no such body starts another borrowing
// ParallelFor (see ParallelFor).
//
// Latency classes: every task carries a TaskPriority. Each worker deque is
// really one deque per class, and the pop policy is *weighted*, not strict:
// most pops take the highest-priority waiting task (so an interactive job
// overtakes a saturating bulk backlog), but a fixed fraction of each
// worker's pops serves a lower class first — alternating between bulk and
// normal — so *every* class keeps a guaranteed share of the pool and none
// can starve outright, even under combined saturation of the others.
// Steals lock each victim once and take the highest class waiting there
// (a thief is by definition idle capacity; giving it the latency-
// sensitive work first is the point of having classes).
//
// Determinism note: the scheduler makes no ordering guarantees between
// tasks. Callers that need deterministic output must make each task a pure
// function of its input and canonicalize (e.g. sort) the merged results —
// exactly what the k-VCC engine does. ParallelFor makes no assignment
// guarantees either: bodies must write only to their own index's slot.
// Priorities shape wall-clock order only; they must never change results.
#ifndef KVCC_EXEC_TASK_SCHEDULER_H_
#define KVCC_EXEC_TASK_SCHEDULER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// \brief Work-stealing task scheduler for recursive decomposition
/// workloads: per-worker deques, a Start/Stop worker pool, and a nest-safe
/// ParallelFor.

/// \brief Execution substrate: the work-stealing task scheduler shared by
/// every parallel layer of the k-VCC engine.
namespace kvcc::exec {

/// \brief Maps a user-facing thread-count request to a concrete worker
/// count: 0 = one worker per hardware thread, otherwise the request
/// itself.
/// \param requested The user-facing thread-count knob.
/// \return The resolved worker count (>= 1).
unsigned ResolveThreadCount(unsigned requested);

/// \brief Latency class of a submitted task (see the file comment's
/// weighted-pop policy). Lower numeric value = served sooner.
enum class TaskPriority : std::uint8_t {
  /// \brief Latency-sensitive work; preferred by almost every pop.
  kInteractive = 0,
  /// \brief The default class.
  kNormal = 1,
  /// \brief Throughput backlog; yields to the other classes but keeps a
  /// guaranteed share of pops (anti-starvation).
  kBulk = 2,
};

/// \brief Number of TaskPriority classes (deques per worker).
inline constexpr unsigned kNumTaskPriorities = 3;

/// \brief Work-stealing task scheduler for dynamic trees of independent
/// tasks (see file comment for the deque discipline).
class TaskScheduler {
 public:
  /// \brief A task body; the argument is the executing worker's id.
  using Task = std::function<void(unsigned worker)>;

  /// \brief Creates the scheduler. Threads are spawned by Start(), not
  /// here.
  /// \param num_workers Number of worker threads (>= 1).
  explicit TaskScheduler(unsigned num_workers);

  /// \brief Stops the workers (as if by Stop()) if still running.
  ~TaskScheduler();

  /// \brief Schedulers are not copyable (they own threads).
  TaskScheduler(const TaskScheduler&) = delete;
  /// \brief Schedulers are not copyable (they own threads).
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// \brief Number of worker threads.
  /// \return The count passed to the constructor.
  unsigned num_workers() const { return static_cast<unsigned>(queues_.size()); }

  /// \brief Enqueues a task.
  ///
  /// Callable before Start() (seeding), from within a running task
  /// (spawning children; the task lands on the calling worker's own
  /// deque), and from any external thread while the workers are parked.
  /// \param task The body to run; receives the executing worker's id.
  /// \param priority Latency class; children of a prioritized job should
  ///   carry their job's class so the whole recursion inherits it.
  void Submit(Task task, TaskPriority priority = TaskPriority::kNormal);

  /// \brief Like Submit, but always seeds round-robin across the worker
  /// deques, even when called from within a running task.
  ///
  /// Use for root tasks of new independent jobs (fairness: a job
  /// submitted from inside a busy worker must not queue behind that
  /// worker's whole subtree) and for helper stubs that should be picked
  /// up by *other* workers.
  /// \param task The body to run; receives the executing worker's id.
  /// \param priority Latency class of the seeded task.
  void SubmitShared(Task task,
                    TaskPriority priority = TaskPriority::kNormal);

  /// \brief Tasks submitted but not yet finished (queued + running),
  /// sampled now.
  ///
  /// `ApproxOutstanding() < num_workers()` means part of the pool is
  /// idle — the signal ParallelFor uses to decide whether helper stubs
  /// are worth submitting.
  /// \return The sampled outstanding-task count.
  std::uint64_t ApproxOutstanding();

  /// \brief Runs body(index, slot) for every index in [0, count) as a
  /// nested fork-join.
  ///
  /// The calling thread claims indices from a shared counter; when the
  /// pool looks starved, helper stubs are submitted so idle workers claim
  /// from the same counter concurrently. `slot` identifies the executing
  /// thread: a worker of this scheduler gets its worker id, any other
  /// thread gets num_workers(). A body may therefore work on per-worker
  /// scratch indexed by slot, and on the caller's own state at slot
  /// num_workers(); GLOBAL-CUT does exactly that (kvcc/global_cut.h). A
  /// worker's scratch is free for such a body because a worker runs helper
  /// stubs only between its own tasks, and the caller runs nothing but
  /// the indices of its own call until it returns. A body that works on
  /// borrowed scratch must not start another ParallelFor that borrows
  /// scratch: its thread would join the inner call at the same slot.
  ///
  /// Safe to call from inside a task (nested fork-join) and reentrantly
  /// from inside a ParallelFor body: the caller never blocks on a helper
  /// *starting* (it drains the index space itself) and waits only for
  /// bodies already in flight on other threads. Two external (non-worker)
  /// threads calling at once share slot num_workers(), so bodies must not
  /// share state by that slot across external callers.
  /// \param count Number of indices to process.
  /// \param body Called once per index with (index, slot).
  /// \param priority Latency class of the helper stubs; pass the owning
  ///   job's class so a wavefront competes for idle workers at its job's
  ///   priority (the caller drains its own indices regardless).
  /// \throws Rethrows the first exception thrown by a body after all
  ///   claimed bodies have finished.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t index, unsigned slot)>&
                       body,
                   TaskPriority priority = TaskPriority::kNormal);

  /// \brief Spawns worker threads that park at quiescence and wake on the
  /// next Submit, so the scheduler serves an open-ended stream of task
  /// trees. Call at most once; pair with Stop().
  void Start();

  /// \brief Drains every outstanding task, joins the workers, and retires
  /// the scheduler. Exceptions thrown by tasks are NOT rethrown here (the
  /// owner is expected to capture failures per job); a throwing task is
  /// counted as finished and the drain goes on. Idempotent.
  void Stop();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    // One deque per TaskPriority class, indexed by the enum value.
    std::array<std::deque<Task>, kNumTaskPriorities> tasks;
    // Owner-pop counter driving the weighted policy: every
    // kFairnessStride-th pop serves a lower class first, alternating
    // bulk-first / normal-first, so each lower class keeps a guaranteed
    // 1/(2*kFairnessStride) share of this worker's pops.
    std::uint64_t pops = 0;
  };
  static constexpr std::uint64_t kFairnessStride = 8;

  bool TryPopOwn(unsigned worker, Task& task);
  bool TrySteal(unsigned thief, Task& task);
  void WorkerLoop(unsigned worker);
  void Enqueue(Task task, TaskPriority priority, bool shared);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  // Tasks submitted but not yet finished; 0 <=> quiescent.
  std::uint64_t outstanding_ = 0;
  // Bumped (under state_mutex_) after every queue push. An idle worker
  // snapshots it *before* scanning the queues and sleeps only while it is
  // unchanged, so a Submit racing with the scan can never be missed.
  std::uint64_t submit_seq_ = 0;
  std::mutex state_mutex_;
  std::condition_variable wake_cv_;
  // Workers exit once stop_ is set *and* the outstanding counter hits zero,
  // so Stop() always drains in-flight task trees before joining.
  bool stop_ = false;
  bool started_ = false;
  std::vector<std::thread> threads_;
  unsigned next_seed_queue_ = 0;  // round-robin target for external submits
};

}  // namespace kvcc::exec

#endif  // KVCC_EXEC_TASK_SCHEDULER_H_
