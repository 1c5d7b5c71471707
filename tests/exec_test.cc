#include "exec/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace kvcc::exec {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

TEST(TaskSchedulerTest, ExecutesEverySeededTaskExactlyOnce) {
  for (unsigned workers : {1u, 2u, 4u}) {
    TaskScheduler scheduler(workers);
    std::atomic<std::uint64_t> executed{0};
    for (int i = 0; i < 100; ++i) {
      scheduler.Submit([&executed](unsigned) { ++executed; });
    }
    scheduler.Start();
    scheduler.Stop();
    EXPECT_EQ(executed.load(), 100u) << "workers=" << workers;
  }
}

TEST(TaskSchedulerTest, WorkerIdsAreInRange) {
  TaskScheduler scheduler(3);
  std::mutex mutex;
  std::set<unsigned> seen;
  for (int i = 0; i < 64; ++i) {
    scheduler.Submit([&](unsigned worker) {
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(worker);
    });
  }
  scheduler.Start();
  scheduler.Stop();
  ASSERT_FALSE(seen.empty());
  for (unsigned worker : seen) EXPECT_LT(worker, 3u);
}

TEST(TaskSchedulerTest, TasksCanSpawnChildren) {
  // A binary spawn tree of depth 10: 2^10 - 1 = 1023 tasks in total,
  // every one submitted from inside a running task except the root.
  for (unsigned workers : {1u, 4u}) {
    TaskScheduler scheduler(workers);
    std::atomic<std::uint64_t> executed{0};
    // Recursive lambda via explicit self-reference.
    struct Spawner {
      TaskScheduler& scheduler;
      std::atomic<std::uint64_t>& executed;
      void Go(int depth) {
        ++executed;
        if (depth == 0) return;
        for (int child = 0; child < 2; ++child) {
          scheduler.Submit([this, depth](unsigned) { Go(depth - 1); });
        }
      }
    } spawner{scheduler, executed};
    scheduler.Submit([&spawner](unsigned) { spawner.Go(9); });
    scheduler.Start();
    scheduler.Stop();
    EXPECT_EQ(executed.load(), 1023u) << "workers=" << workers;
  }
}

TEST(TaskSchedulerTest, TaskExceptionDoesNotStopTheDrain) {
  // A throwing task counts as finished, so every other task still runs
  // and Stop() returns instead of waiting forever.
  TaskScheduler scheduler(2);
  scheduler.Start();
  std::atomic<std::uint64_t> executed{0};
  for (int i = 0; i < 20; ++i) {
    scheduler.Submit([&executed, i](unsigned) {
      if (i == 5) throw std::runtime_error("boom");
      ++executed;
    });
  }
  scheduler.Stop();
  EXPECT_EQ(executed.load(), 19u);
}

TEST(TaskSchedulerTest, PersistentModeServesMultipleQuiescentCycles) {
  // Start/Stop mode: workers park at quiescence instead of exiting, so a
  // long-lived owner can push several independent waves of work. Each wave
  // signals its own completion through a counter the test waits on.
  TaskScheduler scheduler(3);
  scheduler.Start();
  std::atomic<std::uint64_t> executed{0};
  for (int wave = 1; wave <= 3; ++wave) {
    int remaining = 16;  // Guarded by `mutex` so the waiter cannot observe
    std::mutex mutex;    // completion while a notifier still touches these.
    std::condition_variable done;
    for (int i = 0; i < 16; ++i) {
      scheduler.Submit([&](unsigned) {
        ++executed;
        std::lock_guard<std::mutex> lock(mutex);
        if (--remaining == 0) done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return remaining == 0; });
    EXPECT_EQ(executed.load(), 16u * wave) << "wave=" << wave;
    // The pool is now quiescent (parked); the next wave must wake it.
  }
  scheduler.Stop();
  EXPECT_EQ(executed.load(), 48u);
}

TEST(TaskSchedulerTest, StopDrainsOutstandingWork) {
  // Stop() must run every already-submitted task (including children
  // spawned during the drain) before joining.
  TaskScheduler scheduler(2);
  scheduler.Start();
  std::atomic<std::uint64_t> executed{0};
  for (int i = 0; i < 32; ++i) {
    scheduler.Submit([&](unsigned) {
      ++executed;
      if (executed.load() <= 32) {
        scheduler.Submit([&](unsigned) { ++executed; });
      }
    });
  }
  scheduler.Stop();
  EXPECT_GE(executed.load(), 32u);
}

TEST(TaskSchedulerTest, SubmitSharedRunsEveryTask) {
  for (unsigned workers : {1u, 3u}) {
    TaskScheduler scheduler(workers);
    scheduler.Start();
    std::atomic<std::uint64_t> executed{0};
    std::mutex mutex;
    std::condition_variable done;
    int remaining = 40;
    for (int i = 0; i < 40; ++i) {
      scheduler.SubmitShared([&](unsigned) {
        ++executed;
        std::lock_guard<std::mutex> lock(mutex);
        if (--remaining == 0) done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return remaining == 0; });
    EXPECT_EQ(executed.load(), 40u) << "workers=" << workers;
  }
}

TEST(TaskSchedulerTest, SubmitSharedFromInsideTaskStillRuns) {
  // Shared submits from within a running task must not be lost; unlike
  // Submit they seed round-robin instead of the submitter's own deque.
  TaskScheduler scheduler(2);
  std::atomic<std::uint64_t> executed{0};
  scheduler.Submit([&](unsigned) {
    for (int i = 0; i < 10; ++i) {
      scheduler.SubmitShared([&](unsigned) { ++executed; });
    }
  });
  scheduler.Start();
  scheduler.Stop();
  EXPECT_EQ(executed.load(), 10u);
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnceWithValidSlots) {
  for (unsigned workers : {1u, 2u, 4u}) {
    TaskScheduler scheduler(workers);
    scheduler.Start();
    constexpr std::size_t kCount = 200;
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<bool> slot_ok{true};
    // External caller: its slot is num_workers (the extra pool slot).
    scheduler.ParallelFor(kCount, [&](std::size_t i, unsigned slot) {
      if (slot > workers) slot_ok = false;
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
    EXPECT_TRUE(slot_ok.load());
    scheduler.Stop();
  }
}

TEST(ParallelForTest, ZeroAndOneIndexFastPaths) {
  TaskScheduler scheduler(3);
  scheduler.Start();
  int calls = 0;
  scheduler.ParallelFor(0, [&](std::size_t, unsigned) { ++calls; });
  EXPECT_EQ(calls, 0);
  scheduler.ParallelFor(1, [&](std::size_t i, unsigned slot) {
    ++calls;
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(slot, 3u);  // external caller
  });
  EXPECT_EQ(calls, 1);
  scheduler.Stop();
}

TEST(ParallelForTest, NestedInsideTaskDoesNotDeadlockOnOneWorker) {
  // Regression for the nested-wait hazard: a worker that blocks waiting
  // for its own sub-tasks would deadlock a single-worker pool if those
  // sub-tasks could only run on another worker. ParallelFor's caller
  // drains the index space itself, so this must complete.
  TaskScheduler scheduler(1);
  scheduler.Start();
  std::atomic<std::uint64_t> sum{0};
  std::mutex mutex;
  std::condition_variable done;
  bool finished = false;
  scheduler.Submit([&](unsigned) {
    scheduler.ParallelFor(64, [&](std::size_t i, unsigned) { sum += i; });
    std::lock_guard<std::mutex> lock(mutex);
    finished = true;
    done.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return finished; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2);
  scheduler.Stop();
}

TEST(ParallelForTest, ReentrantNestingCompletes) {
  // ParallelFor inside a ParallelFor body, called from inside tasks, on a
  // pool already saturated with sibling tasks: every level must terminate
  // because no participant ever waits on a helper *starting*.
  for (unsigned workers : {1u, 4u}) {
    TaskScheduler scheduler(workers);
    scheduler.Start();
    std::atomic<std::uint64_t> leaf_count{0};
    std::mutex mutex;
    std::condition_variable done;
    int remaining = 8;
    for (int t = 0; t < 8; ++t) {
      scheduler.Submit([&](unsigned) {
        scheduler.ParallelFor(4, [&](std::size_t, unsigned) {
          scheduler.ParallelFor(4, [&](std::size_t, unsigned) {
            ++leaf_count;
          });
        });
        std::lock_guard<std::mutex> lock(mutex);
        if (--remaining == 0) done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return remaining == 0; });
    EXPECT_EQ(leaf_count.load(), 8u * 4u * 4u) << "workers=" << workers;
    scheduler.Stop();
  }
}

TEST(ParallelForTest, BodyExceptionIsRethrownAfterDraining) {
  TaskScheduler scheduler(2);
  scheduler.Start();
  std::atomic<std::uint64_t> executed{0};
  EXPECT_THROW(scheduler.ParallelFor(50,
                                     [&](std::size_t i, unsigned) {
                                       if (i == 17) {
                                         throw std::runtime_error("probe");
                                       }
                                       ++executed;
                                     }),
               std::runtime_error);
  // Every non-throwing index still ran before the rethrow.
  EXPECT_EQ(executed.load(), 49u);
  scheduler.Stop();
}

TEST(TaskPriorityTest, WeightedPopPrefersInteractiveWithoutStarvingBulk) {
  // One worker, tasks seeded before Start: execution order is exactly the
  // owner's pop order, so the weighted policy is directly observable.
  // Interactive tasks must be served (almost) first, but the fairness
  // stride guarantees bulk a share even while interactive work waits.
  TaskScheduler scheduler(1);
  std::vector<char> order;  // 'i' / 'b' in execution order
  std::mutex mutex;
  constexpr int kEach = 8;
  for (int t = 0; t < kEach; ++t) {
    scheduler.Submit(
        [&](unsigned) {
          std::lock_guard<std::mutex> lock(mutex);
          order.push_back('b');
        },
        TaskPriority::kBulk);
  }
  for (int t = 0; t < kEach; ++t) {
    scheduler.Submit(
        [&](unsigned) {
          std::lock_guard<std::mutex> lock(mutex);
          order.push_back('i');
        },
        TaskPriority::kInteractive);
  }
  scheduler.Start();
  scheduler.Stop();
  ASSERT_EQ(order.size(), 2u * kEach);

  // All interactive tasks land within the first kEach + 2 executions:
  // they overtake the entire already-queued bulk backlog, except for the
  // bounded fairness share interleaved with them.
  int last_interactive = -1;
  int bulk_before_last_interactive = 0;
  for (int pos = 0; pos < static_cast<int>(order.size()); ++pos) {
    if (order[pos] == 'i') last_interactive = pos;
  }
  for (int pos = 0; pos < last_interactive; ++pos) {
    if (order[pos] == 'b') ++bulk_before_last_interactive;
  }
  EXPECT_LE(last_interactive, kEach + 1)
      << "interactive tasks did not overtake the bulk backlog";
  // Anti-starvation: at least one bulk pop happened while interactive
  // work was still waiting (the fairness stride's guaranteed share).
  EXPECT_GE(bulk_before_last_interactive, 1);
}

TEST(TaskPriorityTest, FairnessRotationServesBothLowerClasses) {
  // Combined saturation: interactive work monopolizes regular pops and
  // bulk work would monopolize lowest-first fairness turns, so the turns
  // must alternate which lower class they serve — otherwise kNormal
  // starves while both neighbors make progress.
  TaskScheduler scheduler(1);
  std::vector<char> order;
  std::mutex mutex;
  constexpr int kEach = 8;
  const TaskPriority classes[] = {TaskPriority::kBulk, TaskPriority::kNormal,
                                  TaskPriority::kInteractive};
  const char tags[] = {'b', 'n', 'i'};
  for (int c = 0; c < 3; ++c) {
    for (int t = 0; t < kEach; ++t) {
      scheduler.Submit(
          [&, c](unsigned) {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(tags[c]);
          },
          classes[c]);
    }
  }
  scheduler.Start();
  scheduler.Stop();
  ASSERT_EQ(order.size(), 3u * kEach);
  int last_interactive = 0;
  for (int pos = 0; pos < static_cast<int>(order.size()); ++pos) {
    if (order[pos] == 'i') last_interactive = pos;
  }
  // While interactive work was still waiting, the fairness turns served
  // bulk *and* normal at least once each — neither lower class starves.
  const std::string prefix(order.begin(), order.begin() + last_interactive);
  EXPECT_NE(prefix.find('b'), std::string::npos) << prefix;
  EXPECT_NE(prefix.find('n'), std::string::npos) << prefix;
}

TEST(TaskPriorityTest, AllClassesDrainToCompletion) {
  // Saturating mixed-class load on several workers: every task of every
  // class runs exactly once (no class is lost or starved to deadlock).
  for (unsigned workers : {1u, 2u, 4u}) {
    TaskScheduler scheduler(workers);
    std::atomic<std::uint64_t> ran{0};
    const TaskPriority classes[] = {TaskPriority::kInteractive,
                                    TaskPriority::kNormal,
                                    TaskPriority::kBulk};
    for (int t = 0; t < 300; ++t) {
      scheduler.Submit([&](unsigned) { ++ran; }, classes[t % 3]);
    }
    scheduler.Start();
    scheduler.Stop();
    EXPECT_EQ(ran.load(), 300u) << "workers=" << workers;
  }
}

TEST(TaskSchedulerTest, ParallelSumMatchesSerial) {
  // Each task contributes a deterministic value; the scheduler must not
  // lose or duplicate any contribution regardless of stealing.
  TaskScheduler scheduler(4);
  std::atomic<std::uint64_t> sum{0};
  constexpr std::uint64_t kTasks = 500;
  for (std::uint64_t i = 1; i <= kTasks; ++i) {
    scheduler.Submit([&sum, i](unsigned) { sum += i * i; });
  }
  scheduler.Start();
  scheduler.Stop();
  std::uint64_t expected = 0;
  for (std::uint64_t i = 1; i <= kTasks; ++i) expected += i * i;
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace kvcc::exec
