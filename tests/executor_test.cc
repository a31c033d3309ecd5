// Executor: the engine's persistent work-stealing pool. Covers lazy start,
// completion of everything submitted, stealing under a skewed load,
// high-priority queue jumping, deadline shedding and destructor drain.
// Runs under TSan in CI (ci.sh) — the pool is concurrency-bearing by
// definition.
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace cqchase {
namespace {

using std::chrono::milliseconds;

// Spin-waits (with a generous ceiling) until `pred` holds. The executor has
// no blocking join-all API by design — futures are the engine's join point —
// so tests poll.
template <typename Pred>
bool WaitUntil(Pred pred, milliseconds limit = milliseconds(10000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ExecutorTest, LazyStartAndWorkerCount) {
  Executor executor(3);
  EXPECT_EQ(executor.num_workers(), 3u);
  EXPECT_FALSE(executor.stats().started);  // construction spawns no threads

  std::atomic<int> ran{0};
  executor.Submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(executor.stats().started);
  // Wait on the executed counter itself: it is bumped after the task body,
  // so waiting on `ran` alone could snapshot the stats one tick early.
  EXPECT_TRUE(WaitUntil([&] { return executor.stats().executed == 1; }));
  EXPECT_EQ(ran.load(), 1);

  const Executor::StatsSnapshot s = executor.stats();
  EXPECT_EQ(s.workers, 3u);
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.executed, 1u);
}

TEST(ExecutorTest, ZeroWorkersClampsToOne) {
  Executor executor(0);
  EXPECT_EQ(executor.num_workers(), 1u);
  std::atomic<int> ran{0};
  executor.Submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(WaitUntil([&] { return ran.load() == 1; }));
}

TEST(ExecutorTest, ExecutesEverythingSubmittedFromManyThreads) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 250;
  Executor executor(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        executor.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_TRUE(WaitUntil([&] {
    return executor.stats().executed ==
           static_cast<uint64_t>(kSubmitters * kPerSubmitter);
  }));
  EXPECT_EQ(ran.load(), kSubmitters * kPerSubmitter);
  const Executor::StatsSnapshot s = executor.stats();
  EXPECT_EQ(s.submitted, static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(s.executed, static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ExecutorTest, StealsUnderSkewedLoad) {
  // Submissions are dealt round-robin from a single thread, so task i lands
  // on deque i % 4. Every 4th task sleeps; the other deques drain instantly
  // and their workers must steal the sleepers' queued work for the whole
  // batch to finish promptly. (Executed-count completeness is the hard
  // assertion; a zero steal count with this skew would mean the sleepy
  // deque's worker ran its whole backlog alone.)
  Executor executor(4);
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    if (i % 4 == 0) {
      executor.Submit([&] {
        std::this_thread::sleep_for(milliseconds(5));
        ran.fetch_add(1);
      });
    } else {
      executor.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_TRUE(WaitUntil([&] { return ran.load() == kTasks; }));
  EXPECT_GT(executor.stats().steals, 0u);
}

TEST(ExecutorTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 32;
  {
    Executor executor(2);
    for (int i = 0; i < kTasks; ++i) {
      executor.Submit([&] {
        std::this_thread::sleep_for(milliseconds(1));
        ran.fetch_add(1);
      });
    }
    // Destroyed with most tasks still queued: every promised task must
    // still run before join.
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ExecutorTest, DestructionWithoutStartIsClean) {
  Executor executor(8);  // never submitted to; no threads to join
}

TEST(ExecutorTest, ShedsExpiredDeadlineTasksAtDequeue) {
  // One worker, occupied by a gate task while three deadline tasks expire in
  // the queue behind it. At dequeue each must be completed through its
  // on_expired handler — the body never runs, the worker slot is never
  // spent on a corpse — while a live-deadline task and a no-deadline task
  // run normally.
  Executor executor(1);
  std::atomic<bool> gate_open{false};
  std::atomic<int> bodies_ran{0};
  std::atomic<int> expired_ran{0};
  executor.Submit([&] {
    while (!gate_open.load()) std::this_thread::yield();
  });

  constexpr int kExpired = 3;
  for (int i = 0; i < kExpired; ++i) {
    Executor::TaskOptions options;
    options.deadline = std::chrono::steady_clock::now() - milliseconds(1);
    options.on_expired = [&] { expired_ran.fetch_add(1); };
    executor.Submit([&] { bodies_ran.fetch_add(1); }, std::move(options));
  }
  Executor::TaskOptions live;
  live.deadline = std::chrono::steady_clock::now() + milliseconds(60000);
  live.on_expired = [&] { expired_ran.fetch_add(1); };
  executor.Submit([&] { bodies_ran.fetch_add(1); }, std::move(live));
  executor.Submit([&] { bodies_ran.fetch_add(1); });  // no deadline at all

  gate_open.store(true);
  EXPECT_TRUE(WaitUntil([&] {
    return executor.stats().shed == kExpired && bodies_ran.load() == 2;
  }));
  EXPECT_EQ(expired_ran.load(), kExpired);
  const Executor::StatsSnapshot s = executor.stats();
  EXPECT_EQ(s.shed, static_cast<uint64_t>(kExpired));
  // Shed tasks are completed, not executed: the gate + 2 live bodies.
  EXPECT_EQ(s.executed, 3u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ExecutorTest, ExpiredDeadlineWithoutHandlerStillRuns) {
  // Without an on_expired completion path the executor may not drop the
  // task — someone holds a future for it; the body itself owns noticing
  // the deadline (the engine's first control poll).
  Executor executor(1);
  std::atomic<int> ran{0};
  Executor::TaskOptions options;
  options.deadline = std::chrono::steady_clock::now() - milliseconds(1);
  executor.Submit([&] { ran.fetch_add(1); }, std::move(options));
  EXPECT_TRUE(WaitUntil([&] { return ran.load() == 1; }));
  EXPECT_EQ(executor.stats().shed, 0u);
}

}  // namespace
}  // namespace cqchase
