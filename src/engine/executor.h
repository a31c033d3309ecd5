// A persistent work-stealing thread pool: the execution substrate of the
// engine's async Submit API.
//
// Spawning fresh std::threads per batch and joining them is fine for one
// big batch and pure churn for a service answering a stream of small ones.
// The Executor keeps its workers alive across calls:
//
//   * one deque per worker. Submissions are dealt round-robin to the worker
//     deques; a worker pops its own deque from the front (FIFO for fairness
//     of same-queue submissions) and, when empty, *steals* from the back of
//     another worker's deque. Stealing keeps all cores busy under skew —
//     e.g. when one queue happens to receive the long-running chases.
//   * lazy start: constructing an Executor is free; worker threads spawn on
//     the first Submit. An engine that only ever serves synchronous
//     single-shot calls never pays for a pool.
//   * deadline shedding at dequeue: a task submitted with a deadline and an
//     on_expired handler that is popped after its deadline passed runs the
//     handler instead of the body — expired work is completed (the handler
//     resolves its future kDeadlineExceeded) without ever occupying a
//     worker slot for the body's sake.
//   * destruction drains: remaining queued tasks run to completion before
//     the workers join, so a future handed out for a queued task always
//     completes (tasks observe cancellation/deadlines through their own
//     ChaseControl, which is how a drain stays prompt).
//
// Tasks must not block waiting for other tasks of the same Executor (the
// classic pool deadlock); the engine documents EngineFuture::Get as a
// caller-side API for exactly this reason.
//
// Locking: each deque has its own mutex (submit and steal touch one deque
// at a time); a global mutex+condvar only handles sleep/wakeup of idle
// workers. Tasks are coarse (whole containment decisions), so deque
// operations are far off any hot path.
#ifndef CQCHASE_ENGINE_EXECUTOR_H_
#define CQCHASE_ENGINE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace cqchase {

class Executor {
 public:
  // `num_workers` is clamped to >= 1. Threads are not created here.
  explicit Executor(size_t num_workers);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Blocks until every already-submitted task has run, then joins.
  ~Executor();

  // Scheduling policy for one task.
  struct TaskOptions {
    // When set *with* on_expired: a task still queued past this instant is
    // shed at dequeue — the worker runs the (cheap) on_expired handler
    // instead of the task body, so an already-dead request never occupies a
    // worker slot just to notice its deadline at the first control poll.
    // Under overload this is the difference between workers chewing through
    // a backlog of corpses and workers reaching the requests that can still
    // make their deadlines.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    // Completion path for a shed task (resolve the future, count the
    // expiration). Without it the task always runs — the executor never
    // silently drops work someone holds a future for.
    std::function<void()> on_expired;
  };

  // Enqueues `task` at the back of a deque (round-robin) with scheduling
  // options (see TaskOptions). The first call starts the worker threads.
  void Submit(std::function<void()> task, TaskOptions options = {});

  size_t num_workers() const { return queues_.size(); }

  // Monotone counters plus two gauges (queue_depth, started). `steals` is
  // the scheduler-health signal: zero under an even load, spiking when some
  // deques run long tasks while others sit idle.
  struct StatsSnapshot {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t steals = 0;
    uint64_t shed = 0;         // dequeued past their deadline; on_expired ran
    uint64_t queue_depth = 0;  // queued, not yet started (gauge)
    uint64_t workers = 0;
    bool started = false;
  };
  StatsSnapshot stats() const;

 private:
  // One queued task: the body plus the shed-at-dequeue policy.
  struct Task {
    std::function<void()> run;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::function<void()> on_expired;
  };

  // Cache-line-ish isolation is not worth the complexity here (tasks are
  // milliseconds, not nanoseconds); a plain mutex per deque suffices.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void EnsureStarted();
  void WorkerLoop(size_t self);
  // Own deque front first, then other deques' backs (round-robin from
  // self+1). Decrements pending_ on success.
  bool TryPop(size_t self, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  // Guards threads_/started_/stopping_ and carries idle workers' sleep.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stopping_ = false;

  std::atomic<size_t> next_queue_{0};  // round-robin submission cursor
  std::atomic<size_t> pending_{0};     // queued, not yet popped
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_EXECUTOR_H_
