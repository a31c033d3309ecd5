#include "engine/executor.h"

#include <algorithm>
#include <utility>

namespace cqchase {

Executor::Executor(size_t num_workers) {
  const size_t n = std::max<size_t>(num_workers, 1);
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Workers drain every remaining queued task before exiting (see
  // WorkerLoop), so joining here guarantees all promised work ran.
  for (std::thread& t : threads_) t.join();
}

void Executor::EnsureStarted() {
  // Double-checked: the atomic-free read of started_ would race, so the fast
  // path re-checks under the lock. Submission is not hot enough to justify
  // more cleverness.
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  threads_.reserve(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void Executor::Submit(std::function<void()> task, TaskOptions options) {
  EnsureStarted();
  Task item;
  item.run = std::move(task);
  item.deadline = options.deadline;
  item.on_expired = std::move(options.on_expired);
  const size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(item));
    // Inside the deque lock: a popper acquires this same lock before its
    // fetch_sub, so pending_ can never be decremented for a task whose
    // increment has not happened yet (an after-unlock increment would let a
    // racing TryPop underflow the counter to SIZE_MAX).
    pending_.fetch_add(1, std::memory_order_release);
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Lock-then-notify so a worker that just found pending_ == 0 cannot miss
  // the wakeup between its predicate check and its wait.
  {
    std::lock_guard<std::mutex> lock(mu_);
  }
  cv_.notify_one();
}

bool Executor::TryPop(size_t self, Task& out) {
  {
    std::lock_guard<std::mutex> lock(queues_[self]->mu);
    if (!queues_[self]->tasks.empty()) {
      out = std::move(queues_[self]->tasks.front());
      queues_[self]->tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (size_t k = 1; k < queues_.size(); ++k) {
    const size_t victim = (self + k) % queues_.size();
    std::lock_guard<std::mutex> lock(queues_[victim]->mu);
    if (!queues_[victim]->tasks.empty()) {
      // Steal from the back: the front is the victim's next task, and the
      // back is the coldest work — classic work-stealing order.
      out = std::move(queues_[victim]->tasks.back());
      queues_[victim]->tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Executor::WorkerLoop(size_t self) {
  Task task;
  while (true) {
    if (TryPop(self, task)) {
      // Shed-at-dequeue: a task that spent its whole deadline in the queue
      // is already kDeadlineExceeded — complete it through its (cheap)
      // expiration handler instead of letting a corpse occupy this worker
      // slot until its first control poll says the obvious.
      if (task.deadline.has_value() && task.on_expired &&
          std::chrono::steady_clock::now() >= *task.deadline) {
        task.on_expired();
        shed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        task.run();
        executed_.fetch_add(1, std::memory_order_relaxed);
      }
      task = Task{};  // release captures before sleeping
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ && pending_.load(std::memory_order_acquire) == 0) return;
    cv_.wait(lock, [this] {
      return stopping_ || pending_.load(std::memory_order_acquire) > 0;
    });
    // Re-loop: on stop we still drain (TryPop until empty), then the
    // pending_ == 0 check above lets us exit.
  }
}

Executor::StatsSnapshot Executor::stats() const {
  StatsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.queue_depth = pending_.load(std::memory_order_relaxed);
  s.workers = queues_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.started = started_;
  }
  return s;
}

}  // namespace cqchase
