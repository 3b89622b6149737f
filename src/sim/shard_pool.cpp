#include "sim/shard_pool.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>

#include "sim/engine.hpp"

namespace overlay {

namespace {

/// Innermost pool whose task the current thread is executing. Run/RunPhased
/// consult it to detect reentrant dispatch onto the pool a task is already
/// running on (which would otherwise deadlock: the outer Run holds the
/// workers this Run would need) and fall back to inline serial execution.
thread_local const ShardPool* tl_active_pool = nullptr;

class ActivePoolGuard {
 public:
  explicit ActivePoolGuard(const ShardPool* pool)
      : previous_(tl_active_pool) {
    tl_active_pool = pool;
  }
  ~ActivePoolGuard() { tl_active_pool = previous_; }

 private:
  const ShardPool* previous_;
};

void RethrowFirst(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

ShardPool::ShardPool(std::size_t workers) {
  std::lock_guard lk(mutex_);
  EnsureWorkers(workers);
}

ShardPool::~ShardPool() {
  {
    std::lock_guard lk(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  workers_.clear();  // jthreads join
}

std::size_t ShardPool::num_workers() const {
  std::lock_guard lk(mutex_);
  return workers_.size();
}

void ShardPool::EnsureWorkers(std::size_t needed) {
  // Caller holds mutex_. Freshly spawned workers are born having "seen" the
  // current generation, so they cannot pick up a task dispatched before they
  // existed (the dispatching Run sized participants_ to the old roster).
  while (workers_.size() < needed) {
    const std::size_t index = workers_.size();
    const std::uint64_t born_at = generation_;
    workers_.emplace_back(
        [this, index, born_at] { WorkerLoop(index, born_at); });
  }
}

void ShardPool::WorkerLoop(std::size_t index, std::uint64_t seen) {
  for (;;) {
    const std::function<void(std::size_t)>* task = nullptr;
    bool active = false;
    {
      std::unique_lock lk(mutex_);
      task_ready_.wait(lk, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      active = index < participants_;
      task = task_;
    }
    if (!active) continue;  // this generation runs on fewer shards
    {
      ActivePoolGuard guard(this);
      try {
        (*task)(index + 1);  // shard 0 runs on the dispatching thread
      } catch (...) {
        errors_[index + 1] = std::current_exception();
      }
    }
    {
      std::lock_guard lk(mutex_);
      if (--pending_ == 0) task_done_.notify_one();
    }
  }
}

void ShardPool::Run(std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    // Serial fast path: no handoff, no allocations — a single shard has no
    // peers, so direct propagation equals the pooled error contract.
    fn(0);
    return;
  }
  if (tl_active_pool == this) {
    // Reentrant dispatch from inside one of our own tasks: run inline,
    // serially, with the pooled path's error contract (every shard
    // executes; the lowest-index exception is rethrown).
    std::vector<std::exception_ptr> errors(count);
    for (std::size_t s = 0; s < count; ++s) {
      try {
        fn(s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
    RethrowFirst(errors);
    return;
  }

  std::scoped_lock run_lock(run_mutex_);
  {
    std::lock_guard lk(mutex_);
    EnsureWorkers(count - 1);
    errors_.assign(count, nullptr);
    task_ = &fn;
    participants_ = count - 1;
    pending_ = count - 1;
    ++generation_;
  }
  task_ready_.notify_all();
  {
    ActivePoolGuard guard(this);
    try {
      fn(0);
    } catch (...) {
      errors_[0] = std::current_exception();
    }
  }
  {
    std::unique_lock lk(mutex_);
    task_done_.wait(lk, [&] { return pending_ == 0; });
    task_ = nullptr;
  }
  RethrowFirst(errors_);
}

void ShardPool::RunDynamic(
    std::size_t workers, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (workers == 0 || chunks == 0) return;
  if (chunks == 1) {
    // Allocation-free fast path, mirroring Run's count == 1 contract: a
    // single chunk has no peers, so direct propagation equals the pooled
    // error contract.
    fn(0, 0);
    return;
  }
  workers = std::min(workers, chunks);
  if (workers == 1 || tl_active_pool == this) {
    // One participant (or reentrant dispatch): claiming order degenerates
    // to chunk order — run inline with the pooled error contract.
    std::vector<std::exception_ptr> errors(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      try {
        fn(c, 0);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
    RethrowFirst(errors);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(chunks);
  Run(workers, [&](std::size_t w) {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(c, w);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
  });
  RethrowFirst(errors);
}

namespace {

/// Barrier completion step of RunPhased: runs `between` exactly once per
/// phase boundary while every shard is parked at the barrier. Must be
/// noexcept for std::barrier, so user exceptions are parked in the state.
struct PhaseBoundary {
  const std::function<void(std::size_t)>* between;
  std::exception_ptr* between_error;
  std::size_t step = 0;

  void operator()() noexcept {
    if (*between && *between_error == nullptr) {
      try {
        (*between)(step);
      } catch (...) {
        *between_error = std::current_exception();
      }
    }
    ++step;
  }
};

}  // namespace

void ShardPool::RunPhased(std::size_t count, std::size_t steps,
                          const std::function<void(std::size_t, std::size_t)>& body,
                          const std::function<void(std::size_t)>& between) {
  if (count == 0 || steps == 0) return;
  if (count == 1) {
    for (std::size_t step = 0; step < steps; ++step) {
      body(0, step);
      if (between) between(step);
    }
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::exception_ptr between_error;

  if (tl_active_pool == this) {
    // Inline fallback: phases in order, shards in order within a phase —
    // exactly what the barrier enforces, minus the threads.
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t s = 0; s < count; ++s) {
        if (errors[s] != nullptr) continue;
        try {
          body(s, step);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      }
      if (between && between_error == nullptr) {
        try {
          between(step);
        } catch (...) {
          between_error = std::current_exception();
        }
      }
    }
  } else {
    std::barrier<PhaseBoundary> barrier(
        static_cast<std::ptrdiff_t>(count),
        PhaseBoundary{&between, &between_error});
    // A shard that throws skips its remaining phases but keeps arriving at
    // the barrier, so its peers are never left waiting.
    const std::function<void(std::size_t)> task = [&](std::size_t s) {
      for (std::size_t step = 0; step < steps; ++step) {
        if (errors[s] == nullptr) {
          try {
            body(s, step);
          } catch (...) {
            errors[s] = std::current_exception();
          }
        }
        barrier.arrive_and_wait();
      }
    };
    Run(count, task);
  }

  RethrowFirst(errors);
  if (between_error) std::rethrow_exception(between_error);
}

ShardPool& DefaultShardPool() {
  static ShardPool pool;
  return pool;
}

ShardPool& ExecPolicy::Pool() const {
  return pool != nullptr ? *pool : DefaultShardPool();
}

void RunShardedBlocks(
    ShardPool& pool, std::size_t n, std::size_t shards,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& f) {
  const std::size_t s_count =
      std::max<std::size_t>(1, std::min(shards, n));
  if (s_count <= 1) {
    f(0, 0, n);
    return;
  }
  const std::size_t block = (n + s_count - 1) / s_count;
  pool.Run(s_count, [&](std::size_t s) {
    f(s, std::min(n, s * block), std::min(n, (s + 1) * block));
  });
}

void RunDynamicBlocks(
    ShardPool& pool, std::size_t n, std::size_t workers, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& f) {
  const std::size_t c_count = std::max<std::size_t>(1, std::min(chunks, n));
  if (c_count <= 1) {
    f(0, 0, n);
    return;
  }
  const std::size_t block = (n + c_count - 1) / c_count;
  pool.RunDynamic(workers, c_count, [&](std::size_t c, std::size_t) {
    f(c, std::min(n, c * block), std::min(n, (c + 1) * block));
  });
}

}  // namespace overlay
