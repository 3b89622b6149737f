// Persistent shard worker pool (the execution substrate of src/sim).
//
// Every parallel phase in the simulator — ShardedNetwork::EndRound /
// ForEachNode and the token engine's sharded walks — used to spawn fresh
// std::jthreads per call. At the acceptance workload (100k nodes, tens of
// rounds) that is invisible; at realistic round counts (small n, 10^4+
// rounds) per-call thread setup dominates the round loop. ShardPool hoists
// the workers once and hands tasks to them with a generation counter:
//
//   ShardPool pool;                       // or DefaultShardPool()
//   pool.Run(S, [&](std::size_t s) { ... });   // fn(0..S-1), fn(0) inline
//
// Run(count, fn) executes fn(s) for every s in [0, count): the calling
// thread runs fn(0) itself (shard 0 stays on the caller, preserving the
// serial fast path's cache locality) and workers 1..count-1 run the rest.
// The pool grows on demand, so one pool serves callers with different
// shard counts (shard-count reconfiguration is just the next Run call).
//
// Determinism: the pool only schedules; it injects no randomness and no
// ordering. A task that is deterministic per shard index stays bit-identical
// whether it runs on fresh threads, pooled threads, or inline.
//
// Reentrancy: a task that itself calls Run (e.g. a per-component pipeline
// whose inner BFS runs on a sharded engine backed by the same pool) is
// executed inline on the calling worker, serially over its shard indices,
// instead of deadlocking on the pool. Concurrent Run calls from distinct
// non-worker threads serialize on an internal mutex.
//
// Exceptions thrown by fn are captured per shard and the lowest-index one
// is rethrown from Run after every participant finished — the same contract
// the fresh-jthread implementations had.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace overlay {

class ShardPool {
 public:
  /// Creates a pool with `workers` hoisted threads (they sleep until the
  /// first Run). More are spawned on demand by Run, so 0 is a fine start.
  explicit ShardPool(std::size_t workers = 0);

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Joins all workers. Must not race with Run calls.
  ~ShardPool();

  /// Runs fn(s) for s in [0, count); fn(0) on the calling thread, the rest
  /// on pool workers. Blocks until all participants finished; rethrows the
  /// lowest-index captured exception. count == 0 is a no-op. Reentrant
  /// calls (from inside a running task) execute inline and serially.
  ///
  /// Tasks must not contain their own cross-shard barriers (a reentrant
  /// inline execution could not satisfy them) — multi-phase work goes
  /// through RunPhased, whose barrier the pool manages.
  void Run(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Work-stealing variant of Run for skewed workloads: executes
  /// fn(chunk, worker) for every chunk in [0, chunks), claimed dynamically
  /// by `workers` participants (clamped to chunks) off a shared atomic
  /// counter — a worker that finishes its chunk early immediately claims
  /// the next unclaimed one instead of idling behind a slow peer. `worker`
  /// is the claiming participant's index in [0, workers): the hook for
  /// per-worker accumulators (e.g. load counts), which are safe because a
  /// worker runs one chunk at a time.
  ///
  /// Determinism: claiming order is scheduling-dependent, so fn must be
  /// deterministic per chunk index and chunks must own disjoint state (the
  /// Run contract); per-worker accumulators must be merge-order-invariant
  /// (e.g. sums). Under those rules results are bit-identical however the
  /// chunks land on workers.
  ///
  /// Error contract mirrors Run: every chunk executes (a throwing chunk
  /// never cancels claimed peers), the lowest-chunk-index exception is
  /// rethrown. chunks == 1 is an allocation-free direct call; reentrant
  /// dispatch (and workers == 1) executes inline, chunks in order.
  void RunDynamic(std::size_t workers, std::size_t chunks,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs `steps` barrier-synchronized phases over `count` shards: within a
  /// phase, body(s, step) runs once per shard on the same threads as Run;
  /// every shard finishes phase p before any shard enters p+1
  /// (std::barrier). `between(step)`, when given, runs exactly once per
  /// phase boundary on a single thread while all shards are parked — the
  /// place for cross-shard merges (e.g. the token engine's per-step load
  /// fold). A shard that throws skips its remaining phases but keeps
  /// arriving, so peers are never left waiting; the lowest-index shard
  /// error (else the first `between` error) is rethrown at the end.
  /// Reentrant calls execute inline: phases in order, shards in order.
  void RunPhased(std::size_t count, std::size_t steps,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 const std::function<void(std::size_t)>& between = {});

  /// Workers currently hoisted (grows on demand; never shrinks).
  std::size_t num_workers() const;

 private:
  void EnsureWorkers(std::size_t needed);
  void WorkerLoop(std::size_t index, std::uint64_t seen);

  mutable std::mutex mutex_;               ///< guards all handoff state
  std::condition_variable task_ready_;
  std::condition_variable task_done_;
  std::mutex run_mutex_;                   ///< serializes Run callers
  std::vector<std::jthread> workers_;

  // Handoff state (all under mutex_).
  std::uint64_t generation_ = 0;  ///< bumped once per Run
  std::size_t participants_ = 0;  ///< workers active this generation
  std::size_t pending_ = 0;       ///< participants not yet finished
  bool stopping_ = false;
  const std::function<void(std::size_t)>* task_ = nullptr;

  /// errors_[s] is written only by shard s's thread during a Run and read
  /// by the caller after the completion wait (ordered via mutex_).
  std::vector<std::exception_ptr> errors_;
};

/// The process-wide pool the engines share by default: ShardedNetwork
/// without an explicit pool and the token engine both run here, so a
/// simulation reuses one set of OS threads across every parallel phase.
ShardPool& DefaultShardPool();

/// The block-partition idiom every sharded driver pass uses: splits
/// [0, n) into `shards` contiguous blocks and runs f(s, lo, hi) once per
/// shard on `pool` (inline and serial when shards <= 1). `shards` is
/// clamped to n, so callers sizing per-shard state by their own
/// min(shards, n) agree with the blocks f sees. Blocks are ceil(n / shards)
/// long, so trailing blocks may be empty (lo == hi == n; e.g. n = 9 over 8
/// shards leaves blocks 5–7 empty). A body without randomness
/// is shard-count-invariant; one with per-shard RNG streams indexed by `s`
/// is deterministic for a fixed (seed, shards).
void RunShardedBlocks(
    ShardPool& pool, std::size_t n, std::size_t shards,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& f);

/// Chunk oversubscription the work-stealing drivers default to: carving a
/// range into ~4 chunks per worker keeps every worker busy until the tail
/// even when per-chunk costs are skewed 4:1, while chunk-claim overhead
/// (one relaxed fetch_add per chunk) stays negligible.
inline constexpr std::size_t kStealChunksPerWorker = 4;

/// Work-stealing analogue of RunShardedBlocks: splits [0, n) into `chunks`
/// contiguous blocks and runs f(c, lo, hi) once per block, blocks claimed
/// dynamically by up to `workers` pool participants (RunDynamic). Block
/// boundaries depend only on (n, chunks) — never on scheduling — so a
/// randomness-free f is deterministic, and one that indexes per-chunk state
/// (e.g. a split RNG stream per chunk) is deterministic for fixed
/// (seed, chunks). chunks is clamped to n; chunks <= 1 runs f(0, 0, n)
/// inline. As in RunShardedBlocks, trailing blocks may be empty.
void RunDynamicBlocks(
    ShardPool& pool, std::size_t n, std::size_t workers, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& f);

}  // namespace overlay
