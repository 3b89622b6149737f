// Tests for the persistent shard worker pool: full coverage of the Run /
// RunPhased contracts (participation, exceptions, reentrancy, phase
// ordering), worker reuse across calls, and on-demand growth when callers
// reconfigure their shard count.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/shard_pool.hpp"

namespace overlay {
namespace {

TEST(ShardPool, RunsEveryShardExactlyOnce) {
  ShardPool pool;
  std::vector<std::atomic<int>> hits(8);
  pool.Run(8, [&](std::size_t s) { ++hits[s]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, ShardZeroRunsOnCaller) {
  ShardPool pool;
  const auto caller = std::this_thread::get_id();
  std::thread::id shard0;
  pool.Run(4, [&](std::size_t s) {
    if (s == 0) shard0 = std::this_thread::get_id();
  });
  EXPECT_EQ(shard0, caller);
}

TEST(ShardPool, SingleShardRunsInlineWithoutWorkers) {
  ShardPool pool;
  bool ran = false;
  pool.Run(1, [&](std::size_t s) {
    EXPECT_EQ(s, 0u);
    EXPECT_EQ(std::this_thread::get_id(), std::this_thread::get_id());
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.num_workers(), 0u);
}

TEST(ShardPool, WorkersPersistAndGrowAcrossReconfiguration) {
  // The satellite scenario: one pool serving callers whose shard count
  // changes between calls. Workers are hoisted once per size increase and
  // reused afterwards.
  ShardPool pool;
  pool.Run(2, [](std::size_t) {});
  EXPECT_EQ(pool.num_workers(), 1u);

  // Distinct worker threads observed across two same-size calls must be
  // identical (reuse, not respawn).
  std::mutex m;
  std::set<std::thread::id> first, second;
  pool.Run(4, [&](std::size_t s) {
    if (s == 0) return;  // caller thread
    std::lock_guard lk(m);
    first.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(pool.num_workers(), 3u);
  pool.Run(4, [&](std::size_t s) {
    if (s == 0) return;
    std::lock_guard lk(m);
    second.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(first, second);

  // Shrinking the shard count leaves the extra workers idle, not dead.
  pool.Run(2, [](std::size_t) {});
  EXPECT_EQ(pool.num_workers(), 3u);
  pool.Run(6, [](std::size_t) {});
  EXPECT_EQ(pool.num_workers(), 5u);
}

TEST(ShardPool, ManyRepeatedCallsProduceStableResults) {
  // Round-loop shape: thousands of handoffs onto the same workers.
  ShardPool pool;
  std::vector<std::uint64_t> acc(4, 0);
  for (int round = 0; round < 2000; ++round) {
    pool.Run(4, [&](std::size_t s) { acc[s] += s + 1; });
  }
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(acc[s], 2000u * (s + 1));
}

TEST(ShardPool, LowestIndexExceptionWinsAndAllShardsStillRun) {
  ShardPool pool;
  std::vector<std::atomic<int>> hits(4);
  try {
    pool.Run(4, [&](std::size_t s) {
      ++hits[s];
      if (s == 2) throw std::runtime_error("two");
      if (s == 1) throw std::runtime_error("one");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "one");
  }
  // The error contract: peers are not cancelled by a throwing shard.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool survives a throwing task.
  pool.Run(4, [&](std::size_t s) { ++hits[s]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ShardPool, ReentrantRunExecutesInline) {
  ShardPool pool;
  std::vector<std::atomic<int>> inner_hits(3);
  std::atomic<int> outer_hits{0};
  pool.Run(2, [&](std::size_t) {
    ++outer_hits;
    // Dispatching onto the pool a task is already running on must not
    // deadlock: the nested call runs inline on this thread.
    const auto me = std::this_thread::get_id();
    pool.Run(3, [&](std::size_t inner) {
      EXPECT_EQ(std::this_thread::get_id(), me);
      ++inner_hits[inner];
    });
  });
  EXPECT_EQ(outer_hits.load(), 2);
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), 2);
}

TEST(ShardPool, RunPhasedSynchronizesPhases) {
  // No shard may enter phase p+1 before every shard finished phase p.
  ShardPool pool;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kSteps = 25;
  std::vector<std::atomic<std::size_t>> done(kShards);
  for (auto& d : done) d = 0;
  pool.RunPhased(kShards, kSteps, [&](std::size_t s, std::size_t step) {
    for (std::size_t peer = 0; peer < kShards; ++peer) {
      // Peers may be at `step` (not yet counted) or have counted `step`
      // already, but never a full phase behind or ahead.
      const std::size_t seen = done[peer].load();
      EXPECT_GE(seen + 1, step + (peer == s ? 1 : 0));
      EXPECT_LE(seen, step + 1);
    }
    ++done[s];
  });
  for (const auto& d : done) EXPECT_EQ(d.load(), kSteps);
}

TEST(ShardPool, RunPhasedBetweenRunsOncePerBoundaryExclusively) {
  ShardPool pool;
  constexpr std::size_t kSteps = 10;
  std::atomic<int> in_body{0};
  std::vector<std::size_t> boundary_steps;
  pool.RunPhased(
      3, kSteps,
      [&](std::size_t, std::size_t) {
        ++in_body;
        --in_body;
      },
      [&](std::size_t step) {
        // All shards are parked at the barrier during the boundary.
        EXPECT_EQ(in_body.load(), 0);
        boundary_steps.push_back(step);
      });
  ASSERT_EQ(boundary_steps.size(), kSteps);
  for (std::size_t i = 0; i < kSteps; ++i) EXPECT_EQ(boundary_steps[i], i);
}

TEST(ShardPool, RunPhasedShardErrorSkipsItsRemainingPhases) {
  ShardPool pool;
  std::vector<std::atomic<int>> phases_run(3);
  try {
    pool.RunPhased(3, 4, [&](std::size_t s, std::size_t step) {
      ++phases_run[s];
      if (s == 1 && step == 1) throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(phases_run[0].load(), 4);
  EXPECT_EQ(phases_run[1].load(), 2);  // threw in phase 1, skipped 2..3
  EXPECT_EQ(phases_run[2].load(), 4);
}

TEST(ShardPool, RunPhasedReentrantExecutesInlineInOrder) {
  ShardPool pool;
  std::vector<int> trace;  // safe: the nested call is serial by contract
  pool.Run(2, [&](std::size_t outer) {
    if (outer != 0) return;
    pool.RunPhased(
        2, 2,
        [&](std::size_t s, std::size_t step) {
          trace.push_back(static_cast<int>(step * 10 + s));
        },
        [&](std::size_t step) { trace.push_back(100 + static_cast<int>(step)); });
  });
  const std::vector<int> want{0, 1, 100, 10, 11, 101};
  EXPECT_EQ(trace, want);
}

TEST(ShardPool, RunDynamicRunsEveryChunkExactlyOnce) {
  ShardPool pool;
  std::vector<std::atomic<int>> hits(23);
  pool.RunDynamic(4, 23, [&](std::size_t c, std::size_t w) {
    EXPECT_LT(w, 4u);
    ++hits[c];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, RunDynamicDeterministicUnderStealing) {
  // Chunks own disjoint output slots and per-worker accumulators are sums,
  // so results must be bit-identical across repeated runs no matter which
  // worker claims which chunk.
  ShardPool pool;
  constexpr std::size_t kChunks = 64;
  std::vector<std::uint64_t> want;
  for (int repeat = 0; repeat < 20; ++repeat) {
    std::vector<std::uint64_t> out(kChunks, 0);
    std::vector<std::uint64_t> per_worker(4, 0);
    pool.RunDynamic(4, kChunks, [&](std::size_t c, std::size_t w) {
      out[c] = c * 0x9e3779b97f4a7c15ULL;
      per_worker[w] += c;  // worker runs one chunk at a time
    });
    std::uint64_t claimed = 0;
    for (const std::uint64_t p : per_worker) claimed += p;
    EXPECT_EQ(claimed, kChunks * (kChunks - 1) / 2);  // every chunk once
    if (repeat == 0) {
      want = out;
    } else {
      EXPECT_EQ(out, want) << "repeat " << repeat;
    }
  }
}

TEST(ShardPool, RunDynamicRebalancesSkewedChunkCosts) {
  // One pathological chunk busy-works while the rest are trivial: with
  // stealing, the other workers drain every cheap chunk. Correctness (every
  // chunk exactly once) is the assertion; the rebalancing itself shows as
  // the cheap chunks not waiting behind the expensive one's worker.
  ShardPool pool;
  constexpr std::size_t kChunks = 32;
  std::vector<std::atomic<int>> hits(kChunks);
  std::atomic<std::uint64_t> sink{0};
  pool.RunDynamic(4, kChunks, [&](std::size_t c, std::size_t) {
    ++hits[c];
    if (c == 0) {
      std::uint64_t acc = 1;
      for (int i = 0; i < 2000000; ++i) acc = acc * 6364136223846793005ULL + c;
      sink += acc;  // keep the busy-work observable
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, RunDynamicSingleChunkFastPathRunsOnCaller) {
  ShardPool pool;
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  pool.RunDynamic(8, 1, [&](std::size_t c, std::size_t w) {
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.num_workers(), 0u);  // no handoff for a single chunk
}

TEST(ShardPool, RunDynamicReentrantExecutesInlineInOrder) {
  ShardPool pool;
  std::mutex m;
  std::vector<std::vector<std::size_t>> orders;
  pool.Run(2, [&](std::size_t) {
    std::vector<std::size_t> order;  // nested call is serial by contract
    pool.RunDynamic(3, 5, [&](std::size_t c, std::size_t w) {
      EXPECT_EQ(w, 0u);
      order.push_back(c);
    });
    std::lock_guard lk(m);
    orders.push_back(std::move(order));
  });
  const std::vector<std::size_t> want{0, 1, 2, 3, 4};
  ASSERT_EQ(orders.size(), 2u);
  EXPECT_EQ(orders[0], want);
  EXPECT_EQ(orders[1], want);
}

TEST(ShardPool, RunDynamicLowestChunkExceptionWinsAndAllChunksRun) {
  ShardPool pool;
  std::vector<std::atomic<int>> hits(12);
  try {
    pool.RunDynamic(3, 12, [&](std::size_t c, std::size_t) {
      ++hits[c];
      if (c == 7) throw std::runtime_error("seven");
      if (c == 4) throw std::runtime_error("four");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "four");
  }
  // A throwing chunk cancels nothing — every chunk still executes once.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool survives a throwing dynamic task.
  pool.RunDynamic(3, 12, [&](std::size_t c, std::size_t) { ++hits[c]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ShardPool, RunDynamicZeroIsANoOp) {
  ShardPool pool;
  bool ran = false;
  pool.RunDynamic(0, 5, [&](std::size_t, std::size_t) { ran = true; });
  pool.RunDynamic(5, 0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ShardPool, RunDynamicBlocksCoverTheRangeInChunkOrder) {
  ShardPool pool;
  // workers == 1 keeps the claim order deterministic, so the block layout
  // itself can be asserted: contiguous, ascending, covering [0, n).
  // n = 9 over 8 chunks has 2-node blocks, so chunks 5–7 start at or past
  // n and must come out empty (lo == hi == n), never with lo > hi.
  for (const std::size_t n : {103u, 9u}) {
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    RunDynamicBlocks(pool, n, 1, 8,
                     [&](std::size_t c, std::size_t lo, std::size_t hi) {
                       EXPECT_EQ(c, blocks.size());
                       EXPECT_LE(lo, hi) << "n " << n << " chunk " << c;
                       blocks.emplace_back(lo, hi);
                     });
    ASSERT_EQ(blocks.size(), 8u);
    EXPECT_EQ(blocks.front().first, 0u);
    EXPECT_EQ(blocks.back().second, n);
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      EXPECT_EQ(blocks[i].first, blocks[i - 1].second) << "n " << n;
    }
  }
  // Chunk count is clamped to the range; a tiny range degenerates inline.
  std::size_t calls = 0;
  RunDynamicBlocks(pool, 1, 4, 8, [&](std::size_t, std::size_t lo,
                                      std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ShardPool, RunShardedBlocksCoverTheRangeWithEmptyTail) {
  ShardPool pool;
  // Same layout as RunDynamicBlocks: ceil(n / shards)-node blocks, so at
  // n = 9 over 8 shards blocks 5–7 are empty rather than inverted.
  std::vector<std::pair<std::size_t, std::size_t>> blocks(8);
  RunShardedBlocks(pool, 9, 8,
                   [&](std::size_t s, std::size_t lo, std::size_t hi) {
                     blocks[s] = {lo, hi};
                   });
  EXPECT_EQ(blocks.front().first, 0u);
  EXPECT_EQ(blocks.back().second, 9u);
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    EXPECT_LE(blocks[s].first, blocks[s].second) << "shard " << s;
    if (s > 0) {
      EXPECT_EQ(blocks[s].first, blocks[s - 1].second) << "shard " << s;
    }
  }
}

TEST(ShardPool, DefaultPoolIsASingleton) {
  ShardPool& a = DefaultShardPool();
  ShardPool& b = DefaultShardPool();
  EXPECT_EQ(&a, &b);
  a.Run(3, [](std::size_t) {});
  EXPECT_GE(a.num_workers(), 2u);
}

TEST(ShardPool, ZeroCountIsANoOp) {
  ShardPool pool;
  bool ran = false;
  pool.Run(0, [&](std::size_t) { ran = true; });
  pool.RunPhased(0, 5, [&](std::size_t, std::size_t) { ran = true; });
  pool.RunPhased(3, 0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace overlay
