#include "sim/sharded_network.hpp"

#include <algorithm>
#include <chrono>

namespace overlay {

namespace {
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
}  // namespace

ShardedNetwork::ShardedNetwork(const Config& config)
    : num_nodes_(config.num_nodes),
      capacity_(config.capacity),
      segment_rows_(std::max<std::size_t>(1, config.outbox_segment_rows)),
      pool_(&config.exec.Pool()),
      sent_this_round_(config.num_nodes, 0),
      total_sent_(config.num_nodes, 0) {
  OVERLAY_CHECK(config.num_nodes >= 1, "network needs at least one node");
  OVERLAY_CHECK(config.capacity >= 1, "capacity must be positive");
  OVERLAY_CHECK(config.exec.num_shards >= 1, "need at least one shard");

  const std::size_t s_count = config.exec.ShardsFor(num_nodes_);
  base_ = num_nodes_ / s_count;
  rem_ = num_nodes_ % s_count;

  // Shard 0 uses the config seed verbatim so that a single-sharded engine
  // consumes the exact RNG stream SyncNetwork would (bit-identical runs);
  // further shards get independent SplitMix64-derived streams. All phase
  // scratch is sized here once — the round loop reuses capacity and never
  // allocates in steady state.
  std::uint64_t chain = config.seed;
  shards_.reserve(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    const std::uint64_t shard_seed = s == 0 ? config.seed : SplitMix64(chain);
    const std::size_t local_n = ShardEnd(s) - ShardBase(s);
    Shard shard;
    shard.rng = Rng(shard_seed);
    shard.spill_by_dst.resize(s_count);
    shard.offsets.assign(local_n + 1, 0);
    shard.cursor.assign(std::max(local_n, s_count), 0);
    shards_.push_back(std::move(shard));
  }
}

std::size_t ShardedNetwork::ReserveSends(NodeId from, std::size_t count) {
  OVERLAY_CHECK(from < num_nodes_, "message endpoint out of range");
  OVERLAY_CHECK(sent_this_round_[from] + count <= capacity_,
                "protocol exceeded its per-round send cap");
  sent_this_round_[from] += static_cast<std::uint32_t>(count);
  total_sent_[from] += count;
  const std::size_t s = ShardOf(from);
  shards_[s].partial.messages_sent += count;
  return s;
}

void ShardedNetwork::RollbackSends(Shard& shard, NodeId from, std::size_t count,
                                   std::size_t rows, std::size_t spill) {
  sent_this_round_[from] -= static_cast<std::uint32_t>(count);
  total_sent_[from] -= count;
  shard.partial.messages_sent -= count;
  shard.outbox_to.resize(rows);
  shard.outbox.TruncateTo(rows, spill);
}

void ShardedNetwork::Send(NodeId from, NodeId to, const Message& msg) {
  OVERLAY_CHECK(to < num_nodes_, "message endpoint out of range");
  const std::size_t s = ReserveSends(from, 1);
  Shard& shard = shards_[s];
  shard.outbox_to.push_back(to);
  shard.outbox.PushMessage(from, msg);
  MaybeSealSegment(s);
}

void ShardedNetwork::SendBatch(NodeId from, std::span<const Envelope> batch) {
  const std::size_t s = ReserveSends(from, batch.size());
  Shard& shard = shards_[s];
  // Single pass: validate each target as it is enqueued. A bad target rolls
  // the whole batch back before throwing, so the contract stays
  // throws-with-nothing-enqueued without a second iteration over `batch`.
  // The eager seal runs only after the batch landed, so the rollback marks
  // stay valid for the whole loop.
  const std::size_t rows = shard.outbox_to.size();
  const std::size_t spill = shard.outbox.spill_size();
  for (const Envelope& e : batch) {
    if (e.to >= num_nodes_) {
      RollbackSends(shard, from, batch.size(), rows, spill);
      OVERLAY_CHECK(e.to < num_nodes_, "message endpoint out of range");
    }
    shard.outbox_to.push_back(e.to);
    shard.outbox.PushOneWord(from, e.kind, e.word0);
  }
  MaybeSealSegment(s);
}

void ShardedNetwork::SendFanout(NodeId from, std::span<const NodeId> targets,
                                std::uint32_t kind, std::uint64_t word0) {
  const std::size_t s = ReserveSends(from, targets.size());
  Shard& shard = shards_[s];
  const std::size_t rows = shard.outbox_to.size();
  const std::size_t spill = shard.outbox.spill_size();
  for (const NodeId to : targets) {
    if (to >= num_nodes_) {
      RollbackSends(shard, from, targets.size(), rows, spill);
      OVERLAY_CHECK(to < num_nodes_, "message endpoint out of range");
    }
    shard.outbox_to.push_back(to);
    shard.outbox.PushOneWord(from, kind, word0);
  }
  MaybeSealSegment(s);
}

InboxView ShardedNetwork::Inbox(NodeId v) const {
  OVERLAY_CHECK(v < num_nodes_, "node out of range");
  const Shard& shard = shards_[ShardOf(v)];
  const std::size_t lv = v - ShardBase(ShardOf(v));
  return {shard.arena, shard.offsets[lv], shard.offsets[lv + 1]};
}

void ShardedNetwork::ResetStagingIfStale(Shard& shard) {
  if (!shard.staging_stale) return;
  shard.staged.clear();
  shard.run_offsets.clear();
  for (auto& spill : shard.spill_by_dst) spill.clear();
  shard.self_rows.clear();
  shard.self_spill.clear();
  shard.segments = 0;
  shard.staging_stale = false;
}

void ShardedNetwork::SealSegment(std::size_t s) {
  Shard& shard = shards_[s];
  const std::size_t rows = shard.outbox_to.size();
  if (rows == 0) return;
  const std::size_t s_count = shards_.size();

  // Count the segment per destination shard (touching only the 4-byte `to`
  // column). Self rows bypass the staging hop: they never ship, so they get
  // no staged run and pay no PackedRow bytes.
  auto& fill = shard.cursor;  // hoisted scratch: per-dst-shard write cursors
  std::fill_n(fill.begin(), s_count, std::size_t{0});
  for (const NodeId to : shard.outbox_to) ++fill[ShardOf(to)];
  const std::size_t self_count = fill[s];
  fill[s] = 0;

  // Append this segment's run offsets (runs stay contiguous across the
  // whole staged buffer: segment g's runs start where g-1's ended).
  if (shard.run_offsets.empty()) shard.run_offsets.push_back(0);
  std::size_t acc = shard.run_offsets.back();
  for (std::size_t d = 0; d < s_count; ++d) {
    const std::size_t c = fill[d];
    fill[d] = acc;  // becomes the run's write cursor
    acc += c;
    shard.run_offsets.push_back(acc);
  }
  shard.staged.resize(acc);  // capacity-reusing across rounds

  // Pack each row exactly once with one 24-byte store. A cross-shard spill
  // payload lands in its *destination's* side buffer with a positional
  // index, so each destination's runs + spill buffer are self-contained;
  // self spills keep their own buffer.
  std::size_t cross_spills = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const NodeId to = shard.outbox_to[i];
    const std::size_t d = ShardOf(to);
    if (d == s) {
      shard.self_rows.push_back(shard.outbox.PackRow(to, i, shard.self_spill));
    } else {
      const PackedRow row = shard.outbox.PackRow(to, i, shard.spill_by_dst[d]);
      if (row.ext != kNoExt) ++cross_spills;
      shard.staged[fill[d]++] = row;
    }
  }
  shard.outbox.clear();
  shard.outbox_to.clear();

  const std::size_t cross = rows - self_count;
  const std::uint64_t hop_bytes =
      cross * kPackedRowBytes + cross_spills * kSpillBytes;
  shard.staged_rows += cross;
  shard.staged_bytes += hop_bytes;
  shard.bytes_moved += hop_bytes;  // the staging hop is arena traffic too
  shard.local_rows += self_count;
  ++shard.segments;
}

void ShardedNetwork::MaybeSealSegment(std::size_t s) {
  Shard& shard = shards_[s];
  if (shards_.size() == 1 || shard.outbox_to.size() < segment_rows_) return;
  // Eager seal on the owning thread, overlapped with whatever compute the
  // round is still running — this pack never waits for the barrier.
  const auto t0 = Clock::now();
  ResetStagingIfStale(shard);
  SealSegment(s);
  shard.hidden_pack_seconds += Seconds(t0, Clock::now());
}

void ShardedNetwork::FlushOutbox(std::size_t s) {
  Shard& shard = shards_[s];
  std::uint64_t round_max_send = 0;
  const NodeId lo = ShardBase(s);
  const NodeId hi = ShardEnd(s);
  for (NodeId v = lo; v < hi; ++v) {
    round_max_send = std::max<std::uint64_t>(round_max_send,
                                             sent_this_round_[v]);
    sent_this_round_[v] = 0;
  }
  shard.partial.max_send_load =
      std::max(shard.partial.max_send_load, round_max_send);

  if (shards_.size() == 1) {
    // Single shard: the exchange is the serial engine. DeliverInboxes
    // scatters straight from the outbox — no staging hop, no segments.
    shard.phase_pack_seconds = 0;
    return;
  }

  // Seal the tail segment (everything sent since the last eager seal). A
  // round with no sends still resets stale staging here so phase 2 never
  // re-reads last round's runs. Only the pack work is timed: barrier idle
  // is accounted separately by EndRound.
  const auto t0 = Clock::now();
  ResetStagingIfStale(shard);
  SealSegment(s);
  shard.phase_pack_seconds = Seconds(t0, Clock::now());
}

void ShardedNetwork::DeliverInboxes(std::size_t d) {
  Shard& dst = shards_[d];
  const NodeId base = ShardBase(d);
  const std::size_t local_n = ShardEnd(d) - base;
  const std::size_t s_count = shards_.size();
  const auto t0 = Clock::now();

  if (s_count == 1) {
    // SyncNetwork's exact delivery pipeline on shard 0's state: one stable
    // scatter outbox -> arena, then in-place cap enforcement. Same row
    // order, same RNG pattern — the S=1 bit-identity made structural.
    ScatterByDestination(dst.outbox, dst.outbox_to, num_nodes_, dst.offsets,
                         dst.cursor, dst.arena);
    dst.outbox.clear();
    dst.outbox_to.clear();
    dst.bytes_moved += CapAndCompactBuckets(dst.arena, dst.offsets, capacity_,
                                            dst.rng, dst.partial);
    dst.phase_deliver_seconds = Seconds(t0, Clock::now());
    return;
  }

  // Count per local node across every source's runs addressed to this shard
  // (reading only the packed `to` field), then prefix-sum into the per-node
  // bucket offsets. Every segment counted in `segments` was sealed whole by
  // SealSegment on its owning thread before the phase barrier.
  auto& counts = dst.cursor;  // hoisted scratch: counts, then write cursors
  std::fill_n(counts.begin(), local_n, std::size_t{0});
  std::size_t total = 0;
  for (std::size_t s = 0; s < s_count; ++s) {
    const Shard& src = shards_[s];
    OVERLAY_CHECK(!src.staging_stale,
                  "phase 2 may only read staging sealed this round");
    if (s == d) {
      // Shard-local bypass rows: never staged, delivered directly.
      for (const PackedRow& row : src.self_rows) ++counts[row.to - base];
      total += src.self_rows.size();
      continue;
    }
    for (std::size_t g = 0; g < src.segments; ++g) {
      const std::size_t run_begin = src.run_offsets[g * s_count + d];
      const std::size_t run_end = src.run_offsets[g * s_count + d + 1];
      for (std::size_t i = run_begin; i < run_end; ++i) {
        ++counts[src.staged[i].to - base];
      }
      total += run_end - run_begin;
    }
  }
  std::vector<std::size_t>& starts = dst.offsets;  // rebuilt this round
  starts[0] = 0;
  for (std::size_t lv = 0; lv < local_n; ++lv) {
    starts[lv + 1] = starts[lv] + counts[lv];
  }

  // Stable gather into per-node bucket order, walking the runs in fixed
  // (source shard, segment, send order) — the logical send order, which is
  // what determinism keys off; segment cut points and arrival order cannot
  // change it. One 24-byte row move per message instead of a 4-column
  // scatter. Spill payloads (rare) are pulled from the source's
  // per-destination side buffer into this shard's as their rows pass.
  dst.gather.resize(total);  // capacity-reusing across rounds
  dst.gather_spill.clear();
  std::copy_n(starts.begin(), local_n, counts.begin());  // write cursors
  for (std::size_t s = 0; s < s_count; ++s) {
    const Shard& src = shards_[s];
    const auto take = [&](PackedRow row, std::span<const ExtWords> spill) {
      if (row.ext != kNoExt) {
        const std::uint32_t e = row.ext;
        row.ext = static_cast<std::uint32_t>(dst.gather_spill.size());
        dst.gather_spill.push_back(spill[e]);
      }
      dst.gather[counts[row.to - base]++] = row;
    };
    if (s == d) {
      for (const PackedRow& row : src.self_rows) take(row, src.self_spill);
      continue;
    }
    const std::span<const ExtWords> spill(src.spill_by_dst[d]);
    for (std::size_t g = 0; g < src.segments; ++g) {
      const std::size_t run_end = src.run_offsets[g * s_count + d + 1];
      for (std::size_t i = src.run_offsets[g * s_count + d]; i < run_end;
           ++i) {
        take(src.staged[i], spill);
      }
    }
  }

  // Column-wise unpack into the arena, then capacity enforcement + in-place
  // compaction. The shared helper consumes this shard's stream in local
  // node order — the same pattern SyncNetwork uses, which is what makes
  // S=1 runs bit-identical.
  dst.arena.UnpackColumns(dst.gather, dst.gather_spill);
  dst.bytes_moved += CapAndCompactBuckets(dst.arena, starts, capacity_,
                                          dst.rng, dst.partial);
  dst.phase_deliver_seconds = Seconds(t0, Clock::now());
}

void ShardedNetwork::EndRound() {
  // One pool dispatch per phase; all tail seals land before any shard reads
  // a peer's staging runs (phase 2's input), exactly the ordering the old
  // single-dispatch phase barrier enforced. A shard whose flush throws
  // aborts the round before delivery — Run's contract rethrows here.
  //
  // Timing: each shard samples its own pack/deliver work inside the phase
  // bodies; the round's flush/deliver cost is the slowest shard's (the
  // critical path), and whatever EndRound wall time remains is barrier wait
  // plus pool handoff — reported separately so overlap wins are visible
  // instead of being folded into the phase numbers.
  const auto t0 = Clock::now();
  pool_->Run(shards_.size(), [this](std::size_t s) { FlushOutbox(s); });
  pool_->Run(shards_.size(), [this](std::size_t s) { DeliverInboxes(s); });
  const auto t1 = Clock::now();
  double pack_crit = 0;
  double deliver_crit = 0;
  for (Shard& shard : shards_) {
    pack_crit = std::max(pack_crit, shard.phase_pack_seconds);
    deliver_crit = std::max(deliver_crit, shard.phase_deliver_seconds);
    // Hand last round's staging to the next round's first seal for reset;
    // phase 2 is over, so no reader is left.
    shard.staging_stale = shards_.size() > 1;
  }
  const double elapsed = Seconds(t0, t1);
  flush_seconds_ += pack_crit;
  deliver_seconds_ += deliver_crit;
  barrier_seconds_ += std::max(0.0, elapsed - pack_crit - deliver_crit);
  exchange_seconds_ += elapsed;
  ++rounds_;
}

NetworkStats ShardedNetwork::stats() const {
  NetworkStats merged;
  merged.rounds = rounds_;
  for (const Shard& shard : shards_) merged.MergeFrom(shard.partial);
  return merged;
}

std::uint64_t ShardedNetwork::arena_bytes_moved() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.bytes_moved;
  return total;
}

std::uint64_t ShardedNetwork::staged_rows() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.staged_rows;
  return total;
}

std::uint64_t ShardedNetwork::staged_bytes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.staged_bytes;
  return total;
}

std::uint64_t ShardedNetwork::local_rows() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.local_rows;
  return total;
}

double ShardedNetwork::hidden_flush_seconds() const {
  double total = 0;
  for (const Shard& shard : shards_) total += shard.hidden_pack_seconds;
  return total;
}

std::uint64_t ShardedNetwork::MaxTotalSentPerNode() const {
  // Shard-parallel reduction: each shard folds its own node range on its
  // pool worker, the caller folds the per-shard maxima. Scheduling only —
  // the result is the same max whichever thread computes each block.
  const std::size_t s_count = shards_.size();
  std::vector<std::uint64_t> best(s_count, 0);
  pool_->Run(s_count, [&](std::size_t s) {
    std::uint64_t m = 0;
    const NodeId hi = ShardEnd(s);
    for (NodeId v = ShardBase(s); v < hi; ++v) {
      m = std::max(m, total_sent_[v]);
    }
    best[s] = m;
  });
  return *std::max_element(best.begin(), best.end());
}

}  // namespace overlay
