// Sharded parallel round engine (NCC0 semantics, multi-core EndRound).
//
// Nodes are partitioned into S contiguous shards. Each shard owns
//   - a flat SoA inbox arena (parallel src/kind/word0/ext columns plus a
//     spill arena for the rare multi-word payloads — sim/message_soa.hpp —
//     with per-node offsets, replacing per-node vectors),
//   - an SoA outbox *segment* of its nodes' most recent sends (routing
//     `to` column kept separate so partitioning touches 4 bytes/message),
//   - staging state for the inter-shard hop: sealed 24-byte PackedRow runs
//     laid out per (segment, destination shard), one spill side buffer *per
//     destination* so every run is self-contained, and the same-shard rows
//     diverted past the hop entirely,
//   - a private RNG stream that drives its capacity-drop choices.
//
// Overlapped flush: when a shard's outbox segment reaches
// EngineConfig::outbox_segment_rows it is sealed on the owning worker —
// counting-sorted into per-destination PackedRow runs — *while protocol
// compute continues*, so most pack work hides behind compute instead of
// serializing at the EndRound barrier (hidden_flush_seconds() reports it).
// EndRound's phase 1 only seals the tail segment; per-segment ready flags
// are consumed (OVERLAY_CHECK) at the barrier before phase 2 reads a peer's
// runs. Same-shard sends (`ShardOf(to) == ShardOf(from)`) skip the staging
// hop: they are packed to a shard-local side list and delivered directly,
// which is what makes locality-aware relabeling (graph/partition.hpp) cut
// staged bytes — staged_rows/staged_bytes count only rows that actually
// cross shards; local_rows() counts the bypass.
//
// EndRound is a two-phase exchange executed by one worker thread per shard:
//   phase 1 (parallel over *source* shards): each shard seals its tail
//     segment and folds its nodes' send counters into the send-load stats;
//   phase 2 (parallel over *destination* shards): each shard walks the runs
//     addressed to it in fixed (source shard, segment, send order) — its own
//     shard-local bypass rows slot in at source == destination — gathers the
//     packed rows into per-node bucket order, unpacks them column-wise into
//     its arena, enforces the receive cap with a uniformly random drop from
//     its own RNG stream, and compacts survivors in place.
//
// Determinism: keyed off *logical send order*, never arrival order or
// segment cut points — per-node message order is fixed by (source shard,
// send order), each drop decision uses the destination shard's private
// stream, and outbox_segment_rows can only change when pack work happens,
// not what it produces. For a fixed (seed, num_shards) the execution is
// bit-identical regardless of thread scheduling. With num_shards = 1 the
// engine consumes randomness in exactly SyncNetwork's order, so delivered
// inboxes, drops, and stats are bit-identical to the reference engine on the
// same seed (tested, and gated by tests/engine_equivalence_test.cpp).
//
// Protocol compute can also be sharded: ForEachNode(f) runs f(v) for every
// node on the owning shard's worker. Within f, a node may freely read its
// Inbox and Send from itself; all engine state touched is shard-private
// (eager seals included — a shard only ever packs its own outbox).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "sim/message_soa.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

/// Parallel sharded engine; drop-in for SyncNetwork behind `NetworkEngine`.
/// All parallel phases execute on a persistent ShardPool (DefaultShardPool
/// unless one is injected), so repeated EndRound/ForEachNode calls reuse
/// long-lived worker threads instead of spawning per call.
class ShardedNetwork {
 public:
  using Config = EngineConfig;

  /// Shard count and worker pool come from `config.exec` (ExecPolicy): the
  /// pool may be shared across engines and shard counts; it only schedules,
  /// so outputs for a fixed (seed, num_shards) are identical whichever pool
  /// executes them.
  explicit ShardedNetwork(const Config& config);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t num_shards() const { return shards_.size(); }
  std::uint64_t round() const { return rounds_; }

  /// Queues a message from `from` to `to` for delivery next round. Raises
  /// ContractViolation if `from` exceeds its send cap this round. Thread-safe
  /// across shards: may be called concurrently for `from` nodes owned by
  /// different shards (ForEachNode guarantees exactly that). The same holds
  /// for SendBatch and SendFanout.
  void Send(NodeId from, NodeId to, const Message& msg);

  /// Queues every envelope of `batch` in one append onto `from`'s shard
  /// outbox — one cap check and one stats update for the whole batch.
  void SendBatch(NodeId from, std::span<const Envelope> batch);

  /// Queues one (kind, word0) payload to every node of `targets`.
  void SendFanout(NodeId from, std::span<const NodeId> targets,
                  std::uint32_t kind, std::uint64_t word0);

  /// Messages delivered to `v` at the beginning of the current round.
  InboxView Inbox(NodeId v) const;

  /// Closes the round with the two-phase parallel exchange described above.
  void EndRound();

  /// Advances the round counter by `k` without message activity (see
  /// SyncNetwork::SkipRounds).
  void SkipRounds(std::uint64_t k) { rounds_ += k; }

  /// Merged engine statistics, recomputed from the per-shard partials. By
  /// value: concurrent const readers must not share a cache slot.
  NetworkStats stats() const;

  /// Bytes moved through message arenas across all shards: delivered inbox
  /// rows plus the inter-shard staging hop (staged_bytes). With S = 1 there
  /// is no staging hop and this replays SyncNetwork's accounting exactly;
  /// above S = 1 every message that crosses shards additionally pays
  /// kPackedRowBytes on the hop (plus kSpillBytes when it spills) —
  /// same-shard sends bypass the hop and pay nothing extra.
  std::uint64_t arena_bytes_moved() const;

  /// Rows / bytes the multi-shard staging hop moved over the whole
  /// execution (0 when S = 1 — the hop is skipped). Only rows crossing
  /// shards count; bytes/rows is the staged bytes-per-row metric the bench
  /// gate pins at kPackedRowBytes for spill-free workloads.
  std::uint64_t staged_rows() const;
  std::uint64_t staged_bytes() const;

  /// Sent rows that stayed on their own shard and bypassed the staging hop
  /// (0 when S = 1, where every row is trivially local and uncounted).
  /// staged_rows() + local_rows() == total rows sent at S > 1; the
  /// shard-local fraction is the locality metric relabeling improves.
  std::uint64_t local_rows() const;

  /// Cumulative wall-clock seconds of the exchange, split by where the time
  /// went. Per round: flush = the slowest shard's phase-1 tail-seal pack
  /// (pack work only — barrier idle is *not* folded in), deliver = the
  /// slowest shard's phase-2 gather/unpack/cap, barrier = the EndRound
  /// residual (barrier waits + pool handoff), exchange = the whole EndRound
  /// wall time. flush + deliver + barrier == exchange up to the clock
  /// granularity of the per-shard samples. Telemetry only — never affects
  /// results.
  double exchange_flush_seconds() const { return flush_seconds_; }
  double exchange_deliver_seconds() const { return deliver_seconds_; }
  double exchange_barrier_seconds() const { return barrier_seconds_; }
  double exchange_seconds() const { return exchange_seconds_; }

  /// Cumulative seconds of eager segment-seal pack work that ran overlapped
  /// with protocol compute (summed over shards) — flush cost hidden behind
  /// compute rather than paid at the barrier. The flush-hidden fraction is
  /// hidden / (hidden + exchange_flush_seconds()).
  double hidden_flush_seconds() const;

  std::uint64_t TotalSentBy(NodeId v) const { return total_sent_[v]; }
  std::uint64_t MaxTotalSentPerNode() const;

  /// Shard owning node `v`. Nodes are split as evenly as possible: the
  /// first `rem_` shards own `base_ + 1` contiguous nodes, the rest `base_`,
  /// so exactly min(num_shards, num_nodes) shards exist.
  std::size_t ShardOf(NodeId v) const {
    const std::size_t big = rem_ * (base_ + 1);
    return v < big ? v / (base_ + 1) : rem_ + (v - big) / base_;
  }

  /// Runs `f(v)` for every node, each shard's range on its own worker.
  /// `f` may call Inbox(v) and Send(v, ...) for the node it was invoked on.
  template <typename F>
  void ForEachNode(F&& f) {
    pool_->Run(shards_.size(), [&](std::size_t s) {
      const NodeId lo = ShardBase(s);
      const NodeId hi = ShardEnd(s);
      for (NodeId v = lo; v < hi; ++v) f(v);
    });
  }

  /// Runs `f(s, lo, hi)` once per shard on that shard's worker, where
  /// [lo, hi) is the shard's node range. The shape drivers with per-shard
  /// state (e.g. a private RNG stream per shard) build on: f owns every
  /// node in its range exactly as under ForEachNode, plus whatever state
  /// it indexes by s.
  template <typename F>
  void ForEachShard(F&& f) {
    pool_->Run(shards_.size(), [&](std::size_t s) {
      f(s, ShardBase(s), ShardEnd(s));
    });
  }

 private:
  /// All mutable state a worker touches in a phase is shard-private. Every
  /// scratch buffer is hoisted here and reused capacity-preserving across
  /// rounds — the round loop allocates nothing in steady state. The staging
  /// state of the previous round is only reset lazily at the next seal
  /// (phase 2 of *other* shards reads it, so its owner must not touch it
  /// after the phase barrier; `staging_stale` marks the handoff).
  struct Shard {
    Rng rng;
    std::vector<NodeId> outbox_to;            ///< active segment routing
    MessageSoA outbox;                        ///< active segment sends
    std::vector<PackedRow> staged;            ///< sealed cross-shard rows,
                                              ///< runs per (segment, dst)
    std::vector<std::size_t> run_offsets;     ///< run (g, d) spans
                                              ///< [g*S + d, g*S + d + 1);
                                              ///< segments*S + 1 slots
    std::vector<std::vector<ExtWords>> spill_by_dst;  ///< per-destination
                                              ///< side buffers the runs'
                                              ///< ext indices point into
    std::vector<PackedRow> self_rows;         ///< same-shard bypass rows,
                                              ///< logical send order
    std::vector<ExtWords> self_spill;         ///< side buffer of self_rows
    std::size_t segments = 0;                 ///< sealed segments this
                                              ///< round (runs per dst in
                                              ///< run_offsets)
    bool staging_stale = false;               ///< last round's staging still
                                              ///< in place; reset at next
                                              ///< seal
    std::vector<PackedRow> gather;            ///< phase 2 scratch: my rows
                                              ///< in per-node bucket order
    std::vector<ExtWords> gather_spill;       ///< side buffer of `gather`
    MessageSoA arena;                         ///< delivered inbox storage
                                              ///< (compacted in place)
    std::vector<std::size_t> offsets;         ///< per local node, +1 slot
    std::vector<std::size_t> cursor;          ///< count/cursor scratch,
                                              ///< >= max(S, local_n) slots
    NetworkStats partial;                     ///< rounds field unused
    std::uint64_t bytes_moved = 0;            ///< delivered + staged bytes
    std::uint64_t staged_rows = 0;            ///< rows through the hop
    std::uint64_t staged_bytes = 0;           ///< bytes through the hop
    std::uint64_t local_rows = 0;             ///< rows that bypassed the hop
    double hidden_pack_seconds = 0;           ///< cumulative eager-seal pack
                                              ///< time (overlapped)
    double phase_pack_seconds = 0;            ///< this round's phase-1 pack
    double phase_deliver_seconds = 0;         ///< this round's phase-2 work
  };

  NodeId ShardBase(std::size_t s) const {
    return static_cast<NodeId>(s * base_ + std::min(s, rem_));
  }
  NodeId ShardEnd(std::size_t s) const { return ShardBase(s + 1); }

  /// Shared head of every send path: validates `from` and the cap for
  /// `count` messages, folds the counters/stats (throws with nothing
  /// enqueued), and returns `from`'s shard index for the enqueue loop.
  std::size_t ReserveSends(NodeId from, std::size_t count);

  /// Undoes ReserveSends plus any rows the single-pass batch loops already
  /// enqueued, restoring the outbox to (`rows`, `spill`) — the batch send
  /// paths' throws-with-nothing-enqueued contract without a pre-validation
  /// pass over the targets. Safe against eager seals: a segment is only
  /// sealed *after* a send path completed, so the rollback marks always
  /// refer to the still-active segment.
  void RollbackSends(Shard& shard, NodeId from, std::size_t count,
                     std::size_t rows, std::size_t spill);

  /// Clears last round's staging state on first touch of the new round.
  void ResetStagingIfStale(Shard& shard);

  /// Counting-sorts the active outbox segment into per-destination staged
  /// runs (self rows to the bypass list), appends the segment's run offsets
  /// and ready flag, and clears the outbox for the next segment.
  void SealSegment(std::size_t s);

  /// Eager-seal check at the tail of every send path: full segments are
  /// packed immediately, on the owning thread, overlapped with compute.
  void MaybeSealSegment(std::size_t s);

  void FlushOutbox(std::size_t s);    ///< phase 1 body
  void DeliverInboxes(std::size_t s); ///< phase 2 body

  std::size_t num_nodes_;
  std::size_t capacity_;
  std::size_t base_;  ///< nodes per shard; first `rem_` shards get one more
  std::size_t rem_;
  std::size_t segment_rows_;     ///< eager-seal threshold (config)
  std::uint64_t rounds_ = 0;
  double flush_seconds_ = 0;     ///< cumulative critical-path phase-1 pack
  double deliver_seconds_ = 0;   ///< cumulative critical-path phase-2 work
  double barrier_seconds_ = 0;   ///< cumulative EndRound residual
  double exchange_seconds_ = 0;  ///< cumulative EndRound wall time
  ShardPool* pool_;  ///< never null; executes every parallel phase
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> sent_this_round_;  ///< per node
  std::vector<std::uint64_t> total_sent_;       ///< per node
};

static_assert(NetworkEngine<ShardedNetwork>);

}  // namespace overlay
