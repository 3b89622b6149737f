// Unified surface of the round-based network engines.
//
// Every engine in src/sim — SyncNetwork (reference single-threaded),
// AsyncNetwork (bounded-delay synchronizer), ShardedNetwork (parallel
// sharded executor) — exposes the same protocol-facing API:
//
//   Engine net(EngineConfig{...});
//   while (!done) {
//     for (NodeId v = 0; v < n; ++v)
//       for (const MessageView m : net.Inbox(v)) { ...; net.Send(v, to, msg); }
//     net.EndRound();
//   }
//
// Inboxes are structure-of-arrays arenas (sim/message_soa.hpp) read through
// the zero-copy InboxView/MessageView API; sends go through per-message
// `Send`, the batched `SendBatch` (heterogeneous one-word payloads), or
// `SendFanout` (one payload to many destinations — a flood's shape).
//
// Drivers are written against the `NetworkEngine` concept, so a protocol is
// implemented once and can execute on any engine; engine-specific knobs
// (max_delay, the ExecPolicy) live in the shared EngineConfig and are
// ignored by engines they do not apply to.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/message.hpp"
#include "sim/message_soa.hpp"

namespace overlay {

class ShardPool;
ShardPool& DefaultShardPool();

/// The one execution-context struct of the simulator: how much parallelism
/// to use and which worker pool to run it on. Every driver that used to
/// carry its own `num_shards`/`pool` knob pair (token engine, rapid
/// sampling, hybrid pipeline, monitoring, churn/adversary, scenario
/// generators, engines) now embeds or accepts an ExecPolicy instead — this
/// comment is the single home of the contract those knobs shared:
///
///   * Scheduling never affects results. For a fixed (seed, num_shards)
///     pair every output is bit-identical regardless of how work lands on
///     threads; randomized passes key their RNG streams off the shard or
///     chunk *index*, never off the claiming worker.
///   * num_shards = 1 is the historical serial stream: the caller's RNG is
///     consumed directly, in the exact order the pre-sharding serial code
///     consumed it.
///   * pool = nullptr means DefaultShardPool(), the process-wide pool; a
///     non-null pool only changes *where* work runs, never its outcome.
struct ExecPolicy {
  /// Worker shard count S (drivers clamp to their domain size).
  std::size_t num_shards = 1;
  /// Worker pool to execute on; nullptr = DefaultShardPool().
  ShardPool* pool = nullptr;
  /// Opt-in locality pass (graph/partition.hpp): a graph-driven driver may
  /// first renumber node ids with RelabelFor(g, num_shards, seed) so most
  /// edges fall shard-local, run on the relabeled graph, and map results
  /// back through Relabeling::old_of_new. Relabeling changes where messages
  /// travel, never what a protocol computes: id-invariant outputs (depths,
  /// components, mapped-back checksums) are bit-identical to the unrelabeled
  /// run. Engines themselves ignore the flag (they never see a graph);
  /// honored by the runtime-dispatched BuildBfsTree(EngineKind) form and the
  /// bench workloads.
  bool relabel = false;

  /// The clamp every driver applies: at least 1, at most `domain`.
  std::size_t ShardsFor(std::size_t domain) const {
    const std::size_t s = num_shards < 1 ? 1 : num_shards;
    return domain < 1 ? 1 : (s > domain ? domain : s);
  }
  /// The pool to run on (resolves the nullptr default).
  ShardPool& Pool() const;
};

/// Telemetry the benchmarks report: totals, peaks, and drops.
struct NetworkStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  /// Max messages any single node received in any round (before drops).
  std::uint64_t max_offered_load = 0;
  /// Max messages any single node sent in any round.
  std::uint64_t max_send_load = 0;

  void MergeFrom(const NetworkStats& other);

  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

/// Shared configuration of all engines. Fields an engine does not use are
/// ignored (e.g. max_delay outside AsyncNetwork, exec outside
/// ShardedNetwork), so one config type can parameterize any engine.
struct EngineConfig {
  std::size_t num_nodes = 0;
  /// Per-round, per-node send and receive cap (the model's O(log n)).
  std::size_t capacity = 0;
  std::uint64_t seed = 1;
  /// AsyncNetwork: slowest message delay D, in time steps.
  std::size_t max_delay = 1;
  /// ShardedNetwork: shard count + pool (see ExecPolicy for the contract).
  ExecPolicy exec{};
  /// ShardedNetwork: outbox rows a shard buffers before it eagerly packs the
  /// segment into staging runs *while protocol compute continues* — the
  /// overlap that hides flush work behind compute. Determinism keys off
  /// logical send order, never arrival order, so the cut points cannot
  /// affect results; tests shrink this to force multi-segment rounds.
  std::size_t outbox_segment_rows = 4096;
};

/// Runtime engine selector for drivers that take the choice as data (e.g.
/// hybrid pipeline options) rather than as a template parameter.
enum class EngineKind { kSync, kAsync, kSharded };

/// Enforces the per-node receive cap on one offered bucket — the row range
/// [begin, begin + offered) of `bucket` — in place: when `offered > capacity`
/// a uniformly random subset of `capacity` rows is moved to the front of the
/// range (partial Fisher–Yates over SoA rows) and the excess is accounted as
/// dropped. Updates max_offered_load / messages_dropped / messages_delivered
/// and returns how many messages to deliver.
///
/// Every engine routes its drop decisions through this single definition —
/// the sharded engine's S=1 bit-identical-to-SyncNetwork guarantee rests on
/// all engines consuming `rng` in exactly this pattern (one NextBelow per
/// kept slot, only when the bucket overflows).
std::size_t EnforceReceiveCap(MessageSoA& bucket, std::size_t begin,
                              std::size_t offered, std::size_t capacity,
                              Rng& rng, NetworkStats& stats);

/// Stable counting sort of `src`'s rows by destination: row i goes to node
/// to[i]'s bucket, buckets laid out contiguously in `incoming` with `starts`
/// rebuilt as the n+1 bucket offsets. Stability is load-bearing — per-node
/// delivery order must equal send order for the cross-engine bit-identity
/// contract — so both single-source engines route through this one
/// definition (`cursor` is caller-owned scratch). The sharded engine's
/// per-shard gather walks multiple staged sources and keeps its own cursor
/// loop in DeliverInboxes.
void ScatterByDestination(const MessageSoA& src, std::span<const NodeId> to,
                          std::size_t num_nodes,
                          std::vector<std::size_t>& starts,
                          std::vector<std::size_t>& cursor,
                          MessageSoA& incoming);

/// The shared tail of every engine's delivery pipeline. `arena` holds the
/// round's messages bucketed per receiving node (a ScatterByDestination
/// result), bucket b spanning rows [starts[b], starts[b+1]). Walks the
/// buckets in index order, enforces the receive cap on each (consuming `rng`
/// exactly as EnforceReceiveCap documents), compacts the survivors leftward
/// *in place* — on a drop-free round every row is already in its final slot
/// and no bytes move — rewrites `starts` to the compacted per-node offsets,
/// and returns the delivered-row byte count (kSoaRowBytes per kept row +
/// kSpillBytes per kept spill: the arena-bandwidth metric). Sync/Async call
/// this over global node ids and the sharded engine per destination shard
/// over local ids — one definition, so the engines' RNG-consumption and
/// accounting cannot drift apart.
std::uint64_t CapAndCompactBuckets(MessageSoA& arena,
                                   std::vector<std::size_t>& starts,
                                   std::size_t capacity, Rng& rng,
                                   NetworkStats& stats);

/// The engine concept protocol drivers are templated over.
template <typename E>
concept NetworkEngine =
    std::constructible_from<E, const EngineConfig&> &&
    requires(E e, const E ce, NodeId v, const Message& m,
             std::span<const Envelope> batch, std::span<const NodeId> fanout) {
      { ce.num_nodes() } -> std::convertible_to<std::size_t>;
      { ce.capacity() } -> std::convertible_to<std::size_t>;
      { ce.round() } -> std::convertible_to<std::uint64_t>;
      e.Send(v, v, m);
      e.SendBatch(v, batch);
      e.SendFanout(v, fanout, std::uint32_t{}, std::uint64_t{});
      { ce.Inbox(v) } -> std::convertible_to<InboxView>;
      e.EndRound();
      // By const reference (Sync/Async) or by value (ShardedNetwork, whose
      // merged stats are computed on demand and must not be cached through a
      // const method shared across reader threads).
      { ce.stats() } -> std::convertible_to<NetworkStats>;
      // Bytes moved through message arenas over the whole execution:
      // kSoaRowBytes per delivered message + kSpillBytes per spilled one,
      // plus — on the sharded engine above S = 1 — kPackedRowBytes per
      // message crossing *between shards* on the staging hop (same-shard
      // sends bypass the hop and pay nothing). Deliberately outside
      // NetworkStats: the stats counters are part of the cross-engine
      // bit-identity contract and stay byte-for-byte unchanged by layout
      // work.
      { ce.arena_bytes_moved() } -> std::convertible_to<std::uint64_t>;
    };

}  // namespace overlay
