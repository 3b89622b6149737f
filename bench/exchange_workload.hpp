// The shared engine workload of the exchange benches.
//
// bench_parallel_scaling and bench_exchange measure the same drive — every
// node sends `sends` one-word messages per round to hash-picked destinations
// (Poisson-like offered loads around the cap, exercising the random-drop
// path) — and the CI gates compare their numbers, so the workload lives in
// exactly one place: an edit here changes both benches together, never one.
#pragma once

#include <chrono>
#include <type_traits>

#include "graph/graph.hpp"
#include "sim/inbox_checksum.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"

namespace overlay::bench {

/// The sharded engine drives per-node work on its own shard workers and
/// reports the two-phase exchange telemetry; SyncNetwork runs serially.
template <typename Net>
inline constexpr bool kShardDriven = std::is_same_v<Net, ShardedNetwork>;

/// Destination hash: a pure function of (node, round, send index), so every
/// engine sees the identical send sequence.
inline std::uint64_t DestHash(NodeId v, std::size_t round, std::size_t i) {
  return (v * 0x9e3779b97f4a7c15ULL) ^ (round * 0xbf58476d1ce4e5b9ULL) ^
         (i * 0x94d049bb133111ebULL);
}

struct RunResult {
  double seconds = 0;  ///< drive + EndRound wall time over all rounds
  std::uint64_t checksum = 0;
  NetworkStats stats;
  // ShardedNetwork phase telemetry (zero for SyncNetwork): cumulative
  // EndRound wall time split at the phase barrier. The drive loop is
  // seconds - exchange_sec — together they localize which side of the
  // exchange a perf regression lives on.
  double flush_sec = 0;
  double exchange_sec = 0;
  double deliver_sec = 0;
  /// Barrier handoff: exchange_sec minus the pack and deliver critical
  /// paths — the synchronization cost the phase split exposes.
  double barrier_sec = 0;
  /// Pack work that ran eagerly during compute (sealed outbox segments),
  /// off the exchange critical path entirely. The overlap win.
  double hidden_flush_sec = 0;
};

/// Drives `rounds` rounds of the workload. The sharded engine processes the
/// send loop on its shard workers via ForEachNode; SyncNetwork serially.
/// Only the engine work (sends + EndRound) is timed; the serial checksum
/// walk is verification overhead and would otherwise Amdahl-cap the
/// measurable speedup.
template <typename Net>
RunResult RunHashedWorkload(Net& net, std::size_t rounds, std::size_t sends) {
  const std::size_t n = net.num_nodes();
  std::uint64_t checksum = kFnvOffsetBasis;
  RunResult r;
  for (std::size_t round = 0; round < rounds; ++round) {
    auto drive = [&](NodeId v) {
      for (std::size_t i = 0; i < sends; ++i) {
        Message m;
        m.kind = 1;
        m.words[0] = DestHash(v, round, i);
        net.Send(v, static_cast<NodeId>(m.words[0] % n), m);
      }
    };
    const auto start = std::chrono::steady_clock::now();
    if constexpr (kShardDriven<Net>) {
      net.ForEachNode(drive);
    } else {
      for (NodeId v = 0; v < n; ++v) drive(v);
    }
    net.EndRound();
    const auto stop = std::chrono::steady_clock::now();
    r.seconds += std::chrono::duration<double>(stop - start).count();
    checksum = ChecksumInboxes(net, checksum);
  }
  r.checksum = checksum;
  r.stats = net.stats();
  if constexpr (kShardDriven<Net>) {
    r.flush_sec = net.exchange_flush_seconds();
    r.exchange_sec = net.exchange_seconds();
    r.deliver_sec = net.exchange_deliver_seconds();
    r.barrier_sec = net.exchange_barrier_seconds();
    r.hidden_flush_sec = net.hidden_flush_seconds();
  }
  return r;
}

/// The locality workload: every node fanouts one one-word message to its
/// full neighbor list each round — the flooding traffic shape the protocol
/// drivers actually generate, where a locality-aware relabeling can turn
/// cross-shard staging into same-shard bypass. Capacity must be >=
/// g.MaxDegree() for the run to be drop-free (stats then depend only on the
/// edge multiset, so plain and relabeled runs must agree with SyncNetwork).
template <typename Net>
RunResult RunGraphFanoutWorkload(Net& net, const Graph& g,
                                 std::size_t rounds) {
  std::uint64_t checksum = kFnvOffsetBasis;
  RunResult r;
  for (std::size_t round = 0; round < rounds; ++round) {
    auto drive = [&](NodeId v) {
      net.SendFanout(v, g.Neighbors(v), /*kind=*/1, DestHash(v, round, 0));
    };
    const auto start = std::chrono::steady_clock::now();
    if constexpr (kShardDriven<Net>) {
      net.ForEachNode(drive);
    } else {
      for (NodeId v = 0; v < g.num_nodes(); ++v) drive(v);
    }
    net.EndRound();
    const auto stop = std::chrono::steady_clock::now();
    r.seconds += std::chrono::duration<double>(stop - start).count();
    checksum = ChecksumInboxes(net, checksum);
  }
  r.checksum = checksum;
  r.stats = net.stats();
  if constexpr (kShardDriven<Net>) {
    r.flush_sec = net.exchange_flush_seconds();
    r.exchange_sec = net.exchange_seconds();
    r.deliver_sec = net.exchange_deliver_seconds();
    r.barrier_sec = net.exchange_barrier_seconds();
    r.hidden_flush_sec = net.hidden_flush_seconds();
  }
  return r;
}

}  // namespace overlay::bench
