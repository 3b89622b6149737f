// Cross-engine differential harness — the standing engine gate.
//
// PR 1/2 rested every engine's correctness story on "S=1 bit-identical to
// SyncNetwork, S>1 value-identical" claims checked ad hoc per suite. This
// harness systematizes them: randomized workloads and the four protocol
// drivers (BFS-tree build, message-passing evolution, monitoring
// convergecast, token walks) run over seeds × engines (SyncNetwork vs
// ShardedNetwork at S ∈ {1, 2, 4, 8}, plus AsyncNetwork across max_delay
// values) and assert
//   - bit-identical result checksums wherever the protocol draws no
//     engine-side randomness (BFS on every shard count; everything at S=1),
//   - identical NetworkStats wherever the workload is engine-independent,
//   - bit-identical replay for a fixed (seed, S) everywhere else.
// Any arena/layout/engine change that perturbs delivery order, drop
// choices, or stats accounting fails here first. Registered in CTest under
// the `diff` label (CI runs it as its own job); the tier-1 suites carry the
// `tier1` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/scenario_gen.hpp"
#include "overlay/adversary.hpp"
#include "overlay/churn.hpp"
#include "overlay/benign.hpp"
#include "overlay/bfs_tree.hpp"
#include "overlay/construct.hpp"
#include "overlay/evolution.hpp"
#include "overlay/evolution_mp.hpp"
#include "overlay/monitoring.hpp"
#include "overlay/service.hpp"
#include "sim/async_network.hpp"
#include "sim/inbox_checksum.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"
#include "sim/token_engine.hpp"

namespace overlay {
namespace {

constexpr std::size_t kShardSweep[] = {1, 2, 4, 8};

// Fnv1a / ChecksumInboxes come from sim/inbox_checksum.hpp — the same
// definitions the CI bench checksum gate certifies with.

std::uint64_t Checksum(std::uint64_t h, std::span<const NodeId> xs) {
  for (const NodeId x : xs) h = Fnv1a(h, x);
  return h;
}

// ---- raw engine workload ---------------------------------------------------

/// Hash-driven random workload, a pure function of (node, round, seed): every
/// node sends `sends` messages per round, overloading receivers so the
/// drop/Fisher–Yates path is exercised. Returns the running inbox checksum
/// over all rounds.
template <typename Net>
std::uint64_t DriveRawWorkload(Net& net, std::size_t rounds, std::size_t sends,
                               std::uint64_t salt) {
  const std::size_t n = net.num_nodes();
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < sends; ++i) {
        const std::uint64_t x = (v * 0x9e3779b97f4a7c15ULL) ^
                                (round * 0xbf58476d1ce4e5b9ULL) ^
                                (i * 0x94d049bb133111ebULL) ^ salt;
        Message m;
        m.kind = 1 + static_cast<std::uint32_t>(x % 3);
        m.words[0] = x;
        if (x % 7 == 0) m.words[1] = ~x;  // exercise the spill path too
        net.Send(v, static_cast<NodeId>(x % n), m);
      }
    }
    net.EndRound();
    h = ChecksumInboxes(net, h);
  }
  return h;
}

TEST(EngineEquivalence, RawWorkloadAcrossSeedsAndShardCounts) {
  const std::size_t n = 48;
  const std::size_t cap = 3;
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
    const std::uint64_t want = DriveRawWorkload(sync, 12, cap, seed);
    ASSERT_GT(sync.stats().messages_dropped, 0u) << "workload must drop";
    for (const std::size_t shards : kShardSweep) {
      ShardedNetwork net({.num_nodes = n, .capacity = cap, .seed = seed,
                          .exec = {.num_shards = shards}});
      const std::uint64_t got = DriveRawWorkload(net, 12, cap, seed);
      if (shards == 1) {
        // The tentpole guarantee: S=1 replays the reference engine bit for
        // bit — same inbox contents in the same per-node order, same drops.
        EXPECT_EQ(got, want) << "seed " << seed;
      } else {
        // Different drop *choices* are legal; every stat is not.
        ShardedNetwork replay({.num_nodes = n, .capacity = cap, .seed = seed,
                               .exec = {.num_shards = shards}});
        EXPECT_EQ(DriveRawWorkload(replay, 12, cap, seed), got)
            << "seed " << seed << " S " << shards << " not deterministic";
      }
      EXPECT_EQ(net.stats(), sync.stats()) << "seed " << seed << " S "
                                           << shards;
      if (shards == 1) {
        // Byte accounting is part of the S=1 replay: no staging hop exists,
        // so the counter must equal SyncNetwork's exactly.
        EXPECT_EQ(net.arena_bytes_moved(), sync.arena_bytes_moved());
        EXPECT_EQ(net.staged_rows(), 0u);
        EXPECT_EQ(net.staged_bytes(), 0u);
      } else {
        // Above S=1 a sent message either crosses the staging hop exactly
        // once as a 24-byte PackedRow or — when source and destination share
        // a shard — bypasses it as a local row; the two counters partition
        // the sends. Drop choices legitimately keep different spilled
        // messages, so the byte accounting is bounded, not pinned:
        // delivered rows at 20 B (+16 B when spilled) plus staged rows at
        // 24 B (+16 B when spilled).
        const std::uint64_t delivered = net.stats().messages_delivered;
        const std::uint64_t sent = net.stats().messages_sent;
        EXPECT_EQ(net.staged_rows() + net.local_rows(), sent);
        EXPECT_GT(net.staged_rows(), 0u);
        EXPECT_GE(net.staged_bytes(), net.staged_rows() * kPackedRowBytes);
        EXPECT_LE(net.staged_bytes(),
                  net.staged_rows() * (kPackedRowBytes + kSpillBytes));
        EXPECT_GE(net.arena_bytes_moved(),
                  delivered * kSoaRowBytes + net.staged_bytes());
        EXPECT_LE(net.arena_bytes_moved(),
                  delivered * (kSoaRowBytes + kSpillBytes) +
                      net.staged_bytes());
      }
      EXPECT_EQ(net.MaxTotalSentPerNode(), sync.MaxTotalSentPerNode());
    }
  }
}

/// Heavily skewed degree distribution: 70% of all traffic converges on a
/// four-node hub (all owned by shard 0 on every shard count), the rest
/// scatters uniformly. One destination shard therefore does almost all the
/// bucketing/cap work — the shape the work-stealing and staging-run changes
/// target — while the others run near-empty staging runs.
template <typename Net>
std::uint64_t DriveHubWorkload(Net& net, std::size_t rounds, std::size_t sends,
                               std::uint64_t salt) {
  const std::size_t n = net.num_nodes();
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < sends; ++i) {
        const std::uint64_t x = (v * 0x9e3779b97f4a7c15ULL) ^
                                (round * 0xbf58476d1ce4e5b9ULL) ^
                                (i * 0x94d049bb133111ebULL) ^ salt;
        const NodeId to = x % 10 < 7 ? static_cast<NodeId>(x % 4)
                                     : static_cast<NodeId>(x % n);
        Message m;
        m.kind = 2;
        m.words[0] = x;
        net.Send(v, to, m);
      }
    }
    net.EndRound();
    h = ChecksumInboxes(net, h);
  }
  return h;
}

TEST(EngineEquivalence, HubSkewedWorkloadAcrossShardCounts) {
  const std::size_t n = 64;
  const std::size_t cap = 4;
  for (const std::uint64_t seed : {7ull, 4242ull}) {
    SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
    const std::uint64_t want = DriveHubWorkload(sync, 10, cap, seed);
    ASSERT_GT(sync.stats().messages_dropped, 0u) << "hub must overflow";
    for (const std::size_t shards : kShardSweep) {
      ShardedNetwork net({.num_nodes = n, .capacity = cap, .seed = seed,
                          .exec = {.num_shards = shards}});
      const std::uint64_t got = DriveHubWorkload(net, 10, cap, seed);
      if (shards == 1) {
        EXPECT_EQ(got, want) << "seed " << seed;
      } else {
        ShardedNetwork replay({.num_nodes = n, .capacity = cap, .seed = seed,
                               .exec = {.num_shards = shards}});
        EXPECT_EQ(DriveHubWorkload(replay, 10, cap, seed), got)
            << "seed " << seed << " S " << shards << " not deterministic";
      }
      // The hub nodes' offered load, the drop totals, and every other stat
      // are workload properties, not engine properties — invariant even
      // though one destination shard does almost all the delivery work.
      EXPECT_EQ(net.stats(), sync.stats()) << "seed " << seed << " S "
                                           << shards;
      EXPECT_EQ(net.MaxTotalSentPerNode(), sync.MaxTotalSentPerNode());
    }
  }
}

TEST(EngineEquivalence, AsyncNetworkReplaysAndMatchesSyncStats) {
  // AsyncNetwork rides the same SoA delivery pipeline. Its fabric delays
  // scramble within-round order and consume extra randomness, so inboxes
  // legitimately differ from SyncNetwork — but every message still arrives
  // in its round, so the offered buckets (and with them every NetworkStats
  // counter) must equal the reference engine's, and a fixed (seed, delay)
  // must replay bit for bit.
  const std::size_t n = 48;
  const std::size_t cap = 3;
  for (const std::uint64_t seed : {11ull, 222ull}) {
    SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
    DriveRawWorkload(sync, 12, cap, seed);
    for (const std::size_t delay : {1u, 3u, 7u}) {
      AsyncNetwork a({.num_nodes = n, .capacity = cap, .seed = seed,
                      .max_delay = delay});
      AsyncNetwork b({.num_nodes = n, .capacity = cap, .seed = seed,
                      .max_delay = delay});
      const std::uint64_t got = DriveRawWorkload(a, 12, cap, seed);
      EXPECT_EQ(DriveRawWorkload(b, 12, cap, seed), got)
          << "seed " << seed << " delay " << delay << " not deterministic";
      EXPECT_EQ(a.stats(), sync.stats()) << "seed " << seed << " delay "
                                         << delay;
      const std::uint64_t delivered = a.stats().messages_delivered;
      EXPECT_GE(a.arena_bytes_moved(), delivered * kSoaRowBytes);
      EXPECT_LE(a.arena_bytes_moved(),
                delivered * (kSoaRowBytes + kSpillBytes));
      EXPECT_EQ(a.time_steps(), 12u * delay);
    }
  }
}

// ---- protocol: BFS-tree build ----------------------------------------------

std::uint64_t ChecksumBfs(const BfsTreeResult& r) {
  std::uint64_t h = Fnv1a(kFnvOffsetBasis, r.root);
  h = Checksum(h, r.parent);
  for (const std::uint32_t d : r.depth) h = Fnv1a(h, d);
  return Fnv1a(h, r.height);
}

TEST(EngineEquivalence, BfsTreeBitIdenticalOnEveryShardCount) {
  // The flood draws no randomness and never exceeds the receive cap, so the
  // result AND the stats must be bit-identical on every engine and every
  // shard count, for every seed.
  for (const std::uint64_t seed : {5ull, 77ull}) {
    const Graph g = gen::ConnectedGnp(96, 0.06, seed);
    const BfsTreeResult want =
        BuildBfsTree<SyncNetwork>(g, EngineConfig{.seed = seed});
    ASSERT_TRUE(ValidateBfsTree(g, want));
    for (const std::size_t shards : kShardSweep) {
      const BfsTreeResult got = BuildBfsTree<ShardedNetwork>(
          g, EngineConfig{.seed = seed, .exec = {.num_shards = shards}});
      EXPECT_EQ(ChecksumBfs(got), ChecksumBfs(want))
          << "seed " << seed << " S " << shards;
      EXPECT_EQ(got.stats, want.stats) << "seed " << seed << " S " << shards;
      // Drop-free one-word flood: delivered-row bytes are engine-invariant.
      // Above S=1 only the messages that actually cross shards pay
      // kPackedRowBytes on the staging hop (same-shard sends bypass it), so
      // the hop surcharge is bounded by the sends, not equal to them.
      if (shards == 1) {
        EXPECT_EQ(got.arena_bytes_moved, want.arena_bytes_moved);
      } else {
        EXPECT_GE(got.arena_bytes_moved, want.arena_bytes_moved);
        EXPECT_LE(got.arena_bytes_moved,
                  want.arena_bytes_moved +
                      got.stats.messages_sent * kPackedRowBytes);
      }
    }
  }
}

// ---- degenerate shard counts (n < S, n == S + 1) ---------------------------

TEST(EngineEquivalence, DegenerateSizesKeepShardStreamsAligned) {
  // The ShardsFor clamp must hold at the edges: S > n (every shard would
  // otherwise be empty and its split RNG stream orphaned) and n == S + 1
  // (exactly one shard owns two nodes). The engine must instantiate exactly
  // min(S, n) shards, stay stats-identical to SyncNetwork, and replay bit
  // for bit at a fixed (seed, S) — the regression relabeled domains need,
  // since a relabeling is built for the clamped count.
  const std::size_t sizes[] = {3, 5, 9};  // n < S and n == S + 1 per sweep
  for (const std::size_t n : sizes) {
    SyncNetwork sync({.num_nodes = n, .capacity = 2, .seed = 17});
    const std::uint64_t want = DriveRawWorkload(sync, 8, 2, 17);
    for (const std::size_t shards : kShardSweep) {
      const EngineConfig cfg{.num_nodes = n, .capacity = 2, .seed = 17,
                             .exec = {.num_shards = shards}};
      ShardedNetwork net(cfg);
      EXPECT_EQ(net.num_shards(), std::min(shards, n));
      const std::uint64_t got = DriveRawWorkload(net, 8, 2, 17);
      if (shards == 1) {
        EXPECT_EQ(got, want) << "n " << n;
      }
      EXPECT_EQ(net.stats(), sync.stats()) << "n " << n << " S " << shards;
      ShardedNetwork replay(cfg);
      EXPECT_EQ(DriveRawWorkload(replay, 8, 2, 17), got)
          << "n " << n << " S " << shards << " not deterministic";
      // The partition module applies the identical clamp, so a relabeling
      // built for (n, S) always agrees with the engine's shard map.
      const Relabeling r = RelabelFor(gen::Cycle(n), shards, 17);
      EXPECT_EQ(r.num_shards, net.num_shards()) << "n " << n << " S " << shards;
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(ContiguousShardOf(v, n, shards), net.ShardOf(v));
      }
    }
  }
}

// ---- locality-aware relabeling (BFS + churn, mapped back) ------------------

/// The relabel-invariant slice of a BFS result: root, depths, height.
/// Parents are arrival-order-dependent (any valid BFS parent may win the
/// flood), so they are validated against the graph instead of checksummed.
std::uint64_t ChecksumBfsDepths(const BfsTreeResult& r) {
  std::uint64_t h = Fnv1a(kFnvOffsetBasis, r.root);
  for (const std::uint32_t d : r.depth) h = Fnv1a(h, d);
  return Fnv1a(h, r.height);
}

TEST(EngineEquivalence, RelabeledBfsAndChurnMapBackBitIdentical) {
  // The relabeling tentpole's harness gate: run BFS + churn on a relabeled
  // community-heavy graph with the overlapped (eagerly sealing) exchange,
  // map every result back through old_of_new, and require bit-identity with
  // the unrelabeled S=1 reference — plus fixed-(seed, S) replay across
  // S ∈ {1, 2, 4, 8}.
  const std::uint64_t seed = 29;
  for (const auto topo :
       {gen::Topology::kBarabasiAlbert, gen::Topology::kGnm,
        gen::Topology::kRingChords}) {
    const gen::ScenarioSpec spec = gen::SpecForTopology(topo, 400, seed);
    const Graph built = gen::BuildScenario(spec, {.num_shards = 4}).graph;
    // BFS needs a connected graph; churn comparisons need node 0 alive so
    // the min-id pin keeps the two id spaces electing the same root.
    const Graph core = ApplyStrike(built, {}, {}).largest_component;
    const std::size_t n = core.num_nodes();
    ASSERT_GT(n, 16u);

    const BfsTreeResult want =
        BuildBfsTree<SyncNetwork>(core, EngineConfig{.seed = seed});
    ASSERT_TRUE(ValidateBfsTree(core, want));
    std::vector<NodeId> victims;
    for (std::size_t k = 0; k < 16; ++k) {
      const std::uint64_t x = (k + 1) * 0x9e3779b97f4a7c15ULL ^ seed;
      victims.push_back(1 + static_cast<NodeId>(x % (n - 1)));  // never 0
    }
    const ChurnResult want_churn = ApplyStrike(core, victims, {});
    const auto largest_old_ids = [](const ChurnResult& c,
                                    const Relabeling* r) {
      std::vector<NodeId> ids;
      ids.reserve(c.component_global.size());
      for (const NodeId id : c.component_global) {
        ids.push_back(r ? r->old_of_new[id] : id);
      }
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    const std::vector<NodeId> want_largest = largest_old_ids(want_churn, nullptr);

    for (const std::size_t shards : kShardSweep) {
      const Relabeling r = RelabelFor(core, shards, seed);
      EXPECT_EQ(RelabelFor(core, shards, seed).new_of_old, r.new_of_old)
          << "RelabelFor must replay for a fixed (graph, S, seed)";
      const Graph rg = ApplyRelabeling(core, r);

      EngineConfig cfg{.seed = seed, .exec = {.num_shards = shards}};
      cfg.outbox_segment_rows = 64;  // force eager seals / overlap at n=400
      const BfsTreeResult got = BuildBfsTree<ShardedNetwork>(rg, cfg);
      BfsTreeResult mapped = got;
      mapped.root = r.old_of_new[mapped.root];
      mapped.parent = MapIdsBack(r, mapped.parent);
      mapped.depth = MapValuesBack<std::uint32_t>(r, mapped.depth);
      EXPECT_EQ(ChecksumBfsDepths(mapped), ChecksumBfsDepths(want))
          << "topo " << gen::TopologyName(topo) << " S " << shards;
      EXPECT_TRUE(ValidateBfsTree(core, mapped))
          << "topo " << gen::TopologyName(topo) << " S " << shards;

      const BfsTreeResult replay = BuildBfsTree<ShardedNetwork>(rg, cfg);
      EXPECT_EQ(ChecksumBfs(replay), ChecksumBfs(got))
          << "topo " << gen::TopologyName(topo) << " S " << shards << " not deterministic";

      // The ExecPolicy::relabel opt-in performs exactly this
      // relabel/run/map-back dance inside the runtime-dispatched driver.
      EngineConfig via = cfg;
      via.exec.relabel = true;
      const BfsTreeResult policy =
          BuildBfsTree(core, EngineKind::kSharded, via);
      EXPECT_EQ(ChecksumBfsDepths(policy), ChecksumBfsDepths(want))
          << "topo " << gen::TopologyName(topo) << " S " << shards;
      EXPECT_TRUE(ValidateBfsTree(core, policy));

      // Churn: strike the same physical victims (translated to new ids) and
      // map the wreckage back — alive mask, survivor counts, component
      // structure all bit-identical to the unrelabeled strike.
      std::vector<NodeId> new_victims;
      new_victims.reserve(victims.size());
      for (const NodeId v : victims) new_victims.push_back(r.new_of_old[v]);
      const ChurnResult got_churn =
          ApplyStrike(rg, new_victims, {.num_shards = shards});
      EXPECT_EQ(got_churn.survivors, want_churn.survivors);
      EXPECT_EQ(got_churn.num_components, want_churn.num_components);
      EXPECT_EQ(MapValuesBack<char>(r, got_churn.alive), want_churn.alive);
      EXPECT_EQ(largest_old_ids(got_churn, &r), want_largest)
          << "topo " << gen::TopologyName(topo) << " S " << shards;
    }
  }
}

// ---- protocol: message-passing evolution -----------------------------------

std::uint64_t ChecksumMultigraph(const Multigraph& g) {
  std::uint64_t h = kFnvOffsetBasis;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    h = Fnv1a(h, g.Degree(v));
    h = Checksum(h, g.Slots(v));
  }
  return h;
}

std::uint64_t ChecksumStats(const NetworkStats& s) {
  std::uint64_t h = Fnv1a(kFnvOffsetBasis, s.rounds);
  h = Fnv1a(h, s.messages_sent);
  h = Fnv1a(h, s.messages_delivered);
  h = Fnv1a(h, s.messages_dropped);
  h = Fnv1a(h, s.max_offered_load);
  return Fnv1a(h, s.max_send_load);
}

TEST(EngineEquivalence, EvolutionMpMatchesSyncAtS1AndReplaysAboveS1) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const Graph input = gen::Cycle(72);
    const auto params = ExpanderParams::ForSize(72, input.MaxDegree(), seed);
    const Multigraph benign = MakeBenign(input, params);
    const auto sync =
        RunEvolutionMessagePassing<SyncNetwork>(benign, params, {});
    for (const std::size_t shards : kShardSweep) {
      const EngineConfig cfg{.exec = {.num_shards = shards}};
      const auto got =
          RunEvolutionMessagePassing<ShardedNetwork>(benign, params, cfg);
      if (shards == 1) {
        // Serial drive + S=1 engine: the whole evolution replays the
        // SyncNetwork run bit for bit — graph, stats, and counters.
        EXPECT_EQ(ChecksumMultigraph(got.next), ChecksumMultigraph(sync.next))
            << "seed " << seed;
        EXPECT_EQ(got.stats, sync.stats) << "seed " << seed;
        EXPECT_EQ(got.edges_created, sync.edges_created);
        EXPECT_EQ(got.tokens_without_edge, sync.tokens_without_edge);
      } else {
        // Shard streams legitimately reroute tokens; the gate is exact
        // replay for the fixed (seed, S) plus the conservation law and the
        // benign output shape.
        const auto replay =
            RunEvolutionMessagePassing<ShardedNetwork>(benign, params, cfg);
        EXPECT_EQ(ChecksumMultigraph(replay.next),
                  ChecksumMultigraph(got.next))
            << "seed " << seed << " S " << shards;
        EXPECT_EQ(ChecksumStats(replay.stats), ChecksumStats(got.stats));
        EXPECT_EQ(got.edges_created + got.tokens_without_edge,
                  72ull * params.TokensPerNode());
        EXPECT_TRUE(got.next.IsRegular(params.delta));
        EXPECT_TRUE(got.next.IsLazy(params.MinSelfLoops()));
      }
    }
  }
}

// ---- protocol: monitoring convergecast -------------------------------------

TEST(EngineEquivalence, MonitoringConvergecastShardCountInvariant) {
  for (const std::uint64_t seed : {3ull, 9ull}) {
    const Graph g = gen::ConnectedGnp(80, 0.08, seed);
    const WellFormedTree tree = ConstructWellFormedTree(g, seed).tree;
    const MonitorValue nodes_serial = MonitorNodeCount(tree, {.num_shards = 1});
    const MonitorValue edges_serial = MonitorEdgeCount(tree, g, {.num_shards = 1});
    const MonitorValue deg_serial = MonitorMaxDegree(tree, g, {.num_shards = 1});
    EXPECT_EQ(nodes_serial.value, 80u);
    for (const std::size_t shards : kShardSweep) {
      if (shards == 1) continue;
      const MonitorValue nodes = MonitorNodeCount(tree, {.num_shards = shards});
      const MonitorValue edges = MonitorEdgeCount(tree, g, {.num_shards = shards});
      const MonitorValue deg = MonitorMaxDegree(tree, g, {.num_shards = shards});
      EXPECT_EQ(nodes.value, nodes_serial.value) << "S " << shards;
      EXPECT_EQ(edges.value, edges_serial.value) << "S " << shards;
      EXPECT_EQ(deg.value, deg_serial.value) << "S " << shards;
      EXPECT_EQ(nodes.rounds, nodes_serial.rounds) << "S " << shards;
    }
  }
}

// ---- protocol: adversarial churn scenario ----------------------------------

/// Everything an epoch computed except wall-clock times, folded into one
/// checksum: the strike outcome, the wreckage measurements, and the
/// recovery protocol costs.
std::uint64_t ChecksumEpoch(std::uint64_t h, const EpochStats& e) {
  h = Fnv1a(h, e.epoch);
  h = Fnv1a(h, e.nodes_before);
  h = Fnv1a(h, e.edges_before);
  h = Fnv1a(h, e.killed);
  h = Fnv1a(h, e.survivors);
  h = Fnv1a(h, e.num_components);
  h = Fnv1a(h, static_cast<std::uint64_t>(e.cohesion * 1e12));
  h = Fnv1a(h, e.repair_used ? 1u : 0u);
  h = Fnv1a(h, e.orphans);
  h = Fnv1a(h, e.reattached);
  h = Fnv1a(h, e.recovery_rounds);
  h = Fnv1a(h, e.recovery_messages);
  h = Fnv1a(h, e.tree_height);
  h = Fnv1a(h, e.phases);
  h = Fnv1a(h, e.liars);
  h = Fnv1a(h, e.quarantined);
  h = Fnv1a(h, e.liars_accepted);
  h = Fnv1a(h, e.root_reelected ? 1u : 0u);
  return Fnv1a(h, e.tree_valid ? 1u : 0u);
}

std::uint64_t ChecksumScenario(const ScenarioResult& r) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const EpochStats& e : r.epochs) h = ChecksumEpoch(h, e);
  for (const auto& [u, v] : r.overlay.EdgeList()) {
    h = Fnv1a(h, u);
    h = Fnv1a(h, v);
  }
  if (!r.tree.parent.empty()) h = Fnv1a(h, ChecksumBfs(r.tree));
  return h;
}

TEST(EngineEquivalence, AdversaryScenarioEngineInvariantAcrossShardCounts) {
  // The adversarial-churn workload joins the standing gate: strikes are
  // sharded compute whose victims are fixed by (seed, S); extraction and
  // repair are randomness-free; the rebuild flood is the drop-free BFS the
  // engines already agree on. So for every strategy and every S the whole
  // multi-epoch scenario — strike outcomes, wreckage stats, recovery costs
  // — must be identical between a SyncNetwork-recovered run and a
  // ShardedNetwork-recovered run, bit for bit, and any fixed (seed, S)
  // must replay itself.
  const Graph start = gen::ConnectedGnp(140, 0.05, 21);
  constexpr StrikeKind kKinds[] = {StrikeKind::kOblivious,
                                   StrikeKind::kDegreeTargeted,
                                   StrikeKind::kCutTargeted, StrikeKind::kDrip};
  for (const StrikeKind kind : kKinds) {
    for (const RecoveryMode recovery :
         {RecoveryMode::kRebuild, RecoveryMode::kRepair}) {
      ScenarioOptions opts;
      opts.strike = kind;
      opts.strike_opts.budget = 10;
      opts.epochs = 2;
      opts.seed = 1234;
      opts.recovery = recovery;
      for (const std::size_t shards : kShardSweep) {
        opts.strike_opts.exec.num_shards = shards;
        opts.engine = EngineKind::kSync;
        const ScenarioResult sync = RunAdversaryScenario(start, opts);
        opts.engine = EngineKind::kSharded;
        const ScenarioResult sharded = RunAdversaryScenario(start, opts);
        const ScenarioResult replay = RunAdversaryScenario(start, opts);
        const std::uint64_t want = ChecksumScenario(sync);
        EXPECT_EQ(ChecksumScenario(sharded), want)
            << StrikeKindName(kind) << " S " << shards
            << (recovery == RecoveryMode::kRepair ? " repair" : " rebuild");
        EXPECT_EQ(ChecksumScenario(replay), want)
            << StrikeKindName(kind) << " S " << shards << " not deterministic";
        ASSERT_FALSE(sync.collapsed);
        for (const EpochStats& e : sync.epochs) EXPECT_TRUE(e.tree_valid);
      }
    }
  }
}

/// Everything a service epoch computed except wall-clock times: the epoch
/// stats plus the well-formed-tree repair and incremental-monitoring
/// telemetry, and the run totals.
std::uint64_t ChecksumService(const ServiceResult& r) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const ServiceEpochStats& s : r.epochs) {
    h = ChecksumEpoch(h, s.epoch);
    h = Fnv1a(h, s.byzantine ? 1u : 0u);
    h = Fnv1a(h, s.wft_carried);
    h = Fnv1a(h, s.wft_changed);
    h = Fnv1a(h, s.wft_rounds);
    h = Fnv1a(h, s.wft_valid ? 1u : 0u);
    h = Fnv1a(h, s.monitor_nodes);
    h = Fnv1a(h, s.monitor_edges);
    h = Fnv1a(h, s.monitor_max_degree);
    h = Fnv1a(h, s.monitor_rounds);
    h = Fnv1a(h, s.monitor_dirty);
    h = Fnv1a(h, s.monitor_exact ? 1u : 0u);
  }
  h = Fnv1a(h, r.byzantine_epochs);
  h = Fnv1a(h, r.total_liars);
  h = Fnv1a(h, r.total_quarantined);
  h = Fnv1a(h, r.total_liars_accepted);
  h = Fnv1a(h, r.final_rebuild_rounds);
  return Fnv1a(h, r.final_rebuild_messages);
}

TEST(EngineEquivalence, ServiceScenarioMatchesAcrossEngines) {
  // The full service stack — drip churn with a Byzantine cadence, BFS
  // repair with liar quarantine, well-formed-tree repair, incremental
  // monitoring — joins the gate: for each fixed (seed, S) the entire
  // multi-epoch run must be bit-identical between a SyncNetwork-recovered
  // and a ShardedNetwork-recovered service, and must replay itself. (Drip
  // draws per-chunk RNG streams, so cross-S invariance is out of scope by
  // the ExecPolicy contract; the randomness-free repair/monitoring layers
  // are separately pinned S-invariant in their own suites.)
  const Graph start = gen::ConnectedGnp(150, 0.05, 33);
  ServiceOptions opts;
  opts.scenario.strike = StrikeKind::kDrip;
  opts.scenario.budget_fraction = 0.03;
  opts.scenario.recovery = RecoveryMode::kRepair;
  opts.scenario.seed = 77;
  opts.epochs = 4;
  opts.byzantine_every = 2;
  for (const std::size_t shards : kShardSweep) {
    opts.scenario.strike_opts.exec.num_shards = shards;
    opts.scenario.engine = EngineKind::kSync;
    const ServiceResult sync = RunServiceScenario(start, opts);
    opts.scenario.engine = EngineKind::kSharded;
    const ServiceResult sharded = RunServiceScenario(start, opts);
    const ServiceResult replay = RunServiceScenario(start, opts);
    const std::uint64_t want = ChecksumService(sync);
    EXPECT_EQ(ChecksumService(sharded), want) << "S " << shards;
    EXPECT_EQ(ChecksumService(replay), want)
        << "S " << shards << " not deterministic";
    ASSERT_FALSE(sync.collapsed);
    ASSERT_EQ(sync.total_liars_accepted, 0u);
    EXPECT_GT(sync.byzantine_epochs, 0u);
    for (const ServiceEpochStats& s : sync.epochs) {
      EXPECT_TRUE(s.epoch.tree_valid);
      EXPECT_TRUE(s.wft_valid);
      EXPECT_TRUE(s.monitor_exact);
    }
  }
}

// ---- workload: scenario catalogue generation -------------------------------

std::uint64_t ChecksumScenarioGraph(const gen::ScenarioGraph& s) {
  std::uint64_t h = Fnv1a(kFnvOffsetBasis, s.graph.num_nodes());
  for (const auto& [u, v] : s.graph.EdgeList()) {
    h = Fnv1a(h, u);
    h = Fnv1a(h, v);
  }
  // Every stat except peak_shard_edges is a generation result and must be
  // shard-count-invariant; peak_shard_edges is the S-dependent memory bound
  // and is excluded by contract (scenario_gen.hpp).
  h = Fnv1a(h, s.stats.edges_emitted);
  h = Fnv1a(h, s.stats.self_loops_skipped);
  h = Fnv1a(h, s.stats.duplicate_edges);
  return Fnv1a(h, s.stats.realized_edges);
}

TEST(EngineEquivalence, ScenarioCatalogueShardCountInvariantAndEnginesAgree) {
  // The scenario generators join the standing gate: every emission is a
  // pure function of (seed, stream index), so the built graph and stats
  // must be bit-identical across S ∈ {1, 2, 4, 8} and replay for a fixed
  // (spec, S) — and the BFS protocol over the generated topology must stay
  // bit-identical between SyncNetwork and ShardedNetwork at every S, which
  // is what lets bench_scenarios trust its round-count table.
  for (const std::uint64_t seed : {3ull, 71ull}) {
    for (const auto& entry : gen::DefaultCatalogue(600, seed)) {
      const gen::ScenarioGraph ref = gen::BuildScenario(entry.spec, {.num_shards = 1});
      const std::uint64_t want = ChecksumScenarioGraph(ref);
      for (const std::size_t shards : kShardSweep) {
        const gen::ScenarioGraph got = gen::BuildScenario(entry.spec, {.num_shards = shards});
        EXPECT_EQ(ChecksumScenarioGraph(got), want)
            << entry.name << " seed " << seed << " S " << shards;
        const gen::ScenarioGraph replay =
            gen::BuildScenario(entry.spec, {.num_shards = shards});
        EXPECT_EQ(ChecksumScenarioGraph(replay), want)
            << entry.name << " seed " << seed << " S " << shards
            << " not deterministic";
      }

      // BFS over the largest component (GNP/BA densities can leave a few
      // isolated nodes at n=600; measured, not assumed away).
      const ChurnResult intact = ApplyStrike(ref.graph, {}, {.num_shards = 4});
      const Graph& core = intact.largest_component;
      ASSERT_GT(core.num_nodes(), 0u) << entry.name;
      const BfsTreeResult want_tree =
          BuildBfsTree<SyncNetwork>(core, EngineConfig{.seed = seed});
      ASSERT_TRUE(ValidateBfsTree(core, want_tree)) << entry.name;
      for (const std::size_t shards : kShardSweep) {
        const BfsTreeResult got_tree = BuildBfsTree<ShardedNetwork>(
            core, EngineConfig{.seed = seed, .exec = {.num_shards = shards}});
        EXPECT_EQ(ChecksumBfs(got_tree), ChecksumBfs(want_tree))
            << entry.name << " seed " << seed << " S " << shards;
      }
    }
  }
}

// ---- protocol rows on multi-segment sharded rounds ------------------------

/// Deterministic token-relay workload over the NetworkEngine API: `walkers`
/// tokens hash-walk the id space, each forwarded as a one-word message from
/// wherever it sits to its next hash destination. Drop-free (capacity must be
/// >= walkers) and randomness-free, so every engine must produce
/// bit-identical inboxes — the token-walk harness row.
template <typename Net>
std::uint64_t DriveTokenRelay(Net& net, std::size_t rounds,
                              std::size_t walkers, std::uint64_t salt) {
  const std::size_t n = net.num_nodes();
  std::vector<NodeId> at(walkers);  // walker w sits on node at[w]
  for (std::size_t w = 0; w < walkers; ++w) {
    at[w] = static_cast<NodeId>((w * 0x9e3779b97f4a7c15ULL ^ salt) % n);
  }
  std::uint64_t h = kFnvOffsetBasis;
  std::vector<std::size_t> order(walkers);
  for (std::size_t round = 0; round < rounds; ++round) {
    // Send source-node-major: the engines guarantee bit-identical inboxes
    // for a fixed logical send order, and that order is per-source-node —
    // interleaving senders across shards would permute inboxes between the
    // sync and sharded engines without being a correctness difference.
    for (std::size_t w = 0; w < walkers; ++w) order[w] = w;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return at[a] != at[b] ? at[a] < at[b] : a < b;
    });
    for (const std::size_t w : order) {
      const std::uint64_t x = (w * 0x94d049bb133111ebULL) ^
                              (round * 0xbf58476d1ce4e5b9ULL) ^ salt;
      const NodeId next = static_cast<NodeId>(x % n);
      Message m;
      m.kind = 3;
      m.words[0] = static_cast<std::uint64_t>(w) << 32 | next;
      if (w % 5 == 0) m.words[1] = x;  // some walkers carry spill payloads
      net.Send(at[w], next, m);
      at[w] = next;
    }
    net.EndRound();
    h = ChecksumInboxes(net, h);
  }
  return h;
}

TEST(EngineEquivalence, ShardedBfsChurnAndTokenWalksRows) {
  // Protocol rows on the sharded engine at S ∈ {2, 4, 8} with small outbox
  // segments, so every round seals several segments per shard: the BFS
  // flood, the spill-carrying token relay, and the adversarial churn
  // scenario are drop-free or engine-randomness-free workloads, so each
  // must be bit-identical to SyncNetwork — not merely stats-equal.
  const std::uint64_t seed = 57;
  const Graph g = gen::ConnectedGnp(120, 0.06, seed);
  const BfsTreeResult want_tree =
      BuildBfsTree<SyncNetwork>(g, EngineConfig{.seed = seed});
  ASSERT_TRUE(ValidateBfsTree(g, want_tree));

  SyncNetwork sync({.num_nodes = 120, .capacity = 16, .seed = seed});
  const std::uint64_t want_relay = DriveTokenRelay(sync, 10, 16, seed);
  ASSERT_EQ(sync.stats().messages_dropped, 0u) << "relay must be drop-free";

  ScenarioOptions sc;
  sc.strike = StrikeKind::kDegreeTargeted;
  sc.strike_opts.budget = 10;
  sc.epochs = 2;
  sc.seed = 1234;
  sc.engine = EngineKind::kSync;
  const ScenarioResult want_scenario = RunAdversaryScenario(g, sc);
  ASSERT_FALSE(want_scenario.collapsed);

  for (const std::size_t shards : {2, 4, 8}) {
    EngineConfig cfg{.seed = seed, .exec = {.num_shards = shards}};
    cfg.outbox_segment_rows = 64;  // multi-segment rounds
    const BfsTreeResult got_tree = BuildBfsTree<ShardedNetwork>(g, cfg);
    EXPECT_EQ(ChecksumBfs(got_tree), ChecksumBfs(want_tree)) << "S " << shards;
    EXPECT_EQ(got_tree.stats, want_tree.stats) << "S " << shards;

    EngineConfig relay_cfg{.num_nodes = 120, .capacity = 16, .seed = seed,
                           .exec = {.num_shards = shards}};
    relay_cfg.outbox_segment_rows = 2;
    ShardedNetwork relay(relay_cfg);
    EXPECT_EQ(DriveTokenRelay(relay, 10, 16, seed), want_relay)
        << "S " << shards;
    EXPECT_EQ(relay.stats(), sync.stats()) << "S " << shards;

    sc.engine = EngineKind::kSharded;
    sc.strike_opts.exec.num_shards = shards;
    const ScenarioResult got_scenario = RunAdversaryScenario(g, sc);
    EXPECT_EQ(ChecksumScenario(got_scenario), ChecksumScenario(want_scenario))
        << "churn over ShardedNetwork diverged, S " << shards;
  }
}

TEST(EngineEquivalence, MultiSegmentRawWorkloadAtS32) {
  // S = 32 with 8-row outbox segments: every shard seals several segments
  // per round. The drop path's stats must equal SyncNetwork's, a
  // fixed-seed run must replay, and the segment cut points must change
  // neither delivery nor the staged-row accounting (the single-segment
  // run at the same S is the reference).
  const std::size_t n = 256;
  const std::size_t cap = 3;
  for (const std::uint64_t seed : {19ull, 404ull}) {
    SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
    DriveRawWorkload(sync, 10, cap, seed);
    const EngineConfig whole_cfg{.num_nodes = n, .capacity = cap,
                                 .seed = seed, .exec = {.num_shards = 32}};
    EngineConfig seg_cfg = whole_cfg;
    seg_cfg.outbox_segment_rows = 8;  // 24 rows per shard per round

    ShardedNetwork whole(whole_cfg);
    ShardedNetwork segmented(seg_cfg);
    const std::uint64_t want = DriveRawWorkload(whole, 10, cap, seed);
    const std::uint64_t got = DriveRawWorkload(segmented, 10, cap, seed);
    EXPECT_EQ(got, want) << "seed " << seed << ": segments changed delivery";
    EXPECT_EQ(segmented.stats(), sync.stats()) << "seed " << seed;
    EXPECT_EQ(segmented.staged_rows(), whole.staged_rows());
    EXPECT_EQ(segmented.staged_bytes(), whole.staged_bytes());

    ShardedNetwork replay(seg_cfg);
    EXPECT_EQ(DriveRawWorkload(replay, 10, cap, seed), got)
        << "seed " << seed << " not deterministic";
  }
}

// ---- protocol: token walks -------------------------------------------------

std::uint64_t ChecksumTokenWalks(const TokenWalkResult& r) {
  std::uint64_t h = Checksum(kFnvOffsetBasis, r.arrival_origins);
  for (const std::size_t o : r.arrival_offsets) h = Fnv1a(h, o);
  for (const std::uint32_t t : r.arrival_token) h = Fnv1a(h, t);
  h = Checksum(h, r.path_nodes);
  h = Fnv1a(h, r.max_load);
  return Fnv1a(h, r.token_steps);
}

Multigraph LazyRing(std::size_t n, std::size_t delta) {
  Multigraph m(n, delta);
  for (NodeId v = 0; v < n; ++v) m.AddEdge(v, (v + 1) % n);
  m.PadWithSelfLoops();
  return m;
}

/// The serial walk loop as it stood before the flat kernel: tokens in index
/// order, one bounds-checked Multigraph::RandomNeighbor per step. Walks the
/// v-major tokens [lo, hi) on `rng`; the per-step load (and so max_load) is
/// meaningful only when [lo, hi) covers every token.
struct ReferenceWalks {
  std::vector<NodeId> position;            ///< final node per token
  std::vector<std::vector<NodeId>> paths;  ///< per token, origin first
  std::uint64_t max_load = 0;
  std::uint64_t token_steps = 0;
};

ReferenceWalks ReferenceTokenWalks(const Multigraph& g, std::size_t per_node,
                                   std::size_t ell, Rng& rng, std::size_t lo,
                                   std::size_t hi) {
  ReferenceWalks r;
  for (std::size_t i = lo; i < hi; ++i) {
    r.position.push_back(static_cast<NodeId>(i / per_node));
    r.paths.push_back({r.position.back()});
  }
  std::vector<std::uint64_t> load(g.num_nodes());
  for (std::size_t step = 0; step < ell; ++step) {
    std::fill(load.begin(), load.end(), 0);
    for (std::size_t i = 0; i < r.position.size(); ++i) {
      r.position[i] = g.RandomNeighbor(r.position[i], rng);
      ++load[r.position[i]];
      r.paths[i].push_back(r.position[i]);
    }
    r.token_steps += r.position.size();
    r.max_load = std::max(r.max_load, *std::max_element(load.begin(), load.end()));
  }
  return r;
}

/// Walk inputs of three shapes: the benign line MakeBenign hands the first
/// evolution, a lazy cycle, and the line after three evolutions (an
/// expander-ish graph whose slots point everywhere).
std::vector<std::pair<const char*, Multigraph>> WalkGraphs() {
  const Graph line = gen::Line(96);
  const auto params = ExpanderParams::ForSize(96, line.MaxDegree(), 5);
  std::vector<std::pair<const char*, Multigraph>> graphs;
  graphs.emplace_back("benign line", MakeBenign(line, params));
  graphs.emplace_back("lazy cycle", LazyRing(40, 8));
  Multigraph evolved = MakeBenign(line, params);
  Rng rng(params.seed);
  for (int i = 0; i < 3; ++i) evolved = RunEvolution(evolved, params, rng).next;
  graphs.emplace_back("evolved line", std::move(evolved));
  return graphs;
}

TEST(EngineEquivalence, TokenWalksAtS1MatchThePreKernelSerialLoop) {
  // The flat kernel changed how a step reads the graph (one hoisted
  // threshold, one slot-matrix load), not what it draws: at S = 1 it must
  // reproduce the old RandomNeighbor loop exactly — CSR arrivals, join
  // column, paths, load telemetry, and the caller's RNG end state.
  for (const auto& [name, g] : WalkGraphs()) {
    for (const std::uint64_t seed : {13ull, 29ull, 57ull}) {
      const TokenWalkOptions opts{.tokens_per_node = 3,
                                  .walk_length = 6,
                                  .record_paths = true};
      Rng rng_fast(seed);
      Rng rng_ref(seed);
      const auto fast = RunTokenWalks(g, opts, rng_fast);
      const std::size_t n = g.num_nodes();
      const auto ref = ReferenceTokenWalks(g, 3, 6, rng_ref, 0, 3 * n);
      // The reference CSR: per-node arrivals pushed in token-index order.
      std::vector<std::vector<std::uint32_t>> at(n);
      for (std::size_t i = 0; i < ref.position.size(); ++i) {
        at[ref.position[i]].push_back(static_cast<std::uint32_t>(i));
      }
      std::vector<std::size_t> offsets{0};
      std::vector<NodeId> origins;
      std::vector<std::uint32_t> tokens;
      for (NodeId v = 0; v < n; ++v) {
        for (const std::uint32_t i : at[v]) {
          origins.push_back(static_cast<NodeId>(i / 3));
          tokens.push_back(i);
        }
        offsets.push_back(origins.size());
      }
      EXPECT_EQ(fast.arrival_origins, origins) << name << " seed " << seed;
      EXPECT_EQ(fast.arrival_offsets, offsets) << name << " seed " << seed;
      EXPECT_EQ(fast.arrival_token, tokens) << name << " seed " << seed;
      EXPECT_EQ(fast.max_load, ref.max_load) << name << " seed " << seed;
      EXPECT_EQ(fast.token_steps, ref.token_steps) << name << " seed " << seed;
      for (std::size_t i = 0; i < ref.paths.size(); ++i) {
        const auto path = fast.PathOf(i);
        ASSERT_TRUE(std::equal(path.begin(), path.end(), ref.paths[i].begin(),
                               ref.paths[i].end()))
            << name << " seed " << seed << " token " << i;
      }
      // Both loops drained the caller's RNG identically.
      EXPECT_EQ(rng_fast.Next(), rng_ref.Next()) << name << " seed " << seed;
    }
  }
}

TEST(EngineEquivalence, TokenBlocksWalkOnPerShardSplitStreams) {
  // Above one shard, shard s walks the contiguous token block
  // [s·B, (s+1)·B), B = ceil(tokens / S), on the s-th Split() of the
  // caller's RNG. Replaying each block through the reference loop on that
  // stream must reproduce every recorded path, and the caller's RNG must
  // end exactly S splits further on.
  for (const auto& [name, g] : WalkGraphs()) {
    const std::size_t n = g.num_nodes();
    const std::size_t num_tokens = 3 * n;
    for (const std::size_t shards : {2ul, 4ul, 8ul}) {
      const std::uint64_t seed = 71 + shards;
      Rng rng(seed);
      const auto got = RunTokenWalks(g,
                                     {.tokens_per_node = 3,
                                      .walk_length = 6,
                                      .record_paths = true,
                                      .exec = {.num_shards = shards}},
                                     rng);
      Rng caller(seed);
      std::vector<Rng> streams;
      for (std::size_t s = 0; s < shards; ++s) streams.push_back(caller.Split());
      const std::size_t block = (num_tokens + shards - 1) / shards;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t lo = std::min(num_tokens, s * block);
        const std::size_t hi = std::min(num_tokens, lo + block);
        const auto ref = ReferenceTokenWalks(g, 3, 6, streams[s], lo, hi);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto path = got.PathOf(i);
          ASSERT_TRUE(std::equal(path.begin(), path.end(),
                                 ref.paths[i - lo].begin(),
                                 ref.paths[i - lo].end()))
              << name << " S " << shards << " token " << i;
        }
      }
      EXPECT_EQ(rng.Next(), caller.Next()) << name << " S " << shards;
    }
  }
}

TEST(EngineEquivalence, TokenBlockMaxLoadIsExactPerStep) {
  // Lemma 3.2's observable across the per-shard load rows: recount every
  // step's per-node load from the recorded paths and require the engine's
  // max_load to equal the largest count exactly — the node-block reduction
  // may neither lose nor double-count a shard's arrivals.
  for (const auto& [name, g] : WalkGraphs()) {
    const std::size_t n = g.num_nodes();
    for (const std::size_t shards : {2ul, 4ul, 8ul}) {
      for (const std::uint64_t seed : {3ull, 4ull}) {
        Rng rng(seed);
        const auto r = RunTokenWalks(g,
                                     {.tokens_per_node = 4,
                                      .walk_length = 7,
                                      .record_paths = true,
                                      .exec = {.num_shards = shards}},
                                     rng);
        std::uint64_t want = 0;
        for (std::size_t step = 1; step <= 7; ++step) {
          std::vector<std::uint64_t> load(n, 0);
          for (std::size_t i = 0; i < r.num_paths(); ++i) {
            ++load[r.PathOf(i)[step]];
          }
          want = std::max(want, *std::max_element(load.begin(), load.end()));
        }
        EXPECT_EQ(r.max_load, want) << name << " S " << shards;
        EXPECT_EQ(r.token_steps, 4u * n * 7u) << name << " S " << shards;
      }
    }
  }
}

TEST(EngineEquivalence, TokenWalksReplayPerShardCountAndConserve) {
  const Multigraph m = LazyRing(40, 8);
  for (const std::uint64_t seed : {13ull, 29ull}) {
    for (const std::size_t shards : kShardSweep) {
      const TokenWalkOptions opts{.tokens_per_node = 2,
                                  .walk_length = 5,
                                  .record_paths = true,
                                  .exec = {.num_shards = shards}};
      Rng rng_a(seed);
      Rng rng_b(seed);
      const auto a = RunTokenWalks(m, opts, rng_a);
      const auto b = RunTokenWalks(m, opts, rng_b);
      EXPECT_EQ(ChecksumTokenWalks(a), ChecksumTokenWalks(b))
          << "seed " << seed << " S " << shards;
      // Conservation laws hold on every shard count: every token arrives
      // somewhere and walks exactly ℓ steps.
      EXPECT_EQ(a.arrival_origins.size(), 40u * 2u);
      EXPECT_EQ(a.token_steps, 40u * 2u * 5u);
      EXPECT_GE(a.max_load, 2u);
    }
  }
}

}  // namespace
}  // namespace overlay
