// Seeded fuzz layer for the sharded exchange (CTest label `fuzz`).
//
// Random topology × random workload (raw hash-driven traffic with drops, the
// BFS flood, or an adversarial churn scenario) × S ∈ {1, 2, 4, 8} shards ×
// a random outbox segment size: every sharded run must be bit-identical to
// the single-segment run at the same S (same inbox checksums, same drops),
// stats-identical to SyncNetwork, checksum-identical to SyncNetwork whenever
// the workload is drop-free or S = 1, and must replay itself on a fixed
// seed. Every assertion carries the iteration's reproducing seed; replay
// one case with OVERLAY_FUZZ_SEED=<seed> (runs only that seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "overlay/adversary.hpp"
#include "overlay/bfs_tree.hpp"
#include "sim/inbox_checksum.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"

namespace overlay {
namespace {

constexpr std::size_t kIterations = 24;
constexpr std::uint64_t kBaseSeed = 0x0f2a3e7d5eedull;

Graph RandomTopology(Rng& r) {
  switch (r.NextBelow(4)) {
    case 0:
      return gen::ConnectedGnp(24 + r.NextBelow(120),
                               0.04 + r.NextDouble() * 0.05, r.Next());
    case 1:
      return gen::Torus(3 + r.NextBelow(8), 3 + r.NextBelow(8));
    case 2:
      return gen::Hypercube(3 + static_cast<std::uint32_t>(r.NextBelow(4)));
    default:
      return gen::Cycle(16 + r.NextBelow(100));
  }
}

/// Node-major hash-driven traffic with spill payloads; hot enough to drop
/// (sends = receive capacity). Returns the per-round inbox checksum fold.
template <typename Net>
std::uint64_t DriveRaw(Net& net, std::size_t rounds, std::size_t sends,
                       std::uint64_t salt) {
  const std::size_t n = net.num_nodes();
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      for (std::size_t k = 0; k < sends; ++k) {
        const std::uint64_t x = Fnv1a(Fnv1a(Fnv1a(salt, round), v), k);
        Message m;
        m.kind = static_cast<std::uint32_t>(x % 4);
        m.words[0] = x;
        if (x % 5 == 0) m.words[1] = ~x;  // spill crosses shards too
        net.Send(v, static_cast<NodeId>(x % n), m);
      }
    }
    net.EndRound();
    h = ChecksumInboxes(net, h);
  }
  return h;
}

std::uint64_t ChecksumTree(const BfsTreeResult& t) {
  std::uint64_t h = Fnv1a(kFnvOffsetBasis, t.root);
  for (const NodeId p : t.parent) h = Fnv1a(h, p);
  for (const std::uint32_t d : t.depth) h = Fnv1a(h, d);
  return Fnv1a(h, t.height);
}

void CheckScenariosMatch(const ScenarioResult& got, const ScenarioResult& ref,
                         const char* what) {
  ASSERT_EQ(got.epochs.size(), ref.epochs.size()) << what;
  for (std::size_t i = 0; i < got.epochs.size(); ++i) {
    const EpochStats& e = got.epochs[i];
    const EpochStats& f = ref.epochs[i];
    ASSERT_EQ(e.killed, f.killed) << what << " epoch " << i;
    ASSERT_EQ(e.survivors, f.survivors) << what << " epoch " << i;
    ASSERT_EQ(e.recovery_rounds, f.recovery_rounds) << what << " epoch " << i;
    ASSERT_EQ(e.recovery_messages, f.recovery_messages)
        << what << " epoch " << i;
    ASSERT_EQ(e.tree_valid, f.tree_valid) << what << " epoch " << i;
  }
  ASSERT_EQ(got.collapsed, ref.collapsed) << what;
  if (!got.collapsed) {
    ASSERT_EQ(got.overlay.num_nodes(), ref.overlay.num_nodes()) << what;
    ASSERT_EQ(got.overlay.EdgeList(), ref.overlay.EdgeList()) << what;
    ASSERT_EQ(ChecksumTree(got.tree), ChecksumTree(ref.tree)) << what;
  }
}

constexpr std::size_t kShardSweep[] = {1, 2, 4, 8};

/// One fuzz case: random workload and segment size, run at every shard
/// count. The reference for bit-identity is the single-segment
/// ShardedNetwork run at the same S (drop choices consume per-shard RNG
/// streams, so SyncNetwork is only checksum-equal when the workload is
/// drop-free or S = 1); the reference for stats is always SyncNetwork.
void RunCase(std::uint64_t seed) {
  SCOPED_TRACE("reproducing seed " + std::to_string(seed) +
               " (rerun with OVERLAY_FUZZ_SEED=" + std::to_string(seed) + ")");
  Rng r(seed);
  const std::size_t segment_rows = 1 + r.NextBelow(16);

  switch (r.NextBelow(3)) {
    case 0: {  // raw traffic with drops
      const std::size_t n = 16 + r.NextBelow(120);
      const std::size_t cap = 1 + r.NextBelow(4);
      const std::size_t rounds = 4 + r.NextBelow(6);
      const std::uint64_t salt = r.Next();
      SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
      const std::uint64_t sync_sum = DriveRaw(sync, rounds, cap, salt);
      for (const std::size_t shards : kShardSweep) {
        const EngineConfig whole_cfg{.num_nodes = n, .capacity = cap,
                                     .seed = seed,
                                     .exec = {.num_shards = shards}};
        ShardedNetwork whole(whole_cfg);
        const std::uint64_t want = DriveRaw(whole, rounds, cap, salt);
        EngineConfig cfg = whole_cfg;
        cfg.outbox_segment_rows = segment_rows;
        ShardedNetwork net(cfg);
        const std::uint64_t got = DriveRaw(net, rounds, cap, salt);
        ASSERT_EQ(got, want) << "segmented run diverged, S " << shards
                             << " segment rows " << segment_rows;
        if (shards == 1) {
          ASSERT_EQ(got, sync_sum) << "S = 1 must replay SyncNetwork";
        }
        ASSERT_EQ(net.stats(), sync.stats())
            << "stats invariant broken, S " << shards;
        ShardedNetwork replay(cfg);
        ASSERT_EQ(DriveRaw(replay, rounds, cap, salt), got)
            << "fixed-seed replay diverged, S " << shards;
      }
      break;
    }
    case 1: {  // BFS flood: drop-free, so bit-identical to SyncNetwork
      const Graph g = RandomTopology(r);
      const BfsTreeResult want =
          BuildBfsTree<SyncNetwork>(g, EngineConfig{.seed = seed});
      ASSERT_TRUE(ValidateBfsTree(g, want));
      for (const std::size_t shards : kShardSweep) {
        EngineConfig cfg{.seed = seed, .exec = {.num_shards = shards}};
        cfg.outbox_segment_rows = segment_rows;
        const BfsTreeResult got = BuildBfsTree<ShardedNetwork>(g, cfg);
        ASSERT_EQ(ChecksumTree(got), ChecksumTree(want))
            << "sharded flood diverged, S " << shards;
        ASSERT_EQ(got.stats, want.stats) << "S " << shards;
        const BfsTreeResult replay = BuildBfsTree<ShardedNetwork>(g, cfg);
        ASSERT_EQ(ChecksumTree(replay), ChecksumTree(got))
            << "fixed-seed replay diverged, S " << shards;
      }
      break;
    }
    default: {  // adversarial churn: strikes + recovery over the sharded engine
      const Graph g = RandomTopology(r);
      ScenarioOptions opts;
      constexpr StrikeKind kKinds[] = {StrikeKind::kOblivious,
                                       StrikeKind::kDegreeTargeted,
                                       StrikeKind::kDrip};
      opts.strike = kKinds[r.NextBelow(3)];
      opts.strike_opts.budget = r.NextBelow(g.num_nodes() / 3 + 1);
      opts.epochs = 1 + r.NextBelow(2);
      opts.recovery =
          r.NextBool(0.5) ? RecoveryMode::kRepair : RecoveryMode::kRebuild;
      opts.seed = seed;
      for (const std::size_t shards : kShardSweep) {
        SCOPED_TRACE("S " + std::to_string(shards));
        // Strike victims are fixed by (seed, S); extraction, repair, and
        // the rebuild flood are randomness-free — engine choice must not
        // matter.
        opts.strike_opts.exec.num_shards = shards;
        opts.engine = EngineKind::kSync;
        const ScenarioResult ref = RunAdversaryScenario(g, opts);
        opts.engine = EngineKind::kSharded;
        const ScenarioResult got = RunAdversaryScenario(g, opts);
        CheckScenariosMatch(got, ref, "sharded vs sync scenario");
        const ScenarioResult replay = RunAdversaryScenario(g, opts);
        CheckScenariosMatch(replay, got, "fixed-seed scenario replay");
        if (::testing::Test::HasFatalFailure()) return;
      }
      break;
    }
  }
}

TEST(ExchangeFuzz, RandomTopologyTimesWorkloadTimesShardCount) {
  if (const char* env = std::getenv("OVERLAY_FUZZ_SEED")) {
    RunCase(std::strtoull(env, nullptr, 10));
    return;
  }
  std::uint64_t state = kBaseSeed;
  for (std::size_t i = 0; i < kIterations; ++i) {
    RunCase(SplitMix64(state));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace overlay
