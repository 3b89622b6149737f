// Tests for the message-passing reference evolution: the algorithm must
// live inside the NCC0 envelope when every token is a real Message subject
// to capacity enforcement and adversarial drops.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "overlay/benign.hpp"
#include "overlay/evolution.hpp"
#include "overlay/evolution_mp.hpp"
#include "sim/sharded_network.hpp"

namespace overlay {
namespace {

struct Setup {
  Graph input;
  ExpanderParams params;
  Multigraph benign;
};

Setup MakeSetup(std::size_t n, std::uint64_t seed = 1) {
  Setup s{gen::Cycle(n), {}, Multigraph{}};
  s.params = ExpanderParams::ForSize(n, s.input.MaxDegree(), seed);
  s.benign = MakeBenign(s.input, s.params);
  return s;
}

TEST(EvolutionMp, OutputIsBenignShaped) {
  auto s = MakeSetup(96);
  const auto r = RunEvolutionMessagePassing(s.benign, s.params);
  EXPECT_TRUE(r.next.IsRegular(s.params.delta));
  EXPECT_TRUE(r.next.IsLazy(s.params.MinSelfLoops()));
  EXPECT_TRUE(IsConnected(r.next.ToSimpleGraph()));
}

TEST(EvolutionMp, EngineCountsRoundsExactly) {
  auto s = MakeSetup(64);
  const auto r = RunEvolutionMessagePassing(s.benign, s.params);
  // ℓ walk rounds + 1 accept/reply round (+1 delivery of the replies).
  EXPECT_EQ(r.stats.rounds, s.params.walk_length + 1);
}

TEST(EvolutionMp, NoCapacityDropsAtDefaultBudget) {
  // Lemma 3.2: loads stay below 3Δ/8 < Δ, so the Δ-capacity engine should
  // deliver everything.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto s = MakeSetup(128, seed);
    const auto r = RunEvolutionMessagePassing(s.benign, s.params);
    EXPECT_EQ(r.stats.messages_dropped, 0u) << "seed " << seed;
    EXPECT_LT(r.stats.max_offered_load, s.params.delta) << "seed " << seed;
  }
}

TEST(EvolutionMp, TokenAccountingConsistent) {
  auto s = MakeSetup(64);
  const auto r = RunEvolutionMessagePassing(s.benign, s.params);
  const std::uint64_t launched = 64ull * s.params.TokensPerNode();
  EXPECT_EQ(r.edges_created + r.tokens_without_edge, launched);
  // Home-returns are the dominant no-edge cause on a lazy graph, but they
  // must stay a small fraction.
  EXPECT_LT(r.tokens_without_edge, launched / 2);
}

TEST(EvolutionMp, StructurallyEquivalentToFastPath) {
  // Both engines run the same protocol; compare aggregate structure, not
  // exact edges (independent randomness).
  auto s = MakeSetup(128);
  Rng rng(7);
  const auto fast = RunEvolution(s.benign, s.params, rng);
  const auto mp = RunEvolutionMessagePassing(s.benign, s.params);
  EXPECT_TRUE(mp.next.IsRegular(s.params.delta));
  EXPECT_TRUE(fast.next.IsRegular(s.params.delta));
  // Edge totals agree within 15% (both ≈ #tokens − home-returns).
  const double fe = static_cast<double>(fast.telemetry.edges_created);
  const double me = static_cast<double>(mp.edges_created);
  EXPECT_NEAR(me / fe, 1.0, 0.15);
}

TEST(EvolutionMp, StarvedCapacityDegradesGracefully) {
  // With capacity 3Δ/16 (half the acceptance bound) the adversary drops
  // tokens mid-walk; the protocol must still emit a regular, lazy graph —
  // only connectivity may suffer, and here Λ-fold redundancy preserves it.
  auto s = MakeSetup(96);
  const auto r = RunEvolutionMessagePassing(s.benign, s.params,
                                            3 * s.params.delta / 16);
  EXPECT_GT(r.stats.messages_dropped, 0u);  // the squeeze is real
  EXPECT_TRUE(r.next.IsRegular(s.params.delta));
  EXPECT_TRUE(r.next.IsLazy(s.params.MinSelfLoops()));
}

TEST(EvolutionMp, RepeatedEvolutionsStayBenign) {
  auto s = MakeSetup(64);
  Multigraph g = s.benign;
  for (int i = 0; i < 6; ++i) {
    ExpanderParams p = s.params;
    p.seed = s.params.seed + static_cast<std::uint64_t>(i) * 977;
    auto r = RunEvolutionMessagePassing(g, p);
    g = std::move(r.next);
    EXPECT_TRUE(g.IsRegular(s.params.delta)) << "evolution " << i;
    EXPECT_TRUE(IsConnected(g.ToSimpleGraph())) << "evolution " << i;
  }
}

TEST(EvolutionMp, ShardedDriveIsDeterministicAndBenignShaped) {
  // Multi-shard ShardedNetwork drive: the node loops run on the engine's
  // shard workers with split RNG streams. Two runs with the same
  // (seed, num_shards) must agree exactly; the output stays benign.
  auto s = MakeSetup(96);
  EngineConfig cfg{.exec = {.num_shards = 4}};
  const auto a =
      RunEvolutionMessagePassing<ShardedNetwork>(s.benign, s.params, cfg);
  const auto b =
      RunEvolutionMessagePassing<ShardedNetwork>(s.benign, s.params, cfg);
  EXPECT_EQ(a.edges_created, b.edges_created);
  EXPECT_EQ(a.tokens_without_edge, b.tokens_without_edge);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_TRUE(a.next.IsRegular(s.params.delta));
  EXPECT_TRUE(a.next.IsLazy(s.params.MinSelfLoops()));
  for (NodeId v = 0; v < 96; ++v) {
    ASSERT_EQ(a.next.Degree(v), b.next.Degree(v));
  }
}

TEST(EvolutionMp, SingleShardShardedEngineMatchesSync) {
  // With one shard the drive stays serial on the historical stream and the
  // engine replays SyncNetwork bit for bit, so the whole evolution must
  // be identical to the SyncNetwork run.
  auto s = MakeSetup(64);
  const auto sync =
      RunEvolutionMessagePassing<SyncNetwork>(s.benign, s.params, {});
  const auto sharded =
      RunEvolutionMessagePassing<ShardedNetwork>(s.benign, s.params,
                                                 {.exec = {.num_shards = 1}});
  EXPECT_EQ(sync.edges_created, sharded.edges_created);
  EXPECT_EQ(sync.tokens_without_edge, sharded.tokens_without_edge);
  EXPECT_EQ(sync.stats, sharded.stats);
  for (NodeId v = 0; v < 64; ++v) {
    ASSERT_EQ(sync.next.Degree(v), sharded.next.Degree(v));
    const auto sa = sync.next.Slots(v);
    const auto sb = sharded.next.Slots(v);
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(EvolutionMp, RejectsIrregularInput) {
  Multigraph bad(4, 2);
  bad.AddEdge(0, 1);
  ExpanderParams params;
  EXPECT_THROW(RunEvolutionMessagePassing(bad, params), ContractViolation);
}

}  // namespace
}  // namespace overlay
