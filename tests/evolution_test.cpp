// Tests for a single CreateExpander evolution: invariants, caps, provenance.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "overlay/benign.hpp"
#include "overlay/evolution.hpp"

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

TEST(Evolution, OutputStaysRegularAndLazy) {
  auto s = MakeSetup(64);
  Rng rng(1);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_TRUE(evo.next.IsRegular(s.params.delta));
  EXPECT_TRUE(evo.next.IsLazy(s.params.MinSelfLoops()));
}

TEST(Evolution, NonLoopDegreeCappedAtHalfDelta) {
  auto s = MakeSetup(64);
  Rng rng(2);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  for (NodeId v = 0; v < evo.next.num_nodes(); ++v) {
    const std::size_t non_loop =
        evo.next.Degree(v) - evo.next.SelfLoopCount(v);
    EXPECT_LE(non_loop, s.params.delta / 2);
  }
}

TEST(Evolution, RequiresRegularInput) {
  auto s = MakeSetup(16);
  Multigraph irregular(4, 2);
  irregular.AddEdge(0, 1);
  Rng rng(3);
  EXPECT_THROW(RunEvolution(irregular, s.params, rng), ContractViolation);
  // RunEvolution keys on the fill count, not the row capacity: one short
  // row, or equal rows filled below Δ, is not a benign graph.
  Multigraph short_row(16, s.params.delta);
  for (NodeId v = 0; v < 16; ++v) short_row.AddEdge(v, (v + 1) % 16);
  short_row.PadWithSelfLoops(0, 15);
  Multigraph underfilled(16, s.params.delta);
  for (NodeId v = 0; v < 16; ++v) underfilled.AddEdge(v, (v + 1) % 16);
  EXPECT_THROW(RunEvolution(short_row, s.params, rng), ContractViolation);
  EXPECT_THROW(RunEvolution(underfilled, s.params, rng), ContractViolation);
  short_row.PadWithSelfLoops();
  EXPECT_NO_THROW(RunEvolution(short_row, s.params, rng));
}

TEST(Evolution, TelemetryAccounting) {
  auto s = MakeSetup(32);
  Rng rng(4);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_EQ(evo.telemetry.rounds, s.params.walk_length + 1);
  EXPECT_EQ(evo.telemetry.token_steps,
            32u * s.params.TokensPerNode() * s.params.walk_length);
  EXPECT_EQ(evo.telemetry.reply_messages, evo.telemetry.edges_created);
  EXPECT_GT(evo.telemetry.edges_created, 0u);
}

TEST(Evolution, MaxTokenLoadStaysBelowAcceptBoundWhp) {
  // Lemma 3.2: loads stay below 3Δ/8, so (w.h.p.) nothing is discarded.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto s = MakeSetup(128, seed);
    Rng rng(seed);
    const auto evo = RunEvolution(s.benign, s.params, rng);
    EXPECT_LT(evo.telemetry.max_token_load, s.params.AcceptBound())
        << "seed " << seed;
    EXPECT_EQ(evo.telemetry.tokens_discarded, 0u) << "seed " << seed;
  }
}

TEST(Evolution, ProvenanceMatchesEdges) {
  auto s = MakeSetup(48);
  s.params.record_paths = true;
  Rng rng(6);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_EQ(evo.provenance.size(), evo.telemetry.edges_created);
  const Graph simple = s.benign.ToSimpleGraph();
  for (const EdgeProvenance& p : evo.provenance) {
    ASSERT_EQ(p.path.size(), s.params.walk_length + 1);
    EXPECT_EQ(p.path.front(), p.origin);
    EXPECT_EQ(p.path.back(), p.endpoint);
    EXPECT_NE(p.origin, p.endpoint);
    for (std::size_t i = 0; i + 1 < p.path.size(); ++i) {
      EXPECT_TRUE(p.path[i] == p.path[i + 1] ||
                  simple.HasEdge(p.path[i], p.path[i + 1]));
    }
  }
}

TEST(Evolution, NoProvenanceUnlessRequested) {
  auto s = MakeSetup(32);
  Rng rng(7);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_TRUE(evo.provenance.empty());
}

TEST(Evolution, ShardedFastPathKeepsInvariantsAndDeterminism) {
  // The sharded evolution (walks + acceptance selection + padding on the
  // pool) must preserve every structural invariant and be deterministic
  // for a fixed (seed, num_shards).
  auto s = MakeSetup(96);
  s.params.exec.num_shards = 4;
  Rng rng_a(11);
  Rng rng_b(11);
  const auto a = RunEvolution(s.benign, s.params, rng_a);
  const auto b = RunEvolution(s.benign, s.params, rng_b);
  EXPECT_TRUE(a.next.IsRegular(s.params.delta));
  EXPECT_TRUE(a.next.IsLazy(s.params.MinSelfLoops()));
  EXPECT_EQ(a.telemetry.edges_created, b.telemetry.edges_created);
  EXPECT_EQ(a.telemetry.tokens_discarded, b.telemetry.tokens_discarded);
  EXPECT_EQ(a.telemetry.max_token_load, b.telemetry.max_token_load);
  for (NodeId v = 0; v < 96; ++v) {
    ASSERT_EQ(a.next.Degree(v), b.next.Degree(v));
    const auto sa = a.next.Slots(v);
    const auto sb = b.next.Slots(v);
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(Evolution, ShardedProvenanceMatchesEdges) {
  auto s = MakeSetup(64);
  s.params.record_paths = true;
  s.params.exec.num_shards = 3;
  Rng rng(7);
  const auto evo = RunEvolution(s.benign, s.params, rng);
  EXPECT_EQ(evo.provenance.size(), evo.telemetry.edges_created);
  for (const auto& p : evo.provenance) {
    ASSERT_EQ(p.path.size(), s.params.walk_length + 1);
    EXPECT_EQ(p.path.front(), p.origin);
    EXPECT_EQ(p.path.back(), p.endpoint);
  }
}

TEST(Evolution, DeterministicInRngState) {
  auto s = MakeSetup(32);
  Rng rng1(9), rng2(9);
  const auto a = RunEvolution(s.benign, s.params, rng1);
  const auto b = RunEvolution(s.benign, s.params, rng2);
  EXPECT_EQ(a.telemetry.edges_created, b.telemetry.edges_created);
  for (NodeId v = 0; v < 32; ++v) {
    const auto sa = a.next.Slots(v);
    const auto sb = b.next.Slots(v);
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
  }
}

}  // namespace
}  // namespace overlay
