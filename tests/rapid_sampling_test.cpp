// Tests for Lemma 4.2 rapid sampling (walk stitching).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/generators.hpp"
#include "hybrid/rapid_sampling.hpp"
#include "sim/token_engine.hpp"

namespace overlay {
namespace {

Multigraph LazyCycle(std::size_t n, std::size_t delta) {
  Multigraph m(n, delta);
  for (NodeId v = 0; v < n; ++v) m.AddEdge(v, (v + 1) % n);
  m.PadWithSelfLoops();
  return m;
}

TEST(RapidSampling, RoundsAreLogarithmicInWalkLength) {
  const Multigraph m = LazyCycle(32, 4);
  for (std::size_t ell : {4u, 8u, 16u, 32u, 64u}) {
    Rng rng(1);
    const auto r = RunRapidSampling(
        m, {.walk_length = ell, .tokens_per_node = 32}, rng);
    // 2 plain rounds + log2(ell) - 1 stitch rounds.
    EXPECT_EQ(r.cost.rounds, 2 + FloorLog2(ell) - 1) << "ell=" << ell;
  }
}

TEST(RapidSampling, SurvivorCountConcentrates) {
  const Multigraph m = LazyCycle(64, 8);
  const std::size_t ell = 16;
  const std::size_t per_node = TokensNeededFor(16, ell);  // aim: 16 survivors
  Rng rng(2);
  const auto r = RunRapidSampling(
      m, {.walk_length = ell, .tokens_per_node = per_node}, rng);
  const double expected = 64.0 * 16.0;
  EXPECT_NEAR(static_cast<double>(r.tokens.size()), expected, expected * 0.25);
}

TEST(RapidSampling, TokensNeededForInverts) {
  EXPECT_EQ(TokensNeededFor(8, 32), 128u);
  EXPECT_EQ(TokensNeededFor(1, 4), 2u);
  EXPECT_THROW(TokensNeededFor(8, 12), ContractViolation);  // not a power of 2
}

TEST(RapidSampling, PathsAreLengthEllWalks) {
  const Multigraph m = LazyCycle(24, 4);
  const std::size_t ell = 8;
  Rng rng(3);
  const auto r = RunRapidSampling(
      m,
      {.walk_length = ell, .tokens_per_node = 16, .record_paths = true},
      rng);
  ASSERT_FALSE(r.tokens.empty());
  const Graph simple = m.ToSimpleGraph();
  for (const StitchedToken& t : r.tokens) {
    ASSERT_EQ(t.path.size(), ell + 1);
    EXPECT_EQ(t.path.front(), t.origin);
    EXPECT_EQ(t.path.back(), t.endpoint);
    for (std::size_t i = 0; i + 1 < t.path.size(); ++i) {
      EXPECT_TRUE(t.path[i] == t.path[i + 1] ||
                  simple.HasEdge(t.path[i], t.path[i + 1]));
    }
  }
}

TEST(RapidSampling, EndpointDistributionMatchesPlainWalks) {
  // The stitched length-ℓ walks must be distributed like plain length-ℓ
  // walks: compare per-node endpoint frequencies of tokens started at node 0
  // on a small cycle.
  const std::size_t n = 8;
  const Multigraph m = LazyCycle(n, 4);
  const std::size_t ell = 8;

  // Plain walks: empirical endpoint distribution of walks from each node.
  Rng rng_plain(5);
  const auto plain =
      RunTokenWalks(m, {.tokens_per_node = 4000, .walk_length = ell}, rng_plain);
  // Count endpoints of tokens that *originated* at node 0.
  std::vector<double> plain_freq(n, 0);
  double plain_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId origin : plain.ArrivalsAt(v)) {
      if (origin == 0) {
        plain_freq[v] += 1;
        ++plain_total;
      }
    }
  }

  Rng rng_stitch(6);
  const auto stitched = RunRapidSampling(
      m, {.walk_length = ell, .tokens_per_node = 4000}, rng_stitch);
  std::vector<double> stitch_freq(n, 0);
  double stitch_total = 0;
  for (const StitchedToken& t : stitched.tokens) {
    if (t.origin == 0) {
      stitch_freq[t.endpoint] += 1;
      ++stitch_total;
    }
  }
  ASSERT_GT(plain_total, 1000);
  ASSERT_GT(stitch_total, 200);
  for (NodeId v = 0; v < n; ++v) {
    const double p = plain_freq[v] / plain_total;
    const double s = stitch_freq[v] / stitch_total;
    EXPECT_NEAR(p, s, 0.05) << "endpoint " << v;
  }
}

TEST(RapidSampling, RejectsBadWalkLength) {
  const Multigraph m = LazyCycle(8, 4);
  Rng rng(7);
  EXPECT_THROW(
      RunRapidSampling(m, {.walk_length = 12, .tokens_per_node = 4}, rng),
      ContractViolation);
  EXPECT_THROW(
      RunRapidSampling(m, {.walk_length = 2, .tokens_per_node = 4}, rng),
      ContractViolation);
}

TEST(RapidSampling, ShardedStitchDeterministicAtS1AndS4) {
  // The phase B stitch on split per-shard streams (ROADMAP rapid-sampling
  // item): for each S in {1, 4}, two runs with the same seed must agree bit
  // for bit — survivors in the same order with the same paths — and the
  // shard-count-invariant quantities (rounds, message count, survivor
  // count) must match across shard counts. S = 1 is the historical serial
  // path; S = 4 exercises the pooled workers.
  const Multigraph m = LazyCycle(64, 8);
  const std::size_t ell = 16;
  std::vector<RapidSamplingResult> per_shards;
  for (const std::size_t s : {1u, 4u}) {
    const RapidSamplingOptions opts{.walk_length = ell,
                                    .tokens_per_node = 32,
                                    .record_paths = true,
                                    .exec = {.num_shards = s}};
    Rng rng_a(21);
    Rng rng_b(21);
    const auto a = RunRapidSampling(m, opts, rng_a);
    const auto b = RunRapidSampling(m, opts, rng_b);
    ASSERT_EQ(a.tokens.size(), b.tokens.size()) << "S=" << s;
    for (std::size_t i = 0; i < a.tokens.size(); ++i) {
      EXPECT_EQ(a.tokens[i].origin, b.tokens[i].origin) << "S=" << s;
      EXPECT_EQ(a.tokens[i].endpoint, b.tokens[i].endpoint) << "S=" << s;
      EXPECT_EQ(a.tokens[i].path, b.tokens[i].path) << "S=" << s;
    }
    EXPECT_EQ(a.cost.rounds, b.cost.rounds);
    EXPECT_EQ(a.cost.global_messages, b.cost.global_messages);
    EXPECT_EQ(a.max_load, b.max_load);
    per_shards.push_back(a);
  }
  // The round count is fixed by ℓ alone. Which tokens pair up (and hence
  // where survivors sit in later rounds) depends on the streams, so message
  // and survivor totals are only distributionally equal: both shard counts
  // must land near the expected 2k/ℓ survivor mass.
  EXPECT_EQ(per_shards[0].cost.rounds, per_shards[1].cost.rounds);
  const double expected = 64.0 * 32.0 * 2.0 / static_cast<double>(ell);
  for (const auto& r : per_shards) {
    EXPECT_NEAR(static_cast<double>(r.tokens.size()), expected,
                expected * 0.25);
  }
  // Every surviving stitched path is still a valid length-ℓ walk.
  const Graph simple = m.ToSimpleGraph();
  for (const StitchedToken& t : per_shards[1].tokens) {
    ASSERT_EQ(t.path.size(), ell + 1);
    EXPECT_EQ(t.path.front(), t.origin);
    EXPECT_EQ(t.path.back(), t.endpoint);
    for (std::size_t i = 0; i + 1 < t.path.size(); ++i) {
      EXPECT_TRUE(t.path[i] == t.path[i + 1] ||
                  simple.HasEdge(t.path[i], t.path[i + 1]));
    }
  }
}

TEST(RapidSampling, GlobalMessagesAccounted) {
  const Multigraph m = LazyCycle(16, 4);
  Rng rng(8);
  const auto r = RunRapidSampling(
      m, {.walk_length = 8, .tokens_per_node = 8}, rng);
  // Phase A: 2 steps × 16×8 tokens; Phase B: one message per merge.
  EXPECT_GE(r.cost.global_messages, 2u * 16 * 8);
  EXPECT_GT(r.max_load, 0u);
}

}  // namespace
}  // namespace overlay
