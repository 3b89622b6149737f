// Tests for the flat token-walk kernel, including the statistical
// equivalence check against a message-passing walk on SyncNetwork. Results
// use the SoA layout: CSR arrivals (ArrivalsAt) and a flat path matrix
// (PathOf), mirroring the network engines' arena format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/multigraph.hpp"
#include "sim/network.hpp"
#include "sim/token_engine.hpp"

namespace overlay {
namespace {

Multigraph LazyCycle(std::size_t n, std::size_t delta) {
  Multigraph m(n, delta);
  for (NodeId v = 0; v < n; ++v) m.AddEdge(v, (v + 1) % n);
  m.PadWithSelfLoops();
  return m;
}

TEST(TokenEngine, TokenConservation) {
  const Multigraph m = LazyCycle(16, 4);
  Rng rng(1);
  const auto result = RunTokenWalks(m, {.tokens_per_node = 3, .walk_length = 5}, rng);
  EXPECT_EQ(result.arrival_origins.size(), 16u * 3u);
  EXPECT_EQ(result.arrival_offsets.back(), 16u * 3u);
  EXPECT_EQ(result.token_steps, 16u * 3u * 5u);
}

TEST(TokenEngine, OriginsAreCorrect) {
  const Multigraph m = LazyCycle(8, 4);
  Rng rng(2);
  const auto result = RunTokenWalks(m, {.tokens_per_node = 2, .walk_length = 3}, rng);
  std::vector<std::size_t> origin_count(8, 0);
  for (NodeId v = 0; v < 8; ++v) {
    for (const NodeId origin : result.ArrivalsAt(v)) ++origin_count[origin];
  }
  for (const auto c : origin_count) EXPECT_EQ(c, 2u);
}

TEST(TokenEngine, PathsAreValidWalks) {
  const Multigraph m = LazyCycle(12, 4);
  Rng rng(3);
  const auto result = RunTokenWalks(
      m, {.tokens_per_node = 2, .walk_length = 6, .record_paths = true}, rng);
  ASSERT_EQ(result.num_paths(), 24u);
  ASSERT_EQ(result.path_stride, 7u);
  const Graph simple = m.ToSimpleGraph();
  for (std::size_t i = 0; i < result.num_paths(); ++i) {
    const auto path = result.PathOf(i);
    ASSERT_EQ(path.size(), 7u);
    EXPECT_EQ(path.front(), result.token_origin[i]);
    for (std::size_t s = 0; s + 1 < path.size(); ++s) {
      // Every step is a real edge or a lazy self-loop stay.
      EXPECT_TRUE(path[s] == path[s + 1] || simple.HasEdge(path[s], path[s + 1]));
    }
  }
}

TEST(TokenEngine, PathEndpointsMatchArrivals) {
  const Multigraph m = LazyCycle(10, 4);
  Rng rng(4);
  const auto result = RunTokenWalks(
      m, {.tokens_per_node = 1, .walk_length = 4, .record_paths = true}, rng);
  std::vector<std::size_t> ends(10, 0), arr(10, 0);
  for (std::size_t i = 0; i < result.num_paths(); ++i) {
    ++ends[result.PathOf(i).back()];
  }
  for (NodeId v = 0; v < 10; ++v) arr[v] = result.ArrivalCountAt(v);
  EXPECT_EQ(ends, arr);
}

TEST(TokenEngine, ArrivalTokensJoinArrivalsToPaths) {
  // The arrival→path join column: arrival k at node v must reference the
  // path whose endpoint is v and whose origin matches arrival_origins[k].
  const Multigraph m = LazyCycle(10, 4);
  Rng rng(9);
  auto result = RunTokenWalks(
      m, {.tokens_per_node = 2, .walk_length = 4, .record_paths = true}, rng);
  ASSERT_EQ(result.arrival_token.size(), result.arrival_origins.size());
  for (NodeId v = 0; v < 10; ++v) {
    const auto origins = result.ArrivalsAt(v);
    const auto tokens = result.ArrivalTokensAt(v);
    for (std::size_t i = 0; i < origins.size(); ++i) {
      const auto path = result.PathOf(tokens[i]);
      EXPECT_EQ(path.back(), v);
      EXPECT_EQ(path.front(), origins[i]);
      EXPECT_EQ(result.token_origin[tokens[i]], origins[i]);
    }
  }
}

TEST(TokenEngine, MaxLoadBoundedByTotalTokens) {
  const Multigraph m = LazyCycle(8, 4);
  Rng rng(5);
  const auto result = RunTokenWalks(m, {.tokens_per_node = 4, .walk_length = 8}, rng);
  EXPECT_GE(result.max_load, 4u);   // pigeonhole: someone holds >= average
  EXPECT_LE(result.max_load, 32u);  // cannot exceed the token population
}

TEST(TokenEngine, ShardedWalksDeterministicAndConserving) {
  // The sharded walk path: same (seed, num_shards) => identical arrivals,
  // paths, and load telemetry; tokens are conserved across shards.
  const Multigraph m = LazyCycle(24, 8);
  const TokenWalkOptions opts{.tokens_per_node = 3,
                              .walk_length = 6,
                              .record_paths = true,
                              .exec = {.num_shards = 4}};
  Rng rng_a(11);
  Rng rng_b(11);
  const auto a = RunTokenWalks(m, opts, rng_a);
  const auto b = RunTokenWalks(m, opts, rng_b);
  EXPECT_EQ(a.arrival_origins, b.arrival_origins);
  EXPECT_EQ(a.arrival_offsets, b.arrival_offsets);
  EXPECT_EQ(a.arrival_token, b.arrival_token);
  EXPECT_EQ(a.path_nodes, b.path_nodes);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.arrival_origins.size(), 24u * 3u);
  EXPECT_EQ(a.token_steps, 24u * 3u * 6u);
  // Every recorded path is a valid walk of the advertised length.
  const Graph simple = m.ToSimpleGraph();
  for (std::size_t i = 0; i < a.num_paths(); ++i) {
    const auto path = a.PathOf(i);
    ASSERT_EQ(path.size(), 7u);
    for (std::size_t s = 0; s + 1 < path.size(); ++s) {
      EXPECT_TRUE(path[s] == path[s + 1] ||
                  simple.HasEdge(path[s], path[s + 1]));
    }
  }
}

TEST(TokenEngine, ArrivalOrderIsTokenIndexOrderAtEveryShardCount) {
  // Above one shard every shard walks its own contiguous token block, but
  // the CSR contract is token-index order within every node's arrival
  // bucket at every shard count. The join column makes the contract
  // checkable: it must be strictly ascending inside each bucket.
  const Multigraph m = LazyCycle(48, 8);
  for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul}) {
    Rng rng(21);
    const auto r = RunTokenWalks(m,
                                 {.tokens_per_node = 3,
                                  .walk_length = 5,
                                  .record_paths = true,
                                  .exec = {.num_shards = shards}},
                                 rng);
    for (NodeId v = 0; v < 48; ++v) {
      const auto tokens = r.ArrivalTokensAt(v);
      const auto origins = r.ArrivalsAt(v);
      for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        ASSERT_LT(tokens[i], tokens[i + 1])
            << "arrivals out of token order at node " << v << " S " << shards;
      }
      // Origins and the join column stay in lockstep, and every arrival is
      // the endpoint of its own path.
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        ASSERT_EQ(origins[i], r.token_origin[tokens[i]]);
        ASSERT_EQ(r.PathOf(tokens[i]).back(), v);
      }
    }
  }
}

TEST(TokenEngine, TokenBlocksSurviveUnevenSplits) {
  // Token and node blocks are ceil-sized, so trailing shards may own short
  // or empty blocks (5 nodes × 1 token over 4 shards leaves shard 3 one
  // token; over 5 shards every block holds one). Every token still walks
  // every step and the load fold still sees every node.
  const Multigraph m = LazyCycle(5, 4);
  for (const std::size_t shards : {2ul, 3ul, 4ul, 5ul, 8ul}) {
    Rng rng(8);
    const auto r = RunTokenWalks(m,
                                 {.tokens_per_node = 1,
                                  .walk_length = 7,
                                  .record_paths = true,
                                  .exec = {.num_shards = shards}},
                                 rng);
    EXPECT_EQ(r.token_steps, 5u * 7u) << "S " << shards;
    EXPECT_EQ(r.arrival_offsets.back(), 5u) << "S " << shards;
    EXPECT_GE(r.max_load, 1u);
    for (std::size_t i = 0; i < r.num_paths(); ++i) {
      for (const NodeId at : r.PathOf(i)) ASSERT_LT(at, 5u) << "S " << shards;
    }
  }
}

TEST(TokenEngine, RejectsIrregularOrEmptyGraphs) {
  // The kernel validates the graph once per call instead of per step: rows
  // of unequal fill, or an all-empty graph, are contract violations.
  Multigraph irregular(4, 4);
  irregular.AddEdge(0, 1);
  irregular.PadWithSelfLoops(0, 3);
  Rng rng(1);
  for (const std::size_t shards : {1ul, 2ul}) {
    EXPECT_THROW(RunTokenWalks(irregular,
                               {.tokens_per_node = 1,
                                .walk_length = 2,
                                .exec = {.num_shards = shards}},
                               rng),
                 ContractViolation);
  }
  const Multigraph empty(4, 4);
  EXPECT_THROW(
      RunTokenWalks(empty, {.tokens_per_node = 1, .walk_length = 2}, rng),
      ContractViolation);
  // Regular rows below capacity are fine: the kernel draws below the common
  // degree, not the row capacity.
  Multigraph partial(6, 8);
  for (NodeId v = 0; v < 6; ++v) partial.AddEdge(v, (v + 1) % 6);
  Rng walk_rng(2);
  const auto r = RunTokenWalks(
      partial, {.tokens_per_node = 2, .walk_length = 4, .record_paths = true},
      walk_rng);
  for (std::size_t i = 0; i < r.num_paths(); ++i) {
    const auto path = r.PathOf(i);
    for (std::size_t t = 0; t + 1 < path.size(); ++t) {
      const NodeId d = (path[t + 1] + 6 - path[t]) % 6;
      ASSERT_TRUE(d == 1 || d == 5) << "token " << i << " left the ring";
    }
  }
}

TEST(TokenEngine, RejectsTokenCountBeyondThe32BitIndex) {
  // Token indices are 32-bit (the arrival_token join column), so one call
  // may launch at most 2^32 tokens. 2^20 nodes × 4097 tokens is 2^32 + 2^20:
  // the options check must reject it before allocating a single token.
  Multigraph m(std::size_t{1} << 20, 1);
  m.PadWithSelfLoops();
  Rng rng(3);
  const Rng before = rng;
  try {
    RunTokenWalks(m, {.tokens_per_node = 4097, .walk_length = 1}, rng);
    FAIL() << "2^32 + 2^20 tokens were accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
        << e.what();
  }
  Rng untouched = before;
  EXPECT_EQ(rng.Next(), untouched.Next()) << "rejected call consumed the RNG";
}

TEST(TokenEngine, ArrivalTokensReadableForEmptyBuckets) {
  // The arrival→path join requires record_paths; the check keys on
  // path_stride, not on per-bucket emptiness — a node nothing arrived at
  // still reads an empty span instead of throwing.
  const Multigraph m = LazyCycle(32, 4);
  Rng rng(3);
  const auto bare =
      RunTokenWalks(m, {.tokens_per_node = 1, .walk_length = 2}, rng);
  EXPECT_THROW(bare.ArrivalTokensAt(0), ContractViolation);
  Rng rng2(3);
  const auto rec = RunTokenWalks(
      m, {.tokens_per_node = 1, .walk_length = 4, .record_paths = true}, rng2);
  bool saw_empty = false;
  for (NodeId v = 0; v < 32; ++v) {
    const auto tokens = rec.ArrivalTokensAt(v);
    saw_empty |= tokens.empty();
    EXPECT_EQ(tokens.size(), rec.ArrivalCountAt(v));
  }
  EXPECT_TRUE(saw_empty) << "workload failed to produce an empty bucket";
}

TEST(TokenEngine, PermuteArrivalBucketKeepsOriginsAndJoinInLockstep) {
  const Multigraph m = LazyCycle(12, 4);
  Rng rng(17);
  auto r = RunTokenWalks(
      m, {.tokens_per_node = 4, .walk_length = 3, .record_paths = true}, rng);
  NodeId v = 0;
  for (NodeId u = 1; u < 12; ++u) {
    if (r.ArrivalCountAt(u) > r.ArrivalCountAt(v)) v = u;
  }
  const std::size_t k = r.ArrivalCountAt(v);
  ASSERT_GE(k, 2u);
  const std::vector<NodeId> origins_before(r.ArrivalsAt(v).begin(),
                                           r.ArrivalsAt(v).end());
  const std::vector<std::uint32_t> tokens_before(r.ArrivalTokensAt(v).begin(),
                                                 r.ArrivalTokensAt(v).end());
  std::vector<std::uint32_t> perm(k);
  for (std::size_t i = 0; i < k; ++i) {
    perm[i] = static_cast<std::uint32_t>(k - 1 - i);
  }
  r.PermuteArrivalBucket(v, perm);
  const auto origins = r.ArrivalsAt(v);
  const auto tokens = r.ArrivalTokensAt(v);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(origins[i], origins_before[k - 1 - i]);
    EXPECT_EQ(tokens[i], tokens_before[k - 1 - i]);
  }
  // The permuted bucket still joins arrivals to their own paths.
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(r.PathOf(tokens[i]).back(), v);
    EXPECT_EQ(r.token_origin[tokens[i]], origins[i]);
  }
  // A size-mismatched permutation is a contract violation.
  EXPECT_THROW(
      r.PermuteArrivalBucket(v, std::vector<std::uint32_t>(k + 1)),
      ContractViolation);
}

TEST(TokenEngine, SmokeAtEnvShardCount) {
  // CI's TSan shard-count matrix drives this test at S ∈ {1, 2, 4} via
  // TOKEN_ENGINE_SMOKE_SHARDS, putting the token-block walk and load-reduce
  // phases under the race detector at every shard shape; unset, it
  // defaults to S=2.
  std::size_t shards = 2;
  if (const char* env = std::getenv("TOKEN_ENGINE_SMOKE_SHARDS")) {
    const auto parsed = std::strtoull(env, nullptr, 10);
    shards = parsed > 0 ? static_cast<std::size_t>(parsed) : 1;
  }
  const Multigraph m = LazyCycle(64, 8);
  const TokenWalkOptions opts{.tokens_per_node = 4,
                              .walk_length = 8,
                              .exec = {.num_shards = shards}};
  Rng rng_a(5);
  Rng rng_b(5);
  const auto a = RunTokenWalks(m, opts, rng_a);
  const auto b = RunTokenWalks(m, opts, rng_b);
  EXPECT_EQ(a.arrival_origins, b.arrival_origins);
  EXPECT_EQ(a.arrival_offsets, b.arrival_offsets);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.token_steps, 64u * 4u * 8u);
}

TEST(TokenEngine, RejectsDegenerateOptions) {
  const Multigraph m = LazyCycle(8, 4);
  Rng rng(6);
  EXPECT_THROW(RunTokenWalks(m, {.tokens_per_node = 0, .walk_length = 4}, rng),
               ContractViolation);
  EXPECT_THROW(RunTokenWalks(m, {.tokens_per_node = 1, .walk_length = 0}, rng),
               ContractViolation);
}

TEST(TokenEngine, MixedWalkIsNearUniformOnExpander) {
  // After a long walk on a lazy complete graph, endpoints should be close
  // to uniform.
  const std::size_t n = 16;
  Multigraph m(n, 30);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) m.AddEdge(u, v);
  }
  m.PadWithSelfLoops();
  Rng rng(7);
  const auto result = RunTokenWalks(m, {.tokens_per_node = 500, .walk_length = 12}, rng);
  const double expected = 500.0;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(static_cast<double>(result.ArrivalCountAt(v)), expected,
                expected * 0.2);
  }
}

// Statistical equivalence with a message-passing implementation of the same
// walk on SyncNetwork: endpoint distributions from both engines on the same
// graph must agree within sampling noise (DESIGN.md §3.3 fast-path claim).
TEST(TokenEngine, MatchesMessagePassingWalkDistribution) {
  const std::size_t n = 8;
  const std::size_t delta = 4;
  const Multigraph m = LazyCycle(n, delta);
  const std::size_t kTokens = 400;  // per node
  const std::size_t kSteps = 3;

  // Engine A: token engine.
  Rng rng_a(11);
  const auto fast =
      RunTokenWalks(m, {.tokens_per_node = kTokens, .walk_length = kSteps}, rng_a);

  // Engine B: explicit messages. Token = message whose word0 is the origin.
  // Capacity is generous; this verifies semantics, not caps.
  SyncNetwork net({n, 16 * kTokens, 13});
  Rng rng_b(12);
  std::vector<std::size_t> arrivals_b(n, 0);
  // Round 0: each node sends its tokens one step.
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < kTokens; ++t) {
      Message msg;
      msg.kind = 1;
      msg.words[0] = v;
      net.Send(v, m.RandomNeighbor(v, rng_b), msg);
    }
  }
  net.EndRound();
  for (std::size_t step = 1; step < kSteps; ++step) {
    for (NodeId v = 0; v < n; ++v) {
      for (const MessageView msg : net.Inbox(v)) {
        net.Send(v, m.RandomNeighbor(v, rng_b), msg.ToMessage());
      }
    }
    net.EndRound();
  }
  for (NodeId v = 0; v < n; ++v) arrivals_b[v] += net.Inbox(v).size();

  // Compare per-node arrival counts: both are sums of the same multinomial;
  // allow 5 sigma of binomial noise.
  const double mean = static_cast<double>(kTokens);
  const double sigma = std::sqrt(mean);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(static_cast<double>(fast.ArrivalCountAt(v)),
                static_cast<double>(arrivals_b[v]), 10 * sigma)
        << "node " << v;
  }
}

}  // namespace
}  // namespace overlay
