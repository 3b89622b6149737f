// Tests for Theorem 1.3: spanning trees via walk unwinding.
#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "hybrid/spanning_tree.hpp"

namespace overlay {
namespace {

struct FamilyCase {
  const char* name;
  Graph (*make)(std::size_t, std::uint64_t);
};

Graph MakeLine(std::size_t n, std::uint64_t) { return gen::Line(n); }
Graph MakeCycle(std::size_t n, std::uint64_t) { return gen::Cycle(n); }
Graph MakeGnp(std::size_t n, std::uint64_t s) {
  return gen::ConnectedGnp(n, 6.0 / static_cast<double>(n), s);
}
Graph MakeStarPlus(std::size_t n, std::uint64_t) {
  // Star with a tail: high degree + long distance mix.
  GraphBuilder b(n);
  for (NodeId v = 1; v < n / 2; ++v) b.AddEdge(0, v);
  for (NodeId v = n / 2; v < n; ++v) b.AddEdge(v - 1, v);
  return std::move(b).Build();
}

class SpanningTreeFamilyTest
    : public ::testing::TestWithParam<std::tuple<FamilyCase, std::size_t>> {};

TEST_P(SpanningTreeFamilyTest, OutputIsSpanningTreeOfG) {
  const auto& [family, n] = GetParam();
  const Graph g = family.make(n, 5);
  const auto r = BuildSpanningTree(g, {.seed = 5});
  EXPECT_TRUE(ValidateSpanningTree(g, r));
}

INSTANTIATE_TEST_SUITE_P(
    Families, SpanningTreeFamilyTest,
    ::testing::Combine(
        ::testing::Values(FamilyCase{"line", MakeLine},
                          FamilyCase{"cycle", MakeCycle},
                          FamilyCase{"gnp", MakeGnp},
                          FamilyCase{"starplus", MakeStarPlus}),
        ::testing::Values(32, 128, 512)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SpanningTree, ParentArrayConsistentWithEdges) {
  const Graph g = gen::ConnectedGnp(100, 0.08, 7);
  const auto r = BuildSpanningTree(g, {.seed = 7});
  ASSERT_TRUE(ValidateSpanningTree(g, r));
  EXPECT_EQ(r.parent[0], kInvalidNode);
  std::size_t parent_edges = 0;
  for (NodeId v = 1; v < 100; ++v) {
    ASSERT_NE(r.parent[v], kInvalidNode);
    ++parent_edges;
    const auto key = v < r.parent[v] ? std::make_pair(v, r.parent[v])
                                     : std::make_pair(r.parent[v], v);
    EXPECT_TRUE(std::find(r.edges.begin(), r.edges.end(), key) !=
                r.edges.end());
  }
  EXPECT_EQ(parent_edges, r.edges.size());
}

TEST(SpanningTree, LevelCountsRecorded) {
  const Graph g = gen::Cycle(128);
  const auto r = BuildSpanningTree(g, {.seed = 9});
  // One entry per provenance level plus the starting tree level.
  EXPECT_GE(r.level_edge_counts.size(), 2u);
  EXPECT_EQ(r.level_edge_counts.front(), 127u);  // tree edges
  EXPECT_GT(r.unwound_subgraph_edges, 0u);
}

TEST(SpanningTree, UnwoundSubgraphStaysSparse) {
  // The dedup'd expansion must stay near-linear, not explode like the naive
  // path expansion would.
  const std::size_t n = 512;
  const Graph g = gen::ConnectedGnp(n, 0.02, 11);
  const auto r = BuildSpanningTree(g, {.seed = 11});
  for (const std::size_t count : r.level_edge_counts) {
    EXPECT_LT(count, 200 * n);
  }
}

TEST(SpanningTree, SingleNode) {
  const Graph g = GraphBuilder(1).Build();
  const auto r = BuildSpanningTree(g, {.seed = 1});
  EXPECT_TRUE(r.edges.empty());
  EXPECT_TRUE(ValidateSpanningTree(g, r));
}

TEST(SpanningTree, TwoNodes) {
  const Graph g = gen::Line(2);
  const auto r = BuildSpanningTree(g, {.seed = 1});
  EXPECT_TRUE(ValidateSpanningTree(g, r));
  ASSERT_EQ(r.edges.size(), 1u);
}

TEST(SpanningTree, RejectsDisconnected) {
  const Graph g = gen::DisjointUnion({gen::Line(4), gen::Line(4)});
  EXPECT_THROW(BuildSpanningTree(g, {.seed = 1}), ContractViolation);
}

TEST(SpanningTree, RejectsExpanderDeltaBelowTwiceDegreeTimesLambda) {
  // Δ = 8 < 2·deg(H)·Λ = 16·deg(H): the prepared graph could not be lazy.
  HybridOverlayOptions opts{.seed = 1};
  opts.expander.lambda = 8;
  opts.expander.delta = 8;
  try {
    BuildSpanningTree(gen::Cycle(16), opts);
    FAIL() << "Δ below 2·deg(H)·Λ was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("HybridExpanderOptions::delta"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpanningTree, DeterministicInSeed) {
  const Graph g = gen::Cycle(64);
  const auto a = BuildSpanningTree(g, {.seed = 33});
  const auto b = BuildSpanningTree(g, {.seed = 33});
  EXPECT_EQ(a.edges, b.edges);
}

TEST(ValidateSpanningTree, RejectsBadTrees) {
  const Graph g = gen::Cycle(5);
  SpanningTreeResult r;
  // Too few edges.
  r.edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(ValidateSpanningTree(g, r));
  // Non-edges of g.
  r.edges = {{0, 1}, {1, 2}, {2, 3}, {0, 2}};
  EXPECT_FALSE(ValidateSpanningTree(g, r));
  // Cycle (0-1-2-3-4-0 uses all 5 edges; any 4 distinct edges are a tree,
  // but repeating one creates a cycle).
  r.edges = {{0, 1}, {1, 2}, {0, 1}, {3, 4}};
  EXPECT_FALSE(ValidateSpanningTree(g, r));
  // Correct.
  r.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  EXPECT_TRUE(ValidateSpanningTree(g, r));
}

}  // namespace
}  // namespace overlay
