// Tests for Stoer–Wagner exact min cut and the Karger sampler.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/mincut.hpp"
#include "graph/multigraph.hpp"

namespace overlay {
namespace {

Multigraph FromGraph(const Graph& g, std::size_t copies = 1) {
  // One spare slot per row for a test's own self-loop.
  Multigraph m(g.num_nodes(), g.MaxDegree() * copies + 1);
  for (const auto& [u, v] : g.EdgeList()) {
    for (std::size_t c = 0; c < copies; ++c) m.AddEdge(u, v);
  }
  return m;
}

TEST(StoerWagner, LineHasCutOne) {
  EXPECT_EQ(StoerWagnerMinCut(gen::Line(10)), 1u);
}

TEST(StoerWagner, CycleHasCutTwo) {
  EXPECT_EQ(StoerWagnerMinCut(gen::Cycle(10)), 2u);
}

TEST(StoerWagner, CompleteGraphCut) {
  EXPECT_EQ(StoerWagnerMinCut(gen::Complete(7)), 6u);
}

TEST(StoerWagner, HypercubeCutEqualsDegree) {
  EXPECT_EQ(StoerWagnerMinCut(gen::Hypercube(4)), 4u);
}

TEST(StoerWagner, BarbellBridge) {
  EXPECT_EQ(StoerWagnerMinCut(gen::Barbell(6, 2)), 1u);
}

TEST(StoerWagner, MultiplicityCounts) {
  const Multigraph m = FromGraph(gen::Line(6), 5);
  EXPECT_EQ(StoerWagnerMinCut(m), 5u);
}

TEST(StoerWagner, SelfLoopsNeverCross) {
  Multigraph m = FromGraph(gen::Cycle(5), 3);
  for (NodeId v = 0; v < 5; ++v) m.AddSelfLoop(v);
  EXPECT_EQ(StoerWagnerMinCut(m), 6u);
}

TEST(StoerWagner, RequiresConnected) {
  const Graph g = gen::DisjointUnion({gen::Line(3), gen::Line(3)});
  EXPECT_THROW(StoerWagnerMinCut(g), ContractViolation);
}

TEST(Karger, UpperBoundsAndUsuallyMatchesExact) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::ConnectedGnp(40, 0.15, seed);
    const Multigraph m = FromGraph(g);
    const auto exact = StoerWagnerMinCut(m);
    const auto sampled = KargerMinCutSample(m, 300, seed);
    EXPECT_GE(sampled, exact);
    EXPECT_EQ(sampled, exact);  // 300 trials on n=40 find the min cut w.h.p.
  }
}

TEST(StoerWagnerSide, WitnessAchievesTheExactWeight) {
  // The returned side must be a genuine witness: its crossing-edge count
  // equals the exact min cut weight, and it is the smaller (or equal) side.
  for (const std::uint64_t seed : {2ull, 9ull, 31ull}) {
    const Graph g = gen::ConnectedGnp(24, 0.18, seed);
    const auto r = StoerWagnerMinCutSide(g);
    EXPECT_EQ(r.weight, StoerWagnerMinCut(g)) << "seed " << seed;
    EXPECT_EQ(CutEdgeCount(g, r.side), r.weight) << "seed " << seed;
    std::size_t inside = 0;
    for (const char c : r.side) inside += c != 0;
    EXPECT_GE(inside, 1u);
    EXPECT_LE(inside * 2, g.num_nodes());
  }
}

TEST(StoerWagnerSide, BarbellSideIsOneBell) {
  const Graph g = gen::Barbell(6, 0);
  const auto r = StoerWagnerMinCutSide(g);
  EXPECT_EQ(r.weight, 1u);
  std::size_t inside = 0;
  for (const char c : r.side) inside += c != 0;
  EXPECT_EQ(inside, 6u);
  EXPECT_EQ(CutBoundaryNodes(g, r.side).size(), 1u);
}

TEST(Karger, FindsPlantedBridge) {
  const Multigraph m = FromGraph(gen::Barbell(8, 0));
  EXPECT_EQ(KargerMinCutSample(m, 200, 5), 1u);
}

TEST(Karger, RespectsMultiplicity) {
  const Multigraph m = FromGraph(gen::Line(8), 4);
  EXPECT_EQ(KargerMinCutSample(m, 200, 5), 4u);
}

}  // namespace
}  // namespace overlay
