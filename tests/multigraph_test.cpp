// Unit tests for the multigraph (benign-graph substrate).
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/multigraph.hpp"
#include "graph/graph.hpp"

namespace overlay {
namespace {

TEST(Multigraph, ParallelEdgesCount) {
  Multigraph g(2, 3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(1), 3u);
  EXPECT_EQ(g.TotalEdgeMultiplicity(), 3u);
}

TEST(Multigraph, SelfLoopsOccupyOneSlot) {
  Multigraph g(2, 2);
  g.AddSelfLoop(0);
  g.AddSelfLoop(0);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.SelfLoopCount(0), 2u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.TotalEdgeMultiplicity(), 0u);
}

TEST(Multigraph, AddEdgeRejectsSelf) {
  Multigraph g(2, 2);
  EXPECT_THROW(g.AddEdge(1, 1), ContractViolation);
}

TEST(Multigraph, RegularityCheck) {
  Multigraph g(2, 2);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  EXPECT_FALSE(g.IsRegular(2));
  g.AddSelfLoop(1);
  EXPECT_TRUE(g.IsRegular(2));
}

TEST(Multigraph, LazinessCheck) {
  Multigraph g(2, 2);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  g.AddSelfLoop(1);
  EXPECT_TRUE(g.IsLazy(1));
  EXPECT_FALSE(g.IsLazy(2));
}

TEST(Multigraph, CutWeightCountsMultiplicity) {
  Multigraph g(4, 4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddSelfLoop(1);  // never crosses
  const std::vector<char> s{1, 1, 0, 0};
  EXPECT_EQ(g.CutWeight(s), 1u);
  const std::vector<char> t{1, 0, 0, 0};
  EXPECT_EQ(g.CutWeight(t), 2u);
}

TEST(Multigraph, ConductanceDefinition) {
  // 4-node cycle with delta=2: S = two adjacent nodes has 2 crossing edges,
  // conductance 2 / (2*2) = 0.5.
  Multigraph g(4, 2);
  for (NodeId v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4);
  const std::vector<char> s{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(g.ConductanceOf(s, 2), 0.5);
}

TEST(Multigraph, ConductanceRejectsLargeSet) {
  Multigraph g(4, 2);
  for (NodeId v = 0; v < 4; ++v) g.AddEdge(v, (v + 1) % 4);
  const std::vector<char> too_big{1, 1, 1, 0};
  EXPECT_THROW(g.ConductanceOf(too_big, 2), ContractViolation);
}

TEST(Multigraph, RandomNeighborRespectsSlots) {
  Multigraph g(3, 4);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  Rng rng(5);
  int self = 0, other = 0;
  for (int i = 0; i < 2000; ++i) {
    const NodeId w = g.RandomNeighbor(0, rng);
    ASSERT_TRUE(w == 0 || w == 1);
    (w == 0 ? self : other)++;
  }
  // Half the slots are the loop: expect a near-even split.
  EXPECT_NEAR(self, 1000, 150);
  EXPECT_NEAR(other, 1000, 150);
}

TEST(Multigraph, RandomNeighborFromIsolatedThrows) {
  Multigraph g(1, 4);
  Rng rng(1);
  EXPECT_THROW(g.RandomNeighbor(0, rng), ContractViolation);
}

TEST(Multigraph, ToSimpleGraphCollapses) {
  Multigraph g(3, 3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddSelfLoop(2);
  const Graph s = g.ToSimpleGraph();
  EXPECT_EQ(s.num_edges(), 2u);
  EXPECT_TRUE(s.HasEdge(0, 1));
  EXPECT_TRUE(s.HasEdge(1, 2));
}

TEST(Multigraph, WeightedEdges) {
  Multigraph g(3, 3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(2, 1);
  g.AddSelfLoop(0);
  const auto weights = g.WeightedEdges();
  EXPECT_EQ(weights.size(), 2u);
  EXPECT_EQ(weights.at({0, 1}), 2u);
  EXPECT_EQ(weights.at({1, 2}), 1u);
}

TEST(Multigraph, FullRowRejectsEdgesAndLoops) {
  // The row capacity is the degree cap: a full row rejects both kinds of
  // slot, and a rejected AddEdge leaves the other endpoint untouched.
  Multigraph g(3, 2);
  g.AddEdge(0, 1);
  g.AddSelfLoop(0);
  EXPECT_THROW(g.AddSelfLoop(0), ContractViolation);
  EXPECT_THROW(g.AddEdge(0, 2), ContractViolation);
  EXPECT_THROW(g.AddEdge(2, 0), ContractViolation);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(2), 0u);
  g.AddEdge(1, 2);
  EXPECT_THROW(g.AddEdge(1, 2), ContractViolation);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(Multigraph, ZeroCapacityRowsHoldNothing) {
  Multigraph g(2, 0);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_THROW(g.AddEdge(0, 1), ContractViolation);
  EXPECT_THROW(g.AddSelfLoop(1), ContractViolation);
  g.PadWithSelfLoops();  // nothing to pad
  EXPECT_TRUE(g.IsRegular(0));
}

TEST(Multigraph, AccessorsSeeOnlyFilledSlotsOfPartlyFilledRows) {
  Multigraph g(4, 6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddSelfLoop(1);
  g.AddSelfLoop(3);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 4u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.Degree(3), 1u);
  const auto s1 = g.Slots(1);
  EXPECT_EQ(std::vector<NodeId>(s1.begin(), s1.end()),
            (std::vector<NodeId>{0, 0, 2, 1}));
  EXPECT_EQ(g.SelfLoopCount(1), 1u);
  EXPECT_EQ(g.SelfLoopCount(0), 0u);
  EXPECT_EQ(g.SelfLoopCount(3), 1u);
  EXPECT_FALSE(g.IsRegular(6));
  EXPECT_FALSE(g.IsRegular(2));
  EXPECT_EQ(g.TotalEdgeMultiplicity(), 3u);
  // Rows of equal fill below capacity are regular at that fill.
  Multigraph h(3, 5);
  for (NodeId v = 0; v < 3; ++v) h.AddEdge(v, (v + 1) % 3);
  EXPECT_TRUE(h.IsRegular(2));
  EXPECT_FALSE(h.IsRegular(5));
  EXPECT_THROW(g.Slots(4), ContractViolation);
  EXPECT_THROW(g.Degree(4), ContractViolation);
}

TEST(Multigraph, PadWithSelfLoopsFillsExactlyToCapacity) {
  Multigraph g(5, 4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddSelfLoop(4);
  // A range pads only its own rows.
  g.PadWithSelfLoops(0, 2);
  EXPECT_EQ(g.Degree(0), 4u);
  EXPECT_EQ(g.Degree(1), 4u);
  EXPECT_EQ(g.Degree(2), 1u);
  g.PadWithSelfLoops();
  EXPECT_TRUE(g.IsRegular(4));
  EXPECT_EQ(g.SelfLoopCount(0), 2u);
  EXPECT_EQ(g.SelfLoopCount(2), 3u);
  EXPECT_EQ(g.SelfLoopCount(4), 4u);
  EXPECT_EQ(g.TotalEdgeMultiplicity(), 3u);
  // Padding keeps the slots already in place and is idempotent.
  const auto s0 = g.Slots(0);
  EXPECT_EQ(std::vector<NodeId>(s0.begin(), s0.end()),
            (std::vector<NodeId>{1, 1, 0, 0}));
  g.PadWithSelfLoops();
  EXPECT_TRUE(g.IsRegular(4));
  EXPECT_THROW(g.AddSelfLoop(4), ContractViolation);
  EXPECT_THROW(g.PadWithSelfLoops(3, 6), ContractViolation);
}

TEST(Multigraph, RandomNeighborFromEmptyRowThrowsBesideFilledRows) {
  Multigraph g(3, 4);
  g.AddEdge(0, 1);
  Rng rng(2);
  EXPECT_EQ(g.RandomNeighbor(0, rng), 1u);
  EXPECT_THROW(g.RandomNeighbor(2, rng), ContractViolation);
  EXPECT_THROW(g.RandomNeighbor(3, rng), ContractViolation);
}

}  // namespace
}  // namespace overlay
