// Tests for MakeBenign and the Definition 2.1 checker.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "graph/mincut.hpp"
#include "overlay/benign.hpp"

namespace overlay {
namespace {

ExpanderParams ParamsFor(const Graph& g, std::uint64_t seed = 1) {
  return ExpanderParams::ForSize(g.num_nodes(), g.MaxDegree(), seed);
}

TEST(MakeBenign, ProducesRegularLazyGraph) {
  const Graph g = gen::Line(32);
  const auto params = ParamsFor(g);
  const Multigraph m = MakeBenign(g, params);
  EXPECT_TRUE(m.IsRegular(params.delta));
  EXPECT_TRUE(m.IsLazy(params.MinSelfLoops()));
}

TEST(MakeBenign, MinCutIsLambda) {
  const Graph g = gen::Line(24);
  auto params = ParamsFor(g);
  const Multigraph m = MakeBenign(g, params);
  // The line's unit cut becomes exactly Λ.
  EXPECT_EQ(StoerWagnerMinCut(m), params.lambda);
}

TEST(MakeBenign, CycleCutIsTwoLambda) {
  const Graph g = gen::Cycle(24);
  auto params = ParamsFor(g);
  const Multigraph m = MakeBenign(g, params);
  EXPECT_EQ(StoerWagnerMinCut(m), 2 * params.lambda);
}

TEST(MakeBenign, EdgeMultiplicityIsLambda) {
  const Graph g = gen::Cycle(10);
  auto params = ParamsFor(g);
  const Multigraph m = MakeBenign(g, params);
  for (const auto& [edge, mult] : m.WeightedEdges()) {
    EXPECT_EQ(mult, params.lambda) << edge.first << "-" << edge.second;
  }
}

TEST(MakeBenign, RejectsTooDenseInput) {
  const Graph g = gen::Complete(40);  // degree 39
  ExpanderParams params;              // default delta 64, lambda 8
  EXPECT_THROW(MakeBenign(g, params), ContractViolation);
}

TEST(MakeBenign, ParamsValidation) {
  ExpanderParams p;
  p.delta = 63;  // not a multiple of 8
  EXPECT_THROW(p.Validate(1), ContractViolation);
  p.delta = 64;
  p.walk_length = 0;
  EXPECT_THROW(p.Validate(1), ContractViolation);
  p.walk_length = 8;
  p.lambda = 0;
  EXPECT_THROW(p.Validate(1), ContractViolation);
  p.lambda = 8;
  EXPECT_NO_THROW(p.Validate(1));
  EXPECT_THROW(p.Validate(100), ContractViolation);  // 2dΛ > Δ
}

TEST(MakeBenign, ForSizeScalesWithLogN) {
  const auto small = ExpanderParams::ForSize(64, 2);
  const auto large = ExpanderParams::ForSize(1 << 16, 2);
  EXPECT_LT(small.lambda, large.lambda);
  EXPECT_LE(small.num_evolutions, large.num_evolutions);
  EXPECT_EQ(large.delta % 8, 0u);
  EXPECT_GE(large.delta, 2 * 2 * large.lambda);
}

TEST(CheckBenign, AcceptsFreshBenignGraph) {
  const Graph g = gen::RandomTree(48, 3);
  const auto params = ParamsFor(g);
  const Multigraph m = MakeBenign(g, params);
  const auto report = CheckBenign(m, params);
  EXPECT_TRUE(report.regular);
  EXPECT_TRUE(report.lazy);
  EXPECT_TRUE(report.connected);
  EXPECT_TRUE(report.min_cut_exact);
  EXPECT_GE(report.min_cut_estimate, params.lambda);
  EXPECT_TRUE(report.AllHold(params.lambda));
}

TEST(CheckBenign, DetectsIrregularity) {
  const Graph g = gen::Line(16);
  const auto params = ParamsFor(g);
  // MakeBenign fills every row to Δ; copy it into rows with one spare slot
  // so a single extra loop can break regularity.
  const Multigraph benign = MakeBenign(g, params);
  Multigraph m(benign.num_nodes(), params.delta + 1);
  for (NodeId v = 0; v < benign.num_nodes(); ++v) {
    for (const NodeId w : benign.Slots(v)) {
      if (w == v) {
        m.AddSelfLoop(v);
      } else if (v < w) {
        m.AddEdge(v, w);
      }
    }
  }
  m.AddSelfLoop(3);  // break regularity
  const auto report = CheckBenign(m, params);
  EXPECT_FALSE(report.regular);
  EXPECT_FALSE(report.AllHold(params.lambda));
}

TEST(CheckBenign, DetectsDisconnection) {
  ExpanderParams params;
  params.delta = 64;
  params.lambda = 8;
  Multigraph m(4, 64);
  m.AddEdge(0, 1);
  m.AddEdge(2, 3);
  m.PadWithSelfLoops();
  const auto report = CheckBenign(m, params);
  EXPECT_FALSE(report.connected);
  EXPECT_FALSE(report.AllHold(params.lambda));
}

TEST(CheckBenign, DescribeMentionsAllProperties) {
  const Graph g = gen::Line(8);
  const auto params = ParamsFor(g);
  const auto report = CheckBenign(MakeBenign(g, params), params);
  const std::string desc = report.Describe();
  EXPECT_NE(desc.find("regular"), std::string::npos);
  EXPECT_NE(desc.find("lazy"), std::string::npos);
  EXPECT_NE(desc.find("min_cut"), std::string::npos);
}

}  // namespace
}  // namespace overlay
