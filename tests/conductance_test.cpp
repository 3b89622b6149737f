// Tests for conductance instruments: exact enumeration, spectral gap with
// Cheeger brackets, sweep-cut upper bound.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "graph/conductance.hpp"
#include "graph/generators.hpp"
#include "graph/multigraph.hpp"

namespace overlay {
namespace {

/// Lazy Δ-regular multigraph from a simple graph: each node gets loops up to
/// degree `delta` (requires delta >= 2*maxdeg for laziness).
Multigraph Lazify(const Graph& g, std::size_t delta) {
  Multigraph m(g.num_nodes(), delta);
  for (const auto& [u, v] : g.EdgeList()) m.AddEdge(u, v);
  m.PadWithSelfLoops();
  return m;
}

TEST(ExactConductance, CycleMatchesHandComputation) {
  // 8-cycle lazified to delta=4: the worst set is a contiguous half,
  // cut 2, size 4 => phi = 2/(4*4) = 0.125.
  const Multigraph m = Lazify(gen::Cycle(8), 4);
  EXPECT_DOUBLE_EQ(ExactConductance(m, 4), 0.125);
}

TEST(ExactConductance, CompleteGraphIsWellConnected) {
  // K6 lazified to delta=10: singleton cut 5/(10*1)=0.5; halves:
  // 9/(10*3)=0.3 -> minimum.
  const Multigraph m = Lazify(gen::Complete(6), 10);
  EXPECT_DOUBLE_EQ(ExactConductance(m, 10), 0.3);
}

TEST(ExactConductance, LineEndpointCut) {
  // 6-line lazified to delta=4: cutting at the middle: 1/(4*3).
  const Multigraph m = Lazify(gen::Line(6), 4);
  EXPECT_DOUBLE_EQ(ExactConductance(m, 4), 1.0 / 12.0);
}

TEST(ExactConductance, RejectsLargeGraphs) {
  const Multigraph m = Lazify(gen::Cycle(23), 4);
  EXPECT_THROW(ExactConductance(m, 4), ContractViolation);
}

TEST(ExactConductance, RejectsIrregular) {
  Multigraph m(3, 2);
  m.AddEdge(0, 1);
  EXPECT_THROW(ExactConductance(m, 2), ContractViolation);
}

TEST(SpectralGap, RequiresRegularity) {
  Multigraph m(3, 2);
  m.AddEdge(0, 1);
  EXPECT_THROW(LazySpectralGap(m, 2), ContractViolation);
}

TEST(SpectralGap, DisconnectedGraphHasZeroGap) {
  Multigraph m(4, 2);
  m.AddEdge(0, 1);
  m.AddEdge(2, 3);
  m.PadWithSelfLoops();
  EXPECT_NEAR(LazySpectralGap(m, 2, 500), 0.0, 1e-6);
}

TEST(SpectralGap, CompleteGraphHasLargeGap) {
  const Multigraph m = Lazify(gen::Complete(16), 32);
  // Lazy K16 at delta 32: P has second eigenvalue ~ (32-16)/32 = 0.5.
  EXPECT_NEAR(LazySpectralGap(m, 32, 500), 0.5, 0.02);
}

TEST(SpectralGap, LineIsSmallerThanExpander) {
  const Multigraph line = Lazify(gen::Line(64), 4);
  const Multigraph expander =
      Lazify(gen::ConnectedRandomRegular(64, 4, 7), 8);
  EXPECT_LT(LazySpectralGap(line, 4, 600),
            LazySpectralGap(expander, 8, 600));
}

class CheegerBracketTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CheegerBracketTest, BracketsExactConductance) {
  const std::size_t n = GetParam();
  const Multigraph m = Lazify(gen::Cycle(n), 4);
  const double exact = ExactConductance(m, 4);
  const auto bounds = SpectralConductanceBounds(m, 4, 2000);
  EXPECT_LE(bounds.lower, exact * 1.05);  // gap/2 <= phi (5% solver slack)
  EXPECT_GE(bounds.upper, exact * 0.95);  // phi <= sqrt(2 gap)
}

INSTANTIATE_TEST_SUITE_P(Cycles, CheegerBracketTest,
                         ::testing::Values(6, 8, 10, 12, 14, 16));

TEST(SweepCut, UpperBoundsExactConductance) {
  for (std::size_t n : {8u, 12u, 16u}) {
    const Multigraph m = Lazify(gen::Cycle(n), 4);
    const double exact = ExactConductance(m, 4);
    const double sweep = SweepCutConductance(m, 4, 2000);
    EXPECT_GE(sweep, exact - 1e-9);
    // On cycles the Fiedler sweep recovers the optimal cut.
    EXPECT_NEAR(sweep, exact, 0.05);
  }
}

TEST(SweepCut, FindsThePlantedBottleneck) {
  // Barbell: two K8 joined by one path node; the sweep must find a cut
  // near the bridge with conductance well below the clique-internal cuts.
  const Graph barbell = gen::Barbell(8, 1);
  const Multigraph m = Lazify(barbell, 16);
  const double sweep = SweepCutConductance(m, 16, 2000);
  EXPECT_LT(sweep, 0.02);
}

}  // namespace
}  // namespace overlay
