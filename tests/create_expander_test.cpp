// Tests for the full CreateExpander loop (Lemma 3.1 behaviour).
#include <gtest/gtest.h>

#include <string>

#include "common/math_util.hpp"
#include "graph/conductance.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "overlay/benign.hpp"
#include "overlay/create_expander.hpp"

namespace overlay {
namespace {

struct FamilyCase {
  const char* name;
  Graph (*make)(std::size_t, std::uint64_t);
};

Graph MakeLine(std::size_t n, std::uint64_t) { return gen::Line(n); }
Graph MakeCycle(std::size_t n, std::uint64_t) { return gen::Cycle(n); }
Graph MakeTree(std::size_t n, std::uint64_t s) { return gen::RandomTree(n, s); }
Graph MakeCaterpillar(std::size_t n, std::uint64_t) {
  return gen::Caterpillar(n / 3, 2);
}
Graph MakeRegular(std::size_t n, std::uint64_t s) {
  return gen::ConnectedRandomRegular(n, 3, s);
}

class ExpanderFamilyTest
    : public ::testing::TestWithParam<std::tuple<FamilyCase, std::size_t>> {};

TEST_P(ExpanderFamilyTest, ProducesConnectedLowDiameterExpander) {
  const auto& [family, n] = GetParam();
  const Graph input = family.make(n, 7);
  const auto params =
      ExpanderParams::ForSize(input.num_nodes(), input.MaxDegree(), 7);
  const Multigraph g0 = MakeBenign(input, params);
  const ExpanderRun run = CreateExpander(g0, params);

  const Graph final_graph = run.final_graph.ToSimpleGraph();
  EXPECT_TRUE(IsConnected(final_graph));
  // Diameter O(log n): generous constant 4 on log2.
  EXPECT_LE(ApproxDiameter(final_graph),
            4 * LogUpperBound(input.num_nodes()) + 4);
  // Degree O(log n): at most Δ distinct neighbors by construction.
  EXPECT_LE(final_graph.MaxDegree(), params.delta);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExpanderFamilyTest,
    ::testing::Combine(
        ::testing::Values(FamilyCase{"line", MakeLine},
                          FamilyCase{"cycle", MakeCycle},
                          FamilyCase{"tree", MakeTree},
                          FamilyCase{"caterpillar", MakeCaterpillar},
                          FamilyCase{"regular3", MakeRegular}),
        ::testing::Values(64, 256, 1024)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CreateExpander, AllIntermediateGraphsBenign) {
  // Lemma 3.1 property 1: run evolution-by-evolution and check each graph.
  // The min cut equilibrates near Λ (with Δ/8 tokens per node, the sampled
  // per-node cut concentrates around Δ/8 + accepted); the first evolution
  // can dip to ~Λ/2 before the growth of Lemma 3.12 takes over, which the
  // thresholds below encode.
  const Graph input = gen::Line(96);
  auto params = ExpanderParams::ForSize(96, input.MaxDegree(), 3);
  Multigraph g = MakeBenign(input, params);
  Rng rng(params.seed);
  for (std::size_t i = 0; i < params.num_evolutions; ++i) {
    auto evo = RunEvolution(g, params, rng);
    g = std::move(evo.next);
    const auto report = CheckBenign(g, params);
    EXPECT_TRUE(report.regular) << "evolution " << i;
    EXPECT_TRUE(report.lazy) << "evolution " << i;
    EXPECT_TRUE(report.connected) << "evolution " << i;
    EXPECT_GE(report.min_cut_estimate, params.lambda / 2) << "evolution " << i;
    if (i >= 2) {
      EXPECT_GE(report.min_cut_estimate, params.lambda - 1)
          << "evolution " << i;
    }
  }
}

TEST(CreateExpander, SpectralGapReachesConstant) {
  const Graph input = gen::Line(256);
  auto params = ExpanderParams::ForSize(256, input.MaxDegree(), 5);
  const ExpanderRun run =
      CreateExpander(MakeBenign(input, params), params, /*measure_gaps=*/true);
  ASSERT_FALSE(run.trace.empty());
  // Equilibrium gap is ~0.11 at the default parameters (see DESIGN.md §4).
  EXPECT_GE(run.trace.back().spectral_gap, 0.08);
}

TEST(CreateExpander, GapGrowsFromLowConductanceStart) {
  // Lemma 3.3 shape: starting from a long line, the gap must grow
  // geometrically across evolutions until the plateau.
  const Graph input = gen::Line(512);
  auto params = ExpanderParams::ForSize(512, input.MaxDegree(), 11);
  params.num_evolutions = 12;
  const ExpanderRun run =
      CreateExpander(MakeBenign(input, params), params, /*measure_gaps=*/true);
  ASSERT_GE(run.trace.size(), 12u);
  EXPECT_GT(run.trace.back().spectral_gap,
            10 * run.trace[1].spectral_gap);
}

TEST(CreateExpander, EarlyStoppingShortensRun) {
  const Graph input = gen::Cycle(256);
  auto params = ExpanderParams::ForSize(256, input.MaxDegree(), 5);
  auto stopping = params;
  stopping.target_spectral_gap = 0.08;
  const ExpanderRun full = CreateExpander(MakeBenign(input, params), params);
  const ExpanderRun stopped =
      CreateExpander(MakeBenign(input, stopping), stopping);
  EXPECT_LT(stopped.trace.size(), full.trace.size());
  EXPECT_TRUE(IsConnected(stopped.final_graph.ToSimpleGraph()));
}

TEST(CreateExpander, RoundAccountingMatchesTrace) {
  const Graph input = gen::Line(64);
  auto params = ExpanderParams::ForSize(64, input.MaxDegree(), 2);
  const ExpanderRun run = CreateExpander(MakeBenign(input, params), params);
  EXPECT_EQ(run.trace.size(), params.num_evolutions);
  EXPECT_EQ(run.total_rounds,
            params.num_evolutions * (params.walk_length + 1));
}

TEST(CreateExpander, ProvenanceStackDepthMatchesEvolutions) {
  const Graph input = gen::Cycle(48);
  auto params = ExpanderParams::ForSize(48, input.MaxDegree(), 2);
  params.record_paths = true;
  params.num_evolutions = 5;
  const ExpanderRun run = CreateExpander(MakeBenign(input, params), params);
  EXPECT_EQ(run.provenance_stack.size(), 5u);
  for (const auto& level : run.provenance_stack) {
    EXPECT_FALSE(level.empty());
  }
}

TEST(CreateExpander, RejectsIrregularInput) {
  Multigraph bad(4, 2);
  bad.AddEdge(0, 1);
  ExpanderParams params;
  EXPECT_THROW(CreateExpander(bad, params), ContractViolation);
}

}  // namespace
}  // namespace overlay
