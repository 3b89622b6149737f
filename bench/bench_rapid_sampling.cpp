// E12 (Lemma 4.2): rapid sampling — length-ℓ walks in O(log ℓ) rounds.
//
// Shapes to verify: rounds = log2(ℓ) + 1 exactly; survivor counts
// concentrate around the 2k/ℓ prediction; the endpoint distribution of
// stitched walks matches plain walks (total-variation distance small).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/math_util.hpp"
#include "graph/generators.hpp"
#include "hybrid/rapid_sampling.hpp"
#include "sim/token_engine.hpp"

using namespace overlay;

namespace {

Multigraph LazyCycle(std::size_t n, std::size_t delta) {
  Multigraph m(n, delta);
  for (NodeId v = 0; v < n; ++v) m.AddEdge(v, (v + 1) % n);
  m.PadWithSelfLoops();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv, "bench_rapid_sampling");
  bench::Banner("E12 / Lemma 4.2: rapid sampling",
                "claims: O(log ℓ) rounds, Θ(2k/ℓ) survivors, stitched "
                "endpoint distribution == plain-walk distribution (TV small)");

  const std::size_t n = 64;
  const Multigraph m = LazyCycle(n, 8);

  bench::Table t({"ℓ", "rounds", "log2(ℓ)+1", "tokens/node", "survivors",
                  "predicted", "TV_distance_vs_plain"});
  for (std::size_t ell : {8u, 16u, 32u, 64u, 128u}) {
    const std::size_t per_node = TokensNeededFor(16, ell);
    Rng rng(5);
    const auto r = RunRapidSampling(
        m, {.walk_length = ell, .tokens_per_node = per_node}, rng);

    // Walk *displacement* distribution (endpoint − origin mod n) — identical
    // for every origin on the vertex-transitive cycle, so all survivors can
    // be pooled for statistical power.
    std::vector<double> stitched_freq(n, 0.0);
    double stitched_total = 0;
    for (const auto& tok : r.tokens) {
      stitched_freq[(tok.endpoint + n - tok.origin) % n] += 1;
      ++stitched_total;
    }
    Rng rng2(6);
    const auto plain =
        RunTokenWalks(m, {.tokens_per_node = 2000, .walk_length = ell}, rng2);
    std::vector<double> plain_freq(n, 0.0);
    double plain_total = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId origin : plain.ArrivalsAt(v)) {
        plain_freq[(v + n - origin) % n] += 1;
        ++plain_total;
      }
    }
    double tv = 0;
    for (NodeId v = 0; v < n; ++v) {
      tv += std::abs(stitched_freq[v] / std::max(1.0, stitched_total) -
                     plain_freq[v] / std::max(1.0, plain_total));
    }
    tv /= 2;

    t.Row(ell, r.cost.rounds, FloorLog2(ell) + 1, per_node, r.tokens.size(),
          2 * n * per_node / ell, tv);
  }
  t.Print();
  std::printf("\nnote: TV distance includes sampling noise from ~1000 "
              "stitched samples; < 0.1 indicates matching distributions.\n");
  json.Add("rapid_sampling", t);
  return json.Finish();
}
