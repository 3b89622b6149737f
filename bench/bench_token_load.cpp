// E4 (Lemma 3.2): no node holds >= 3Δ/8 walk tokens in any round, w.h.p. —
// plus the flat walk kernel's throughput table.
//
// Shapes to verify:
//   * max per-round token load stays strictly below the 3Δ/8 acceptance
//     bound across all evolutions and sizes, so no token is ever discarded
//     and every walk creates an edge;
//   * the kernel's walks/sec at S ∈ {1, 2, 4} on two graphs: the benign
//     line CreateExpander starts from, and the same line after L/2
//     evolutions, once conductance growth has spread every node's slots
//     across the graph. The expander row is the one the construction spends
//     most of its time on; the line row flatters the kernel with locality.
//
// The throughput table runs on n = 2^14 nodes, each row timed as the median
// of 21 runs after one warm-up. Each row walks the construction's own
// workload: Δ/8 tokens per node for ℓ steps, Δ and ℓ from
// ExpanderParams::ForSize(n).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "overlay/benign.hpp"
#include "overlay/create_expander.hpp"
#include "overlay/evolution.hpp"
#include "sim/token_engine.hpp"

using namespace overlay;

namespace {

constexpr std::size_t kThroughputNodes = 16384;
constexpr std::size_t kReps = 21;

/// Median wall time of `reps` runs of fn, after one untimed warm-up run.
template <typename Fn>
double MedianSeconds(std::size_t reps, Fn&& fn) {
  fn();
  std::vector<double> secs;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv, "bench_token_load");
  bench::Banner("E4 / Lemma 3.2: token load per round",
                "claim: max load < 3Δ/8 w.h.p. — check max_load below the "
                "bound and the discard *fraction* ~0 (a handful of discards "
                "over tens of millions of token-rounds is within the lemma's "
                "1/poly(n) failure budget)");

  bench::Table t({"n", "Δ", "3Δ/8_bound", "max_token_load", "discarded",
                  "discard_fraction"});
  for (std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const Graph g = gen::Line(n);
      auto params = ExpanderParams::ForSize(n, g.MaxDegree(), seed);
      const auto run = CreateExpander(MakeBenign(g, params), params);
      std::uint64_t max_load = 0, discarded = 0, tokens = 0;
      for (const auto& trace : run.trace) {
        max_load = std::max(max_load, trace.telemetry.max_token_load);
        discarded += trace.telemetry.tokens_discarded;
        tokens += n * params.TokensPerNode();
      }
      t.Row(n, params.delta, params.AcceptBound(), max_load, discarded,
            static_cast<double>(discarded) / static_cast<double>(tokens));
    }
  }
  t.Print();
  json.Add("token_load", t);

  // Flat walk kernel throughput. One walk = one token's full ℓ-step
  // trajectory; walks/sec = walkers / median wall time over kReps runs.
  // token_steps is the kernel's own count; CI checks it equals
  // walkers · ℓ exactly.
  const std::size_t n = kThroughputNodes;
  bench::Banner("flat walk kernel throughput",
                "walks/sec at S = 1, 2, 4 on the benign line and on the line "
                "after L/2 evolutions (the expander the construction walks)");
  const Graph line = gen::Line(n);
  const auto params = ExpanderParams::ForSize(n, line.MaxDegree(), 1);
  const Multigraph benign = MakeBenign(line, params);
  Multigraph expander = benign;
  {
    Rng rng(params.seed);
    for (std::size_t i = 0; i < params.num_evolutions / 2; ++i) {
      expander = RunEvolution(expander, params, rng).next;
    }
  }
  std::printf("n=%zu Δ=%zu tokens/node=%zu ℓ=%zu L/2=%zu\n\n", n,
              params.delta, params.TokensPerNode(), params.walk_length,
              params.num_evolutions / 2);

  bench::Table tp({"graph", "shards", "walkers", "steps", "time_ms",
                   "walks_per_sec", "steps_per_sec", "token_steps"});
  for (const auto& [name, g] :
       {std::pair<const char*, const Multigraph*>{"benign_line", &benign},
        {"expander_L/2", &expander}}) {
    for (const std::size_t s : {1u, 2u, 4u}) {
      TokenWalkOptions opts;
      opts.tokens_per_node = params.TokensPerNode();
      opts.walk_length = params.walk_length;
      opts.exec.num_shards = s;
      std::uint64_t token_steps = 0;
      const double secs = MedianSeconds(kReps, [&] {
        Rng rng(1);
        token_steps = RunTokenWalks(*g, opts, rng).token_steps;
      });
      const std::size_t walkers = n * params.TokensPerNode();
      tp.Row(name, s, walkers, params.walk_length, secs * 1e3,
             static_cast<double>(walkers) / secs,
             static_cast<double>(walkers * params.walk_length) / secs,
             token_steps);
    }
  }
  tp.Print();
  json.Add("throughput", tp);
  return json.Finish();
}
