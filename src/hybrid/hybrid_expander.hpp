// CreateExpander adapted to the hybrid model (Section 4.1).
//
// Differences from the NCC0 version of Section 2:
//  * no initial edge copying — nodes only pad with self-loops to Δ > 2d
//    (the input H already has degree O(log n) after degree reduction);
//  * walks are *longer* (ℓ = Θ(Λ²)) and simulated by rapid sampling
//    (Lemma 4.2) in O(log ℓ) rounds instead of ℓ rounds;
//  * surviving tokens return to their origins with their endpoints' ids;
//    each origin picks Δ/8 of them to create edges, endpoints accept up to
//    3Δ/8 and reply.
// One evolution therefore costs log₂ ℓ + 3 rounds, and the longer walks grow
// cut and conductance by Θ(√ℓ) per evolution, giving the Theorem 4.1 round
// bound O(log m + log log n) overall.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/multigraph.hpp"
#include "hybrid/hybrid_model.hpp"
#include "overlay/evolution.hpp"
#include "sim/engine.hpp"

namespace overlay {

struct HybridExpanderOptions {
  /// Target degree Δ (multiple of 8, at least 2·d·Λ for input degree d);
  /// 0 = auto (max(64, 2·d·Λ rounded up to a multiple of 8)).
  std::size_t delta = 0;
  /// Edge copies in the preparation step; 0 = auto (max(8, ⌈log₂ m⌉)).
  std::size_t lambda = 0;
  /// Stitched walk length ℓ (power of two >= 4).
  std::size_t walk_length = 32;
  /// Evolutions to run; 0 = auto (⌈2·log₂ m / log₂ ℓ⌉ + 3).
  std::size_t num_evolutions = 0;
  std::uint64_t seed = 1;
  bool record_paths = false;
  /// Execution context for the rapid-sampling phase B stitch rounds
  /// (RapidSamplingOptions::exec; see ExecPolicy in sim/engine.hpp).
  ExecPolicy exec;
  /// Stop once the spectral gap reaches this value (0 = run all evolutions).
  /// The equilibrium gap of evolved graphs is ~0.11 (the non-loop slot
  /// fraction is ~Δ/4 of Δ), so 0.08 reliably detects the plateau.
  double target_spectral_gap = 0.08;
};

struct HybridExpanderRun {
  Multigraph final_graph;
  /// provenance_stack[i]: edges of graph i+1 as walk paths in graph i
  /// (only with record_paths).
  std::vector<std::vector<EdgeProvenance>> provenance_stack;
  std::vector<double> gaps;  ///< spectral gap after each evolution
  HybridCost cost;
  std::uint64_t max_token_load = 0;
  std::size_t evolutions_run = 0;
  std::size_t delta_used = 0;
};

/// Runs the hybrid expander on a *connected* bounded-degree graph `h`.
HybridExpanderRun RunHybridExpander(const Graph& h,
                                    const HybridExpanderOptions& opts);

}  // namespace overlay
