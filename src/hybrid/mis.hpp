// Theorem 1.5: MIS in O(log d + log log n) rounds via shattering.
//
// Stage 1 (shattering): Ghaffari's Weak-MIS [22] runs for Θ(log d) CONGEST
// rounds; w.h.p. the undecided remainder shatters into components of size
// O(d⁴·log_d n).
// Stage 2: a well-formed tree is built on every undecided component
// (Theorem 1.2 — O(log m + log log n) rounds for the small components).
// Stage 3: Θ(log n) independent executions of the 1-bit MIS algorithm of
// Métivier et al. [44] run in parallel on each component (execution i uses
// bit i of each round's O(log n)-bit message); each execution finishes in
// O(log m) rounds in expectation, so the *minimum* over Θ(log n) parallel
// executions finishes in O(log m) rounds w.h.p.; the component root learns
// finish events through its tree, picks the first finished execution, and
// broadcasts its index — every node adopts that execution's result.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hybrid/components.hpp"
#include "hybrid/hybrid_model.hpp"

namespace overlay {

struct MisOptions {
  /// Shattering rounds; 0 = auto (c·⌈log₂(d+2)⌉ + c').
  std::size_t shatter_rounds = 0;
  /// Parallel Métivier executions; 0 = auto (⌈log₂ n⌉ + 4).
  std::size_t executions = 0;
  /// Safety cap on rounds per execution (components are tiny; generous).
  std::size_t max_execution_rounds = 512;
  HybridOverlayOptions overlay{};
  std::uint64_t seed = 1;
};

struct MisResult {
  std::vector<char> in_mis;  ///< per node
  HybridCost cost;
  /// Diagnostics for the E9 benchmark.
  std::size_t undecided_after_shattering = 0;
  std::size_t largest_undecided_component = 0;
  std::size_t winning_execution_rounds = 0;  ///< max over components
};

/// Computes an MIS of `g` (need not be connected).
MisResult ComputeMis(const Graph& g, const MisOptions& opts);

/// True iff `in_mis` marks an independent and maximal set in g.
bool ValidateMis(const Graph& g, const std::vector<char>& in_mis);

}  // namespace overlay
