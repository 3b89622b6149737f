// Tunable parameters of CreateExpander (Section 2.1).
//
// The algorithm takes four public parameters, all known to every node:
//   ℓ  — random-walk length (a constant; the paper needs it "big enough"),
//   Δ  — target degree, Θ(log n),
//   Λ  — minimum-cut size, Θ(log n), with 2·d·Λ <= Δ,
//   L  — number of evolutions, >= log n.
// The paper's proof constants (e.g. conductance growth 1/640·√ℓ, ℓ > 10⁶) are
// w.h.p. artifacts; the defaults below are calibrated so the algorithm
// succeeds on every topology in the test suite at n <= 2^16 while keeping all
// quantities at their prescribed Θ(log n)/Θ(1) scales.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "sim/engine.hpp"

namespace overlay {

struct ExpanderParams {
  /// Walk length ℓ (constant in n).
  std::size_t walk_length = 16;
  /// Node degree Δ of every benign graph; must be divisible by 8 so that
  /// Δ/8 tokens and the 3Δ/8 acceptance bound are integral.
  std::size_t delta = 64;
  /// Minimum-cut parameter Λ (edge copies in MakeBenign).
  std::size_t lambda = 8;
  /// Number of evolutions L >= log n.
  std::size_t num_evolutions = 16;
  /// Seed for all randomness of the construction.
  std::uint64_t seed = 1;
  /// Stop early once the spectral gap of the current graph reaches this
  /// threshold (0 disables early stopping; the paper runs all L evolutions —
  /// early stopping only ever *shortens* executions and is validated by the
  /// final diameter check).
  double target_spectral_gap = 0.0;
  /// Record walk paths for Theorem 1.3's unwinding (costs memory).
  bool record_paths = false;
  /// Execution context, not an algorithm parameter (see ExecPolicy in
  /// sim/engine.hpp for the determinism contract).
  ExecPolicy exec;

  /// Tokens each node launches per evolution (Δ/8 in the paper).
  std::size_t TokensPerNode() const { return delta / 8; }
  /// Acceptance bound per node per evolution (3Δ/8 in the paper).
  std::size_t AcceptBound() const { return 3 * delta / 8; }
  /// Self-loop floor of a lazy benign graph (Δ/2).
  std::size_t MinSelfLoops() const { return delta / 2; }

  /// Validates the constraints of Section 2.1 against an input graph of
  /// maximum degree `input_degree`. Raises ContractViolation on misuse.
  void Validate(std::size_t input_degree) const {
    OVERLAY_CHECK(delta % 8 == 0 && delta >= 8, "Δ must be a positive multiple of 8");
    OVERLAY_CHECK(walk_length >= 1, "walk length ℓ must be >= 1");
    OVERLAY_CHECK(lambda >= 1, "Λ must be >= 1");
    OVERLAY_CHECK(num_evolutions >= 1, "need at least one evolution");
    OVERLAY_CHECK(2 * input_degree * lambda <= delta,
                  "Section 2.1 requires 2·d·Λ <= Δ for the preparation step");
  }

  /// Defaults for an n-node input of maximum degree `input_degree`:
  /// Δ, Λ = Θ(log n) and L = Θ(log n) with constants that empirically give
  /// w.h.p. success on all tested families.
  static ExpanderParams ForSize(std::size_t n, std::size_t input_degree,
                                std::uint64_t seed = 1) {
    OVERLAY_CHECK(n >= 2, "need at least two nodes");
    OVERLAY_CHECK(input_degree >= 1, "input degree must be >= 1");
    const std::size_t log_n = LogUpperBound(n);
    ExpanderParams p;
    p.lambda = std::max<std::size_t>(8, log_n);
    // Δ >= 2·d·Λ is the Section 2.1 requirement; the extra headroom factor
    // (3 instead of 2) widens the gap between the Δ/8 mean token load and
    // the Lemma 3.2 bound 3Δ/8. It does not keep the per-step peak below
    // the bound: on Line(2^14) the peak load of a full run reaches 31–33
    // tokens against 3Δ/8 = 33. The bound is enforced only where tokens end
    // their walks (acceptance discards arrivals above it), and those runs
    // discarded none. Floor 64 so Δ/8 tokens concentrate at small n.
    const std::size_t min_delta = 3 * input_degree * p.lambda;
    p.delta = std::max<std::size_t>(64, ((min_delta + 7) / 8) * 8);
    p.walk_length = 16;
    // Conductance starts at Ω(1/n²) in the worst case and multiplies by
    // ~√ℓ each evolution; 2·log₂ n evolutions cover it with slack.
    p.num_evolutions = 2 * log_n + 4;
    p.seed = seed;
    p.target_spectral_gap = 0.0;
    return p;
  }
};

}  // namespace overlay
