// CreateExpander (Section 2): the L-evolution driver.
//
// Starting from a benign G₀, runs evolutions until either L iterations have
// completed or (optionally) the spectral gap of the current graph crosses
// `target_spectral_gap`. Lemma 3.1 guarantees every intermediate graph stays
// benign and the conductance grows by Θ(√ℓ) per evolution w.h.p.; after
// O(log n) evolutions the graph has constant conductance, hence diameter
// O(log n) (Lemma 3.14).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/multigraph.hpp"
#include "overlay/evolution.hpp"
#include "overlay/params.hpp"

namespace overlay {

/// Per-evolution trace entry (benchmark food).
struct EvolutionTrace {
  EvolutionTelemetry telemetry;
  /// Spectral gap of the graph *after* this evolution; only populated when
  /// the driver measures gaps (measure_gaps or early stopping enabled).
  double spectral_gap = -1.0;
};

struct ExpanderRun {
  Multigraph final_graph;
  std::vector<EvolutionTrace> trace;
  /// Σ per-evolution rounds (the message-passing cost of the expander phase).
  std::uint64_t total_rounds = 0;
  std::uint64_t total_messages = 0;
  /// Per-evolution provenance stacks (only with params.record_paths):
  /// provenance_stack[i] describes edges of graph i+1 as paths in graph i.
  std::vector<std::vector<EdgeProvenance>> provenance_stack;
};

/// Runs CreateExpander on an already-benign G₀.
/// `measure_gaps` computes the spectral gap after every evolution (costly,
/// benchmark-only; implied when params.target_spectral_gap > 0).
ExpanderRun CreateExpander(const Multigraph& benign_g0,
                           const ExpanderParams& params,
                           bool measure_gaps = false);

}  // namespace overlay
