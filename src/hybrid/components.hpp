// Theorem 1.2: a well-formed tree on every connected component, in
// O(log m + log log n) rounds for components of size <= m.
//
// Pipeline (Section 4.2): Elkin–Neiman spanner -> degree reduction to H
// (degree O(log n), same components) -> per-component hybrid expander
// (Section 4.1, stitched walks) -> per-component BFS + Euler-tour
// contraction. Components run in parallel in the model, so the driver
// charges the *maximum* per-component cost, plus the shared spanner and
// reduction phases.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hybrid/degree_reduction.hpp"
#include "hybrid/hybrid_expander.hpp"
#include "hybrid/hybrid_model.hpp"
#include "hybrid/spanner.hpp"
#include "overlay/well_formed_tree.hpp"
#include "sim/engine.hpp"

namespace overlay {

struct ComponentOverlay {
  /// Global ids of this component's nodes, ascending; tree/expander use
  /// local indices into this vector.
  std::vector<NodeId> nodes;
  WellFormedTree tree;
  Graph expander;
  HybridCost cost;
};

struct HybridOverlayOptions {
  SpannerOptions spanner{};
  HybridExpanderOptions expander{};
  std::uint64_t seed = 1;
  /// Engine executing the measured message-passing phases (BFS floods).
  /// `engine.num_nodes/capacity/seed` are set per phase by the driver;
  /// `engine.exec`/max_delay pass through to the selected engine.
  EngineKind engine_kind = EngineKind::kSync;
  EngineConfig engine{};
  /// Worker count for building independent component overlays concurrently
  /// on the persistent shard pool (components run in parallel in the model;
  /// this makes the simulator match). Each component's seed is fixed by its
  /// index, so results are identical for every value; 1 = serial loop.
  std::size_t parallel_components = 1;
};

struct ComponentsResult {
  std::vector<ComponentOverlay> components;
  /// Component label per global node (matches `components` indices).
  std::vector<std::uint32_t> component_of;
  /// Spanner + reduction + max per-component cost.
  HybridCost total_cost;
  DegreeReductionResult reduction;  ///< kept for Theorem 1.3's repair step
};

/// Builds well-formed trees on all components of `g`.
ComponentsResult BuildComponentOverlays(const Graph& g,
                                        const HybridOverlayOptions& opts);

/// Extracts the local-index subgraph of `g` induced by `nodes` (sorted).
Graph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace overlay
