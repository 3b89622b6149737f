// Mutable multigraph with parallel edges and self-loops, stored as one flat
// slot matrix with a fixed row capacity.
//
// Benign graphs (Definition 2.1) are multigraphs by construction: MakeBenign
// copies every initial edge Λ times and pads nodes with self-loops until each
// node owns exactly Δ edge *slots*. A node's degree is its slot count; a
// self-loop occupies one slot of its node. Random-walk steps pick a slot
// uniformly at random, so a node with Δ/2 loop slots is "lazy" exactly in the
// paper's sense (stays put with probability >= 1/2).
//
// Layout: every builder knows Δ up front, so the graph is one n × cap slot
// array plus a per-node fill count. Slot r of node v sits at v·cap + r — a
// walk step is one multiply-add and one load, with no per-node allocation —
// and a full row rejects further edges, so the degree cap is enforced by the
// structure rather than re-checked by every builder.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace overlay {

class Graph;

/// Undirected multigraph over fixed-capacity slot rows. An undirected edge
/// {u, v}, u != v, appears once in u's slots and once in v's; a self-loop
/// {v, v} appears once in v's slots.
class Multigraph {
 public:
  /// The empty graph (no nodes).
  Multigraph() = default;

  /// `num_nodes` empty rows of `max_degree` slots each.
  Multigraph(std::size_t num_nodes, std::size_t max_degree);

  std::size_t num_nodes() const { return fill_.size(); }

  /// Row capacity: the most slots any node can hold.
  std::size_t max_degree() const { return cap_; }

  /// Number of edge slots at v (the node's degree in Definition 2.1's sense).
  std::size_t Degree(NodeId v) const {
    OVERLAY_CHECK(v < num_nodes(), "node out of range");
    return fill_[v];
  }

  /// All filled slot targets of v (self-loops appear as v itself).
  std::span<const NodeId> Slots(NodeId v) const {
    OVERLAY_CHECK(v < num_nodes(), "node out of range");
    return {slots_.data() + Row(v), fill_[v]};
  }

  /// The whole slot matrix, row-major with stride max_degree(); only the
  /// first Degree(v) slots of row v are filled. The walk kernel's input.
  const NodeId* slot_data() const { return slots_.data(); }

  /// Number of self-loop slots at v.
  std::size_t SelfLoopCount(NodeId v) const;

  /// Adds the undirected edge {u, v} (one slot at each endpoint).
  /// Requires u != v and a free slot at both endpoints; use AddSelfLoop for
  /// loops.
  void AddEdge(NodeId u, NodeId v);

  /// Adds one self-loop slot at v. Requires a free slot at v.
  void AddSelfLoop(NodeId v);

  /// Fills every free slot of nodes [lo, hi) with self-loops, so each ends
  /// at exactly max_degree() slots. Touches only those rows, so disjoint
  /// ranges may be padded concurrently.
  void PadWithSelfLoops(std::size_t lo, std::size_t hi);
  /// Pads every node to max_degree() slots.
  void PadWithSelfLoops() { PadWithSelfLoops(0, num_nodes()); }

  /// Uniformly random slot target of v (a single lazy-walk step).
  NodeId RandomNeighbor(NodeId v, Rng& rng) const;

  /// True iff every node has exactly `delta` slots.
  bool IsRegular(std::size_t delta) const;

  /// True iff every node has at least `min_loops` self-loop slots.
  bool IsLazy(std::size_t min_loops) const;

  /// Number of slot-counted edges crossing the cut (in_set, complement),
  /// ignoring self-loops. `in_set[v]` marks membership.
  std::size_t CutWeight(const std::vector<char>& in_set) const;

  /// Conductance of S per Definition 1.7: cut(S) / (Δ * |S|), where Δ is the
  /// common degree. Requires the graph to be regular and 0 < |S| <= n/2.
  double ConductanceOf(const std::vector<char>& in_set, std::size_t delta) const;

  /// Collapses to a simple graph (drops loops, dedupes parallel edges).
  Graph ToSimpleGraph() const;

  /// Weighted edge list (u < v) -> multiplicity, loops excluded. Input for
  /// Stoer–Wagner.
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> WeightedEdges() const;

  /// Total non-loop slot-counted edge multiplicity (each edge counted once).
  std::uint64_t TotalEdgeMultiplicity() const;

 private:
  /// Index of v's first slot, computed in size_t so n·cap cannot wrap.
  std::size_t Row(NodeId v) const { return static_cast<std::size_t>(v) * cap_; }

  std::size_t cap_ = 0;
  std::vector<NodeId> slots_;         ///< n × cap_, row-major
  std::vector<std::uint32_t> fill_;   ///< filled slots per row
};

}  // namespace overlay
