#include "graph/multigraph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/graph.hpp"

namespace overlay {

Multigraph::Multigraph(std::size_t num_nodes, std::size_t max_degree)
    : cap_(max_degree), fill_(num_nodes, 0) {
  OVERLAY_CHECK(max_degree <= UINT32_MAX, "row capacity exceeds 32 bits");
  slots_.resize(num_nodes * max_degree);
}

std::size_t Multigraph::SelfLoopCount(NodeId v) const {
  const auto slots = Slots(v);
  return static_cast<std::size_t>(std::count(slots.begin(), slots.end(), v));
}

void Multigraph::AddEdge(NodeId u, NodeId v) {
  OVERLAY_CHECK(u < num_nodes() && v < num_nodes(), "edge endpoint out of range");
  OVERLAY_CHECK(u != v, "use AddSelfLoop for self-loops");
  OVERLAY_CHECK(fill_[u] < cap_ && fill_[v] < cap_,
                "edge endpoint's slot row is full");
  slots_[Row(u) + fill_[u]++] = v;
  slots_[Row(v) + fill_[v]++] = u;
}

void Multigraph::AddSelfLoop(NodeId v) {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  OVERLAY_CHECK(fill_[v] < cap_, "node's slot row is full");
  slots_[Row(v) + fill_[v]++] = v;
}

void Multigraph::PadWithSelfLoops(std::size_t lo, std::size_t hi) {
  OVERLAY_CHECK(lo <= hi && hi <= num_nodes(), "padding range out of bounds");
  for (std::size_t i = lo; i < hi; ++i) {
    const NodeId v = static_cast<NodeId>(i);
    std::fill(slots_.begin() + Row(v) + fill_[v], slots_.begin() + Row(v) + cap_,
              v);
    fill_[v] = static_cast<std::uint32_t>(cap_);
  }
}

NodeId Multigraph::RandomNeighbor(NodeId v, Rng& rng) const {
  OVERLAY_CHECK(v < num_nodes(), "node out of range");
  OVERLAY_CHECK(fill_[v] > 0, "random step from isolated node");
  return slots_[Row(v) + rng.NextBelow(fill_[v])];
}

bool Multigraph::IsRegular(std::size_t delta) const {
  return std::all_of(fill_.begin(), fill_.end(),
                     [delta](std::uint32_t d) { return d == delta; });
}

bool Multigraph::IsLazy(std::size_t min_loops) const {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (SelfLoopCount(v) < min_loops) return false;
  }
  return true;
}

std::size_t Multigraph::CutWeight(const std::vector<char>& in_set) const {
  OVERLAY_CHECK(in_set.size() == num_nodes(), "cut indicator size mismatch");
  std::size_t crossing = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!in_set[v]) continue;
    for (NodeId w : Slots(v)) {
      if (w != v && !in_set[w]) ++crossing;
    }
  }
  return crossing;
}

double Multigraph::ConductanceOf(const std::vector<char>& in_set,
                                 std::size_t delta) const {
  const auto size =
      static_cast<std::size_t>(std::count(in_set.begin(), in_set.end(), 1));
  OVERLAY_CHECK(size > 0 && size * 2 <= num_nodes(),
                "conductance requires 0 < |S| <= n/2");
  OVERLAY_CHECK(delta > 0, "delta must be positive");
  return static_cast<double>(CutWeight(in_set)) /
         (static_cast<double>(delta) * static_cast<double>(size));
}

Graph Multigraph::ToSimpleGraph() const {
  GraphBuilder builder(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (NodeId w : Slots(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  return std::move(builder).Build();
}

std::map<std::pair<NodeId, NodeId>, std::uint64_t> Multigraph::WeightedEdges()
    const {
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> weights;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (NodeId w : Slots(v)) {
      if (v < w) ++weights[{v, w}];
    }
  }
  return weights;
}

std::uint64_t Multigraph::TotalEdgeMultiplicity() const {
  std::uint64_t total = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (NodeId w : Slots(v)) {
      if (w != v) ++total;
    }
  }
  return total / 2;
}

}  // namespace overlay
