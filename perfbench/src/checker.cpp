#include "checker.hpp"

#include <algorithm>
#include <deque>

namespace perfbench {

using overlay::Graph;
using overlay::kInvalidNode;
using overlay::NodeId;

namespace {

std::string Node(const char* what, std::size_t v) {
  return std::string(what) + " " + std::to_string(v);
}

bool HasEdge(const Graph& g, NodeId u, NodeId v) {
  const auto nb = g.Neighbors(u);
  return std::find(nb.begin(), nb.end(), v) != nb.end();
}

}  // namespace

std::uint32_t CeilLog2(std::size_t n) {
  std::uint32_t k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  return k;
}

std::string CheckWellFormedTree(const overlay::WellFormedTree& t,
                                std::size_t n) {
  if (t.parent.size() != n || t.left_child.size() != n ||
      t.right_child.size() != n) {
    return "tree arrays do not cover the " + std::to_string(n) + " nodes";
  }
  if (t.root >= n) return "root out of range";
  if (t.parent[t.root] != kInvalidNode) return "root has a parent";

  std::vector<std::uint32_t> children(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v == t.root) continue;
    const NodeId p = t.parent[v];
    if (p == kInvalidNode) return Node("second root at node", v);
    if (p >= n) return Node("parent out of range at node", v);
    ++children[p];
  }
  for (NodeId v = 0; v < n; ++v) {
    if (children[v] > 2) return Node("more than two children at node", v);
  }
  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = t.parent[v];
    if (v != t.root && t.left_child[p] != v && t.right_child[p] != v) {
      return Node("parent does not list its child at node", v);
    }
    for (const NodeId c : {t.left_child[v], t.right_child[v]}) {
      if (c == kInvalidNode) continue;
      if (c >= n || t.parent[c] != v) {
        return Node("child pointer disagrees with parent at node", v);
      }
    }
    if (t.left_child[v] != kInvalidNode &&
        t.left_child[v] == t.right_child[v]) {
      return Node("same child twice at node", v);
    }
  }

  // Walk down from the root: a node on a parent cycle is never reached.
  const std::uint32_t max_depth = CeilLog2(n) + 1;
  std::vector<std::uint32_t> depth(n, kUnreached);
  std::vector<NodeId> stack{t.root};
  depth[t.root] = 0;
  std::size_t reached = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    ++reached;
    if (depth[v] > max_depth) {
      return "depth " + std::to_string(depth[v]) + " exceeds ceil(log2 n)+1 = " +
             std::to_string(max_depth);
    }
    for (const NodeId c : {t.left_child[v], t.right_child[v]}) {
      if (c == kInvalidNode) continue;
      if (depth[c] != kUnreached) return Node("node reached twice:", c);
      depth[c] = depth[v] + 1;
      stack.push_back(c);
    }
  }
  if (reached != n) {
    return std::to_string(n - reached) +
           " nodes not reachable from the root (parent cycle)";
  }
  return {};
}

std::string CheckExpander(const Graph& g, std::size_t n, std::size_t delta) {
  if (g.num_nodes() != n) return "expander has the wrong node count";
  if (g.MaxDegree() > delta / 2) {
    return "expander degree " + std::to_string(g.MaxDegree()) +
           " exceeds Δ/2 = " + std::to_string(delta / 2);
  }
  const auto dist = QueueBfs(g, 0);
  if (std::find(dist.begin(), dist.end(), kUnreached) != dist.end()) {
    return "expander is disconnected";
  }
  return {};
}

std::string CheckExpanderRounds(std::uint64_t rounds,
                                const overlay::ExpanderParams& params) {
  const std::uint64_t want =
      params.num_evolutions * (params.walk_length + 1);
  if (rounds != want) {
    return "expander rounds " + std::to_string(rounds) + " != L·(ℓ+1) = " +
           std::to_string(want);
  }
  return {};
}

std::vector<std::uint32_t> QueueBfs(const Graph& g, NodeId root) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreached);
  std::deque<NodeId> queue{root};
  dist[root] = 0;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const NodeId u : g.Neighbors(v)) {
      if (dist[u] == kUnreached) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

std::string CheckFlood(const Graph& g, NodeId root,
                       std::span<const NodeId> parent,
                       std::span<const std::uint32_t> depth) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return "empty graph";
  if (parent.size() != n || depth.size() != n) {
    return "flood arrays do not cover the graph";
  }
  if (root != 0) return "root " + std::to_string(root) + " is not the minimum id 0";
  if (parent[root] != kInvalidNode) return "root has a parent";
  const auto dist = QueueBfs(g, root);
  for (NodeId v = 0; v < n; ++v) {
    if (depth[v] != dist[v]) {
      return Node("depth", depth[v]) + " != BFS distance " +
             std::to_string(dist[v]) + " at node " + std::to_string(v);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const NodeId p = parent[v];
    if (p >= n || !HasEdge(g, v, p)) {
      return Node("parent edge not in the graph at node", v);
    }
    if (depth[p] + 1 != depth[v]) return Node("parent not one level up at node", v);
  }
  return {};
}

}  // namespace perfbench
