// Test of the benchmark's output checker: real pipeline outputs pass, and
// each corrupted output is rejected for the property it breaks. Exits
// non-zero if any case goes the wrong way.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "checker.hpp"
#include "graph/generators.hpp"
#include "overlay/bfs_tree.hpp"
#include "overlay/construct.hpp"
#include "overlay/well_formed_tree.hpp"

namespace {

using overlay::kInvalidNode;
using overlay::NodeId;
using overlay::WellFormedTree;

int failures = 0;

void Expect(const char* name, const std::string& verdict, bool want_pass,
            const char* want_reason = "") {
  const bool passed = verdict.empty();
  const bool ok = want_pass ? passed
                            : !passed && verdict.find(want_reason) !=
                                             std::string::npos;
  std::printf("%-28s %s  (%s)\n", name, ok ? "ok  " : "FAIL",
              passed ? "accepted" : verdict.c_str());
  if (!ok) ++failures;
}

// Balanced binary tree in heap order: node i has children 2i+1 and 2i+2.
WellFormedTree HeapTree(std::size_t n) {
  WellFormedTree t;
  t.root = 0;
  t.parent.assign(n, kInvalidNode);
  t.left_child.assign(n, kInvalidNode);
  t.right_child.assign(n, kInvalidNode);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = (v - 1) / 2;
    t.parent[v] = p;
    (v % 2 == 1 ? t.left_child[p] : t.right_child[p]) = v;
  }
  return t;
}

// A path 0 - 1 - ... - (n-1) hanging off the root as left children.
WellFormedTree PathTree(std::size_t n) {
  WellFormedTree t;
  t.root = 0;
  t.parent.assign(n, kInvalidNode);
  t.left_child.assign(n, kInvalidNode);
  t.right_child.assign(n, kInvalidNode);
  for (NodeId v = 1; v < n; ++v) {
    t.parent[v] = v - 1;
    t.left_child[v - 1] = v;
  }
  return t;
}

}  // namespace

int main() {
  using perfbench::CheckFlood;
  using perfbench::CheckWellFormedTree;

  // The real pipeline's outputs pass every check.
  const overlay::Graph line = overlay::gen::Line(256);
  const overlay::ConstructionResult r =
      overlay::ConstructWellFormedTree(line, /*seed=*/7);
  Expect("pipeline tree", CheckWellFormedTree(r.tree, 256), true);
  const auto params = overlay::ExpanderParams::ForSize(256, 2, 7);
  Expect("pipeline expander",
         perfbench::CheckExpander(r.expander, 256, params.delta), true);
  Expect("pipeline expander rounds",
         perfbench::CheckExpanderRounds(r.report.expander_rounds, params),
         true);
  Expect("expander rounds off by one",
         perfbench::CheckExpanderRounds(r.report.expander_rounds + 1, params),
         false, "L·(ℓ+1)");
  Expect("heap tree", CheckWellFormedTree(HeapTree(100), 100), true);

  // A node with three children: in the 15-node heap tree node 1 has
  // children 3 and 4; leaf 14 leaves node 6 and hangs under node 1 too.
  {
    WellFormedTree t = HeapTree(15);
    t.right_child[6] = kInvalidNode;
    t.parent[14] = 1;
    Expect("three children", CheckWellFormedTree(t, 15), false,
           "more than two children");
  }

  // A parent cycle: nodes 1 and 3 become each other's parent, with child
  // pointers that agree on both sides; node 7 takes 1's place under the
  // root so that every node still has exactly one parent.
  {
    WellFormedTree t = HeapTree(15);
    t.parent[1] = 3;
    t.left_child[3] = 1;
    t.parent[7] = 0;
    t.left_child[0] = 7;
    Expect("parent cycle", CheckWellFormedTree(t, 15), false, "parent cycle");
  }

  // One level too deep: a path of n = 6 nodes has depth 5, and
  // ceil(log2 6) + 1 = 4.
  Expect("path at the depth bound", CheckWellFormedTree(PathTree(5), 5), true);
  Expect("one level too deep", CheckWellFormedTree(PathTree(6), 6), false,
         "exceeds ceil(log2 n)+1");

  // Flood: a real BFS tree passes; one depth off by one does not.
  const overlay::Graph reg = overlay::gen::ConnectedRandomRegular(512, 3, 11);
  overlay::BfsTreeResult bfs = overlay::BuildBfsTree(reg);
  Expect("pipeline flood", CheckFlood(reg, bfs.root, bfs.parent, bfs.depth),
         true);
  {
    auto depth = bfs.depth;
    depth[300] += 1;
    Expect("bfs depth off by one", CheckFlood(reg, bfs.root, bfs.parent, depth),
           false, "!= BFS distance");
  }
  {
    // Node 0 is not adjacent to node 300 in this graph (asserted).
    const auto nb = reg.Neighbors(300);
    if (std::find(nb.begin(), nb.end(), NodeId{0}) != nb.end()) ++failures;
    auto parent = bfs.parent;
    parent[300] = 0;
    Expect("phantom parent edge", CheckFlood(reg, bfs.root, parent, bfs.depth),
           false, "not in the graph");
  }
  Expect("root not minimum", CheckFlood(reg, 5, bfs.parent, bfs.depth), false,
         "minimum id");

  std::printf("%s\n", failures == 0 ? "all checker cases ok"
                                    : "checker test FAILED");
  return failures == 0 ? 0 : 1;
}
