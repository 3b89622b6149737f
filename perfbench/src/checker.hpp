// Output checker of the construction benchmark.
//
// Written against the data the pipeline returns, not borrowed from the
// library's own validators (ValidateWellFormedTree, ValidateBfsTree): a
// change that breaks a validator together with the code it validates must
// still fail here. Every check returns an empty string on success and a
// one-line description of the first violated property otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"
#include "overlay/params.hpp"
#include "overlay/well_formed_tree.hpp"

namespace perfbench {

/// Smallest k with 2^k >= n (0 for n <= 1).
std::uint32_t CeilLog2(std::size_t n);

/// Theorem 1.1 output: every one of the n nodes appears exactly once under
/// one root, parent and child pointers agree, every node has at most two
/// children, and the depth is at most ceil(log2 n) + 1.
std::string CheckWellFormedTree(const overlay::WellFormedTree& t,
                                std::size_t n);

/// The expander the tree was carved from: n nodes, connected, and simple
/// degree at most Δ/2 (Δ/8 launched plus 3Δ/8 accepted tokens per node).
std::string CheckExpander(const overlay::Graph& g, std::size_t n,
                          std::size_t delta);

/// The expander phase takes exactly L·(ℓ+1) rounds: ℓ walk rounds plus one
/// reply round per evolution, and no early stop.
std::string CheckExpanderRounds(std::uint64_t rounds,
                                const overlay::ExpanderParams& params);

/// Hop distances from `root` by a plain queue BFS (kUnreached if none).
inline constexpr std::uint32_t kUnreached = 0xffffffffu;
std::vector<std::uint32_t> QueueBfs(const overlay::Graph& g,
                                    overlay::NodeId root);

/// Election + BFS flood output: the root is the minimum id, every parent
/// edge is an edge of g one level up, and every depth equals the queue-BFS
/// distance from the root.
std::string CheckFlood(const overlay::Graph& g, overlay::NodeId root,
                       std::span<const overlay::NodeId> parent,
                       std::span<const std::uint32_t> depth);

}  // namespace perfbench
