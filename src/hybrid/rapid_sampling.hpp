// Rapid sampling (Lemma 4.2): length-ℓ random walks in O(log ℓ) rounds.
//
// Technique of [17, 9, 37] as described in Section 4.1: tokens walk normally
// for 2 rounds, then log₂(ℓ)-1 stitching rounds follow. In a stitching round
// every node splits the tokens it currently holds into a red and a blue half
// uniformly at random; each red token is paired with a distinct blue token
// and *moves to the blue token's origin* (the blue walk, reversed, extends
// the red walk — reversibility holds because benign graphs are regular);
// blue tokens are discarded to keep surviving walks independent. Each stitch
// doubles walk length, so surviving tokens are distributed exactly like
// length-ℓ walks, and a 1/2 survival rate per round leaves Θ(k·2/ℓ) of k
// initial tokens.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/multigraph.hpp"
#include "hybrid/hybrid_model.hpp"
#include "sim/engine.hpp"

namespace overlay {

/// A surviving stitched token: a walk of length ℓ from `origin` to `endpoint`.
struct StitchedToken {
  NodeId origin = kInvalidNode;
  NodeId endpoint = kInvalidNode;
  /// Node sequence origin..endpoint (length ℓ+1); filled when record_paths.
  std::vector<NodeId> path;
};

struct RapidSamplingOptions {
  /// Walk length; must be a power of two >= 4.
  std::size_t walk_length = 32;
  /// Tokens launched per node. To keep ~s survivors per node, launch
  /// s · walk_length / 2 (2 plain rounds keep all tokens; each of the
  /// log₂(ℓ)-1 stitch rounds halves, so survivors = 2k/ℓ).
  std::size_t tokens_per_node = 64;
  bool record_paths = false;
  /// Execution context for the phase B stitch rounds (same idiom as the
  /// evolution acceptance pass): nodes are split into contiguous blocks on
  /// the pool, each block's red/blue shuffles drawing from its own RNG
  /// stream split off the caller's (see ExecPolicy in sim/engine.hpp for
  /// the shared contract). Which tokens pair up varies with the streams, so
  /// survivor sets differ across shard counts while the round count and
  /// the survivor distribution are unchanged.
  ExecPolicy exec{};
};

struct RapidSamplingResult {
  std::vector<StitchedToken> tokens;  ///< survivors, arbitrary order
  HybridCost cost;                    ///< rounds = 2 + (log₂ ℓ - 1)
  std::uint64_t max_load = 0;         ///< peak tokens co-located at a node
};

/// Runs the stitching protocol on (benign, regular) multigraph `g`.
RapidSamplingResult RunRapidSampling(const Multigraph& g,
                                     const RapidSamplingOptions& opts,
                                     Rng& rng);

/// Survivors per node needed s.t. RunRapidSampling yields >= `survivors`
/// tokens per node in expectation: survivors · walk_length / 4.
std::size_t TokensNeededFor(std::size_t survivors, std::size_t walk_length);

}  // namespace overlay
