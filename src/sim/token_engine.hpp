// Random-walk token engine (fast path of the simulator).
//
// CreateExpander moves n·Δ/8 tokens for ℓ rounds per evolution. Routing each
// token as a generic Message through SyncNetwork works but dominates runtime
// at n = 2^15+, so this engine moves tokens directly over the multigraph's
// slot matrix with *identical* semantics: one uniform incident slot per token
// per round, per-node offered-load accounting per round, drop-free (Lemma
// 3.2: loads stay below 3Δ/8 w.h.p., which the caller checks via max_load).
// tests/token_engine_test.cpp verifies the endpoint distribution matches
// the generic message-passing engine statistically.
//
// One flat kernel: the walk graph is validated once per call (regular, with
// a nonzero common degree Δ), so a step is one inlined xoshiro draw below a
// hoisted rejection threshold plus one load of slot v·stride + r from the
// Multigraph's slot matrix — no per-step checks, no per-node indirection.
//
// Execution layout: num_shards = 1 walks every token in index order on the
// caller's RNG (the historical serial stream, bit for bit). Above one shard,
// shard s walks the contiguous token block [s·B, (s+1)·B) on its own split
// stream against the shared read-only matrix, counting arrivals into its own
// per-node load row; each step then reduces the S rows by node block, so
// the Lemma 3.2 max_load stays exact per node per step. Tokens are not
// regrouped by graph position: CreateExpander's conductance growth (Lemma
// 3.3) sends nearly every late-evolution step across any node partition, so
// position buckets cost a scatter per step and buy no locality. See
// ExecPolicy in sim/engine.hpp for the determinism contract.
//
// Results are structure-of-arrays like the network arenas: arrivals are one
// CSR (origins + offsets, no per-node vectors) and recorded paths are one
// flat (tokens × (ℓ+1)) matrix. Token indices are 32-bit, so a call may
// launch at most 2^32 tokens; the CSR lists each node's arrivals in
// token-index order at every shard count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/multigraph.hpp"
#include "sim/engine.hpp"

namespace overlay {

/// Result of running all walks of one evolution.
struct TokenWalkResult {
  /// CSR arrivals: ArrivalsAt(v) lists the origins of the tokens located at
  /// v after the final step, in token-index order.
  std::vector<NodeId> arrival_origins;
  std::vector<std::size_t> arrival_offsets;  ///< per node, +1 slot
  /// Token index per arrival, parallel to arrival_origins; filled only when
  /// paths are recorded (it is the arrival→path join key).
  std::vector<std::uint32_t> arrival_token;

  std::span<const NodeId> ArrivalsAt(NodeId v) const {
    return {arrival_origins.data() + arrival_offsets[v],
            arrival_offsets[v + 1] - arrival_offsets[v]};
  }
  std::size_t ArrivalCountAt(NodeId v) const {
    return arrival_offsets[v + 1] - arrival_offsets[v];
  }
  std::span<const std::uint32_t> ArrivalTokensAt(NodeId v) const {
    // Keyed on path_stride (record_paths was requested), not on the join
    // column being non-empty: a run whose tokens all happen to land
    // elsewhere — or a zero-token run — legitimately has an empty bucket.
    OVERLAY_CHECK(path_stride != 0,
                  "arrival->path join requires record_paths");
    return {arrival_token.data() + arrival_offsets[v],
            arrival_offsets[v + 1] - arrival_offsets[v]};
  }

  /// Applies permutation `perm` to node v's arrival bucket in place:
  /// entry i of the bucket becomes the old entry perm[i], for the origins
  /// and — when paths are recorded — the parallel token column in lockstep,
  /// so the arrival→path join cannot be torn apart by a caller permuting
  /// one column and forgetting the other (acceptance selection in
  /// evolution.cpp is the one caller). `perm` must be a permutation of
  /// [0, ArrivalCountAt(v)).
  void PermuteArrivalBucket(NodeId v, std::span<const std::uint32_t> perm);

  /// Maximum number of tokens co-located at any node after any single step
  /// (the Lemma 3.2 load; compare against 3Δ/8).
  std::uint64_t max_load = 0;
  /// Token-step count (= messages the walks would cost in SyncNetwork).
  std::uint64_t token_steps = 0;

  /// When paths are recorded: flat row-major matrix, row i = token i's node
  /// sequence of length ℓ+1 with PathOf(i).front() = origin. Token order
  /// matches `token_origin`.
  std::vector<NodeId> path_nodes;
  std::size_t path_stride = 0;  ///< ℓ+1 when recorded, else 0

  std::size_t num_paths() const {
    return path_stride == 0 ? 0 : path_nodes.size() / path_stride;
  }
  std::span<const NodeId> PathOf(std::size_t i) const {
    return {path_nodes.data() + i * path_stride, path_stride};
  }

  /// Origin of token i (parallel to the path rows when recorded).
  std::vector<NodeId> token_origin;
};

struct TokenWalkOptions {
  std::size_t tokens_per_node = 1;
  std::size_t walk_length = 1;
  /// Record full node sequences (needed by the Theorem 1.3 spanning-tree
  /// unwinding); costs O(tokens · ℓ) memory.
  bool record_paths = false;
  /// Execution context (sim/engine.hpp): num_shards = 1 runs the exact
  /// historical serial stream; above 1 each shard walks a contiguous token
  /// block on its own split RNG stream, keyed by shard index, so a fixed
  /// (seed, num_shards) replays bit-identically regardless of scheduling.
  ExecPolicy exec{};
};

/// Runs `tokens_per_node` independent lazy random walks of `walk_length`
/// steps from every node of `g`. Each step picks a uniformly random slot of
/// the token's current node (self-loop slots keep it in place). Requires a
/// regular `g` with a nonzero degree and at most 2^32 tokens in total.
TokenWalkResult RunTokenWalks(const Multigraph& g, const TokenWalkOptions& opts,
                              Rng& rng);

}  // namespace overlay
