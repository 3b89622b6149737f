#include "sim/token_engine.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

namespace {

/// Seeds result.token_origin / the token start positions (v-major token
/// order: node v owns token indices [v·T, (v+1)·T)) and, when requested,
/// the flat path matrix with column 0 = origin.
void InitTokens(std::size_t n, const TokenWalkOptions& opts,
                std::vector<NodeId>& position, TokenWalkResult& result) {
  const std::size_t num_tokens = n * opts.tokens_per_node;
  position.resize(num_tokens);
  for (NodeId v = 0; v < n; ++v) {
    const auto row = position.begin() + v * opts.tokens_per_node;
    std::fill(row, row + opts.tokens_per_node, v);
  }
  result.token_origin = position;
  if (opts.record_paths) {
    // One flat matrix instead of num_tokens vectors: row i is token i's
    // sequence; column 0 is the origin.
    const std::size_t stride = opts.walk_length + 1;
    result.path_stride = stride;
    result.path_nodes.assign(num_tokens * stride, kInvalidNode);
    for (std::size_t i = 0; i < num_tokens; ++i) {
      result.path_nodes[i * stride] = position[i];
    }
  }
}

/// Arrivals as a CSR in (node, token-index) order — a stable counting sort
/// by final position, matching the per-node push_back order the per-node
/// vectors used to accumulate. CheckWalkOptions caps the token count at
/// 2^32, so every token index fits the 32-bit join column.
void FinalizeArrivals(std::size_t n, std::span<const NodeId> position,
                      bool record_paths, TokenWalkResult& result) {
  const std::size_t num_tokens = position.size();
  std::vector<std::size_t>& offsets = result.arrival_offsets;
  offsets.assign(n + 1, 0);
  for (const NodeId at : position) ++offsets[at + 1];
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  result.arrival_origins.resize(num_tokens);
  if (record_paths) result.arrival_token.resize(num_tokens);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < num_tokens; ++i) {
    const std::size_t slot = cursor[position[i]]++;
    result.arrival_origins[slot] = result.token_origin[i];
    if (record_paths) {
      result.arrival_token[slot] = static_cast<std::uint32_t>(i);
    }
  }
}

/// The walk kernel's view of a regular multigraph: the slot matrix, its row
/// stride and the common degree Δ with NextBelow's rejection threshold for
/// Δ hoisted out of the step loop. Validated once per call, so a step needs
/// no range or emptiness check.
struct WalkKernel {
  const NodeId* slots;
  std::size_t stride;
  std::uint64_t degree;
  std::uint64_t threshold;

  explicit WalkKernel(const Multigraph& g)
      : slots(g.slot_data()),
        stride(g.max_degree()),
        degree(g.Degree(0)),
        threshold(0) {
    OVERLAY_CHECK(degree > 0, "random step from isolated node");
    OVERLAY_CHECK(g.IsRegular(degree),
                  "token walks require a regular multigraph");
    threshold = RejectionThreshold(degree);
  }

  /// Moves tokens [lo, hi) one step on `rng`, in index order, counting each
  /// arrival into `load` and, when `path` is non-null, recording it in
  /// column step + 1 of the path matrix. The stream is advanced on a local
  /// copy, so its state stays in registers instead of a cache line that
  /// neighbouring shards' streams share, and the loop is compiled once per
  /// recording mode: a per-token path test cost about a fifth of the
  /// step time on Line(2^14) walks.
  void Step(Rng& rng, std::span<NodeId> position, std::size_t lo,
            std::size_t hi, std::uint32_t* load, NodeId* path,
            std::size_t path_stride, std::size_t step) const {
    Rng local = rng;
    const auto walk = [&](auto record) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t at = position[i];
        const NodeId next =
            slots[at * stride + local.NextBelow(degree, threshold)];
        position[i] = next;
        ++load[next];
        if constexpr (decltype(record)::value) {
          path[i * path_stride + step + 1] = next;
        }
      }
    };
    if (path != nullptr) {
      walk(std::true_type{});
    } else {
      walk(std::false_type{});
    }
    rng = local;
  }
};

/// Walks every token ℓ steps over S token blocks. Shard s owns the token
/// block [s·tb, (s+1)·tb) and the node block [s·nb, (s+1)·nb); every step
/// runs two barrier phases on the pool:
///
///   even phase, by token block: step the shard's tokens on its RNG
///     stream, counting arrivals into the shard's own load row;
///   odd phase, by node block: sum the S load rows over the shard's nodes
///     (zeroing them for the next step) and keep the block's maximum; the
///     boundary folds the block maxima into max_load.
///
/// At S = 1 the one block is every token, walked on the caller's RNG
/// itself — the historical serial stream, bit for bit. Above one shard,
/// shard s walks on the s-th Split() of the caller's RNG. The slot matrix
/// is shared read-only and every write is shard-private (a token row of
/// position/path, a load row, or a node block of every load row), so a
/// fixed (seed, num_shards) replays bit-identically however the phases
/// land on workers.
void Walk(const WalkKernel& kernel, const TokenWalkOptions& opts, Rng& rng,
          std::size_t n, std::size_t shards, std::vector<NodeId>& position,
          TokenWalkResult& result) {
  const std::size_t num_tokens = position.size();
  const std::size_t token_block = (num_tokens + shards - 1) / shards;
  const std::size_t node_block = (n + shards - 1) / shards;
  std::vector<Rng> split;
  if (shards > 1) {
    split.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) split.push_back(rng.Split());
  }
  Rng* const stream = shards > 1 ? split.data() : &rng;
  std::vector<std::uint32_t> load(shards * n, 0u);
  std::vector<std::uint64_t> block_max(shards, 0);
  NodeId* const path = opts.record_paths ? result.path_nodes.data() : nullptr;

  opts.exec.Pool().RunPhased(
      shards, 2 * opts.walk_length,
      [&](std::size_t s, std::size_t phase) {
        if ((phase & 1) == 0) {
          const std::size_t lo = std::min(num_tokens, s * token_block);
          const std::size_t hi = std::min(num_tokens, lo + token_block);
          kernel.Step(stream[s], position, lo, hi, load.data() + s * n, path,
                      result.path_stride, phase >> 1);
          return;
        }
        const std::size_t lo = std::min(n, s * node_block);
        const std::size_t hi = std::min(n, lo + node_block);
        std::uint64_t mx = 0;
        for (std::size_t v = lo; v < hi; ++v) {
          std::uint64_t sum = 0;
          for (std::size_t r = 0; r < shards; ++r) {
            sum += std::exchange(load[r * n + v], 0u);
          }
          mx = std::max(mx, sum);
        }
        block_max[s] = mx;
      },
      [&](std::size_t phase) {
        if ((phase & 1) == 0) return;
        for (const std::uint64_t mx : block_max) {
          result.max_load = std::max(result.max_load, mx);
        }
        result.token_steps += num_tokens;
      });
}

void CheckWalkOptions(std::size_t n, const TokenWalkOptions& opts) {
  OVERLAY_CHECK(opts.tokens_per_node >= 1, "need at least one token per node");
  OVERLAY_CHECK(opts.walk_length >= 1, "walks must take at least one step");
  OVERLAY_CHECK(opts.exec.num_shards >= 1, "need at least one shard");
  // n · tokens_per_node <= 2^32, written so the product cannot overflow:
  // every token index must fit the 32-bit arrival_token join column.
  OVERLAY_CHECK(n == 0 || opts.tokens_per_node <= (std::uint64_t{1} << 32) / n,
                "token count exceeds the 32-bit token index");
}

}  // namespace

TokenWalkResult RunTokenWalks(const Multigraph& g, const TokenWalkOptions& opts,
                              Rng& rng) {
  const std::size_t n = g.num_nodes();
  CheckWalkOptions(n, opts);

  TokenWalkResult result;
  std::vector<NodeId> position;
  InitTokens(n, opts, position, result);
  if (!position.empty()) {
    Walk(WalkKernel(g), opts, rng, n, opts.exec.ShardsFor(n), position,
         result);
  }
  FinalizeArrivals(n, position, opts.record_paths, result);
  return result;
}

void TokenWalkResult::PermuteArrivalBucket(NodeId v,
                                           std::span<const std::uint32_t> perm) {
  const std::size_t lo = arrival_offsets[v];
  const std::size_t count = arrival_offsets[v + 1] - lo;
  OVERLAY_CHECK(perm.size() == count,
                "permutation size must match the arrival bucket");
  std::vector<NodeId> old_origins(arrival_origins.begin() + lo,
                                  arrival_origins.begin() + lo + count);
  for (std::size_t i = 0; i < count; ++i) {
    arrival_origins[lo + i] = old_origins[perm[i]];
  }
  if (path_stride != 0) {
    std::vector<std::uint32_t> old_tokens(arrival_token.begin() + lo,
                                          arrival_token.begin() + lo + count);
    for (std::size_t i = 0; i < count; ++i) {
      arrival_token[lo + i] = old_tokens[perm[i]];
    }
  }
}

}  // namespace overlay
