#include "overlay/evolution.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"
#include "sim/token_engine.hpp"

namespace overlay {

EvolutionResult RunEvolution(const Multigraph& g, const ExpanderParams& params,
                             Rng& rng) {
  OVERLAY_CHECK(g.IsRegular(params.delta),
                "evolutions require a Δ-regular (benign) graph");
  const std::size_t n = g.num_nodes();

  TokenWalkOptions walk_opts;
  walk_opts.tokens_per_node = params.TokensPerNode();
  walk_opts.walk_length = params.walk_length;
  walk_opts.record_paths = params.record_paths;
  walk_opts.exec = params.exec;
  TokenWalkResult walks = RunTokenWalks(g, walk_opts, rng);

  EvolutionResult result{Multigraph(n, params.delta), {}, {}};
  result.telemetry.rounds = params.walk_length + 1;  // walks + id replies
  result.telemetry.token_steps = walks.token_steps;
  result.telemetry.max_token_load = walks.max_load;

  // Acceptance selection: over-subscribed endpoints keep a uniformly random
  // subset without replacement (partial Fisher–Yates); the rest is
  // discarded. Each node's selection touches only that node's CSR arrival
  // bucket (origins + the parallel token column when provenance is on), so
  // the selection itself runs sharded — contiguous node blocks on the
  // persistent pool, one split RNG stream per shard (same idiom as the
  // token engine: num_shards = 1 consumes the caller's RNG in the exact
  // historical order; any fixed (seed, num_shards) is deterministic
  // regardless of scheduling). `perm` is the calling shard's scratch.
  const std::size_t accept_bound = params.AcceptBound();
  std::vector<std::size_t> keep_count(n);
  const auto select_for = [&](NodeId v, Rng& r,
                              std::vector<std::uint32_t>& perm)
      -> std::uint64_t {
    const std::size_t arrived = walks.ArrivalCountAt(v);
    std::size_t keep = arrived;
    if (keep > accept_bound) {
      // The partial Fisher–Yates runs on an index permutation (same draws,
      // same swap sequence as permuting the bucket directly), then
      // PermuteArrivalBucket applies it to the origins and the token join
      // column in lockstep — the two can no longer be permuted apart.
      perm.resize(arrived);
      std::iota(perm.begin(), perm.end(), 0u);
      for (std::size_t i = 0; i < accept_bound; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(r.NextBelow(arrived - i));
        std::swap(perm[i], perm[j]);
      }
      walks.PermuteArrivalBucket(v, perm);
      keep = accept_bound;
    }
    keep_count[v] = keep;
    return arrived - keep;
  };

  const std::size_t shards = params.exec.ShardsFor(n);
  if (shards <= 1) {
    std::vector<std::uint32_t> perm;
    for (NodeId v = 0; v < n; ++v) {
      result.telemetry.tokens_discarded += select_for(v, rng, perm);
    }
  } else {
    std::vector<Rng> shard_rng;
    shard_rng.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(rng.Split());
    std::vector<std::uint64_t> discarded(shards, 0);
    RunShardedBlocks(params.exec.Pool(), n, shards,
                     [&](std::size_t s, std::size_t lo, std::size_t hi) {
                       std::vector<std::uint32_t> perm;
                       for (std::size_t v = lo; v < hi; ++v) {
                         discarded[s] += select_for(static_cast<NodeId>(v),
                                                    shard_rng[s], perm);
                       }
                     });
    for (const std::uint64_t d : discarded) {
      result.telemetry.tokens_discarded += d;
    }
  }

  // Edge establishment from the selected tokens. AddEdge touches both
  // endpoints' slot rows, so this pass stays serial; it is O(edges) against
  // the walks' O(n·Δ·ℓ).
  for (NodeId v = 0; v < n; ++v) {
    const auto arrived = walks.ArrivalsAt(v);
    const auto tokens = params.record_paths
                            ? walks.ArrivalTokensAt(v)
                            : std::span<const std::uint32_t>{};
    const std::size_t keep = keep_count[v];
    for (std::size_t i = 0; i < keep; ++i) {
      const NodeId origin = arrived[i];
      if (origin == v) {
        // A token that returned home would form a loop edge; the self-loop
        // padding below restores the degree, so nothing to record.
        continue;
      }
      result.next.AddEdge(v, origin);
      ++result.telemetry.reply_messages;
      ++result.telemetry.edges_created;
      if (params.record_paths) {
        const auto path = walks.PathOf(tokens[i]);
        EdgeProvenance prov;
        prov.origin = origin;
        prov.endpoint = v;
        prov.path.assign(path.begin(), path.end());
        result.provenance.push_back(std::move(prov));
      }
    }
  }

  // Self-loop padding back to Δ-regularity. Degrees never exceed Δ/2 non-loop
  // slots (Δ/8 own tokens + 3Δ/8 accepted), so laziness holds by construction;
  // were the accept bound to fail, AddEdge would have thrown on a full row.
  // Padding touches only each node's own row, so it shards over the same
  // contiguous node blocks (no randomness — any shard count produces the
  // identical graph).
  RunShardedBlocks(params.exec.Pool(), n, shards,
                   [&](std::size_t, std::size_t lo, std::size_t hi) {
                     result.next.PadWithSelfLoops(lo, hi);
                   });
  return result;
}

}  // namespace overlay
