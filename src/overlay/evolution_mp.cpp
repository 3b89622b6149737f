#include "overlay/evolution_mp.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "sim/async_network.hpp"
#include "sim/sharded_network.hpp"

namespace overlay {

namespace {
constexpr std::uint32_t kTokenMsg = 0x10u;
constexpr std::uint32_t kReplyMsg = 0x11u;

/// Per-shard reusable send staging: one node's outgoing batch is built here
/// and handed to the engine in a single SendBatch/SendFanout append, so the
/// round loop performs no per-message engine calls and no per-node
/// allocations.
struct SendScratch {
  std::vector<NodeId> targets;
  std::vector<Envelope> batch;
};

/// Runs `f(v, rng, scratch)` for every node. On a multi-shard ShardedNetwork
/// the loop executes on the engine's shard workers (ForEachShard) with one
/// split RNG stream and one scratch per shard; on every other engine — and
/// on a single-shard ShardedNetwork, to preserve the historical bit-exact
/// stream — it runs serially on `rng` itself with scratch 0. `shard_rngs`
/// must hold one stream per shard of `net` (ignored on the serial path);
/// results are deterministic for a fixed (seed, shard count) because shard s
/// always owns the same node range, stream, and scratch.
template <typename Engine, typename F>
void DriveNodes(Engine& net, Rng& rng, std::vector<Rng>& shard_rngs,
                std::vector<SendScratch>& scratch, F&& f) {
  if constexpr (std::is_same_v<Engine, ShardedNetwork>) {
    if (net.num_shards() > 1) {
      net.ForEachShard([&](std::size_t s, NodeId lo, NodeId hi) {
        for (NodeId v = lo; v < hi; ++v) f(v, shard_rngs[s], scratch[s]);
      });
      return;
    }
  }
  for (NodeId v = 0; v < net.num_nodes(); ++v) f(v, rng, scratch[0]);
}

}  // namespace

template <NetworkEngine Engine>
MessagePassingEvolutionResult RunEvolutionMessagePassing(
    const Multigraph& g, const ExpanderParams& params, EngineConfig cfg) {
  OVERLAY_CHECK(g.IsRegular(params.delta),
                "evolutions require a Δ-regular (benign) graph");
  const std::size_t n = g.num_nodes();
  if (cfg.capacity == 0) cfg.capacity = params.delta;
  cfg.num_nodes = n;
  cfg.seed = params.seed ^ 0x3e57ULL;

  Engine net(cfg);
  Rng rng(params.seed ^ 0x70c3ULL);

  // Per-shard walk streams for the sharded drive (unused, and not split,
  // when the drive is serial — keeping the historical stream untouched).
  std::vector<Rng> shard_rngs;
  std::size_t drive_lanes = 1;
  if constexpr (std::is_same_v<Engine, ShardedNetwork>) {
    if (net.num_shards() > 1) {
      drive_lanes = net.num_shards();
      shard_rngs.reserve(net.num_shards());
      for (std::size_t s = 0; s < net.num_shards(); ++s) {
        shard_rngs.push_back(rng.Split());
      }
    }
  }
  std::vector<SendScratch> scratch(drive_lanes);

  MessagePassingEvolutionResult result{Multigraph(n, params.delta), {}, 0, 0};
  const std::uint64_t tokens_launched = n * params.TokensPerNode();

  // Round 1: every node launches Δ/8 tokens (first walk step). Same payload
  // (the origin id), random destinations — one fanout append per node.
  DriveNodes(net, rng, shard_rngs, scratch,
             [&](NodeId v, Rng& r, SendScratch& sc) {
               sc.targets.clear();
               for (std::size_t t = 0; t < params.TokensPerNode(); ++t) {
                 sc.targets.push_back(g.RandomNeighbor(v, r));
               }
               net.SendFanout(v, sc.targets, kTokenMsg, v);
             });
  net.EndRound();

  // Rounds 2..ℓ: forward every held token one more step. Payloads differ per
  // token (the origin travels), so this is the heterogeneous batch path.
  for (std::size_t step = 1; step < params.walk_length; ++step) {
    DriveNodes(net, rng, shard_rngs, scratch,
               [&](NodeId v, Rng& r, SendScratch& sc) {
                 sc.batch.clear();
                 for (const MessageView m : net.Inbox(v)) {
                   if (m.kind() == kTokenMsg) {
                     sc.batch.push_back(
                         {g.RandomNeighbor(v, r), kTokenMsg, m.word0()});
                   }
                 }
                 net.SendBatch(v, sc.batch);
               });
    net.EndRound();
  }

  // Round ℓ+1: accept up to 3Δ/8 tokens, reply with own id to the origins.
  // The engine's inbox is already capacity-trimmed; the protocol trims to
  // the acceptance bound on top (random subset — inbox order is already
  // a random permutation of survivors, so a prefix suffices). No randomness
  // here: the sharded drive matches the serial one exactly. All replies
  // carry the same payload (v's id), so they fan out in one append.
  DriveNodes(net, rng, shard_rngs, scratch,
             [&](NodeId v, Rng&, SendScratch& sc) {
               sc.targets.clear();
               std::size_t taken = 0;
               for (const MessageView m : net.Inbox(v)) {
                 if (m.kind() != kTokenMsg) continue;
                 if (taken >= params.AcceptBound()) break;
                 const NodeId origin = m.IdPayload();
                 if (origin == v) continue;  // token came home: a loop,
                                             // padded later
                 sc.targets.push_back(origin);
                 ++taken;
               }
               net.SendFanout(v, sc.targets, kReplyMsg, v);
             });
  net.EndRound();

  // Edge establishment: endpoint side recorded above; origin side learns
  // the endpoint from the reply. Both sides must agree for the undirected
  // multigraph edge (replies can be dropped by the adversary too).
  std::uint64_t replies_received = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const MessageView m : net.Inbox(v)) {
      if (m.kind() != kReplyMsg) continue;
      ++replies_received;
      const NodeId endpoint = m.src();
      result.next.AddEdge(v, endpoint);
      ++result.edges_created;
    }
  }
  result.tokens_without_edge = tokens_launched - replies_received;

  // Self-loop padding (as in the fast path). The rows hold Δ slots, so
  // AddEdge above would have thrown had the degree cap failed; it holds for
  // the same reason: <= Δ/8 replies + <= 3Δ/8 acceptances per node.
  result.next.PadWithSelfLoops();
  result.stats = net.stats();
  return result;
}

template MessagePassingEvolutionResult RunEvolutionMessagePassing<SyncNetwork>(
    const Multigraph&, const ExpanderParams&, EngineConfig);
template MessagePassingEvolutionResult
RunEvolutionMessagePassing<AsyncNetwork>(const Multigraph&,
                                         const ExpanderParams&, EngineConfig);
template MessagePassingEvolutionResult
RunEvolutionMessagePassing<ShardedNetwork>(const Multigraph&,
                                           const ExpanderParams&,
                                           EngineConfig);

MessagePassingEvolutionResult RunEvolutionMessagePassing(
    const Multigraph& g, const ExpanderParams& params, std::size_t capacity) {
  return RunEvolutionMessagePassing<SyncNetwork>(
      g, params, EngineConfig{.capacity = capacity});
}

}  // namespace overlay
