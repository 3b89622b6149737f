#include "overlay/bfs_tree.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/metrics.hpp"
#include "graph/partition.hpp"
#include "sim/async_network.hpp"
#include "sim/shard_pool.hpp"
#include "sim/sharded_network.hpp"

namespace overlay {

namespace {

constexpr std::uint32_t kBfsKind = 0x1u;

// The flood message is one O(log n)-bit word: (root, dist) packed into
// word0. NodeId is 32-bit and dist <= n, so the pack is always exact — and
// the whole protocol rides the engines' one-word fast path (no spill-arena
// traffic, 20 bytes per delivered message instead of 32).
std::uint64_t PackRootDist(NodeId root, std::uint32_t dist) {
  return (static_cast<std::uint64_t>(root) << 32) | dist;
}

}  // namespace

template <NetworkEngine Engine>
BfsTreeResult BuildBfsTree(const Graph& g, EngineConfig cfg) {
  const std::size_t n = g.num_nodes();
  OVERLAY_CHECK(n >= 1, "empty graph");
  OVERLAY_CHECK(IsConnected(g), "BFS tree requires a connected graph");

  if (cfg.capacity == 0) {
    cfg.capacity = std::max<std::size_t>(1, g.MaxDegree());
  }
  OVERLAY_CHECK(cfg.capacity >= g.MaxDegree(),
                "flooding needs capacity >= max degree");
  cfg.num_nodes = n;

  Engine net(cfg);

  // Node state: best root seen, distance to it, parent toward it.
  std::vector<NodeId> best_root(n);
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<char> changed(n, 1);
  for (NodeId v = 0; v < n; ++v) best_root[v] = v;

  // Round body for one node: adopt strictly better (root, dist) pairs from
  // the inbox, flood improvements. Touches only node-v state plus Send(v,·),
  // so it is exactly the shape ForEachNode/ForEachShard parallelize.
  // Returns whether v flooded this round.
  const auto node_round = [&](NodeId v) -> bool {
    for (const MessageView m : net.Inbox(v)) {
      const std::uint64_t packed = m.word0();
      const NodeId r = static_cast<NodeId>(packed >> 32);
      const auto d = static_cast<std::uint32_t>(packed) + 1;
      if (r < best_root[v] || (r == best_root[v] && d < dist[v])) {
        best_root[v] = r;
        dist[v] = d;
        parent[v] = m.src();
        changed[v] = 1;
      }
    }
    if (!changed[v]) return false;
    // One append for the whole flood: the neighbor span goes straight into
    // the engine's outbox columns.
    net.SendFanout(v, g.Neighbors(v), kBfsKind,
                   PackRootDist(best_root[v], dist[v]));
    changed[v] = 0;
    return true;
  };

  bool any_activity = true;
  while (any_activity) {
    any_activity = false;
    if constexpr (std::is_same_v<Engine, ShardedNetwork>) {
      // Sharded protocol compute: every shard drives its node range on its
      // pool worker. The body draws no randomness, so the result is
      // identical to the serial drive for every shard count.
      std::vector<char> shard_active(net.num_shards(), 0);
      net.ForEachShard([&](std::size_t s, NodeId lo, NodeId hi) {
        char active = 0;
        for (NodeId v = lo; v < hi; ++v) active |= node_round(v) ? 1 : 0;
        shard_active[s] = active;
      });
      for (const char a : shard_active) any_activity = any_activity || a != 0;
    } else {
      for (NodeId v = 0; v < n; ++v) {
        any_activity = node_round(v) || any_activity;
      }
    }
    net.EndRound();
    // Keep looping while deliveries are pending (inboxes filled by EndRound).
    for (NodeId v = 0; v < n && !any_activity; ++v) {
      if (!net.Inbox(v).empty()) any_activity = true;
    }
  }

  BfsTreeResult result;
  result.root = *std::min_element(best_root.begin(), best_root.end());
  OVERLAY_CHECK(result.root == 0 || best_root[0] == result.root,
                "election failed to converge");
  result.parent = std::move(parent);
  result.depth = std::move(dist);
  result.height = *std::max_element(result.depth.begin(), result.depth.end());
  result.stats = net.stats();
  result.arena_bytes_moved = net.arena_bytes_moved();
  return result;
}

template BfsTreeResult BuildBfsTree<SyncNetwork>(const Graph&, EngineConfig);
template BfsTreeResult BuildBfsTree<AsyncNetwork>(const Graph&, EngineConfig);
template BfsTreeResult BuildBfsTree<ShardedNetwork>(const Graph&,
                                                    EngineConfig);

BfsTreeResult BuildBfsTree(const Graph& g, std::size_t capacity,
                           std::uint64_t seed) {
  return BuildBfsTree<SyncNetwork>(
      g, EngineConfig{.capacity = capacity, .seed = seed});
}

BfsTreeResult BuildBfsTree(const Graph& g, EngineKind kind, EngineConfig cfg) {
  switch (kind) {
    case EngineKind::kAsync:
      return BuildBfsTree<AsyncNetwork>(g, cfg);
    case EngineKind::kSharded: {
      if (!cfg.exec.relabel) return BuildBfsTree<ShardedNetwork>(g, cfg);
      // Locality opt-in (ExecPolicy::relabel): build on the relabeled graph
      // so most flood messages stay shard-local, then map back through
      // old_of_new. Root and depths are bit-identical to the direct run —
      // the relabeling pins the minimum id, and hop distances are
      // id-invariant — while parents stay a valid BFS tree of `g` (which
      // exact parent a flood picks is arrival-order-dependent either way).
      const Relabeling r =
          RelabelFor(g, cfg.exec.ShardsFor(g.num_nodes()), cfg.seed);
      if (r.IsIdentity()) return BuildBfsTree<ShardedNetwork>(g, cfg);
      BfsTreeResult out =
          BuildBfsTree<ShardedNetwork>(ApplyRelabeling(g, r), cfg);
      out.root = r.old_of_new[out.root];
      out.parent = MapIdsBack(r, out.parent);
      out.depth = MapValuesBack<std::uint32_t>(r, out.depth);
      return out;
    }
    case EngineKind::kSync:
      break;
  }
  return BuildBfsTree<SyncNetwork>(g, cfg);
}

RepairResult RepairBfsTree(const Graph& g, const BfsTreeResult& old_tree,
                           std::span<const NodeId> new_to_old,
                           const RepairOptions& opts) {
  const std::size_t n = g.num_nodes();
  OVERLAY_CHECK(new_to_old.size() == n, "repair mapping size mismatch");

  RepairResult out;
  if (n == 0) return out;

  const std::size_t old_n = old_tree.parent.size();
  std::vector<NodeId> old_to_new(old_n, kInvalidNode);
  for (NodeId i = 0; i < n; ++i) {
    OVERLAY_CHECK(new_to_old[i] < old_n, "repair mapping target out of range");
    old_to_new[new_to_old[i]] = i;
  }
  // Root election: the repair keeps the old root when it survived into the
  // new overlay as the minimum id (local 0 — component ids ascend, so a
  // surviving minimum always lands there). When the old root died (or sits
  // in another component) the minimum-id survivor is re-elected
  // deterministically: old depths are anchored at the dead root and carry
  // no information about distances from the new one, so the whole component
  // re-layers from local 0 via the same frontier waves — still cheaper than
  // the rebuild flood, which additionally pays the every-node id election
  // storm and its quiescence rounds.
  const bool root_alive =
      old_tree.root < old_n && old_to_new[old_tree.root] == 0;
  out.reelected = !root_alive;

  // Map the old tree onto the survivors: provisional (parent, depth) per new
  // node; a dead or out-of-component parent maps to kInvalidNode.
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<std::uint32_t> depth(n, 0);
  std::uint32_t max_depth = 0;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId old = new_to_old[i];
    depth[i] = old_tree.depth[old];
    max_depth = std::max(max_depth, depth[i]);
    const NodeId p_old = old_tree.parent[old];
    parent[i] = p_old == kInvalidNode || p_old >= old_n ? kInvalidNode
                                                        : old_to_new[p_old];
  }

  std::vector<char> is_liar(n, 0);
  for (const NodeId l : opts.liars) {
    OVERLAY_CHECK(l < n, "liar id out of range");
    OVERLAY_CHECK(l != 0, "the minimum-id root's identity is certified — it "
                          "cannot be marked a liar");
    is_liar[l] = 1;
  }

  std::vector<char> intact(n, 0);
  std::vector<char> quarantined(n, 0);
  if (opts.liars.empty() && root_alive) {
    // Honest intact pass, ascending provisional depth (counting sort): a
    // node is intact iff it is the root or its mapped parent is intact —
    // i.e. its whole old root path survived. Intact depths are exact in g:
    // deletions only lengthen shortest paths, and the intact path still
    // achieves the old distance.
    std::vector<std::size_t> cursor(max_depth + 1, 0);
    for (NodeId i = 0; i < n; ++i) ++cursor[depth[i]];
    std::vector<std::size_t> start(max_depth + 2, 0);
    for (std::uint32_t d = 0; d <= max_depth; ++d) {
      start[d + 1] = start[d] + cursor[d];
    }
    std::vector<NodeId> by_depth(n);
    cursor.assign(start.begin(), start.end() - 1);
    for (NodeId i = 0; i < n; ++i) by_depth[cursor[depth[i]]++] = i;

    for (const NodeId i : by_depth) {
      if (i == 0) {
        intact[0] = depth[0] == 0;
        continue;
      }
      const NodeId p = parent[i];
      if (p != kInvalidNode && intact[p]) intact[i] = 1;
    }
  } else if (!opts.liars.empty()) {
    // Byzantine-defended intact pass. Every node broadcasts an advertised
    // (depth, parent) claim — honest nodes their mapped stored state, the
    // certified root its fresh (0, none) claim, liars a deterministic
    // corruption — and each claim is re-validated by the local consistency
    // checks ValidateBfsTree implies before anyone keeps its depth:
    //
    //   anchor      only local id 0 may claim depth 0 — ids are
    //               authenticated, so a root impostor is a provable lie;
    //   edge rule   a claimed parent must be an actual neighbor in g — an
    //               honest survivor's stored parent always is (tree edges
    //               live in the induced subgraph), so a phantom parent is a
    //               provable lie;
    //   arithmetic  a claim must be exactly one deeper than its *accepted*
    //               parent's claim — accepted claims are true (they chain
    //               to the certified root through consistent claims), and
    //               honest tree arithmetic never misses, so a mismatch
    //               against an accepted parent is a provable lie.
    //
    // Provable lies quarantine the claimer. A claim that merely fails to
    // chain (dead or unaccepted parent) demotes the claimer to an orphan —
    // it may be an honest victim of a liar upstream, so it is re-patched
    // around, never quarantined. Acceptance processes claims in ascending
    // (claimed depth, id) order, is randomness-free, and therefore replays
    // bit-identically at every shard count.
    std::vector<std::uint32_t> adv_depth = depth;
    std::vector<NodeId> adv_parent = parent;
    adv_depth[0] = 0;
    adv_parent[0] = kInvalidNode;
    for (const NodeId l : opts.liars) {
      std::uint64_t h_state =
          opts.lie_seed ^ (0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(new_to_old[l]) + 1));
      const std::uint64_t h = SplitMix64(h_state);
      std::uint32_t variant = static_cast<std::uint32_t>(h % 3);
      if (variant == 1) {
        // Phantom parent: keep the depth claim, name a non-neighbor.
        NodeId fake = kInvalidNode;
        for (NodeId x = 0; x < n; ++x) {
          if (x != l && !g.HasEdge(l, x)) {
            fake = x;
            break;
          }
        }
        if (fake != kInvalidNode) {
          adv_parent[l] = fake;
        } else {
          variant = 2;  // adjacent to everyone: fall through to the shear
        }
      }
      if (variant == 0) {
        // Root impostor: claim the anchor.
        adv_depth[l] = 0;
        adv_parent[l] = kInvalidNode;
      } else if (variant == 2) {
        // Depth shear: name a real neighbor but break the arithmetic.
        // Neighbor stored depths differ by at most 1, so +3 can never be
        // accidentally consistent with any accepted neighbor claim.
        NodeId p = adv_parent[l];
        if (p == kInvalidNode || !g.HasEdge(l, p)) p = g.Neighbors(l)[0];
        adv_parent[l] = p;
        adv_depth[l] = depth[l] + 3;
      }
    }

    // Provable-lie sweeps that need no chaining: anchor + edge rule.
    for (NodeId i = 1; i < n; ++i) {
      if (adv_depth[i] == 0) {
        quarantined[i] = 1;
      } else if (adv_parent[i] != kInvalidNode &&
                 !g.HasEdge(i, adv_parent[i])) {
        quarantined[i] = 1;
      }
    }

    // Acceptance: only meaningful while the old anchor stands — when the
    // root was re-elected no stored claim can chain to it, so every
    // non-root node is an orphan regardless of honesty.
    intact[0] = 1;
    if (root_alive) {
      std::uint32_t max_adv = 0;
      for (NodeId i = 0; i < n; ++i) max_adv = std::max(max_adv, adv_depth[i]);
      std::vector<std::size_t> cursor(max_adv + 1, 0);
      for (NodeId i = 0; i < n; ++i) ++cursor[adv_depth[i]];
      std::vector<std::size_t> start(max_adv + 2, 0);
      for (std::uint32_t d = 0; d <= max_adv; ++d) {
        start[d + 1] = start[d] + cursor[d];
      }
      std::vector<NodeId> by_adv(n);
      cursor.assign(start.begin(), start.end() - 1);
      for (NodeId i = 0; i < n; ++i) by_adv[cursor[adv_depth[i]]++] = i;

      for (const NodeId i : by_adv) {
        if (i == 0 || quarantined[i]) continue;
        const NodeId p = adv_parent[i];
        if (p == kInvalidNode) continue;  // honest orphan: parent died
        if (intact[p] && adv_depth[p] + 1 == adv_depth[i]) {
          intact[i] = 1;
        } else if (intact[p] && adv_depth[p] + 1 != adv_depth[i]) {
          quarantined[i] = 1;  // arithmetic rule against an accepted claim
        }
        // else: suspect (unaccepted parent) — demoted to orphan, no verdict.
      }
      // Accepted claims are true, so accepted depths are the stored exact
      // ones; adopt them (the advertised array, since accepted ⟹ adv ==
      // stored for every lie shape the synthesis emits).
      for (NodeId i = 0; i < n; ++i) {
        if (intact[i]) {
          depth[i] = adv_depth[i];
          parent[i] = adv_parent[i];
        }
        if (intact[i] && is_liar[i]) ++out.liars_accepted;
      }
    }
    for (NodeId i = 0; i < n; ++i) {
      if (quarantined[i]) out.quarantined.push_back(i);
    }
  } else {
    // Honest strike that killed the root: only the re-elected root anchors.
    intact[0] = 1;
  }
  if (out.reelected) {
    depth[0] = 0;
    parent[0] = kInvalidNode;
  }

  std::vector<NodeId> orphan_list;
  std::uint32_t max_patched = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (intact[i]) {
      max_patched = std::max(max_patched, depth[i]);
    } else {
      depth[i] = kUnset;
      parent[i] = kInvalidNode;
      orphan_list.push_back(i);
    }
  }
  out.orphans = orphan_list.size();

  // Frontier patching: multi-source layered BFS seeded by the intact nodes
  // at their (exact) depths. Wave d attaches every unpatched orphan with a
  // depth-d neighbor at depth d + 1, parent = the smallest-id such neighbor
  // (Neighbors() is ascending, so the first hit wins). The scan is
  // pull-style over the remaining-orphan list in work-stealing blocks: an
  // orphan reads only patched depths frozen before the wave and stages its
  // attachment per chunk, the merge applies chunks in index order — no
  // randomness, no cross-thread writes, bit-identical on every shard count.
  // Correctness: the last intact node u on a shortest root→v path is
  // followed by orphan-only nodes, so layering from the intact offsets
  // yields exact distances.
  const std::size_t shards = std::max<std::size_t>(1, opts.exec.num_shards);
  std::uint32_t waves = 0;
  out.reattach_wave.assign(n, 0);
  std::vector<NodeId> remaining = orphan_list;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> attach;
  for (std::uint32_t d = 0; !remaining.empty(); ++d) {
    if (d > max_patched) {
      // Unreachable orphans: g was not the connected component the contract
      // promises. Refuse the repair; the caller rebuilds.
      RepairResult refused;
      refused.orphans = out.orphans;
      return refused;
    }
    const std::size_t chunks =
        std::min(remaining.size(), shards * kStealChunksPerWorker);
    attach.assign(std::max<std::size_t>(chunks, 1), {});
    RunDynamicBlocks(opts.exec.Pool(), remaining.size(), shards, chunks,
                     [&](std::size_t c, std::size_t lo, std::size_t hi) {
                       auto& mine = attach[c];
                       for (std::size_t idx = lo; idx < hi; ++idx) {
                         const NodeId j = remaining[idx];
                         for (const NodeId w : g.Neighbors(j)) {
                           if (depth[w] == d) {
                             mine.emplace_back(j, w);
                             break;
                           }
                         }
                       }
                     });
    bool any = false;
    for (const auto& chunk : attach) {
      for (const auto& [j, p] : chunk) {
        parent[j] = p;
        depth[j] = d + 1;
        max_patched = std::max(max_patched, d + 1);
        out.reattach_wave[j] = waves + 1;
        ++out.reattached;
        any = true;
      }
    }
    if (!any) continue;
    ++waves;
    std::vector<NodeId> still;
    still.reserve(remaining.size());
    for (const NodeId j : remaining) {
      if (depth[j] == kUnset) still.push_back(j);
    }
    remaining = std::move(still);
  }

  // Cost model: every re-attached orphan floods its neighborhood once, and
  // so does every intact node on the wound boundary (they announce their
  // depths to start the waves). Nodes far from the wound stay silent — the
  // asymmetry that lets repair beat a full-overlay rebuild flood.
  std::uint64_t messages = 0;
  std::vector<NodeId> notifiers;
  for (const NodeId j : orphan_list) {
    messages += g.Degree(j);
    for (const NodeId w : g.Neighbors(j)) {
      if (intact[w]) notifiers.push_back(w);
    }
  }
  std::sort(notifiers.begin(), notifiers.end());
  notifiers.erase(std::unique(notifiers.begin(), notifiers.end()),
                  notifiers.end());
  for (const NodeId w : notifiers) messages += g.Degree(w);

  out.tree.root = 0;
  out.tree.parent = std::move(parent);
  out.tree.depth = std::move(depth);
  out.tree.height =
      *std::max_element(out.tree.depth.begin(), out.tree.depth.end());
  out.tree.stats.rounds = waves;
  out.tree.stats.messages_sent = messages;
  out.tree.stats.messages_delivered = messages;
  out.repaired = true;
  return out;
}

bool ValidateBfsTree(const Graph& g, const BfsTreeResult& r) {
  const std::size_t n = g.num_nodes();
  if (r.parent.size() != n || r.depth.size() != n) return false;
  // Root must be the global minimum id — with dense 0-based ids that is 0.
  NodeId min_id = 0;
  if (r.root != min_id) return false;
  if (r.parent[r.root] != kInvalidNode || r.depth[r.root] != 0) return false;
  const auto want = BfsDistances(g, r.root);
  for (NodeId v = 0; v < n; ++v) {
    if (r.depth[v] != want[v]) return false;
    if (v == r.root) continue;
    if (r.parent[v] == kInvalidNode) return false;
    if (!g.HasEdge(v, r.parent[v])) return false;
    if (r.depth[v] != r.depth[r.parent[v]] + 1) return false;
  }
  return true;
}

}  // namespace overlay
