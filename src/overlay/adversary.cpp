#include "overlay/adversary.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "graph/metrics.hpp"
#include "graph/mincut.hpp"
#include "overlay/churn.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t ClampShards(std::size_t shards, std::size_t n) {
  return std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(n, 1)));
}

/// One uniform 64-bit priority per node. Serial consumes `rng` in node
/// order; sharded splits one stream per contiguous chunk (chunk == shard
/// count, so the chunk→stream map is fixed by (seed, S)) and fills blocks
/// work-stealing — scheduling never changes who draws what.
std::vector<std::uint64_t> DrawPriorities(std::size_t n, std::size_t shards,
                                          ShardPool& pool, Rng& rng) {
  std::vector<std::uint64_t> pri(n);
  if (shards <= 1) {
    for (auto& p : pri) p = rng.Next();
  } else {
    std::vector<Rng> block_rng;
    block_rng.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) block_rng.push_back(rng.Split());
    RunDynamicBlocks(pool, n, shards, shards,
                     [&](std::size_t c, std::size_t lo, std::size_t hi) {
                       Rng& r = block_rng[c];
                       for (std::size_t v = lo; v < hi; ++v) pri[v] = r.Next();
                     });
  }
  return pri;
}

/// The `budget` eligible nodes with the smallest (priority, id) pairs,
/// ascending — uniform sampling without replacement with an exact count.
std::vector<NodeId> SmallestByPriority(const std::vector<std::uint64_t>& pri,
                                       std::size_t budget,
                                       const std::vector<char>* eligible) {
  std::vector<NodeId> ids;
  ids.reserve(pri.size());
  for (NodeId v = 0; v < pri.size(); ++v) {
    if (eligible == nullptr || (*eligible)[v]) ids.push_back(v);
  }
  if (budget >= ids.size()) return ids;
  std::nth_element(ids.begin(),
                   ids.begin() + static_cast<std::ptrdiff_t>(budget), ids.end(),
                   [&](NodeId a, NodeId b) {
                     return pri[a] < pri[b] || (pri[a] == pri[b] && a < b);
                   });
  ids.resize(budget);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---- oblivious -------------------------------------------------------------

class ObliviousStrike final : public StrikeStrategy {
 public:
  const char* name() const override { return "oblivious"; }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             Rng& rng) const override {
    const std::size_t n = g.num_nodes();
    const std::size_t budget = std::min(opts.budget, n);
    StrikeResult out;
    if (budget == 0) return out;
    const std::size_t shards = ClampShards(opts.exec.num_shards, n);
    const auto pri = DrawPriorities(n, shards, opts.exec.Pool(), rng);
    out.victims = SmallestByPriority(pri, budget, nullptr);
    return out;
  }
};

// ---- degree-targeted -------------------------------------------------------

class DegreeTargetedStrike final : public StrikeStrategy {
 public:
  const char* name() const override { return "degree"; }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             Rng& /*rng*/) const override {
    const std::size_t n = g.num_nodes();
    const std::size_t budget = std::min(opts.budget, n);
    StrikeResult out;
    if (budget == 0) return out;
    const auto by_degree = [&g](NodeId a, NodeId b) {
      const std::size_t da = g.Degree(a), db = g.Degree(b);
      return da > db || (da == db && a < b);
    };
    // Sharded top-k pass: each contiguous block keeps its own `budget` best
    // candidates (only a block-local winner can be a global winner), then a
    // serial merge selects the exact global top-k. Draws no randomness, so
    // the victim set is shard-count-invariant, not just deterministic.
    const std::size_t shards = ClampShards(opts.exec.num_shards, n);
    std::vector<std::vector<NodeId>> cand(shards);
    RunDynamicBlocks(
        opts.exec.Pool(), n, shards, shards,
        [&](std::size_t c, std::size_t lo, std::size_t hi) {
          auto& mine = cand[c];
          mine.resize(hi - lo);
          for (std::size_t v = lo; v < hi; ++v) {
            mine[v - lo] = static_cast<NodeId>(v);
          }
          const std::size_t keep = std::min(budget, mine.size());
          std::partial_sort(mine.begin(),
                            mine.begin() + static_cast<std::ptrdiff_t>(keep),
                            mine.end(), by_degree);
          mine.resize(keep);
        });
    std::vector<NodeId> merged;
    for (const auto& c : cand) {
      merged.insert(merged.end(), c.begin(), c.end());
    }
    if (merged.size() > budget) {
      std::nth_element(merged.begin(),
                       merged.begin() + static_cast<std::ptrdiff_t>(budget),
                       merged.end(), by_degree);
      merged.resize(budget);
    }
    std::sort(merged.begin(), merged.end());
    out.victims = std::move(merged);
    return out;
  }
};

// ---- cut-targeted ----------------------------------------------------------

/// One BFS-ball trial: grown node by node from `seed` up to `cap` nodes,
/// scoring *every visit-order prefix* by conductance (crossing edges over
/// the smaller side's volume — any prefix is a legitimate cut side, and
/// per-node scoring still finds a clique-shaped sweet spot when `cap`
/// truncates a level). `ball` is the prefix achieving `phi`.
struct BallTrial {
  double phi = std::numeric_limits<double>::infinity();
  std::vector<NodeId> ball;
};

BallTrial GrowBall(const Graph& g, NodeId seed, std::size_t cap) {
  BallTrial best;
  const std::size_t n = g.num_nodes();
  const std::uint64_t total_vol = 2ull * g.num_edges();
  std::vector<char> in_ball(n, 0);
  std::vector<NodeId> order;
  order.reserve(cap);
  std::uint64_t vol_in = 0;
  std::uint64_t internal = 0;
  std::size_t best_size = 0;
  const auto add_and_score = [&](NodeId w) {
    in_ball[w] = 1;
    order.push_back(w);
    vol_in += g.Degree(w);
    // Edges from w into the prefix so far; w is not its own neighbor.
    for (const NodeId x : g.Neighbors(w)) internal += in_ball[x];
    const std::uint64_t crossing = vol_in - 2 * internal;
    const std::uint64_t vol_out = total_vol - vol_in;
    const std::uint64_t denom = std::min(vol_in, vol_out);
    if (denom > 0) {
      const double phi =
          static_cast<double>(crossing) / static_cast<double>(denom);
      if (phi < best.phi) {
        best.phi = phi;
        best_size = order.size();
      }
    }
  };
  add_and_score(seed);
  std::vector<NodeId> frontier{seed};
  while (!frontier.empty() && order.size() < cap) {
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      for (const NodeId w : g.Neighbors(v)) {
        if (in_ball[w] || order.size() >= cap) continue;
        add_and_score(w);
        next.push_back(w);
      }
    }
    frontier = std::move(next);
  }
  best.ball.assign(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(best_size));
  return best;
}

class CutTargetedStrike final : public StrikeStrategy {
 public:
  const char* name() const override { return "cut"; }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             Rng& rng) const override {
    const std::size_t n = g.num_nodes();
    const std::size_t budget = std::min(opts.budget, n);
    StrikeResult out;
    if (budget == 0) return out;
    if (budget >= n) {
      out.victims.resize(n);
      for (NodeId v = 0; v < n; ++v) out.victims[v] = v;
      return out;
    }

    // Pick a low-conductance side: the exact Stoer–Wagner partition on
    // small overlays, a seeded BFS-ball conductance sweep above that. Ball
    // seeds are drawn serially from `rng` before the parallel sweep, and
    // each trial is a pure function of its seed node — so the sweep is
    // deterministic under work stealing.
    std::vector<char> side;
    if (n >= 2 && n <= opts.exact_cut_max_nodes && IsConnected(g)) {
      side = StoerWagnerMinCutSide(g).side;
    } else if (n >= 2) {
      const std::size_t trials = std::max<std::size_t>(1, opts.cut_trials);
      const std::size_t cap = std::max<std::size_t>(
          2, std::min(opts.cut_ball_cap, (n + 1) / 2));
      std::vector<NodeId> seeds(trials);
      for (auto& s : seeds) s = static_cast<NodeId>(rng.NextBelow(n));
      const std::size_t shards = ClampShards(opts.exec.num_shards, trials);
      std::vector<BallTrial> results(trials);
      RunDynamicBlocks(opts.exec.Pool(), trials, shards, trials,
                       [&](std::size_t c, std::size_t lo, std::size_t hi) {
                         for (std::size_t t = lo; t < hi; ++t) {
                           results[t] = GrowBall(g, seeds[t], cap);
                         }
                         (void)c;
                       });
      std::size_t best = trials;
      for (std::size_t t = 0; t < trials; ++t) {
        if (!results[t].ball.empty() &&
            (best == trials || results[t].phi < results[best].phi)) {
          best = t;
        }
      }
      if (best != trials) {
        side.assign(n, 0);
        for (const NodeId v : results[best].ball) side[v] = 1;
      }
    }

    // Victim ranking: the cut's inner boundary first (killing it severs
    // every crossing edge), then the rest of the marked side, then the
    // remaining graph — within each rank by (degree desc, id asc). The
    // budget takes the prefix. With no usable side (e.g. a complete graph)
    // this degrades to a pure degree-targeted strike.
    std::vector<char> rank(n, 2);
    if (!side.empty()) {
      out.cut_conductance = CutConductance(g, side);
      for (NodeId v = 0; v < n; ++v) {
        if (side[v]) rank[v] = 1;
      }
      for (const NodeId v : CutBoundaryNodes(g, side)) rank[v] = 0;
    }
    std::vector<NodeId> ids(n);
    for (NodeId v = 0; v < n; ++v) ids[v] = v;
    std::nth_element(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(budget),
                     ids.end(), [&](NodeId a, NodeId b) {
                       if (rank[a] != rank[b]) return rank[a] < rank[b];
                       const std::size_t da = g.Degree(a), db = g.Degree(b);
                       return da > db || (da == db && a < b);
                     });
    ids.resize(budget);
    std::sort(ids.begin(), ids.end());
    out.victims = std::move(ids);
    return out;
  }
};

// ---- drip-churn ------------------------------------------------------------

class DripChurnStrike final : public StrikeStrategy {
 public:
  const char* name() const override { return "drip"; }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             Rng& rng) const override {
    const std::size_t n = g.num_nodes();
    const std::size_t budget = std::min(opts.budget, n);
    StrikeResult out;
    if (budget == 0) return out;
    // Sustained attrition: the budget is split over sequential ticks, each
    // re-sampled uniformly among the *still-alive* nodes — the adversary
    // that never wastes a kill on a corpse and whose pressure arrives as a
    // steady drip rather than one blast. Each tick draws one priority per
    // node (dead ones are simply ineligible), so the RNG consumption is a
    // fixed function of (n, ticks, S).
    const std::size_t ticks =
        std::max<std::size_t>(1, std::min(opts.drip_ticks, budget));
    const std::size_t shards = ClampShards(opts.exec.num_shards, n);
    std::vector<char> alive(n, 1);
    out.victims.reserve(budget);
    for (std::size_t t = 0; t < ticks; ++t) {
      const std::size_t quota = budget / ticks + (t < budget % ticks ? 1 : 0);
      if (quota == 0) continue;
      const auto pri = DrawPriorities(n, shards, opts.exec.Pool(), rng);
      for (const NodeId v : SmallestByPriority(pri, quota, &alive)) {
        alive[v] = 0;
        out.victims.push_back(v);
      }
    }
    std::sort(out.victims.begin(), out.victims.end());
    return out;
  }
};

// ---- repair-frontier (adaptive) --------------------------------------------

class RepairFrontierStrike final : public StrikeStrategy {
 public:
  const char* name() const override { return "frontier"; }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             Rng& rng) const override {
    // No recovery telemetry yet: open with the degree-targeted blast (the
    // strongest static aim), which also keeps this path randomness-free.
    return DegreeTargetedStrike{}.SelectVictims(g, opts, rng);
  }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             const RecoveryState& recovery,
                             Rng& rng) const override {
    const std::size_t n = g.num_nodes();
    if (recovery.reattach_wave.size() != n || recovery.waves == 0) {
      return SelectVictims(g, opts, rng);
    }
    const std::size_t budget = std::min(opts.budget, n);
    StrikeResult out;
    if (budget == 0) return out;
    // The adversary watched the repair: it knows which nodes the patch
    // waves just re-attached (the frontier — wave ordinal descending, the
    // freshest wounds first) and which intact nodes border them (the wound
    // boundary the next repair must transmit from). Killing exactly those
    // nodes re-opens the wound the repair just closed. Randomness-free, so
    // the victim set is shard-count-invariant.
    std::vector<char> tier(n, 2);
    for (NodeId v = 0; v < n; ++v) {
      if (recovery.reattach_wave[v] > 0) tier[v] = 0;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (tier[v] != 0) continue;
      for (const NodeId w : g.Neighbors(v)) {
        if (tier[w] == 2) tier[w] = 1;
      }
    }
    std::vector<NodeId> ids(n);
    for (NodeId v = 0; v < n; ++v) ids[v] = v;
    const auto by_frontier = [&](NodeId a, NodeId b) {
      if (tier[a] != tier[b]) return tier[a] < tier[b];
      const std::uint32_t wa = recovery.reattach_wave[a];
      const std::uint32_t wb = recovery.reattach_wave[b];
      if (wa != wb) return wa > wb;
      const std::size_t da = g.Degree(a), db = g.Degree(b);
      return da > db || (da == db && a < b);
    };
    std::nth_element(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(budget),
                     ids.end(), by_frontier);
    ids.resize(budget);
    std::sort(ids.begin(), ids.end());
    out.victims = std::move(ids);
    return out;
  }
};

// ---- byzantine -------------------------------------------------------------

class ByzantineStrike final : public StrikeStrategy {
 public:
  const char* name() const override { return "byzantine"; }

  StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                             Rng& rng) const override {
    const std::size_t n = g.num_nodes();
    const std::size_t budget = std::min(opts.budget, n);
    StrikeResult out;
    if (budget == 0) return out;
    // The budget splits between kills and lies: liars stay alive and feed
    // corrupted (depth, parent) claims into the very repair their partners'
    // kills triggered — the strike shape the runtime defense exists for.
    // One priority draw serves both halves (kills take the smallest
    // (priority, id) pairs, liars the next smallest among survivors), so
    // the RNG consumption is a fixed function of (n, S).
    const double share = std::clamp(opts.byzantine_liar_share, 0.0, 1.0);
    const std::size_t liar_budget =
        static_cast<std::size_t>(static_cast<double>(budget) * share + 0.5);
    const std::size_t kill_budget = budget - liar_budget;
    const std::size_t shards = ClampShards(opts.exec.num_shards, n);
    const auto pri = DrawPriorities(n, shards, opts.exec.Pool(), rng);
    out.victims = SmallestByPriority(pri, kill_budget, nullptr);
    // Liars come from the survivors, minus the minimum surviving id: its
    // root identity is certified by the election, so lying there is wasted
    // budget (and the repair contract forbids it).
    std::vector<char> eligible(n, 1);
    for (const NodeId v : out.victims) eligible[v] = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (eligible[v]) {
        eligible[v] = 0;  // the minimum surviving id — the next root
        break;
      }
    }
    out.liars = SmallestByPriority(pri, liar_budget, &eligible);
    return out;
  }
};

}  // namespace

const char* StrikeKindName(StrikeKind kind) {
  switch (kind) {
    case StrikeKind::kOblivious:
      return "oblivious";
    case StrikeKind::kDegreeTargeted:
      return "degree";
    case StrikeKind::kCutTargeted:
      return "cut";
    case StrikeKind::kDrip:
      return "drip";
    case StrikeKind::kRepairFrontier:
      return "frontier";
    case StrikeKind::kByzantine:
      return "byzantine";
  }
  return "unknown";
}

std::unique_ptr<StrikeStrategy> MakeStrikeStrategy(StrikeKind kind) {
  switch (kind) {
    case StrikeKind::kOblivious:
      return std::make_unique<ObliviousStrike>();
    case StrikeKind::kDegreeTargeted:
      return std::make_unique<DegreeTargetedStrike>();
    case StrikeKind::kCutTargeted:
      return std::make_unique<CutTargetedStrike>();
    case StrikeKind::kDrip:
      return std::make_unique<DripChurnStrike>();
    case StrikeKind::kRepairFrontier:
      return std::make_unique<RepairFrontierStrike>();
    case StrikeKind::kByzantine:
      return std::make_unique<ByzantineStrike>();
  }
  OVERLAY_CHECK(false, "unknown strike kind");
  return nullptr;
}

ScenarioState BeginScenario(const Graph& start, const ScenarioOptions& opts) {
  OVERLAY_CHECK(start.num_nodes() >= 2, "scenario needs at least two nodes");
  OVERLAY_CHECK(opts.budget_fraction >= 0.0 && opts.budget_fraction <= 1.0,
                "budget fraction must be in [0, 1]");
  OVERLAY_CHECK(opts.strike_opts.exec.num_shards >= 1,
                "need at least one shard");
  for (const StrikePhase& p : opts.plan.phases) {
    OVERLAY_CHECK(p.budget_share >= 0.0, "phase budget share must be >= 0");
  }

  ScenarioState st;
  st.overlay = start;
  st.rng = Rng(opts.seed);
  // Repair chains off an existing tree, so the scenario enters epoch 0 with
  // the intact overlay's tree already built (the steady state a long-lived
  // network would be in). Rebuild mode reconstructs from scratch each epoch
  // and never reads it.
  if (opts.recovery == RecoveryMode::kRepair) {
    st.tree = BuildBfsTree(
        st.overlay, opts.engine,
        EngineConfig{.seed = opts.seed, .exec = opts.strike_opts.exec});
  }
  return st;
}

bool RunScenarioEpoch(ScenarioState& st, const StrikeStrategy& strategy,
                      const ScenarioOptions& opts, std::size_t epoch,
                      EpochStats& e) {
  OVERLAY_CHECK(!st.collapsed, "scenario already collapsed");
  const ExecPolicy& exec = opts.strike_opts.exec;

  e = EpochStats{};
  e.epoch = epoch;
  e.nodes_before = st.overlay.num_nodes();
  e.edges_before = st.overlay.num_edges();

  st.last_epoch_map.resize(e.nodes_before);
  for (NodeId i = 0; i < e.nodes_before; ++i) st.last_epoch_map[i] = i;

  // Epoch budget: the fixed strike budget, or the fraction of the *current*
  // overlay. A non-zero fraction always strikes at least one node — on a
  // tiny surviving overlay the rounding would otherwise hit 0 and stall the
  // scenario in no-op epochs instead of driving it to collapse.
  std::size_t budget = opts.strike_opts.budget;
  if (opts.budget_fraction > 0.0) {
    budget = static_cast<std::size_t>(
        opts.budget_fraction * static_cast<double>(e.nodes_before) + 0.5);
    if (budget == 0) budget = 1;
  }

  // Phase schedule: the classic epoch is a single full-budget phase. The
  // cumulative-rounding split hands phase i exactly
  // round(B·cum_i) − round(B·cum_{i−1}) victims, so the shares telescope to
  // exactly the epoch budget regardless of rounding.
  static const StrikePhase kClassicPhase{};
  std::span<const StrikePhase> phases(opts.plan.phases);
  if (phases.empty()) phases = std::span<const StrikePhase>(&kClassicPhase, 1);
  double total_share = 0.0;
  for (const StrikePhase& p : phases) total_share += p.budget_share;
  OVERLAY_CHECK(total_share > 0.0, "plan needs a positive total budget share");
  e.phases = phases.size();

  bool all_repaired = true;
  double cum_share = 0.0;
  std::size_t used = 0;
  for (std::size_t phase = 0; phase < phases.size(); ++phase) {
    cum_share += phases[phase].budget_share;
    const std::size_t cum_budget = static_cast<std::size_t>(
        static_cast<double>(budget) * (cum_share / total_share) + 0.5);
    const std::size_t phase_budget = cum_budget - used;
    used = cum_budget;
    if (phase_budget == 0 && phases.size() > 1) continue;

    StrikeOptions strike_opts = opts.strike_opts;
    strike_opts.budget = phase_budget;
    const auto t0 = std::chrono::steady_clock::now();
    const StrikeResult strike =
        strategy.SelectVictims(st.overlay, strike_opts, st.recovery, st.rng);
    const auto t1 = std::chrono::steady_clock::now();
    ChurnResult churn = ApplyStrike(st.overlay, strike.victims, exec);
    const auto t2 = std::chrono::steady_clock::now();

    e.killed += strike.victims.size();
    e.survivors = churn.survivors;
    e.num_components = churn.num_components;
    e.cohesion = churn.Cohesion();
    e.cut_conductance = std::max(e.cut_conductance, strike.cut_conductance);
    e.strike_seconds += Seconds(t0, t1);
    e.extract_seconds += Seconds(t1, t2);

    if (churn.component_global.size() < 2) {
      st.collapsed = true;
      return false;
    }

    // Compose this phase's re-indexing into the epoch map (post-phase local
    // id -> pre-epoch local id).
    {
      std::vector<NodeId> composed(churn.component_global.size());
      for (NodeId i = 0; i < churn.component_global.size(); ++i) {
        composed[i] = st.last_epoch_map[churn.component_global[i]];
      }
      st.last_epoch_map = std::move(composed);
    }

    // Map the strike's liars into the surviving component: dead and
    // out-of-component liars drop out, and so does a liar landing on local
    // id 0 — the re-elected root's identity is certified. component_global
    // ascends, so the mapped list stays ascending.
    std::vector<NodeId> liars;
    if (!strike.liars.empty()) {
      std::vector<NodeId> old_to_new(e.nodes_before, kInvalidNode);
      for (NodeId i = 0; i < churn.component_global.size(); ++i) {
        old_to_new[churn.component_global[i]] = i;
      }
      for (const NodeId l : strike.liars) {
        const NodeId m = old_to_new[l];
        if (m != kInvalidNode && m != 0) liars.push_back(m);
      }
    }
    e.liars += liars.size();

    // Recovery: incremental repair when asked (re-electing the root if it
    // died, quarantining liars), else the full rebuild flood. The rebuild
    // re-floods authenticated ids from scratch, so depth lies have nothing
    // to poison there — and it leaves no frontier telemetry behind.
    const auto t3 = std::chrono::steady_clock::now();
    bool repaired = false;
    if (opts.recovery == RecoveryMode::kRepair) {
      const std::uint64_t lie_seed =
          opts.seed + 0x517cc1b727220a95ULL * (epoch + 1) + phase;
      RepairResult rep = RepairBfsTree(
          churn.largest_component, st.tree, churn.component_global,
          {.exec = exec, .liars = liars, .lie_seed = lie_seed});
      e.orphans += rep.orphans;
      if (rep.repaired) {
        e.reattached += rep.reattached;
        e.quarantined += rep.quarantined.size();
        e.liars_accepted += rep.liars_accepted;
        e.root_reelected = e.root_reelected || rep.reelected;
        st.tree = std::move(rep.tree);
        st.recovery.reattach_wave = std::move(rep.reattach_wave);
        st.recovery.waves =
            static_cast<std::uint32_t>(st.tree.stats.rounds);
        repaired = true;
      }
    }
    if (!repaired) {
      st.tree = BuildBfsTree(
          churn.largest_component, opts.engine,
          EngineConfig{.seed = opts.seed + epoch + 1, .exec = exec});
      st.recovery = RecoveryState{};
      all_repaired = false;
    }
    const auto t4 = std::chrono::steady_clock::now();

    e.recovery_rounds += st.tree.stats.rounds;
    e.recovery_messages += st.tree.stats.messages_sent;
    e.recovery_seconds += Seconds(t3, t4);

    st.overlay = std::move(churn.largest_component);
  }

  e.repair_used = opts.recovery == RecoveryMode::kRepair && all_repaired;
  e.tree_height = st.tree.height;
  if (opts.measure_diameter) {
    e.diameter = ApproxDiameter(st.overlay, opts.diameter_sweeps);
  }
  e.tree_valid =
      !opts.validate_trees || ValidateBfsTree(st.overlay, st.tree);
  return true;
}

ScenarioResult RunAdversaryScenario(const Graph& start,
                                    const ScenarioOptions& opts) {
  return RunAdversaryScenario(start, *MakeStrikeStrategy(opts.strike), opts);
}

ScenarioResult RunAdversaryScenario(const Graph& start,
                                    const StrikeStrategy& strategy,
                                    const ScenarioOptions& opts) {
  OVERLAY_CHECK(opts.epochs >= 1, "need at least one epoch");
  ScenarioState st = BeginScenario(start, opts);

  ScenarioResult out;
  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    EpochStats e;
    const bool ok = RunScenarioEpoch(st, strategy, opts, epoch, e);
    out.epochs.push_back(e);
    if (!ok) {
      out.collapsed = true;
      break;
    }
  }
  out.overlay = std::move(st.overlay);
  out.tree = std::move(st.tree);
  return out;
}

}  // namespace overlay
