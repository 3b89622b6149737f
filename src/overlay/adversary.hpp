// Adversarial strike subsystem + multi-epoch repair-vs-rebuild driver.
//
// The paper's robustness claim (Section 1.4) is probabilistic: under
// *oblivious* independent failures the logarithmic min cut keeps the overlay
// connected w.h.p. An adversary is the interesting stress: it aims kills at
// the structure instead of rolling dice. This module supplies
//
//   * StrikeStrategy — a pluggable victim-selection interface with four
//     built-ins: oblivious (uniform without replacement), degree-targeted
//     (the exact global top-k by degree, found by a sharded per-block top-k
//     pass + serial merge), cut-targeted (graph/mincut's exact Stoer–Wagner
//     side on small overlays, a conductance-guided BFS-ball sweep above
//     that; victims are the cut's inner boundary), and drip-churn (the
//     budget spread over sequential ticks re-sampled among the still-alive
//     — sustained attrition rather than one blast);
//   * RunAdversaryScenario — a multi-epoch driver alternating
//     strike → cohesion/diameter measurement → recovery, where recovery is
//     either the full BuildBfsTree rebuild flood or the incremental
//     RepairBfsTree frontier patching (falling back to rebuild when the
//     root died), emitting structured EpochStats per epoch.
//
// Determinism: every strike pass runs on ShardPool::RunDynamic over
// contiguous blocks with one split RNG stream per chunk — the chunk→stream
// map is fixed by (seed, num_shards), so a fixed (seed, S) replays
// bit-identically regardless of thread scheduling. Degree- and cut-targeted
// selection draw no per-node randomness at all (cut seeds are drawn
// serially before the parallel sweep), so their victim sets are also
// shard-count-invariant. Recovery inherits the engines' own determinism
// contracts (BFS flood is randomness-free; repair is pull-only).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "overlay/bfs_tree.hpp"
#include "sim/engine.hpp"

namespace overlay {

enum class StrikeKind {
  kOblivious,
  kDegreeTargeted,
  kCutTargeted,
  kDrip,
  /// Adaptive: re-aims at the repair frontier using the previous recovery's
  /// telemetry (latest-patched nodes first, then the wound boundary);
  /// degrades to the degree-targeted strike before any repair has run.
  kRepairFrontier,
  /// Byzantine: spends part of the budget marking surviving nodes as liars
  /// that inject corrupted (depth, parent) claims into the repair protocol
  /// instead of killing them (see RepairOptions::liars for the defense).
  kByzantine,
};

/// Stable lowercase name ("oblivious", "degree", "cut", "drip", "frontier",
/// "byzantine") — bench table keys and CLI values.
const char* StrikeKindName(StrikeKind kind);

struct StrikeOptions {
  /// Exact number of nodes to kill (clamped to the overlay size).
  std::size_t budget = 0;
  /// Execution context (shards double as the split-RNG chunk count for the
  /// selection passes; see ExecPolicy in sim/engine.hpp).
  ExecPolicy exec;
  /// Drip-churn: sequential re-sampled mini-strikes the budget is split
  /// into (clamped to [1, budget]).
  std::size_t drip_ticks = 4;
  /// Cut-targeted: BFS-ball seeds examined per strike.
  std::size_t cut_trials = 8;
  /// Cut-targeted: max ball volume (nodes) grown per trial.
  std::size_t cut_ball_cap = 4096;
  /// Cut-targeted: up to this many nodes the exact Stoer–Wagner side is
  /// used instead of the ball sweep (O(n³) — keep small).
  std::size_t exact_cut_max_nodes = 160;
  /// Byzantine: fraction of the budget spent marking liars rather than
  /// killing (the remainder kills uniformly). Liar candidates exclude the
  /// minimum surviving id — its root identity is certified by the election,
  /// so lying there is wasted budget.
  double byzantine_liar_share = 0.5;
};

struct StrikeResult {
  /// Victim ids, ascending, exactly min(budget, n) of them (the Byzantine
  /// strike spends part of its budget on liars instead).
  std::vector<NodeId> victims;
  /// Byzantine strike: surviving ids marked as liars (ascending, disjoint
  /// from victims). Empty for every other strategy.
  std::vector<NodeId> liars;
  /// Cut-targeted diagnostics: conductance of the chosen cut (0 elsewhere).
  double cut_conductance = 0.0;
};

/// Telemetry of the previous recovery that adaptive strategies re-aim with.
/// Ids are local to the overlay the next strike selects over (the repaired
/// component); empty/zero means "no repair observed yet" (fresh scenario or
/// a rebuild epoch, which re-floods everything and leaves no frontier).
struct RecoveryState {
  /// Active patch wave (1-based) that re-attached each node in the last
  /// repair; 0 = intact. Straight from RepairResult::reattach_wave.
  std::vector<std::uint32_t> reattach_wave;
  /// Waves the last repair ran — the frontier's wave ordinal.
  std::uint32_t waves = 0;
};

/// Pluggable victim-selection policy. Implementations must honor the budget
/// exactly and be deterministic for a fixed (rng state, num_shards).
class StrikeStrategy {
 public:
  virtual ~StrikeStrategy() = default;
  virtual const char* name() const = 0;
  virtual StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                                     Rng& rng) const = 0;
  /// Adaptive entry point: strategies that re-aim mid-epoch read the
  /// previous recovery's telemetry here. The default ignores it, so the
  /// classic strategies behave identically under the adaptive driver.
  virtual StrikeResult SelectVictims(const Graph& g, const StrikeOptions& opts,
                                     const RecoveryState& /*recovery*/,
                                     Rng& rng) const {
    return SelectVictims(g, opts, rng);
  }
};

/// Factory for the built-in strategies.
std::unique_ptr<StrikeStrategy> MakeStrikeStrategy(StrikeKind kind);

/// How an epoch recovers its BFS tree after the strike.
enum class RecoveryMode {
  kRebuild,  ///< full BuildBfsTree flood over the surviving component
  kRepair,   ///< incremental RepairBfsTree (falls back to rebuild when the
             ///< old root died or no tree exists yet)
};

/// One phase of a scheduled mid-epoch strike: the adversary lets the
/// epoch's recovery run, observes its telemetry, then spends
/// `budget_share` of the epoch budget re-aimed with what it saw.
/// `after_waves` records when in the recovery the phase logically fires
/// (the wave count the adversary watched before striking) — scheduling
/// metadata for the bench tables; phase 0 always fires pre-recovery.
struct StrikePhase {
  double budget_share = 1.0;
  std::uint32_t after_waves = 0;
};

/// Schedule of mid-epoch strike phases. Empty = the classic single-strike
/// epoch. With k phases, each epoch runs k strike → extract → recover
/// sub-steps; the epoch budget is split across phases proportionally to
/// budget_share (cumulative rounding, so the shares always sum to exactly
/// the epoch budget), and every phase after the first sees the previous
/// recovery's RecoveryState — the seam adaptive strategies re-aim through.
struct AdaptiveStrikePlan {
  std::vector<StrikePhase> phases;
};

struct ScenarioOptions {
  StrikeKind strike = StrikeKind::kOblivious;
  /// Per-epoch strike parameters; the ExecPolicy here also drives the
  /// recovery engine's shard count and the extraction passes.
  StrikeOptions strike_opts;
  /// When > 0, each epoch's budget is this fraction of the *current*
  /// overlay (rounded), overriding strike_opts.budget — the "kill x% per
  /// epoch" shape the multi-epoch benches sweep. Must be <= 1.
  double budget_fraction = 0.0;
  std::size_t epochs = 1;
  /// Mid-epoch strike schedule (see AdaptiveStrikePlan). Empty = classic.
  AdaptiveStrikePlan plan;
  RecoveryMode recovery = RecoveryMode::kRebuild;
  /// Engine the rebuild flood runs on (repair is engine-free compute).
  EngineKind engine = EngineKind::kSharded;
  std::uint64_t seed = 1;
  /// Measure the post-strike component's approximate diameter (double-sweep
  /// BFS) each epoch. Off by default — it is measurement, not protocol.
  bool measure_diameter = false;
  std::uint32_t diameter_sweeps = 2;
  /// Validate every epoch's tree against BFS distances (O(n + m) serial).
  bool validate_trees = true;
};

/// One epoch's structured record: what was killed, what held together, and
/// what recovery cost. Wall-clock fields are measurement-only — the
/// differential tests compare everything except them.
struct EpochStats {
  std::size_t epoch = 0;
  std::size_t nodes_before = 0;
  std::size_t edges_before = 0;
  std::size_t killed = 0;
  std::size_t survivors = 0;
  std::size_t num_components = 0;
  /// Largest-component share of the survivors (ChurnResult::Cohesion).
  double cohesion = 0.0;
  /// Approximate diameter of the surviving component (0 when unmeasured).
  std::uint32_t diameter = 0;
  /// Cut-targeted strikes: conductance of the attacked cut.
  double cut_conductance = 0.0;
  /// True when this epoch's recovery was an incremental repair (not a
  /// rebuild or a repair->rebuild fallback).
  bool repair_used = false;
  /// Orphans the repair pass saw / re-attached (0 on rebuild epochs).
  std::size_t orphans = 0;
  std::size_t reattached = 0;
  /// Recovery protocol cost: rounds (flood rounds or patch waves) and
  /// messages, straight from the recovery tree's NetworkStats.
  std::uint64_t recovery_rounds = 0;
  std::uint64_t recovery_messages = 0;
  std::uint32_t tree_height = 0;
  bool tree_valid = false;
  /// Strike phases the adaptive plan ran this epoch (1 = classic epoch).
  std::size_t phases = 1;
  /// Byzantine accounting: liars injected into this epoch's repairs (after
  /// mapping into the surviving component), liars the defense quarantined,
  /// and liars accepted as intact — undetected corruptions, must stay 0.
  std::size_t liars = 0;
  std::size_t quarantined = 0;
  std::size_t liars_accepted = 0;
  /// True when a repair this epoch re-elected the root (the old one died).
  bool root_reelected = false;
  double strike_seconds = 0.0;
  double extract_seconds = 0.0;
  double recovery_seconds = 0.0;
};

struct ScenarioResult {
  std::vector<EpochStats> epochs;
  /// The overlay after the last completed epoch (its largest component).
  Graph overlay;
  /// The recovery tree over `overlay` (empty if the scenario collapsed).
  BfsTreeResult tree;
  /// True when a strike left fewer than two connected survivors and the
  /// scenario stopped early (the final epoch record is still emitted).
  bool collapsed = false;
};

/// Persistent state the epoch-step driver threads between epochs — the
/// seam RunServiceScenario (overlay/service.hpp) uses to interleave
/// monitoring queries and well-formed-tree maintenance with the
/// strike/recovery loop.
struct ScenarioState {
  Graph overlay;
  BfsTreeResult tree;
  Rng rng{1};
  /// Last repair's telemetry (overlay-local ids) — what adaptive
  /// strategies re-aim with; cleared by rebuild epochs.
  RecoveryState recovery;
  /// Composed re-indexing of the last completed epoch: entry i maps node i
  /// of the post-epoch overlay to its id in the pre-epoch overlay (the
  /// composition of every phase's ChurnResult::component_global). The
  /// service layer remaps its well-formed tree and monitor caches through
  /// this. Identity before the first epoch.
  std::vector<NodeId> last_epoch_map;
  bool collapsed = false;
};

/// Validates `opts` against `start` and initializes the scenario state
/// (building the initial tree when recovery is kRepair, the steady state a
/// long-lived network enters an epoch in).
ScenarioState BeginScenario(const Graph& start, const ScenarioOptions& opts);

/// Runs one epoch — every phase of opts.plan — against `st`, writing its
/// record into `e`. Returns false when a strike left fewer than two
/// connected survivors (st.collapsed set; `e` still carries the fatal
/// epoch's record). Deterministic for fixed (opts.seed, shard count).
bool RunScenarioEpoch(ScenarioState& st, const StrikeStrategy& strategy,
                      const ScenarioOptions& opts, std::size_t epoch,
                      EpochStats& e);

/// Runs `opts.epochs` epochs of strike → measure → recover starting from
/// `start` (must be connected). Each epoch strikes the current overlay,
/// keeps the largest surviving component, recovers a BFS tree over it per
/// `opts.recovery`, and carries that component into the next epoch.
/// Deterministic for fixed (opts.seed, opts.strike_opts.exec.num_shards).
ScenarioResult RunAdversaryScenario(const Graph& start,
                                    const ScenarioOptions& opts);

/// Same, with a caller-supplied strategy (the pluggable seam).
ScenarioResult RunAdversaryScenario(const Graph& start,
                                    const StrikeStrategy& strategy,
                                    const ScenarioOptions& opts);

}  // namespace overlay
