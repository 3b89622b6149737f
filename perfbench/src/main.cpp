// Construction benchmark: Theorem 1.1 end to end, each layer timed from
// outside, and the sharded round engine under one BFS flood.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--op <i>]
//
// Workloads (perfbench/README.md has the why of each):
//   construct_line        ConstructWellFormedTree(Line(2^14)), S = 1
//   construct_regular_s2  ConstructWellFormedTree(ConnectedRandomRegular(
//                         2^13, 3)), a fresh graph per operation, S = 2
//   flood_regular_s2      BuildBfsTree on ShardedNetwork over one
//                         ConnectedRandomRegular(2^18, 3), S = 2
//
// A run derives a fixed list of per-operation seeds from --seed, sets up
// kSetups times (inputs, shard pool, one untimed warm-up operation) and
// then repeats whole rounds of that list until --seconds have passed. Every
// operation's output goes through checker.hpp; a failed check or a throw
// counts the operation as failed. --trace 1 replays each operation through
// the layers' public calls instead, with spans (trace.hpp) around each call,
// and reports per-layer numbers. Human-readable lines go to stderr; the last
// line of stdout is the JSON result.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/multigraph.hpp"
#include "overlay/benign.hpp"
#include "overlay/bfs_tree.hpp"
#include "overlay/construct.hpp"
#include "overlay/evolution.hpp"
#include "overlay/well_formed_tree.hpp"
#include "sim/shard_pool.hpp"
#include "sim/sharded_network.hpp"
#include "sim/token_engine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using overlay::BfsTreeResult;
using overlay::ConstructionResult;
using overlay::EngineConfig;
using overlay::EngineKind;
using overlay::ExecPolicy;
using overlay::ExpanderParams;
using overlay::Graph;
using overlay::kInvalidNode;
using overlay::Multigraph;
using overlay::NodeId;
using overlay::ShardPool;
using Clock = std::chrono::steady_clock;

/// Set-ups per timed run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Input of the flood workload's trace-only companion construction.
constexpr std::size_t kCompanionNodes = std::size_t{1} << 12;
/// Shards of the traced run's driven engine loop on every workload, so
/// every exchange phase (flush included, which S = 1 skips) has a reading.
/// Every set-up hoists the one pool worker this needs.
constexpr std::size_t kEngineShards = 2;

enum class Kind { kConstruct, kFlood };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t nodes;
  /// 0: the line; otherwise the degree of ConnectedRandomRegular.
  std::size_t degree;
  /// True: one input graph per operation; false: one graph for the run.
  bool graph_per_op;
  std::size_t shards;
  /// Operations per round: a run attempts whole rounds of this seed list.
  std::size_t ops_per_round;
};

constexpr Workload kWorkloads[] = {
    {"construct_line", Kind::kConstruct, std::size_t{1} << 14, 0, false, 1, 2},
    {"construct_regular_s2", Kind::kConstruct, std::size_t{1} << 13, 3, true,
     2, 2},
    {"flood_regular_s2", Kind::kFlood, std::size_t{1} << 18, 3, false, 2, 4},
};

// ---- seeds ----

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of stream `stream` under workload seed `seed`. Streams: i = the
/// algorithm (or engine) seed of operation i, 1000 + i = its input graph
/// (the run's one graph is stream 1000), 2000 / 2001 = the companion's
/// graph / algorithm. Operation index ops_per_round is the warm-up.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t stream) {
  return Mix(seed ^ Mix(stream));
}

// ---- small helpers ----

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- inputs ----

struct Inputs {
  std::unique_ptr<ShardPool> pool;
  ExecPolicy exec;
  std::vector<Graph> graphs;         ///< one, or one per operation
  std::vector<std::uint64_t> seeds;  ///< per operation; the last is warm-up

  const Graph& GraphOf(std::size_t i) const {
    return graphs[graphs.size() == 1 ? 0 : i];
  }
};

Graph MakeGraph(const Workload& w, std::uint64_t seed) {
  return w.degree == 0
             ? overlay::gen::Line(w.nodes)
             : overlay::gen::ConnectedRandomRegular(w.nodes, w.degree, seed);
}

/// Gives every thread of the process but the caller a CPU of its own and
/// keeps the caller off those CPUs. Unpinned, an S = 2 run on a 4-CPU box
/// is bimodal: in some processes the scheduler keeps the caller and the
/// pool worker on one CPU, where they take turns, and every flood takes
/// ~900 ms instead of ~430 ms (README, "Thread placement").
void PinWorkers() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  const pid_t self = getpid();  // the main thread's id
  std::vector<pid_t> workers;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    const auto tid = static_cast<pid_t>(std::stol(e.path().filename().string()));
    if (tid != self) workers.push_back(tid);
  }
  if (workers.empty() || workers.size() >= cpus.size()) return;
  cpu_set_t rest = allowed;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const int cpu = cpus[cpus.size() - 1 - i];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    CPU_CLR(cpu, &rest);
    if (sched_setaffinity(workers[i], sizeof(one), &one) != 0) {
      std::fprintf(stderr, "warning: cannot pin thread %d\n", workers[i]);
    }
  }
  if (sched_setaffinity(0, sizeof(rest), &rest) != 0) {
    std::fprintf(stderr, "warning: cannot pin the main thread\n");
  }
}

Inputs Setup(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.pool = std::make_unique<ShardPool>(kEngineShards - 1);
  PinWorkers();
  in.exec = ExecPolicy{.num_shards = w.shards, .pool = in.pool.get()};
  const std::size_t ops = w.ops_per_round + 1;
  for (std::size_t i = 0; i < ops; ++i) in.seeds.push_back(Derive(seed, i));
  if (w.graph_per_op) {
    for (std::size_t i = 0; i < ops; ++i) {
      in.graphs.push_back(MakeGraph(w, Derive(seed, 1000 + i)));
    }
  } else {
    in.graphs.push_back(MakeGraph(w, Derive(seed, 1000)));
  }
  return in;
}

ExpanderParams ParamsFor(const Graph& g, std::uint64_t seed,
                         const ExecPolicy& exec) {
  ExpanderParams p = ExpanderParams::ForSize(
      g.num_nodes(), std::max<std::size_t>(1, g.MaxDegree()), seed);
  p.exec = exec;
  return p;
}

EngineConfig FloodConfig(std::uint64_t seed, const ExecPolicy& exec) {
  return EngineConfig{.capacity = 0, .seed = seed, .exec = exec};
}

std::string CheckConstruction(const ConstructionResult& r, const Graph& g,
                              const ExpanderParams& p) {
  std::string e = CheckWellFormedTree(r.tree, g.num_nodes());
  if (!e.empty()) return "tree: " + e;
  e = CheckExpander(r.expander, g.num_nodes(), p.delta);
  if (!e.empty()) return "expander: " + e;
  e = CheckExpanderRounds(r.report.expander_rounds, p);
  if (!e.empty()) return "expander: " + e;
  return {};
}

// ---- one timed operation ----

struct OpResult {
  double ms = 0;
  std::uint64_t rounds = 0;
  std::uint64_t msgs = 0;
  std::string error;  ///< empty when every check passed
};

OpResult RunOp(const Workload& w, const Inputs& in, std::size_t i) {
  OpResult out;
  const Graph& g = in.GraphOf(i);
  if (w.kind == Kind::kConstruct) {
    const ExpanderParams p = ParamsFor(g, in.seeds[i], in.exec);
    const auto t0 = Clock::now();
    const ConstructionResult r = overlay::ConstructWellFormedTree(g, p);
    out.ms = MsSince(t0);
    out.rounds = r.report.TotalRounds();
    out.msgs = r.report.total_messages;
    out.error = CheckConstruction(r, g, p);
  } else {
    const auto t0 = Clock::now();
    const BfsTreeResult r = overlay::BuildBfsTree(
        g, EngineKind::kSharded, FloodConfig(in.seeds[i], in.exec));
    out.ms = MsSince(t0);
    out.rounds = r.stats.rounds;
    out.msgs = r.stats.messages_delivered;
    out.error = CheckFlood(g, r.root, r.parent, r.depth);
  }
  return out;
}

// ---- traced replay ----

using Sample = std::map<std::string, double>;

/// Per-layer metrics of the traced run, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"token_engine.ms", "ms"},
    {"token_engine.steps_per_s", "1/s"},
    {"token_engine.first_evo_ms", "ms"},
    {"token_engine.last_evo_ms", "ms"},
    {"token_engine.max_load_ratio", "ratio"},
    {"evolution.ms", "ms"},
    {"evolution.discard_ratio", "ratio"},
    {"benign.ms", "ms"},
    {"multigraph.to_simple_ms", "ms"},
    {"bfs_tree.ms", "ms"},
    {"bfs_tree.rounds", "count"},
    {"bfs_tree.msgs_per_s", "1/s"},
    {"bfs_tree.arena_bytes_per_msg", "B/msg"},
    {"well_formed_tree.ms", "ms"},
    {"sharded_network.send_ms", "ms"},
    {"sharded_network.end_round_ms", "ms"},
    {"sharded_network.flush_ms", "ms"},
    {"sharded_network.deliver_ms", "ms"},
    {"sharded_network.barrier_ms", "ms"},
    {"trace.op_ms", "ms"},
    {"trace.unaccounted_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// Outcome of one traced operation: `error` fails the operation;
/// `mismatch` means the replay does not reproduce the pipeline, so the
/// layer split would describe something else (the run is not correct).
struct TraceResult {
  std::string error;
  std::string mismatch;
};

void BfsLayer(const BfsTreeResult& bfs, double ms, Sample& m) {
  const double delivered =
      static_cast<double>(std::max<std::uint64_t>(1, bfs.stats.messages_delivered));
  m["bfs_tree.ms"] = ms;
  m["bfs_tree.rounds"] = static_cast<double>(bfs.stats.rounds);
  m["bfs_tree.msgs_per_s"] = delivered / (ms / 1e3);
  m["bfs_tree.arena_bytes_per_msg"] =
      static_cast<double>(bfs.arena_bytes_moved) / delivered;
}

/// The election + BFS flood of BuildBfsTree, driven by the benchmark round
/// by round on a ShardedNetwork: ForEachShard sends, then EndRound, each in
/// its own span under span `span` (engine set-up and the quiescence scans
/// are that span's self time). Returns the tree it built.
BfsTreeResult DrivenFlood(const Graph& g, const ExecPolicy& exec,
                          std::uint64_t seed, const char* span_name,
                          Tracer& tr, int op, Sample& m, int& span) {
  span = tr.Begin(span_name, -1, op);
  const std::size_t n = g.num_nodes();
  overlay::ShardedNetwork net(EngineConfig{
      .num_nodes = n,
      .capacity = std::max<std::size_t>(1, g.MaxDegree()),
      .seed = seed,
      .exec = exec});
  std::vector<NodeId> best_root(n);
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<char> changed(n, 1);
  for (NodeId v = 0; v < n; ++v) best_root[v] = v;

  const auto node_round = [&](NodeId v) {
    for (const overlay::MessageView msg : net.Inbox(v)) {
      const std::uint64_t packed = msg.word0();
      const auto r = static_cast<NodeId>(packed >> 32);
      const auto d = static_cast<std::uint32_t>(packed) + 1;
      if (r < best_root[v] || (r == best_root[v] && d < dist[v])) {
        best_root[v] = r;
        dist[v] = d;
        parent[v] = msg.src();
        changed[v] = 1;
      }
    }
    if (!changed[v]) return false;
    net.SendFanout(v, g.Neighbors(v), /*kind=*/1,
                   (static_cast<std::uint64_t>(best_root[v]) << 32) | dist[v]);
    changed[v] = 0;
    return true;
  };

  double send_ms = 0;
  double end_round_ms = 0;
  bool active = true;
  std::vector<char> shard_active(net.num_shards(), 0);
  while (active) {
    int s = tr.Begin("sharded_network.send", span, op);
    net.ForEachShard([&](std::size_t sh, NodeId lo, NodeId hi) {
      char a = 0;
      for (NodeId v = lo; v < hi; ++v) a |= node_round(v) ? 1 : 0;
      shard_active[sh] = a;
    });
    send_ms += tr.End(s);
    active = std::any_of(shard_active.begin(), shard_active.end(),
                         [](char a) { return a != 0; });
    s = tr.Begin("sharded_network.end_round", span, op);
    net.EndRound();
    end_round_ms += tr.End(s);
    for (NodeId v = 0; v < n && !active; ++v) {
      if (!net.Inbox(v).empty()) active = true;
    }
  }
  tr.End(span);

  m["sharded_network.send_ms"] = send_ms;
  m["sharded_network.end_round_ms"] = end_round_ms;
  m["sharded_network.flush_ms"] = net.exchange_flush_seconds() * 1e3;
  m["sharded_network.deliver_ms"] = net.exchange_deliver_seconds() * 1e3;
  m["sharded_network.barrier_ms"] = net.exchange_barrier_seconds() * 1e3;

  BfsTreeResult out;
  out.root = *std::min_element(best_root.begin(), best_root.end());
  out.parent = std::move(parent);
  out.depth = std::move(dist);
  out.stats = net.stats();
  return out;
}

bool SameTree(const overlay::WellFormedTree& a,
              const overlay::WellFormedTree& b) {
  return a.root == b.root && a.parent == b.parent &&
         a.left_child == b.left_child && a.right_child == b.right_child;
}

/// One construction, traced: the real ConstructWellFormedTree as the
/// reference, then the same pipeline replayed call by call (construct.cpp
/// and create_expander.cpp spelled out), then — when `drive_engine` — the
/// benchmark-driven flood over the expander at kEngineShards for the engine
/// phases.
TraceResult TraceConstruction(const Graph& g, const ExpanderParams& p,
                              bool drive_engine, Tracer& tr, int op,
                              Sample& m) {
  TraceResult res;
  const int ref = tr.Begin("reference.ConstructWellFormedTree", -1, op);
  const ConstructionResult want = overlay::ConstructWellFormedTree(g, p);
  const double ref_ms = tr.End(ref);
  res.error = CheckConstruction(want, g, p);
  if (!res.error.empty()) return res;

  const int root = tr.Begin("construct", -1, op);
  if (!overlay::IsConnected(g)) {
    res.error = "input is disconnected";
    return res;
  }
  int s = tr.Begin("benign.MakeBenign", root, op);
  const Multigraph g0 = overlay::MakeBenign(g, p);
  m["benign.ms"] = tr.End(s);

  overlay::TokenWalkOptions walk_opts;
  walk_opts.tokens_per_node = p.TokensPerNode();
  walk_opts.walk_length = p.walk_length;
  walk_opts.record_paths = p.record_paths;
  walk_opts.exec = p.exec;
  overlay::Rng rng(p.seed);
  Multigraph cur = g0;
  double walk_ms = 0;
  double evo_self_ms = 0;
  double first_walk_ms = 0;
  double last_walk_ms = 0;
  std::uint64_t steps = 0;
  std::uint64_t discarded = 0;
  std::uint64_t max_load = 0;
  for (std::size_t i = 0; i < p.num_evolutions; ++i) {
    // The walks again, on a copy of the evolution's RNG stream: the same
    // walks RunEvolution is about to make, timed on their own.
    overlay::Rng copy = rng;
    s = tr.Begin("token_engine.RunTokenWalks", root, op, /*replayed=*/true);
    std::uint64_t walk_steps = 0;
    std::uint64_t walk_load = 0;
    {
      const overlay::TokenWalkResult walks =
          overlay::RunTokenWalks(cur, walk_opts, copy);
      walk_steps = walks.token_steps;
      walk_load = walks.max_load;
    }
    const double w_ms = tr.End(s);
    s = tr.Begin("evolution.RunEvolution", root, op);
    overlay::EvolutionResult evo = overlay::RunEvolution(cur, p, rng);
    const double e_ms = tr.End(s);
    if (evo.telemetry.token_steps != walk_steps ||
        evo.telemetry.max_token_load != walk_load) {
      res.mismatch = "replayed walks differ from evolution " + std::to_string(i);
    }
    if (i == 0) first_walk_ms = w_ms;
    last_walk_ms = w_ms;
    walk_ms += w_ms;
    evo_self_ms += e_ms - w_ms;
    steps += walk_steps;
    discarded += evo.telemetry.tokens_discarded;
    max_load = std::max(max_load, walk_load);
    cur = std::move(evo.next);
  }
  s = tr.Begin("multigraph.ToSimpleGraph", root, op);
  const Graph expander = cur.ToSimpleGraph();
  m["multigraph.to_simple_ms"] = tr.End(s);
  if (!overlay::IsConnected(expander)) {
    res.error = "replayed expander is disconnected";
    return res;
  }
  const std::uint64_t bfs_seed = p.seed ^ 0xb5f5ULL;
  s = tr.Begin("bfs_tree.BuildBfsTree", root, op);
  const BfsTreeResult bfs =
      p.exec.num_shards > 1
          ? overlay::BuildBfsTree(expander, EngineKind::kSharded,
                                  FloodConfig(bfs_seed, p.exec))
          : overlay::BuildBfsTree(expander, /*capacity=*/0, bfs_seed);
  BfsLayer(bfs, tr.End(s), m);
  s = tr.Begin("well_formed_tree.ContractToWellFormedTree", root, op);
  const overlay::WellFormedTree tree = overlay::ContractToWellFormedTree(bfs);
  m["well_formed_tree.ms"] = tr.End(s);
  tr.End(root);

  const double launched = static_cast<double>(g.num_nodes()) *
                          static_cast<double>(p.TokensPerNode()) *
                          static_cast<double>(p.num_evolutions);
  m["token_engine.ms"] = walk_ms;
  m["token_engine.steps_per_s"] = static_cast<double>(steps) / (walk_ms / 1e3);
  m["token_engine.first_evo_ms"] = first_walk_ms;
  m["token_engine.last_evo_ms"] = last_walk_ms;
  m["token_engine.max_load_ratio"] =
      static_cast<double>(max_load) / static_cast<double>(p.AcceptBound());
  m["evolution.ms"] = evo_self_ms;
  m["evolution.discard_ratio"] = static_cast<double>(discarded) / launched;
  m["trace.op_ms"] = tr.OwnMs(root);
  m["trace.unaccounted_ms"] = tr.SelfMs(root);
  m["trace.overhead_ms"] = tr.OwnMs(root) - ref_ms;
  if (!SameTree(tree, want.tree)) {
    res.mismatch = "replayed tree differs from ConstructWellFormedTree's";
  }

  if (drive_engine) {
    int span = -1;
    const ExecPolicy engine_exec{.num_shards = kEngineShards,
                                 .pool = p.exec.pool};
    const BfsTreeResult driven = DrivenFlood(
        expander, engine_exec, bfs_seed, "engine_loop", tr, op, m, span);
    res.error = CheckFlood(expander, driven.root, driven.parent, driven.depth);
  }
  return res;
}

/// One flood, traced: BuildBfsTree as the reference (the bfs_tree layer),
/// then the same flood driven round by round for the engine phases.
TraceResult TraceFlood(const Graph& g, std::uint64_t seed,
                       const ExecPolicy& exec, Tracer& tr, int op, Sample& m) {
  TraceResult res;
  const int ref = tr.Begin("bfs_tree.BuildBfsTree", -1, op);
  const BfsTreeResult want =
      overlay::BuildBfsTree(g, EngineKind::kSharded, FloodConfig(seed, exec));
  const double ref_ms = tr.End(ref);
  BfsLayer(want, ref_ms, m);
  res.error = CheckFlood(g, want.root, want.parent, want.depth);
  if (!res.error.empty()) return res;

  int span = -1;
  const BfsTreeResult got =
      DrivenFlood(g, exec, seed, "flood", tr, op, m, span);
  m["trace.op_ms"] = tr.OwnMs(span);
  m["trace.unaccounted_ms"] = tr.SelfMs(span);
  m["trace.overhead_ms"] = tr.OwnMs(span) - ref_ms;
  if (got.root != want.root || got.parent != want.parent ||
      got.depth != want.depth || got.stats != want.stats) {
    res.mismatch = "driven flood differs from BuildBfsTree";
  }
  return res;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = -1;
  int trace = -1;
  std::optional<std::size_t> only_op;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--op") {
      a.only_op = std::strtoull(v, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seed && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

void ReportFailure(const Workload& w, const Args& a, const std::string& what,
                   const std::string& why) {
  std::fprintf(stderr, "FAILED %s --seed %llu %s: %s\n", w.name,
               static_cast<unsigned long long>(*a.seed), what.c_str(),
               why.c_str());
}

/// How to rerun one operation by itself, printed once after any failure.
void PrintReplayHint(const Workload& w, const Args& a) {
  std::fprintf(stderr,
               "replay one operation: python3 perfbench/run.py --workload %s "
               "--seed %llu --seconds 1 --trace %d --op <i>\n",
               w.name, static_cast<unsigned long long>(*a.seed), a.trace);
}

std::string OpLabel(std::size_t i) { return "--op " + std::to_string(i); }

// ---- the two run modes ----

int RunTimed(const Workload& w, const Args& a) {
  bool correct = true;
  std::vector<double> setup_s;
  Inputs in;
  const std::size_t setups = a.only_op ? 1 : kSetups;
  for (std::size_t k = 0; k < setups; ++k) {
    in = Inputs{};  // the previous set-up's pool and inputs go first
    const auto t0 = Clock::now();
    in = Setup(w, *a.seed);
    if (!a.only_op) {
      try {
        const OpResult warm = RunOp(w, in, w.ops_per_round);
        if (!warm.error.empty()) throw std::runtime_error(warm.error);
      } catch (const std::exception& e) {
        ReportFailure(w, a, "warm-up", e.what());
        correct = false;
      }
    }
    setup_s.push_back(MsSince(t0) / 1e3);
  }

  std::vector<double> op_ms;
  std::vector<double> rounds;
  std::vector<double> msgs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < w.ops_per_round; ++i) {
      if (a.only_op && i != *a.only_op) continue;
      ++attempted;
      try {
        const OpResult r = RunOp(w, in, i);
        if (!r.error.empty()) throw std::runtime_error(r.error);
        op_ms.push_back(r.ms);
        rounds.push_back(static_cast<double>(r.rounds));
        msgs.push_back(static_cast<double>(r.msgs));
        std::fprintf(stderr, "op %zu: %.1f ms, %llu rounds, %llu msgs\n", i,
                     r.ms, static_cast<unsigned long long>(r.rounds),
                     static_cast<unsigned long long>(r.msgs));
      } catch (const std::exception& e) {
        ++failed;
        ReportFailure(w, a, OpLabel(i), e.what());
      }
    }
  } while (!a.only_op && MsSince(t0) < a.seconds * 1e3);

  if (failed > 0) PrintReplayHint(w, a);
  PrintResult(correct && attempted > 0, attempted, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"op_p50_ms", Median(op_ms), "ms"},
               {"peak_rss_mb", PeakRssMb(), "MB"},
               {"rounds_per_op", Median(rounds), "count"},
               {"msgs_per_op", Median(msgs), "count"}});
  return 0;
}

int RunTraced(const Workload& w, const Args& a) {
  bool correct = true;
  Inputs in = Setup(w, *a.seed);
  Tracer tr;
  std::map<std::string, std::vector<double>> samples;
  const auto keep = [&](const Sample& m, const std::string& only_prefix) {
    for (const auto& [k, v] : m) {
      if (only_prefix.empty() || k.rfind(only_prefix, 0) == 0) {
        samples[k].push_back(v);
      }
    }
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int op = 0;
  const auto run_one = [&](const std::function<TraceResult(Sample&)>& body,
                           const std::string& what,
                           const std::vector<std::string>& keys) {
    ++attempted;
    try {
      Sample m;
      const TraceResult r = body(m);
      if (!r.mismatch.empty()) {
        std::fprintf(stderr, "REPLAY MISMATCH %s: %s\n", what.c_str(),
                     r.mismatch.c_str());
        correct = false;
      }
      if (!r.error.empty()) throw std::runtime_error(r.error);
      for (const std::string& k : keys) keep(m, k);
    } catch (const std::exception& e) {
      ++failed;
      ReportFailure(w, a, what, e.what());
    }
    ++op;
  };

  // The flood runs no construction; its construction-layer numbers come
  // from one small companion construction on the same engine settings.
  if (w.kind == Kind::kFlood) {
    const Graph cg = overlay::gen::ConnectedRandomRegular(
        kCompanionNodes, w.degree, Derive(*a.seed, 2000));
    const ExpanderParams cp = ParamsFor(cg, Derive(*a.seed, 2001), in.exec);
    run_one(
        [&](Sample& m) {
          return TraceConstruction(cg, cp, /*drive_engine=*/false, tr, op, m);
        },
        "companion construction",
        {"token_engine.", "evolution.", "benign.", "multigraph.",
         "well_formed_tree."});
  }

  // Warm-up, untraced.
  try {
    const OpResult warm = RunOp(w, in, w.ops_per_round);
    if (!warm.error.empty()) throw std::runtime_error(warm.error);
  } catch (const std::exception& e) {
    ReportFailure(w, a, "warm-up", e.what());
    correct = false;
  }

  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < w.ops_per_round; ++i) {
      if (a.only_op && i != *a.only_op) continue;
      const Graph& g = in.GraphOf(i);
      if (w.kind == Kind::kConstruct) {
        const ExpanderParams p = ParamsFor(g, in.seeds[i], in.exec);
        run_one(
            [&](Sample& m) {
              return TraceConstruction(g, p, /*drive_engine=*/true, tr, op, m);
            },
            OpLabel(i), {""});
      } else {
        run_one(
            [&](Sample& m) {
              return TraceFlood(g, in.seeds[i], in.exec, tr, op, m);
            },
            OpLabel(i), {""});
      }
    }
  } while (!a.only_op && MsSince(t0) < a.seconds * 1e3);

  // Self time per layer, summed over the run.
  std::fprintf(stderr, "self time per span name (ms, whole run):\n");
  for (const auto& [name, ms] : tr.SelfMsByName()) {
    std::fprintf(stderr, "  %-44s %12.2f\n", name.c_str(), ms);
  }
  const std::string dir = ".bench_build/traces";
  const std::string path =
      dir + "/" + w.name + "-" + std::to_string(*a.seed) + ".json";
  std::filesystem::create_directories(dir);
  if (tr.Write(path)) {
    std::fprintf(stderr, "trace: %s (%zu spans)\n", path.c_str(),
                 tr.spans().size());
  } else {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    correct = false;
  }

  if (failed > 0) PrintReplayHint(w, a);
  std::vector<Metric> metrics;
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = samples.find(lm.name);
    if (it == samples.end()) correct = false;
    metrics.push_back({lm.name, it == samples.end() ? 0.0 : Median(it->second),
                       lm.unit});
  }
  PrintResult(correct && attempted > 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--op <i>]\n",
                 argv[0]);
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (a.workload != w.name) continue;
    if (a.only_op && *a.only_op >= w.ops_per_round) {
      std::fprintf(stderr, "--op must be below %zu\n", w.ops_per_round);
      return 2;
    }
    return a.trace == 1 ? RunTraced(w, a) : RunTimed(w, a);
  }
  std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
  return 2;
}
