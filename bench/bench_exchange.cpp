// Run-packed multi-shard exchange: isolated phase timings + staged bytes/row.
//
// The S>1 exchange is the bottleneck of the sharded engine: every
// message crosses from its source shard's outbox to its destination shard's
// arena through a staging hop. This bench isolates that hop. The workload is
// bench_parallel_scaling's hash-driven drive (every node sends `cap` one-word
// messages per round to hash-picked destinations), but the table splits each
// round into its phases:
//
//   send_sec    — the drive loop (ForEachNode enqueue onto shard outboxes)
//   flush_sec   — phase 1: outbox -> 24-byte PackedRow staging runs
//   deliver_sec — phase 2: gather runs -> column unpack -> receive cap
//   exchange_sec— the whole EndRound (flush + barrier handoff + deliver)
//
// plus the row-size accounting the CI gate pins: staged_bytes_per_row
// must stay at kPackedRowBytes (24) for this spill-free workload — a
// regression back toward per-column scatters or a fatter row shows up here
// before it shows up as lost rounds/sec. On multicore hosts the companion
// gate requires S=4 rounds/sec >= 1.1x S=1.
//
// Defaults: 100k nodes, cap 8, 25 rounds. Override with --nodes (or --n) /
// --cap / --rounds / --seed; restrict the sweep with --shards S; emit JSON
// with --json out.json (recorded at the repo root as BENCH_exchange.json).
//
// --relabel appends a second table, `locality`: a neighbor-fanout workload
// on a generated graph (--topology, default ba), run plain vs relabeled
// through graph/partition.hpp at each S. Columns report the shard-local
// send fraction and staged bytes before/after relabeling plus the
// overlapped-flush telemetry (hidden_sec = pack work that ran during
// compute, off the exchange critical path). The CI locality gate pins the
// BA staged-bytes drop at >= 20% and the hidden fraction > 0.
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "exchange_workload.hpp"
#include "graph/partition.hpp"
#include "graph/scenario_gen.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"

using namespace overlay;
using bench::HasFlag;
using bench::RunGraphFanoutWorkload;
using bench::RunHashedWorkload;
using bench::RunResult;
using bench::SizeFlag;

namespace {

/// local_rows / all rows sent through the engine — the shard-local send
/// fraction the relabeling exists to raise.
double LocalFraction(const ShardedNetwork& net) {
  const double total =
      static_cast<double>(net.local_rows() + net.staged_rows());
  return total == 0 ? 0.0 : static_cast<double>(net.local_rows()) / total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      SizeFlag(argc, argv, "--nodes", SizeFlag(argc, argv, "--n", 100000));
  const std::size_t cap = SizeFlag(argc, argv, "--cap", 8);
  const std::size_t rounds = SizeFlag(argc, argv, "--rounds", 25);
  const std::uint64_t seed = SizeFlag(argc, argv, "--seed", 7);
  const std::size_t only_shards = SizeFlag(argc, argv, "--shards", 0);

  bench::Banner(
      "Run-packed multi-shard exchange",
      "claim: the staging hop moves exactly 24 bytes per one-word row "
      "(PackedRow), and the per-phase split localizes exchange regressions; "
      "S=1 stays bit-identical to SyncNetwork");
  std::printf("n=%zu cap=%zu rounds=%zu seed=%llu hw_threads=%u\n\n", n, cap,
              rounds, static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency());

  bench::JsonReport json(argc, argv, "bench_exchange");
  bench::Table t({"shards", "rounds_per_sec", "speedup", "send_sec",
                  "flush_sec", "deliver_sec", "exchange_sec", "staged_rows",
                  "staged_bytes", "staged_bytes_per_row", "arena_bytes_moved",
                  "checksum", "matches_sync"});

  SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
  const RunResult base = RunHashedWorkload(sync, rounds, cap);

  std::vector<std::size_t> sweep{1, 2, 4, 8};
  if (only_shards != 0) sweep.assign(1, only_shards);
  double s1_seconds = base.seconds;
  bool ok = true;
  for (const std::size_t shards : sweep) {
    ShardedNetwork net({.num_nodes = n, .capacity = cap, .seed = seed,
                        .exec = {.num_shards = shards}});
    const RunResult r = RunHashedWorkload(net, rounds, cap);
    if (shards == 1) s1_seconds = r.seconds;
    const bool matches =
        shards == 1
            ? r.checksum == base.checksum
            : r.stats.messages_delivered == base.stats.messages_delivered &&
                  r.stats.messages_dropped == base.stats.messages_dropped;
    ok = ok && matches;
    const double per_row =
        net.staged_rows() == 0
            ? 0.0
            : static_cast<double>(net.staged_bytes()) /
                  static_cast<double>(net.staged_rows());
    t.Row(shards, rounds / r.seconds, s1_seconds / r.seconds,
          r.seconds - r.exchange_sec, r.flush_sec, r.deliver_sec,
          r.exchange_sec, net.staged_rows(), net.staged_bytes(), per_row,
          net.arena_bytes_moved(), r.checksum, matches);
  }

  t.Print();
  json.Add("exchange_phases", t);

  if (HasFlag(argc, argv, "--relabel")) {
    gen::Topology topo = gen::Topology::kBarabasiAlbert;
    if (const char* name = bench::FlagValue(argc, argv, "--topology")) {
      if (!gen::ParseTopology(name, &topo)) {
        std::fprintf(stderr, "--topology: unknown topology '%s'\n", name);
        return 2;
      }
    }
    const std::size_t loc_rounds =
        SizeFlag(argc, argv, "--relabel-rounds", rounds / 5 < 5 ? 5 : rounds / 5);
    const gen::ScenarioSpec spec = gen::SpecForTopology(topo, n, seed);
    const Graph g = gen::BuildScenario(spec, {}).graph;
    const std::size_t cap_g = g.MaxDegree();  // drop-free flood
    std::printf("\nlocality: topology=%s n=%zu m=%zu cap=%zu rounds=%zu "
                "(neighbor fanout, plain vs relabeled ids)\n",
                gen::TopologyName(topo), g.num_nodes(), g.num_edges(), cap_g,
                loc_rounds);

    SyncNetwork ref({.num_nodes = g.num_nodes(), .capacity = cap_g,
                     .seed = seed});
    const RunResult want = RunGraphFanoutWorkload(ref, g, loc_rounds);

    bench::Table loc({"shards", "plain_local_frac", "rel_local_frac",
                      "plain_staged_bytes", "rel_staged_bytes",
                      "staged_drop_pct", "rel_local_rows", "rel_flush_sec",
                      "rel_hidden_sec", "rel_barrier_sec", "rel_exchange_sec",
                      "stats_match"});
    for (const std::size_t shards : sweep) {
      const EngineConfig cfg{.num_nodes = g.num_nodes(), .capacity = cap_g,
                             .seed = seed, .exec = {.num_shards = shards}};
      ShardedNetwork plain(cfg);
      const RunResult p = RunGraphFanoutWorkload(plain, g, loc_rounds);
      const Relabeling r = RelabelFor(g, shards, seed);
      const Graph rg = ApplyRelabeling(g, r);
      ShardedNetwork tuned(cfg);
      const RunResult q = RunGraphFanoutWorkload(tuned, rg, loc_rounds);
      // The fanout is drop-free and the relabeled graph isomorphic, so both
      // runs must reproduce the SyncNetwork stats exactly.
      const bool matches = p.stats == want.stats && q.stats == want.stats;
      ok = ok && matches;
      const double drop_pct =
          plain.staged_bytes() == 0
              ? 0.0
              : 100.0 * (1.0 - static_cast<double>(tuned.staged_bytes()) /
                                   static_cast<double>(plain.staged_bytes()));
      loc.Row(shards, LocalFraction(plain), LocalFraction(tuned),
              plain.staged_bytes(), tuned.staged_bytes(), drop_pct,
              tuned.local_rows(), q.flush_sec, q.hidden_flush_sec,
              q.barrier_sec, q.exchange_sec, matches);
    }
    loc.Print();
    json.Add("locality", loc);
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: a shard count diverged from SyncNetwork\n");
    return 1;
  }
  return json.Finish();
}
