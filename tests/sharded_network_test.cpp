// Tests for the sharded parallel round engine: NCC0 semantics, determinism
// for a fixed (seed, shard count), bit-identical S=1 equivalence with
// SyncNetwork, shard-count-invariant statistics, and the parallel
// ForEachNode driver path.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"

namespace overlay {
namespace {

Message Payload(std::uint64_t w0) {
  Message m;
  m.kind = 1;
  m.words[0] = w0;
  return m;
}

using Flat = std::tuple<NodeId, std::uint32_t, std::uint64_t, std::uint64_t,
                        std::uint64_t>;

Flat Flatten(const MessageView& m) {
  return {m.src(), m.kind(), m.word0(), m.word(1), m.word(2)};
}

/// All inboxes of an engine, per node, in delivery order.
template <typename Net>
std::vector<std::vector<Flat>> Snapshot(const Net& net) {
  std::vector<std::vector<Flat>> out(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    for (const MessageView m : net.Inbox(v)) out[v].push_back(Flatten(m));
  }
  return out;
}

/// Deterministic pseudo-random workload: every node sends `sends` messages
/// per round to hash-picked destinations. Identical regardless of engine.
template <typename Net>
void DriveRound(Net& net, std::size_t round, std::size_t sends) {
  const std::size_t n = net.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < sends; ++i) {
      const std::uint64_t h =
          (v * 0x9e3779b97f4a7c15ULL) ^ (round * 0xbf58476d1ce4e5b9ULL) ^
          (i * 0x94d049bb133111ebULL);
      net.Send(v, static_cast<NodeId>(h % n), Payload(h));
    }
  }
  net.EndRound();
}

TEST(ShardedNetwork, MessagesArriveNextRoundAcrossShards) {
  ShardedNetwork net({.num_nodes = 8, .capacity = 4, .seed = 1,
                      .exec = {.num_shards = 4}});
  EXPECT_EQ(net.num_shards(), 4u);
  net.Send(0, 7, Payload(11));  // shard 0 -> shard 3
  net.Send(7, 0, Payload(22));  // shard 3 -> shard 0
  net.Send(3, 3, Payload(33));  // within shard 1
  EXPECT_TRUE(net.Inbox(7).empty());
  net.EndRound();
  ASSERT_EQ(net.Inbox(7).size(), 1u);
  EXPECT_EQ(net.Inbox(7)[0].word0(), 11u);
  EXPECT_EQ(net.Inbox(7)[0].src(), 0u);
  ASSERT_EQ(net.Inbox(0).size(), 1u);
  EXPECT_EQ(net.Inbox(0)[0].src(), 7u);
  ASSERT_EQ(net.Inbox(3).size(), 1u);
  EXPECT_EQ(net.Inbox(3)[0].word0(), 33u);
  net.EndRound();
  EXPECT_TRUE(net.Inbox(7).empty());  // consumed, not redelivered
}

TEST(ShardedNetwork, SendCapEnforced) {
  ShardedNetwork net({.num_nodes = 4, .capacity = 2, .seed = 1,
                      .exec = {.num_shards = 2}});
  net.Send(0, 1, Payload(1));
  net.Send(0, 2, Payload(2));
  EXPECT_THROW(net.Send(0, 3, Payload(3)), ContractViolation);
}

TEST(ShardedNetwork, OverCapacityDropsUnderFourShards) {
  // All 8 nodes flood node 5 (owned by shard 2): 8·3 = 24 offered, cap 3.
  const std::size_t cap = 3;
  ShardedNetwork net({.num_nodes = 8, .capacity = cap, .seed = 9,
                      .exec = {.num_shards = 4}});
  for (NodeId v = 0; v < 8; ++v) {
    for (std::size_t i = 0; i < cap; ++i) net.Send(v, 5, Payload(v * 10 + i));
  }
  net.EndRound();
  EXPECT_EQ(net.Inbox(5).size(), cap);
  EXPECT_EQ(net.stats().messages_sent, 24u);
  EXPECT_EQ(net.stats().messages_delivered, 3u);
  EXPECT_EQ(net.stats().messages_dropped, 21u);
  EXPECT_EQ(net.stats().max_offered_load, 24u);
  EXPECT_EQ(net.stats().max_send_load, 3u);
  // Survivors are a subset of what was offered.
  for (const MessageView m : net.Inbox(5)) {
    EXPECT_EQ(m.word0(), m.src() * 10 + (m.word0() % 10));
  }
}

TEST(ShardedNetwork, DeterministicForFixedSeedAndShards) {
  // Two identical runs on a dropping workload: inbox contents and stats
  // must match bit for bit, every round.
  const EngineConfig cfg{.num_nodes = 24, .capacity = 3, .seed = 42,
                         .exec = {.num_shards = 4}};
  ShardedNetwork a(cfg);
  ShardedNetwork b(cfg);
  for (std::size_t round = 0; round < 12; ++round) {
    DriveRound(a, round, 3);
    DriveRound(b, round, 3);
    EXPECT_EQ(Snapshot(a), Snapshot(b)) << "round " << round;
  }
  EXPECT_EQ(a.stats(), b.stats());
  EXPECT_GT(a.stats().messages_dropped, 0u);  // workload actually dropped
}

TEST(ShardedNetwork, SingleShardBitIdenticalToSyncNetwork) {
  // The acceptance bar of the engine: with S = 1 the sharded executor must
  // replicate SyncNetwork exactly — same delivered messages in the same
  // per-node order, same drop choices, same stats — on a workload that
  // exceeds capacity.
  const std::uint64_t seed = 1234;
  SyncNetwork sync({.num_nodes = 50, .capacity = 4, .seed = seed});
  ShardedNetwork sharded({.num_nodes = 50, .capacity = 4, .seed = seed,
                          .exec = {.num_shards = 1}});
  for (std::size_t round = 0; round < 16; ++round) {
    DriveRound(sync, round, 4);
    DriveRound(sharded, round, 4);
    EXPECT_EQ(Snapshot(sync), Snapshot(sharded)) << "round " << round;
  }
  EXPECT_EQ(sync.stats(), sharded.stats());
  EXPECT_GT(sync.stats().messages_dropped, 0u);
  EXPECT_EQ(sync.MaxTotalSentPerNode(), sharded.MaxTotalSentPerNode());
}

TEST(ShardedNetwork, StatsInvariantUnderShardCount) {
  // Which messages drop depends on the shard RNG streams, but every counter
  // in NetworkStats is shard-count-invariant: offered loads, drop counts,
  // and delivery totals are fixed by the workload alone.
  const NetworkStats reference = [] {
    SyncNetwork net({.num_nodes = 30, .capacity = 2, .seed = 5});
    for (std::size_t round = 0; round < 10; ++round) DriveRound(net, round, 2);
    return net.stats();
  }();
  for (std::size_t shards : {1u, 2u, 3u, 8u}) {
    ShardedNetwork net({.num_nodes = 30, .capacity = 2, .seed = 5,
                        .exec = {.num_shards = shards}});
    for (std::size_t round = 0; round < 10; ++round) DriveRound(net, round, 2);
    EXPECT_EQ(net.stats(), reference) << "shards " << shards;
  }
  EXPECT_GT(reference.messages_dropped, 0u);
}

TEST(ShardedNetwork, NoDropWorkloadDeliversSameMultisetAsSync) {
  // Without drops the delivered per-node multisets are engine-independent
  // (ordering may legally differ across shard counts).
  SyncNetwork sync({.num_nodes = 40, .capacity = 8, .seed = 3});
  ShardedNetwork sharded({.num_nodes = 40, .capacity = 8, .seed = 3,
                          .exec = {.num_shards = 4}});
  for (std::size_t round = 0; round < 8; ++round) {
    DriveRound(sync, round, 2);  // 2 sends/node, cap 8: offered <= cap w.h.p.?
    DriveRound(sharded, round, 2);
    auto a = Snapshot(sync);
    auto b = Snapshot(sharded);
    if (sync.stats().messages_dropped > 0) break;  // hash collision heavy day
    for (NodeId v = 0; v < 40; ++v) {
      std::sort(a[v].begin(), a[v].end());
      std::sort(b[v].begin(), b[v].end());
      EXPECT_EQ(a[v], b[v]) << "round " << round << " node " << v;
    }
  }
}

TEST(ShardedNetwork, ForEachNodeMatchesSerialDrive) {
  // The parallel node loop with per-node sends must produce exactly the
  // run a serial loop produces: all sends are keyed by (node, round), so
  // thread scheduling cannot leak into the outcome.
  const EngineConfig cfg{.num_nodes = 32, .capacity = 3, .seed = 77,
                         .exec = {.num_shards = 4}};
  ShardedNetwork serial(cfg);
  ShardedNetwork parallel(cfg);
  for (std::size_t round = 0; round < 10; ++round) {
    DriveRound(serial, round, 3);
    parallel.ForEachNode([&](NodeId v) {
      for (std::size_t i = 0; i < 3; ++i) {
        const std::uint64_t h =
            (v * 0x9e3779b97f4a7c15ULL) ^ (round * 0xbf58476d1ce4e5b9ULL) ^
            (i * 0x94d049bb133111ebULL);
        parallel.Send(v, static_cast<NodeId>(h % 32), Payload(h));
      }
    });
    parallel.EndRound();
    EXPECT_EQ(Snapshot(serial), Snapshot(parallel)) << "round " << round;
  }
  EXPECT_EQ(serial.stats(), parallel.stats());
}

TEST(ShardedNetwork, ReusedPoolReproducesFreshThreadStreams) {
  // The tentpole acceptance test: repeated EndRound/ForEachNode calls on
  // one long-lived ShardPool must reproduce the exact message streams of a
  // fresh-threads execution (modelled by giving each reference network its
  // own brand-new pool, whose workers have never run a task).
  ShardPool reused;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardPool fresh;
    EngineConfig cfg{.num_nodes = 36, .capacity = 3, .seed = 99,
                     .exec = {.num_shards = shards, .pool = &reused}};
    ShardedNetwork a(cfg);
    cfg.exec.pool = &fresh;
    ShardedNetwork b(cfg);
    for (std::size_t round = 0; round < 10; ++round) {
      const std::size_t sends = 3;
      a.ForEachNode([&](NodeId v) {
        for (std::size_t i = 0; i < sends; ++i) {
          const std::uint64_t h =
              (v * 0x9e3779b97f4a7c15ULL) ^ (round * 0xbf58476d1ce4e5b9ULL) ^
              (i * 0x94d049bb133111ebULL);
          a.Send(v, static_cast<NodeId>(h % 36), Payload(h));
        }
      });
      a.EndRound();
      DriveRound(b, round, sends);
      EXPECT_EQ(Snapshot(a), Snapshot(b))
          << "shards " << shards << " round " << round;
    }
    EXPECT_EQ(a.stats(), b.stats()) << "shards " << shards;
  }
}

TEST(ShardedNetwork, SharedPoolAcrossShardCountReconfiguration) {
  // One pool serving interleaved engines of different shard counts — the
  // "reconfiguration" shape. Every engine must behave exactly as if it had
  // the pool to itself, including the S=1 bit-identity with SyncNetwork.
  ShardPool pool;
  const std::uint64_t seed = 4242;
  SyncNetwork sync({.num_nodes = 40, .capacity = 4, .seed = seed});
  ShardedNetwork s1({.num_nodes = 40, .capacity = 4, .seed = seed,
                     .exec = {.num_shards = 1, .pool = &pool}});
  ShardedNetwork s4({.num_nodes = 40, .capacity = 4, .seed = seed,
                     .exec = {.num_shards = 4, .pool = &pool}});
  ShardedNetwork s4b({.num_nodes = 40, .capacity = 4, .seed = seed,
                      .exec = {.num_shards = 4, .pool = &pool}});
  for (std::size_t round = 0; round < 12; ++round) {
    DriveRound(sync, round, 4);
    DriveRound(s1, round, 4);
    DriveRound(s4, round, 4);
    DriveRound(s4b, round, 4);
    EXPECT_EQ(Snapshot(sync), Snapshot(s1)) << "round " << round;
    EXPECT_EQ(Snapshot(s4), Snapshot(s4b)) << "round " << round;
  }
  EXPECT_EQ(sync.stats(), s1.stats());
  EXPECT_EQ(s4.stats(), s4b.stats());
  EXPECT_EQ(sync.stats(), s4.stats());  // stats are shard-count-invariant
  EXPECT_GT(sync.stats().messages_dropped, 0u);
}

TEST(ShardedNetwork, BatchedSendsMatchPerMessageAcrossShards) {
  // SendBatch from the shard workers must replay per-message Send exactly:
  // same outbox order per shard, so same delivery order and same drops.
  const EngineConfig cfg{.num_nodes = 24, .capacity = 3, .seed = 5,
                         .exec = {.num_shards = 4}};
  ShardedNetwork per_msg(cfg);
  ShardedNetwork batched(cfg);
  for (std::size_t round = 0; round < 8; ++round) {
    DriveRound(per_msg, round, 3);
    batched.ForEachNode([&](NodeId v) {
      std::vector<Envelope> batch;
      for (std::size_t i = 0; i < 3; ++i) {
        const std::uint64_t h =
            (v * 0x9e3779b97f4a7c15ULL) ^ (round * 0xbf58476d1ce4e5b9ULL) ^
            (i * 0x94d049bb133111ebULL);
        batch.push_back({static_cast<NodeId>(h % 24), 1, h});
      }
      batched.SendBatch(v, batch);
    });
    batched.EndRound();
    EXPECT_EQ(Snapshot(per_msg), Snapshot(batched)) << "round " << round;
  }
  EXPECT_EQ(per_msg.stats(), batched.stats());
  EXPECT_EQ(per_msg.arena_bytes_moved(), batched.arena_bytes_moved());
  EXPECT_GT(per_msg.stats().messages_dropped, 0u);
}

TEST(ShardedNetwork, ShardCountClampedToNodes) {
  ShardedNetwork net({.num_nodes = 3, .capacity = 1, .seed = 1,
                      .exec = {.num_shards = 16}});
  EXPECT_LE(net.num_shards(), 3u);
  net.Send(0, 2, Payload(1));
  net.EndRound();
  EXPECT_EQ(net.Inbox(2).size(), 1u);
}

TEST(MessageSoAPacked, PackRowRoundTripsThroughUnpackColumns) {
  // The staging hop's wire format: PackRow -> (PackedRow run + side spill
  // buffer) -> UnpackColumns must reproduce every row bit for bit, spill
  // included.
  MessageSoA out;
  out.PushOneWord(3, 7, 0xabcdefULL);
  Message multi;
  multi.kind = 9;
  multi.words[0] = 11;
  multi.words[1] = 22;
  multi.words[2] = 33;
  out.PushMessage(5, multi);
  out.PushOneWord(8, 1, 42);

  std::vector<PackedRow> run;
  std::vector<ExtWords> spill;
  for (std::size_t i = 0; i < out.size(); ++i) {
    run.push_back(out.PackRow(static_cast<NodeId>(100 + i), i, spill));
  }
  EXPECT_EQ(spill.size(), 1u);  // only the multi-word row spilled
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].to, static_cast<NodeId>(100 + i));
  }

  MessageSoA in;
  in.UnpackColumns(run, spill);
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Message got = in.MessageAt(i);
    const Message want = out.MessageAt(i);
    EXPECT_EQ(got.src, want.src) << "row " << i;
    EXPECT_EQ(got.kind, want.kind) << "row " << i;
    EXPECT_EQ(got.words, want.words) << "row " << i;
  }
}

TEST(MessageSoAPacked, TruncateToUndoesAppendedRows) {
  MessageSoA soa;
  soa.PushOneWord(1, 1, 10);
  const std::size_t rows = soa.size();
  const std::size_t spill = soa.spill_size();
  Message multi;
  multi.kind = 2;
  multi.words[1] = 5;
  soa.PushMessage(2, multi);
  soa.PushOneWord(3, 3, 30);
  EXPECT_EQ(soa.size(), 3u);
  EXPECT_EQ(soa.spill_size(), 1u);
  soa.TruncateTo(rows, spill);
  EXPECT_EQ(soa.size(), 1u);
  EXPECT_EQ(soa.spill_size(), 0u);
  EXPECT_EQ(soa.word0(0), 10u);
}

TEST(ShardedNetwork, StagedBytesAccountTheHopAtPackedRowSize) {
  // A message crosses the staging hop exactly once above S=1 — at
  // kPackedRowBytes for one-word payloads — *unless* source and destination
  // share a shard, in which case it bypasses the hop and is counted in
  // local_rows() instead. S=1 skips the hop entirely and keeps SyncNetwork's
  // exact byte accounting. Eager seals do not change that: with 8-row outbox
  // segments each shard seals several segments per round, and every staged
  // row is still counted once and delivered exactly as in the
  // single-segment run.
  const EngineConfig cfg{.num_nodes = 24, .capacity = 3, .seed = 5};
  SyncNetwork sync(cfg);
  ShardedNetwork s1{{.num_nodes = 24, .capacity = 3, .seed = 5,
                     .exec = {.num_shards = 1}}};
  ShardedNetwork s4{{.num_nodes = 24, .capacity = 3, .seed = 5,
                     .exec = {.num_shards = 4}}};
  EngineConfig seg_cfg{.num_nodes = 24, .capacity = 3, .seed = 5,
                       .exec = {.num_shards = 4}};
  seg_cfg.outbox_segment_rows = 8;  // 18 rows per shard per round
  ShardedNetwork s4_seg(seg_cfg);
  for (std::size_t round = 0; round < 6; ++round) {
    DriveRound(sync, round, 3);
    DriveRound(s1, round, 3);
    DriveRound(s4, round, 3);
    DriveRound(s4_seg, round, 3);
    EXPECT_EQ(Snapshot(s4_seg), Snapshot(s4)) << "round " << round;
  }
  EXPECT_EQ(s1.staged_rows(), 0u);
  EXPECT_EQ(s1.staged_bytes(), 0u);
  EXPECT_EQ(s1.local_rows(), 0u);
  EXPECT_EQ(s1.arena_bytes_moved(), sync.arena_bytes_moved());
  const std::uint64_t sent = s4.stats().messages_sent;
  EXPECT_GT(s4.staged_rows(), 0u);
  EXPECT_GT(s4.local_rows(), 0u);  // the workload has same-shard targets
  EXPECT_EQ(s4.staged_rows() + s4.local_rows(), sent);
  EXPECT_EQ(s4.staged_bytes(),
            s4.staged_rows() * kPackedRowBytes);  // one-word workload
  EXPECT_EQ(s4.staged_bytes() / s4.staged_rows(), kPackedRowBytes);
  EXPECT_EQ(s4_seg.staged_rows(), s4.staged_rows());
  EXPECT_EQ(s4_seg.staged_bytes(), s4.staged_bytes());
  EXPECT_EQ(s4_seg.local_rows(), s4.local_rows());
  EXPECT_EQ(s4_seg.stats(), s4.stats());
}

TEST(ShardedNetwork, PhaseTimersSplitBarrierFromPackAndDeliver) {
  // exchange_flush_seconds() measures phase-1 pack work only and
  // exchange_deliver_seconds() phase-2 work only; whatever remains of the
  // EndRound wall time is reported as exchange_barrier_seconds(). The three
  // must reassemble the exchange wall time (up to per-sample steady_clock
  // granularity), so barrier waits can never masquerade as pack cost.
  ShardedNetwork net{{.num_nodes = 64, .capacity = 8, .seed = 11,
                      .exec = {.num_shards = 4},
                      .outbox_segment_rows = 16}};
  for (std::size_t round = 0; round < 8; ++round) {
    DriveRound(net, round, 8);
  }
  EXPECT_GT(net.exchange_seconds(), 0.0);
  EXPECT_GE(net.exchange_barrier_seconds(), 0.0);
  EXPECT_GE(net.hidden_flush_seconds(), 0.0);
  const double reassembled = net.exchange_flush_seconds() +
                             net.exchange_deliver_seconds() +
                             net.exchange_barrier_seconds();
  // 8 rounds x 2 phases x a handful of clock samples each: allow a few
  // microseconds of absolute slack plus a small relative term.
  EXPECT_NEAR(reassembled, net.exchange_seconds(),
              1e-5 + 0.01 * net.exchange_seconds());
  // Phase cost can never exceed the whole exchange.
  EXPECT_LE(net.exchange_flush_seconds(), net.exchange_seconds());
  EXPECT_LE(net.exchange_deliver_seconds(), net.exchange_seconds());
}

TEST(ShardedNetwork, SpillRunsSelfContainedPerDestination) {
  // Satellite regression: multi-word (spilling) messages at S in {2,4,8}
  // with a tiny segment size, so runs are sealed eagerly across several
  // segments per round. Each destination run resolves its spill entries
  // from its own per-destination side buffer; a shared cross-destination
  // buffer would scramble word[1..2] payloads between shards. Delivered
  // multisets must match SyncNetwork exactly (drop-free workload).
  constexpr std::size_t kNodes = 48;
  constexpr std::size_t kRounds = 5;
  const auto drive = [&](auto& net, std::size_t round) {
    for (NodeId v = 0; v < kNodes; ++v) {
      for (std::size_t j = 0; j < 3; ++j) {
        const NodeId to =
            static_cast<NodeId>((v * 7 + j * 11 + round * 5) % kNodes);
        Message m = Payload(v * 100 + j);
        m.kind = static_cast<std::uint32_t>(round + 1);
        m.words[1] = (v * 1000003ULL) ^ (round * 97 + j);  // forces a spill
        m.words[2] = ~m.words[1];
        net.Send(v, to, m);
      }
    }
    net.EndRound();
  };
  const EngineConfig base{.num_nodes = kNodes, .capacity = 16, .seed = 9};
  SyncNetwork sync(base);
  std::vector<std::vector<std::vector<Flat>>> want(kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    drive(sync, round);
    want[round] = Snapshot(sync);
    for (auto& inbox : want[round]) std::sort(inbox.begin(), inbox.end());
  }
  ASSERT_EQ(sync.stats().messages_dropped, 0u);  // drop-free by construction
  for (const std::size_t shards : {2u, 4u, 8u}) {
    EngineConfig cfg = base;
    cfg.exec.num_shards = shards;
    cfg.outbox_segment_rows = 8;  // several eager seals per shard per round
    ShardedNetwork net(cfg);
    for (std::size_t round = 0; round < kRounds; ++round) {
      drive(net, round);
      auto got = Snapshot(net);
      for (NodeId v = 0; v < kNodes; ++v) {
        std::sort(got[v].begin(), got[v].end());
        EXPECT_EQ(got[v], want[round][v])
            << "S=" << shards << " round=" << round << " node=" << v;
      }
    }
    // Spilling rows that crossed shards pay kSpillBytes on top of the
    // packed row; the bypassed same-shard rows pay nothing.
    EXPECT_EQ(net.staged_bytes(),
              net.staged_rows() * (kPackedRowBytes + kSpillBytes));
  }
}

TEST(ShardedNetwork, BatchSendRollbackLeavesNothingEnqueued) {
  // The single-pass batch paths validate targets inline; a bad target mid-
  // batch must roll back every row already enqueued AND the counters, so a
  // caught violation leaves the engine exactly as before the call.
  ShardedNetwork net({.num_nodes = 8, .capacity = 4, .seed = 3,
                      .exec = {.num_shards = 2}});
  net.Send(1, 2, Payload(7));  // a pre-existing row that must survive

  const std::vector<Envelope> bad{{2, 1, 10}, {3, 1, 11}, {99, 1, 12}};
  EXPECT_THROW(net.SendBatch(1, bad), ContractViolation);
  const std::vector<NodeId> bad_targets{4, 5, 99};
  EXPECT_THROW(net.SendFanout(1, bad_targets, 1, 13), ContractViolation);

  // Counters rolled back: the full remaining cap is still available.
  EXPECT_EQ(net.TotalSentBy(1), 1u);
  const std::vector<Envelope> ok{{2, 1, 20}, {3, 1, 21}, {4, 1, 22}};
  net.SendBatch(1, ok);  // 1 + 3 == capacity, so rollback must have undone 3
  net.EndRound();

  // Exactly the pre-existing row and the good batch arrived — nothing from
  // the failed batches leaked into delivery.
  EXPECT_EQ(net.Inbox(2).size(), 2u);
  EXPECT_EQ(net.Inbox(2)[0].word0(), 7u);
  EXPECT_EQ(net.Inbox(2)[1].word0(), 20u);
  EXPECT_EQ(net.Inbox(3).size(), 1u);
  EXPECT_EQ(net.Inbox(4).size(), 1u);
  EXPECT_EQ(net.Inbox(5).size(), 0u);
  EXPECT_EQ(net.stats().messages_sent, 4u);
  EXPECT_EQ(net.stats().messages_delivered, 4u);
  EXPECT_EQ(net.MaxTotalSentPerNode(), 4u);
}

TEST(ShardedNetwork, RejectsInvalidConfig) {
  EXPECT_THROW(ShardedNetwork({.num_nodes = 0, .capacity = 1}),
               ContractViolation);
  EXPECT_THROW(ShardedNetwork({.num_nodes = 1, .capacity = 0}),
               ContractViolation);
  EXPECT_THROW(
      ShardedNetwork({.num_nodes = 1, .capacity = 1, .seed = 1,
                      .max_delay = 1, .exec = {.num_shards = 0}}),
      ContractViolation);
}

}  // namespace
}  // namespace overlay
