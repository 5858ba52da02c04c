// Sharded serving must be invisible to the model: an N-shard FleetServer
// over a time-ordered fleet stream makes exactly the decisions one
// PredictionEngine makes, and the queue overload policies do what their
// names say — deterministically pinned by submitting to unstarted shards.
#include "serve/fleet_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "hbm/address.hpp"
#include "trace/fleet.hpp"

namespace cordial::serve {
namespace {

/// Small fleet plus models trained on it, built once and shared read-only.
struct World {
  hbm::TopologyConfig topology;
  trace::GeneratedFleet fleet;
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_pred;
  core::CrossRowPredictor double_pred;
  bool double_ok = false;

  World()
      : fleet([] {
          hbm::TopologyConfig topology;
          trace::CalibrationProfile profile;
          profile.scale = 0.08;
          return trace::FleetGenerator(topology, profile).Generate(5);
        }()),
        classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest),
        double_pred(topology, ml::LearnerKind::kRandomForest) {
    hbm::AddressCodec codec(topology);
    const auto banks = fleet.log.GroupByBank(codec);
    analysis::PatternLabeler labeler(topology);
    std::vector<core::LabelledBank> labelled;
    std::vector<const trace::BankHistory*> singles, doubles;
    for (const trace::BankHistory& bank : banks) {
      if (!bank.HasUer()) continue;
      const hbm::FailureClass cls = labeler.LabelClass(bank);
      labelled.push_back(core::LabelledBank{&bank, cls});
      if (cls == hbm::FailureClass::kSingleRowClustering) {
        singles.push_back(&bank);
      } else if (cls == hbm::FailureClass::kDoubleRowClustering) {
        doubles.push_back(&bank);
      }
    }
    Rng rng(99);
    classifier.Train(labelled, rng);
    single_pred.Train(singles, rng);
    try {
      double_pred.Train(doubles, rng);
      double_ok = true;
    } catch (const ContractViolation&) {
      double_ok = false;
    }
  }

  const core::CrossRowPredictor* double_or_null() const {
    return double_ok ? &double_pred : nullptr;
  }
};

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

trace::MceRecord MakeCe(double t, std::uint32_t row) {
  trace::MceRecord r;
  r.time_s = t;
  r.address.row = row;
  r.type = hbm::ErrorType::kCe;
  return r;
}

TEST(FleetServer, ShardedMatchesSingleEngineBitExactly) {
  const World& w = SharedWorld();
  core::PredictionEngine single(w.topology, w.classifier, w.single_pred,
                                w.double_or_null());
  std::size_t single_classified = 0, single_spans = 0;
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    const core::IsolationActions actions = single.Observe(record);
    if (actions.classified_now) ++single_classified;
    single_spans += actions.predicted_spans.size();
  }

  for (const std::size_t shard_count : {2u, 3u, 5u}) {
    FleetServerConfig config;
    config.shard_count = shard_count;
    std::atomic<std::size_t> classified{0}, spans{0};
    FleetServer server(
        w.topology, w.classifier, w.single_pred, w.double_or_null(), config,
        [&](std::size_t, const trace::MceRecord&,
            const core::IsolationActions& actions) {
          if (actions.classified_now) ++classified;
          spans += actions.predicted_spans.size();
        });
    server.Start();
    for (const trace::MceRecord& record : w.fleet.log.records()) {
      ASSERT_TRUE(server.Submit(record));
    }
    server.Stop();

    // Aggregate stats are the single engine's, field for field.
    EXPECT_EQ(server.AggregateStats(), single.stats())
        << "shard_count=" << shard_count;

    // Ledger totals agree too (banks are partitioned, so the shard ledgers
    // union to the single ledger).
    std::uint64_t rows_spared = 0, banks_spared = 0;
    for (std::size_t s = 0; s < server.shard_count(); ++s) {
      rows_spared += server.shard(s).engine().ledger().rows_spared();
      banks_spared += server.shard(s).engine().ledger().banks_spared();
    }
    EXPECT_EQ(rows_spared, single.ledger().rows_spared());
    EXPECT_EQ(banks_spared, single.ledger().banks_spared());

    // The sinks saw the same per-record decisions.
    EXPECT_EQ(classified.load(), single_classified);
    EXPECT_EQ(spans.load(), single_spans);

    const ShardCounters counters = server.AggregateCounters();
    EXPECT_EQ(counters.submitted, w.fleet.log.size());
    EXPECT_EQ(counters.processed, w.fleet.log.size());
    EXPECT_EQ(counters.dropped_oldest, 0u);
    EXPECT_EQ(counters.rejected, 0u);
  }
}

TEST(FleetServer, RoutingIsDeterministicAndKeepsBanksWhole) {
  const World& w = SharedWorld();
  FleetServerConfig config;
  config.shard_count = 4;
  // Unbounded retention so the replayer windows hold full bank histories.
  config.engine.retention.max_events_per_bank = 0;
  FleetServer server(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
  server.Start();
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    server.Submit(record);
  }
  server.Stop();

  // Every bank's full history landed on exactly the shard ShardOf names.
  hbm::AddressCodec codec(w.topology);
  std::size_t banks_seen = 0;
  for (const auto& bank : w.fleet.log.GroupByBank(codec)) {
    const std::size_t home = server.ShardOf(bank.bank_key);
    EXPECT_EQ(home, server.ShardOf(bank.bank_key));  // stable
    for (std::size_t s = 0; s < server.shard_count(); ++s) {
      const trace::BankHistory* found =
          server.shard(s).engine().replayer().Find(bank.bank_key);
      if (s == home) {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->events.size(), bank.events.size());
      } else {
        EXPECT_EQ(found, nullptr);
      }
    }
    ++banks_seen;
  }
  ASSERT_GT(banks_seen, 0u);

  // Multiple shards actually carried load at this shard count.
  std::size_t busy_shards = 0;
  for (std::size_t s = 0; s < server.shard_count(); ++s) {
    if (server.shard(s).engine().stats().events > 0) ++busy_shards;
  }
  EXPECT_GT(busy_shards, 1u);
}

TEST(FleetServerShard, RejectPolicyRefusesWhenFull) {
  const World& w = SharedWorld();
  QueueConfig queue;
  queue.capacity = 4;
  queue.policy = OverloadPolicy::kReject;
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{}, queue);
  // Unstarted worker: the queue fills deterministically.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(shard.Submit(MakeCe(static_cast<double>(i), i)));
  }
  for (std::uint32_t i = 4; i < 10; ++i) {
    EXPECT_FALSE(shard.Submit(MakeCe(static_cast<double>(i), i)));
  }
  ShardCounters counters = shard.counters();
  EXPECT_EQ(counters.submitted, 4u);
  EXPECT_EQ(counters.rejected, 6u);
  EXPECT_EQ(counters.dropped_oldest, 0u);

  shard.Start();
  shard.Drain();
  counters = shard.counters();
  EXPECT_EQ(counters.processed, 4u);
  EXPECT_EQ(shard.engine().stats().events, 4u);
}

TEST(FleetServerShard, DropOldestEvictsInArrivalOrder) {
  const World& w = SharedWorld();
  QueueConfig queue;
  queue.capacity = 4;
  queue.policy = OverloadPolicy::kDropOldest;
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{}, queue);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(shard.Submit(MakeCe(static_cast<double>(i), 100 + i)));
  }
  ShardCounters counters = shard.counters();
  EXPECT_EQ(counters.submitted, 10u);
  EXPECT_EQ(counters.dropped_oldest, 6u);
  EXPECT_EQ(counters.rejected, 0u);

  shard.Start();
  shard.Drain();
  // The newest four survived: rows 106..109 in order.
  EXPECT_EQ(shard.engine().stats().events, 4u);
  EXPECT_DOUBLE_EQ(shard.engine().now(), 9.0);
  const trace::MceRecord probe = MakeCe(0.0, 0);
  const trace::BankHistory* bank = shard.engine().replayer().Find(
      shard.engine().codec().BankKey(probe.address));
  ASSERT_NE(bank, nullptr);
  ASSERT_EQ(bank->events.size(), 4u);
  EXPECT_EQ(bank->events.front().address.row, 106u);
  EXPECT_EQ(bank->events.back().address.row, 109u);
}

TEST(FleetServerShard, BlockPolicyIsLossless) {
  const World& w = SharedWorld();
  QueueConfig queue;
  queue.capacity = 2;  // tiny bound: the producer must block repeatedly
  queue.policy = OverloadPolicy::kBlock;
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{}, queue);
  shard.Start();
  constexpr std::uint32_t kRecords = 500;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    EXPECT_TRUE(shard.Submit(MakeCe(static_cast<double>(i), i % 64)));
  }
  shard.Stop();
  const ShardCounters counters = shard.counters();
  EXPECT_EQ(counters.submitted, kRecords);
  EXPECT_EQ(counters.processed, kRecords);
  EXPECT_EQ(counters.dropped_oldest, 0u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(shard.engine().stats().events, kRecords);
}

TEST(FleetServerShard, StopDrainsPendingWorkAndIsIdempotent) {
  const World& w = SharedWorld();
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{});
  for (std::uint32_t i = 0; i < 32; ++i) {
    shard.Submit(MakeCe(static_cast<double>(i), i));
  }
  shard.Start();
  shard.Stop();  // must process everything already queued
  EXPECT_EQ(shard.engine().stats().events, 32u);
  shard.Stop();  // second stop is a no-op
  EXPECT_FALSE(shard.Submit(MakeCe(33.0, 1)));  // stopped shards refuse
}

// Drain() returning means drained: every drained-state check that follows
// (checkpoint encoding — which runs on several shards at once — dirty-set
// reads, MarkCheckpointClean) must accept the shard, whatever the worker
// thread is doing after its last batch.
TEST(FleetServer, DrainedStateChecksNeverRefuseAfterDrain) {
  const World& w = SharedWorld();
  FleetServerConfig config;
  config.shard_count = 3;
  FleetServer server(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
  server.Start();
  constexpr std::size_t kRounds = 10000;
  std::vector<trace::MceRecord> batch(6);
  double t = 0.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = MakeCe(t += 1.0, static_cast<std::uint32_t>(round % 4096));
      batch[i].address.bank_group = static_cast<std::uint32_t>(i % 4);
      batch[i].address.bank = static_cast<std::uint32_t>((round + i) % 4);
    }
    ASSERT_EQ(server.SubmitBatch(batch), batch.size());
    server.Drain();
    try {
      std::ostringstream delta;
      server.SaveDeltaCheckpoint(delta);
      server.MarkCheckpointClean();
      EXPECT_EQ(server.DirtyBankCount(), 0u);
      EXPECT_GT(server.TotalBankCount(), 0u);
    } catch (const ContractViolation& e) {
      FAIL() << "round " << round << ": " << e.what();
    }
  }
  server.Stop();
  EXPECT_EQ(server.AggregateStats().events, kRounds * batch.size());
}

// The batched ingest path is an optimization, never a semantic: a server
// fed via SubmitBatch must end bit-identical — stats, ledgers, checkpoint
// bytes — to the same server fed record by record.
TEST(FleetServer, BatchedSubmitMatchesPerRecordSubmitByteExactly) {
  const World& w = SharedWorld();
  const auto run = [&](bool batched) {
    FleetServerConfig config;
    config.shard_count = 3;
    FleetServer server(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
    server.Start();
    const auto& records = w.fleet.log.records();
    if (batched) {
      // Deliberately awkward batch sizes so bucket boundaries never align
      // with anything structural in the feed.
      std::size_t i = 0;
      std::size_t len = 1;
      while (i < records.size()) {
        const std::size_t n = std::min(len, records.size() - i);
        EXPECT_EQ(server.SubmitBatch(
                      std::span<const trace::MceRecord>(&records[i], n)),
                  n);
        i += n;
        len = len % 97 + 7;
      }
    } else {
      for (const trace::MceRecord& record : records) {
        server.Submit(record);
      }
    }
    server.Stop();
    std::ostringstream checkpoint;
    server.SaveCheckpoint(checkpoint);
    return std::make_pair(server.AggregateStats(), checkpoint.str());
  };
  const auto [single_stats, single_bytes] = run(false);
  const auto [batched_stats, batched_bytes] = run(true);
  EXPECT_EQ(batched_stats, single_stats);
  EXPECT_EQ(batched_bytes, single_bytes);
}

// N concurrent producers, one per shard: each producer owns every bank
// routed to its shard and feeds them in feed order, so each shard still
// sees a time-ordered stream (the replayer's monotonic-timestamp contract)
// while the producers race each other through the server API. The result
// must be bit-identical to the sequential single-submit replay.
TEST(FleetServer, ConcurrentBatchedProducersStayBitIdentical) {
  const World& w = SharedWorld();
  constexpr std::size_t kProducers = 4;
  hbm::AddressCodec codec(w.topology);

  const auto run_reference = [&] {
    FleetServerConfig config;
    config.shard_count = kProducers;
    FleetServer server(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
    server.Start();
    for (const trace::MceRecord& record : w.fleet.log.records()) {
      server.Submit(record);
    }
    server.Stop();
    std::ostringstream checkpoint;
    server.SaveCheckpoint(checkpoint);
    return std::make_pair(server.AggregateStats(), checkpoint.str());
  };
  const auto [ref_stats, ref_bytes] = run_reference();

  FleetServerConfig config;
  config.shard_count = kProducers;
  FleetServer server(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);

  // Partition the feed by home shard: producer p gets shard p's records in
  // feed order (ShardOf is deterministic, so this matches the routing).
  std::vector<std::vector<trace::MceRecord>> feeds(kProducers);
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    feeds[server.ShardOf(codec.BankKey(record.address))].push_back(record);
  }

  server.Start();
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&server, &feeds, p] {
      const std::vector<trace::MceRecord>& feed = feeds[p];
      std::size_t i = 0;
      while (i < feed.size()) {
        const std::size_t n = std::min<std::size_t>(33, feed.size() - i);
        server.SubmitBatch(
            std::span<const trace::MceRecord>(&feed[i], n));
        i += n;
      }
    });
  }
  for (auto& t : producers) t.join();
  server.Stop();
  std::ostringstream checkpoint;
  server.SaveCheckpoint(checkpoint);

  EXPECT_EQ(server.AggregateStats(), ref_stats);
  EXPECT_EQ(checkpoint.str(), ref_bytes);
  const ShardCounters counters = server.AggregateCounters();
  EXPECT_EQ(counters.submitted, w.fleet.log.size());
  EXPECT_EQ(counters.processed, w.fleet.log.size());
}

TEST(FleetServerShard, BatchRejectCountsRefusedTail) {
  const World& w = SharedWorld();
  QueueConfig queue;
  queue.capacity = 4;
  queue.policy = OverloadPolicy::kReject;
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{}, queue);
  // Unstarted worker: the queue fills deterministically at 4.
  std::vector<trace::MceRecord> batch;
  for (std::uint32_t i = 0; i < 10; ++i) {
    batch.push_back(MakeCe(static_cast<double>(i), i));
  }
  EXPECT_EQ(shard.SubmitBatch(batch), 4u);
  const ShardCounters counters = shard.counters();
  EXPECT_EQ(counters.submitted, 4u);
  EXPECT_EQ(counters.rejected, 6u);
  shard.Start();
  shard.Drain();
  EXPECT_EQ(shard.engine().stats().events, 4u);
}

TEST(FleetServerShard, BatchDropOldestKeepsNewestInOrder) {
  const World& w = SharedWorld();
  QueueConfig queue;
  queue.capacity = 4;
  queue.policy = OverloadPolicy::kDropOldest;
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{}, queue);
  std::vector<trace::MceRecord> batch;
  for (std::uint32_t i = 0; i < 10; ++i) {
    batch.push_back(MakeCe(static_cast<double>(i), 100 + i));
  }
  EXPECT_EQ(shard.SubmitBatch(batch), 10u);
  ShardCounters counters = shard.counters();
  EXPECT_EQ(counters.submitted, 10u);
  EXPECT_EQ(counters.dropped_oldest, 6u);
  shard.Start();
  shard.Drain();
  // Same survivors as the single-record drop-oldest test: rows 106..109.
  EXPECT_EQ(shard.engine().stats().events, 4u);
  const trace::MceRecord probe = MakeCe(0.0, 0);
  const trace::BankHistory* bank = shard.engine().replayer().Find(
      shard.engine().codec().BankKey(probe.address));
  ASSERT_NE(bank, nullptr);
  ASSERT_EQ(bank->events.size(), 4u);
  EXPECT_EQ(bank->events.front().address.row, 106u);
  EXPECT_EQ(bank->events.back().address.row, 109u);
}

TEST(FleetServerShard, MoveSubmitIsAcceptedAndProcessed) {
  const World& w = SharedWorld();
  EngineShard shard(w.topology, w.classifier, w.single_pred,
                    w.double_or_null(), core::EngineConfig{});
  shard.Start();
  for (std::uint32_t i = 0; i < 16; ++i) {
    trace::MceRecord record = MakeCe(static_cast<double>(i), i);
    EXPECT_TRUE(shard.Submit(std::move(record)));
  }
  shard.Drain();
  EXPECT_EQ(shard.engine().stats().events, 16u);
  shard.Stop();
}

TEST(FleetServerShard, RejectsZeroCapacity) {
  const World& w = SharedWorld();
  QueueConfig queue;
  queue.capacity = 0;
  EXPECT_THROW(EngineShard(w.topology, w.classifier, w.single_pred,
                           w.double_or_null(), core::EngineConfig{}, queue),
               ContractViolation);
}

TEST(FleetServer, RejectsZeroShards) {
  const World& w = SharedWorld();
  FleetServerConfig config;
  config.shard_count = 0;
  EXPECT_THROW(FleetServer(w.topology, w.classifier, w.single_pred,
                           w.double_or_null(), config),
               ContractViolation);
}

TEST(FleetServer, InvalidRecordsAreConsumedNotCrashed) {
  const World& w = SharedWorld();
  FleetServerConfig config;
  config.shard_count = 2;
  FleetServer server(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
  server.Start();

  trace::MceRecord out_of_bounds = MakeCe(1.0, 100);
  out_of_bounds.address.row = w.topology.rows_per_bank + 5;
  trace::MceRecord bad_time = MakeCe(1.0, 100);
  bad_time.time_s = std::numeric_limits<double>::infinity();

  // Unguarded, either record would detonate BankKey's contract check on
  // the submitting thread. Guarded: consumed (true), counted, dropped.
  EXPECT_TRUE(server.Submit(out_of_bounds));
  EXPECT_TRUE(server.Submit(trace::MceRecord(bad_time)));
  EXPECT_EQ(server.invalid_records(), 2u);

  // Batch path: invalid records count toward the accepted total so remote
  // feeders see no spurious backpressure, but never reach a shard.
  std::vector<trace::MceRecord> batch = {MakeCe(2.0, 1), out_of_bounds,
                                         MakeCe(3.0, 2), bad_time};
  EXPECT_EQ(server.SubmitBatch(batch), batch.size());
  EXPECT_EQ(server.invalid_records(), 4u);
  server.Stop();
  EXPECT_EQ(server.AggregateStats().events, 2u);  // only the valid pair
  EXPECT_EQ(server.AggregateCounters().submitted, 2u);
}

}  // namespace
}  // namespace cordial::serve
