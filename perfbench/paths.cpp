#include "paths.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <variant>

#include "analysis/labeler.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "net/ingest_client.hpp"
#include "net/ingest_server.hpp"
#include "obs/metrics.hpp"
#include "persist/chain.hpp"
#include "trace/log_codec.hpp"

namespace perfbench {

namespace {

using Scope = Tracer::Scope;

const char* const kModelSuffix[] = {".pattern.model", ".single.model",
                                    ".double.model"};

/// Sink state of one shard, written only by that shard's worker. Aligned
/// so neighbouring shards never share a cache line.
struct alignas(64) ShardSink {
  std::vector<std::int64_t> arrive;  ///< k-th sink call's clock, if sized
  std::uint64_t calls = 0;
  std::vector<std::pair<std::uint64_t, hbm::FailureClass>> classified;
};

serve::FleetServer::ActionSink MakeSink(std::vector<ShardSink>& sinks,
                                        const hbm::AddressCodec& codec,
                                        std::int64_t spin_ns) {
  return [&sinks, &codec, spin_ns](std::size_t shard,
                                   const trace::MceRecord& record,
                                   const core::IsolationActions& actions) {
    ShardSink& sink = sinks[shard];
    const std::uint64_t k = sink.calls++;
    if (k < sink.arrive.size()) sink.arrive[k] = NowNs();
    if (actions.classified_now) {
      sink.classified.emplace_back(codec.BankKey(record.address),
                                   actions.bank_class);
    }
    Spin(spin_ns);
  };
}

/// Calls `fn` on a drained `server`. EngineShard's worker publishes a
/// batch's processed count before it clears its busy flag, and after that
/// it sets and clears the flag once more on the empty ring, so Drain can
/// return while a drained-state check (SaveDeltaState, MarkCheckpointClean,
/// bank_count) still sees the shard busy and throws. Such a refusal comes
/// before any checkpoint bytes are written, or after the member and the
/// manifest are durable but before the dirty set is cleared; either way a
/// retry after another Drain leaves a chain that recovers to the live
/// state, which every replay checks. The retries are bounded by time, not
/// by count: the host can deschedule the worker inside that window for
/// milliseconds. Each retry is counted in `races`.
template <typename Fn>
auto OnDrained(serve::FleetServer& server, std::uint64_t& races, Fn&& fn) {
  constexpr std::int64_t kGiveUpNs = 2'000'000'000;
  const std::int64_t give_up = NowNs() + kGiveUpNs;
  for (;;) {
    try {
      return fn();
    } catch (const cordial::ContractViolation& e) {
      if (NowNs() >= give_up ||
          std::string_view(e.what()).find("must be drained") ==
              std::string_view::npos) {
        throw;
      }
      ++races;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      server.Drain();
    }
  }
}

void CollectSinks(const std::vector<ShardSink>& sinks, BankClasses& classes) {
  for (const ShardSink& sink : sinks) {
    for (const auto& [key, cls] : sink.classified) classes[key] = cls;
  }
}

/// Run `fn` inside a span, time it, then spin `slowdown` of its duration.
template <typename Fn>
double TimedStep(Tracer& tracer, const char* name, double slowdown, Fn&& fn) {
  Scope scope(tracer, name);
  const std::int64_t start = NowNs();
  fn();
  Spin(static_cast<std::int64_t>(slowdown *
                                 static_cast<double>(NowNs() - start)));
  return Seconds(NowNs() - start);
}

std::vector<core::LabelledBank> LabelBanks(
    const hbm::TopologyConfig& topology,
    const std::vector<trace::BankHistory>& banks) {
  analysis::PatternLabeler labeler(topology);
  std::vector<const trace::BankHistory*> uer_banks;
  for (const trace::BankHistory& bank : banks) {
    if (bank.HasUer()) uer_banks.push_back(&bank);
  }
  const std::vector<hbm::FailureClass> classes =
      ParallelMap<hbm::FailureClass>(uer_banks.size(), [&](std::size_t i) {
        return labeler.LabelClass(*uer_banks[i]);
      });
  std::vector<core::LabelledBank> labelled;
  for (std::size_t i = 0; i < uer_banks.size(); ++i) {
    labelled.push_back(core::LabelledBank{uer_banks[i], classes[i]});
  }
  return labelled;
}

/// Fit the classifier and both predictors in `cordial_cli train` order.
/// Without double-row training banks the single-row data serves both, as
/// the CLI's saved models do.
void FitModels(Models& models, const std::vector<core::LabelledBank>& train,
               Rng& rng, FitTimes& times, double slowdown, Tracer& tracer) {
  std::vector<const trace::BankHistory*> singles, doubles;
  for (const core::LabelledBank& lb : train) {
    if (lb.label == hbm::FailureClass::kSingleRowClustering) {
      singles.push_back(lb.bank);
    } else if (lb.label == hbm::FailureClass::kDoubleRowClustering) {
      doubles.push_back(lb.bank);
    }
  }
  times.classifier_s = TimedStep(tracer, "ml.fit_classifier", slowdown,
                                 [&] { models.classifier.Train(train, rng); });
  times.single_s =
      TimedStep(tracer, "ml.fit_single", slowdown,
                [&] { models.single_predictor.Train(singles, rng); });
  times.double_s = TimedStep(tracer, "ml.fit_double", slowdown, [&] {
    models.double_predictor.Train(doubles.empty() ? singles : doubles, rng);
  });
}

}  // namespace

void AddIcr(core::IcrResult& into, const core::IcrResult& part) {
  into.covered_rows += part.covered_rows;
  into.covered_by_bank_spare += part.covered_by_bank_spare;
  into.total_uer_rows += part.total_uer_rows;
  into.rows_spared += part.rows_spared;
  into.banks_spared += part.banks_spared;
  into.sparing_cost += part.sparing_cost;
}

Models::Models(const hbm::TopologyConfig& topology)
    : classifier(topology, ml::LearnerKind::kRandomForest),
      single_predictor(topology, ml::LearnerKind::kRandomForest),
      double_predictor(topology, ml::LearnerKind::kRandomForest) {}

BankLabels LabelAll(const hbm::TopologyConfig& topology,
                    const std::vector<trace::BankHistory>& banks) {
  BankLabels labels;
  for (const core::LabelledBank& lb : LabelBanks(topology, banks)) {
    labels[lb.bank->bank_key] = lb.label;
  }
  return labels;
}

std::unique_ptr<Models> TrainAll(const hbm::TopologyConfig& topology,
                                 const std::vector<trace::BankHistory>& banks,
                                 std::uint64_t seed, FitTimes& times,
                                 Tracer& tracer) {
  std::vector<core::LabelledBank> labelled;
  times.label_s = TimedStep(tracer, "analysis.label", 0.0,
                            [&] { labelled = LabelBanks(topology, banks); });
  auto models = std::make_unique<Models>(topology);
  Rng rng(seed);
  FitModels(*models, labelled, rng, times, 0.0, tracer);
  return models;
}

std::uint64_t SaveModels(const Models& models, const std::string& prefix) {
  std::uint64_t bytes = 0;
  auto save = [&](int which, auto&& saver) {
    const std::string path = prefix + kModelSuffix[which];
    std::ofstream out(path, std::ios::binary);
    saver(out);
    out.flush();
    CORDIAL_CHECK_MSG(static_cast<bool>(out), "cannot write " + path);
    bytes += std::filesystem::file_size(path);
  };
  save(0, [&](std::ostream& out) { models.classifier.SaveModel(out); });
  save(1, [&](std::ostream& out) { models.single_predictor.SaveModel(out); });
  save(2, [&](std::ostream& out) { models.double_predictor.SaveModel(out); });
  return bytes;
}

std::unique_ptr<Models> LoadModels(const hbm::TopologyConfig& topology,
                                   const std::string& prefix) {
  auto models = std::make_unique<Models>(topology);
  auto load = [&](int which, auto&& loader) {
    const std::string path = prefix + kModelSuffix[which];
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ParseError("cannot open model " + path);
    loader(in);
  };
  load(0, [&](std::istream& in) { models->classifier.LoadModel(in); });
  load(1, [&](std::istream& in) { models->single_predictor.LoadModel(in); });
  load(2, [&](std::istream& in) { models->double_predictor.LoadModel(in); });
  return models;
}

serve::FleetServerConfig ServeConfig(std::size_t shards) {
  serve::FleetServerConfig config;
  config.shard_count = shards;
  config.queue.capacity = 1024;
  config.queue.policy = serve::OverloadPolicy::kBlock;
  config.queue.batch_max = 256;
  config.engine.retention.skew_policy = trace::TimeSkewPolicy::kDrop;
  config.instrument = true;
  return config;
}

ReferencePass RunReference(const hbm::TopologyConfig& topology,
                           const Models& models,
                           std::span<const trace::MceRecord> records,
                           bool timed) {
  core::PredictionEngine engine(topology, models.classifier,
                                models.single_predictor,
                                &models.double_predictor,
                                ServeConfig(1).engine);
  ReferencePass pass;
  const std::int64_t start = NowNs();
  if (timed) {
    std::int64_t uer_ns = 0, other_ns = 0;
    for (const trace::MceRecord& record : records) {
      const std::int64_t t0 = NowNs();
      engine.Observe(record);
      const std::int64_t dt = NowNs() - t0;
      if (record.type == hbm::ErrorType::kUer) {
        uer_ns += dt;
        ++pass.uer_records;
      } else {
        other_ns += dt;
      }
    }
    pass.uer_s = Seconds(uer_ns);
    pass.non_uer_s = Seconds(other_ns);
  } else {
    for (const trace::MceRecord& record : records) engine.Observe(record);
  }
  pass.observe_s = Seconds(NowNs() - start);
  pass.stats = engine.stats();
  return pass;
}

core::IcrResult BatchIcr(const hbm::TopologyConfig& topology,
                         const Models& models,
                         const std::vector<const trace::BankHistory*>& banks,
                         double& eval_s) {
  const core::IcrEvaluator evaluator(topology);
  core::CordialStrategy strategy(models.classifier, models.single_predictor,
                                 models.double_predictor);
  const std::int64_t start = NowNs();
  const core::IcrResult result = evaluator.Evaluate(banks, strategy);
  eval_s = Seconds(NowNs() - start);
  return result;
}

double MacroF1(const BankClasses& decided, const BankLabels& labels) {
  ml::ConfusionMatrix confusion(hbm::kNumFailureClasses);
  for (const auto& [key, cls] : decided) {
    const auto it = labels.find(key);
    if (it == labels.end()) continue;
    confusion.Add(static_cast<int>(it->second), static_cast<int>(cls));
  }
  return confusion.MacroAverage().f1;
}

// --- file feed ---------------------------------------------------------------

FeedResult RunFeed(const hbm::TopologyConfig& topology, const Models& models,
                   const std::string& text, const std::string& chain_dir,
                   double slowdown, Tracer& tracer) {
  FeedResult result;
  const hbm::AddressCodec codec(topology);
  const std::size_t upper_bound = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  std::vector<ShardSink> sinks(kFeedShards);
  if (tracer.enabled()) {
    for (ShardSink& sink : sinks) sink.arrive.resize(upper_bound);
  }
  std::vector<std::vector<std::int64_t>> submitted_at(kFeedShards);

  serve::FleetServer server(topology, models.classifier,
                            models.single_predictor, &models.double_predictor,
                            ServeConfig(kFeedShards),
                            MakeSink(sinks, codec, 0));
  server.Start();
  std::filesystem::remove_all(chain_dir);
  std::filesystem::create_directories(chain_dir);
  persist::CheckpointChain chain(
      persist::ChainConfig{chain_dir, kCompactEvery});

  double delta_writes = 0.0, dirty_share_sum = 0.0;
  auto checkpoint = [&] {
    const std::int64_t start = NowNs();
    Scope stall(tracer, "ckpt.stall");
    {
      Scope drain(tracer, "serve.drain");
      server.Drain();
    }
    persist::ChainWriteResult written;
    {
      Scope write(tracer, "persist.write");
      written = OnDrained(server, result.drain_races,
                          [&] { return chain.Write(server); });
      write.Rename(written.full ? "persist.full" : "persist.delta");
    }
    Spin(static_cast<std::int64_t>(slowdown *
                                   static_cast<double>(NowNs() - start)));
    result.stall_ms.push_back(Millis(NowNs() - start));
    result.ckpt_bytes += written.bytes;
    result.banks_written += written.banks_written;
    if (!written.full) {
      const std::size_t banks = OnDrained(
          server, result.drain_races, [&] { return server.TotalBankCount(); });
      dirty_share_sum +=
          static_cast<double>(written.banks_written) /
          static_cast<double>(std::max<std::size_t>(1, banks));
      delta_writes += 1.0;
    }
  };

  std::vector<trace::MceRecord> batch;
  batch.reserve(kFeedBatch);
  std::string line;
  std::size_t pos = 0;
  std::size_t submitted = 0;
  const std::int64_t start = NowNs();
  std::int64_t next_scrape = start + kScrapePeriodNs;
  {
    Scope root(tracer, "feed.replay");
    bool more = true;
    for (std::int64_t b = 0; more; ++b) {
      const std::int64_t step_start = NowNs();
      const std::size_t limit =
          std::min(kFeedBatch, kCheckpointEvery -
                                      submitted % kCheckpointEvery);
      {
        Scope parse(tracer, "trace.parse", b);
        batch.clear();
        while (batch.size() < limit) {
          if (pos >= text.size()) {
            more = false;
            break;
          }
          std::size_t eol = text.find('\n', pos);
          if (eol == std::string::npos) eol = text.size();
          line.assign(text, pos, eol - pos);
          pos = eol + 1;
          if (line.empty() || trace::LogCodec::IsCsvHeader(line)) continue;
          ++result.lines;
          try {
            batch.push_back(trace::LogCodec::ParseCsvLine(line, server.codec()));
          } catch (const ParseError&) {
            ++result.malformed;
          }
        }
      }
      if (batch.empty()) continue;
      std::size_t accepted = 0;
      {
        Scope submit(tracer, "serve.submit", b);
        accepted = server.SubmitBatch(batch);
      }
      if (tracer.enabled()) {
        Scope bookkeeping(tracer, "bench.bookkeeping", b);
        const std::int64_t now = NowNs();
        for (const trace::MceRecord& record : batch) {
          submitted_at[serve::FleetServer::ShardIndexOf(
                           codec.BankKey(record.address), kFeedShards)]
              .push_back(now);
        }
      }
      result.refused += batch.size() - accepted;
      submitted += accepted;
      Spin(static_cast<std::int64_t>(slowdown *
                                     static_cast<double>(NowNs() - step_start)));
      if (accepted > 0 && submitted % kCheckpointEvery == 0) {
        checkpoint();
      }
      if (NowNs() >= next_scrape) {
        Scope scrape(tracer, "obs.scrape");
        const std::string page = obs::RenderPrometheus(server.MetricsSnapshot());
        CORDIAL_CHECK_MSG(!page.empty(), "empty metrics scrape");
        next_scrape += kScrapePeriodNs;
      }
    }
    checkpoint();  // final checkpoint, as the daemon writes at end of feed
  }
  result.wall_s = Seconds(NowNs() - start);
  result.records = submitted;
  if (delta_writes > 0.0) result.dirty_share = dirty_share_sum / delta_writes;

  server.Stop();
  result.stats = server.AggregateStats();
  result.invalid = server.invalid_records();
  for (std::size_t s = 0; s < server.shard_count(); ++s) {
    result.processed_per_shard.push_back(server.shard(s).counters().processed);
  }
  CollectSinks(sinks, result.classes);
  if (tracer.enabled()) {
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      const std::size_t n = std::min<std::size_t>(sinks[s].calls,
                                                  submitted_at[s].size());
      for (std::size_t k = 0; k < n; ++k) {
        result.queue_ms.push_back(
            Millis(sinks[s].arrive[k] - submitted_at[s][k]));
      }
    }
  }

  // Restart: a fresh server recovers the chain and must checkpoint to the
  // same bytes as the live server it replaces.
  serve::FleetServer fresh(topology, models.classifier,
                           models.single_predictor, &models.double_predictor,
                           ServeConfig(kFeedShards));
  persist::CheckpointChain recovery_chain(
      persist::ChainConfig{chain_dir, kCompactEvery});
  persist::ChainRecoveryOutcome outcome;
  {
    Scope recover(tracer, "persist.recover");
    const std::int64_t t0 = NowNs();
    outcome = recovery_chain.Recover(fresh);
    result.recover_s = Seconds(NowNs() - t0);
  }
  result.members_applied = outcome.applied.size();
  std::ostringstream live_bytes, recovered_bytes;
  server.SaveCheckpoint(live_bytes, core::StateEncoding::kBinary);
  fresh.SaveCheckpoint(recovered_bytes, core::StateEncoding::kBinary);
  result.recovered_identical = !outcome.fresh_start() && !outcome.fell_back &&
                               live_bytes.str() == recovered_bytes.str();
  std::filesystem::remove_all(chain_dir);
  return result;
}

// --- TCP ingest ----------------------------------------------------------------

TcpResult RunTcp(const hbm::TopologyConfig& topology, const Models& models,
                 std::span<const trace::MceRecord> records,
                 double rate, std::int64_t sink_spin_ns, Tracer& tracer) {
  TcpResult result;
  result.records = records.size();
  result.batches = (records.size() + kTcpBatch - 1) / kTcpBatch;
  const hbm::AddressCodec codec(topology);

  // The k-th sink call on shard s is the k-th record routed there.
  std::vector<std::vector<std::uint32_t>> batch_of(kTcpShards);
  for (std::size_t i = 0; i < records.size(); ++i) {
    batch_of[serve::FleetServer::ShardIndexOf(
                 codec.BankKey(records[i].address), kTcpShards)]
        .push_back(static_cast<std::uint32_t>(i / kTcpBatch));
  }
  std::vector<ShardSink> sinks(kTcpShards);
  for (std::size_t s = 0; s < kTcpShards; ++s) {
    sinks[s].arrive.assign(batch_of[s].size(), 0);
  }

  serve::FleetServer server(topology, models.classifier,
                            models.single_predictor, &models.double_predictor,
                            ServeConfig(kTcpShards),
                            MakeSink(sinks, codec, sink_spin_ns));
  server.Start();
  net::IngestServer ingest(server);
  ingest.Start();
  net::IngestClient client;
  client.Connect("127.0.0.1", ingest.port());

  const double period_ns =
      static_cast<double>(kTcpBatch) / rate * 1e9;
  const std::int64_t t0 = NowNs() + 2'000'000;
  auto due_of = [&](std::size_t b) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(b) * period_ns);
  };
  std::int64_t next_scrape = t0 + kScrapePeriodNs;
  result.late_ms.reserve(result.batches);
  {
    Scope root(tracer, "tcp.pass");
    for (std::size_t b = 0; b < result.batches; ++b) {
      const std::int64_t due = due_of(b);
      {
        // Sleep, never spin: the load generator must not take a core from
        // the path it measures. Its lateness is reported, and counts in
        // every request's latency.
        Scope wait(tracer, "loadgen.wait", static_cast<std::int64_t>(b));
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      result.late_ms.push_back(Millis(NowNs() - due));
      const std::size_t first = b * kTcpBatch;
      const std::size_t count =
          std::min(kTcpBatch, records.size() - first);
      net::Message reply;
      {
        Scope call(tracer, "net.call", static_cast<std::int64_t>(b));
        reply = client.SendBatch(records.subspan(first, count));
      }
      if (std::holds_alternative<net::Ack>(reply)) ++result.acked;
      if (NowNs() >= next_scrape) {
        Scope scrape(tracer, "obs.scrape");
        const std::string page = obs::RenderPrometheus(obs::MergeSnapshots(
            {server.MetricsSnapshot(), ingest.MetricsSnapshot()}));
        CORDIAL_CHECK_MSG(!page.empty(), "empty metrics scrape");
        next_scrape += kScrapePeriodNs;
      }
    }
  }
  server.Drain();
  client.Close();
  ingest.Stop();
  server.Stop();

  result.stats = server.AggregateStats();
  std::vector<std::int64_t> decided(result.batches, 0);
  for (std::size_t s = 0; s < kTcpShards; ++s) {
    result.processed_per_shard.push_back(server.shard(s).counters().processed);
    result.sink_calls += sinks[s].calls;
    const std::size_t n =
        std::min<std::size_t>(sinks[s].calls, batch_of[s].size());
    for (std::size_t k = 0; k < n; ++k) {
      std::int64_t& last = decided[batch_of[s][k]];
      last = std::max(last, sinks[s].arrive[k]);
    }
  }
  result.request_ms.reserve(result.batches);
  for (std::size_t b = 0; b < result.batches; ++b) {
    result.request_ms.push_back(Millis(decided[b] - due_of(b)));
    result.completion_s = std::max(result.completion_s, Seconds(decided[b] - t0));
  }
  CollectSinks(sinks, result.classes);
  return result;
}

// --- train round ---------------------------------------------------------------

TrainResult RunTrainRound(const hbm::TopologyConfig& topology,
                          const std::vector<trace::BankHistory>& banks,
                          std::uint64_t split_seed, double slowdown,
                          Tracer& tracer) {
  TrainResult result;
  const std::int64_t start = NowNs();
  Scope root(tracer, "train.round");
  Rng rng(split_seed);

  std::vector<core::LabelledBank> labelled;
  result.fit.label_s = TimedStep(tracer, "analysis.label", slowdown, [&] {
    labelled = LabelBanks(topology, banks);
  });
  CORDIAL_CHECK_MSG(labelled.size() >= 10, "train round needs UER banks");

  std::vector<core::LabelledBank> train, test;
  TimedStep(tracer, "ml.split", slowdown, [&] {
    ml::Dataset label_only(1, hbm::kNumFailureClasses);
    for (const core::LabelledBank& lb : labelled) {
      const double zero = 0.0;
      label_only.AddRow(std::span<const double>(&zero, 1),
                        static_cast<int>(lb.label));
    }
    const ml::TrainTestSplit split = ml::StratifiedSplit(label_only, 0.3, rng);
    for (std::size_t i : split.train) train.push_back(labelled[i]);
    for (std::size_t i : split.test) test.push_back(labelled[i]);
  });

  result.models = std::make_unique<Models>(topology);
  FitModels(*result.models, train, rng, result.fit, slowdown, tracer);
  TimedStep(tracer, "ml.eval_classifier", slowdown, [&] {
    result.confusion = result.models->classifier.Evaluate(test);
  });

  for (const core::LabelledBank& lb : test) result.test_banks.push_back(lb.bank);
  result.eval_s = TimedStep(tracer, "core.eval", slowdown, [&] {
    const core::IcrEvaluator evaluator(topology);
    core::CordialStrategy cordial(result.models->classifier,
                                  result.models->single_predictor,
                                  result.models->double_predictor);
    // One call per held-out bank: the per-bank replay latency. Ledger
    // budgets are per bank, so the per-bank results sum to the set's.
    for (const trace::BankHistory* bank : result.test_banks) {
      const std::int64_t t0 = NowNs();
      AddIcr(result.cordial, evaluator.Evaluate({bank}, cordial));
      result.bank_ms.push_back(Millis(NowNs() - t0));
    }
    core::NeighborRowsStrategy neighbor(4, topology);
    result.neighbor = evaluator.Evaluate(result.test_banks, neighbor);
  });
  result.train_s = Seconds(NowNs() - start);
  return result;
}

}  // namespace perfbench
