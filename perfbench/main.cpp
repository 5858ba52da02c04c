// perfbench: the repository's seeded end-to-end and per-layer benchmark.
//
//   perfbench --workload <feed_dense|tcp_uer_open|train_paper> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--chain-dir <dir>] [--slowdown <share>] [--force-fail]
//             [--commit <id>]
//
// Generates its inputs from the seed with trace::FleetGenerator, drives the
// library's public APIs the way cordial_serverd, cordial_feed and
// `cordial_cli train` do, checks the outputs, and prints one JSON line:
// end-to-end metrics, the per-layer raw measurements, the correctness
// tally and the run's provenance. perfbench/run.py builds this binary,
// reduces the spans of a traced run and prints the final result line.
#include <sys/prctl.h>
#include <sys/statfs.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/ingest_client.hpp"
#include "net/ingest_server.hpp"
#include "net/wire.hpp"
#include "paths.hpp"
#include "trace/fleet.hpp"
#include "trace/log_codec.hpp"

namespace perfbench {
namespace {

// --- fixed workload parameters ---------------------------------------------
// The serving workloads run one deployed model set, trained once per build
// on the paper-scale fleet of this seed and cached (see --model-dir).
constexpr std::uint64_t kModelSeed = 20250623;
// feed_dense: every UER bank padded with CE background to this many events.
constexpr std::size_t kDenseEvents = 1000;
// tcp_uer_open: the nominal offered rate for decision latency is an eighth
// of the saturated capacity measured before this benchmark's first
// baseline (median 204k rec/s over seeds 1-10 on 4 cores). On a shared
// host whose speed swings by 2x within a run, a half or a quarter of it
// saturated the two shards mid-pass, and the latency then measured the
// host's slow phases (README.md, "one cycle, and the nominal rate"). The
// saturation rate is far above what two shards can take; each cycle makes
// this many such passes.
constexpr double kNominalRate = 25'500.0;
constexpr double kSaturationRate = 1'000'000.0;
constexpr int kSaturationPasses = 2;
// train_paper: rounds with distinct 70:30 splits whose held-out results
// are pooled; further rounds repeat these splits.
constexpr int kPooledRounds = 4;
// Records a traced run replays through a serving path its workload does not
// itself exercise (see README.md, "Per-layer metrics").
constexpr std::size_t kSweepRecords = 100'000;
// setup_s samples are taken in groups of this many: one group before the
// measured loop and one after each unit of work, so that they span the run.
constexpr int kSetupPerGroup = 3;

using Scope = Tracer::Scope;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double slowdown = 0.0;
  bool force_fail = false;
  std::string work_dir = ".bench_build/work";
  std::string chain_dir;  ///< checkpoint chain; default <work_dir>/chain
  std::string model_dir = ".bench_build/models";
  std::string commit = "unknown";
};

/// Correctness tally plus every number the run reports. Checks and units
/// of work are counted apart, so that one failed check shows in ok_ratio
/// even among millions of records.
struct Report {
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::uint64_t work = 0;
  std::uint64_t work_failed = 0;
  std::vector<std::string> failures;
  JsonObject metrics;
  JsonObject layers;
  JsonObject info;

  std::uint64_t attempted() const { return checks + work; }
  std::uint64_t failed() const { return checks_failed + work_failed; }
  /// The share of work done times the share of checks passed.
  double OkRatio() const {
    auto ok_share = [](std::uint64_t bad, std::uint64_t all) {
      return all == 0 ? 1.0
                      : 1.0 - static_cast<double>(bad) / static_cast<double>(all);
    };
    return ok_share(work_failed, work) * ok_share(checks_failed, checks);
  }
  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++checks_failed;
      failures.push_back(what);
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
  /// Units of work attempted, of which `bad` were refused or lost.
  void Work(std::uint64_t units, std::uint64_t bad, const std::string& what) {
    work += units;
    work_failed += bad;
    if (bad > 0) {
      failures.push_back(what);
      std::cerr << "FAILED: " << bad << " " << what << "\n";
    }
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.Raw(name, JsonObject().Num("value", value).Str("unit", unit).Render());
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.Raw(name, JsonObject().Num("value", value).Str("unit", unit).Render());
  }
};

struct World {
  hbm::TopologyConfig topology;
  trace::GeneratedFleet fleet;
  std::vector<trace::BankHistory> banks;
};

World MakeWorld(std::uint64_t seed) {
  World world;
  trace::CalibrationProfile profile;
  profile.scale = 1.0;
  world.fleet = trace::FleetGenerator(world.topology, profile).Generate(seed);
  world.banks = world.fleet.log.GroupByBank(hbm::AddressCodec(world.topology));
  return world;
}

/// A UER bank padded with CE background up to `target_events`, the
/// construction the serve benches use for deployment-like densities.
trace::BankHistory Densify(const trace::BankHistory& bank,
                           std::size_t target_events, std::uint32_t rows,
                           Rng& rng) {
  trace::BankHistory dense = bank;
  const double horizon = bank.events.back().time_s;
  while (dense.events.size() < target_events) {
    trace::MceRecord ce = bank.events[rng.UniformU64(bank.events.size())];
    ce.type = hbm::ErrorType::kCe;
    ce.time_s = rng.UniformReal(0.0, horizon);
    const std::int64_t jittered =
        static_cast<std::int64_t>(ce.address.row) + rng.UniformInt(-64, 64);
    ce.address.row = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(jittered, 0, rows - 1));
    dense.events.push_back(ce);
  }
  std::stable_sort(dense.events.begin(), dense.events.end(),
                   [](const trace::MceRecord& a, const trace::MceRecord& b) {
                     return a.time_s < b.time_s;
                   });
  return dense;
}

std::vector<trace::MceRecord> MergeByTime(
    const std::vector<const trace::BankHistory*>& banks) {
  std::vector<trace::MceRecord> stream;
  for (const trace::BankHistory* bank : banks) {
    stream.insert(stream.end(), bank->events.begin(), bank->events.end());
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const trace::MceRecord& a, const trace::MceRecord& b) {
                     return a.time_s < b.time_s;
                   });
  return stream;
}

std::string ToCsv(std::span<const trace::MceRecord> records) {
  trace::ErrorLog log;
  for (const trace::MceRecord& record : records) log.Add(record);
  std::ostringstream out;
  trace::LogCodec::WriteCsv(log, out);
  return out.str();
}

std::vector<const trace::BankHistory*> Pointers(
    const std::vector<trace::BankHistory>& banks) {
  std::vector<const trace::BankHistory*> out;
  for (const trace::BankHistory& bank : banks) out.push_back(&bank);
  return out;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return os.str();
    }
  }
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::ostringstream os;
    os.precision(6);
    os << values[i];
    out += (i > 0 ? ", " : "") + os.str();
  }
  return out + "]";
}

bool StatsMatchIcr(const core::EngineStats& s, const core::IcrResult& icr) {
  return s.uer_rows_total == icr.total_uer_rows &&
         s.uer_rows_covered == icr.covered_rows &&
         s.uer_rows_covered_by_bank == icr.covered_by_bank_spare;
}

void ReportCoreCounts(Report& report, const core::EngineStats& stats) {
  report.Layer("core.events", static_cast<double>(stats.events), "count");
  report.Layer("core.uer_events", static_cast<double>(stats.uer_events), "count");
  report.Layer("core.banks_classified",
               static_cast<double>(stats.banks_classified), "count");
  report.Layer("core.predictions_issued",
               static_cast<double>(stats.predictions_issued), "count");
  report.Layer("core.rows_isolated", static_cast<double>(stats.rows_isolated),
               "count");
  report.Layer("core.spare_yield",
               stats.rows_isolated == 0
                   ? 0.0
                   : static_cast<double>(stats.uer_rows_covered) /
                         static_cast<double>(stats.rows_isolated),
               "ratio");
}

void ReportReference(Report& report, const ReferencePass& ref,
                     std::size_t records) {
  const double busy = ref.uer_s + ref.non_uer_s;
  const std::size_t non_uer = records - ref.uer_records;
  report.Layer("core.observe_ns_per_rec",
               busy * 1e9 / static_cast<double>(std::max<std::size_t>(1, records)),
               "ns");
  report.Layer("core.observe_ns_non_uer",
               ref.non_uer_s * 1e9 /
                   static_cast<double>(std::max<std::size_t>(1, non_uer)),
               "ns");
  report.Layer("core.observe_us_uer",
               ref.uer_s * 1e6 /
                   static_cast<double>(std::max<std::size_t>(1, ref.uer_records)),
               "us");
  report.Layer("core.uer_time_share", busy > 0 ? ref.uer_s / busy : 0.0,
               "ratio");
}

void ReportFit(Report& report, const FitTimes& fit) {
  report.Layer("analysis.label_s", fit.label_s, "s");
  report.Layer("ml.fit_classifier_s", fit.classifier_s, "s");
  report.Layer("ml.fit_single_s", fit.single_s, "s");
  report.Layer("ml.fit_double_s", fit.double_s, "s");
}

double ShardSkew(const std::vector<std::uint64_t>& processed) {
  if (processed.empty()) return 0.0;
  double sum = 0.0, max = 0.0;
  for (std::uint64_t p : processed) {
    sum += static_cast<double>(p);
    max = std::max(max, static_cast<double>(p));
  }
  return sum > 0 ? max / (sum / static_cast<double>(processed.size())) : 0.0;
}

/// Per-layer numbers of a file-feed replay that spans cannot give.
void ReportFeedLayers(Report& report, const FeedResult& feed) {
  report.Layer("feed.records", static_cast<double>(feed.records), "count");
  const Tail queue_tail = TailOf(feed.queue_ms, feed.queue_ms.size());
  report.Layer("serve.queue_ms_p50", Median(feed.queue_ms), "ms");
  report.Layer("serve.queue_ms_tail", queue_tail.value, "ms");
  report.info.Num("serve.queue_ms_tail.percentile", queue_tail.percentile);
  report.Layer("serve.shard_skew", ShardSkew(feed.processed_per_shard), "ratio");
  report.Layer("persist.bytes_per_bank",
               static_cast<double>(feed.ckpt_bytes) /
                   static_cast<double>(std::max<std::uint64_t>(1, feed.banks_written)),
               "B");
  report.Layer("persist.dirty_share", feed.dirty_share, "ratio");
  report.Layer("persist.members_applied",
               static_cast<double>(feed.members_applied), "count");
  report.Layer("persist.bytes_per_rec",
               static_cast<double>(feed.ckpt_bytes) /
                   static_cast<double>(std::max<std::size_t>(1, feed.records)),
               "B");
  report.Layer("persist.recover_s", feed.recover_s, "s");
}

void ReportTcpLayers(Report& report, const TcpResult& tcp) {
  report.Layer("net.acked_share",
               static_cast<double>(tcp.acked) /
                   static_cast<double>(std::max<std::size_t>(1, tcp.batches)),
               "ratio");
  report.Layer("loadgen.late_ms_p50", Median(tcp.late_ms), "ms");
  report.Layer("loadgen.late_ms_max",
               tcp.late_ms.empty()
                   ? 0.0
                   : *std::max_element(tcp.late_ms.begin(), tcp.late_ms.end()),
               "ms");
}

/// Isolated encode and decode passes over the Batch frames a TCP feeder
/// would send for `records`.
void ReportWire(Report& report, std::span<const trace::MceRecord> records) {
  const std::size_t batch = kTcpBatch;
  std::vector<std::string> frames;
  frames.reserve(records.size() / batch + 1);
  const std::int64_t t0 = NowNs();
  for (std::size_t first = 0, seq = 1; first < records.size();
       first += batch, ++seq) {
    frames.push_back(net::EncodeBatchFrame(
        seq, records.subspan(first, std::min(batch, records.size() - first))));
  }
  const std::int64_t encode_ns = NowNs() - t0;
  std::uint64_t bytes = 0;
  std::vector<std::string> payloads(frames.size());
  net::FrameAssembler assembler;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    bytes += frames[i].size();
    assembler.Append(frames[i]);
    CORDIAL_CHECK_MSG(assembler.Next(payloads[i]), "frame did not assemble");
  }
  std::size_t decoded = 0;
  const std::int64_t t1 = NowNs();
  for (const std::string& payload : payloads) {
    decoded += std::get<net::Batch>(net::DecodeMessage(payload)).records.size();
  }
  const std::int64_t decode_ns = NowNs() - t1;
  report.Check(decoded == records.size(), "decoded frames hold every record");
  const double n = static_cast<double>(std::max<std::size_t>(1, records.size()));
  report.Layer("net.encode_ns_per_rec", static_cast<double>(encode_ns) / n, "ns");
  report.Layer("trace.decode_ns_per_rec", static_cast<double>(decode_ns) / n,
               "ns");
  report.Layer("net.bytes_per_rec", static_cast<double>(bytes) / n, "B");
}

/// Serving workloads serve the deployed model set: trained on the
/// kModelSeed fleet the way `cordial_cli train` does, saved once into the
/// model cache, loaded by every setup. A traced run fits it again to time
/// the ml and analysis layers.
struct Serving {
  BankLabels labels;  ///< hindsight labels of the served fleet
  std::string prefix;
  std::unique_ptr<Models> models;
};

Serving PrepareServing(const World& world, const Args& args, Tracer& tracer,
                       Report& report) {
  Serving serving;
  serving.labels = LabelAll(world.topology, world.banks);
  serving.prefix = args.model_dir + "/model";
  const bool cached =
      std::filesystem::exists(serving.prefix + ".double.model");
  if (!cached || args.trace) {
    const World model_world = MakeWorld(kModelSeed);
    FitTimes fit;
    auto trained = TrainAll(model_world.topology, model_world.banks,
                            kModelSeed, fit, tracer);
    ReportFit(report, fit);
    if (!cached) {
      const std::string staging = args.work_dir + "/models";
      std::filesystem::create_directories(staging);
      SaveModels(*trained, staging + "/model");
      std::filesystem::create_directories(
          std::filesystem::path(args.model_dir).parent_path());
      std::error_code ignored;  // a concurrent run may have won the rename
      std::filesystem::rename(staging, args.model_dir, ignored);
    }
  }
  std::uint64_t bytes = 0;
  for (const char* suffix : {".pattern.model", ".single.model", ".double.model"}) {
    bytes += std::filesystem::file_size(serving.prefix + suffix);
  }
  report.Layer("ml.model_bytes", static_cast<double>(bytes), "B");
  return serving;
}

/// setup_s samples of one run; the median is reported.
struct SetupSamples {
  std::vector<double> setup_s;
  std::vector<double> load_s;  ///< serving workloads: the model loads

  void Publish(Report& report) const {
    report.Metric("setup_s", Median(setup_s), "s");
    report.info.Raw("setup_s.samples", JsonList(setup_s));
    if (!load_s.empty()) report.Layer("ml.load_s", Median(load_s), "s");
  }
};

/// One group of setup_s samples for a serving workload: load the three
/// models, then build and start the serving stack with `start`, which
/// calls `ready()` once it could take records and then tears the stack
/// down. Returns the models of the group's first sample.
template <typename StartFn>
std::unique_ptr<Models> ServingSetup(const World& world, const Serving& serving,
                                     Tracer& tracer, SetupSamples& samples,
                                     StartFn&& start) {
  std::unique_ptr<Models> first;
  for (int i = 0; i < kSetupPerGroup; ++i) {
    const std::int64_t t0 = NowNs();
    std::int64_t t_ready = 0;
    {
      Scope scope(tracer, "setup");
      std::unique_ptr<Models> models;
      {
        Scope load(tracer, "ml.load");
        models = LoadModels(world.topology, serving.prefix);
      }
      samples.load_s.push_back(Seconds(NowNs() - t0));
      start(*models, [&] { t_ready = NowNs(); });
      if (!first) first = std::move(models);
    }
    samples.setup_s.push_back(Seconds(t_ready - t0));
  }
  return first;
}

void Finish(Report& report, const Args& args) {
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("ok_ratio", report.OkRatio(), "ratio");
  report.info.Num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Num("cordial_threads", static_cast<double>(ThreadCount()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Str("commit", args.commit)
      .Num("seed", static_cast<double>(args.seed))
      .Str("chain_fs", FilesystemOf(
          std::filesystem::path(args.chain_dir).parent_path().string()))
      .Num("slowdown", args.slowdown);
  std::string failures = "[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += JsonObject::Quote(report.failures[i]);
  }
  report.info.Raw("failures", failures + "]");
}

/// Alternate untraced and traced repetitions of one unit of work until the
/// run's time is spent: at least one of each in a traced run, at least one
/// untraced otherwise. `after` runs after every unit. Returns the unit
/// results split by mode.
template <typename Result, typename UnitFn, typename AfterFn>
void Repeat(const Args& args, std::int64_t deadline, Tracer& tracer,
            std::vector<Result>& untraced, std::vector<Result>& traced,
            UnitFn&& unit, AfterFn&& after) {
  Tracer off(false);
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    (trace_this ? traced : untraced).push_back(unit(trace_this ? tracer : off));
    after();
    const bool enough = untraced.size() >= 1 && (!args.trace || traced.size() >= 1);
    if (enough && NowNs() >= deadline && (!args.trace || i % 2 == 1)) break;
  }
}

// --- feed_dense --------------------------------------------------------------

void FeedDense(const Args& args, Tracer& tracer, Report& report) {
  const World world = MakeWorld(args.seed);
  Rng rng(args.seed ^ 0x6a09e667f3bcc909ULL);
  std::vector<trace::BankHistory> dense_banks;
  for (const trace::BankHistory& bank : world.banks) {
    if (bank.HasUer()) {
      dense_banks.push_back(
          Densify(bank, kDenseEvents, world.topology.rows_per_bank, rng));
    }
  }
  const std::vector<trace::MceRecord> stream = MergeByTime(Pointers(dense_banks));
  const std::string text = ToCsv(stream);
  report.info.Num("input.records", static_cast<double>(stream.size()))
      .Num("input.banks", static_cast<double>(dense_banks.size()))
      .Num("input.csv_bytes", static_cast<double>(text.size()));

  Serving serving = PrepareServing(world, args, tracer, report);
  SetupSamples setup;
  auto setup_group = [&] {
    return ServingSetup(world, serving, tracer, setup,
                        [&](const Models& m, auto&& ready) {
      serve::FleetServer server(world.topology, m.classifier, m.single_predictor,
                                &m.double_predictor, ServeConfig(kFeedShards));
      server.Start();
      ready();
      server.Stop();
    });
  };
  serving.models = setup_group();
  const Models& models = *serving.models;

  ReferencePass ref = RunReference(world.topology, models, stream, args.trace);
  if (args.force_fail) ++ref.stats.events;
  double eval_s = 0.0;
  const core::IcrResult batch =
      BatchIcr(world.topology, models, Pointers(dense_banks), eval_s);
  report.Check(StatsMatchIcr(ref.stats, batch), "streaming == batch ICR replay");
  report.Layer("core.eval_s", eval_s, "s");

  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::string& chain_dir = args.chain_dir;
  std::vector<FeedResult> untraced, traced;
  Repeat(args, deadline, tracer, untraced, traced, [&](Tracer& t) {
    return RunFeed(world.topology, models, text, chain_dir, args.slowdown, t);
  }, setup_group);
  setup.Publish(report);

  std::uint64_t drain_races = 0;
  for (const std::vector<FeedResult>* set : {&untraced, &traced}) {
    for (const FeedResult& feed : *set) {
      drain_races += feed.drain_races;
      report.Work(feed.lines, feed.malformed + feed.refused + feed.invalid,
                  "malformed, refused or invalid lines");
      report.Check(feed.stats == ref.stats, "3 shards == 1 engine");
      report.Check(feed.recovered_identical,
                   "recovered checkpoint == live checkpoint");
    }
  }
  // Stalls are pooled over the run's replays; every replay makes the same
  // number of checkpoints.
  std::vector<double> rate, stalls;
  for (const FeedResult& feed : untraced) {
    rate.push_back(static_cast<double>(feed.records) / feed.wall_s);
    stalls.insert(stalls.end(), feed.stall_ms.begin(), feed.stall_ms.end());
  }
  const FeedResult& last = untraced.back();
  const Tail stall_tail = TailOf(stalls, last.stall_ms.size());
  report.info.Num("replays", static_cast<double>(untraced.size()))
      .Num("latency_ms_tail.percentile", stall_tail.percentile)
      .Num("latency_ms_tail.samples", static_cast<double>(stall_tail.samples))
      .Num("ckpt_bytes_per_rec", static_cast<double>(last.ckpt_bytes) /
                                     static_cast<double>(last.records))
      .Num("recover_s", last.recover_s)
      .Str("chain_dir", chain_dir)
      .Num("drain_race_retries", static_cast<double>(drain_races));
  report.info.Raw("rec_per_s.samples", JsonList(rate));
  report.Metric("rec_per_s", Median(rate), "1/s");
  report.Metric("latency_ms_p50", Median(stalls), "ms");
  report.Metric("latency_ms_tail", stall_tail.value, "ms");
  report.Metric("icr", last.stats.Icr(), "ratio");
  report.Metric("macro_f1", MacroF1(last.classes, serving.labels), "ratio");

  if (!args.trace) return;
  const FeedResult& feed = traced.back();
  ReportFeedLayers(report, feed);
  ReportCoreCounts(report, feed.stats);
  ReportReference(report, ref, stream.size());
  std::vector<double> traced_rate;
  for (const FeedResult& f : traced) {
    traced_rate.push_back(static_cast<double>(f.records) / f.wall_s);
  }
  report.Layer("tracing.overhead_share", 1.0 - Median(traced_rate) / Median(rate),
               "ratio");
  // Layers this workload's own path does not run: the TCP path over a prefix.
  const TcpResult tcp = RunTcp(
      world.topology, models,
      std::span<const trace::MceRecord>(stream).first(
          std::min(kSweepRecords, stream.size())),
      kNominalRate, 0, tracer);
  report.Check(tcp.acked == tcp.batches && tcp.sink_calls == tcp.records,
               "TCP sweep: every batch acked and decided");
  ReportTcpLayers(report, tcp);
  ReportWire(report, stream);
}

// --- tcp_uer_open --------------------------------------------------------------

void TcpUerOpen(const Args& args, Tracer& tracer, Report& report) {
  const World world = MakeWorld(args.seed);
  const std::vector<trace::MceRecord>& records = world.fleet.log.records();
  std::size_t uer = 0;
  for (const trace::MceRecord& r : records) uer += r.type == hbm::ErrorType::kUer;
  report.info.Num("input.records", static_cast<double>(records.size()))
      .Num("input.uer_records", static_cast<double>(uer))
      .Num("input.banks", static_cast<double>(world.banks.size()));

  Serving serving = PrepareServing(world, args, tracer, report);
  SetupSamples setup;
  auto setup_group = [&] {
    return ServingSetup(world, serving, tracer, setup,
                        [&](const Models& m, auto&& ready) {
      serve::FleetServer server(world.topology, m.classifier, m.single_predictor,
                                &m.double_predictor, ServeConfig(kTcpShards));
      server.Start();
      net::IngestServer ingest(server);
      ingest.Start();
      net::IngestClient client;
      client.Connect("127.0.0.1", ingest.port());
      ready();
      client.Close();
      ingest.Stop();
      server.Stop();
    });
  };
  serving.models = setup_group();
  const Models& models = *serving.models;

  ReferencePass ref = RunReference(world.topology, models, records, args.trace);
  if (args.force_fail) ++ref.stats.events;
  double eval_s = 0.0;
  const core::IcrResult batch =
      BatchIcr(world.topology, models, Pointers(world.banks), eval_s);
  report.Check(StatsMatchIcr(ref.stats, batch), "streaming == batch ICR replay");
  report.Layer("core.eval_s", eval_s, "s");

  // The injected slowdown is per-record sink work: the share of the
  // reference engine's mean per-record time.
  const auto sink_spin_ns = static_cast<std::int64_t>(
      args.slowdown * ref.observe_s * 1e9 / static_cast<double>(records.size()));
  auto check = [&](const TcpResult& tcp) {
    const std::uint64_t unacked = (tcp.batches - tcp.acked) * kTcpBatch;
    report.Work(tcp.records, std::min<std::uint64_t>(tcp.records, unacked),
                "records in unacked batches");
    report.Check(tcp.sink_calls == tcp.records, "sink count == records sent");
    report.Check(tcp.stats == ref.stats, "2 shards == 1 engine");
  };
  auto pass_at = [&](double rate, Tracer& t) {
    TcpResult tcp = RunTcp(world.topology, models, records, rate, sink_spin_ns, t);
    check(tcp);
    return tcp;
  };

  // One cycle: a pass at the nominal rate, then in an untraced run
  // kSaturationPasses passes at the saturation rate, where the path
  // completes records at its capacity.
  struct Cycle {
    TcpResult nominal;
    std::vector<double> capacity;
  };
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<Cycle> untraced, traced;
  Repeat(args, deadline, tracer, untraced, traced, [&](Tracer& t) {
    Cycle cycle{pass_at(kNominalRate, t), {}};
    if (!args.trace) {
      Tracer off(false);
      for (int i = 0; i < kSaturationPasses; ++i) {
        const TcpResult sat = pass_at(kSaturationRate, off);
        cycle.capacity.push_back(static_cast<double>(sat.records) / sat.completion_s);
      }
    }
    return cycle;
  }, setup_group);
  setup.Publish(report);
  // Request latencies are pooled over the run's nominal passes; every
  // pass sends the same requests.
  std::vector<double> p50, requests, capacity;
  for (const Cycle& cycle : untraced) {
    p50.push_back(Median(cycle.nominal.request_ms));
    requests.insert(requests.end(), cycle.nominal.request_ms.begin(),
                    cycle.nominal.request_ms.end());
    capacity.insert(capacity.end(), cycle.capacity.begin(), cycle.capacity.end());
  }
  const TcpResult& last = untraced.back().nominal;
  const Tail last_tail = TailOf(requests, last.request_ms.size());
  report.info.Num("nominal_passes", static_cast<double>(untraced.size()))
      .Num("nominal_rate", kNominalRate)
      .Num("latency_ms_tail.percentile", last_tail.percentile)
      .Num("latency_ms_tail.samples", static_cast<double>(last_tail.samples));
  report.info.Raw("latency_ms_p50.samples", JsonList(p50));
  report.Metric("latency_ms_p50", Median(requests), "ms");
  report.Metric("latency_ms_tail", last_tail.value, "ms");
  report.Metric("icr", last.stats.Icr(), "ratio");
  report.Metric("macro_f1", MacroF1(last.classes, serving.labels), "ratio");

  if (!args.trace) {
    report.info.Raw("rec_per_s.samples", JsonList(capacity));
    report.Metric("rec_per_s", Median(capacity), "1/s");
    return;
  }
  const TcpResult& tcp = traced.back().nominal;
  ReportTcpLayers(report, tcp);
  ReportCoreCounts(report, tcp.stats);
  ReportReference(report, ref, records.size());
  std::vector<double> traced_requests;
  for (const Cycle& c : traced) {
    traced_requests.insert(traced_requests.end(), c.nominal.request_ms.begin(),
                           c.nominal.request_ms.end());
  }
  report.Layer("tracing.overhead_share",
               Median(traced_requests) / Median(requests) - 1.0,
               "ratio");
  // Layers this workload's own path does not run: the file feed.
  const FeedResult feed =
      RunFeed(world.topology, models, ToCsv(records), args.chain_dir,
              0.0, tracer);
  report.Check(feed.recovered_identical && feed.stats == ref.stats,
               "file-feed sweep: recovered == live, 3 shards == 1 engine");
  ReportFeedLayers(report, feed);
  ReportWire(report, records);
}

// --- train_paper ---------------------------------------------------------------

bool SameIcr(const core::IcrResult& a, const core::IcrResult& b) {
  return a.covered_rows == b.covered_rows &&
         a.covered_by_bank_spare == b.covered_by_bank_spare &&
         a.total_uer_rows == b.total_uer_rows && a.rows_spared == b.rows_spared &&
         a.banks_spared == b.banks_spared;
}

bool SameRound(const TrainResult& a, const TrainResult& b) {
  for (int t = 0; t < hbm::kNumFailureClasses; ++t) {
    for (int p = 0; p < hbm::kNumFailureClasses; ++p) {
      if (a.confusion.at(t, p) != b.confusion.at(t, p)) return false;
    }
  }
  return SameIcr(a.cordial, b.cordial) && SameIcr(a.neighbor, b.neighbor);
}

void TrainPaper(const Args& args, Tracer& tracer, Report& report) {
  SetThreadCount(std::max(1u, std::thread::hardware_concurrency()));
  hbm::TopologyConfig topology;
  std::filesystem::create_directories(args.work_dir);
  const std::string log_path = args.work_dir + "/fleet.csv";
  std::size_t log_records = 0;
  {
    const World world = MakeWorld(args.seed);
    log_records = world.fleet.log.size();
    std::ofstream out(log_path);
    trace::LogCodec::WriteCsv(world.fleet.log, out);
  }

  SetupSamples setup;
  auto setup_group = [&] {
    std::vector<trace::BankHistory> first;
    for (int i = 0; i < kSetupPerGroup; ++i) {
      Scope scope(tracer, "setup");
      const std::int64_t t0 = NowNs();
      std::ifstream in(log_path);
      const trace::ErrorLog log = trace::LogCodec::ReadCsv(in);
      std::vector<trace::BankHistory> banks =
          log.GroupByBank(hbm::AddressCodec(topology));
      setup.setup_s.push_back(Seconds(NowNs() - t0));
      if (i == 0) first = std::move(banks);
    }
    return first;
  };
  const std::vector<trace::BankHistory> banks = setup_group();
  report.info.Num("input.records", static_cast<double>(log_records))
      .Num("input.banks", static_cast<double>(banks.size()));

  // Round i uses split i % kPooledRounds; rounds past the pooled ones
  // repeat a split and must reproduce it exactly.
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  Tracer off(false);
  std::vector<TrainResult> rounds;
  for (int i = 0; i < kPooledRounds || NowNs() < deadline; ++i) {
    rounds.push_back(RunTrainRound(topology, banks,
                                   args.seed * 1000 + i % kPooledRounds,
                                   args.slowdown, off));
    setup_group();
    if (i >= kPooledRounds) {
      report.Check(SameRound(rounds[i], rounds[i % kPooledRounds]),
                   "a repeated split reproduces its round");
      // A repeat is used only for its time; freeing the rest keeps
      // peak_rss_mb from growing with the number of rounds a run makes.
      TrainResult time_only;
      time_only.train_s = rounds[i].train_s;
      rounds[i] = std::move(time_only);
    }
  }

  ml::ConfusionMatrix confusion(hbm::kNumFailureClasses);
  core::IcrResult cordial, neighbor;
  std::vector<double> bank_ms, train_s;
  for (int i = 0; i < kPooledRounds; ++i) {
    const TrainResult& round = rounds[i];
    confusion.Merge(round.confusion);
    AddIcr(cordial, round.cordial);
    AddIcr(neighbor, round.neighbor);
    bank_ms.insert(bank_ms.end(), round.bank_ms.begin(), round.bank_ms.end());
    report.Work(round.test_banks.size(), 0, "held-out banks");
  }
  for (const TrainResult& round : rounds) train_s.push_back(round.train_s);
  setup.Publish(report);
  report.Check(cordial.Icr() > neighbor.Icr(),
               "held-out ICR: Cordial above Neighbor Rows (Table IV)");

  const TrainResult& first = rounds.front();
  double eval_s = 0.0;
  const core::IcrResult whole =
      BatchIcr(topology, *first.models, first.test_banks, eval_s);
  report.Check(SameIcr(whole, first.cordial),
               "per-bank ICR replays sum to the whole-set replay");

  // Model round trip: SaveModel -> LoadModel -> SaveModel is byte-identical.
  std::uint64_t model_bytes = 0;
  double load_s = 0.0;
  auto round_trip = [&](const auto& model, auto fresh) {
    std::ostringstream a;
    model.SaveModel(a);
    std::istringstream in(a.str());
    const std::int64_t t0 = NowNs();
    fresh.LoadModel(in);
    load_s += Seconds(NowNs() - t0);
    std::ostringstream b;
    fresh.SaveModel(b);
    model_bytes += a.str().size();
    report.Check(a.str() == b.str() && !a.str().empty(),
                 "SaveModel -> LoadModel -> SaveModel byte-identical");
  };
  const Models& models = *first.models;
  round_trip(models.classifier,
             core::PatternClassifier(topology, ml::LearnerKind::kRandomForest));
  round_trip(models.single_predictor,
             core::CrossRowPredictor(topology, ml::LearnerKind::kRandomForest));
  round_trip(models.double_predictor,
             core::CrossRowPredictor(topology, ml::LearnerKind::kRandomForest));

  // Streaming == batch on the held-out banks with the round's models.
  const std::vector<trace::MceRecord> held_out = MergeByTime(first.test_banks);
  ReferencePass ref = RunReference(topology, models, held_out, args.trace);
  if (args.force_fail) ++ref.stats.uer_rows_total;
  report.Check(StatsMatchIcr(ref.stats, first.cordial),
               "held-out streaming == batch ICR replay");

  const Tail tail = TailOf(bank_ms, rounds.front().bank_ms.size());
  report.info.Num("rounds", static_cast<double>(rounds.size()))
      .Num("train_s", Median(train_s))
      .Num("neighbor_icr", neighbor.Icr())
      .Num("latency_ms_tail.percentile", tail.percentile)
      .Num("latency_ms_tail.samples", static_cast<double>(tail.samples));
  report.info.Raw("train_s.samples", JsonList(train_s));
  report.Metric("rec_per_s", static_cast<double>(log_records) / Median(train_s),
                "1/s");
  report.Metric("latency_ms_p50", Median(bank_ms), "ms");
  report.Metric("latency_ms_tail", tail.value, "ms");
  report.Metric("icr", cordial.Icr(), "ratio");
  report.Metric("macro_f1", confusion.MacroAverage().f1, "ratio");

  if (!args.trace) return;
  const TrainResult round =
      RunTrainRound(topology, banks, args.seed * 1000, 0.0, tracer);
  report.Check(SameRound(round, first), "a traced round reproduces its split");
  ReportFit(report, round.fit);
  report.Layer("core.eval_s", round.eval_s, "s");
  report.Layer("ml.load_s", load_s, "s");
  report.Layer("ml.model_bytes", static_cast<double>(model_bytes), "B");
  ReportCoreCounts(report, ref.stats);
  ReportReference(report, ref, held_out.size());
  report.Layer("tracing.overhead_share", round.train_s / first.train_s - 1.0,
               "ratio");
  // Layers a train round does not run: both serving paths over the fleet
  // log with the round's models.
  std::vector<trace::MceRecord> records;
  {
    std::ifstream in(log_path);
    records = trace::LogCodec::ReadCsv(in).records();
  }
  const FeedResult feed =
      RunFeed(topology, models, ToCsv(records), args.chain_dir, 0.0,
              tracer);
  report.Check(feed.recovered_identical, "file-feed sweep: recovered == live");
  ReportFeedLayers(report, feed);
  const TcpResult tcp = RunTcp(
      topology, models,
      std::span<const trace::MceRecord>(records).first(
          std::min(kSweepRecords, records.size())),
      kNominalRate, 0, tracer);
  report.Check(tcp.acked == tcp.batches && tcp.sink_calls == tcp.records,
               "TCP sweep: every batch acked and decided");
  ReportTcpLayers(report, tcp);
  ReportWire(report, records);
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--slowdown") {
      args.slowdown = std::stod(value());
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--chain-dir") {
      args.chain_dir = value();
    } else if (flag == "--model-dir") {
      args.model_dir = value();
    } else if (flag == "--commit") {
      args.commit = value();
    } else if (flag == "--force-fail") {
      args.force_fail = true;
    } else {
      return false;
    }
  }
  if (args.chain_dir.empty()) args.chain_dir = args.work_dir + "/chain";
  return !args.workload.empty() && args.seconds > 0 && args.slowdown >= 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!ParseArgs(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload <feed_dense|tcp_uer_open|"
                   "train_paper> --seed <n> --seconds <s> --trace <0|1> "
                   "[--work-dir <dir>] [--chain-dir <dir>] [--slowdown <share>] "
                   "[--force-fail]\n";
      return 2;
    }
    // Precise sleeps for the open-loop load generator.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Tracer tracer(args.trace);
    Report report;
    if (args.workload == "feed_dense") {
      FeedDense(args, tracer, report);
    } else if (args.workload == "tcp_uer_open") {
      TcpUerOpen(args, tracer, report);
    } else if (args.workload == "train_paper") {
      TrainPaper(args, tracer, report);
    } else {
      std::cerr << "unknown workload " << args.workload << "\n";
      return 2;
    }
    Finish(report, args);
    std::string spans;
    if (args.trace) {
      spans = args.work_dir + "/spans.csv";
      tracer.WriteCsv(spans);
    }
    std::cout << JsonObject()
                     .Bool("correct", report.failed() == 0)
                     .Num("attempted", static_cast<double>(report.attempted()))
                     .Num("failed", static_cast<double>(report.failed()))
                     .Raw("metrics", report.metrics.Render())
                     .Raw("layers", report.layers.Render())
                     .Raw("info", report.info.Render())
                     .Str("spans", spans)
                     .Render()
              << std::endl;
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
