// cordial_serverd — long-running sharded serving daemon.
//
// Consumes a live MCE feed (LogCodec CSV lines on stdin or a FIFO/file),
// routes each record to its bank's shard (serve::FleetServer), checkpoints
// the full engine state periodically, and shuts down cleanly on SIGTERM /
// SIGINT. Restarted with the same --checkpoint path it resumes exactly
// where it stopped — bit-identical ledgers and stats, pinned by the serve
// test suite.
//
// Observability: with --admin-port the daemon serves a loopback HTTP admin
// plane — GET /metrics (Prometheus text: per-shard queue depths, submit→
// processed and Observe latency histograms, sparing/overload counters,
// checkpoint timings), /statusz (human-readable shard table) and /healthz.
// Independently, every --status-every submitted records a one-line status
// goes to stderr so stdin-only deployments get progress without a port.
//
//   cordial_serverd <model_prefix> [options]
//     --input <path>           feed to read (default: stdin). A FIFO works:
//                              mkfifo feed && cordial_serverd m --input feed
//     --checkpoint <path>      checkpoint file; recovered at boot (see
//                              below), rewritten atomically and durably
//                              (tmp + fsync + rename + dir fsync, previous
//                              generation kept at <path>.prev) while running
//
// Boot recovery: a corrupt <path> (truncated by a crash, bit-rotted, or
// written by an incompatible build) is quarantined to <path>.corrupt and
// the daemon falls back to <path>.prev; if that is corrupt too it is
// quarantined likewise and the daemon starts fresh. Either way it comes up
// serving. Quarantines and fallbacks are exported as
// cordial_checkpoint_corrupt_total / cordial_checkpoint_fallback_total on
// /metrics. Fault injection for drills: set CORDIAL_FAILPOINTS (see
// src/common/failpoint.hpp and the catalogue in DESIGN.md).
//     --checkpoint-every <n>   records between periodic checkpoints
//                              (default 5000; 0 = only on shutdown)
//     --checkpoint-mode <m>    full (default) rewrites the whole state file
//                              each cycle; delta treats --checkpoint as a
//                              chain DIRECTORY (created if missing) holding
//                              a binary full plus dirty-bank delta members
//                              under a CRC manifest (persist::CheckpointChain,
//                              DESIGN.md §14). Steady-state cycles then write
//                              only the banks touched since the last cycle.
//                              Inspect/verify/compact the chain offline with
//                              cordial_ckpt.
//     --compact-every <n>      delta mode: deltas per epoch before the chain
//                              is folded into a fresh full (default 16)
//     --shards <n>             engine shards (default 4)
//     --queue-capacity <n>     per-shard queue bound (default 1024)
//     --batch-max <n>          feed records parsed per submit batch, and the
//                              per-shard worker drain batch (default 256).
//                              Batches are capped so checkpoint/status
//                              boundaries land on the exact record counts
//                              the single-record loop produced.
//     --overload <policy>      block | drop-oldest | reject (default block)
//     --admin-port <port>      HTTP admin plane on 127.0.0.1:<port>
//                              (default 0 = off)
//     --listen-port <port>     TCP ingest plane (net::IngestServer) on
//                              --listen-address:<port>; 0 asks the kernel
//                              for an ephemeral port. The bound port is
//                              announced on stderr ("ingest listening on
//                              ..."), so scripts can parse it. With a
//                              listen plane and no --input the daemon skips
//                              stdin and serves until SIGTERM/SIGINT; with
//                              both, the file feed drains first and the
//                              daemon then keeps serving TCP. Periodic
//                              checkpoints track the file feed only — the
//                              final checkpoint on shutdown covers
//                              network-fed state.
//     --listen-address <addr>  interface for --listen-port (default
//                              127.0.0.1)
//     --status-every <n>       records between stderr status lines
//                              (default 10000; 0 = off)
//     --refresh-every <sec>    online learning: run a shadow-training round
//                              every <sec> wall seconds (default 0 = off).
//                              The daemon collects labelled outcomes from
//                              the serving path, retrains a challenger
//                              pattern classifier in the background, and
//                              hot-swaps it into the serving engines when it
//                              beats the champion on held-out replay (see
//                              DESIGN.md §13). Adds /modelz, /modelz/swap
//                              and /modelz/rollback to the admin plane and
//                              cordial_learn_* to /metrics.
//     --promotion-min-icr <r>  absolute held-out ICR floor a challenger
//                              must clear to be promoted (default 0)
//     --version                print the frame versions this build speaks
//
// Models come from `cordial_cli train <log.csv> <model_prefix>`.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/framing.hpp"
#include "common/table.hpp"
#include "core/model_slot.hpp"
#include "core/persist.hpp"
#include "learn/outcome_log.hpp"
#include "learn/shadow_trainer.hpp"
#include "net/ingest_server.hpp"
#include "obs/admin_server.hpp"
#include "obs/metrics.hpp"
#include "persist/chain.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"
#include "trace/log_codec.hpp"

using namespace cordial;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

int Usage() {
  std::cerr
      << "usage: cordial_serverd <model_prefix> [--input <path>]\n"
         "         [--checkpoint <path>] [--checkpoint-every <n>]\n"
         "         [--checkpoint-mode full|delta] [--compact-every <n>]\n"
         "         [--shards <n>] [--queue-capacity <n>] [--batch-max <n>]\n"
         "         [--overload block|drop-oldest|reject]\n"
         "         [--admin-port <port>] [--listen-port <port>]\n"
         "         [--listen-address <addr>] [--status-every <n>]\n"
         "         [--refresh-every <sec>] [--promotion-min-icr <r>]\n"
         "         [--row-mapping identity|swizzle[:<k>]|shuffle:<seed>]\n"
         "         [--version]\n";
  return 2;
}

int PrintVersion() {
  std::cout << "cordial_serverd (cordial 1.0.0)\n"
            << "  model frames:      " << core::kPatternModelMagic << ", "
            << core::kCrossRowModelMagic << " v" << core::kModelFrameVersion
            << "\n"
            << "  engine state:      " << core::kEngineStateMagic << " v"
            << core::kEngineStateVersion << " (text), v"
            << core::kEngineStateBinaryVersion << " (binary)\n"
            << "  engine delta:      " << core::kEngineDeltaMagic << " v"
            << core::kEngineDeltaVersion << "\n"
            << "  fleet checkpoint:  " << serve::kFleetCheckpointMagic << " v"
            << serve::kFleetCheckpointVersion << "\n"
            << "  fleet delta:       " << serve::kFleetDeltaMagic << " v"
            << serve::kFleetDeltaVersion << "\n"
            << "  chain manifest:    " << persist::kManifestMagic << " v"
            << persist::kManifestVersion << "\n"
            << "  frame layout:      v" << kFramingLayoutVersion
            << " (crc32; reads v1 checksum-less frames with a warning)\n";
  return 0;
}

struct Options {
  std::string model_prefix;
  std::string input;       // empty = stdin
  std::string checkpoint;  // empty = no checkpointing
  std::size_t checkpoint_every = 5000;
  bool delta_mode = false;         // --checkpoint-mode delta: chain directory
  std::size_t compact_every = 16;  // deltas per epoch before folding
  std::size_t shards = 4;
  std::size_t queue_capacity = 1024;
  std::size_t batch_max = 256;
  serve::OverloadPolicy overload = serve::OverloadPolicy::kBlock;
  std::uint16_t admin_port = 0;     // 0 = admin plane off
  bool listen = false;              // --listen-port given (0 = ephemeral)
  std::string listen_address = "127.0.0.1";
  std::uint16_t listen_port = 0;
  std::size_t status_every = 10000; // 0 = status lines off
  double refresh_every_s = 0.0;     // 0 = online learning off
  double promotion_min_icr = 0.0;
  std::string row_mapping;          // empty = identity (logical == physical)
};

/// Parse argv into `opts`; on failure `error` names the offending flag.
bool ParseArgs(int argc, char** argv, Options& opts, std::string& error) {
  if (argc < 2) {
    error = "missing <model_prefix>";
    return false;
  }
  opts.model_prefix = argv[1];
  if (opts.model_prefix.rfind("--", 0) == 0) {
    error = "expected <model_prefix> before flags, got " + opts.model_prefix;
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    auto parse_count = [&](const char* value, std::size_t& out,
                           bool allow_zero) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') {
        error = flag + " expects an integer, got '" + value + "'";
        return false;
      }
      if (!allow_zero && parsed == 0) {
        error = flag + " must be at least 1";
        return false;
      }
      out = static_cast<std::size_t>(parsed);
      return true;
    };
    const char* value = next();
    if (value == nullptr) {
      error = flag + " requires a value";
      return false;
    }
    if (flag == "--input") {
      opts.input = value;
    } else if (flag == "--checkpoint") {
      opts.checkpoint = value;
    } else if (flag == "--checkpoint-every") {
      if (!parse_count(value, opts.checkpoint_every, true)) return false;
    } else if (flag == "--checkpoint-mode") {
      const std::string mode = value;
      if (mode == "full") {
        opts.delta_mode = false;
      } else if (mode == "delta") {
        opts.delta_mode = true;
      } else {
        error = "--checkpoint-mode must be full or delta, got '" + mode + "'";
        return false;
      }
    } else if (flag == "--compact-every") {
      if (!parse_count(value, opts.compact_every, false)) return false;
    } else if (flag == "--shards") {
      if (!parse_count(value, opts.shards, false)) return false;
    } else if (flag == "--queue-capacity") {
      if (!parse_count(value, opts.queue_capacity, false)) return false;
    } else if (flag == "--batch-max") {
      if (!parse_count(value, opts.batch_max, false)) return false;
    } else if (flag == "--status-every") {
      if (!parse_count(value, opts.status_every, true)) return false;
    } else if (flag == "--admin-port") {
      std::size_t port = 0;
      if (!parse_count(value, port, true)) return false;
      if (port > 65535) {
        error = flag + " must be a TCP port (0-65535)";
        return false;
      }
      opts.admin_port = static_cast<std::uint16_t>(port);
    } else if (flag == "--listen-port") {
      std::size_t port = 0;
      if (!parse_count(value, port, true)) return false;
      if (port > 65535) {
        error = flag + " must be a TCP port (0-65535)";
        return false;
      }
      opts.listen = true;
      opts.listen_port = static_cast<std::uint16_t>(port);
    } else if (flag == "--listen-address") {
      opts.listen_address = value;
    } else if (flag == "--row-mapping") {
      opts.row_mapping = value;
    } else if (flag == "--refresh-every" || flag == "--promotion-min-icr") {
      char* end = nullptr;
      const double parsed = std::strtod(value, &end);
      if (end == value || *end != '\0' || parsed < 0.0) {
        error = flag + " expects a non-negative number, got '" +
                std::string(value) + "'";
        return false;
      }
      (flag == "--refresh-every" ? opts.refresh_every_s
                                 : opts.promotion_min_icr) = parsed;
    } else if (flag == "--overload") {
      const std::string policy = value;
      if (policy == "block") {
        opts.overload = serve::OverloadPolicy::kBlock;
      } else if (policy == "drop-oldest") {
        opts.overload = serve::OverloadPolicy::kDropOldest;
      } else if (policy == "reject") {
        opts.overload = serve::OverloadPolicy::kReject;
      } else {
        error = "--overload must be block, drop-oldest or reject, got '" +
                policy + "'";
        return false;
      }
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--version") return PrintVersion();
  }
  Options opts;
  std::string parse_error;
  if (!ParseArgs(argc, argv, opts, parse_error)) {
    std::cerr << "cordial_serverd: " << parse_error << "\n";
    return Usage();
  }

  try {
    hbm::TopologyConfig topology;
    core::PatternClassifier classifier(topology,
                                       ml::LearnerKind::kRandomForest);
    core::CrossRowPredictor single_predictor(topology,
                                             ml::LearnerKind::kRandomForest);
    core::CrossRowPredictor double_predictor(topology,
                                             ml::LearnerKind::kRandomForest);
    auto load = [&](const std::string& path, auto&& loader) {
      std::ifstream in(path);
      if (!in) throw ParseError("cannot open model " + path);
      loader(in);
    };
    load(opts.model_prefix + ".pattern.model",
         [&](std::istream& in) { classifier.LoadModel(in); });
    load(opts.model_prefix + ".single.model",
         [&](std::istream& in) { single_predictor.LoadModel(in); });
    load(opts.model_prefix + ".double.model",
         [&](std::istream& in) { double_predictor.LoadModel(in); });

    serve::FleetServerConfig config;
    config.shard_count = opts.shards;
    config.queue.capacity = opts.queue_capacity;
    config.queue.policy = opts.overload;
    config.queue.batch_max = opts.batch_max;
    // A live fleet feed is aggregated from many BMC clocks: drop stale
    // records instead of dying on the first skewed timestamp.
    config.engine.retention.skew_policy = trace::TimeSkewPolicy::kDrop;
    // Feed rows are logical; every shard engine remaps them to physical
    // before profiling. Not serialized — a restoring boot must pass the
    // same spec (the engine-state frame carries physical rows only).
    config.engine.row_mapping =
        hbm::RowMapping::Parse(opts.row_mapping, topology.rows_per_bank);
    if (!config.engine.row_mapping.identity()) {
      std::cerr << "row mapping: " << config.engine.row_mapping.Describe()
                << "\n";
    }

    // Online learning (--refresh-every): the boot models seed a model slot
    // every shard engine subscribes to; the serving path feeds an outcome
    // collector; a shadow trainer retrains and hot-swaps in the background.
    // The slot and collector outlive the server (declared first).
    const bool learning = opts.refresh_every_s > 0.0;
    std::unique_ptr<core::ModelSlot> slot;
    std::unique_ptr<learn::OutcomeCollector> collector;
    serve::FleetServer::ActionSink sink;
    if (learning) {
      core::ModelSet boot;
      boot.classifier = core::UnownedModel(classifier);
      boot.single = core::UnownedModel(single_predictor);
      boot.double_row = core::UnownedModel(double_predictor);
      slot = std::make_unique<core::ModelSlot>(std::move(boot));
      config.model_slot = slot.get();
      collector = std::make_unique<learn::OutcomeCollector>(topology);
      learn::OutcomeCollector* taps = collector.get();
      sink = [taps](std::size_t, const trace::MceRecord& record,
                    const core::IsolationActions& actions) {
        taps->Record(record, actions);
      };
    }
    serve::FleetServer server(topology, classifier, single_predictor,
                              &double_predictor, config, std::move(sink));

    // Daemon-level metrics: checkpoint-cycle timing lives here (it is a
    // property of the daemon's drain+write cycle, not of any one shard) and
    // merges with the shard registries on scrape.
    obs::MetricRegistry daemon_metrics;
    obs::Histogram& checkpoint_seconds = daemon_metrics.GetHistogram(
        "cordial_checkpoint_seconds",
        "Wall time of one checkpoint cycle (drain + atomic write)",
        obs::DefaultLatencyBuckets());
    obs::Counter& checkpoints_total = daemon_metrics.GetCounter(
        "cordial_checkpoints_total", "Checkpoints written");
    obs::Counter& malformed_total = daemon_metrics.GetCounter(
        "cordial_feed_malformed_lines_total",
        "Feed lines that failed CSV parsing");
    obs::Counter& corrupt_total = daemon_metrics.GetCounter(
        "cordial_checkpoint_corrupt_total",
        "Checkpoint files quarantined as corrupt during boot recovery");
    obs::Counter& fallback_total = daemon_metrics.GetCounter(
        "cordial_checkpoint_fallback_total",
        "Boots that could not use the newest checkpoint and fell back to an "
        "older generation or a fresh start");
    // Per-kind checkpoint accounting: in delta mode the interesting signal
    // is how much smaller/faster a steady-state delta cycle is than a full.
    const auto kind_labels = [](const char* kind) {
      return obs::Labels{{"kind", kind}};
    };
    obs::Counter* ckpt_bytes[2] = {
        &daemon_metrics.GetCounter("cordial_checkpoint_bytes_total",
                                   "Checkpoint bytes written, by member kind",
                                   kind_labels("full")),
        &daemon_metrics.GetCounter("cordial_checkpoint_bytes_total",
                                   "Checkpoint bytes written, by member kind",
                                   kind_labels("delta"))};
    obs::Counter* ckpt_banks[2] = {
        &daemon_metrics.GetCounter(
            "cordial_checkpoint_banks_written",
            "Bank records serialized into checkpoints, by member kind",
            kind_labels("full")),
        &daemon_metrics.GetCounter(
            "cordial_checkpoint_banks_written",
            "Bank records serialized into checkpoints, by member kind",
            kind_labels("delta"))};
    obs::Histogram* ckpt_write_seconds[2] = {
        &daemon_metrics.GetHistogram(
            "cordial_checkpoint_write_seconds",
            "Wall time of one checkpoint write, by member kind",
            obs::DefaultLatencyBuckets(), kind_labels("full")),
        &daemon_metrics.GetHistogram(
            "cordial_checkpoint_write_seconds",
            "Wall time of one checkpoint write, by member kind",
            obs::DefaultLatencyBuckets(), kind_labels("delta"))};

    // Delta mode: --checkpoint names the chain directory.
    std::unique_ptr<persist::CheckpointChain> chain;
    if (opts.delta_mode && !opts.checkpoint.empty()) {
      ::mkdir(opts.checkpoint.c_str(), 0777);  // EEXIST is the normal case
      chain = std::make_unique<persist::CheckpointChain>(
          persist::ChainConfig{opts.checkpoint, opts.compact_every});
    }

    // Last-checkpoint facts for /statusz. The admin plane reads them from
    // its own thread while the feed loop writes them, hence the mutex.
    struct LastCheckpoint {
      std::mutex mutex;
      bool any = false;
      bool full = false;
      std::uint64_t bytes = 0;
      double seconds = 0.0;
      std::size_t chain_length = 0;  // 0 = single-file mode
    } last_ckpt;

    std::size_t submitted = 0, refused = 0, malformed = 0, checkpoints = 0;
    const auto write_checkpoint = [&] {
      const auto start = std::chrono::steady_clock::now();
      bool full = true;
      std::uint64_t bytes = 0, banks = 0;
      std::size_t chain_length = 0;
      if (chain) {
        const persist::ChainWriteResult result = chain->Write(server);
        full = result.full;
        bytes = result.bytes;
        banks = result.banks_written;
        chain_length = result.chain_length;
      } else {
        const core::EncodedState member =
            server.EncodeCheckpoint(core::StateEncoding::kText);
        serve::WriteFileDurably(opts.checkpoint, member.bytes,
                                /*retain_prev=*/true);
        bytes = member.bytes.size();
        banks = member.banks;
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      checkpoint_seconds.Observe(seconds);
      const std::size_t kind = full ? 0 : 1;
      ckpt_bytes[kind]->Increment(bytes);
      ckpt_banks[kind]->Increment(banks);
      ckpt_write_seconds[kind]->Observe(seconds);
      checkpoints_total.Increment();
      ++checkpoints;
      {
        std::lock_guard<std::mutex> lock(last_ckpt.mutex);
        last_ckpt.any = true;
        last_ckpt.full = full;
        last_ckpt.bytes = bytes;
        last_ckpt.seconds = seconds;
        last_ckpt.chain_length = chain_length;
      }
    };

    std::unique_ptr<learn::ShadowTrainer> trainer;
    if (learning) {
      learn::TrainerConfig trainer_config;
      trainer_config.refresh_every_s = opts.refresh_every_s;
      trainer_config.promotion_min_icr = opts.promotion_min_icr;
      trainer_config.policy = config.engine.policy;
      trainer_config.eval_budget = config.engine.budget;
      trainer = std::make_unique<learn::ShadowTrainer>(
          topology, *slot, *collector, trainer_config);
      trainer->AttachMetrics(daemon_metrics);
    }

    // The TCP ingest plane is constructed after the fleet server starts
    // (below); declared here so /metrics can fold its registry in.
    std::unique_ptr<net::IngestServer> ingest;

    std::unique_ptr<obs::AdminServer> admin;
    if (opts.admin_port != 0) {
      obs::AdminServerConfig admin_config;
      admin_config.port = opts.admin_port;
      admin = std::make_unique<obs::AdminServer>(admin_config);
      admin->AddHandler(
          "/metrics", "text/plain; version=0.0.4; charset=utf-8", [&] {
            std::vector<obs::RegistrySnapshot> parts{
                daemon_metrics.Snapshot(), server.MetricsSnapshot()};
            if (ingest) parts.push_back(ingest->MetricsSnapshot());
            return obs::RenderPrometheus(obs::MergeSnapshots(parts));
          });
      admin->AddHandler("/statusz", "text/plain; charset=utf-8", [&] {
        std::string page = server.StatusTable();
        page += "\ncheckpoints written: " + std::to_string(checkpoints_total.value());
        page += "\nmalformed feed lines: " + std::to_string(malformed_total.value());
        page += "\ncheckpoints quarantined: " + std::to_string(corrupt_total.value());
        {
          std::lock_guard<std::mutex> lock(last_ckpt.mutex);
          if (last_ckpt.any) {
            char line[160];
            std::snprintf(line, sizeof line,
                          "\nlast checkpoint: kind=%s bytes=%llu "
                          "seconds=%.6f chain_length=%zu",
                          last_ckpt.full ? "full" : "delta",
                          static_cast<unsigned long long>(last_ckpt.bytes),
                          last_ckpt.seconds, last_ckpt.chain_length);
            page += line;
          }
        }
        page += "\nlegacy (pre-crc32) frames read: " +
                std::to_string(GetFramingStats().legacy_frames_read);
        for (const std::string& armed : failpoint::ArmedNames()) {
          page += "\nfailpoint armed: " + armed;
        }
        page += "\n";
        return page;
      });
      if (trainer) {
        learn::ShadowTrainer* t = trainer.get();
        serve::FleetServer* srv = &server;
        admin->AddHandler("/modelz", "text/plain; charset=utf-8", [t, srv] {
          std::string page = t->StatusPage();
          page += "per-shard serving generation:";
          for (const std::uint64_t v : srv->ModelVersions()) {
            page += " " + std::to_string(v);
          }
          page += "\n";
          return page;
        });
        admin->AddHandler(
            "/modelz/swap", "text/plain; charset=utf-8",
            [t] {
              return "republished champion as generation " +
                     std::to_string(t->ForceSwap()) + "\n";
            },
            obs::AdminServer::Method::kPost);
        admin->AddHandler(
            "/modelz/rollback", "text/plain; charset=utf-8",
            [t] {
              const std::uint64_t version = t->ForceRollback();
              return version == 0
                         ? std::string("nothing to roll back to\n")
                         : "rolled back; previous models republished as "
                           "generation " + std::to_string(version) + "\n";
            },
            obs::AdminServer::Method::kPost);
      }
      admin->Start();
      std::cerr << "admin plane on http://127.0.0.1:" << admin->port()
                << " (/metrics /statusz /healthz"
                << (trainer ? " /modelz" : "") << ")\n";
    }

    if (chain) {
      const persist::ChainRecoveryOutcome recovery = chain->Recover(server);
      for (const std::string& reason : recovery.errors) {
        std::cerr << "corrupt checkpoint: " << reason << "\n";
      }
      for (const std::string& quarantined : recovery.quarantined) {
        std::cerr << "quarantined corrupt checkpoint to " << quarantined
                  << ".corrupt\n";
        corrupt_total.Increment();
      }
      if (recovery.fell_back) fallback_total.Increment();
      if (!recovery.fresh_start()) {
        std::cerr << "resumed from checkpoint chain " << recovery.restored_from
                  << " (" << server.AggregateStats().events
                  << " events replayed)\n";
      } else if (recovery.fell_back) {
        std::cerr << "no usable checkpoint — starting fresh\n";
      }
    } else if (!opts.checkpoint.empty()) {
      const serve::RecoveryOutcome recovery =
          serve::RecoverCheckpoint(server, opts.checkpoint);
      for (const std::string& reason : recovery.errors) {
        std::cerr << "corrupt checkpoint: " << reason << "\n";
      }
      for (const std::string& quarantined : recovery.quarantined) {
        std::cerr << "quarantined corrupt checkpoint to " << quarantined
                  << "\n";
        corrupt_total.Increment();
      }
      if (recovery.fell_back()) fallback_total.Increment();
      if (!recovery.restored_from.empty()) {
        std::cerr << "resumed from checkpoint " << recovery.restored_from
                  << " (" << server.AggregateStats().events
                  << " events replayed)\n";
      } else if (recovery.fell_back()) {
        std::cerr << "no usable checkpoint — starting fresh\n";
      }
    }

    std::signal(SIGINT, HandleStop);
    std::signal(SIGTERM, HandleStop);

    // A listen plane with no --input means pure network serving: reading
    // stdin would just block shutdown on a terminal that never closes.
    std::ifstream file;
    std::istream* feed = nullptr;
    if (!opts.input.empty()) {
      file.open(opts.input);
      if (!file) throw ParseError("cannot open input " + opts.input);
      feed = &file;
    } else if (!opts.listen) {
      feed = &std::cin;
    }

    server.Start();
    if (trainer) {
      trainer->Start();
      std::cerr << "online learning: shadow-training round every "
                << opts.refresh_every_s << "s (promotion ICR floor "
                << opts.promotion_min_icr << ")\n";
    }
    if (opts.listen) {
      net::IngestServerConfig ingest_config;
      ingest_config.bind_address = opts.listen_address;
      ingest_config.port = opts.listen_port;
      ingest = std::make_unique<net::IngestServer>(server, ingest_config);
      ingest->Start();
      std::cerr << "ingest listening on " << opts.listen_address << ":"
                << ingest->port() << "\n";
    }
    std::vector<serve::ShardCounters> last_status(opts.shards);
    // Chunked feed loop: parse up to --batch-max CSV lines into a record
    // batch, then hand the whole batch to the server (one routed
    // SubmitBatch instead of per-record mutex/CAS traffic). Each batch is
    // capped at the distance to the next checkpoint/status boundary, so
    // those fire at exactly the accepted-record counts the single-record
    // loop produced — the durability drill's byte-identical-checkpoint
    // comparison depends on it. Refused records don't advance `submitted`,
    // so a short batch just re-aims at the same boundary next time.
    std::vector<trace::MceRecord> batch;
    batch.reserve(opts.batch_max);
    std::string line;
    bool feed_open = feed != nullptr;
    while (g_stop == 0 && feed_open) {
      std::size_t limit = opts.batch_max;
      // Armed failpoints mean a crash drill wants record-exact semantics
      // ("power-cut after record N"): fall back to one record per batch.
      if (failpoint::AnyArmed()) limit = 1;
      if (!opts.checkpoint.empty() && opts.checkpoint_every > 0) {
        limit = std::min(
            limit, opts.checkpoint_every - submitted % opts.checkpoint_every);
      }
      if (opts.status_every > 0) {
        limit =
            std::min(limit, opts.status_every - submitted % opts.status_every);
      }
      batch.clear();
      while (batch.size() < limit && std::getline(*feed, line)) {
        if (line.empty() || trace::LogCodec::IsCsvHeader(line)) continue;
        try {
          batch.push_back(trace::LogCodec::ParseCsvLine(line, server.codec()));
        } catch (const ParseError& e) {
          ++malformed;
          malformed_total.Increment();
          std::cerr << "skipping malformed line: " << e.what() << "\n";
        }
      }
      if (!*feed) feed_open = false;
      if (batch.empty()) continue;
      const std::size_t accepted = server.SubmitBatch(batch);
      refused += batch.size() - accepted;
      submitted += accepted;
      // Simulated hard crash of the feed loop (recovery drills): the next
      // boot must come up from the last durable checkpoint. One hit per
      // accepted record, exactly as the single-record loop produced.
      for (std::size_t i = 0; i < accepted; ++i) {
        CORDIAL_FAILPOINT("serverd.feed.crash", ::_exit(122));
      }
      if (accepted > 0 && !opts.checkpoint.empty() &&
          opts.checkpoint_every > 0 &&
          submitted % opts.checkpoint_every == 0) {
        server.Drain();
        write_checkpoint();
      }
      if (accepted > 0 && opts.status_every > 0 &&
          submitted % opts.status_every == 0) {
        // Per-shard queue-counter deltas since the last status line, then
        // aggregate engine tallies off the atomic metric counters (the
        // engines themselves are never read while their workers run).
        std::cerr << "[status] submitted=" << submitted;
        for (std::size_t s = 0; s < server.shard_count(); ++s) {
          const serve::ShardCounters now = server.shard(s).counters();
          std::cerr << " | s" << s << " +"
                    << now.submitted - last_status[s].submitted << "/+"
                    << now.processed - last_status[s].processed
                    << " q=" << server.shard(s).queue_depth();
          if (now.dropped_oldest != last_status[s].dropped_oldest ||
              now.rejected != last_status[s].rejected) {
            std::cerr << " shed="
                      << (now.dropped_oldest - last_status[s].dropped_oldest) +
                             (now.rejected - last_status[s].rejected);
          }
          last_status[s] = now;
        }
        const obs::RegistrySnapshot live = server.MetricsSnapshot();
        std::cerr << " | events="
                  << obs::SumCounterSamples(live,
                                            "cordial_engine_events_total")
                  << " uer="
                  << obs::SumCounterSamples(live,
                                            "cordial_engine_uer_events_total")
                  << " rows_spared="
                  << obs::SumCounterSamples(live,
                                            "cordial_engine_rows_spared_total")
                  << " banks_spared="
                  << obs::SumCounterSamples(
                         live, "cordial_engine_banks_spared_total")
                  << " skew_dropped="
                  << obs::SumCounterSamples(
                         live, "cordial_engine_records_skew_dropped_total")
                  << "\n";
      }
    }

    // Listen mode keeps serving TCP batches after the file feed (if any)
    // drained, until a signal asks for shutdown.
    while (g_stop == 0 && ingest) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (ingest) ingest->Stop();  // no new records past this point
    if (trainer) trainer->Stop();  // no new model generations past this point

    server.Stop();  // drains the queues, then joins the workers
    if (!opts.checkpoint.empty()) {
      write_checkpoint();
      std::cerr << "final checkpoint written to " << opts.checkpoint << "\n";
    }
    if (admin) admin->Stop();

    const core::EngineStats stats = server.AggregateStats();
    const serve::ShardCounters counters = server.AggregateCounters();
    TextTable summary({"Metric", "Value"});
    summary.AddRow({"records submitted", std::to_string(submitted)});
    summary.AddRow({"records refused (overload)", std::to_string(refused)});
    summary.AddRow({"records dropped (overload)",
                    std::to_string(counters.dropped_oldest)});
    summary.AddRow({"malformed lines skipped", std::to_string(malformed)});
    if (ingest) {
      summary.AddRow({"records ingested over TCP",
                      std::to_string(obs::SumCounterSamples(
                          ingest->MetricsSnapshot(),
                          "cordial_net_records_total"))});
    }
    summary.AddRow({"stale records dropped (skew)",
                    std::to_string(stats.records_skew_dropped)});
    summary.AddRow({"events processed", std::to_string(stats.events)});
    summary.AddRow({"banks classified", std::to_string(stats.banks_classified)});
    summary.AddRow(
        {"banks bank-spared", std::to_string(stats.banks_bank_spared)});
    summary.AddRow({"rows isolated", std::to_string(stats.rows_isolated)});
    summary.AddRow({"UER rows preemptively isolated",
                    std::to_string(stats.uer_rows_covered +
                                   stats.uer_rows_covered_by_bank)});
    summary.AddRow({"checkpoints written", std::to_string(checkpoints)});
    if (trainer) {
      const learn::RoundResult last = trainer->LastRound();
      summary.AddRow({"shadow-training rounds", std::to_string(last.round)});
      summary.AddRow({"serving model generation",
                      std::to_string(slot->version())});
    }
    std::cout << summary.Render("cordial_serverd session (" +
                                std::to_string(opts.shards) + " shards)");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
