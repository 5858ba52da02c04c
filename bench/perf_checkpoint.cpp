// Checkpoint cost gate: steady-state delta vs full-text snapshot.
//
// The delta path exists so a large drained fleet can checkpoint at a cost
// proportional to what changed, not to what exists. This benchmark builds
// one FleetServer holding >= --banks populated bank profiles (default 4096,
// two NPUs' worth), marks the state clean, re-dirties ~--dirty-fraction of
// the banks (default 1%), and then prices the two snapshot encodings the
// server can emit from that state:
//
//   * full-text — SaveCheckpoint(kText): the v1 frame every deployment
//     before the chain subsystem wrote on every interval.
//   * delta     — SaveDeltaCheckpoint(): the binary dirty-bank frame a
//     chain appends between compactions (DESIGN.md §14).
//
// Both serializers are const and leave the dirty set alone, so each rep
// re-measures the identical state. Repetitions interleave the two sides
// (A B B A ...) and keep each side's best (minimum seconds per save); the
// delta is additionally averaged over --delta-iters inner saves per
// measurement because a ~1%-dirty delta is microseconds against the full
// snapshot's milliseconds.
//
// Emits BENCH_ckpt.json and exits non-zero unless the delta is at least
// --threshold times cheaper (default 10x) in BOTH bytes and wall time —
// tier-1 runs this, so a regression that drags delta cost back toward
// full-snapshot cost cannot land silently.
//
// A second, information-only row prices a *dense* delta: the same bank
// count on 3 shards with 80% of the banks dirty, the share a CE-dominated
// feed leaves between 5000-record checkpoints (perfbench feed_dense's
// persist.dirty_share). It times FleetServer::EncodeDeltaCheckpoint — the
// member encoder CheckpointChain writes from — and does not enter the gate.
//
// Usage: perf_checkpoint [--banks N] [--dirty-fraction F] [--reps N]
//                        [--delta-iters N] [--shards N] [--threshold X]
//                        [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/labeler.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "hbm/address.hpp"
#include "serve/fleet_server.hpp"
#include "trace/fleet.hpp"

namespace {

using namespace cordial;

/// Deterministic address for flat bank index `b`, walking the topology
/// fine-to-coarse: 256 banks per HBM, 8 HBMs per NPU. All on node 0 — two
/// NPUs already hold 4096 banks.
hbm::DeviceAddress BankAddress(std::uint64_t b) {
  const std::uint64_t c = b % 256;
  hbm::DeviceAddress address;
  address.node = 0;
  address.npu = static_cast<std::uint32_t>(b / 2048);
  address.hbm = static_cast<std::uint32_t>((b / 256) % 8);
  address.sid = static_cast<std::uint32_t>(c / 128);
  address.channel = static_cast<std::uint32_t>((c / 32) % 4);
  address.pseudo_channel = static_cast<std::uint32_t>((c / 16) % 2);
  address.bank_group = static_cast<std::uint32_t>((c / 4) % 4);
  address.bank = static_cast<std::uint32_t>(c % 4);
  return address;
}

/// Trained models for the server under test (same construction as the other
/// serve benches; the checkpoint cost does not depend on model quality).
struct BenchModels {
  hbm::TopologyConfig topology;
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_pred;
  core::CrossRowPredictor double_pred;
  bool double_ok = false;

  BenchModels()
      : classifier(topology, ml::LearnerKind::kRandomForest),
        single_pred(topology, ml::LearnerKind::kRandomForest),
        double_pred(topology, ml::LearnerKind::kRandomForest) {
    trace::CalibrationProfile profile;
    profile.scale = 0.08;
    const trace::GeneratedFleet fleet =
        trace::FleetGenerator(topology, profile).Generate(123);
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
    Rng rng(7);
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

/// Feed `per_bank` CEs to each bank b < banks with touch(b) and drain.
template <typename Pred>
void Touch(serve::FleetServer& server, std::uint64_t banks, Pred&& touch,
           std::size_t per_bank, double* clock, Rng& rng) {
  std::vector<trace::MceRecord> batch;
  for (std::uint64_t b = 0; b < banks; ++b) {
    if (!touch(b)) continue;
    for (std::size_t i = 0; i < per_bank; ++i) {
      trace::MceRecord record;
      record.time_s = (*clock += 1.0);
      record.type = hbm::ErrorType::kCe;
      record.address = BankAddress(b);
      record.address.row = static_cast<std::uint32_t>(rng.UniformU64(32768));
      record.address.col = static_cast<std::uint32_t>(rng.UniformU64(128));
      batch.push_back(record);
    }
  }
  server.SubmitBatch(batch);
  server.Drain();
}

/// Seconds per save, averaged over `iters` back-to-back saves of the same
/// (unchanging) drained state.
template <typename Save>
double TimeSave(Save&& save, std::size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) save();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count() /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t banks = 4096;
  double dirty_fraction = 0.01;
  std::size_t reps = 5;
  std::size_t delta_iters = 32;
  std::size_t shards = 4;
  double threshold = 10.0;
  std::string out_path = "BENCH_ckpt.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--banks") {
      banks = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--dirty-fraction") {
      dirty_fraction = std::strtod(next(), nullptr);
    } else if (arg == "--reps") {
      reps = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--delta-iters") {
      delta_iters =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--threshold") {
      threshold = std::strtod(next(), nullptr);
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (banks == 0 || banks > 10240 || reps == 0 || delta_iters == 0 ||
      shards == 0 || dirty_fraction <= 0.0 || dirty_fraction > 1.0) {
    std::cerr << "--banks must be 1..10240 (node 0), --reps/--delta-iters/"
                 "--shards >= 1, --dirty-fraction in (0, 1]\n";
    return 2;
  }

  const BenchModels models;
  // Populate every bank (6 CEs each), checkpoint-clean the world, then
  // re-dirty the banks `dirty` picks with one CE each — the steady state a
  // chain's delta writes see between compactions.
  const auto make_server = [&](std::size_t shard_count, auto&& dirty) {
    serve::FleetServerConfig config;
    config.shard_count = shard_count;
    config.queue.capacity = static_cast<std::size_t>(banks) * 8 + 1;
    auto server = std::make_unique<serve::FleetServer>(
        models.topology, models.classifier, models.single_pred,
        models.double_or_null(), config);
    Rng rng(99);
    double clock = 0.0;
    server->Start();
    Touch(*server, banks, [](std::uint64_t) { return true; }, 6, &clock, rng);
    server->MarkCheckpointClean();
    Touch(*server, banks, dirty, 1, &clock, rng);
    return server;
  };
  const std::uint64_t dirty_step = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(1.0 / dirty_fraction));
  const auto server_ptr = make_server(
      shards, [&](std::uint64_t b) { return b % dirty_step == 0; });
  serve::FleetServer& server = *server_ptr;
  const std::size_t dirty_banks = server.DirtyBankCount();

  const auto save_full_text = [&] {
    std::ostringstream out;
    server.SaveCheckpoint(out, core::StateEncoding::kText);
    return out.str();
  };
  const auto save_delta = [&] {
    std::ostringstream out;
    server.SaveDeltaCheckpoint(out);
    return out.str();
  };
  const std::uint64_t full_bytes = save_full_text().size();
  const std::uint64_t delta_bytes = save_delta().size();
  std::cout << "state: " << server.TotalBankCount() << " bank(s), "
            << dirty_banks << " dirty, " << shards << " shard(s)\n"
            << "full-text " << full_bytes << " B, delta " << delta_bytes
            << " B\n";

  double full_best = 1e300, delta_best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    double full, delta;
    if (r % 2 == 0) {
      full = TimeSave(save_full_text, 1);
      delta = TimeSave(save_delta, delta_iters);
    } else {
      delta = TimeSave(save_delta, delta_iters);
      full = TimeSave(save_full_text, 1);
    }
    full_best = std::min(full_best, full);
    delta_best = std::min(delta_best, delta);
    std::cout << "  rep " << (r + 1) << ": full-text " << std::fixed
              << std::setprecision(1) << full * 1e6 << " us, delta "
              << delta * 1e6 << " us\n";
  }
  server.Stop();

  // Information-only dense row: 3 shards, every bank but each fifth dirty.
  constexpr std::size_t kDenseShards = 3;
  const auto dense = make_server(
      kDenseShards, [](std::uint64_t b) { return b % 5 != 0; });
  const std::size_t dense_dirty = dense->DirtyBankCount();
  const std::uint64_t dense_bytes = dense->EncodeDeltaCheckpoint().bytes.size();
  double dense_best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    dense_best = std::min(
        dense_best, TimeSave([&] { return dense->EncodeDeltaCheckpoint(); },
                             delta_iters));
  }
  dense->Stop();
  std::cout << "dense delta (info only): " << dense_dirty << " of "
            << banks << " bank(s) dirty, " << kDenseShards << " shard(s), "
            << dense_bytes << " B, " << std::setprecision(1)
            << dense_best * 1e6 << " us\n";

  const double bytes_ratio =
      static_cast<double>(full_bytes) / static_cast<double>(delta_bytes);
  const double time_ratio = full_best / delta_best;
  const bool pass = bytes_ratio >= threshold && time_ratio >= threshold;
  std::cout << "bytes ratio: " << std::setprecision(1) << bytes_ratio
            << "x, time ratio: " << time_ratio << "x (threshold "
            << threshold << "x) — " << (pass ? "PASS" : "FAIL") << "\n";

  std::ofstream out(out_path);
  out << std::setprecision(17)
      << "{\n"
      << "  \"name\": \"perf_checkpoint\",\n"
      << "  \"banks\": " << banks << ",\n"
      << "  \"dirty_banks\": " << dirty_banks << ",\n"
      << "  \"shard_count\": " << shards << ",\n"
      << "  \"repetitions\": " << reps << ",\n"
      << "  \"full_text_bytes\": " << full_bytes << ",\n"
      << "  \"delta_bytes\": " << delta_bytes << ",\n"
      << "  \"full_text_seconds\": " << full_best << ",\n"
      << "  \"delta_seconds\": " << delta_best << ",\n"
      << "  \"bytes_ratio\": " << bytes_ratio << ",\n"
      << "  \"time_ratio\": " << time_ratio << ",\n"
      << "  \"threshold\": " << threshold << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n"
      << "  \"dense_delta_info\": {\"shard_count\": " << kDenseShards
      << ", \"dirty_banks\": " << dense_dirty
      << ", \"bytes\": " << dense_bytes
      << ", \"seconds\": " << dense_best << "}\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
