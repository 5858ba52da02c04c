// The library paths perfbench drives, each timed from the outside: the
// file-feed daemon path (cordial_serverd), the TCP ingest path
// (cordial_feed -> IngestServer), and the train-and-evaluate round
// (cordial_cli train / ShadowTrainer). Every workload is built from these.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/crossrow.hpp"
#include "core/engine.hpp"
#include "core/isolation.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/topology.hpp"
#include "serve/fleet_server.hpp"
#include "trace/error_log.hpp"
#include "util.hpp"

namespace perfbench {

using namespace cordial;

/// The three serving models, loaded or trained.
struct Models {
  explicit Models(const hbm::TopologyConfig& topology);
  core::PatternClassifier classifier;
  core::CrossRowPredictor single_predictor;
  core::CrossRowPredictor double_predictor;
};

/// Hindsight labels of every UER bank (bank key -> class).
using BankLabels = std::map<std::uint64_t, hbm::FailureClass>;
BankLabels LabelAll(const hbm::TopologyConfig& topology,
                    const std::vector<trace::BankHistory>& banks);

struct FitTimes {
  double label_s = 0.0;
  double classifier_s = 0.0;
  double single_s = 0.0;
  double double_s = 0.0;
};

/// Label the UER banks and fit all three models on them, the way
/// `cordial_cli train` does.
std::unique_ptr<Models> TrainAll(const hbm::TopologyConfig& topology,
                                 const std::vector<trace::BankHistory>& banks,
                                 std::uint64_t seed, FitTimes& times,
                                 Tracer& tracer);

/// Write the models as `<prefix>.{pattern,single,double}.model`; returns
/// the total bytes written.
std::uint64_t SaveModels(const Models& models, const std::string& prefix);
std::unique_ptr<Models> LoadModels(const hbm::TopologyConfig& topology,
                                   const std::string& prefix);

/// Engine / server configuration shared by every serving path, copied from
/// cordial_serverd's defaults.
serve::FleetServerConfig ServeConfig(std::size_t shards);

/// Serial single-engine pass: the N-shards == 1-engine reference, and the
/// core layer's single-thread baseline when `timed`.
struct ReferencePass {
  core::EngineStats stats;
  double observe_s = 0.0;
  double uer_s = 0.0;
  double non_uer_s = 0.0;
  std::size_t uer_records = 0;
};
ReferencePass RunReference(const hbm::TopologyConfig& topology,
                           const Models& models,
                           std::span<const trace::MceRecord> records,
                           bool timed);

/// Batch ICR replay of `banks` under the Cordial strategy (streaming ==
/// batch oracle). `eval_s` is its wall time.
core::IcrResult BatchIcr(const hbm::TopologyConfig& topology,
                         const Models& models,
                         const std::vector<const trace::BankHistory*>& banks,
                         double& eval_s);

/// Sum the tallies of disjoint bank sets' ICR replays.
void AddIcr(core::IcrResult& into, const core::IcrResult& part);

/// Online classification decisions captured by a serving path's sink.
using BankClasses = std::map<std::uint64_t, hbm::FailureClass>;

/// Macro F1 of online classification decisions against hindsight labels.
double MacroF1(const BankClasses& decided, const BankLabels& labels);

// --- file feed -------------------------------------------------------------

// File-feed path shape: cordial_serverd's defaults.
inline constexpr std::size_t kFeedShards = 3;
inline constexpr std::size_t kFeedBatch = 256;
inline constexpr std::size_t kCheckpointEvery = 5000;
inline constexpr std::size_t kCompactEvery = 16;
// TCP path shape.
inline constexpr std::size_t kTcpShards = 2;
inline constexpr std::size_t kTcpBatch = 256;  // cordial_feed's default frame
/// Both paths scrape MetricsSnapshot + RenderPrometheus this often from
/// the feeder / client thread.
inline constexpr std::int64_t kScrapePeriodNs = 100'000'000;

struct FeedResult {
  std::size_t lines = 0;
  std::size_t records = 0;
  std::uint64_t malformed = 0;
  std::uint64_t refused = 0;
  std::uint64_t invalid = 0;
  double wall_s = 0.0;  ///< first line parsed -> final checkpoint durable
  std::vector<double> stall_ms;  ///< Drain start -> Write return
  std::vector<double> queue_ms;  ///< SubmitBatch return -> sink (traced)
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t banks_written = 0;
  double dirty_share = 0.0;  ///< mean banks_written / banks over deltas
  double recover_s = 0.0;
  std::size_t members_applied = 0;
  bool recovered_identical = false;
  std::uint64_t drain_races = 0;  ///< checkpoint calls retried (OnDrained)
  core::EngineStats stats;
  std::vector<std::uint64_t> processed_per_shard;
  BankClasses classes;
};

/// cordial_serverd's file-feed loop over CSV `text`: ParseCsvLine in
/// batches, SubmitBatch, Drain + CheckpointChain::Write every
/// `checkpoint_every` records, a final checkpoint, then Recover into a
/// fresh server whose binary checkpoint must equal the live one.
/// `slowdown` > 0 spins that share of every feeder step and stall.
FeedResult RunFeed(const hbm::TopologyConfig& topology, const Models& models,
                   const std::string& text, const std::string& chain_dir,
                   double slowdown, Tracer& tracer);

// --- TCP ingest ------------------------------------------------------------

struct TcpResult {
  std::size_t records = 0;
  std::size_t batches = 0;
  std::uint64_t acked = 0;
  std::uint64_t sink_calls = 0;
  /// Per request (one Batch frame): due time -> its last record decided.
  std::vector<double> request_ms;
  double completion_s = 0.0;  ///< first due time -> last record decided
  std::vector<double> late_ms;      ///< send start - due time
  core::EngineStats stats;
  std::vector<std::uint64_t> processed_per_shard;
  BankClasses classes;
};

/// One IngestClient connection sending Batch frames at `rate` records/s on
/// a fixed open-loop schedule to an IngestServer in front of kTcpShards
/// shards. The k-th sink call on shard s is the k-th record routed there,
/// which maps every decision back to its request. `sink_spin_ns` is
/// injected per-record sink work.
TcpResult RunTcp(const hbm::TopologyConfig& topology, const Models& models,
                 std::span<const trace::MceRecord> records, double rate,
                 std::int64_t sink_spin_ns, Tracer& tracer);

// --- train round -------------------------------------------------------------

struct TrainResult {
  double train_s = 0.0;
  ml::ConfusionMatrix confusion{hbm::kNumFailureClasses};
  FitTimes fit;
  double eval_s = 0.0;
  core::IcrResult cordial;
  core::IcrResult neighbor;
  std::vector<double> bank_ms;  ///< per held-out bank Cordial replay
  std::vector<const trace::BankHistory*> test_banks;
  std::unique_ptr<Models> models;
};

/// One train-and-evaluate round: label, 70:30 stratified split, fit the
/// classifier and both cross-row predictors, replay the held-out banks
/// through IcrEvaluator for Cordial and Neighbor Rows. `split_seed` seeds
/// the split and the fits.
TrainResult RunTrainRound(const hbm::TopologyConfig& topology,
                          const std::vector<trace::BankHistory>& banks,
                          std::uint64_t split_seed, double slowdown,
                          Tracer& tracer);

}  // namespace perfbench
