#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "persist/binary_io.hpp"

namespace cordial::core {

using hbm::ErrorType;
using hbm::FailureClass;

IsolationActions StepCordial(CordialBankState& state,
                             const BankProfile& profile,
                             const trace::MceRecord& record,
                             const PatternClassifier& classifier,
                             const CrossRowPredictor& single_predictor,
                             const CrossRowPredictor& double_predictor,
                             const CordialPolicyConfig& policy) {
  IsolationActions actions;
  if (record.type != ErrorType::kUer) return actions;
  ++state.uer_events_seen;

  const std::size_t trigger = single_predictor.config().trigger_uers;
  if (state.uer_events_seen < trigger) return actions;

  if (!state.classified) {
    // The profile's classification view truncates at the trigger-th UER,
    // which is exactly the current event — no lookahead.
    state.bank_class = classifier.ClassifyProfile(profile);
    state.classified = true;
    actions.classified_now = true;
    actions.bank_class = state.bank_class;
    if (state.bank_class == FailureClass::kScattered) {
      actions.bank_spare = policy.bank_spare_scattered;
      return actions;
    }
  }
  actions.bank_class = state.bank_class;
  if (state.bank_class == FailureClass::kScattered) return actions;

  // Re-anchor at every new UER row, mirroring CrossRowPredictor::AnchorsOf.
  if (static_cast<std::int64_t>(record.address.row) == state.last_anchor_row) {
    return actions;
  }
  if (state.anchors_used >= single_predictor.config().max_anchors_per_bank) {
    return actions;
  }
  state.last_anchor_row = record.address.row;
  ++state.anchors_used;

  const CrossRowPredictor& predictor =
      state.bank_class == FailureClass::kSingleRowClustering
          ? single_predictor
          : double_predictor;
  const Anchor anchor{record.time_s, record.address.row,
                      state.uer_events_seen};
  const std::vector<int> blocks =
      predictor.PredictBlocksFromProfile(profile, anchor);
  const BlockWindow window = predictor.extractor().WindowAt(anchor.row);
  actions.prediction_issued = true;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b] != 1) continue;
    const auto range = window.BlockRange(b);
    if (!range.has_value()) continue;
    actions.predicted_spans.push_back(RowSpan{range->first, range->second});
  }
  return actions;
}

PredictionEngine::PredictionEngine(const hbm::TopologyConfig& topology,
                                   const PatternClassifier& classifier,
                                   const CrossRowPredictor& single_predictor,
                                   const CrossRowPredictor* double_predictor,
                                   EngineConfig config)
    : codec_(topology),
      classifier_(&classifier),
      single_(&single_predictor),
      double_(double_predictor != nullptr ? double_predictor
                                          : &single_predictor),
      config_(config),
      replayer_(codec_, config.retention),
      ledger_(config.budget) {
  CORDIAL_CHECK_MSG(classifier_->trained(), "classifier must be trained");
  CORDIAL_CHECK_MSG(single_->trained() && double_->trained(),
                    "cross-row predictors must be trained");
  // With the trigger at or past the truncation depth, the classification
  // cutoff can never be later than the triggering event — the profile view
  // is guaranteed lookahead-free.
  CORDIAL_CHECK_MSG(
      single_->config().trigger_uers >= classifier_->extractor().max_uers(),
      "cross-row trigger must not precede the classification truncation");
}

void PredictionEngine::AttachModelSlot(const ModelSlot& slot) {
  model_slot_ = &slot;
  // Adopting the attach-time generation is wiring, not a swap — neither
  // model_swaps() nor the swap counter moves.
  RefreshModels();
}

void PredictionEngine::RefreshModels() {
  std::shared_ptr<const ModelSet> set = model_slot_->Acquire();
  const PatternClassifier& classifier = *set->classifier;
  const CrossRowPredictor& single = *set->single;
  const CrossRowPredictor& double_row =
      set->double_row != nullptr ? *set->double_row : *set->single;
  // A generation that changes the feature layout or trigger contract would
  // silently misread the accumulated per-bank profiles — refuse it and
  // keep serving the current one.
  CORDIAL_CHECK_MSG(
      classifier.extractor().max_uers() == classifier_->extractor().max_uers(),
      "model swap must keep the classification truncation depth");
  CORDIAL_CHECK_MSG(
      single.config().trigger_uers >= classifier.extractor().max_uers(),
      "cross-row trigger must not precede the classification truncation");
  classifier_ = &classifier;
  single_ = &single;
  double_ = &double_row;
  active_models_ = std::move(set);
  model_version_.store(active_models_->version, std::memory_order_relaxed);
  if (metrics_.model_version) {
    metrics_.model_version->Set(
        static_cast<std::int64_t>(active_models_->version));
  }
}

void PredictionEngine::AttachMetrics(obs::MetricRegistry& registry,
                                     const obs::Labels& labels,
                                     std::size_t latency_sample_every) {
  CORDIAL_CHECK_MSG(latency_sample_every >= 1,
                    "latency sample stride must be >= 1");
  latency_sample_every_ = latency_sample_every;
  metrics_.observe_latency = &registry.GetHistogram(
      "cordial_engine_observe_seconds",
      "Latency of PredictionEngine::Observe (ingest + policy + ledger)",
      obs::DefaultLatencyBuckets(), labels);
  metrics_.events = &registry.GetCounter(
      "cordial_engine_events_total", "MCE records the engine accepted",
      labels);
  metrics_.uer_events = &registry.GetCounter(
      "cordial_engine_uer_events_total", "Accepted records that were UERs",
      labels);
  metrics_.banks_classified = &registry.GetCounter(
      "cordial_engine_banks_classified_total",
      "Banks whose failure pattern was classified", labels);
  metrics_.banks_spared = &registry.GetCounter(
      "cordial_engine_banks_spared_total",
      "Banks the sparing ledger actually retired", labels);
  metrics_.block_predictions = &registry.GetCounter(
      "cordial_engine_block_predictions_total",
      "Cross-row block predictions issued", labels);
  metrics_.rows_spared = &registry.GetCounter(
      "cordial_engine_rows_spared_total",
      "Rows newly isolated by predictions (idempotent re-spares excluded)",
      labels);
  metrics_.skew_dropped = &registry.GetCounter(
      "cordial_engine_records_skew_dropped_total",
      "Stale records discarded by the time-skew drop policy", labels);
  replayer_.SetRetentionEvictionCounter(&registry.GetCounter(
      "cordial_replay_retention_evictions_total",
      "Raw records evicted from the replayer's bounded per-bank window",
      labels));
  metrics_.model_version = &registry.GetGauge(
      "cordial_engine_model_version",
      "Model-slot generation this engine is serving (0 = no slot attached)",
      labels);
  metrics_.model_version->Set(static_cast<std::int64_t>(model_version()));
  metrics_.model_swaps = &registry.GetCounter(
      "cordial_engine_model_swaps_total",
      "Model generations hot-swapped in at a record boundary", labels);
}

IsolationActions PredictionEngine::Observe(const trace::MceRecord& logical_record) {
  using Clock = std::chrono::steady_clock;
  // Device row scramble: operate in physical row space so locality features
  // and ledger rows reflect true adjacency. Identity mapping costs nothing.
  trace::MceRecord remapped_storage;
  const trace::MceRecord& record = [&]() -> const trace::MceRecord& {
    if (config_.row_mapping.identity()) return logical_record;
    remapped_storage = logical_record;
    remapped_storage.address.row =
        config_.row_mapping.ToPhysical(logical_record.address.row);
    return remapped_storage;
  }();
  // Record-boundary model swap: adopt a newly published generation BEFORE
  // this record is ingested, so every record is decided by exactly one
  // generation. Costs one relaxed atomic load when nothing was published.
  if (model_slot_ != nullptr &&
      model_slot_->version() != model_version_.load(std::memory_order_relaxed)) {
    RefreshModels();
    model_swaps_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.model_swaps) metrics_.model_swaps->Increment();
  }
  // Threshold compare, not modulo — a division per record is measurable.
  const bool timed =
      metrics_.observe_latency != nullptr && observe_calls_ >= next_timed_;
  if (timed) next_timed_ = observe_calls_ + latency_sample_every_;
  ++observe_calls_;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  const auto record_latency = [&] {
    if (timed) {
      metrics_.observe_latency->Observe(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
  };

  const trace::BankHistory* bank = replayer_.Ingest(record);
  if (bank == nullptr) {
    // Rejected by the drop skew policy: no profile, no decision, no stats
    // beyond the drop counter (keeps `events` == accepted records).
    ++stats_.records_skew_dropped;
    if (metrics_.skew_dropped) metrics_.skew_dropped->Increment();
    record_latency();
    return IsolationActions{};
  }
  ++stats_.events;
  if (metrics_.events) metrics_.events->Increment();
  const auto [it, inserted] =
      banks_.try_emplace(bank->bank_key, classifier_->extractor().max_uers());
  BankState& state = it->second;
  // Dirty-bank tracking for delta checkpoints: every mutation below (the
  // profile, the Cordial state, this bank's ledger rows) touches only this
  // bank plus global counters — which every delta carries — so stamping
  // here is exact at record boundaries. O(1): one compare per record.
  if (state.dirty_epoch != snapshot_epoch_) {
    state.dirty_epoch = snapshot_epoch_;
    ++dirty_banks_;
  }

  IsolationActions coverage;
  if (record.type == ErrorType::kUer) {
    ++stats_.uer_events;
    if (metrics_.uer_events) metrics_.uer_events->Increment();
    // First-failure coverage, judged against the ledger as it stood before
    // this record (the profile has not absorbed it yet).
    if (!state.profile.HasUerRow(record.address.row)) {
      coverage.first_failure = true;
      ++stats_.uer_rows_total;
      if (ledger_.IsRowSpared(bank->bank_key, record.address.row)) {
        coverage.covered_by_row_spare = true;
        ++stats_.uer_rows_covered;
      } else if (ledger_.IsBankSpared(bank->bank_key)) {
        coverage.covered_by_bank_spare = true;
        ++stats_.uer_rows_covered_by_bank;
      }
    }
  }

  state.profile.Observe(record);
  IsolationActions actions =
      StepCordial(state.cordial, state.profile, record, *classifier_,
                  *single_, *double_, config_.policy);
  actions.first_failure = coverage.first_failure;
  actions.covered_by_row_spare = coverage.covered_by_row_spare;
  actions.covered_by_bank_spare = coverage.covered_by_bank_spare;

  if (actions.classified_now) {
    ++stats_.banks_classified;
    if (metrics_.banks_classified) metrics_.banks_classified->Increment();
  }
  if (actions.bank_spare) {
    // TrySpareBank is idempotent and may be unavailable; count only banks
    // the ledger actually retired, mirroring the row accounting below.
    const std::uint64_t banks_before = ledger_.banks_spared();
    ledger_.TrySpareBank(bank->bank_key);
    const std::uint64_t banks_newly = ledger_.banks_spared() - banks_before;
    stats_.banks_bank_spared += banks_newly;
    if (metrics_.banks_spared) metrics_.banks_spared->Increment(banks_newly);
  }
  if (actions.prediction_issued) {
    ++stats_.predictions_issued;
    if (metrics_.block_predictions) metrics_.block_predictions->Increment();
  }
  // TrySpareRow is idempotent (true for an already-spared row), so count
  // newly isolated rows off the ledger's tally, not the return values.
  const std::uint64_t spared_before = ledger_.rows_spared();
  for (const RowSpan& span : actions.predicted_spans) {
    for (std::uint32_t row = span.first; row <= span.last; ++row) {
      ledger_.TrySpareRow(bank->bank_key, row);
    }
  }
  actions.rows_newly_spared = ledger_.rows_spared() - spared_before;
  stats_.rows_isolated += actions.rows_newly_spared;
  if (metrics_.rows_spared) {
    metrics_.rows_spared->Increment(actions.rows_newly_spared);
  }
  record_latency();
  return actions;
}

const BankProfile* PredictionEngine::FindProfile(std::uint64_t bank_key) const {
  const auto it = banks_.find(bank_key);
  return it == banks_.end() ? nullptr : &it->second.profile;
}

// ------------------------------------------------- binary state codec (v2)
//
// Full (cordial_engine_state v2) and delta (cordial_engine_delta v1)
// payloads share one self-delimiting shape:
//
//   u32 header_len | header | u64 bank_count | bank records...
//   bank record := u64 bank_key | u32 blob_len | blob
//
// The explicit lengths make the payload structurally parseable without
// models or topology: the offline inspector (persist::) folds a delta chain
// by overlaying bank records keyed by bank_key and keeping the newest
// header verbatim — producing exactly the bytes a live full save would.
// Bank records are emitted in ascending key order so equal states
// serialize identically.

namespace {

/// Everything global in an engine snapshot: stats, the ledger's budget and
/// spend counters, the replayer's counters and clock. Deltas carry the
/// same header as fulls — the counters are tiny and every one of them can
/// move on any record.
struct StateHeader {
  EngineStats stats;
  hbm::SparingBudget budget;
  std::uint64_t rows_spared = 0;
  std::uint64_t banks_spared = 0;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  std::uint64_t skew_dropped = 0;
  double now = 0.0;
};

void EncodeStateHeader(persist::BinaryWriter& out, const EngineStats& stats,
                       const hbm::SparingLedger& ledger,
                       const trace::StreamReplayer& replayer) {
  out.U64(stats.events);
  out.U64(stats.uer_events);
  out.U64(stats.banks_classified);
  out.U64(stats.banks_bank_spared);
  out.U64(stats.predictions_issued);
  out.U64(stats.rows_isolated);
  out.U64(stats.uer_rows_total);
  out.U64(stats.uer_rows_covered);
  out.U64(stats.uer_rows_covered_by_bank);
  out.U64(stats.records_skew_dropped);
  const hbm::SparingBudget& budget = ledger.budget();
  out.U32(budget.rows_per_bank);
  out.U8(budget.bank_sparing_available ? 1 : 0);
  out.F64(budget.row_spare_cost);
  out.F64(budget.bank_spare_cost);
  out.U64(ledger.rows_spared());
  out.U64(ledger.banks_spared());
  out.U64(replayer.record_count());
  out.U64(replayer.records_dropped());
  out.U64(replayer.records_skew_dropped());
  out.F64(replayer.now());
}

StateHeader DecodeStateHeader(persist::BinaryReader& in) {
  StateHeader h;
  h.stats.events = static_cast<std::size_t>(in.U64());
  h.stats.uer_events = static_cast<std::size_t>(in.U64());
  h.stats.banks_classified = static_cast<std::size_t>(in.U64());
  h.stats.banks_bank_spared = static_cast<std::size_t>(in.U64());
  h.stats.predictions_issued = static_cast<std::size_t>(in.U64());
  h.stats.rows_isolated = static_cast<std::size_t>(in.U64());
  h.stats.uer_rows_total = static_cast<std::size_t>(in.U64());
  h.stats.uer_rows_covered = static_cast<std::size_t>(in.U64());
  h.stats.uer_rows_covered_by_bank = static_cast<std::size_t>(in.U64());
  h.stats.records_skew_dropped = static_cast<std::size_t>(in.U64());
  h.budget.rows_per_bank = in.U32();
  h.budget.bank_sparing_available = in.U8() != 0;
  h.budget.row_spare_cost = in.F64();
  h.budget.bank_spare_cost = in.F64();
  h.rows_spared = in.U64();
  h.banks_spared = in.U64();
  h.records = in.U64();
  h.dropped = in.U64();
  h.skew_dropped = in.U64();
  h.now = in.F64();
  return h;
}

constexpr std::uint8_t kBlobHasLedgerEntry = 1u << 0;
constexpr std::uint8_t kBlobBankSpared = 1u << 1;

/// One bank's full slice of engine state: Cordial decision state, the
/// profile, this bank's ledger section (the has-entry flag distinguishes
/// "no spared-row entry" from "an entry with zero rows" — TrySpareRow
/// creates the latter when rows_per_bank is 0, and the text serializer
/// lists it, so byte-identity needs the distinction), and the replayer's
/// retained event window.
void EncodeBankBlob(persist::BinaryWriter& out, const CordialBankState& cordial,
                    const BankProfile& profile,
                    const hbm::SparingLedger& ledger, std::uint64_t key,
                    const trace::BankHistory* window,
                    const hbm::AddressCodec& codec) {
  out.U64(cordial.uer_events_seen);
  out.U64(cordial.anchors_used);
  out.U8(cordial.classified ? 1 : 0);
  out.U8(static_cast<std::uint8_t>(cordial.bank_class));
  out.I64(cordial.last_anchor_row);
  profile.SaveBinary(out);

  const std::unordered_set<std::uint32_t>* rows = ledger.FindRowEntry(key);
  std::uint8_t flags = 0;
  if (rows != nullptr) flags |= kBlobHasLedgerEntry;
  if (ledger.IsBankSpared(key)) flags |= kBlobBankSpared;
  out.U8(flags);
  if (rows != nullptr) {
    std::vector<std::uint32_t> sorted(rows->begin(), rows->end());
    std::sort(sorted.begin(), sorted.end());
    out.U32(static_cast<std::uint32_t>(sorted.size()));
    for (const std::uint32_t row : sorted) out.U32(row);
  }

  const std::size_t events = window != nullptr ? window->events.size() : 0;
  out.U32(static_cast<std::uint32_t>(events));
  if (window != nullptr) {
    for (const trace::MceRecord& r : window->events) {
      out.F64(r.time_s);
      out.U64(codec.Pack(r.address));
      out.U8(static_cast<std::uint8_t>(r.type));
    }
  }
}

struct BankBlob {
  CordialBankState cordial;
  BankProfile profile{1};
  bool has_ledger_entry = false;
  bool bank_spared = false;
  std::vector<std::uint32_t> rows;
  trace::BankHistory window;
};

BankBlob DecodeBankBlob(persist::BinaryReader& in, std::uint64_t key,
                        const hbm::AddressCodec& codec) {
  BankBlob blob;
  blob.cordial.uer_events_seen = static_cast<std::size_t>(in.U64());
  blob.cordial.anchors_used = static_cast<std::size_t>(in.U64());
  blob.cordial.classified = in.U8() != 0;
  const std::uint8_t bank_class = in.U8();
  if (bank_class > 2) {
    throw ParseError("engine bank: unknown failure class");
  }
  blob.cordial.bank_class = static_cast<hbm::FailureClass>(bank_class);
  blob.cordial.last_anchor_row = in.I64();
  blob.profile = BankProfile::LoadBinary(in);

  const std::uint8_t flags = in.U8();
  blob.has_ledger_entry = (flags & kBlobHasLedgerEntry) != 0;
  blob.bank_spared = (flags & kBlobBankSpared) != 0;
  if (blob.has_ledger_entry) {
    const std::uint32_t nrows = in.Count32(4);
    blob.rows.reserve(nrows);
    for (std::uint32_t i = 0; i < nrows; ++i) blob.rows.push_back(in.U32());
  }

  const std::uint32_t nevents = in.Count32(17);  // f64 + u64 + u8 per event
  blob.window.bank_key = key;
  blob.window.events.reserve(nevents);
  for (std::uint32_t e = 0; e < nevents; ++e) {
    trace::MceRecord r;
    r.time_s = in.F64();
    r.address = codec.Unpack(in.U64());
    const std::uint8_t type = in.U8();
    if (type > 2) throw ParseError("engine bank event: unknown error type");
    r.type = static_cast<hbm::ErrorType>(type);
    blob.window.events.push_back(r);
  }
  return blob;
}

}  // namespace

EncodedState PredictionEngine::EncodeBinarySection(
    const char* magic, std::uint32_t version,
    const std::vector<std::uint64_t>& keys) const {
  std::string payload;
  persist::BinaryWriter writer(payload);
  const std::size_t header_at = writer.BeginLength32();
  EncodeStateHeader(writer, stats_, ledger_, replayer_);
  writer.EndLength32(header_at);
  writer.U64(keys.size());
  for (const std::uint64_t key : keys) {
    const BankState& state = banks_.at(key);
    writer.U64(key);
    const std::size_t blob_at = writer.BeginLength32();
    EncodeBankBlob(writer, state.cordial, state.profile, ledger_, key,
                   replayer_.Find(key), codec_);
    writer.EndLength32(blob_at);
  }
  return EncodedState{Frame(magic, version, ByteRope(std::move(payload))),
                      keys.size()};
}

EncodedState PredictionEngine::EncodeState(StateEncoding encoding) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(banks_.size());
  for (const auto& [key, state] : banks_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  if (encoding == StateEncoding::kBinary) {
    return EncodeBinarySection(kEngineStateMagic, kEngineStateBinaryVersion,
                               keys);
  }

  std::ostringstream payload;
  payload << "stats " << stats_.events << ' ' << stats_.uer_events << ' '
          << stats_.banks_classified << ' ' << stats_.banks_bank_spared << ' '
          << stats_.predictions_issued << ' ' << stats_.rows_isolated << ' '
          << stats_.uer_rows_total << ' ' << stats_.uer_rows_covered << ' '
          << stats_.uer_rows_covered_by_bank << ' '
          << stats_.records_skew_dropped << '\n';
  ledger_.Save(payload);
  replayer_.Save(payload);

  payload << "banks " << keys.size() << '\n';
  for (const std::uint64_t key : keys) {
    const BankState& state = banks_.at(key);
    payload << key << ' ' << state.cordial.uer_events_seen << ' '
            << state.cordial.anchors_used << ' '
            << (state.cordial.classified ? 1 : 0) << ' '
            << static_cast<int>(state.cordial.bank_class) << ' '
            << state.cordial.last_anchor_row << '\n';
    state.profile.Save(payload);
  }
  return EncodedState{Frame(kEngineStateMagic, kEngineStateVersion,
                            ByteRope(std::move(payload).str())),
                      keys.size()};
}

void PredictionEngine::SaveState(std::ostream& out,
                                 StateEncoding encoding) const {
  EncodeState(encoding).bytes.WriteTo(out);
}

EncodedState PredictionEngine::EncodeDeltaState() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(dirty_banks_);
  for (const auto& [key, state] : banks_) {
    if (state.dirty_epoch == snapshot_epoch_) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return EncodeBinarySection(kEngineDeltaMagic, kEngineDeltaVersion, keys);
}

std::uint64_t PredictionEngine::SaveDeltaState(std::ostream& out) const {
  EncodedState delta = EncodeDeltaState();
  delta.bytes.WriteTo(out);
  return delta.banks;
}

void PredictionEngine::MarkCheckpointClean() {
  ++snapshot_epoch_;
  dirty_banks_ = 0;
}

struct PredictionEngine::StagedState::Impl {
  EngineStats stats;
  hbm::SparingLedger ledger;
  trace::StagedReplayerState replayer;
  std::unordered_map<std::uint64_t, BankState> banks;
};

PredictionEngine::StagedState::StagedState() : impl_(new Impl()) {}
PredictionEngine::StagedState::StagedState(StagedState&&) noexcept = default;
PredictionEngine::StagedState& PredictionEngine::StagedState::operator=(
    StagedState&&) noexcept = default;
PredictionEngine::StagedState::~StagedState() = default;

void PredictionEngine::RestoreState(std::istream& in) {
  CommitState(ParseState(in));
}

PredictionEngine::StagedState PredictionEngine::ParseState(
    std::istream& in) const {
  std::uint32_t version = 0;
  std::string raw = ReadFramedAny(
      in, kEngineStateMagic, {kEngineStateVersion, kEngineStateBinaryVersion},
      &version);
  if (version == kEngineStateBinaryVersion) {
    StagedState staged;
    persist::BinaryReader reader(raw, "engine state v2");
    const std::uint32_t header_len = reader.Count32(1);
    persist::BinaryReader header_reader(reader.Bytes(header_len),
                                        "engine state header");
    const StateHeader header = DecodeStateHeader(header_reader);
    header_reader.ExpectEnd();
    staged.impl_->stats = header.stats;
    hbm::SparingLedger ledger(header.budget);
    trace::StagedReplayerState& replayer = staged.impl_->replayer;
    replayer.records = static_cast<std::size_t>(header.records);
    replayer.dropped = static_cast<std::size_t>(header.dropped);
    replayer.skew_dropped = static_cast<std::size_t>(header.skew_dropped);
    replayer.now = header.now;

    const std::uint64_t bank_count = reader.Count(8 + 4);
    std::unordered_map<std::uint64_t, BankState>& banks = staged.impl_->banks;
    banks.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(bank_count, 1 << 16)));
    for (std::uint64_t b = 0; b < bank_count; ++b) {
      const std::uint64_t key = reader.U64();
      const std::uint32_t blob_len = reader.Count32(1);
      persist::BinaryReader blob_reader(reader.Bytes(blob_len),
                                        "engine bank blob");
      BankBlob blob = DecodeBankBlob(blob_reader, key, codec_);
      blob_reader.ExpectEnd();
      const auto [it, inserted] =
          banks.try_emplace(key, classifier_->extractor().max_uers());
      if (!inserted) throw ParseError("engine bank: duplicate bank key");
      it->second.cordial = blob.cordial;
      it->second.profile = std::move(blob.profile);
      ledger.RestoreBankSection(key, blob.has_ledger_entry, blob.rows,
                                blob.bank_spared);
      if (!blob.window.events.empty()) {
        replayer.banks.emplace(key, std::move(blob.window));
      }
    }
    reader.ExpectEnd();
    ledger.RestoreCounters(header.rows_spared, header.banks_spared);
    staged.impl_->ledger = std::move(ledger);
    return staged;
  }

  std::istringstream payload(std::move(raw));
  StagedState staged;
  ExpectToken(payload, "stats");
  EngineStats& stats = staged.impl_->stats;
  stats.events = ReadU64Token(payload, "engine stats");
  stats.uer_events = ReadU64Token(payload, "engine stats");
  stats.banks_classified = ReadU64Token(payload, "engine stats");
  stats.banks_bank_spared = ReadU64Token(payload, "engine stats");
  stats.predictions_issued = ReadU64Token(payload, "engine stats");
  stats.rows_isolated = ReadU64Token(payload, "engine stats");
  stats.uer_rows_total = ReadU64Token(payload, "engine stats");
  stats.uer_rows_covered = ReadU64Token(payload, "engine stats");
  stats.uer_rows_covered_by_bank = ReadU64Token(payload, "engine stats");
  stats.records_skew_dropped = ReadU64Token(payload, "engine stats");

  staged.impl_->ledger = hbm::SparingLedger::Load(payload);
  staged.impl_->replayer = replayer_.ParseState(payload);

  ExpectToken(payload, "banks");
  const std::uint64_t bank_count = ReadU64Token(payload, "engine banks");
  std::unordered_map<std::uint64_t, BankState>& banks = staged.impl_->banks;
  // Cap the reserve: a corrupt count fails below on a token read, and must
  // not pre-allocate an absurd table first.
  banks.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(bank_count, 1 << 16)));
  for (std::uint64_t b = 0; b < bank_count; ++b) {
    const std::uint64_t key = ReadU64Token(payload, "engine bank");
    const auto [it, inserted] =
        banks.try_emplace(key, classifier_->extractor().max_uers());
    if (!inserted) throw ParseError("engine bank: duplicate bank key");
    BankState& state = it->second;
    state.cordial.uer_events_seen = ReadU64Token(payload, "engine bank");
    state.cordial.anchors_used = ReadU64Token(payload, "engine bank");
    state.cordial.classified = ReadU64Token(payload, "engine bank") != 0;
    const std::int64_t bank_class = ReadI64Token(payload, "engine bank");
    if (bank_class < 0 || bank_class > 2) {
      throw ParseError("engine bank: unknown failure class");
    }
    state.cordial.bank_class = static_cast<hbm::FailureClass>(bank_class);
    state.cordial.last_anchor_row = ReadI64Token(payload, "engine bank");
    state.profile = BankProfile::Load(payload);
  }
  return staged;
}

void PredictionEngine::CommitState(StagedState&& staged) {
  stats_ = staged.impl_->stats;
  ledger_ = std::move(staged.impl_->ledger);
  replayer_.CommitState(std::move(staged.impl_->replayer));
  banks_ = std::move(staged.impl_->banks);
  // Freshly parsed BankStates carry dirty_epoch 0, which can never equal
  // snapshot_epoch_ (>= 1): the restored state is entirely clean.
  dirty_banks_ = 0;
}

struct PredictionEngine::StagedDelta::Impl {
  EngineStats stats;
  std::uint64_t rows_spared = 0;
  std::uint64_t banks_spared = 0;
  std::size_t records = 0;
  std::size_t dropped = 0;
  std::size_t skew_dropped = 0;
  double now = 0.0;
  struct Bank {
    std::uint64_t key = 0;
    BankBlob blob;
  };
  std::vector<Bank> banks;
};

PredictionEngine::StagedDelta::StagedDelta() : impl_(new Impl()) {}
PredictionEngine::StagedDelta::StagedDelta(StagedDelta&&) noexcept = default;
PredictionEngine::StagedDelta& PredictionEngine::StagedDelta::operator=(
    StagedDelta&&) noexcept = default;
PredictionEngine::StagedDelta::~StagedDelta() = default;

PredictionEngine::StagedDelta PredictionEngine::ParseDeltaState(
    std::istream& in) const {
  const std::string raw = ReadFramed(in, kEngineDeltaMagic, kEngineDeltaVersion);
  StagedDelta staged;
  persist::BinaryReader reader(raw, "engine delta");
  const std::uint32_t header_len = reader.Count32(1);
  persist::BinaryReader header_reader(reader.Bytes(header_len),
                                      "engine delta header");
  const StateHeader header = DecodeStateHeader(header_reader);
  header_reader.ExpectEnd();
  // The budget in a delta header describes the chain's full snapshot; the
  // live ledger already carries it, so only the counters are staged.
  staged.impl_->stats = header.stats;
  staged.impl_->rows_spared = header.rows_spared;
  staged.impl_->banks_spared = header.banks_spared;
  staged.impl_->records = static_cast<std::size_t>(header.records);
  staged.impl_->dropped = static_cast<std::size_t>(header.dropped);
  staged.impl_->skew_dropped = static_cast<std::size_t>(header.skew_dropped);
  staged.impl_->now = header.now;

  const std::uint64_t bank_count = reader.Count(8 + 4);
  staged.impl_->banks.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(bank_count, 1 << 16)));
  std::uint64_t prev_key = 0;
  for (std::uint64_t b = 0; b < bank_count; ++b) {
    StagedDelta::Impl::Bank bank;
    bank.key = reader.U64();
    if (b > 0 && bank.key <= prev_key) {
      throw ParseError("engine delta: bank keys not strictly ascending");
    }
    prev_key = bank.key;
    const std::uint32_t blob_len = reader.Count32(1);
    persist::BinaryReader blob_reader(reader.Bytes(blob_len),
                                      "engine delta bank blob");
    bank.blob = DecodeBankBlob(blob_reader, bank.key, codec_);
    blob_reader.ExpectEnd();
    staged.impl_->banks.push_back(std::move(bank));
  }
  reader.ExpectEnd();
  return staged;
}

void PredictionEngine::CommitDeltaState(StagedDelta&& staged) {
  stats_ = staged.impl_->stats;
  ledger_.RestoreCounters(staged.impl_->rows_spared,
                          staged.impl_->banks_spared);
  replayer_.RestoreCounters(staged.impl_->records, staged.impl_->dropped,
                            staged.impl_->skew_dropped, staged.impl_->now);
  for (StagedDelta::Impl::Bank& bank : staged.impl_->banks) {
    BankBlob& blob = bank.blob;
    ledger_.RestoreBankSection(bank.key, blob.has_ledger_entry, blob.rows,
                               blob.bank_spared);
    if (!blob.window.events.empty()) {
      replayer_.OverwriteBank(std::move(blob.window));
    }
    const auto [it, inserted] =
        banks_.try_emplace(bank.key, classifier_->extractor().max_uers());
    if (!inserted && it->second.dirty_epoch == snapshot_epoch_) {
      --dirty_banks_;
    }
    it->second.cordial = blob.cordial;
    it->second.profile = std::move(blob.profile);
    // The committed bank now matches the checkpoint that carried it.
    it->second.dirty_epoch = 0;
  }
}

void PredictionEngine::ApplyDeltaState(std::istream& in) {
  CommitDeltaState(ParseDeltaState(in));
}

}  // namespace cordial::core
