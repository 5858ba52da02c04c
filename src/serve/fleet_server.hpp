// Sharded fleet server: N PredictionEngines behind deterministic routing.
//
// A fleet feed is one globally time-ordered MCE stream; a single engine
// consumes it serially. The server splits the fleet's banks across N
// EngineShards via a fixed hash of the global bank key (SplitMix64, so
// adjacent keys scatter), each with its own queue + worker. Because Cordial
// is per-bank — profiles, decision state, ledger entries never cross banks —
// a bank's records all land on one shard in submission order, and the
// sharded server's decisions, ledgers and aggregate stats are bit-identical
// to the single engine's (pinned by tests/serve/fleet_server_test.cpp).
//
// Checkpointing: SaveCheckpoint serializes every shard's engine into one
// versioned frame; RestoreCheckpoint rebuilds a same-shape server that
// resumes bit-identically. Both require the server to be drained.
//
// Migration: a shard's engine state can leave one server and land in
// another. ExportShard drains the shard and returns its framed engine
// section (the exact bytes a checkpoint would hold for it); ImportShard
// installs such a section into the same-index shard of another server.
// Routing is position-based — ShardIndexOf(bank_key, shard_count) is a pure
// function every process agrees on — so a driver that runs N servers each
// constructed with the full shard_count, feeds each server only the shards
// it owns, and moves ownership with Export/Import, produces per-shard
// engine states bit-identical to one server consuming the whole feed
// (pinned by tests/serve/migration_test.cpp and the tier-1 two-process
// smoke).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "serve/shard.hpp"

namespace cordial::serve {

struct FleetServerConfig {
  std::size_t shard_count = 1;  ///< must be >= 1
  core::EngineConfig engine;    ///< per-shard engine configuration
  QueueConfig queue;            ///< per-shard queue bound + overload policy
  /// Per-shard metrics (queue depth, latency histograms, engine action
  /// counters, labelled shard="<index>"). Near-free on the hot path —
  /// relaxed atomics and two steady_clock reads per record — but can be
  /// turned off to benchmark the bare path (bench/perf_obs_overhead).
  bool instrument = true;
  /// When set, every shard's engine subscribes to this slot
  /// (PredictionEngine::AttachModelSlot): newly published model generations
  /// are adopted per shard at its next record boundary. The slot must
  /// outlive the server. Null = models are fixed for the server's lifetime.
  const core::ModelSlot* model_slot = nullptr;
};

class FleetServer {
 public:
  /// Sink invoked on each shard's worker thread after every engine step.
  /// Distinct shards call it concurrently — the sink must be thread-safe
  /// (per-shard sinks can be built by dispatching on `shard`).
  using ActionSink = std::function<void(std::size_t shard,
                                        const trace::MceRecord& record,
                                        const core::IsolationActions&)>;

  FleetServer(const hbm::TopologyConfig& topology,
              const core::PatternClassifier& classifier,
              const core::CrossRowPredictor& single_predictor,
              const core::CrossRowPredictor* double_predictor = nullptr,
              FleetServerConfig config = {}, ActionSink sink = nullptr);

  /// Movable (factory-style construction); the atomic invalid-record tally
  /// carries over with a relaxed load — only valid between submissions,
  /// which is the only time moving a server is sane anyway.
  FleetServer(FleetServer&& other) noexcept
      : codec_(std::move(other.codec_)),
        shards_(std::move(other.shards_)),
        invalid_records_(
            other.invalid_records_.load(std::memory_order_relaxed)) {}

  void Start();  ///< start every shard's worker
  /// Route one record to its bank's shard. Returns false when that shard
  /// refused it (kReject overload policy). The && overload moves the record
  /// all the way into its shard's ring slot.
  ///
  /// Records with an out-of-topology address or a non-finite timestamp are
  /// silently consumed: counted in invalid_records(), reported as accepted
  /// (no spurious backpressure to remote feeders), never routed to a shard.
  /// Without this guard such a record would trip BankKey's contract check on
  /// the submitter's thread and take the daemon down with it.
  bool Submit(const trace::MceRecord& record);
  bool Submit(trace::MceRecord&& record);
  /// Route a batch: bucket the span by shard (stable — records keep their
  /// span order within each bucket, which is all determinism needs since a
  /// bank never spans shards), then hand each bucket to its shard's
  /// SubmitBatch. Returns the number of records accepted; invalid records
  /// follow the Submit contract (counted, included in the return, dropped).
  std::size_t SubmitBatch(std::span<const trace::MceRecord> records);
  void Drain();  ///< block until every shard is idle with an empty queue
  void Stop();   ///< drain remaining work and join all workers; idempotent

  std::size_t shard_count() const { return shards_.size(); }
  const EngineShard& shard(std::size_t index) const {
    return *shards_[index];
  }
  /// Deterministic bank→shard routing: SplitMix64(bank_key) % shard_count.
  std::size_t ShardOf(std::uint64_t bank_key) const;
  /// The same routing as a pure function — remote feeders use it to agree
  /// with every server on which shard owns a bank.
  static std::size_t ShardIndexOf(std::uint64_t bank_key,
                                  std::size_t shard_count);
  const hbm::AddressCodec& codec() const { return codec_; }

  // --- shard migration -----------------------------------------------------

  /// Block until shard `index` is idle with an empty queue.
  void DrainShard(std::size_t index);
  /// Drain shard `index` and return its engine's framed state — the exact
  /// bytes SaveCheckpoint writes for that shard's section. The caller must
  /// stop submitting records routed to this shard first, or the export is a
  /// snapshot of a moving target.
  std::string ExportShard(std::size_t index);
  /// Drain shard `index` and replace its engine state with a section
  /// previously produced by ExportShard (here or on another server with the
  /// same engine config). Throws ParseError on malformed input and leaves
  /// the shard unchanged.
  void ImportShard(std::size_t index, const std::string& state);

  /// Records consumed by Submit/SubmitBatch that never reached a shard
  /// because their address fell outside the topology or their timestamp was
  /// non-finite.
  std::uint64_t invalid_records() const {
    return invalid_records_.load(std::memory_order_relaxed);
  }

  /// Element-wise sum of every shard engine's stats (ratios recompute from
  /// the summed tallies). Meaningful when drained.
  core::EngineStats AggregateStats() const;
  /// Element-wise sum of every shard's queue counters.
  ShardCounters AggregateCounters() const;

  /// Merge every shard registry's snapshot into one deterministic scrape
  /// (samples sorted by name + shard label). Safe to call at any time,
  /// concurrently with submission and the workers — this is the /metrics
  /// read path. When the server is uninstrumented the snapshot is empty.
  obs::RegistrySnapshot MetricsSnapshot() const;

  /// Per-shard model generation currently being served, read from each
  /// engine's model-version gauge path (an acquire load — safe while
  /// running). Shards adopt a published generation independently at their
  /// next record boundary, so the entries may briefly disagree right after
  /// a publish; they converge as every shard touches its next record.
  std::vector<std::uint64_t> ModelVersions() const;

  /// Human-readable per-shard table (queue counters, depth, live engine
  /// action counters) for /statusz. Safe while running: every cell comes
  /// from a mutex-guarded counter copy or an atomic metric, never from the
  /// engines themselves.
  std::string StatusTable() const;

  /// Encode every shard engine into one framed checkpoint member. The
  /// server must be drained (Drain() or Stop() first). The outer fleet frame
  /// is the same for both encodings ("shards N" + nested engine frames);
  /// each nested engine frame self-describes v1 text or v2 binary, so
  /// RestoreCheckpoint reads either transparently.
  ///
  /// The shards encode their sections concurrently (RunConcurrently — not
  /// the shared ParallelFor pool, which a shadow forest fit may hold for
  /// seconds), and the member is their sections' ropes behind the fleet
  /// header: no section byte is copied or checksummed again, and the
  /// member's whole-file CRC (EncodedState::bytes.crc32()) comes from the
  /// sections' CRCs. `banks` is the number of banks serialized.
  core::EncodedState EncodeCheckpoint(core::StateEncoding encoding) const;
  /// EncodeCheckpoint's bytes written to `out`.
  void SaveCheckpoint(std::ostream& out, core::StateEncoding encoding =
                                             core::StateEncoding::kText) const;
  /// Restore from a SaveCheckpoint stream. Throws ParseError on malformed
  /// input, version mismatch, or a shard-count mismatch (a checkpoint only
  /// restores into a server with the same shard count). Strong guarantee:
  /// every shard section is parsed before any shard commits, so a throw
  /// leaves the whole server unchanged — never half-restored.
  void RestoreCheckpoint(std::istream& in);

  // --- delta checkpoints (server must be drained throughout) ---------------

  /// Encode every shard's dirty banks into one cordial_fleet_delta frame,
  /// the same way EncodeCheckpoint encodes a full. Dirty sets are NOT
  /// cleared — call MarkCheckpointClean once the bytes are durable, so a
  /// failed write loses nothing.
  core::EncodedState EncodeDeltaCheckpoint() const;
  /// EncodeDeltaCheckpoint's bytes written to `out`; returns the total
  /// number of banks written across shards.
  std::uint64_t SaveDeltaCheckpoint(std::ostream& out) const;
  /// Apply a delta on top of the current state (the full snapshot it chains
  /// from, plus any earlier deltas). Same strong guarantee and shard-count
  /// check as RestoreCheckpoint: every shard's delta is parsed before any
  /// commits.
  void ApplyDeltaCheckpoint(std::istream& in);
  /// Advance every shard's snapshot epoch (all banks become clean).
  void MarkCheckpointClean();
  /// Banks dirtied since the last MarkCheckpointClean, across all shards.
  std::size_t DirtyBankCount() const;
  std::size_t TotalBankCount() const;

 private:
  bool ValidRecord(const trace::MceRecord& record) const;

  hbm::AddressCodec codec_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::atomic<std::uint64_t> invalid_records_{0};
};

}  // namespace cordial::serve
