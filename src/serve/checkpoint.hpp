// Checkpoint framing constants, crash-safe file helpers and the boot-time
// recovery policy for the serve layer.
//
// A fleet checkpoint is one frame (common/framing.hpp) whose payload holds
// the shard count followed by each shard engine's own framed state, in shard
// order. Frames nest, so every section self-describes its version, length
// and CRC-32, and a truncated or bit-rotted file is rejected rather than
// half-loaded.
//
// Crash-consistency contract of WriteCheckpointFile:
//   1. the full serialized state is written to `<path>.tmp` and fsync'd —
//      the data is on disk before anything points at it;
//   2. the previous `<path>` (if any) is retained as `<path>.prev` via a
//      hard link, so one older generation survives a corrupting write;
//   3. `<path>.tmp` is renamed over `<path>` (atomic within a filesystem);
//   4. the containing directory is fsync'd, making the rename itself
//      durable — without this a power cut can roll the directory entry
//      back to the old file even though the data blocks were flushed.
// On any failure the tmp file is unlinked and ContractViolation is thrown;
// a crash at any instant leaves either the old complete checkpoint or the
// new complete checkpoint at `<path>`, never a torn one.
//
// Every step is wired with a failpoint (common/failpoint.hpp) so the
// failure paths stay testable: serve.checkpoint.{open,write,fsync,rename,
// dirsync} make the corresponding syscall report EIO, and
// serve.checkpoint.crash_before_rename power-cuts the process (::_exit)
// after the tmp file is durable but before it is published.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/framing.hpp"

namespace cordial::serve {

class FleetServer;

inline constexpr char kFleetCheckpointMagic[] = "cordial_fleet_checkpoint";
inline constexpr std::uint32_t kFleetCheckpointVersion = 1;

/// Fleet-wide delta checkpoint frame: the same "shards N" + nested engine
/// frame layout as a full checkpoint, but each nested frame is a
/// cordial_engine_delta carrying only that shard's dirty banks.
inline constexpr char kFleetDeltaMagic[] = "cordial_fleet_delta";
inline constexpr std::uint32_t kFleetDeltaVersion = 1;

/// The crash-consistency core shared by full checkpoints, chain members and
/// chain manifests: durably publish `bytes` at `path` via tmp + fsync +
/// rename + directory fsync (steps 1/3/4 of the contract above, wired with
/// the same serve.checkpoint.* failpoints). With `retain_prev` the previous
/// `<path>` survives as `<path>.prev` (step 2) — and the replacement of an
/// older `.prev` is itself atomic (link to `<path>.prev.tmp`, then rename),
/// so no instant exists where the fallback generation is missing. Chain
/// members pass retain_prev=false: their history lives in the chain itself,
/// and a stray `.prev` would only confuse the manifest. Throws
/// ContractViolation on failure; the tmp file is removed, `path` and
/// `<path>.prev` are left as they were.
void WriteFileDurably(const std::string& path, std::string_view bytes,
                      bool retain_prev);
/// The same, gathering a rope's pieces straight into the file (no
/// flattening copy) — how checkpoint members reach disk.
void WriteFileDurably(const std::string& path, const ByteRope& bytes,
                      bool retain_prev);

/// Atomically and durably write `server`'s checkpoint to `path` (tmp +
/// fsync + rename + directory fsync, retaining the previous generation as
/// `<path>.prev`). The server must be drained. Throws ContractViolation
/// when the file cannot be written; the tmp file is removed on failure.
void WriteCheckpointFile(const FleetServer& server, const std::string& path);

/// Restore `server` from a checkpoint file. Returns false when `path` does
/// not exist (fresh start); throws ParseError on a malformed or
/// incompatible checkpoint (the server is left unchanged).
bool ReadCheckpointFile(FleetServer& server, const std::string& path);

/// What RecoverCheckpoint did at boot.
struct RecoveryOutcome {
  /// The file the server restored from; empty = fresh start (no candidate
  /// existed, or every one was corrupt and quarantined).
  std::string restored_from;
  /// Corrupt candidates, in the order found, after being renamed to
  /// `<candidate>.corrupt` for post-mortem inspection.
  std::vector<std::string> quarantined;
  /// One human-readable reason per quarantined file.
  std::vector<std::string> errors;

  /// True when the newest checkpoint could not be used (recovery fell back
  /// to an older generation or to a fresh start).
  bool fell_back() const { return !quarantined.empty(); }
};

/// Boot-time recovery: try `path`, then `path + ".prev"`. A candidate that
/// fails to restore (ParseError: truncation, bit rot, version mismatch) is
/// quarantined to `<candidate>.corrupt` and the next one is tried; the
/// server is untouched by failed candidates (strong restore guarantee), so
/// falling through to a fresh start is safe. Never throws ParseError.
RecoveryOutcome RecoverCheckpoint(FleetServer& server,
                                  const std::string& path);

}  // namespace cordial::serve
