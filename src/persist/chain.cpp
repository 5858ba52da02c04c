#include "persist/chain.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "persist/binary_io.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"

namespace cordial::persist {

namespace {

std::string FullFileName(std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "full-%06llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string DeltaFileName(std::uint64_t epoch, std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "delta-%06llu.%04llu.ckpt",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string JoinPath(const std::string& directory, const std::string& file) {
  if (directory.empty()) return file;
  if (directory.back() == '/') return directory + file;
  return directory + "/" + file;
}

bool ReadFileBytes(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  bytes = buffer.str();
  return true;
}

/// Rename a corrupt file to `<file>.corrupt` for post-mortem inspection.
void Quarantine(const std::string& path) {
  std::rename(path.c_str(), (path + ".corrupt").c_str());
}

/// Parse "full-<epoch>.ckpt" / "delta-<epoch>.<seq>.ckpt". Returns false
/// for anything else (manifests, tmp files, quarantined members).
bool ParseMemberName(const std::string& name, ChainEntry& entry) {
  const auto digits = [](const std::string& s, std::size_t from,
                         std::size_t to, std::uint64_t& value) {
    if (from >= to) return false;
    value = 0;
    for (std::size_t i = from; i < to; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      value = value * 10 + static_cast<std::uint64_t>(s[i] - '0');
    }
    return true;
  };
  const std::string suffix = ".ckpt";
  if (name.size() <= suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::size_t end = name.size() - suffix.size();
  if (name.rfind("full-", 0) == 0) {
    if (!digits(name, 5, end, entry.epoch)) return false;
    entry.is_full = true;
    entry.seq = 0;
    entry.file = name;
    return true;
  }
  if (name.rfind("delta-", 0) == 0) {
    const std::size_t dot = name.find('.', 6);
    if (dot == std::string::npos || dot >= end) return false;
    if (!digits(name, 6, dot, entry.epoch)) return false;
    if (!digits(name, dot + 1, end, entry.seq)) return false;
    entry.is_full = false;
    entry.file = name;
    return true;
  }
  return false;
}

/// All chain-member files in `directory` (by name shape only).
std::vector<ChainEntry> ScanMembers(const std::string& directory) {
  std::vector<ChainEntry> members;
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) return members;
  while (dirent* ent = ::readdir(dir)) {
    ChainEntry entry;
    if (ParseMemberName(ent->d_name, entry)) members.push_back(entry);
  }
  ::closedir(dir);
  return members;
}

/// Group scanned members into restore candidates, newest epoch first: each
/// candidate is a full plus its contiguous deltas (seq 1..n, stopping at
/// the first gap). Epochs without a full cannot be restored and are
/// skipped.
std::vector<std::vector<ChainEntry>> ScanChains(const std::string& directory) {
  std::map<std::uint64_t, std::vector<ChainEntry>> by_epoch;
  for (ChainEntry& entry : ScanMembers(directory)) {
    by_epoch[entry.epoch].push_back(std::move(entry));
  }
  std::vector<std::vector<ChainEntry>> chains;
  for (auto it = by_epoch.rbegin(); it != by_epoch.rend(); ++it) {
    std::vector<ChainEntry>& members = it->second;
    std::sort(members.begin(), members.end(),
              [](const ChainEntry& a, const ChainEntry& b) {
                if (a.is_full != b.is_full) return a.is_full;
                return a.seq < b.seq;
              });
    if (members.empty() || !members.front().is_full) continue;
    std::vector<ChainEntry> chain;
    chain.push_back(members.front());
    std::uint64_t expect_seq = 1;
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (members[i].is_full || members[i].seq != expect_seq) break;
      chain.push_back(members[i]);
      ++expect_seq;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::uint64_t MaxEpochOnDisk(const std::string& directory) {
  std::uint64_t max_epoch = 0;
  for (const ChainEntry& entry : ScanMembers(directory)) {
    max_epoch = std::max(max_epoch, entry.epoch);
  }
  return max_epoch;
}

/// Load and decode a manifest file. Returns false when the file does not
/// exist; throws ParseError when it exists but is malformed.
bool LoadManifestFile(const std::string& path, Manifest& manifest) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  manifest = DecodeManifest(in);
  return true;
}

/// Remove every chain-member file in `directory` that `keep` does not list.
/// Quarantined (`.corrupt`) files and manifests are untouched. Best-effort:
/// pruning runs only after the new manifest is durable, so a leftover file
/// is garbage, not state.
void PruneExcept(const std::string& directory, const Manifest& keep) {
  for (const ChainEntry& entry : ScanMembers(directory)) {
    bool kept = false;
    for (const ChainEntry& k : keep.entries) {
      if (k.file == entry.file) {
        kept = true;
        break;
      }
    }
    if (!kept) ::unlink(JoinPath(directory, entry.file).c_str());
  }
}

// --- structural member images (offline fold) ------------------------------

/// One shard's section of a member, kept as opaque bytes: the header blob
/// verbatim plus each bank's blob keyed for overlay. The fold never decodes
/// bank contents — it only needs the self-delimiting lengths.
struct ShardImage {
  std::string header;
  std::map<std::uint64_t, std::string> banks;  ///< sorted, as the codec writes
};

struct FleetImage {
  bool is_delta = false;
  std::vector<ShardImage> shards;
};

FleetImage ParseMemberImage(const std::string& bytes,
                            const std::string& member) {
  std::istringstream in(bytes);
  const std::string magic = PeekMagic(in);
  FleetImage image;
  std::string payload;
  if (magic == serve::kFleetCheckpointMagic) {
    payload = ReadFramed(in, serve::kFleetCheckpointMagic,
                         serve::kFleetCheckpointVersion);
  } else if (magic == serve::kFleetDeltaMagic) {
    image.is_delta = true;
    payload = ReadFramed(in, serve::kFleetDeltaMagic, serve::kFleetDeltaVersion);
  } else {
    throw ParseError(member + ": not a chain member (magic \"" + magic +
                     "\")");
  }
  std::istringstream sections(payload);
  ExpectToken(sections, "shards");
  const std::uint64_t shard_count = ReadU64Token(sections, "chain member");
  image.shards.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(shard_count, 1u << 12)));
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    std::string engine_payload;
    if (image.is_delta) {
      engine_payload = ReadFramed(sections, core::kEngineDeltaMagic,
                                  core::kEngineDeltaVersion);
    } else {
      std::uint32_t version = 0;
      engine_payload = ReadFramedAny(
          sections, core::kEngineStateMagic,
          {core::kEngineStateVersion, core::kEngineStateBinaryVersion},
          &version);
      if (version != core::kEngineStateBinaryVersion) {
        throw ParseError(member +
                         ": text-encoded engine payload; the offline fold "
                         "needs binary members (run the server with "
                         "--checkpoint-mode=delta, which writes binary "
                         "fulls)");
      }
    }
    BinaryReader reader(engine_payload, "chain member shard");
    ShardImage shard;
    const std::uint32_t header_len = reader.Count32(1);
    shard.header.assign(reader.Bytes(header_len));
    const std::uint64_t bank_count = reader.Count(8 + 4);
    for (std::uint64_t b = 0; b < bank_count; ++b) {
      const std::uint64_t key = reader.U64();
      const std::uint32_t blob_len = reader.Count32(1);
      if (!shard.banks.emplace(key, std::string(reader.Bytes(blob_len)))
               .second) {
        throw ParseError(member + ": duplicate bank key in shard section");
      }
    }
    reader.ExpectEnd();
    image.shards.push_back(std::move(shard));
  }
  return image;
}

/// Apply a delta image on top of a full image: headers are replaced (the
/// delta carries the newest global counters), bank blobs overlay by key.
void OverlayImage(FleetImage& base, FleetImage&& delta,
                  const std::string& member) {
  if (delta.shards.size() != base.shards.size()) {
    throw ParseError(member + ": delta has " +
                     std::to_string(delta.shards.size()) +
                     " shard(s) but the chain's full has " +
                     std::to_string(base.shards.size()));
  }
  for (std::size_t s = 0; s < base.shards.size(); ++s) {
    base.shards[s].header = std::move(delta.shards[s].header);
    for (auto& [key, blob] : delta.shards[s].banks) {
      base.shards[s].banks[key] = std::move(blob);
    }
  }
}

/// Serialize an image as the bytes of a binary full checkpoint — the same
/// frame nesting and field layout the live server writes, so a fold of
/// full+deltas is byte-identical to the full the server would have written
/// at the same record boundary.
ByteRope SerializeImageAsFull(const FleetImage& image) {
  ByteRope payload("shards " + std::to_string(image.shards.size()) + "\n");
  for (const ShardImage& shard : image.shards) {
    std::string engine_payload;
    BinaryWriter writer(engine_payload);
    writer.U32(static_cast<std::uint32_t>(shard.header.size()));
    writer.Bytes(shard.header);
    writer.U64(shard.banks.size());
    for (const auto& [key, blob] : shard.banks) {
      writer.U64(key);
      writer.U32(static_cast<std::uint32_t>(blob.size()));
      writer.Bytes(blob);
    }
    payload.Append(Frame(core::kEngineStateMagic,
                         core::kEngineStateBinaryVersion,
                         ByteRope(std::move(engine_payload))));
  }
  return Frame(serve::kFleetCheckpointMagic, serve::kFleetCheckpointVersion,
               std::move(payload));
}

/// Load the manifest for an offline tool: MANIFEST, then MANIFEST.prev.
/// Throws ParseError naming the directory when neither is usable.
Manifest RequireManifest(const std::string& directory) {
  Manifest manifest;
  const std::string primary = JoinPath(directory, kManifestFileName);
  std::string first_error;
  try {
    if (LoadManifestFile(primary, manifest)) return manifest;
    first_error = primary + ": no such file";
  } catch (const ParseError& e) {
    first_error = primary + ": " + e.what();
  }
  try {
    if (LoadManifestFile(primary + ".prev", manifest)) return manifest;
  } catch (const ParseError&) {
  }
  throw ParseError("no usable chain manifest in " + directory + " (" +
                   first_error + ")");
}

/// Read one member's bytes and require the manifest's size + CRC to match.
std::string RequireMemberBytes(const std::string& directory,
                               const ChainEntry& entry) {
  const std::string path = JoinPath(directory, entry.file);
  std::string bytes;
  if (!ReadFileBytes(path, bytes)) {
    throw ParseError(entry.file + ": chain member missing");
  }
  if (bytes.size() != entry.bytes || Crc32(bytes) != entry.crc32) {
    throw ParseError(entry.file +
                     ": chain member does not match its manifest record "
                     "(size/CRC-32 mismatch)");
  }
  return bytes;
}

FleetImage FoldManifest(const std::string& directory,
                        const Manifest& manifest) {
  CORDIAL_CHECK_MSG(!manifest.entries.empty(), "fold: empty manifest");
  FleetImage image = ParseMemberImage(
      RequireMemberBytes(directory, manifest.entries.front()),
      manifest.entries.front().file);
  if (image.is_delta) {
    throw ParseError(manifest.entries.front().file +
                     ": chain's first member is not a full checkpoint");
  }
  for (std::size_t i = 1; i < manifest.entries.size(); ++i) {
    const ChainEntry& entry = manifest.entries[i];
    FleetImage delta =
        ParseMemberImage(RequireMemberBytes(directory, entry), entry.file);
    if (!delta.is_delta) {
      throw ParseError(entry.file + ": expected a delta member");
    }
    OverlayImage(image, std::move(delta), entry.file);
  }
  return image;
}

}  // namespace

// --- manifest codec -------------------------------------------------------

std::string EncodeManifest(const Manifest& manifest) {
  std::ostringstream payload;
  payload << "epoch " << manifest.epoch << '\n';
  payload << "entries " << manifest.entries.size() << '\n';
  for (const ChainEntry& entry : manifest.entries) {
    payload << (entry.is_full ? "full" : "delta") << ' ' << entry.epoch << ' '
            << entry.seq << ' ' << entry.bytes << ' ' << entry.crc32 << ' '
            << entry.file << '\n';
  }
  std::ostringstream out;
  WriteFramed(out, kManifestMagic, kManifestVersion, payload.str());
  return out.str();
}

Manifest DecodeManifest(std::istream& in) {
  std::istringstream payload(ReadFramed(in, kManifestMagic, kManifestVersion));
  Manifest manifest;
  ExpectToken(payload, "epoch");
  manifest.epoch = ReadU64Token(payload, "manifest epoch");
  ExpectToken(payload, "entries");
  const std::uint64_t count = ReadU64Token(payload, "manifest entries");
  if (count == 0) throw ParseError("manifest: chain has no members");
  manifest.entries.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 1u << 16)));
  for (std::uint64_t i = 0; i < count; ++i) {
    ChainEntry entry;
    std::string kind;
    payload >> kind;
    if (kind == "full") {
      entry.is_full = true;
    } else if (kind == "delta") {
      entry.is_full = false;
    } else {
      throw ParseError("manifest: unknown member kind \"" + kind + "\"");
    }
    entry.epoch = ReadU64Token(payload, "manifest member epoch");
    entry.seq = ReadU64Token(payload, "manifest member seq");
    entry.bytes = ReadU64Token(payload, "manifest member bytes");
    entry.crc32 = static_cast<std::uint32_t>(
        ReadU64Token(payload, "manifest member crc32"));
    payload >> entry.file;
    if (entry.file.empty()) {
      throw ParseError("manifest: member " + std::to_string(i) +
                       " has no file name");
    }
    if (entry.epoch != manifest.epoch) {
      throw ParseError("manifest: member " + entry.file +
                       " belongs to epoch " + std::to_string(entry.epoch) +
                       ", chain is epoch " + std::to_string(manifest.epoch));
    }
    manifest.entries.push_back(std::move(entry));
  }
  if (!manifest.entries.front().is_full) {
    throw ParseError("manifest: chain must start with a full member");
  }
  for (std::size_t i = 1; i < manifest.entries.size(); ++i) {
    if (manifest.entries[i].is_full || manifest.entries[i].seq != i) {
      throw ParseError("manifest: member " + manifest.entries[i].file +
                       " breaks the delta sequence (expected delta seq " +
                       std::to_string(i) + ")");
    }
  }
  return manifest;
}

// --- CheckpointChain ------------------------------------------------------

CheckpointChain::CheckpointChain(ChainConfig config)
    : config_(std::move(config)) {
  CORDIAL_CHECK_MSG(!config_.directory.empty(),
                    "checkpoint chain needs a directory");
  CORDIAL_CHECK_MSG(config_.compact_every >= 1,
                    "checkpoint chain needs compact_every >= 1");
}

std::string CheckpointChain::PathOf(const std::string& file) const {
  return JoinPath(config_.directory, file);
}

ChainRecoveryOutcome CheckpointChain::Recover(serve::FleetServer& server) {
  ChainRecoveryOutcome outcome;
  manifest_ = Manifest{};
  can_append_ = false;

  // Restore candidates: the manifest's chain first (CRC-verified against
  // its records), then — when the manifest is unusable or its chain's full
  // is — every restorable chain the directory scan finds, newest epoch
  // first (no manifest CRCs to check; the members' own frame checksums
  // still gate every byte).
  enum class Attempt { kFailed, kPartial, kIntact };
  const auto try_chain = [&](const std::vector<ChainEntry>& entries,
                             bool verify_crc) -> Attempt {
    const ChainEntry& full = entries.front();
    const std::string full_path = PathOf(full.file);
    std::string bytes;
    if (!ReadFileBytes(full_path, bytes)) {
      outcome.errors.push_back(full.file + ": chain member missing");
      return Attempt::kFailed;
    }
    if (verify_crc &&
        (bytes.size() != full.bytes || Crc32(bytes) != full.crc32)) {
      Quarantine(full_path);
      outcome.quarantined.push_back(full_path);
      outcome.errors.push_back(
          full.file + ": full member does not match its manifest record "
                      "(size/CRC-32 mismatch)");
      return Attempt::kFailed;
    }
    try {
      std::istringstream in(bytes);
      server.RestoreCheckpoint(in);
    } catch (const ParseError& e) {
      Quarantine(full_path);
      outcome.quarantined.push_back(full_path);
      outcome.errors.push_back(full.file + ": " + e.what());
      return Attempt::kFailed;
    }
    outcome.applied.push_back(full.file);
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const ChainEntry& delta = entries[i];
      const std::string delta_path = PathOf(delta.file);
      if (!ReadFileBytes(delta_path, bytes)) {
        outcome.errors.push_back(delta.file + ": chain member missing");
        return Attempt::kPartial;
      }
      if (verify_crc &&
          (bytes.size() != delta.bytes || Crc32(bytes) != delta.crc32)) {
        Quarantine(delta_path);
        outcome.quarantined.push_back(delta_path);
        outcome.errors.push_back(
            delta.file + ": delta member does not match its manifest record "
                         "(size/CRC-32 mismatch)");
        return Attempt::kPartial;
      }
      try {
        std::istringstream in(bytes);
        server.ApplyDeltaCheckpoint(in);
      } catch (const ParseError& e) {
        Quarantine(delta_path);
        outcome.quarantined.push_back(delta_path);
        outcome.errors.push_back(delta.file + ": " + e.what());
        return Attempt::kPartial;
      }
      outcome.applied.push_back(delta.file);
    }
    return Attempt::kIntact;
  };

  const auto summarize = [&](const std::vector<ChainEntry>& entries) {
    std::string summary = entries.front().file;
    const std::size_t deltas = outcome.applied.size() - 1;
    if (deltas > 0) {
      summary += " + " + std::to_string(deltas) + " delta(s)";
    }
    outcome.restored_from = summary;
  };

  // 1. The manifest's chain.
  Manifest manifest;
  bool have_manifest = false;
  const std::string manifest_path = PathOf(kManifestFileName);
  for (const std::string& candidate : {manifest_path, manifest_path + ".prev"}) {
    try {
      if (LoadManifestFile(candidate, manifest)) {
        have_manifest = true;
        break;
      }
    } catch (const ParseError& e) {
      Quarantine(candidate);
      outcome.quarantined.push_back(candidate);
      outcome.errors.push_back(candidate + ": " + e.what());
      outcome.fell_back = true;
    }
  }
  if (have_manifest) {
    const Attempt attempt = try_chain(manifest.entries, /*verify_crc=*/true);
    if (attempt == Attempt::kIntact) {
      manifest_ = std::move(manifest);
      // Append only when nothing upstream was damaged (e.g. a quarantined
      // primary MANIFEST whose .prev restored): any fallback starts a new
      // epoch instead of growing a chain that already lost members once.
      can_append_ = !outcome.fell_back;
      summarize(manifest_.entries);
      return outcome;
    }
    manifest_.epoch = manifest.epoch;  // never reuse a damaged chain's epoch
    if (attempt == Attempt::kPartial) {
      outcome.fell_back = true;
      summarize(manifest.entries);
      return outcome;
    }
    outcome.fell_back = true;  // kFailed: fall through to the scan
  }

  // 2. Directory-scan rescue (also the fresh-directory path).
  for (const std::vector<ChainEntry>& chain : ScanChains(config_.directory)) {
    const Attempt attempt = try_chain(chain, /*verify_crc=*/false);
    if (attempt == Attempt::kFailed) continue;
    outcome.fell_back = outcome.fell_back || have_manifest ||
                        !outcome.quarantined.empty() ||
                        attempt == Attempt::kPartial;
    manifest_.epoch = std::max(manifest_.epoch, chain.front().epoch);
    summarize(chain);
    return outcome;
  }

  // 3. Fresh start. Never reuse an epoch a stale file might still claim.
  manifest_.epoch = std::max(manifest_.epoch, MaxEpochOnDisk(config_.directory));
  return outcome;
}

void CheckpointChain::PersistManifest() const {
  serve::WriteFileDurably(PathOf(kManifestFileName), EncodeManifest(manifest_),
                          /*retain_prev=*/true);
}

ChainWriteResult CheckpointChain::WriteFull(serve::FleetServer& server) {
  const core::EncodedState member =
      server.EncodeCheckpoint(core::StateEncoding::kBinary);

  ChainEntry entry;
  entry.is_full = true;
  entry.epoch = manifest_.epoch + 1;
  entry.seq = 0;
  entry.file = FullFileName(entry.epoch);
  entry.bytes = member.bytes.size();
  entry.crc32 = member.bytes.crc32();

  ChainWriteResult result;
  result.full = true;
  result.file = PathOf(entry.file);
  result.bytes = entry.bytes;
  result.banks_written = member.banks;

  serve::WriteFileDurably(result.file, member.bytes, /*retain_prev=*/false);
  const Manifest previous = manifest_;
  manifest_.epoch = entry.epoch;
  manifest_.entries.clear();
  manifest_.entries.push_back(std::move(entry));
  try {
    PersistManifest();
  } catch (...) {
    // The new full sits on disk unlisted; the old manifest still rules.
    // Re-attempting later rewrites the same epoch's full and manifest.
    manifest_ = previous;
    can_append_ = false;
    throw;
  }
  server.MarkCheckpointClean();
  can_append_ = true;
  PruneExcept(config_.directory, manifest_);
  result.chain_length = manifest_.entries.size();
  return result;
}

ChainWriteResult CheckpointChain::WriteDelta(serve::FleetServer& server) {
  const core::EncodedState member = server.EncodeDeltaCheckpoint();

  ChainEntry entry;
  entry.is_full = false;
  entry.epoch = manifest_.epoch;
  entry.seq = manifest_.entries.back().seq + 1;
  entry.file = DeltaFileName(entry.epoch, entry.seq);
  entry.bytes = member.bytes.size();
  entry.crc32 = member.bytes.crc32();

  ChainWriteResult result;
  result.full = false;
  result.file = PathOf(entry.file);
  result.bytes = entry.bytes;
  result.banks_written = member.banks;

  // Member first, manifest second, dirty set cleared last: a crash or
  // failure at any point leaves the previous chain restorable and the
  // not-yet-persisted banks still dirty.
  serve::WriteFileDurably(result.file, member.bytes, /*retain_prev=*/false);
  manifest_.entries.push_back(std::move(entry));
  try {
    PersistManifest();
  } catch (...) {
    // The member sits on disk unlisted; the retry reuses its seq and simply
    // overwrites it (the dirty set was not cleared, so nothing is lost).
    manifest_.entries.pop_back();
    throw;
  }
  server.MarkCheckpointClean();
  result.chain_length = manifest_.entries.size();
  return result;
}

ChainWriteResult CheckpointChain::Write(serve::FleetServer& server) {
  if (!can_append_ ||
      manifest_.entries.size() - 1 >= config_.compact_every) {
    return WriteFull(server);
  }
  return WriteDelta(server);
}

// --- offline tools --------------------------------------------------------

ChainInspection InspectChain(const std::string& directory) {
  ChainInspection report;
  const std::string manifest_path = JoinPath(directory, kManifestFileName);
  for (const std::string& candidate : {manifest_path, manifest_path + ".prev"}) {
    try {
      if (LoadManifestFile(candidate, report.manifest)) {
        report.has_manifest = true;
        break;
      }
      report.errors.push_back(candidate + ": no such file");
    } catch (const ParseError& e) {
      report.errors.push_back(candidate + ": " + e.what());
    }
  }
  if (!report.has_manifest) return report;
  for (const ChainEntry& entry : report.manifest.entries) {
    MemberInfo info;
    info.entry = entry;
    std::string bytes;
    if (!ReadFileBytes(JoinPath(directory, entry.file), bytes)) {
      info.error = "missing";
      report.members.push_back(std::move(info));
      continue;
    }
    info.exists = true;
    info.actual_bytes = bytes.size();
    info.crc_ok = bytes.size() == entry.bytes && Crc32(bytes) == entry.crc32;
    if (!info.crc_ok) {
      info.error = "size/CRC-32 mismatch vs manifest";
      report.members.push_back(std::move(info));
      continue;
    }
    try {
      const FleetImage image = ParseMemberImage(bytes, entry.file);
      if (image.is_delta == entry.is_full) {
        info.error = entry.is_full ? "manifest says full, file is a delta"
                                   : "manifest says delta, file is a full";
      }
      info.shard_count = image.shards.size();
      for (const ShardImage& shard : image.shards) {
        info.bank_count += shard.banks.size();
      }
    } catch (const ParseError& e) {
      info.error = e.what();
    }
    report.members.push_back(std::move(info));
  }
  return report;
}

std::string FoldChain(const std::string& directory) {
  const Manifest manifest = RequireManifest(directory);
  return SerializeImageAsFull(FoldManifest(directory, manifest)).Flatten();
}

ChainWriteResult CompactChainFiles(const std::string& directory) {
  const Manifest manifest = RequireManifest(directory);
  const FleetImage image = FoldManifest(directory, manifest);
  const ByteRope bytes = SerializeImageAsFull(image);

  ChainEntry entry;
  entry.is_full = true;
  entry.epoch = manifest.epoch + 1;
  entry.seq = 0;
  entry.file = FullFileName(entry.epoch);
  entry.bytes = bytes.size();
  entry.crc32 = bytes.crc32();

  ChainWriteResult result;
  result.full = true;
  result.file = JoinPath(directory, entry.file);
  result.bytes = entry.bytes;
  for (const ShardImage& shard : image.shards) {
    result.banks_written += shard.banks.size();
  }

  serve::WriteFileDurably(result.file, bytes, /*retain_prev=*/false);
  Manifest compacted;
  compacted.epoch = entry.epoch;
  compacted.entries.push_back(std::move(entry));
  serve::WriteFileDurably(JoinPath(directory, kManifestFileName),
                          EncodeManifest(compacted), /*retain_prev=*/true);
  PruneExcept(directory, compacted);
  result.chain_length = 1;
  return result;
}

}  // namespace cordial::persist
