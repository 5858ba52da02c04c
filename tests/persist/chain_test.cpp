// Checkpoint-chain torture: a chain (binary full + dirty-bank deltas under
// a CRC manifest) must recover byte-identically to an uninterrupted
// reference, and corruption ANYWHERE — every byte-prefix truncation and
// every single-bit flip of every member — must fail closed to the newest
// intact prefix, quarantining exactly the damaged member by name. Plus the
// write/compaction policy, failed-write atomicity (failpoints), manifest
// fallback, scan rescue, and the offline fold/compaction tools.
#include "persist/chain.hpp"

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/framing.hpp"
#include "common/parallel.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"
#include "support/serve_world.hpp"
#include "support/sha256.hpp"

namespace cordial::persist {
namespace {

using serve::FleetServer;
using serve::test_support::SharedWorld;
using serve::test_support::World;

constexpr std::size_t kShardCount = 2;

FleetServer MakeServer(const World& w, std::size_t shards = kShardCount) {
  serve::FleetServerConfig config;
  config.shard_count = shards;
  return FleetServer(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
}

void Feed(FleetServer& server, const World& w, std::size_t begin,
          std::size_t end) {
  const auto& records = w.fleet.log.records();
  for (std::size_t i = begin; i < std::min(end, records.size()); ++i) {
    server.Submit(records[i]);
  }
  server.Drain();
}

std::string TextCheckpoint(const FleetServer& server) {
  std::ostringstream out;
  server.SaveCheckpoint(out, core::StateEncoding::kText);
  return out.str();
}

std::string BinaryCheckpoint(const FleetServer& server) {
  std::ostringstream out;
  server.SaveCheckpoint(out, core::StateEncoding::kBinary);
  return out.str();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Fresh scratch directory per test; files are wiped between torture
/// iterations via ResetDir.
class ScratchDir {
 public:
  ScratchDir() {
    char templ[] = "/tmp/cordial_chain_XXXXXX";
    CORDIAL_CHECK_MSG(::mkdtemp(templ) != nullptr, "mkdtemp failed");
    path_ = templ;
  }
  ~ScratchDir() {
    // Best-effort cleanup; scratch contents are tiny.
    Clear();
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

  /// Remove every regular file in the directory.
  void Clear() {
    std::vector<std::string> names = List();
    for (const std::string& name : names) ::unlink(File(name).c_str());
  }

  std::vector<std::string> List() const {
    std::vector<std::string> names;
    DIR* dir = ::opendir(path_.c_str());
    if (dir == nullptr) return names;
    while (dirent* ent = ::readdir(dir)) {
      const std::string name = ent->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    return names;
  }

  /// Reset the directory to exactly `files` (name -> bytes).
  void Reset(const std::map<std::string, std::string>& files) {
    Clear();
    for (const auto& [name, bytes] : files) WriteBytes(File(name), bytes);
  }

 private:
  std::string path_;
};

/// Snapshot every file in `dir` (name -> bytes).
std::map<std::string, std::string> SnapshotDir(const ScratchDir& dir) {
  std::map<std::string, std::string> files;
  for (const std::string& name : dir.List()) {
    files[name] = FileBytes(dir.File(name));
  }
  return files;
}

/// Build a small chain: a full at record `first_full`, then one delta per
/// `step` records until `total`. Returns the expected text checkpoint at
/// every member boundary: expected[k] = state with members 0..k-1 applied
/// (expected[0] = fresh server).
std::vector<std::string> BuildChain(const World& w, ScratchDir& dir,
                                    std::size_t first_full, std::size_t step,
                                    std::size_t total,
                                    std::size_t compact_every = 64) {
  FleetServer writer = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), compact_every});
  std::vector<std::string> expected;
  expected.push_back(TextCheckpoint(writer));  // nothing applied
  writer.Start();
  Feed(writer, w, 0, first_full);
  writer.Drain();
  ChainWriteResult result = chain.Write(writer);
  EXPECT_TRUE(result.full);
  expected.push_back(TextCheckpoint(writer));
  for (std::size_t at = first_full; at < total; at += step) {
    Feed(writer, w, at, at + step);
    writer.Drain();
    result = chain.Write(writer);
    EXPECT_FALSE(result.full);
    expected.push_back(TextCheckpoint(writer));
  }
  writer.Stop();
  return expected;
}

// --- write + compaction policy -------------------------------------------

TEST(ChainWrite, FullThenDeltasThenCompactionFold) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), /*compact_every=*/3});
  server.Start();

  Feed(server, w, 0, 20);
  server.Drain();
  ChainWriteResult result = chain.Write(server);
  EXPECT_TRUE(result.full);
  EXPECT_EQ(chain.epoch(), 1u);
  EXPECT_EQ(chain.chain_length(), 1u);
  EXPECT_TRUE(FileExists(dir.File("full-000001.ckpt")));
  EXPECT_TRUE(FileExists(dir.File(kManifestFileName)));
  EXPECT_EQ(server.DirtyBankCount(), 0u);

  for (std::size_t i = 1; i <= 3; ++i) {
    Feed(server, w, 20 * i, 20 * (i + 1));
    server.Drain();
    result = chain.Write(server);
    EXPECT_FALSE(result.full) << "delta " << i;
    EXPECT_EQ(chain.chain_length(), 1 + i);
  }
  EXPECT_TRUE(FileExists(dir.File("delta-000001.0003.ckpt")));

  // The 4th periodic write folds into a fresh full of a new epoch and
  // prunes the old generation.
  Feed(server, w, 80, 100);
  server.Drain();
  result = chain.Write(server);
  EXPECT_TRUE(result.full);
  EXPECT_EQ(chain.epoch(), 2u);
  EXPECT_EQ(chain.chain_length(), 1u);
  EXPECT_TRUE(FileExists(dir.File("full-000002.ckpt")));
  EXPECT_FALSE(FileExists(dir.File("full-000001.ckpt")));
  EXPECT_FALSE(FileExists(dir.File("delta-000001.0001.ckpt")));
  server.Stop();
}

TEST(ChainWrite, DeltaMembersAreSmallerThanFulls) {
  const World& w = SharedWorld();
  ScratchDir dir;
  BuildChain(w, dir, 60, 6, 90);
  const std::uint64_t full_bytes = FileBytes(dir.File("full-000001.ckpt")).size();
  const std::uint64_t delta_bytes =
      FileBytes(dir.File("delta-000001.0001.ckpt")).size();
  EXPECT_LT(delta_bytes, full_bytes);
}

// --- recovery: clean chains ----------------------------------------------

TEST(ChainRecovery, RestoresBitIdenticallyToUninterruptedReference) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 120);

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryOutcome outcome = chain.Recover(restored);
  EXPECT_FALSE(outcome.fresh_start());
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_TRUE(outcome.quarantined.empty());
  EXPECT_EQ(outcome.applied.size(), expected.size() - 1);
  EXPECT_EQ(TextCheckpoint(restored), expected.back());

  // A clean recovery keeps appending to the same chain.
  restored.Start();
  Feed(restored, w, 120, 144);
  restored.Drain();
  const ChainWriteResult next = chain.Write(restored);
  EXPECT_FALSE(next.full);
  restored.Stop();
}

TEST(ChainRecovery, ScanRescueRestoresChainWithoutManifest) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 96);
  ::unlink(dir.File(kManifestFileName).c_str());
  ::unlink((dir.File(kManifestFileName) + ".prev").c_str());

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryOutcome outcome = chain.Recover(restored);
  EXPECT_FALSE(outcome.fresh_start());
  EXPECT_EQ(TextCheckpoint(restored), expected.back());

  // Without a manifest the chain is not appendable: the next write starts a
  // fresh epoch with a full.
  const ChainWriteResult next = chain.Write(restored);
  EXPECT_TRUE(next.full);
  EXPECT_EQ(chain.epoch(), 2u);
}

TEST(ChainRecovery, ManifestPrevFallbackDropsUnlistedTail) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 96);
  // Garbage primary MANIFEST; the .prev (written before the last delta) is
  // intact and describes the chain minus its newest member.
  WriteBytes(dir.File(kManifestFileName), "not a manifest at all\n");

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryOutcome outcome = chain.Recover(restored);
  EXPECT_TRUE(outcome.fell_back);
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined.front(), dir.File(kManifestFileName));
  EXPECT_FALSE(outcome.fresh_start());
  // State = one member short of the uninterrupted end.
  EXPECT_EQ(TextCheckpoint(restored), expected[expected.size() - 2]);
}

// --- recovery: corrupt members -------------------------------------------

TEST(ChainRecovery, CorruptMidChainDeltaIsQuarantinedByExactName) {
  const World& w = SharedWorld();
  ScratchDir dir;
  const std::vector<std::string> expected = BuildChain(w, dir, 24, 24, 120);
  ASSERT_GE(expected.size(), 4u);  // full + at least 3 deltas

  // Flip one byte in the middle of delta #2.
  const std::string victim_file = "delta-000001.0002.ckpt";
  std::string bytes = FileBytes(dir.File(victim_file));
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteBytes(dir.File(victim_file), bytes);

  FleetServer restored = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryOutcome outcome = chain.Recover(restored);
  EXPECT_TRUE(outcome.fell_back);
  // Exactly the damaged member is quarantined, named in full.
  ASSERT_EQ(outcome.quarantined.size(), 1u);
  EXPECT_EQ(outcome.quarantined.front(), dir.File(victim_file));
  ASSERT_EQ(outcome.errors.size(), 1u);
  EXPECT_NE(outcome.errors.front().find(victim_file), std::string::npos);
  EXPECT_TRUE(FileExists(dir.File(victim_file) + ".corrupt"));
  EXPECT_FALSE(FileExists(dir.File(victim_file)));
  // State fails closed to the newest intact prefix: full + delta 1.
  EXPECT_EQ(outcome.applied.size(), 2u);
  EXPECT_EQ(TextCheckpoint(restored), expected[2]);
  // The intact tail member after the break is dropped, not applied.
  EXPECT_TRUE(FileExists(dir.File("delta-000001.0003.ckpt")));

  // A damaged chain is never extended: the next write is a fresh full.
  const ChainWriteResult next = chain.Write(restored);
  EXPECT_TRUE(next.full);
  EXPECT_EQ(chain.epoch(), 2u);
}

TEST(ChainTorture, EveryTruncationAndBitFlipFailsClosedToIntactPrefix) {
  const World& w = SharedWorld();
  ScratchDir dir;
  // Tiny state on purpose: the loops below run a full directory recovery
  // per mangled byte/bit.
  const std::vector<std::string> expected = BuildChain(w, dir, 8, 4, 16);
  ASSERT_EQ(expected.size(), 4u);  // fresh, full, +delta1, +delta2
  const std::map<std::string, std::string> pristine = SnapshotDir(dir);

  const std::vector<std::string> members = {
      "full-000001.ckpt", "delta-000001.0001.ckpt", "delta-000001.0002.ckpt"};
  std::size_t chain_bytes = 0;
  for (const std::string& member : members) {
    chain_bytes += pristine.at(member).size();
  }
  ASSERT_LT(chain_bytes, 24u * 1024)
      << "chain grew too large for the O(bytes) recovery torture loops";

  FleetServer victim = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  std::size_t iterations = 0;

  const auto check_recovery = [&](std::size_t damaged_index,
                                  const std::string& detail) {
    const ChainRecoveryOutcome outcome = chain.Recover(victim);
    // Recovery stands at the newest intact prefix: every member before the
    // damaged one applied, nothing at or after it.
    EXPECT_EQ(outcome.applied.size(), damaged_index) << detail;
    EXPECT_TRUE(outcome.fell_back) << detail;
    if (damaged_index > 0) {
      // Sampled state check — byte-identical to the uninterrupted
      // reference at that prefix (every iteration would square the cost).
      if (iterations % 41 == 0) {
        EXPECT_EQ(TextCheckpoint(victim), expected[damaged_index]) << detail;
      }
    }
    ++iterations;
  };

  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::string& member = members[m];
    const std::string& bytes = pristine.at(member);
    // Every byte-prefix truncation of this member...
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      auto files = pristine;
      files[member] = bytes.substr(0, len);
      dir.Reset(files);
      check_recovery(m, member + " truncated to " + std::to_string(len) +
                            " bytes");
    }
    // ...and a single-bit flip at every byte position (the bit lane rotates
    // with the position so all eight lanes are exercised; each corruption
    // forces a full directory recovery, which is why this is per-byte
    // rather than the 8x per-bit loop the in-memory torture runs).
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      auto files = pristine;
      files[member][byte] =
          static_cast<char>(files[member][byte] ^ (1 << (byte % 8)));
      dir.Reset(files);
      check_recovery(m, member + " byte " + std::to_string(byte) + " bit " +
                            std::to_string(byte % 8));
    }
  }

  // The pristine chain still recovers in full afterwards.
  dir.Reset(pristine);
  const ChainRecoveryOutcome outcome = chain.Recover(victim);
  EXPECT_FALSE(outcome.fell_back);
  EXPECT_EQ(TextCheckpoint(victim), expected.back());
}

// --- failed writes --------------------------------------------------------

TEST(ChainWrite, FailedDeltaWriteLeavesChainAndDirtySetIntact) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 30);
  server.Drain();
  ASSERT_TRUE(chain.Write(server).full);

  Feed(server, w, 30, 60);
  server.Drain();
  const std::size_t dirty_before = server.DirtyBankCount();
  ASSERT_GT(dirty_before, 0u);
  const std::map<std::string, std::string> disk_before = SnapshotDir(dir);

  // An fsync failure mid-delta must not lose dirty banks or touch the
  // chain: the failed member's tmp file is cleaned up, the manifest still
  // describes the old chain.
  failpoint::Arm("serve.checkpoint.fsync");
  EXPECT_THROW(chain.Write(server), ContractViolation);
  failpoint::DisarmAll();
  EXPECT_EQ(server.DirtyBankCount(), dirty_before);
  EXPECT_EQ(SnapshotDir(dir), disk_before);

  // The prior full must never be orphaned or shadowed by the failed delta:
  // a cold recovery still lands on it.
  FleetServer probe = MakeServer(w);
  CheckpointChain probe_chain(ChainConfig{dir.path(), 64});
  EXPECT_FALSE(probe_chain.Recover(probe).fell_back);

  // The retry succeeds and writes the same banks.
  const ChainWriteResult retry = chain.Write(server);
  EXPECT_FALSE(retry.full);
  EXPECT_EQ(retry.banks_written, dirty_before);
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  server.Stop();
}

TEST(ChainWrite, FailedManifestWriteKeepsPreviousManifestRestorable) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  server.Start();
  Feed(server, w, 0, 30);
  server.Drain();
  ASSERT_TRUE(chain.Write(server).full);
  const std::string state_after_full = TextCheckpoint(server);

  Feed(server, w, 30, 60);
  server.Drain();
  // Fail the SECOND durable write of the cycle (the manifest): the member
  // lands on disk but stays unlisted, and the dirty set is kept.
  const std::size_t dirty_before = server.DirtyBankCount();
  failpoint::Arm("serve.checkpoint.rename", /*skip=*/1);
  EXPECT_THROW(chain.Write(server), ContractViolation);
  failpoint::DisarmAll();
  EXPECT_EQ(server.DirtyBankCount(), dirty_before);

  // Cold recovery sees the old manifest: full only, no half-added delta.
  FleetServer probe = MakeServer(w);
  CheckpointChain probe_chain(ChainConfig{dir.path(), 64});
  const ChainRecoveryOutcome outcome = probe_chain.Recover(probe);
  EXPECT_EQ(outcome.applied.size(), 1u);
  EXPECT_EQ(TextCheckpoint(probe), state_after_full);

  // The retry overwrites the unlisted member and completes the cycle.
  const ChainWriteResult retry = chain.Write(server);
  EXPECT_FALSE(retry.full);
  EXPECT_EQ(server.DirtyBankCount(), 0u);
  server.Stop();
}

// --- offline fold / inspector --------------------------------------------

TEST(ChainFold, OfflineFoldIsByteIdenticalToLiveBinaryFull) {
  const World& w = SharedWorld();
  ScratchDir dir;

  // Build the chain while tracking the uninterrupted reference state.
  FleetServer writer = MakeServer(w);
  CheckpointChain chain(ChainConfig{dir.path(), 64});
  writer.Start();
  Feed(writer, w, 0, 40);
  writer.Drain();
  chain.Write(writer);
  for (std::size_t at = 40; at < 120; at += 20) {
    Feed(writer, w, at, at + 20);
    writer.Drain();
    chain.Write(writer);
  }
  writer.Stop();
  const std::string live_full = BinaryCheckpoint(writer);

  // The model-free structural fold reproduces the live binary full save
  // byte for byte.
  EXPECT_EQ(FoldChain(dir.path()), live_full);

  // On-disk compaction folds to a new epoch whose recovery matches too.
  const ChainWriteResult compacted = CompactChainFiles(dir.path());
  EXPECT_TRUE(compacted.full);
  EXPECT_EQ(compacted.chain_length, 1u);
  EXPECT_EQ(FileBytes(compacted.file), live_full);
  EXPECT_FALSE(FileExists(dir.File("full-000001.ckpt")));

  FleetServer restored = MakeServer(w);
  CheckpointChain recovered(ChainConfig{dir.path(), 64});
  EXPECT_FALSE(recovered.Recover(restored).fresh_start());
  EXPECT_EQ(BinaryCheckpoint(restored), live_full);
}

TEST(ChainInspect, ReportsSoundChainsAndNamesCorruptMembers) {
  const World& w = SharedWorld();
  ScratchDir dir;
  BuildChain(w, dir, 24, 24, 72);

  ChainInspection report = InspectChain(dir.path());
  ASSERT_TRUE(report.has_manifest);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.members.size(), 3u);
  for (const MemberInfo& info : report.members) {
    EXPECT_TRUE(info.crc_ok) << info.entry.file;
    EXPECT_EQ(info.shard_count, kShardCount) << info.entry.file;
    EXPECT_TRUE(info.error.empty()) << info.entry.file;
  }

  // Flip a byte in one member: the report stays usable and pins the blame.
  const std::string victim_file = "delta-000001.0001.ckpt";
  std::string bytes = FileBytes(dir.File(victim_file));
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x01);
  WriteBytes(dir.File(victim_file), bytes);
  report = InspectChain(dir.path());
  EXPECT_FALSE(report.ok());
  for (const MemberInfo& info : report.members) {
    if (info.entry.file == victim_file) {
      EXPECT_FALSE(info.crc_ok);
      EXPECT_FALSE(info.error.empty());
    } else {
      EXPECT_TRUE(info.error.empty()) << info.entry.file;
    }
  }
  // A corrupt member also fails the fold loudly, naming the member.
  try {
    FoldChain(dir.path());
    FAIL() << "fold accepted a corrupt member";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(victim_file), std::string::npos);
  }
}

// --- member bytes --------------------------------------------------------

/// SHA-256 of every member kind the encoder emits, for a seeded fixture: the
/// fleet's first half fed and marked clean, then the second half fed (so
/// the delta carries a real dirty set). The digests pin the on-disk
/// format: a change here is a format change and needs a frame or payload
/// version bump.
TEST(ChainMemberBytes, MatchRecordedDigestsForEveryShardCount) {
  struct Golden {
    std::size_t shards;
    const char* text_full;
    const char* binary_full;
    const char* delta;
  };
  const Golden goldens[] = {
      {1, "32b1568a20688ecaa234f88308acb3b6eb91429177fd7343d6bdcb528ab2dd54",
       "1c0bb8da3d595ae0a6f0836a14d096871cbdba8421183efdccaa79d1db6e6cda",
       "d795d6071e7b6a6339332bfccff5c3725eae6d39e7c5c6bfed5ea5b1d257234e"},
      {2, "3961300da20fa12a2750d41c1cecacb6c343043e7beb7d159ff12043de445d2d",
       "867ffcef5c4f2f349a9e62fc35235cf605a5125e820969807610bd96164130ec",
       "9590692326032dd2649b24619cab0aa1b3620ec042a7872333a01be1862a3b85"},
      {3, "9b88c53b15c1277862afa34c707badf13b57f2ae59aa438ce1e0fd91b36d7c09",
       "f7554d2661bef93fb84d72d6145c9d17f0c6a5338844c9ae6c06e71a7004d1a1",
       "cf6716aaa31ffb578c410acf1479a8de7d7ef36efa2f10143775dff172dc332f"},
      {8, "4abd4b291da52cdb8bc28541f053a0286d51fefa389c188663daac156ca1ca51",
       "63d3572a97f6a6f6f298edb4735a12d502e00da47e4e3071bdafa0ed874db6f0",
       "0860cde8bb2fecde7e3dbf0b0416271af5fbb2caa4acb813c08f333ed7668336"},
  };
  const World& w = SharedWorld();
  const std::size_t total = w.fleet.log.records().size();
  for (const Golden& golden : goldens) {
    FleetServer server = MakeServer(w, golden.shards);
    server.Start();
    Feed(server, w, 0, total / 2);
    server.MarkCheckpointClean();
    Feed(server, w, total / 2, total);
    std::ostringstream delta;
    server.SaveDeltaCheckpoint(delta);
    EXPECT_EQ(test_support::Sha256Hex(TextCheckpoint(server)),
              golden.text_full)
        << golden.shards << " shard(s)";
    EXPECT_EQ(test_support::Sha256Hex(BinaryCheckpoint(server)),
              golden.binary_full)
        << golden.shards << " shard(s)";
    EXPECT_EQ(test_support::Sha256Hex(delta.str()), golden.delta)
        << golden.shards << " shard(s)";
    server.Stop();
  }
}

TEST(ChainMemberBytes, ManifestCrcsMatchTheFilesOnDisk) {
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w, 3);
  CheckpointChain chain(ChainConfig{dir.path(), /*compact_every=*/2});
  server.Start();
  const std::size_t step = w.fleet.log.records().size() / 6;
  for (std::size_t i = 0; i < 5; ++i) {
    Feed(server, w, i * step, (i + 1) * step);
    // What the member must hold: the stream wrappers' bytes for the kind
    // this write is about to pick (full on the first and folding writes).
    std::ostringstream delta;
    server.SaveDeltaCheckpoint(delta);
    const std::string full = BinaryCheckpoint(server);
    const ChainWriteResult result = chain.Write(server);
    EXPECT_EQ(FileBytes(result.file), result.full ? full : delta.str())
        << "write " << i;

    std::ifstream in(dir.File(kManifestFileName), std::ios::binary);
    const Manifest manifest = DecodeManifest(in);
    ASSERT_EQ(manifest.entries.size(), chain.chain_length());
    for (const ChainEntry& entry : manifest.entries) {
      const std::string bytes = FileBytes(dir.File(entry.file));
      EXPECT_EQ(entry.bytes, bytes.size()) << entry.file;
      EXPECT_EQ(entry.crc32, Crc32(bytes)) << entry.file;
    }
  }
  server.Stop();
}

TEST(ChainMemberBytes, WriteDoesNotWaitForTheSharedComputePool) {
  // A shadow forest fit can hold the ParallelFor pool for seconds; the
  // checkpoint path must not queue behind it.
  const World& w = SharedWorld();
  ScratchDir dir;
  FleetServer server = MakeServer(w, 3);
  CheckpointChain chain(ChainConfig{dir.path(), 16});
  server.Start();
  Feed(server, w, 0, w.fleet.log.records().size() / 2);
  chain.Write(server);  // the full; the timed write below is a delta
  Feed(server, w, w.fleet.log.records().size() / 2,
       w.fleet.log.records().size());

  // Every pool thread (3 workers + the fit's own thread) sleeps in the fit
  // before the write starts.
  constexpr int kPoolThreads = 4;
  constexpr auto kTaskSleep = std::chrono::milliseconds(500);
  SetThreadCount(kPoolThreads);
  std::atomic<int> started{0};
  std::atomic<bool> pool_done{false};
  std::thread fit([&] {
    ParallelFor(kPoolThreads, 1, [&](std::size_t) {
      started.fetch_add(1);
      std::this_thread::sleep_for(kTaskSleep);
    });
    pool_done.store(true);
  });
  while (started.load() < kPoolThreads) std::this_thread::yield();

  const auto begin = std::chrono::steady_clock::now();
  const ChainWriteResult result = chain.Write(server);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  const bool finished_first = !pool_done.load();
  fit.join();
  SetThreadCount(0);
  server.Stop();

  EXPECT_FALSE(result.full);
  EXPECT_TRUE(finished_first) << "the checkpoint waited for the pool job";
  EXPECT_LT(elapsed, kTaskSleep / 2);
}

// --- manifest codec -------------------------------------------------------

TEST(ChainManifest, CodecRoundTripsAndValidatesShape) {
  Manifest manifest;
  manifest.epoch = 7;
  ChainEntry full;
  full.is_full = true;
  full.epoch = 7;
  full.seq = 0;
  full.file = "full-000007.ckpt";
  full.bytes = 123456;
  full.crc32 = 0xDEADBEEFu;
  manifest.entries.push_back(full);
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    ChainEntry delta;
    delta.is_full = false;
    delta.epoch = 7;
    delta.seq = seq;
    delta.file = "delta-000007.000" + std::to_string(seq) + ".ckpt";
    delta.bytes = 100 + seq;
    delta.crc32 = static_cast<std::uint32_t>(seq);
    manifest.entries.push_back(delta);
  }

  std::istringstream in(EncodeManifest(manifest));
  const Manifest decoded = DecodeManifest(in);
  EXPECT_EQ(decoded.epoch, manifest.epoch);
  ASSERT_EQ(decoded.entries.size(), manifest.entries.size());
  for (std::size_t i = 0; i < decoded.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].is_full, manifest.entries[i].is_full);
    EXPECT_EQ(decoded.entries[i].seq, manifest.entries[i].seq);
    EXPECT_EQ(decoded.entries[i].file, manifest.entries[i].file);
    EXPECT_EQ(decoded.entries[i].bytes, manifest.entries[i].bytes);
    EXPECT_EQ(decoded.entries[i].crc32, manifest.entries[i].crc32);
  }

  // A chain that does not start with a full is malformed.
  Manifest headless = manifest;
  headless.entries.erase(headless.entries.begin());
  std::istringstream headless_in(EncodeManifest(headless));
  EXPECT_THROW(DecodeManifest(headless_in), ParseError);

  // A gap in the delta sequence is malformed.
  Manifest gapped = manifest;
  gapped.entries.back().seq = 5;
  std::istringstream gapped_in(EncodeManifest(gapped));
  EXPECT_THROW(DecodeManifest(gapped_in), ParseError);

  // A member from another epoch is malformed.
  Manifest crossed = manifest;
  crossed.entries.back().epoch = 8;
  std::istringstream crossed_in(EncodeManifest(crossed));
  EXPECT_THROW(DecodeManifest(crossed_in), ParseError);
}

}  // namespace
}  // namespace cordial::persist
