#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "serve/fleet_server.hpp"

namespace cordial::serve {

namespace {

/// Directory containing `path` ("." when the path has no separator).
std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// write(2) every piece in order, retrying short writes and EINTR.
bool WriteAll(int fd, std::span<const std::string_view> pieces) {
  for (const std::string_view piece : pieces) {
    std::size_t written = 0;
    while (written < piece.size()) {
      const ssize_t n =
          ::write(fd, piece.data() + written, piece.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
  }
  return true;
}

/// WriteFileDurably over the concatenation of `pieces`.
void WritePiecesDurably(const std::string& path,
                        std::span<const std::string_view> pieces,
                        bool retain_prev) {
  const std::string tmp = path + ".tmp";
  // Failure path shared by every step before the rename: drop the fd and
  // the tmp file so a failed checkpoint leaves no debris (and the previous
  // checkpoint untouched).
  const auto fail = [&](int fd, const std::string& what) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    CORDIAL_CHECK_MSG(false, what + " (" + tmp + "): " + reason);
  };

  int fd = failpoint::ShouldFail("serve.checkpoint.open")
               ? (errno = EIO, -1)
               : ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(-1, "cannot open checkpoint tmp file");

  const bool write_ok = failpoint::ShouldFail("serve.checkpoint.write")
                            ? (errno = EIO, false)
                            : WriteAll(fd, pieces);
  if (!write_ok) fail(fd, "checkpoint tmp write failed");

  // The data must be on disk before anything points at it: rename first
  // and a crash can publish a name whose blocks never made it.
  const bool fsync_ok = failpoint::ShouldFail("serve.checkpoint.fsync")
                            ? (errno = EIO, false)
                            : ::fsync(fd) == 0;
  if (!fsync_ok) fail(fd, "checkpoint tmp fsync failed");
  if (::close(fd) != 0) fail(-1, "checkpoint tmp close failed");

  // Simulated power cut: the tmp file is durable, the rename never ran.
  // Recovery must come up from the previous checkpoint.
  CORDIAL_FAILPOINT("serve.checkpoint.crash_before_rename", ::_exit(121));

  // Retain one older generation for RecoverCheckpoint's fallback. Best
  // effort: a filesystem without hard links just loses the safety net.
  // The replacement must itself be atomic — link the current file to a
  // side name and rename it over the old `.prev`. The previous scheme
  // (unlink old .prev, then link) had a window where the fallback was
  // gone entirely: a failure between the two calls — or between this
  // block and the rename below — would leave neither generation behind
  // the published path. Now the old `.prev` survives until the new one
  // replaces it in one atomic step.
  if (retain_prev) {
    const std::string prev = path + ".prev";
    const std::string prev_tmp = prev + ".tmp";
    ::unlink(prev_tmp.c_str());
    if (::link(path.c_str(), prev_tmp.c_str()) == 0) {
      if (std::rename(prev_tmp.c_str(), prev.c_str()) != 0) {
        ::unlink(prev_tmp.c_str());
      }
    }
  }

  const bool rename_ok = failpoint::ShouldFail("serve.checkpoint.rename")
                             ? (errno = EIO, false)
                             : std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!rename_ok) fail(-1, "checkpoint rename failed");

  // fsync the directory so the rename itself survives a power cut; the
  // file's own durability was settled above.
  const std::string dir = DirectoryOf(path);
  int dir_fd = failpoint::ShouldFail("serve.checkpoint.dirsync")
                   ? (errno = EIO, -1)
                   : ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  bool dir_ok = dir_fd >= 0;
  if (dir_ok) {
    dir_ok = ::fsync(dir_fd) == 0;
    ::close(dir_fd);
  }
  // The rename already happened, so the new checkpoint is in place and
  // valid — do not unlink anything; just report that durability of the
  // directory entry is not guaranteed.
  CORDIAL_CHECK_MSG(dir_ok, "checkpoint directory fsync failed (" + dir +
                                "): " + std::strerror(errno));
}

}  // namespace

void WriteFileDurably(const std::string& path, std::string_view bytes,
                      bool retain_prev) {
  WritePiecesDurably(path, std::span<const std::string_view>(&bytes, 1),
                     retain_prev);
}

void WriteFileDurably(const std::string& path, const ByteRope& bytes,
                      bool retain_prev) {
  const std::vector<std::string_view> pieces(bytes.pieces().begin(),
                                             bytes.pieces().end());
  WritePiecesDurably(path, pieces, retain_prev);
}

void WriteCheckpointFile(const FleetServer& server, const std::string& path) {
  // Serialize first: a failure here costs nothing on disk.
  WriteFileDurably(path,
                   server.EncodeCheckpoint(core::StateEncoding::kText).bytes,
                   /*retain_prev=*/true);
}

bool ReadCheckpointFile(FleetServer& server, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  server.RestoreCheckpoint(in);
  return true;
}

RecoveryOutcome RecoverCheckpoint(FleetServer& server,
                                  const std::string& path) {
  RecoveryOutcome outcome;
  const std::string candidates[] = {path, path + ".prev"};
  for (const std::string& candidate : candidates) {
    std::ifstream in(candidate, std::ios::binary);
    if (!in.good()) continue;
    try {
      server.RestoreCheckpoint(in);
      outcome.restored_from = candidate;
      return outcome;
    } catch (const ParseError& e) {
      in.close();
      const std::string quarantine = candidate + ".corrupt";
      ::unlink(quarantine.c_str());
      if (std::rename(candidate.c_str(), quarantine.c_str()) == 0) {
        outcome.quarantined.push_back(quarantine);
      } else {
        // Quarantine is best effort (read-only directory?); record the
        // original name so the operator still learns which file is bad.
        outcome.quarantined.push_back(candidate);
      }
      outcome.errors.push_back(candidate + ": " + e.what());
    }
  }
  return outcome;
}

}  // namespace cordial::serve
