// Versioned magic + length + checksum framing for persisted streams.
//
// Every model file and engine snapshot starts with one header line. Layout
// v2 (current) is
//
//   <magic> v<version> <payload_bytes> crc32=<8 hex digits>\n
//
// followed by exactly payload_bytes of payload, whose CRC-32 (IEEE,
// reflected — the zlib/PNG polynomial) must match the header. Layout v1
// lacked the crc32 field:
//
//   <magic> v<version> <payload_bytes>\n
//
// The header makes the failure modes distinguishable at load time: a stream
// that is not ours at all (wrong magic), a stream written by an
// incompatible build (version mismatch), a stream cut short mid-write
// (length mismatch), and a stream whose bytes rotted at rest or in transit
// (checksum mismatch) — each rejected with a ParseError naming the
// expectation. Frames nest: a checkpoint frame's payload can itself contain
// framed engine sections, each carrying its own checksum.
//
// Migration: ReadFramed still accepts v1 (checksum-less) frames so
// checkpoints written by older builds keep restoring; each such read is
// tallied in FramingStats and warned once per magic on stderr, so operators
// learn their state predates corruption detection. A malformed checksum
// field is NOT treated as v1 — anything after the byte count other than a
// well-formed crc32 token is a ParseError, so a bit flip inside the header
// cannot demote a checksummed frame to an unchecked one.
//
// The token helpers below are the shared text codec for snapshot payloads:
// whitespace-separated tokens, doubles rendered with %.17g so every value
// round-trips bit-exactly (the same convention the ml model serialization
// and the MCE CSV codec use). Non-finite doubles round-trip too (as the
// tokens nan/-nan/inf/-inf): a poisoned stat must survive a
// checkpoint/restore cycle rather than brick it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cordial {

/// On-wire header layout generation (bumped when the header line itself
/// changes shape). v2 added the crc32 field; v1 frames remain readable.
inline constexpr std::uint32_t kFramingLayoutVersion = 2;

/// Upper bound on a single frame's payload. A parsed length above this is a
/// corrupt header, rejected before any allocation — a flipped bit in the
/// byte count must produce a ParseError, not a bad_alloc.
inline constexpr std::uint64_t kMaxFramePayloadBytes =
    1ull * 1024 * 1024 * 1024;  // 1 GiB

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `data` —
/// the zlib/PNG checksum.
std::uint32_t Crc32(std::string_view data);

/// CRC-32 of the concatenation A‖B, given crc_a = Crc32(A), crc_b = Crc32(B)
/// and len_b = |B| — zlib's crc32_combine, in O(log len_b) without reading
/// either part. Lets a frame, and the file around it, be checksummed from
/// its parts' CRCs, so an encoder passes over each payload byte once.
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

/// A byte string kept as the owned pieces it was built from, with its
/// length and CRC-32 maintained as pieces are appended: a new piece is
/// checksummed once on the way in, and appending another rope only
/// combines CRCs (Crc32Combine). Nested frames are built by putting a
/// header line in front of their payload's pieces, so no layer copies or
/// re-reads the bytes below it; WriteTo and the durable file writer
/// gather the pieces straight to their destination.
class ByteRope {
 public:
  ByteRope() = default;
  explicit ByteRope(std::string piece) { Append(std::move(piece)); }

  /// Append `piece` (its one checksum pass happens here).
  void Append(std::string piece);
  /// Append every piece of `other`; reads none of its bytes.
  void Append(ByteRope&& other);

  std::uint64_t size() const { return size_; }
  /// CRC-32 of the concatenated bytes (equal to Crc32(Flatten())).
  std::uint32_t crc32() const { return crc32_; }
  const std::vector<std::string>& pieces() const { return pieces_; }

  /// The bytes as one contiguous string (one copy).
  std::string Flatten() const;
  void WriteTo(std::ostream& out) const;

 private:
  std::vector<std::string> pieces_;
  std::uint64_t size_ = 0;
  std::uint32_t crc32_ = 0;  ///< Crc32 of the empty string
};

/// Running tallies of every frame this process has read, for the
/// warn-and-count legacy migration. Monotonic, thread-safe.
struct FramingStats {
  std::uint64_t checksummed_frames_read = 0;  ///< v2 frames (CRC verified)
  std::uint64_t legacy_frames_read = 0;       ///< v1 frames (no CRC; warned)
};
FramingStats GetFramingStats();

/// One parsed header line — the shared grammar between the stream reader
/// (ReadFramed) and the network plane's incremental frame assembler
/// (net::FrameAssembler), which sees a byte buffer instead of an istream
/// and must learn the payload length before the payload has arrived.
struct FrameHeader {
  std::string magic;
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  bool has_checksum = false;  ///< false = layout v1 (checksum-less)
  std::uint32_t crc32 = 0;    ///< meaningful only when has_checksum
};

/// Parse one header line (the bytes before the '\n', exclusive). Throws
/// ParseError on anything that is not a well-formed layout v1/v2 header:
/// missing fields, a malformed version or checksum token, or a payload
/// length above kMaxFramePayloadBytes. Performs no magic/version
/// expectation checks — callers compare against what they expect so the
/// error can name both sides.
FrameHeader ParseFrameHeaderLine(std::string_view line);

/// Write `payload` wrapped in a `<magic> v<version> <bytes> crc32=<hex>`
/// header (layout v2).
void WriteFramed(std::ostream& out, const std::string& magic,
                 std::uint32_t version, const std::string& payload);

/// The same frame as WriteFramed, as a rope: the header line (built from
/// the payload rope's size and CRC) followed by the payload's pieces.
ByteRope Frame(const std::string& magic, std::uint32_t version,
               ByteRope payload);

/// Read one frame and return its payload. Throws ParseError when the magic
/// differs, the version is not `expected_version`, the payload is shorter
/// than the header promised, the promised length is implausible
/// (> kMaxFramePayloadBytes, or beyond the stream's remaining bytes when it
/// is seekable), or the payload's CRC-32 does not match the header's.
/// Checksum-less layout-v1 frames are accepted with a counted warning.
std::string ReadFramed(std::istream& in, const std::string& magic,
                       std::uint32_t expected_version);

/// ReadFramed for a magic whose payload exists in several accepted
/// versions (e.g. engine snapshots: v1 text, v2 binary). Identical checks,
/// except the frame version must be one of `accepted_versions`; the version
/// actually found is stored through `version_out` (when non-null) so the
/// caller can dispatch to the right payload parser.
std::string ReadFramedAny(std::istream& in, const std::string& magic,
                          std::initializer_list<std::uint32_t> accepted_versions,
                          std::uint32_t* version_out = nullptr);

/// Magic of the next frame without consuming it (empty at end of stream).
std::string PeekMagic(std::istream& in);

// --- token codec (shared by the snapshot serializers) ---------------------

/// Append a lossless %.17g rendering of `value`. Non-finite values render
/// as nan/-nan/inf/-inf and round-trip through ReadDoubleToken.
void WriteDoubleToken(std::ostream& out, double value);

/// Read one double token; ParseError mentioning `context` on failure.
/// Accepts the non-finite tokens WriteDoubleToken emits.
double ReadDoubleToken(std::istream& in, const char* context);

/// Read one unsigned integer token; ParseError mentioning `context`.
std::uint64_t ReadU64Token(std::istream& in, const char* context);

/// Read one signed integer token; ParseError mentioning `context`.
std::int64_t ReadI64Token(std::istream& in, const char* context);

/// Consume one token and require it to equal `token`.
void ExpectToken(std::istream& in, const char* token);

}  // namespace cordial
