#include "common/framing.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <iostream>
#include <istream>
#include <mutex>
#include <ostream>
#include <set>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace cordial {

namespace {

std::uint32_t ParseVersionToken(const std::string& token,
                                const std::string& magic) {
  if (token.size() < 2 || token[0] != 'v') {
    throw ParseError(magic + ": malformed version token '" + token + "'");
  }
  std::uint32_t version = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') {
      throw ParseError(magic + ": malformed version token '" + token + "'");
    }
    version = version * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return version;
}

std::atomic<std::uint64_t> g_checksummed_frames{0};
std::atomic<std::uint64_t> g_legacy_frames{0};

/// Warn once per magic that its frames predate the checksum layout; a
/// checkpoint nests dozens of engine frames and repeating the warning per
/// frame would bury the log.
void WarnLegacyFrame(const std::string& magic) {
  static std::mutex mutex;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  if (!warned->insert(magic).second) return;
  std::cerr << "warning: " << magic
            << " frame has no crc32 field (layout v1, written by an older "
               "build) — payload corruption is undetectable; rewrite it "
               "with this build to gain checksums\n";
}

/// Everything after the magic token on a header line: " v<version>
/// <bytes> crc32=<8 hex>" is ~40 bytes at the widest legal values; anything
/// longer before the newline is a corrupt header.
constexpr std::size_t kMaxHeaderRestBytes = 64;

/// Strictly the alphabet WriteFramed emits (%08x): lowercase only. Accepting
/// uppercase would let a bit flip inside the checksum field ('c' ^ 0x20 =
/// 'C') produce a header that still parses to the same CRC value, i.e. a
/// corrupted-but-accepted frame header.
int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  // Slice-by-8: eight derived tables let one iteration fold eight input
  // bytes, versus one per iteration for the classic single-table form. The
  // network plane checksums every frame on both ends of every connection,
  // so this sits on the ingest hot path; the polynomial and the result are
  // unchanged (reflected 0xEDB88320, zlib-compatible).
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    // Byte-assembled loads keep this endian-independent; compilers emit a
    // single 32-bit load on little-endian targets.
    const std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                             static_cast<std::uint32_t>(p[1]) << 8 |
                             static_cast<std::uint32_t>(p[2]) << 16 |
                             static_cast<std::uint32_t>(p[3]) << 24;
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    crc ^= lo;
    crc = tables[7][crc & 0xFFu] ^ tables[6][(crc >> 8) & 0xFFu] ^
          tables[5][(crc >> 16) & 0xFFu] ^ tables[4][crc >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;  // reflected, as in Crc32

/// a(x)·b(x) mod P(x) over GF(2), in the reflected bit order CRC-32 uses
/// (bit 31 is x^0). `a` must be nonzero.
std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kCrc32Poly : b >> 1;
  }
  return p;
}

/// x^(n·2^k) mod P(x): square-and-multiply over a table of x^(2^i).
std::uint32_t X2NModP(std::uint64_t n, unsigned k) {
  static const std::array<std::uint32_t, 32> x2n = [] {
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30;  // x^1
    t[0] = p;
    for (std::size_t i = 1; i < t.size(); ++i) t[i] = p = MultModP(p, p);
    return t;
  }();
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if (n & 1) p = MultModP(x2n[k & 31], p);
  }
  return p;
}

}  // namespace

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // Appending len_b bytes multiplies A's remainder by x^(8·len_b); B's own
  // CRC already accounts for the shared init/xorout (zlib's derivation).
  return MultModP(X2NModP(len_b, 3), crc_a) ^ crc_b;
}

void ByteRope::Append(std::string piece) {
  if (piece.empty()) return;
  crc32_ = Crc32Combine(crc32_, Crc32(piece), piece.size());
  size_ += piece.size();
  pieces_.push_back(std::move(piece));
}

void ByteRope::Append(ByteRope&& other) {
  crc32_ = Crc32Combine(crc32_, other.crc32_, other.size_);
  size_ += other.size_;
  for (std::string& piece : other.pieces_) pieces_.push_back(std::move(piece));
  other = ByteRope();
}

std::string ByteRope::Flatten() const {
  std::string bytes;
  bytes.reserve(static_cast<std::size_t>(size_));
  for (const std::string& piece : pieces_) bytes += piece;
  return bytes;
}

void ByteRope::WriteTo(std::ostream& out) const {
  for (const std::string& piece : pieces_) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  }
}

FrameHeader ParseFrameHeaderLine(std::string_view line) {
  FrameHeader header;
  std::size_t pos = 0;
  const auto take_token = [&]() -> std::string_view {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
    return line.substr(start, pos - start);
  };
  header.magic = std::string(take_token());
  if (header.magic.empty()) {
    throw ParseError("frame header: missing magic");
  }
  const std::string version_token(take_token());
  if (version_token.empty()) {
    throw ParseError(header.magic + ": missing version");
  }
  header.version = ParseVersionToken(version_token, header.magic);
  const std::string_view bytes_token = take_token();
  if (bytes_token.empty()) {
    throw ParseError(header.magic + ": missing payload length");
  }
  const auto [ptr, ec] =
      std::from_chars(bytes_token.data(), bytes_token.data() + bytes_token.size(),
                      header.payload_bytes);
  if (ec != std::errc() || ptr != bytes_token.data() + bytes_token.size()) {
    throw ParseError(header.magic + ": malformed payload length '" +
                     std::string(bytes_token) + "'");
  }
  // The header tail keeps the old ReadFramed grammar exactly: empty for
  // layout v1, or precisely " crc32=<8 lowercase hex>" for v2 — anything
  // else is a corrupt header, never a demotion to the checksum-less layout.
  const std::string tail(line.substr(pos));
  if (!tail.empty()) {
    const std::string prefix = " crc32=";
    if (tail.size() != prefix.size() + 8 ||
        tail.compare(0, prefix.size(), prefix) != 0) {
      throw ParseError(header.magic + ": malformed checksum field '" + tail +
                       "'");
    }
    for (std::size_t i = prefix.size(); i < tail.size(); ++i) {
      const int digit = HexDigit(tail[i]);
      if (digit < 0) {
        throw ParseError(header.magic + ": malformed checksum field '" + tail +
                         "'");
      }
      header.crc32 =
          (header.crc32 << 4) | static_cast<std::uint32_t>(digit);
    }
    header.has_checksum = true;
  }
  // Sanity-cap the promised length before anyone allocates for it: a
  // corrupt byte count must be a ParseError, not a bad_alloc.
  if (header.payload_bytes > kMaxFramePayloadBytes) {
    throw ParseError(header.magic + ": implausible payload length " +
                     std::to_string(header.payload_bytes) + " (limit " +
                     std::to_string(kMaxFramePayloadBytes) + " bytes)");
  }
  return header;
}

FramingStats GetFramingStats() {
  FramingStats stats;
  stats.checksummed_frames_read =
      g_checksummed_frames.load(std::memory_order_relaxed);
  stats.legacy_frames_read = g_legacy_frames.load(std::memory_order_relaxed);
  return stats;
}

namespace {

/// The layout-v2 header line `<magic> v<version> <bytes> crc32=<hex>\n`.
std::string FormatFrameHeaderLine(const std::string& magic,
                                  std::uint32_t version,
                                  std::uint64_t payload_bytes,
                                  std::uint32_t payload_crc32) {
  char tail[80];
  std::snprintf(tail, sizeof(tail), " v%u %llu crc32=%08x\n", version,
                static_cast<unsigned long long>(payload_bytes), payload_crc32);
  return magic + tail;
}

}  // namespace

void WriteFramed(std::ostream& out, const std::string& magic,
                 std::uint32_t version, const std::string& payload) {
  out << FormatFrameHeaderLine(magic, version, payload.size(), Crc32(payload))
      << payload;
}

ByteRope Frame(const std::string& magic, std::uint32_t version,
               ByteRope payload) {
  ByteRope frame(FormatFrameHeaderLine(magic, version, payload.size(),
                                       payload.crc32()));
  frame.Append(std::move(payload));
  return frame;
}

std::string ReadFramed(std::istream& in, const std::string& magic,
                       std::uint32_t expected_version) {
  return ReadFramedAny(in, magic, {expected_version}, nullptr);
}

std::string ReadFramedAny(std::istream& in, const std::string& magic,
                          std::initializer_list<std::uint32_t> accepted_versions,
                          std::uint32_t* version_out) {
  CORDIAL_FAILPOINT("common.framing.read",
                    throw ParseError(magic +
                                     ": injected read failure (failpoint "
                                     "common.framing.read)"));
  std::string seen_magic;
  if (!(in >> seen_magic)) throw ParseError(magic + ": empty stream");
  if (seen_magic != magic) {
    throw ParseError(magic + ": bad magic '" + seen_magic +
                     "' (not a " + magic + " stream)");
  }
  // The rest of the header line, read strictly character-by-character —
  // whitespace-skipping extraction could silently consume payload bytes on
  // a corrupt header. The grammar itself lives in ParseFrameHeaderLine,
  // shared with the network plane's incremental frame assembler.
  std::string rest;
  for (;;) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) {
      throw ParseError(magic + ": malformed header");
    }
    if (c == '\n') break;
    rest.push_back(static_cast<char>(c));
    if (rest.size() > kMaxHeaderRestBytes) {
      throw ParseError(magic + ": malformed header");
    }
  }
  const FrameHeader header = ParseFrameHeaderLine(seen_magic + rest);
  bool version_ok = false;
  for (const std::uint32_t accepted : accepted_versions) {
    if (header.version == accepted) version_ok = true;
  }
  if (!version_ok) {
    std::string accepted_list;
    for (const std::uint32_t accepted : accepted_versions) {
      if (!accepted_list.empty()) accepted_list += "/";
      accepted_list += "v" + std::to_string(accepted);
    }
    throw ParseError(magic + ": version mismatch — stream is v" +
                     std::to_string(header.version) + ", this build reads " +
                     accepted_list);
  }
  if (version_out != nullptr) *version_out = header.version;
  const std::uint64_t bytes = header.payload_bytes;
  const bool has_checksum = header.has_checksum;
  const std::uint32_t expected_crc = header.crc32;
  const std::streampos pos = in.tellg();
  if (pos != std::streampos(-1)) {
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(pos);
    if (end != std::streampos(-1) &&
        bytes > static_cast<std::uint64_t>(end - pos)) {
      throw ParseError(magic + ": truncated payload (header promises " +
                       std::to_string(bytes) + " bytes, stream has " +
                       std::to_string(static_cast<std::int64_t>(end - pos)) +
                       " left)");
    }
  }

  std::string payload(static_cast<std::size_t>(bytes), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::uint64_t>(in.gcount()) != bytes) {
    throw ParseError(magic + ": truncated payload (expected " +
                     std::to_string(bytes) + " bytes, got " +
                     std::to_string(in.gcount()) + ")");
  }
  if (has_checksum) {
    const std::uint32_t actual_crc = Crc32(payload);
    if (actual_crc != expected_crc) {
      char expected_hex[16], actual_hex[16];
      std::snprintf(expected_hex, sizeof(expected_hex), "%08x", expected_crc);
      std::snprintf(actual_hex, sizeof(actual_hex), "%08x", actual_crc);
      throw ParseError(magic + ": payload checksum mismatch (header crc32=" +
                       expected_hex + ", payload crc32=" + actual_hex +
                       ") — corrupt frame");
    }
    g_checksummed_frames.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_legacy_frames.fetch_add(1, std::memory_order_relaxed);
    WarnLegacyFrame(magic);
  }
  return payload;
}

std::string PeekMagic(std::istream& in) {
  const auto start = in.tellg();
  std::string magic;
  if (!(in >> magic)) {
    in.clear();
    in.seekg(start);
    return std::string();
  }
  in.seekg(start);
  return magic;
}

void WriteDoubleToken(std::ostream& out, double value) {
  if (std::isnan(value)) {
    out << (std::signbit(value) ? "-nan" : "nan");
    return;
  }
  if (std::isinf(value)) {
    out << (std::signbit(value) ? "-inf" : "inf");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

double ReadDoubleToken(std::istream& in, const char* context) {
  // operator>>(double) rejects the nan/inf tokens WriteDoubleToken emits
  // (and, pre-fix, silently poisoned checkpoints containing them), so parse
  // the token through strtod, which accepts them and round-trips %.17g
  // output bit-exactly.
  std::string token;
  if (!(in >> token)) {
    throw ParseError(std::string(context) + ": malformed double");
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    throw ParseError(std::string(context) + ": malformed double '" + token +
                     "'");
  }
  return value;
}

std::uint64_t ReadU64Token(std::istream& in, const char* context) {
  std::uint64_t value = 0;
  if (!(in >> value)) {
    throw ParseError(std::string(context) + ": malformed unsigned integer");
  }
  return value;
}

std::int64_t ReadI64Token(std::istream& in, const char* context) {
  std::int64_t value = 0;
  if (!(in >> value)) {
    throw ParseError(std::string(context) + ": malformed integer");
  }
  return value;
}

void ExpectToken(std::istream& in, const char* token) {
  std::string word;
  if (!(in >> word) || word != token) {
    throw ParseError(std::string("expected token '") + token + "', got '" +
                     word + "'");
  }
}

}  // namespace cordial
