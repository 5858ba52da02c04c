// Fixed-width little-endian binary codec primitives for checkpoint
// payloads — the byte-level layer under engine-state frame v2 and the
// delta/manifest formats (DESIGN.md §14).
//
// Header-only on purpose: the per-component encoders live next to the
// state they serialize (BankProfile, SparingLedger, StreamReplayer,
// PredictionEngine), which sit below cordial_persist in the link graph.
// cordial_common already exports the src/ include root, so any library can
// include this without a dependency edge; the persist *library* owns the
// file-level formats (chains, manifests, folding) built on top.
//
// Conventions:
//   * all integers little-endian, fixed width (u8/u32/u64/i64);
//   * doubles as their raw IEEE-754 bit pattern (via memcpy), so every
//     value — including nan/-nan/inf/-inf and signalling payloads — round-
//     trips bit-exactly, matching the %.17g + strtod guarantee of the text
//     codec without the formatting cost;
//   * variable-size sequences carry an explicit leading count, and readers
//     must sanity-check counts against remaining() before reserving — a
//     flipped bit in a count must be a ParseError, not a bad_alloc.
//
// BinaryReader throws ParseError (never reads out of bounds) so corrupt
// payloads fail closed through the same exception path as the text codec;
// the CRC in the enclosing frame catches corruption first in practice, and
// these checks make the codec safe even on an unframed buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/check.hpp"

namespace cordial::persist {

/// Appends fixed-width little-endian fields to a std::string buffer.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  void U8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }

  void U32(std::uint32_t value) {
    char bytes[4];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    }
    out_.append(bytes, sizeof(bytes));
  }

  void U64(std::uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    }
    out_.append(bytes, sizeof(bytes));
  }

  void I64(std::int64_t value) { U64(static_cast<std::uint64_t>(value)); }

  void F64(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  void Bytes(std::string_view data) { out_.append(data.data(), data.size()); }

  /// Write a u32 placeholder for a length not known yet; returns its
  /// offset for EndLength32.
  std::size_t BeginLength32() {
    const std::size_t at = out_.size();
    U32(0);
    return at;
  }
  /// Fill the placeholder at `at` with the byte count written after it, so
  /// a length-prefixed field is encoded in place instead of in a scratch
  /// buffer that is then copied.
  void EndLength32(std::size_t at) {
    const std::size_t length = out_.size() - at - 4;
    CORDIAL_CHECK_MSG(length <= 0xFFFFFFFFu, "length-prefixed field too large");
    for (int i = 0; i < 4; ++i) {
      out_[at + i] = static_cast<char>((length >> (8 * i)) & 0xFFu);
    }
  }

  std::string& buffer() { return out_; }

 private:
  std::string& out_;
};

/// Bounds-checked reader over an in-memory payload. Every accessor throws
/// ParseError naming `context` when fewer bytes remain than the field needs.
class BinaryReader {
 public:
  BinaryReader(std::string_view data, const char* context)
      : data_(data), context_(context) {}

  std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t U32() {
    Need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 4;
    return value;
  }

  std::uint64_t U64() {
    Need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  double F64() {
    const std::uint64_t bits = U64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string_view Bytes(std::size_t n) {
    Need(n);
    const std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  /// Read a leading element count and reject it unless `count *
  /// min_bytes_per_element` could still fit in the remaining payload — the
  /// reserve-cap guard for corrupt counts, applied before any allocation.
  std::uint64_t Count(std::size_t min_bytes_per_element) {
    const std::uint64_t count = U64();
    CheckCount(count, min_bytes_per_element);
    return count;
  }

  std::uint32_t Count32(std::size_t min_bytes_per_element) {
    const std::uint32_t count = U32();
    CheckCount(count, min_bytes_per_element);
    return count;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// Require the payload to be fully consumed — trailing garbage after the
  /// last field means the buffer is not what the writer produced.
  void ExpectEnd() const {
    if (!AtEnd()) {
      throw ParseError(std::string(context_) + ": " +
                       std::to_string(remaining()) +
                       " unexpected trailing byte(s)");
    }
  }

 private:
  void Need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw ParseError(std::string(context_) + ": truncated payload (need " +
                       std::to_string(n) + " byte(s) at offset " +
                       std::to_string(pos_) + ", have " +
                       std::to_string(remaining()) + ")");
    }
  }

  void CheckCount(std::uint64_t count, std::size_t min_bytes_per_element) const {
    if (min_bytes_per_element != 0 &&
        count > remaining() / min_bytes_per_element) {
      throw ParseError(std::string(context_) + ": implausible element count " +
                       std::to_string(count) + " (only " +
                       std::to_string(remaining()) + " payload byte(s) left)");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  const char* context_;
};

}  // namespace cordial::persist
