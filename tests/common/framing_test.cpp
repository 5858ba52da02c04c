// Versioned magic + length framing: the loader must tell apart "not our
// file", "wrong version", and "truncated" — and the token codec must
// round-trip doubles bit-exactly.
#include "common/framing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"

namespace cordial {
namespace {

TEST(Framing, RoundTripsPayloadVerbatim) {
  std::ostringstream out;
  const std::string payload = "line one\nline two with spaces\n\x01\x02 raw";
  WriteFramed(out, "test_magic", 3, payload);
  std::istringstream in(out.str());
  EXPECT_EQ(ReadFramed(in, "test_magic", 3), payload);
}

TEST(Framing, EmptyPayloadRoundTrips) {
  std::ostringstream out;
  WriteFramed(out, "empty_frame", 1, "");
  std::istringstream in(out.str());
  EXPECT_EQ(ReadFramed(in, "empty_frame", 1), "");
}

TEST(Framing, FramesNest) {
  std::ostringstream inner;
  WriteFramed(inner, "inner", 1, "payload");
  std::ostringstream outer;
  WriteFramed(outer, "outer", 2, inner.str());
  std::istringstream in(outer.str());
  std::istringstream nested(ReadFramed(in, "outer", 2));
  EXPECT_EQ(ReadFramed(nested, "inner", 1), "payload");
}

TEST(Framing, ConsecutiveFramesReadInOrder) {
  std::ostringstream out;
  WriteFramed(out, "frame", 1, "first");
  WriteFramed(out, "frame", 1, "second");
  std::istringstream in(out.str());
  EXPECT_EQ(PeekMagic(in), "frame");
  EXPECT_EQ(ReadFramed(in, "frame", 1), "first");
  EXPECT_EQ(ReadFramed(in, "frame", 1), "second");
  EXPECT_EQ(PeekMagic(in), "");
}

TEST(Framing, RejectsWrongMagic) {
  std::ostringstream out;
  WriteFramed(out, "actual_magic", 1, "x");
  std::istringstream in(out.str());
  EXPECT_THROW(ReadFramed(in, "expected_magic", 1), ParseError);
}

TEST(Framing, RejectsVersionMismatchWithClearMessage) {
  std::ostringstream out;
  WriteFramed(out, "magic", 7, "x");
  std::istringstream in(out.str());
  try {
    ReadFramed(in, "magic", 1);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v7"), std::string::npos) << what;
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
  }
}

TEST(Framing, RejectsTruncatedPayload) {
  std::ostringstream out;
  WriteFramed(out, "magic", 1, "a full payload");
  const std::string whole = out.str();
  std::istringstream in(whole.substr(0, whole.size() - 5));
  EXPECT_THROW(ReadFramed(in, "magic", 1), ParseError);
}

TEST(Framing, RejectsEmptyAndGarbageStreams) {
  std::istringstream empty("");
  EXPECT_THROW(ReadFramed(empty, "magic", 1), ParseError);
  std::istringstream garbage("not a frame at all");
  EXPECT_THROW(ReadFramed(garbage, "magic", 1), ParseError);
  std::istringstream bad_header("magic vX 10\n0123456789");
  EXPECT_THROW(ReadFramed(bad_header, "magic", 1), ParseError);
}

TEST(Framing, DoubleTokensRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           6.02214076e23,
                           -2.2250738585072014e-308,
                           123456789.123456789,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    std::ostringstream out;
    WriteDoubleToken(out, v);
    std::istringstream in(out.str());
    const double back = ReadDoubleToken(in, "test");
    EXPECT_EQ(std::signbit(back), std::signbit(v));
    EXPECT_EQ(back, v);
  }
}

TEST(Framing, CorruptLengthIsParseErrorNotBadAlloc) {
  // A flipped bit in the byte count must be rejected before allocation: a
  // huge promised length used to throw bad_alloc/length_error and could
  // OOM the daemon.
  std::istringstream absurd("magic v1 123456789012345678\npayload");
  EXPECT_THROW(ReadFramed(absurd, "magic", 1), ParseError);

  // Over the hard cap even if the stream were big enough.
  std::istringstream over_cap(
      "magic v1 " + std::to_string(kMaxFramePayloadBytes + 1) + "\nx");
  EXPECT_THROW(ReadFramed(over_cap, "magic", 1), ParseError);

  // Seekable stream: a length larger than the remaining bytes is rejected
  // up front as truncation.
  std::istringstream longer("magic v1 1000\nonly a few bytes");
  try {
    ReadFramed(longer, "magic", 1);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(Framing, ChecksumMismatchIsRejectedWithClearMessage) {
  std::ostringstream out;
  WriteFramed(out, "magic", 1, "a payload worth protecting");
  std::string bytes = out.str();
  bytes[bytes.size() - 3] ^= 0x10;  // flip one payload bit
  std::istringstream in(bytes);
  try {
    ReadFramed(in, "magic", 1);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(Framing, LegacyChecksumlessFramesStillReadWithCount) {
  // Layout v1, as written by pre-CRC builds: no crc32 field. Must still
  // load (old checkpoints stay restorable) and be tallied.
  const std::string payload = "legacy payload";
  std::ostringstream out;
  out << "magic v3 " << payload.size() << '\n' << payload;
  const std::uint64_t legacy_before = GetFramingStats().legacy_frames_read;
  std::istringstream in(out.str());
  EXPECT_EQ(ReadFramed(in, "magic", 3), payload);
  EXPECT_EQ(GetFramingStats().legacy_frames_read, legacy_before + 1);
}

TEST(Framing, MalformedChecksumFieldIsNotDemotedToLegacy) {
  // Anything after the byte count other than a well-formed crc32 token is
  // a corrupt header — a bit flip inside the checksum field must not turn
  // a protected frame into an unchecked one.
  const std::string payload = "x";
  for (const std::string tail :
       {" crc32=xyz", " crc32=1234567", " crc32=123456789", " crcZZ=12345678",
        " 12345678", "  crc32=12345678"}) {
    std::ostringstream out;
    out << "magic v1 " << payload.size() << tail << '\n' << payload;
    std::istringstream in(out.str());
    EXPECT_THROW(ReadFramed(in, "magic", 1), ParseError) << tail;
  }
}

TEST(Framing, ChecksummedFramesAreCounted) {
  const std::uint64_t before = GetFramingStats().checksummed_frames_read;
  std::ostringstream out;
  WriteFramed(out, "magic", 1, "counted");
  std::istringstream in(out.str());
  EXPECT_EQ(ReadFramed(in, "magic", 1), "counted");
  EXPECT_EQ(GetFramingStats().checksummed_frames_read, before + 1);
}

TEST(Framing, Crc32MatchesKnownVectors) {
  // The standard IEEE 802.3 check value, so the on-disk format is the
  // zlib/PNG CRC and not some homegrown variant.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

/// `n` pseudo-random bytes (a fixed stream per seed).
std::string RandomBytes(Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformU64(256));
  return bytes;
}

/// Crc32Combine of the split a‖b must equal the CRC of the whole.
void ExpectCombineMatches(const std::string& a, const std::string& b) {
  EXPECT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), Crc32(a + b))
      << "|a| = " << a.size() << ", |b| = " << b.size();
}

TEST(Framing, Crc32CombineMatchesCrcOfConcatenation) {
  Rng rng(2212);
  // Random splits of random buffers.
  for (int trial = 0; trial < 200; ++trial) {
    const std::string whole =
        RandomBytes(rng, static_cast<std::size_t>(rng.UniformU64(4096)));
    const std::size_t cut =
        static_cast<std::size_t>(rng.UniformU64(whole.size() + 1));
    ExpectCombineMatches(whole.substr(0, cut), whole.substr(cut));
  }
  // Empty left or right parts (and both).
  const std::string some = RandomBytes(rng, 100);
  ExpectCombineMatches("", some);
  ExpectCombineMatches(some, "");
  ExpectCombineMatches("", "");
  // Every length pair 0..17, across Crc32's 8-byte slice boundary.
  for (std::size_t la = 0; la <= 17; ++la) {
    for (std::size_t lb = 0; lb <= 17; ++lb) {
      ExpectCombineMatches(RandomBytes(rng, la), RandomBytes(rng, lb));
    }
  }
  // Mebibyte parts.
  ExpectCombineMatches(RandomBytes(rng, 1 << 20), RandomBytes(rng, 1 << 20));
}

TEST(Framing, ByteRopeKeepsSizeAndCrcOfItsConcatenation) {
  Rng rng(14);
  ByteRope rope;
  std::string expected;
  for (int i = 0; i < 20; ++i) {
    const std::string piece =
        RandomBytes(rng, static_cast<std::size_t>(rng.UniformU64(300)));
    expected += piece;
    if (i % 3 == 0) {
      ByteRope nested(piece);
      rope.Append(std::move(nested));
    } else {
      rope.Append(piece);
    }
  }
  EXPECT_EQ(rope.size(), expected.size());
  EXPECT_EQ(rope.crc32(), Crc32(expected));
  EXPECT_EQ(rope.Flatten(), expected);
  std::ostringstream out;
  rope.WriteTo(out);
  EXPECT_EQ(out.str(), expected);
}

TEST(Framing, FrameRopeIsByteIdenticalToWriteFramed) {
  const std::string payload = "nested payload\n\x01\x02 raw";
  std::ostringstream out;
  WriteFramed(out, "rope_magic", 4, payload);
  const ByteRope frame = Frame("rope_magic", 4, ByteRope(payload));
  EXPECT_EQ(frame.Flatten(), out.str());
  EXPECT_EQ(frame.crc32(), Crc32(out.str()));
  EXPECT_EQ(Frame("empty", 1, ByteRope()).Flatten(),
            "empty v1 0 crc32=00000000\n");
}

TEST(Framing, ReadFailpointInjectsParseError) {
  std::ostringstream out;
  WriteFramed(out, "magic", 1, "fine payload");
  failpoint::Arm("common.framing.read");
  std::istringstream armed(out.str());
  EXPECT_THROW(ReadFramed(armed, "magic", 1), ParseError);
  failpoint::DisarmAll();
  std::istringstream disarmed(out.str());
  EXPECT_EQ(ReadFramed(disarmed, "magic", 1), "fine payload");
}

TEST(Framing, NonFiniteDoublesRoundTripExplicitly) {
  // A non-finite stat used to serialize as a token operator>> rejects,
  // poisoning a checkpoint that then failed to restore.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, -nan, inf, -inf}) {
    std::ostringstream out;
    WriteDoubleToken(out, v);
    std::istringstream in(out.str());
    const double back = ReadDoubleToken(in, "test");
    EXPECT_EQ(std::isnan(back), std::isnan(v)) << out.str();
    EXPECT_EQ(std::isinf(back), std::isinf(v)) << out.str();
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << out.str();
  }
}

TEST(Framing, TokenReadersRejectMalformedInput) {
  std::istringstream not_num("zebra");
  EXPECT_THROW(ReadU64Token(not_num, "ctx"), ParseError);
  std::istringstream not_dbl("??");
  EXPECT_THROW(ReadDoubleToken(not_dbl, "ctx"), ParseError);
  std::istringstream empty("");
  EXPECT_THROW(ReadI64Token(empty, "ctx"), ParseError);
  std::istringstream wrong("alpha");
  EXPECT_THROW(ExpectToken(wrong, "beta"), ParseError);
}

}  // namespace
}  // namespace cordial
