// Cross-check regression tests for the sliced/word-parallel checksum
// implementations (src/util/crc.cc) against the seed's bitwise/byte-pair
// reference code, plus property tests for odd-offset checksum chaining.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/crc.h"
#include "src/util/random.h"

namespace upr {
namespace {

Bytes RandomBytes(Rng* rng, std::size_t len) {
  Bytes b(len);
  for (auto& v : b) {
    v = static_cast<std::uint8_t>(rng->NextU64());
  }
  return b;
}

// --- CRC-16/X-25: sliced vs bitwise ---------------------------------------

TEST(Crc16Test, KnownVectors) {
  // "123456789" -> 0x906E is the published CRC-16/X-25 check value.
  const std::uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc16Ccitt(kCheck, sizeof(kCheck)), 0x906E);
  EXPECT_EQ(Crc16CcittReference(kCheck, sizeof(kCheck)), 0x906E);
  EXPECT_EQ(Crc16Ccitt(nullptr, 0), Crc16CcittReference(nullptr, 0));
}

// --- HDLC FCS framing ---------------------------------------------------------

TEST(FcsTest, AppendedFcsChecksAndStripsToTheBody) {
  const Bytes body = BytesFromString("KD7AB>KD7AA:hello");
  Bytes frame = body;
  AppendFcs(&frame);
  ASSERT_EQ(frame.size(), body.size() + 2);
  const std::uint16_t fcs = Crc16Ccitt(body);
  EXPECT_EQ(frame[body.size()], fcs & 0xFF);  // low byte first
  EXPECT_EQ(frame[body.size() + 1], fcs >> 8);
  std::optional<ByteView> checked = CheckFcs(frame);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(Bytes(checked->begin(), checked->end()), body);
  EXPECT_EQ(checked->data(), frame.data());  // a view into the frame, no copy
}

TEST(FcsTest, AnyOneFlippedBitFailsTheCheck) {
  Bytes frame = BytesFromString("KD7AB>KD7AA:hello");
  AppendFcs(&frame);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    Bytes bad = frame;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(CheckFcs(bad).has_value()) << "bit " << bit;
  }
}

TEST(FcsTest, FramesShorterThanTheFcsFailAndTwoBytesIsAnEmptyBody) {
  EXPECT_FALSE(CheckFcs(ByteView()).has_value());
  EXPECT_FALSE(CheckFcs(Bytes{0x00}).has_value());
  EXPECT_FALSE(CheckFcs(Bytes{0xFF}).has_value());
  Bytes empty;
  AppendFcs(&empty);
  ASSERT_EQ(empty.size(), 2u);
  std::optional<ByteView> checked = CheckFcs(empty);
  ASSERT_TRUE(checked.has_value());
  EXPECT_TRUE(checked->empty());
  EXPECT_FALSE(CheckFcs(Bytes{static_cast<std::uint8_t>(empty[0] ^ 1), empty[1]})
                   .has_value());
}

TEST(Crc16Test, SlicedMatchesBitwiseForAllSingleBytes) {
  for (int b = 0; b < 256; ++b) {
    std::uint8_t byte = static_cast<std::uint8_t>(b);
    EXPECT_EQ(Crc16Ccitt(&byte, 1), Crc16CcittReference(&byte, 1)) << b;
  }
}

TEST(Crc16Test, SlicedMatchesBitwiseForAllLengthsToFourSlices) {
  // Every length 0..32 covers the 8-byte slice loop boundaries (0..4 full
  // slices plus every tail length), with byte values that exercise all
  // table rows over the sweep.
  Rng rng(0xC4C1);
  for (std::size_t len = 0; len <= 32; ++len) {
    for (int trial = 0; trial < 64; ++trial) {
      Bytes data = RandomBytes(&rng, len);
      ASSERT_EQ(Crc16Ccitt(data.data(), len),
                Crc16CcittReference(data.data(), len))
          << "len=" << len << " trial=" << trial;
    }
  }
}

TEST(Crc16Test, SlicedMatchesBitwiseForFrameSizedBuffers) {
  Rng rng(0xF0F0);
  for (std::size_t len : {33u, 63u, 64u, 127u, 256u, 329u, 330u, 1500u, 4096u}) {
    Bytes data = RandomBytes(&rng, len);
    ASSERT_EQ(Crc16Ccitt(data.data(), len), Crc16CcittReference(data.data(), len))
        << "len=" << len;
  }
}

TEST(Crc16Test, UnalignedStartMatches) {
  // The slice loop reads through an arbitrary byte offset; make sure results
  // do not depend on pointer alignment.
  Rng rng(0xA11);
  Bytes data = RandomBytes(&rng, 256 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    ASSERT_EQ(Crc16Ccitt(data.data() + off, 256),
              Crc16CcittReference(data.data() + off, 256))
        << "offset=" << off;
  }
}

// --- Internet checksum: word-parallel vs byte-pair -------------------------

TEST(ChecksumTest, WideMatchesReferenceForAllLengthsAndOffsets) {
  Rng rng(0x1071);
  for (std::size_t len = 0; len <= 70; ++len) {
    for (std::size_t off = 0; off < 4; ++off) {
      Bytes data = RandomBytes(&rng, len + off);
      ASSERT_EQ(InternetChecksum(data.data() + off, len),
                ChecksumFinish(ChecksumPartialReference(data.data() + off, len)))
          << "len=" << len << " off=" << off;
    }
  }
}

TEST(ChecksumTest, WideMatchesReferenceWithInitialSum) {
  Rng rng(0x1072);
  for (std::size_t len : {0u, 1u, 7u, 20u, 65u, 1500u}) {
    Bytes data = RandomBytes(&rng, len);
    for (std::uint32_t initial : {0u, 1u, 0xFFFFu, 0x12345u, 0xFFFF0000u >> 4}) {
      ASSERT_EQ(InternetChecksum(data.data(), len, initial),
                ChecksumFinish(ChecksumPartialReference(data.data(), len, initial)))
          << "len=" << len << " initial=" << initial;
    }
  }
}

TEST(ChecksumTest, AllZeroAndAllOnesEdgeCases) {
  // One's-complement has two zeros; 0x0000 (empty/zero data) and 0xFFFF
  // (nonzero data summing to a multiple of 0xFFFF) must not be conflated.
  Bytes zeros(40, 0x00);
  Bytes ones(40, 0xFF);
  EXPECT_EQ(InternetChecksum(zeros.data(), zeros.size()),
            ChecksumFinish(ChecksumPartialReference(zeros.data(), zeros.size())));
  EXPECT_EQ(InternetChecksum(ones.data(), ones.size()),
            ChecksumFinish(ChecksumPartialReference(ones.data(), ones.size())));
  EXPECT_EQ(InternetChecksum(nullptr, 0), 0xFFFF);
}

// --- Odd-offset chaining (the PacketBuf segment-boundary audit) ------------

// Naive ChecksumPartial chaining treats every chunk as word-aligned: an
// odd-length first chunk pads its dangling byte as a word HIGH half, and the
// next chunk restarts on a word boundary. That diverges from the flattened
// sum — this test documents the trap the accumulator exists to fix.
TEST(ChecksumChainTest, NaivePartialChainingDivergesOnOddSplit) {
  const std::uint8_t flat[] = {0x01, 0x02, 0x03, 0x04};
  std::uint16_t flattened = InternetChecksum(flat, 4);
  // Split 1|3: naive chaining double-counts byte weights.
  std::uint32_t chained = ChecksumPartial(flat + 1, 3, ChecksumPartial(flat, 1));
  EXPECT_NE(ChecksumFinish(chained), flattened);
}

TEST(ChecksumChainTest, AccumulatorMatchesFlattenedForAllSplitPoints) {
  Rng rng(0xACC);
  for (std::size_t len : {1u, 2u, 3u, 8u, 21u, 64u, 129u}) {
    Bytes data = RandomBytes(&rng, len);
    std::uint16_t flattened = InternetChecksum(data.data(), len);
    for (std::size_t split = 0; split <= len; ++split) {
      ChecksumAccumulator acc;
      acc.Add(data.data(), split);
      acc.Add(data.data() + split, len - split);
      ASSERT_EQ(acc.Finish(), flattened) << "len=" << len << " split=" << split;
    }
  }
}

TEST(ChecksumChainTest, AccumulatorMatchesFlattenedForRandomMultiSegmentChains) {
  Rng rng(0xACC2);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t len = 1 + static_cast<std::size_t>(rng.NextBelow(300));
    Bytes data = RandomBytes(&rng, len);
    ChecksumAccumulator acc;
    std::size_t pos = 0;
    while (pos < len) {
      std::size_t seg = 1 + static_cast<std::size_t>(rng.NextBelow(len - pos));
      acc.Add(data.data() + pos, seg);
      pos += seg;
    }
    ASSERT_EQ(acc.Finish(), InternetChecksum(data.data(), len))
        << "trial=" << trial << " len=" << len;
  }
}

TEST(ChecksumChainTest, AccumulatorSumIsChainableAsInitial) {
  // Sum() reports the ChecksumPartial convention, so an accumulator over the
  // even-length pseudo-header composes with a plain ChecksumPartial payload
  // pass exactly like the stack's TCP/UDP code does.
  const std::uint8_t pseudo[] = {44, 24, 1, 2, 44, 24, 2, 3, 0, 6, 0, 20};
  const std::uint8_t payload[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x99};
  ChecksumAccumulator acc;
  acc.Add(pseudo, sizeof(pseudo));
  std::uint16_t via_acc =
      ChecksumFinish(ChecksumPartial(payload, sizeof(payload), acc.Sum()));
  std::uint16_t via_partial = ChecksumFinish(ChecksumPartial(
      payload, sizeof(payload), ChecksumPartialReference(pseudo, sizeof(pseudo))));
  EXPECT_EQ(via_acc, via_partial);
}

TEST(ChecksumChainTest, LongChainDoesNotOverflow) {
  // The accumulator pre-folds per Add; thousands of max-weight segments must
  // still match the flattened checksum.
  Bytes data(64 * 1024, 0xFF);
  ChecksumAccumulator acc;
  for (std::size_t pos = 0; pos < data.size(); pos += 7) {
    std::size_t seg = std::min<std::size_t>(7, data.size() - pos);
    acc.Add(data.data() + pos, seg);
  }
  EXPECT_EQ(acc.Finish(), InternetChecksum(data.data(), data.size()));
}

}  // namespace
}  // namespace upr
