#include <gtest/gtest.h>

#include <vector>

#include "src/kiss/kiss.h"

namespace upr {
namespace {

// Decoder handler that keeps an owned copy of every frame in `*out`.
KissDecoder::FrameHandler CollectInto(std::vector<KissFrame>* out) {
  return [out](std::uint8_t port, KissCommand command, ByteView payload) {
    out->push_back(KissFrame{port, command, Bytes(payload.begin(), payload.end())});
  };
}

class KissRoundTrip : public ::testing::Test {
 protected:
  KissRoundTrip() : decoder_(CollectInto(&frames_)) {}

  std::vector<KissFrame> frames_;
  KissDecoder decoder_;
};

TEST_F(KissRoundTrip, SimpleDataFrame) {
  Bytes payload{0x01, 0x02, 0x03};
  decoder_.Feed(KissEncodeData(payload));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].command, KissCommand::kData);
  EXPECT_EQ(frames_[0].port, 0);
  EXPECT_EQ(frames_[0].payload, payload);
}

TEST_F(KissRoundTrip, EscapesFendAndFesc) {
  Bytes payload{kKissFend, 0x42, kKissFesc, kKissFend};
  Bytes wire = KissEncodeData(payload);
  // Wire contains no raw FEND except the delimiters.
  int fends = 0;
  for (std::size_t i = 1; i + 1 < wire.size(); ++i) {
    if (wire[i] == kKissFend) {
      ++fends;
    }
  }
  EXPECT_EQ(fends, 0);
  decoder_.Feed(wire);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, payload);
}

TEST_F(KissRoundTrip, PayloadOfEveryByteValue) {
  Bytes payload;
  for (int i = 0; i < 256; ++i) {
    payload.push_back(static_cast<std::uint8_t>(i));
  }
  decoder_.Feed(KissEncodeData(payload));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, payload);
}

TEST_F(KissRoundTrip, ByteAtATimeStreaming) {
  Bytes payload{kKissFesc, kKissFend, 0x00, 0x7F};
  Bytes wire = KissEncodeData(payload);
  for (std::uint8_t b : wire) {
    decoder_.Feed(b);
  }
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, payload);
}

TEST_F(KissRoundTrip, BackToBackFramesShareDelimiters) {
  Bytes a = KissEncodeData(Bytes{1});
  Bytes b = KissEncodeData(Bytes{2});
  Bytes wire = a;
  wire.insert(wire.end(), b.begin(), b.end());
  decoder_.Feed(wire);
  ASSERT_EQ(frames_.size(), 2u);
  EXPECT_EQ(frames_[0].payload, Bytes{1});
  EXPECT_EQ(frames_[1].payload, Bytes{2});
}

TEST_F(KissRoundTrip, IdleFendsBetweenFramesIgnored) {
  decoder_.Feed(Bytes{kKissFend, kKissFend, kKissFend});
  EXPECT_TRUE(frames_.empty());
  decoder_.Feed(KissEncodeData(Bytes{7}));
  EXPECT_EQ(frames_.size(), 1u);
}

TEST_F(KissRoundTrip, CommandFramesCarryPortAndType) {
  KissFrame f;
  f.port = 3;
  f.command = KissCommand::kTxDelay;
  f.payload = Bytes{50};
  decoder_.Feed(KissEncode(f));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].port, 3);
  EXPECT_EQ(frames_[0].command, KissCommand::kTxDelay);
  EXPECT_EQ(frames_[0].payload, Bytes{50});
}

TEST_F(KissRoundTrip, ReturnFrameIs0xFF) {
  KissFrame f;
  f.command = KissCommand::kReturn;
  Bytes wire = KissEncode(f);
  ASSERT_GE(wire.size(), 2u);
  EXPECT_EQ(wire[1], 0xFF);
  decoder_.Feed(wire);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].command, KissCommand::kReturn);
}

TEST_F(KissRoundTrip, CommandNibbleFOnOtherPortsIsProtocolError) {
  // Only the full 0xFF type byte means "return". 0x1F used to decode as
  // kReturn on port 1 — and re-encode as 0xFF, silently moving the frame to
  // port 15. Such type bytes are now dropped as protocol errors.
  Bytes wire{kKissFend, 0x1F, 0x01, 0x02, kKissFend};
  decoder_.Feed(wire);
  EXPECT_TRUE(frames_.empty());
  EXPECT_EQ(decoder_.frames_decoded(), 0u);
  EXPECT_EQ(decoder_.protocol_errors(), 1u);
  // The stream resynchronizes: the next frame decodes normally.
  decoder_.Feed(KissEncodeData(Bytes{7}));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, Bytes{7});
}

TEST_F(KissRoundTrip, InvalidEscapeDropsFrameAndResyncs) {
  Bytes wire{kKissFend, 0x00, 0x01, kKissFesc, 0x99, 0x02, kKissFend};
  decoder_.Feed(wire);
  EXPECT_TRUE(frames_.empty());
  EXPECT_EQ(decoder_.protocol_errors(), 1u);
  // Next frame decodes fine.
  decoder_.Feed(KissEncodeData(Bytes{5}));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, Bytes{5});
}

TEST_F(KissRoundTrip, FrameEndingMidEscapeDroppedButFendStillDelimits) {
  // FESC immediately followed by FEND: the frame ends mid-escape. Per the
  // Chepponis/Karn spec the partial frame is dropped — but that FEND is
  // still a frame delimiter. The decoder used to enter the discard state
  // here, swallow the FEND, and throw away the entire next valid frame.
  Bytes wire{kKissFend, 0x00, 0x01, 0x02, kKissFesc, kKissFend};
  Bytes good = KissEncodeData(Bytes{0x42, 0x43});
  wire.insert(wire.end(), good.begin(), good.end());
  decoder_.Feed(wire);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, (Bytes{0x42, 0x43}));
  EXPECT_EQ(decoder_.protocol_errors(), 1u);
  EXPECT_EQ(decoder_.bad_escapes(), 1u);
}

TEST_F(KissRoundTrip, BackToBackFramesAfterDanglingEscape) {
  // Even with no idle FEND between the aborted frame and the next one, the
  // delimiting FEND opens the next frame directly.
  Bytes wire{kKissFend, 0x00, kKissFesc, kKissFend,  // aborted mid-escape
             0x00, 0x07, kKissFend};                 // next frame, shared FEND
  decoder_.Feed(wire);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, Bytes{0x07});
  EXPECT_EQ(decoder_.bad_escapes(), 1u);
}

TEST_F(KissRoundTrip, InvalidEscapeCountsBadEscape) {
  // FESC + ordinary byte: drop the frame, discard to the next FEND.
  Bytes wire{kKissFend, 0x00, kKissFesc, 0x41, 0x42, kKissFend};
  decoder_.Feed(wire);
  EXPECT_TRUE(frames_.empty());
  EXPECT_EQ(decoder_.protocol_errors(), 1u);
  EXPECT_EQ(decoder_.bad_escapes(), 1u);
  decoder_.Feed(KissEncodeData(Bytes{9}));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].payload, Bytes{9});
}

TEST_F(KissRoundTrip, OversizeFrameDropped) {
  KissDecoder small(CollectInto(&frames_), 16);
  Bytes big(100, 0xAA);
  small.Feed(KissEncodeData(big));
  EXPECT_TRUE(frames_.empty());
  EXPECT_EQ(small.oversize_drops(), 1u);
  small.Feed(KissEncodeData(Bytes{1, 2}));
  ASSERT_EQ(frames_.size(), 1u);
}

TEST_F(KissRoundTrip, ResetDropsPartialFrame) {
  decoder_.Feed(Bytes{kKissFend, 0x00, 0x01, 0x02});
  decoder_.Reset();
  decoder_.Feed(Bytes{0x03, kKissFend});  // tail of the old frame: becomes garbage frame
  // The stray bytes form a new "frame" with type 0x03 — decoder is lenient,
  // but the original payload must not leak through.
  for (const auto& f : frames_) {
    EXPECT_NE(f.payload, (Bytes{0x01, 0x02, 0x03}));
  }
}

TEST_F(KissRoundTrip, EmptyPayloadDataFrame) {
  decoder_.Feed(KissEncodeData(Bytes{}));
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_TRUE(frames_[0].payload.empty());
}

// --- Chunked vs byte-at-a-time equivalence (silo-mode prerequisite) ---------

// Feeds `wire` into two decoders — one byte at a time and in chunks of
// `chunk` — and checks frames and error counters agree exactly.
void ExpectChunkedEquivalent(const Bytes& wire, std::size_t chunk) {
  std::vector<KissFrame> by_byte, by_chunk;
  KissDecoder d1(CollectInto(&by_byte));
  KissDecoder d2(CollectInto(&by_chunk));
  for (std::uint8_t b : wire) {
    d1.Feed(b);
  }
  for (std::size_t i = 0; i < wire.size(); i += chunk) {
    std::size_t n = std::min(chunk, wire.size() - i);
    d2.Feed(wire.data() + i, n);
  }
  ASSERT_EQ(by_byte.size(), by_chunk.size()) << "chunk=" << chunk;
  for (std::size_t i = 0; i < by_byte.size(); ++i) {
    EXPECT_EQ(by_byte[i].payload, by_chunk[i].payload);
    EXPECT_EQ(by_byte[i].port, by_chunk[i].port);
    EXPECT_EQ(by_byte[i].command, by_chunk[i].command);
  }
  EXPECT_EQ(d1.frames_decoded(), d2.frames_decoded());
  EXPECT_EQ(d1.protocol_errors(), d2.protocol_errors());
  EXPECT_EQ(d1.bad_escapes(), d2.bad_escapes());
  EXPECT_EQ(d1.oversize_drops(), d2.oversize_drops());
}

TEST(KissChunkedFeed, EquivalentAcrossChunkSizesAndEscapeDensities) {
  // Escape-heavy payload: every escape may straddle a chunk boundary for
  // some chunk size below.
  Bytes payload;
  for (int i = 0; i < 300; ++i) {
    switch (i % 4) {
      case 0: payload.push_back(kKissFend); break;
      case 1: payload.push_back(kKissFesc); break;
      default: payload.push_back(static_cast<std::uint8_t>(i)); break;
    }
  }
  Bytes wire = KissEncodeData(payload);
  Bytes second = KissEncodeData(Bytes{1, 2, 3});
  wire.insert(wire.end(), second.begin(), second.end());
  for (std::size_t chunk : {1u, 2u, 3u, 7u, 16u, 64u, 1000u}) {
    ExpectChunkedEquivalent(wire, chunk);
  }
}

TEST(KissChunkedFeed, InvalidEscapeAbortsAndResyncsInChunks) {
  // FESC followed by a non-transpose byte aborts the frame; the next FEND
  // resynchronizes — same counters whether fed bytewise or chunked.
  Bytes wire{kKissFend, 0x00, 0x01, kKissFesc, 0x99, 0x02, 0x03, kKissFend};
  Bytes good = KissEncodeData(Bytes{0x42});
  wire.insert(wire.end(), good.begin(), good.end());
  for (std::size_t chunk : {1u, 2u, 4u, 100u}) {
    ExpectChunkedEquivalent(wire, chunk);
  }
  // And the chunked decoder really recovers the trailing frame.
  std::vector<KissFrame> frames;
  KissDecoder d(CollectInto(&frames));
  d.Feed(wire.data(), wire.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, Bytes{0x42});
  EXPECT_EQ(d.protocol_errors(), 1u);
}

TEST(KissChunkedFeed, OversizeDiscardAndResyncMatchesBytewise) {
  Bytes big(100, 0xAA);
  Bytes wire = KissEncodeData(big);
  Bytes good = KissEncodeData(Bytes{7, 8});
  wire.insert(wire.end(), good.begin(), good.end());
  std::vector<KissFrame> by_byte, by_chunk;
  KissDecoder d1(CollectInto(&by_byte), 16);
  KissDecoder d2(CollectInto(&by_chunk), 16);
  for (std::uint8_t b : wire) {
    d1.Feed(b);
  }
  d2.Feed(wire.data(), wire.size());
  ASSERT_EQ(by_byte.size(), 1u);
  ASSERT_EQ(by_chunk.size(), 1u);
  EXPECT_EQ(by_chunk[0].payload, (Bytes{7, 8}));
  EXPECT_EQ(d1.oversize_drops(), 1u);
  EXPECT_EQ(d2.oversize_drops(), 1u);
}

TEST(KissChunkedFeed, FrameExactlyAtMaxSizeSurvivesChunked) {
  // max_frame_ counts type byte + payload; a frame exactly at the cap must
  // decode, one byte over must not — in both feeding disciplines.
  Bytes at_cap(15, 0x11);   // 1 type byte + 15 = 16 = cap
  Bytes over_cap(16, 0x22); // 1 + 16 = 17 > cap
  for (bool chunked : {false, true}) {
    std::vector<KissFrame> frames;
    KissDecoder d(CollectInto(&frames), 16);
    Bytes wire = KissEncodeData(at_cap);
    Bytes wire2 = KissEncodeData(over_cap);
    wire.insert(wire.end(), wire2.begin(), wire2.end());
    if (chunked) {
      d.Feed(wire.data(), wire.size());
    } else {
      for (std::uint8_t b : wire) {
        d.Feed(b);
      }
    }
    ASSERT_EQ(frames.size(), 1u) << "chunked=" << chunked;
    EXPECT_EQ(frames[0].payload, at_cap);
    EXPECT_EQ(d.oversize_drops(), 1u);
  }
}

TEST(KissEncodeTest, WireFormatExact) {
  // FEND, type 0x00, payload, FEND.
  Bytes wire = KissEncodeData(Bytes{0x10, 0x20});
  EXPECT_EQ(wire, (Bytes{kKissFend, 0x00, 0x10, 0x20, kKissFend}));
}

TEST(KissEncodeTest, EscapedBytesExpandCorrectly) {
  Bytes wire = KissEncodeData(Bytes{kKissFend});
  EXPECT_EQ(wire, (Bytes{kKissFend, 0x00, kKissFesc, kKissTfend, kKissFend}));
  wire = KissEncodeData(Bytes{kKissFesc});
  EXPECT_EQ(wire, (Bytes{kKissFend, 0x00, kKissFesc, kKissTfesc, kKissFend}));
}

}  // namespace
}  // namespace upr
