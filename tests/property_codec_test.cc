// Property-style codec tests: every wire format in the stack must round-trip
// arbitrary valid values, and must never crash or mis-accept on mutated
// input. Parameterized over PRNG seeds so each instantiation explores a
// different corner of the space deterministically.
#include <gtest/gtest.h>

#include "src/apps/callbook.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/arp.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/netrom/netrom.h"
#include "src/tcp/tcp.h"
#include "src/udp/udp.h"
#include "src/util/random.h"

namespace upr {
namespace {

// Decoder handler that keeps an owned copy of every frame in `*out`.
KissDecoder::FrameHandler CollectInto(std::vector<KissFrame>* out) {
  return [out](std::uint8_t port, KissCommand command, ByteView payload) {
    out->push_back(KissFrame{port, command, Bytes(payload.begin(), payload.end())});
  };
}

Bytes RandomBytes(Rng* rng, std::size_t max_len) {
  Bytes out(rng->NextBelow(max_len + 1));
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng->NextBelow(256));
  }
  return out;
}

Ax25Address RandomAddress(Rng* rng) {
  static const char* kAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string call;
  std::size_t len = 1 + rng->NextBelow(6);
  for (std::size_t i = 0; i < len; ++i) {
    call.push_back(kAlphabet[rng->NextBelow(36)]);
  }
  return Ax25Address(call, static_cast<std::uint8_t>(rng->NextBelow(16)));
}

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(CodecProperty, Ax25FrameRoundTripsRandomFrames) {
  for (int iter = 0; iter < 200; ++iter) {
    Ax25Frame f;
    f.destination = RandomAddress(&rng_);
    f.source = RandomAddress(&rng_);
    std::size_t ndigis = rng_.NextBelow(kMaxDigipeaters + 1);
    for (std::size_t i = 0; i < ndigis; ++i) {
      f.digipeaters.push_back(Ax25Digipeater{RandomAddress(&rng_), rng_.Chance(0.5)});
    }
    f.command = rng_.Chance(0.5);
    static const Ax25FrameType kTypes[] = {
        Ax25FrameType::kI,   Ax25FrameType::kRr,   Ax25FrameType::kRnr,
        Ax25FrameType::kRej, Ax25FrameType::kSabm, Ax25FrameType::kDisc,
        Ax25FrameType::kUa,  Ax25FrameType::kDm,   Ax25FrameType::kUi};
    f.type = kTypes[rng_.NextBelow(9)];
    f.poll_final = rng_.Chance(0.5);
    f.ns = static_cast<std::uint8_t>(rng_.NextBelow(8));
    f.nr = static_cast<std::uint8_t>(rng_.NextBelow(8));
    if (f.HasPid()) {
      f.pid = static_cast<std::uint8_t>(rng_.NextBelow(256));
      f.info = RandomBytes(&rng_, 256);
    }
    if (f.type == Ax25FrameType::kI || f.type == Ax25FrameType::kUi) {
      // ok
    } else {
      f.info.clear();
    }

    auto d = Ax25Frame::Decode(f.Encode());
    ASSERT_TRUE(d) << f.ToString();
    EXPECT_EQ(d->destination, f.destination);
    EXPECT_EQ(d->source, f.source);
    EXPECT_EQ(d->type, f.type);
    EXPECT_EQ(d->command, f.command);
    EXPECT_EQ(d->poll_final, f.poll_final);
    ASSERT_EQ(d->digipeaters.size(), f.digipeaters.size());
    for (std::size_t i = 0; i < ndigis; ++i) {
      EXPECT_EQ(d->digipeaters[i], f.digipeaters[i]);
    }
    if (f.type == Ax25FrameType::kI) {
      EXPECT_EQ(d->ns, f.ns);
    }
    if (f.type == Ax25FrameType::kI || f.type == Ax25FrameType::kRr ||
        f.type == Ax25FrameType::kRnr || f.type == Ax25FrameType::kRej) {
      EXPECT_EQ(d->nr, f.nr);
    }
    if (f.HasPid()) {
      EXPECT_EQ(d->pid, f.pid);
      EXPECT_EQ(d->info, f.info);
    }
  }
}

TEST_P(CodecProperty, Ax25DecodeNeverCrashesOnGarbage) {
  for (int iter = 0; iter < 500; ++iter) {
    Bytes garbage = RandomBytes(&rng_, 64);
    auto d = Ax25Frame::Decode(garbage);
    if (d) {
      // Whatever decoded must re-encode without crashing.
      Bytes wire = d->Encode();
      EXPECT_FALSE(wire.empty());
    }
  }
}

TEST_P(CodecProperty, KissRoundTripsArbitraryPayloads) {
  for (int iter = 0; iter < 200; ++iter) {
    Bytes payload = RandomBytes(&rng_, 512);
    std::vector<KissFrame> frames;
    KissDecoder decoder(CollectInto(&frames));
    decoder.Feed(KissEncodeData(payload, static_cast<std::uint8_t>(rng_.NextBelow(15))));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].payload, payload);
  }
}

TEST_P(CodecProperty, KissDecoderSurvivesGarbageStreams) {
  KissDecoder decoder([](std::uint8_t, KissCommand, ByteView) {});
  for (int iter = 0; iter < 50; ++iter) {
    decoder.Feed(RandomBytes(&rng_, 1024));
  }
  // Still functional afterwards: resync on FEND and decode a clean frame.
  decoder.Feed(Bytes{kKissFend});
  std::vector<KissFrame> frames;
  KissDecoder fresh(CollectInto(&frames));
  fresh.Feed(KissEncodeData(Bytes{1, 2, 3}));
  EXPECT_EQ(frames.size(), 1u);
}

TEST_P(CodecProperty, Ipv4RoundTripsAndRejectsBitFlips) {
  for (int iter = 0; iter < 100; ++iter) {
    Ipv4Header h;
    h.tos = static_cast<std::uint8_t>(rng_.NextBelow(256));
    h.identification = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    h.dont_fragment = rng_.Chance(0.5);
    h.more_fragments = rng_.Chance(0.5);
    h.fragment_offset = static_cast<std::uint16_t>(rng_.NextBelow(8192));
    h.ttl = static_cast<std::uint8_t>(1 + rng_.NextBelow(255));
    h.protocol = static_cast<std::uint8_t>(rng_.NextBelow(256));
    h.source = IpV4Address(static_cast<std::uint32_t>(rng_.NextU64()));
    h.destination = IpV4Address(static_cast<std::uint32_t>(rng_.NextU64()));
    Bytes payload = RandomBytes(&rng_, 128);
    Bytes wire = h.Encode(payload);

    auto p = Ipv4Header::Decode(wire);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->header.tos, h.tos);
    EXPECT_EQ(p->header.identification, h.identification);
    EXPECT_EQ(p->header.dont_fragment, h.dont_fragment);
    EXPECT_EQ(p->header.more_fragments, h.more_fragments);
    EXPECT_EQ(p->header.fragment_offset, h.fragment_offset);
    EXPECT_EQ(p->header.ttl, h.ttl);
    EXPECT_EQ(p->header.protocol, h.protocol);
    EXPECT_EQ(p->header.source, h.source);
    EXPECT_EQ(p->header.destination, h.destination);
    EXPECT_EQ(p->payload, payload);

    // Any single bit flip in the header must be rejected (checksum).
    std::size_t bit = rng_.NextBelow(20 * 8);
    Bytes mutated = wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (mutated != wire) {
      auto bad = Ipv4Header::Decode(mutated);
      // Either rejected outright, or the flip hit a length nibble making a
      // different-but-valid... no: checksum covers the whole header, so any
      // header flip must fail.
      EXPECT_FALSE(bad) << "bit " << bit;
    }
  }
}

TEST_P(CodecProperty, TcpSegmentRoundTripsAndChecksums) {
  IpV4Address src(10, 0, 0, 1), dst(10, 0, 0, 2);
  for (int iter = 0; iter < 100; ++iter) {
    TcpSegment s;
    s.source_port = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    s.destination_port = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    s.seq = static_cast<std::uint32_t>(rng_.NextU64());
    s.ack = static_cast<std::uint32_t>(rng_.NextU64());
    s.flags.syn = rng_.Chance(0.3);
    s.flags.ack = rng_.Chance(0.7);
    s.flags.fin = rng_.Chance(0.2);
    s.flags.rst = rng_.Chance(0.1);
    s.flags.psh = rng_.Chance(0.5);
    s.window = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    if (s.flags.syn && rng_.Chance(0.8)) {
      s.mss_option = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    }
    s.payload = RandomBytes(&rng_, 256);
    Bytes wire = s.Encode(src, dst);
    auto d = TcpSegment::Decode(wire, src, dst);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->source_port, s.source_port);
    EXPECT_EQ(d->seq, s.seq);
    EXPECT_EQ(d->ack, s.ack);
    EXPECT_EQ(d->flags.syn, s.flags.syn);
    EXPECT_EQ(d->flags.fin, s.flags.fin);
    EXPECT_EQ(d->flags.rst, s.flags.rst);
    EXPECT_EQ(d->window, s.window);
    EXPECT_EQ(d->mss_option, s.mss_option);
    EXPECT_EQ(d->payload, s.payload);

    std::size_t bit = rng_.NextBelow(wire.size() * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(TcpSegment::Decode(wire, src, dst)) << "bit " << bit;
  }
}

TEST_P(CodecProperty, UdpDatagramRoundTripsAndChecksums) {
  IpV4Address src(44, 24, 0, 10), dst(128, 95, 1, 4);
  for (int iter = 0; iter < 100; ++iter) {
    UdpDatagram d;
    d.source_port = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    d.destination_port = static_cast<std::uint16_t>(rng_.NextBelow(65536));
    d.payload = RandomBytes(&rng_, 512);
    Bytes wire = d.Encode(src, dst);
    auto p = UdpDatagram::Decode(wire, src, dst);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->source_port, d.source_port);
    EXPECT_EQ(p->destination_port, d.destination_port);
    EXPECT_EQ(p->payload, d.payload);

    std::size_t bit = rng_.NextBelow(wire.size() * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(UdpDatagram::Decode(wire, src, dst)) << "bit " << bit;
  }
}

TEST_P(CodecProperty, IcmpMessageRoundTripsAndChecksums) {
  for (int iter = 0; iter < 100; ++iter) {
    IcmpMessage m;
    m.type = static_cast<std::uint8_t>(rng_.NextBelow(256));
    m.code = static_cast<std::uint8_t>(rng_.NextBelow(256));
    m.body = RandomBytes(&rng_, 128);
    Bytes wire = m.Encode();
    auto d = IcmpMessage::Decode(wire);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->type, m.type);
    EXPECT_EQ(d->code, m.code);
    EXPECT_EQ(d->body, m.body);

    std::size_t bit = rng_.NextBelow(wire.size() * 8);
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(IcmpMessage::Decode(wire)) << "bit " << bit;
  }
}

TEST_P(CodecProperty, ArpPacketRoundTripsBothHardwareTypes) {
  for (int iter = 0; iter < 100; ++iter) {
    ArpPacket p;
    bool ax25 = rng_.Chance(0.5);
    p.htype = ax25 ? kArpHtypeAx25 : kArpHtypeEthernet;
    p.oper = rng_.Chance(0.5) ? kArpOpRequest : kArpOpReply;
    if (ax25) {
      p.sender_hw = Ax25HwAddr{RandomAddress(&rng_), {}};
      if (p.oper == kArpOpReply) {
        p.target_hw = Ax25HwAddr{RandomAddress(&rng_), {}};
      }
    } else {
      p.sender_hw = EtherAddr::FromIndex(static_cast<std::uint32_t>(rng_.NextU64()));
      if (p.oper == kArpOpReply) {
        p.target_hw = EtherAddr::FromIndex(static_cast<std::uint32_t>(rng_.NextU64()));
      }
    }
    p.sender_ip = IpV4Address(static_cast<std::uint32_t>(rng_.NextU64() | 1));
    p.target_ip = IpV4Address(static_cast<std::uint32_t>(rng_.NextU64() | 1));
    auto d = ArpPacket::Decode(p.Encode());
    ASSERT_TRUE(d);
    EXPECT_EQ(d->htype, p.htype);
    EXPECT_EQ(d->oper, p.oper);
    EXPECT_EQ(d->sender_ip, p.sender_ip);
    EXPECT_EQ(d->target_ip, p.target_ip);
    if (ax25) {
      EXPECT_EQ(std::get<Ax25HwAddr>(d->sender_hw).station,
                std::get<Ax25HwAddr>(p.sender_hw).station);
    } else {
      EXPECT_EQ(std::get<EtherAddr>(d->sender_hw), std::get<EtherAddr>(p.sender_hw));
    }
  }
}

TEST_P(CodecProperty, NetRomPacketRoundTrips) {
  for (int iter = 0; iter < 100; ++iter) {
    NetRomPacket p;
    p.source = RandomAddress(&rng_);
    p.destination = RandomAddress(&rng_);
    p.ttl = static_cast<std::uint8_t>(1 + rng_.NextBelow(255));
    p.opcode = static_cast<std::uint8_t>(rng_.NextBelow(256));
    p.payload = RandomBytes(&rng_, 236);
    auto d = NetRomPacket::Decode(p.Encode());
    ASSERT_TRUE(d);
    EXPECT_EQ(d->source, p.source);
    EXPECT_EQ(d->destination, p.destination);
    EXPECT_EQ(d->ttl, p.ttl);
    EXPECT_EQ(d->opcode, p.opcode);
    EXPECT_EQ(d->payload, p.payload);
  }
}

TEST_P(CodecProperty, CallbookEntryRoundTrips) {
  auto random_string = [this](std::size_t max) {
    std::string s;
    std::size_t n = rng_.NextBelow(max);
    for (std::size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>('!' + rng_.NextBelow(94)));
    }
    return s;
  };
  for (int iter = 0; iter < 100; ++iter) {
    CallbookEntry e{random_string(10), random_string(40), random_string(30),
                    random_string(6)};
    auto d = CallbookEntry::Decode(e.Encode());
    ASSERT_TRUE(d);
    EXPECT_EQ(d->callsign, e.callsign);
    EXPECT_EQ(d->name, e.name);
    EXPECT_EQ(d->city, e.city);
    EXPECT_EQ(d->grid, e.grid);
  }
}

TEST_P(CodecProperty, GatewayControlBodyRoundTrips) {
  for (int iter = 0; iter < 100; ++iter) {
    GatewayControlBody g;
    g.amateur_host = IpV4Address(static_cast<std::uint32_t>(rng_.NextU64()));
    g.non_amateur_host = IpV4Address(static_cast<std::uint32_t>(rng_.NextU64()));
    g.ttl_seconds = static_cast<std::uint32_t>(rng_.NextU64());
    g.callsign = RandomAddress(&rng_).ToString();
    g.password.assign(rng_.NextBelow(20), 'x');
    auto d = GatewayControlBody::Decode(g.Encode());
    ASSERT_TRUE(d);
    EXPECT_EQ(d->amateur_host, g.amateur_host);
    EXPECT_EQ(d->non_amateur_host, g.non_amateur_host);
    EXPECT_EQ(d->ttl_seconds, g.ttl_seconds);
    EXPECT_EQ(d->callsign, g.callsign);
    EXPECT_EQ(d->password, g.password);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace upr
