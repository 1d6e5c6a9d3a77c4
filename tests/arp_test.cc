#include <gtest/gtest.h>

#include "src/net/arp.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

TEST(ArpPacketTest, EthernetRoundTrip) {
  ArpPacket p;
  p.htype = kArpHtypeEthernet;
  p.oper = kArpOpRequest;
  p.sender_hw = EtherAddr::FromIndex(7);
  p.sender_ip = IpV4Address(10, 0, 0, 1);
  p.target_ip = IpV4Address(10, 0, 0, 2);
  auto d = ArpPacket::Decode(p.Encode());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->htype, kArpHtypeEthernet);
  EXPECT_EQ(d->oper, kArpOpRequest);
  EXPECT_EQ(std::get<EtherAddr>(d->sender_hw), EtherAddr::FromIndex(7));
  EXPECT_EQ(d->sender_ip, p.sender_ip);
  EXPECT_FALSE(d->target_hw.has_value());  // request: zero-filled
  EXPECT_EQ(d->target_ip, p.target_ip);
}

TEST(ArpPacketTest, Ax25RoundTrip) {
  ArpPacket p;
  p.htype = kArpHtypeAx25;
  p.oper = kArpOpReply;
  p.sender_hw = Ax25HwAddr{Ax25Address("N7AKR", 1), {}};
  p.sender_ip = IpV4Address(44, 24, 0, 28);
  p.target_hw = Ax25HwAddr{Ax25Address("KD7AA", 0), {}};
  p.target_ip = IpV4Address(44, 24, 0, 10);
  auto d = ArpPacket::Decode(p.Encode());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->htype, kArpHtypeAx25);
  EXPECT_EQ(std::get<Ax25HwAddr>(d->sender_hw).station, Ax25Address("N7AKR", 1));
  ASSERT_TRUE(d->target_hw);
  EXPECT_EQ(std::get<Ax25HwAddr>(*d->target_hw).station, Ax25Address("KD7AA", 0));
}

TEST(ArpPacketTest, RejectsMismatchedLengths) {
  ArpPacket p;
  p.htype = kArpHtypeEthernet;
  p.sender_hw = EtherAddr::FromIndex(1);
  Bytes wire = p.Encode();
  wire[4] = 9;  // bogus hlen
  EXPECT_FALSE(ArpPacket::Decode(wire));
  Bytes tiny(wire.begin(), wire.begin() + 6);
  EXPECT_FALSE(ArpPacket::Decode(tiny));
}

// Harness wiring two resolvers back to back over a virtual link.
class ArpResolverTest : public ::testing::Test {
 protected:
  void Build(std::uint16_t htype) {
    ArpConfig ca;
    ca.hardware_type = htype;
    ca.broadcast_hw = Broadcast(htype);
    ca.retry_interval = Seconds(1);
    ca.max_retries = 3;
    a_ = std::make_unique<ArpResolver>(
        &sim_, ca, [] { return IpV4Address(10, 0, 0, 1); }, HwFor(htype, 1),
        [this](const Bytes& pkt, const std::optional<HwAddress>&) {
          // Broadcast medium: the peer always hears requests and replies.
          sim_.Schedule(Milliseconds(10), [this, pkt] { b_->HandleArpPacket(pkt); });
        },
        [this](PacketBuf&& dgram, const HwAddress& hw) {
          a_sent_.push_back({dgram.Release(), hw});
        });
    ArpConfig cb = ca;
    b_ = std::make_unique<ArpResolver>(
        &sim_, cb, [] { return IpV4Address(10, 0, 0, 2); }, HwFor(htype, 2),
        [this](const Bytes& pkt, const std::optional<HwAddress>&) {
          sim_.Schedule(Milliseconds(10), [this, pkt] { a_->HandleArpPacket(pkt); });
        },
        [this](PacketBuf&& dgram, const HwAddress& hw) {
          b_sent_.push_back({dgram.Release(), hw});
        });
  }

  static HwAddress Broadcast(std::uint16_t htype) {
    if (htype == kArpHtypeAx25) {
      return Ax25HwAddr{Ax25Address::Broadcast(), {}};
    }
    return EtherAddr::Broadcast();
  }
  static HwAddress HwFor(std::uint16_t htype, std::uint32_t i) {
    if (htype == kArpHtypeAx25) {
      return Ax25HwAddr{Ax25Address("CALL" + std::to_string(i), 0), {}};
    }
    return EtherAddr::FromIndex(i);
  }

  struct Sent {
    Bytes dgram;
    HwAddress hw;
  };
  Simulator sim_;
  std::unique_ptr<ArpResolver> a_;
  std::unique_ptr<ArpResolver> b_;
  std::vector<Sent> a_sent_;
  std::vector<Sent> b_sent_;
};

TEST_F(ArpResolverTest, ResolvesAndFlushesQueue) {
  Build(kArpHtypeEthernet);
  a_->Send(PacketBuf::FromBytes(BytesFromString("pkt1")), IpV4Address(10, 0, 0, 2));
  a_->Send(PacketBuf::FromBytes(BytesFromString("pkt2")), IpV4Address(10, 0, 0, 2));
  EXPECT_TRUE(a_sent_.empty());  // queued pending resolution
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(a_sent_.size(), 2u);
  EXPECT_EQ(a_sent_[0].dgram, BytesFromString("pkt1"));
  EXPECT_EQ(std::get<EtherAddr>(a_sent_[0].hw), EtherAddr::FromIndex(2));
  EXPECT_EQ(a_->requests_sent(), 1u);
  EXPECT_EQ(b_->replies_sent(), 1u);
}

TEST_F(ArpResolverTest, SecondSendUsesCache) {
  Build(kArpHtypeEthernet);
  a_->Send(PacketBuf::FromBytes(BytesFromString("x")), IpV4Address(10, 0, 0, 2));
  sim_.RunUntil(Seconds(1));
  a_->Send(PacketBuf::FromBytes(BytesFromString("y")), IpV4Address(10, 0, 0, 2));
  EXPECT_EQ(a_sent_.size(), 2u);  // immediate, no new request
  EXPECT_EQ(a_->requests_sent(), 1u);
}

TEST_F(ArpResolverTest, PeerLearnsRequesterFromRequest) {
  Build(kArpHtypeEthernet);
  a_->Send(PacketBuf::FromBytes(BytesFromString("x")), IpV4Address(10, 0, 0, 2));
  sim_.RunUntil(Seconds(1));
  // B can now send to A without its own request (gleaned from the request).
  b_->Send(PacketBuf::FromBytes(BytesFromString("back")), IpV4Address(10, 0, 0, 1));
  EXPECT_EQ(b_sent_.size(), 1u);
  EXPECT_EQ(b_->requests_sent(), 0u);
}

TEST_F(ArpResolverTest, RetriesThenFails) {
  Build(kArpHtypeEthernet);
  // Nobody home.
  a_->Send(PacketBuf::FromBytes(BytesFromString("void")), IpV4Address(10, 0, 0, 99));
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(a_->requests_sent(), 3u);
  EXPECT_EQ(a_->resolution_failures(), 1u);
  EXPECT_GE(a_->queue_drops(), 1u);
  EXPECT_TRUE(a_sent_.empty());
}

TEST_F(ArpResolverTest, BroadcastNextHopBypassesCache) {
  Build(kArpHtypeEthernet);
  a_->Send(PacketBuf::FromBytes(BytesFromString("bcast")), IpV4Address::LimitedBroadcast());
  ASSERT_EQ(a_sent_.size(), 1u);
  EXPECT_TRUE(std::get<EtherAddr>(a_sent_[0].hw).IsBroadcast());
}

TEST_F(ArpResolverTest, PendingQueueBounded) {
  Build(kArpHtypeEthernet);
  for (int i = 0; i < 10; ++i) {
    a_->Send(PacketBuf::FromBytes(Bytes{static_cast<std::uint8_t>(i)}), IpV4Address(10, 0, 0, 2));
  }
  sim_.RunUntil(Seconds(1));
  // Default max_pending_per_entry = 4: the last 4 survive.
  ASSERT_EQ(a_sent_.size(), 4u);
  EXPECT_EQ(a_sent_[0].dgram, Bytes{6});
  EXPECT_EQ(a_->queue_drops(), 6u);
}

TEST_F(ArpResolverTest, StaticAx25EntryKeepsDigipeaterPath) {
  Build(kArpHtypeAx25);
  std::vector<Ax25Address> path{Ax25Address("WB7RA", 0), Ax25Address("WB7RB", 0)};
  a_->AddStatic(IpV4Address(10, 0, 0, 2), Ax25HwAddr{Ax25Address("CALL2", 0), path});
  a_->Send(PacketBuf::FromBytes(BytesFromString("via digis")), IpV4Address(10, 0, 0, 2));
  ASSERT_EQ(a_sent_.size(), 1u);
  EXPECT_EQ(std::get<Ax25HwAddr>(a_sent_[0].hw).digipeaters, path);
  // A live reply must not clobber the configured path.
  ArpPacket reply;
  reply.htype = kArpHtypeAx25;
  reply.oper = kArpOpReply;
  reply.sender_hw = Ax25HwAddr{Ax25Address("CALL2", 0), {}};
  reply.sender_ip = IpV4Address(10, 0, 0, 2);
  reply.target_hw = HwFor(kArpHtypeAx25, 1);
  reply.target_ip = IpV4Address(10, 0, 0, 1);
  a_->HandleArpPacket(reply.Encode());
  a_->Send(PacketBuf::FromBytes(BytesFromString("again")), IpV4Address(10, 0, 0, 2));
  ASSERT_EQ(a_sent_.size(), 2u);
  EXPECT_EQ(std::get<Ax25HwAddr>(a_sent_[1].hw).digipeaters, path);
}

TEST_F(ArpResolverTest, EntriesExpireAfterTtl) {
  Build(kArpHtypeEthernet);
  a_->Send(PacketBuf::FromBytes(BytesFromString("x")), IpV4Address(10, 0, 0, 2));
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(a_->Lookup(IpV4Address(10, 0, 0, 2)).has_value());
  sim_.RunUntil(Seconds(25 * 60));  // past the 20-minute TTL
  EXPECT_FALSE(a_->Lookup(IpV4Address(10, 0, 0, 2)).has_value());
  // Sending again re-resolves.
  a_->Send(PacketBuf::FromBytes(BytesFromString("y")), IpV4Address(10, 0, 0, 2));
  sim_.RunUntil(Seconds(25 * 60 + 5));
  EXPECT_EQ(a_sent_.size(), 2u);
  EXPECT_EQ(a_->requests_sent(), 2u);
}

TEST_F(ArpResolverTest, FlushRemovesDynamicKeepsStatic) {
  Build(kArpHtypeEthernet);
  a_->Send(PacketBuf::FromBytes(BytesFromString("x")), IpV4Address(10, 0, 0, 2));
  sim_.RunUntil(Seconds(1));
  a_->AddStatic(IpV4Address(10, 0, 0, 50), EtherAddr::FromIndex(50));
  a_->Flush();
  EXPECT_FALSE(a_->Lookup(IpV4Address(10, 0, 0, 2)).has_value());
  EXPECT_TRUE(a_->Lookup(IpV4Address(10, 0, 0, 50)).has_value());
}

}  // namespace
}  // namespace upr
