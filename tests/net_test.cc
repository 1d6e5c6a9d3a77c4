#include <gtest/gtest.h>

#include "src/net/ip_address.h"
#include "src/net/ipv4.h"
#include "src/net/netstack.h"
#include "src/net/routing.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

TEST(IpAddressTest, ParseAndFormat) {
  auto a = IpV4Address::Parse("44.24.0.28");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->value(), 0x2C18001Cu);
  EXPECT_EQ(a->ToString(), "44.24.0.28");
  EXPECT_FALSE(IpV4Address::Parse("256.1.1.1"));
  EXPECT_FALSE(IpV4Address::Parse("1.2.3"));
  EXPECT_FALSE(IpV4Address::Parse("1.2.3.4.5"));
  EXPECT_FALSE(IpV4Address::Parse("a.b.c.d"));
  EXPECT_FALSE(IpV4Address::Parse(""));
}

TEST(IpAddressTest, AmprNetDetection) {
  EXPECT_TRUE(IpV4Address(44, 24, 0, 5).IsAmprNet());
  EXPECT_TRUE(IpV4Address(44, 56, 0, 5).IsAmprNet());
  EXPECT_FALSE(IpV4Address(128, 95, 1, 1).IsAmprNet());
}

TEST(IpPrefixTest, CidrContains) {
  auto p = IpV4Prefix::FromCidr(IpV4Address(44, 24, 0, 28), 8);
  EXPECT_EQ(p.PrefixLength(), 8);
  EXPECT_EQ(p.network, IpV4Address(44, 0, 0, 0));
  EXPECT_TRUE(p.Contains(IpV4Address(44, 99, 3, 4)));
  EXPECT_FALSE(p.Contains(IpV4Address(45, 0, 0, 1)));
  auto p24 = IpV4Prefix::FromCidr(IpV4Address(128, 95, 1, 0), 24);
  EXPECT_TRUE(p24.Contains(IpV4Address(128, 95, 1, 200)));
  EXPECT_FALSE(p24.Contains(IpV4Address(128, 95, 2, 1)));
  auto p0 = IpV4Prefix::FromCidr(IpV4Address(), 0);
  EXPECT_TRUE(p0.Contains(IpV4Address(1, 2, 3, 4)));
  auto p32 = IpV4Prefix::FromCidr(IpV4Address(10, 0, 0, 1), 32);
  EXPECT_TRUE(p32.Contains(IpV4Address(10, 0, 0, 1)));
  EXPECT_FALSE(p32.Contains(IpV4Address(10, 0, 0, 2)));
}

TEST(Ipv4HeaderTest, EncodeDecodeRoundTrip) {
  Ipv4Header h;
  h.tos = 0x10;
  h.identification = 0x1234;
  h.ttl = 15;
  h.protocol = kIpProtoTcp;
  h.source = IpV4Address(44, 24, 0, 10);
  h.destination = IpV4Address(128, 95, 1, 4);
  Bytes payload = BytesFromString("data data data");
  Bytes wire = h.Encode(payload);
  auto parsed = Ipv4Header::Decode(wire);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->header.tos, 0x10);
  EXPECT_EQ(parsed->header.identification, 0x1234);
  EXPECT_EQ(parsed->header.ttl, 15);
  EXPECT_EQ(parsed->header.protocol, kIpProtoTcp);
  EXPECT_EQ(parsed->header.source, h.source);
  EXPECT_EQ(parsed->header.destination, h.destination);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Ipv4HeaderTest, ChecksumValidation) {
  Ipv4Header h;
  h.source = IpV4Address(1, 2, 3, 4);
  h.destination = IpV4Address(5, 6, 7, 8);
  Bytes wire = h.Encode(Bytes{});
  wire[8] ^= 0x01;  // flip a TTL bit
  EXPECT_FALSE(Ipv4Header::Decode(wire));
}

TEST(Ipv4HeaderTest, FragmentFieldsRoundTrip) {
  Ipv4Header h;
  h.source = IpV4Address(1, 2, 3, 4);
  h.destination = IpV4Address(5, 6, 7, 8);
  h.more_fragments = true;
  h.fragment_offset = 185;
  Bytes wire = h.Encode(Bytes(8, 1));
  auto p = Ipv4Header::Decode(wire);
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->header.more_fragments);
  EXPECT_FALSE(p->header.dont_fragment);
  EXPECT_EQ(p->header.fragment_offset, 185);
  h.dont_fragment = true;
  h.more_fragments = false;
  h.fragment_offset = 0;
  p = Ipv4Header::Decode(h.Encode(Bytes{}));
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->header.dont_fragment);
}

TEST(Ipv4HeaderTest, ReservedFlagBitPreserved) {
  Ipv4Header h;
  h.source = IpV4Address(1, 2, 3, 4);
  h.destination = IpV4Address(5, 6, 7, 8);
  h.reserved_flag = true;
  h.more_fragments = true;
  h.fragment_offset = 5;
  Bytes wire = h.Encode(Bytes(4, 0xAA));
  auto p = Ipv4Header::Decode(wire);
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->header.reserved_flag);
  // Re-encode is byte-identical: the bit is not silently cleared.
  EXPECT_EQ(p->header.Encode(p->payload), wire);
  h.reserved_flag = false;
  p = Ipv4Header::Decode(h.Encode(Bytes{}));
  ASSERT_TRUE(p);
  EXPECT_FALSE(p->header.reserved_flag);
}

TEST(Ipv4HeaderTest, OptionsPaddedAndCarried) {
  Ipv4Header h;
  h.source = IpV4Address(1, 2, 3, 4);
  h.destination = IpV4Address(5, 6, 7, 8);
  h.options = Bytes{0x07, 0x03, 0x04};  // odd length: padded to 4
  Bytes wire = h.Encode(BytesFromString("xy"));
  auto p = Ipv4Header::Decode(wire);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->header.options.size(), 4u);
  EXPECT_EQ(p->payload, BytesFromString("xy"));
}

TEST(Ipv4HeaderTest, RejectsBadVersionAndLengths) {
  Ipv4Header h;
  h.source = IpV4Address(1, 2, 3, 4);
  h.destination = IpV4Address(5, 6, 7, 8);
  Bytes wire = h.Encode(Bytes{});
  Bytes bad = wire;
  bad[0] = 0x60 | (bad[0] & 0x0F);  // version 6 — checksum also breaks, fix it:
  EXPECT_FALSE(Ipv4Header::Decode(bad));
  Bytes tiny(wire.begin(), wire.begin() + 10);
  EXPECT_FALSE(Ipv4Header::Decode(tiny));
}

class FakeInterface : public NetInterface {
 public:
  FakeInterface(std::string name, std::size_t mtu) : NetInterface(std::move(name), mtu) {}
  void Output(PacketBuf&& dgram, IpV4Address next_hop) override {
    sent.push_back({dgram.Release(), next_hop});
  }
  // Expose for tests.
  void Inject(const Bytes& dgram) { DeliverToStack(PacketBuf::FromBytes(dgram)); }
  struct Out {
    Bytes dgram;
    IpV4Address next_hop;
  };
  std::vector<Out> sent;
};

TEST(RouteTableTest, LongestPrefixWins) {
  RouteTable rt;
  FakeInterface a("a", 1500), b("b", 1500);
  rt.AddDirect(IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8), &a);
  rt.AddDirect(IpV4Prefix::FromCidr(IpV4Address(44, 24, 0, 0), 16), &b);
  const Route* r = rt.Lookup(IpV4Address(44, 24, 0, 5));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->interface, &b);
  r = rt.Lookup(IpV4Address(44, 99, 0, 5));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->interface, &a);
  EXPECT_EQ(rt.Lookup(IpV4Address(10, 0, 0, 1)), nullptr);
}

TEST(RouteTableTest, DefaultRouteCatchesAll) {
  RouteTable rt;
  FakeInterface a("a", 1500);
  rt.AddDefault(IpV4Address(128, 95, 1, 1), &a);
  const Route* r = rt.Lookup(IpV4Address(8, 8, 8, 8));
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->gateway);
  EXPECT_EQ(*r->gateway, IpV4Address(128, 95, 1, 1));
}

TEST(RouteTableTest, RemoveByPrefix) {
  RouteTable rt;
  FakeInterface a("a", 1500);
  rt.AddDirect(IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8), &a);
  EXPECT_EQ(rt.Remove(IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8)), 1u);
  EXPECT_EQ(rt.Lookup(IpV4Address(44, 0, 0, 1)), nullptr);
}

TEST(RouteTableTest, MetricBreaksTies) {
  RouteTable rt;
  FakeInterface a("a", 1500), b("b", 1500);
  rt.AddDirect(IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8), &a, /*metric=*/5);
  rt.AddDirect(IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8), &b, /*metric=*/1);
  EXPECT_EQ(rt.Lookup(IpV4Address(44, 1, 1, 1))->interface, &b);
}

class NetStackTest : public ::testing::Test {
 protected:
  NetStackTest() : stack_(&sim_, "host") {
    auto iface = std::make_unique<FakeInterface>("fake0", 1500);
    iface->Configure(IpV4Address(10, 0, 0, 1), 24);
    iface_ = static_cast<FakeInterface*>(stack_.AddInterface(std::move(iface)));
  }

  Simulator sim_;
  NetStack stack_;
  FakeInterface* iface_;
};

TEST_F(NetStackTest, SendsViaDirectRoute) {
  EXPECT_TRUE(stack_.SendDatagram(IpV4Address(10, 0, 0, 2), 99,
                                 PacketBuf::FromBytes(BytesFromString("hi"))));
  ASSERT_EQ(iface_->sent.size(), 1u);
  EXPECT_EQ(iface_->sent[0].next_hop, IpV4Address(10, 0, 0, 2));
  auto p = Ipv4Header::Decode(iface_->sent[0].dgram);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->header.source, IpV4Address(10, 0, 0, 1));
  EXPECT_EQ(p->payload, BytesFromString("hi"));
}

TEST_F(NetStackTest, NoRouteFails) {
  EXPECT_FALSE(stack_.SendDatagram(IpV4Address(99, 0, 0, 1), 99, PacketBuf()));
  EXPECT_EQ(stack_.ip_stats().no_route, 1u);
}

TEST_F(NetStackTest, GatewayRouteUsesGatewayAsNextHop) {
  stack_.routes().AddDefault(IpV4Address(10, 0, 0, 254), iface_);
  EXPECT_TRUE(stack_.SendDatagram(IpV4Address(8, 8, 8, 8), 99, PacketBuf()));
  ASSERT_EQ(iface_->sent.size(), 1u);
  EXPECT_EQ(iface_->sent[0].next_hop, IpV4Address(10, 0, 0, 254));
}

TEST_F(NetStackTest, DeliversToRegisteredProtocol) {
  Bytes got;
  stack_.RegisterProtocol(99, [&](const Ipv4Header& h, ByteView p, NetInterface*) {
    got.assign(p.begin(), p.end());
  });
  Ipv4Header h;
  h.protocol = 99;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(10, 0, 0, 1);
  iface_->Inject(h.Encode(BytesFromString("payload")));
  sim_.RunAll();
  EXPECT_EQ(got, BytesFromString("payload"));
  EXPECT_EQ(stack_.ip_stats().delivered, 1u);
}

TEST_F(NetStackTest, InputQueueBounded) {
  stack_.set_input_queue_limit(3);
  Ipv4Header h;
  h.protocol = 99;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(10, 0, 0, 1);
  Bytes dgram = h.Encode(Bytes{});
  for (int i = 0; i < 10; ++i) {
    stack_.EnqueueFromDriver(PacketBuf::FromBytes(dgram), iface_);
  }
  EXPECT_EQ(stack_.ip_stats().input_drops, 7u);
  sim_.RunAll();
  EXPECT_EQ(stack_.input_queue_depth(), 0u);
}

TEST_F(NetStackTest, ForwardingDecrementsTtl) {
  auto second = std::make_unique<FakeInterface>("fake1", 1500);
  second->Configure(IpV4Address(20, 0, 0, 1), 24);
  auto* out = static_cast<FakeInterface*>(stack_.AddInterface(std::move(second)));
  stack_.set_forwarding(true);
  Ipv4Header h;
  h.protocol = 99;
  h.ttl = 5;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(20, 0, 0, 9);
  iface_->Inject(h.Encode(BytesFromString("fwd")));
  sim_.RunAll();
  ASSERT_EQ(out->sent.size(), 1u);
  auto p = Ipv4Header::Decode(out->sent[0].dgram);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->header.ttl, 4);
  EXPECT_EQ(stack_.ip_stats().forwarded, 1u);
}

TEST_F(NetStackTest, ForwardingDisabledDropsTransit) {
  Ipv4Header h;
  h.protocol = 99;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(20, 0, 0, 9);
  iface_->Inject(h.Encode(Bytes{}));
  sim_.RunAll();
  EXPECT_EQ(stack_.ip_stats().forwarded, 0u);
}

TEST_F(NetStackTest, TtlExpiryGeneratesIcmp) {
  auto second = std::make_unique<FakeInterface>("fake1", 1500);
  second->Configure(IpV4Address(20, 0, 0, 1), 24);
  stack_.AddInterface(std::move(second));
  stack_.set_forwarding(true);
  Ipv4Header h;
  h.protocol = 99;
  h.ttl = 1;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(20, 0, 0, 9);
  iface_->Inject(h.Encode(Bytes{}));
  sim_.RunAll();
  EXPECT_EQ(stack_.ip_stats().ttl_expired, 1u);
  // The ICMP error went back out the first interface toward the source.
  ASSERT_GE(iface_->sent.size(), 1u);
  auto p = Ipv4Header::Decode(iface_->sent.back().dgram);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->header.protocol, kIpProtoIcmp);
}

TEST_F(NetStackTest, ForwardFilterDrops) {
  auto second = std::make_unique<FakeInterface>("fake1", 1500);
  second->Configure(IpV4Address(20, 0, 0, 1), 24);
  auto* out = static_cast<FakeInterface*>(stack_.AddInterface(std::move(second)));
  stack_.set_forwarding(true);
  stack_.set_forward_filter(
      [](const Ipv4Header&, ByteView, NetInterface*, NetInterface*) {
        return false;
      });
  Ipv4Header h;
  h.protocol = 99;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(20, 0, 0, 9);
  iface_->Inject(h.Encode(Bytes{}));
  sim_.RunAll();
  EXPECT_TRUE(out->sent.empty());
  EXPECT_EQ(stack_.ip_stats().filtered, 1u);
}

TEST_F(NetStackTest, FragmentsWhenExceedingMtu) {
  auto small = std::make_unique<FakeInterface>("small0", 256);
  small->Configure(IpV4Address(30, 0, 0, 1), 24);
  auto* out = static_cast<FakeInterface*>(stack_.AddInterface(std::move(small)));
  Bytes payload(600, 0x77);
  EXPECT_TRUE(stack_.SendDatagram(IpV4Address(30, 0, 0, 2), 99, PacketBuf::FromBytes(payload)));
  ASSERT_EQ(out->sent.size(), 3u);  // 600 bytes over 236-byte chunks
  std::size_t total = 0;
  for (auto& s : out->sent) {
    auto p = Ipv4Header::Decode(s.dgram);
    ASSERT_TRUE(p);
    EXPECT_LE(s.dgram.size(), 256u);
    total += p->payload.size();
  }
  EXPECT_EQ(total, 600u);
  EXPECT_EQ(stack_.ip_stats().fragments_created, 3u);
}

TEST_F(NetStackTest, ReassemblesFragments) {
  Bytes got;
  stack_.RegisterProtocol(99, [&](const Ipv4Header&, ByteView p, NetInterface*) {
    got.assign(p.begin(), p.end());
  });
  Bytes payload(500, 0);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  Ipv4Header h;
  h.protocol = 99;
  h.identification = 77;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(10, 0, 0, 1);
  // Deliver as 3 fragments, out of order.
  auto frag = [&](std::size_t off, std::size_t len, bool mf) {
    Ipv4Header fh = h;
    fh.fragment_offset = static_cast<std::uint16_t>(off / 8);
    fh.more_fragments = mf;
    Bytes chunk(payload.begin() + static_cast<std::ptrdiff_t>(off),
                payload.begin() + static_cast<std::ptrdiff_t>(off + len));
    iface_->Inject(fh.Encode(chunk));
  };
  frag(200, 200, true);
  frag(400, 100, false);
  frag(0, 200, true);
  sim_.RunAll();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stack_.ip_stats().reassembled, 1u);
}

TEST_F(NetStackTest, ReassemblyTimesOutIncomplete) {
  stack_.RegisterProtocol(99, [&](const Ipv4Header&, ByteView, NetInterface*) {
    FAIL() << "incomplete datagram must not be delivered";
  });
  Ipv4Header h;
  h.protocol = 99;
  h.identification = 78;
  h.source = IpV4Address(10, 0, 0, 2);
  h.destination = IpV4Address(10, 0, 0, 1);
  h.more_fragments = true;
  iface_->Inject(h.Encode(Bytes(64, 1)));
  sim_.RunUntil(Seconds(31));
  // A later fragment for another datagram triggers the GC path.
  Ipv4Header h2 = h;
  h2.identification = 79;
  iface_->Inject(h2.Encode(Bytes(64, 2)));
  sim_.RunAll();
  EXPECT_EQ(stack_.ip_stats().reassembly_failures, 1u);
}

TEST_F(NetStackTest, LocalLoopback) {
  Bytes got;
  stack_.RegisterProtocol(99, [&](const Ipv4Header& h, ByteView p, NetInterface*) {
    got.assign(p.begin(), p.end());
  });
  EXPECT_TRUE(stack_.SendDatagram(IpV4Address(10, 0, 0, 1), 99,
                                 PacketBuf::FromBytes(BytesFromString("me"))));
  sim_.RunAll();
  EXPECT_EQ(got, BytesFromString("me"));
  EXPECT_TRUE(iface_->sent.empty());
}

TEST_F(NetStackTest, BroadcastAddressRecognition) {
  EXPECT_TRUE(stack_.IsBroadcastAddress(IpV4Address(10, 0, 0, 255)));
  EXPECT_TRUE(stack_.IsBroadcastAddress(IpV4Address::LimitedBroadcast()));
  EXPECT_FALSE(stack_.IsBroadcastAddress(IpV4Address(10, 0, 1, 255)));
}

}  // namespace
}  // namespace upr
