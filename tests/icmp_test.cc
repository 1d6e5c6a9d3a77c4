#include <gtest/gtest.h>

#include "src/ether/ethernet.h"
#include "src/net/icmp.h"
#include "src/net/netstack.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

TEST(IcmpMessageTest, EncodeDecodeRoundTrip) {
  IcmpMessage m;
  m.type = kIcmpEchoRequest;
  m.code = 0;
  m.body = BytesFromString("abcd1234");
  auto d = IcmpMessage::Decode(m.Encode());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->type, kIcmpEchoRequest);
  EXPECT_EQ(d->body, m.body);
}

TEST(IcmpMessageTest, ChecksumRejectsCorruption) {
  IcmpMessage m;
  m.type = kIcmpEchoReply;
  m.body = Bytes{1, 2, 3, 4};
  Bytes wire = m.Encode();
  wire[5] ^= 0x40;
  EXPECT_FALSE(IcmpMessage::Decode(wire));
  EXPECT_FALSE(IcmpMessage::Decode(Bytes{1, 2}));
}

TEST(GatewayControlBodyTest, RoundTrip) {
  GatewayControlBody g;
  g.amateur_host = IpV4Address(44, 24, 0, 10);
  g.non_amateur_host = IpV4Address(128, 95, 1, 4);
  g.ttl_seconds = 3600;
  g.callsign = "N7AKR";
  g.password = "secret!";
  auto d = GatewayControlBody::Decode(g.Encode());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->amateur_host, g.amateur_host);
  EXPECT_EQ(d->non_amateur_host, g.non_amateur_host);
  EXPECT_EQ(d->ttl_seconds, 3600u);
  EXPECT_EQ(d->callsign, "N7AKR");
  EXPECT_EQ(d->password, "secret!");
}

TEST(GatewayControlBodyTest, RejectsTruncated) {
  GatewayControlBody g;
  g.callsign = "N7AKR";
  Bytes wire = g.Encode();
  wire.pop_back();
  wire.pop_back();
  EXPECT_FALSE(GatewayControlBody::Decode(wire));
}

class IcmpLanTest : public ::testing::Test {
 protected:
  IcmpLanTest() : segment_(&sim_), a_(&sim_, "a"), b_(&sim_, "b") {
    auto ia = std::make_unique<EthernetInterface>(&segment_, "qe0",
                                                  EtherAddr::FromIndex(1));
    ia->Configure(IpV4Address(10, 0, 0, 1), 24);
    a_.AddInterface(std::move(ia));
    auto ib = std::make_unique<EthernetInterface>(&segment_, "qe0",
                                                  EtherAddr::FromIndex(2));
    ib->Configure(IpV4Address(10, 0, 0, 2), 24);
    b_.AddInterface(std::move(ib));
  }

  Simulator sim_;
  EtherSegment segment_;
  NetStack a_;
  NetStack b_;
};

TEST_F(IcmpLanTest, PingTimesOutWhenTargetMissing) {
  bool called = false, ok = true;
  a_.icmp().Ping(IpV4Address(10, 0, 0, 99), 0,
                 [&](bool success, SimTime) {
                   called = true;
                   ok = success;
                 },
                 Seconds(10));
  sim_.RunUntil(Seconds(30));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST_F(IcmpLanTest, PingFailsImmediatelyWithoutRoute) {
  bool called = false, ok = true;
  a_.icmp().Ping(IpV4Address(99, 0, 0, 1), 0, [&](bool success, SimTime) {
    called = true;
    ok = success;
  });
  sim_.RunAll();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST_F(IcmpLanTest, ProtocolUnreachableGenerated) {
  // B has no handler for protocol 123.
  bool got_error = false;
  a_.icmp().set_error_handler([&](const Ipv4Header&, const IcmpMessage& msg) {
    EXPECT_EQ(msg.type, kIcmpUnreachable);
    EXPECT_EQ(msg.code, kUnreachProtocol);
    got_error = true;
  });
  a_.SendDatagram(IpV4Address(10, 0, 0, 2), 123, PacketBuf::FromBytes(BytesFromString("?")));
  sim_.RunUntil(Seconds(5));
  EXPECT_TRUE(got_error);
  EXPECT_EQ(b_.icmp().errors_sent(), 1u);
}

TEST_F(IcmpLanTest, ErrorBodyCarriesOriginalHeader) {
  a_.icmp().set_error_handler([&](const Ipv4Header&, const IcmpMessage& msg) {
    // Skip 4 unused bytes, then the embedded original IP header.
    ASSERT_GE(msg.body.size(), 24u);
    Bytes inner(msg.body.begin() + 4, msg.body.end());
    auto parsed = Ipv4Header::Decode(inner);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->header.protocol, 123);
    EXPECT_EQ(parsed->header.destination, IpV4Address(10, 0, 0, 2));
  });
  a_.SendDatagram(IpV4Address(10, 0, 0, 2), 123, PacketBuf::FromBytes(BytesFromString("12345678")));
  sim_.RunUntil(Seconds(5));
}

TEST_F(IcmpLanTest, NoErrorAboutIcmpError) {
  // Force b to receive a malformed-protocol datagram *from* an ICMP error:
  // i.e., error messages must not beget errors. Simulate by sending an
  // unreachable to a host with no protocol 1... actually protocol 1 always
  // registered; instead verify errors_sent stays at 1 after an exchange that
  // would loop if unguarded.
  a_.SendDatagram(IpV4Address(10, 0, 0, 2), 123, PacketBuf());
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(b_.icmp().errors_sent(), 1u);
  EXPECT_EQ(a_.icmp().errors_sent(), 0u);
}

TEST_F(IcmpLanTest, CustomTypeHandlerInvoked) {
  bool handled = false;
  b_.icmp().RegisterTypeHandler(
      kIcmpGatewayControl,
      [&](const Ipv4Header&, const IcmpMessage& msg, NetInterface*) {
        EXPECT_EQ(msg.code, kGwCtlAuthorize);
        handled = true;
      });
  GatewayControlBody body;
  body.amateur_host = IpV4Address(44, 24, 0, 10);
  body.non_amateur_host = IpV4Address(10, 0, 0, 1);
  body.ttl_seconds = 60;
  a_.icmp().SendGatewayControl(IpV4Address(10, 0, 0, 2), kGwCtlAuthorize, body);
  sim_.RunUntil(Seconds(5));
  EXPECT_TRUE(handled);
}

TEST_F(IcmpLanTest, PingPayloadSizeEchoedBack) {
  bool ok = false;
  a_.icmp().Ping(IpV4Address(10, 0, 0, 2), 1000, [&](bool success, SimTime) {
    ok = success;
  });
  sim_.RunUntil(Seconds(5));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace upr
