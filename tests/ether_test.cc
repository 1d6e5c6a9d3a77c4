#include <gtest/gtest.h>

#include "src/ether/ethernet.h"
#include "src/net/netstack.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

// Two hosts on one segment, full stacks.
class EtherTest : public ::testing::Test {
 protected:
  EtherTest()
      : segment_(&sim_), a_(&sim_, "a"), b_(&sim_, "b") {
    auto ia = std::make_unique<EthernetInterface>(&segment_, "qe0",
                                                  EtherAddr::FromIndex(1));
    ia->Configure(IpV4Address(128, 95, 1, 1), 24);
    a_if_ = static_cast<EthernetInterface*>(a_.AddInterface(std::move(ia)));
    auto ib = std::make_unique<EthernetInterface>(&segment_, "qe0",
                                                  EtherAddr::FromIndex(2));
    ib->Configure(IpV4Address(128, 95, 1, 2), 24);
    b_if_ = static_cast<EthernetInterface*>(b_.AddInterface(std::move(ib)));
  }

  Simulator sim_;
  EtherSegment segment_;
  NetStack a_;
  NetStack b_;
  EthernetInterface* a_if_;
  EthernetInterface* b_if_;
};

TEST_F(EtherTest, DatagramDeliveredWithArp) {
  Bytes got;
  b_.RegisterProtocol(99, [&](const Ipv4Header&, ByteView p, NetInterface*) {
    got.assign(p.begin(), p.end());
  });
  EXPECT_TRUE(a_.SendDatagram(IpV4Address(128, 95, 1, 2), 99,
                              PacketBuf::FromBytes(BytesFromString("lan"))));
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(got, BytesFromString("lan"));
  EXPECT_EQ(a_if_->arp().requests_sent(), 1u);
  EXPECT_EQ(b_if_->stats().ipackets, 1u);
}

TEST_F(EtherTest, MacFilterDropsForeignFrames) {
  NetStack c(&sim_, "c");
  auto ic = std::make_unique<EthernetInterface>(&segment_, "qe0",
                                                EtherAddr::FromIndex(3));
  ic->Configure(IpV4Address(128, 95, 1, 3), 24);
  auto* c_if = static_cast<EthernetInterface*>(c.AddInterface(std::move(ic)));
  b_.RegisterProtocol(99, [](const Ipv4Header&, ByteView, NetInterface*) {});
  a_.SendDatagram(IpV4Address(128, 95, 1, 2), 99, PacketBuf::FromBytes(Bytes{1}));
  sim_.RunUntil(Seconds(5));
  // C heard the broadcast ARP request but not the unicast IP frame.
  EXPECT_EQ(c_if->stats().ipackets, 0u);
}

TEST_F(EtherTest, RoundTripLatencyIsLanScale) {
  Bytes payload(1000, 0);
  bool replied = false;
  SimTime rtt = 0;
  b_.RegisterProtocol(99, [&](const Ipv4Header& h, ByteView p, NetInterface*) {
    b_.SendDatagram(h.source, 99, PacketBuf::FromView(p));
  });
  a_.RegisterProtocol(99, [&](const Ipv4Header&, ByteView, NetInterface*) {
    replied = true;
    rtt = sim_.Now();
  });
  SimTime t0 = sim_.Now();
  a_.SendDatagram(IpV4Address(128, 95, 1, 2), 99, PacketBuf::FromBytes(payload));
  sim_.RunUntil(Seconds(5));
  ASSERT_TRUE(replied);
  // ~1 KB each way at 10 Mb/s plus ARP: well under 10 ms.
  EXPECT_LT(rtt - t0, Milliseconds(10));
}

TEST_F(EtherTest, PingOverEthernet) {
  bool ok = false;
  SimTime rtt = 0;
  a_.icmp().Ping(IpV4Address(128, 95, 1, 2), 56, [&](bool success, SimTime t) {
    ok = success;
    rtt = t;
  });
  sim_.RunUntil(Seconds(5));
  EXPECT_TRUE(ok);
  EXPECT_GT(rtt, 0);
  EXPECT_LT(rtt, Milliseconds(10));
  EXPECT_EQ(b_.icmp().echoes_answered(), 1u);
}

TEST_F(EtherTest, InterfaceDownStopsTraffic) {
  b_.RegisterProtocol(99, [](const Ipv4Header&, ByteView, NetInterface*) {
    FAIL() << "interface down must not deliver";
  });
  b_if_->SetUp(false);
  a_.SendDatagram(IpV4Address(128, 95, 1, 2), 99, PacketBuf::FromBytes(Bytes{1}));
  sim_.RunUntil(Seconds(30));
}

}  // namespace
}  // namespace upr
