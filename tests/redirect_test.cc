// §4.2 extension tests: "most systems will maintain only a single route for
// [AMPRnet]. All packets destined for AMPRnet ... must pass through a single
// gateway. This is not desirable since a packet destined for 44.24.0.5
// should be sent to a West Coast gateway ... whereas a packet destined for
// 44.56.0.5 should be sent to an East Coast gateway. It is conceivable that
// something like this could be handled using [ICMP], but at this time, no
// mechanism is in place."
//
// We put the mechanism in place: hairpin forwarding emits an ICMP host
// redirect and hosts install /32 routes. The two "coasts" are two radio
// channels hanging off two gateways on one Ethernet.
#include <gtest/gtest.h>

#include "src/scenario/testbed.h"

namespace upr {
namespace {

class TwoGatewayFixture : public ::testing::Test {
 protected:
  TwoGatewayFixture() {
    ether_ = std::make_unique<EtherSegment>(&sim_);
    west_channel_ = std::make_unique<RadioChannel>(&sim_, RadioChannelConfig{}, 1);
    east_channel_ = std::make_unique<RadioChannel>(&sim_, RadioChannelConfig{}, 2);

    GatewayHostConfig west;
    west.hostname = "west-gw";
    west.callsign = Ax25Address("N7GWA", 1);
    west.radio_ip = IpV4Address(44, 24, 0, 28);
    west.radio_prefix_len = 16;
    west.ether_ip = IpV4Address(128, 95, 1, 1);
    west.mac_index = 1;
    west.gateway.enforce_access_control = false;
    west.seed = 31;
    west_gw_ = std::make_unique<GatewayHost>(&sim_, west_channel_.get(), ether_.get(),
                                             west);

    GatewayHostConfig east = west;
    east.hostname = "east-gw";
    east.callsign = Ax25Address("W1GWB", 1);
    east.radio_ip = IpV4Address(44, 56, 0, 28);
    east.ether_ip = IpV4Address(128, 95, 1, 2);
    east.mac_index = 2;
    east.seed = 32;
    east_gw_ = std::make_unique<GatewayHost>(&sim_, east_channel_.get(), ether_.get(),
                                             east);

    // Inter-gateway routes over the Ethernet.
    west_gw_->stack().routes().AddVia(IpV4Prefix::FromCidr(IpV4Address(44, 56, 0, 0), 16),
                                      east.ether_ip, west_gw_->ether_if());
    east_gw_->stack().routes().AddVia(IpV4Prefix::FromCidr(IpV4Address(44, 24, 0, 0), 16),
                                      west.ether_ip, east_gw_->ether_if());

    // One PC on each coast.
    RadioStationConfig pc;
    pc.hostname = "pc-west";
    pc.callsign = Ax25Address("KD7WW", 0);
    pc.ip = IpV4Address(44, 24, 0, 10);
    pc.prefix_len = 16;
    pc.seed = 41;
    west_pc_ = std::make_unique<RadioStation>(&sim_, west_channel_.get(), pc);
    west_pc_->stack().routes().AddDefault(west.radio_ip, west_pc_->radio_if());
    west_pc_->radio_if()->AddArpEntry(west.radio_ip, west.callsign);
    west_gw_->radio_if()->AddArpEntry(pc.ip, pc.callsign);

    pc.hostname = "pc-east";
    pc.callsign = Ax25Address("W1EE", 0);
    pc.ip = IpV4Address(44, 56, 0, 5);
    pc.seed = 42;
    east_pc_ = std::make_unique<RadioStation>(&sim_, east_channel_.get(), pc);
    east_pc_->stack().routes().AddDefault(east.radio_ip, east_pc_->radio_if());
    east_pc_->radio_if()->AddArpEntry(east.radio_ip, east.callsign);
    east_gw_->radio_if()->AddArpEntry(pc.ip, pc.callsign);

    // The Internet host with the single route for net 44 (via the west
    // gateway — §4.2's premise).
    EtherHostConfig h;
    h.hostname = "june";
    h.ip = IpV4Address(128, 95, 1, 10);
    h.mac_index = 9;
    h.seed = 43;
    host_ = std::make_unique<EtherHost>(&sim_, ether_.get(), h);
    host_->stack().routes().AddVia(IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8),
                                   west.ether_ip, host_->ether_if());
  }

  std::optional<SimTime> Ping(IpV4Address dst) {
    std::optional<SimTime> result;
    bool done = false;
    host_->stack().icmp().Ping(dst, 16,
                               [&](bool ok, SimTime rtt) {
                                 done = true;
                                 if (ok) {
                                   result = rtt;
                                 }
                               },
                               Seconds(120));
    sim_.RunUntil(sim_.Now() + Seconds(180), [&] { return done; });
    return result;
  }

  Simulator sim_;
  std::unique_ptr<EtherSegment> ether_;
  std::unique_ptr<RadioChannel> west_channel_;
  std::unique_ptr<RadioChannel> east_channel_;
  std::unique_ptr<GatewayHost> west_gw_;
  std::unique_ptr<GatewayHost> east_gw_;
  std::unique_ptr<RadioStation> west_pc_;
  std::unique_ptr<RadioStation> east_pc_;
  std::unique_ptr<EtherHost> host_;
};

TEST_F(TwoGatewayFixture, WestCoastTrafficNeedsNoRedirect) {
  ASSERT_TRUE(Ping(IpV4Address(44, 24, 0, 10)).has_value());
  EXPECT_EQ(west_gw_->stack().icmp().redirects_sent(), 0u);
}

TEST_F(TwoGatewayFixture, EastCoastTrafficTriggersRedirect) {
  std::size_t routes_before = host_->stack().routes().size();
  // First ping hairpins through the west gateway (two Ethernet crossings).
  ASSERT_TRUE(Ping(IpV4Address(44, 56, 0, 5)).has_value());
  EXPECT_EQ(west_gw_->stack().icmp().redirects_sent(), 1u);
  EXPECT_EQ(host_->stack().icmp().redirects_accepted(), 1u);
  EXPECT_EQ(host_->stack().routes().size(), routes_before + 1);

  // The installed /32 points at the east gateway.
  const Route* r = host_->stack().routes().Lookup(IpV4Address(44, 56, 0, 5));
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->gateway.has_value());
  EXPECT_EQ(*r->gateway, IpV4Address(128, 95, 1, 2));

  // Second ping bypasses the west gateway entirely.
  std::uint64_t west_forwarded = west_gw_->stack().ip_stats().forwarded;
  ASSERT_TRUE(Ping(IpV4Address(44, 56, 0, 5)).has_value());
  EXPECT_EQ(west_gw_->stack().ip_stats().forwarded, west_forwarded);
  // And no further redirects are needed.
  EXPECT_EQ(west_gw_->stack().icmp().redirects_sent(), 1u);
}

TEST_F(TwoGatewayFixture, RedirectFromWrongSourceIgnored) {
  // A forged redirect from a non-first-hop must not install a route.
  ASSERT_TRUE(Ping(IpV4Address(44, 24, 0, 10)).has_value());
  std::size_t routes_before = host_->stack().routes().size();
  IcmpMessage msg;
  msg.type = kIcmpRedirect;
  msg.code = kRedirectHost;
  ByteWriter w(&msg.body);
  w.WriteU32(IpV4Address(128, 95, 1, 66).value());
  Ipv4Header orig;
  orig.protocol = kIpProtoIcmp;
  orig.source = host_->ip();
  orig.destination = IpV4Address(44, 24, 0, 10);
  w.WriteBytes(orig.Encode(Bytes{}));
  // Deliver as if from the east gateway (not the host's first hop for 44/8).
  east_gw_->stack().SendDatagram(host_->ip(), kIpProtoIcmp,
                                 PacketBuf::FromBytes(msg.Encode()));
  sim_.RunUntil(sim_.Now() + Seconds(10));
  EXPECT_EQ(host_->stack().routes().size(), routes_before);
  EXPECT_EQ(host_->stack().icmp().redirects_accepted(), 0u);
}

TEST_F(TwoGatewayFixture, GatewaysIgnoreRedirects) {
  // A (legitimate-looking) redirect aimed at a forwarding stack is ignored.
  ASSERT_TRUE(Ping(IpV4Address(44, 56, 0, 5)).has_value());
  std::size_t before = west_gw_->stack().routes().size();
  IcmpMessage msg;
  msg.type = kIcmpRedirect;
  msg.code = kRedirectHost;
  ByteWriter w(&msg.body);
  w.WriteU32(IpV4Address(128, 95, 1, 10).value());
  Ipv4Header orig;
  orig.protocol = kIpProtoIcmp;
  orig.source = west_gw_->config().ether_ip;
  orig.destination = IpV4Address(44, 56, 0, 5);
  w.WriteBytes(orig.Encode(Bytes{}));
  east_gw_->stack().SendDatagram(west_gw_->config().ether_ip, kIpProtoIcmp,
                                 PacketBuf::FromBytes(msg.Encode()));
  sim_.RunUntil(sim_.Now() + Seconds(10));
  EXPECT_EQ(west_gw_->stack().routes().size(), before);
}

TEST_F(TwoGatewayFixture, DisabledRedirectsKeepHairpinning) {
  west_gw_->stack().set_send_redirects(false);
  ASSERT_TRUE(Ping(IpV4Address(44, 56, 0, 5)).has_value());
  std::uint64_t west_forwarded = west_gw_->stack().ip_stats().forwarded;
  ASSERT_TRUE(Ping(IpV4Address(44, 56, 0, 5)).has_value());
  // Without redirects the west gateway keeps relaying every packet.
  EXPECT_GT(west_gw_->stack().ip_stats().forwarded, west_forwarded);
  EXPECT_EQ(host_->stack().icmp().redirects_accepted(), 0u);
}

TEST_F(TwoGatewayFixture, EastPcReachableBothWays) {
  // End-to-end sanity both directions after redirect.
  ASSERT_TRUE(Ping(IpV4Address(44, 56, 0, 5)).has_value());
  bool ok = false;
  east_pc_->stack().icmp().Ping(host_->ip(), 16,
                                [&](bool success, SimTime) { ok = success; },
                                Seconds(120));
  sim_.RunUntil(sim_.Now() + Seconds(180));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace upr
