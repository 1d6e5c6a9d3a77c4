// Edge cases and failure injection across modules: queue overflows, oversize
// frames, mid-transfer resets, node failures, ICMP-driven connection aborts.
#include <gtest/gtest.h>

#include "src/apps/bbs.h"
#include "src/netrom/netrom.h"
#include "src/scenario/testbed.h"

namespace upr {
namespace {

TEST(DriverEdgeTest, SerialBacklogCapDropsOutput) {
  Simulator sim;
  RadioChannel channel(&sim);
  RadioStationConfig cfg;
  cfg.hostname = "pc";
  cfg.callsign = Ax25Address("KD7AA", 0);
  cfg.ip = IpV4Address(44, 24, 0, 10);
  cfg.driver.max_serial_backlog = 512;  // tiny IFQ
  cfg.serial_baud = 1200;               // slow serial: backlog builds fast
  cfg.seed = 1;
  RadioStation pc(&sim, &channel, cfg);
  pc.radio_if()->AddArpEntry(IpV4Address(44, 24, 0, 11), Ax25Address("KD7AB", 0));
  // Burst far more than the backlog can hold.
  for (int i = 0; i < 30; ++i) {
    pc.stack().SendDatagram(IpV4Address(44, 24, 0, 11), 99,
                            PacketBuf::FromBytes(Bytes(200, 0x11)));
  }
  EXPECT_GT(pc.radio_if()->driver_stats().output_drops, 0u);
  EXPECT_GT(pc.radio_if()->stats().odrops, 0u);
  sim.RunUntil(Seconds(120));  // whatever was queued still drains
}

TEST(DriverEdgeTest, OversizeKissFrameDroppedByDecoder) {
  Simulator sim;
  RadioChannel channel(&sim);
  RadioStationConfig a_cfg;
  a_cfg.hostname = "a";
  a_cfg.callsign = Ax25Address("KD7AA", 0);
  a_cfg.ip = IpV4Address(44, 24, 0, 10);
  a_cfg.serial_baud = 1'000'000;  // keep the test fast
  a_cfg.seed = 1;
  RadioStation a(&sim, &channel, a_cfg);
  RadioStationConfig b_cfg = a_cfg;
  b_cfg.hostname = "b";
  b_cfg.callsign = Ax25Address("KD7AB", 0);
  b_cfg.ip = IpV4Address(44, 24, 0, 11);
  b_cfg.seed = 2;
  RadioStation b(&sim, &channel, b_cfg);
  // A KISS stream exceeding the 4096-byte decoder cap, fed straight up B's
  // serial line (a broken or hostile TNC); the driver must drop and resync.
  // (Sent over the air it would already be dropped by the sending TNC's own
  // KISS decoder — defense at both layers.)
  Ax25Frame huge = Ax25Frame::MakeUi(b.callsign(), a.callsign(), kPidNoLayer3,
                                     Bytes(6000, 0x22));
  b.serial().b().Write(KissEncodeData(huge.Encode()));
  sim.RunUntil(Seconds(120));
  EXPECT_EQ(b.radio_if()->kiss_decoder().oversize_drops(), 1u);
  EXPECT_EQ(b.radio_if()->driver_stats().frames_in, 0u);
  // The decoder resynchronizes: a normal frame still arrives over the air.
  a.radio_if()->SendRawFrame(
      Ax25Frame::MakeUi(b.callsign(), a.callsign(), kPidNoLayer3, Bytes{1}));
  sim.RunUntil(Seconds(240));
  EXPECT_EQ(b.radio_if()->driver_stats().frames_in, 1u);
}

TEST(TcpEdgeTest, HalfCloseStillDeliversServerData) {
  TestbedConfig cfg;
  cfg.radio_pcs = 0;
  cfg.ether_hosts = 2;
  Testbed tb(cfg);
  Bytes client_got;
  TcpConnection* server = nullptr;
  tb.host(0).tcp().Listen(23, [&](TcpConnection* c) { server = c; });
  TcpConnection* client = tb.host(1).tcp().Connect(Testbed::EtherHostIp(0), 23);
  ASSERT_NE(client, nullptr);
  client->set_data_handler([&](const Bytes& d) {
    client_got.insert(client_got.end(), d.begin(), d.end());
  });
  client->set_connected_handler([&] { client->Close(); });  // client half-closes
  tb.sim().RunUntil(Seconds(5));
  ASSERT_NE(server, nullptr);
  // Server sends after seeing the client's FIN.
  server->Send(BytesFromString("late data"));
  server->Close();
  tb.sim().RunUntil(Seconds(30));
  EXPECT_EQ(client_got, BytesFromString("late data"));
  EXPECT_EQ(server->state(), TcpState::kClosed);
}

TEST(TcpEdgeTest, SendAfterCloseRefused) {
  TestbedConfig cfg;
  cfg.radio_pcs = 0;
  cfg.ether_hosts = 2;
  Testbed tb(cfg);
  tb.host(0).tcp().Listen(23, [](TcpConnection*) {});
  TcpConnection* client = tb.host(1).tcp().Connect(Testbed::EtherHostIp(0), 23);
  tb.sim().RunUntil(Seconds(5));
  client->Close();
  EXPECT_EQ(client->Send(Bytes{1, 2, 3}), 0u);
}

TEST(TcpEdgeTest, ReapClosedReleasesConnections) {
  TestbedConfig cfg;
  cfg.radio_pcs = 0;
  cfg.ether_hosts = 2;
  cfg.tcp.time_wait = Seconds(5);
  Testbed tb(cfg);
  tb.host(0).tcp().Listen(23, [](TcpConnection* c) {
    c->set_remote_closed_handler([c] { c->Close(); });
  });
  for (int i = 0; i < 5; ++i) {
    TcpConnection* client = tb.host(1).tcp().Connect(Testbed::EtherHostIp(0), 23);
    ASSERT_NE(client, nullptr);
    client->set_connected_handler([client] { client->Close(); });
    tb.sim().RunUntil(tb.sim().Now() + Seconds(30));
  }
  tb.host(0).tcp().ReapClosed();
  tb.host(1).tcp().ReapClosed();
  EXPECT_EQ(tb.host(0).tcp().connection_count(), 0u);
  EXPECT_EQ(tb.host(1).tcp().connection_count(), 0u);
}

TEST(TcpEdgeTest, IcmpAdminProhibitedAbortsConnection) {
  // §4.3 + BSD semantics: when the gateway refuses traffic and says so via
  // ICMP, the wire-side TCP gives up immediately instead of retrying for
  // minutes.
  TestbedConfig cfg;
  cfg.radio_pcs = 1;
  cfg.ether_hosts = 1;
  cfg.radio_bit_rate = 9600;
  cfg.enforce_access_control = true;
  Testbed tb2(cfg);
  tb2.PopulateRadioArp();
  tb2.pc(0).tcp().Listen(23, [](TcpConnection*) {});
  TcpConnection* client = tb2.host(0).tcp().Connect(Testbed::RadioPcIp(0), 23);
  ASSERT_NE(client, nullptr);
  tb2.sim().RunUntil(Seconds(2));
  // The gateway denied the SYN silently (send_prohibited_icmp is off by
  // default, matching the era); forge the ICMP a modern gateway would send
  // and verify the TCP-side handling.
  // Forge the gateway's prohibited message about the client's SYN.
  Ipv4Header orig;
  orig.protocol = kIpProtoTcp;
  orig.source = Testbed::EtherHostIp(0);
  orig.destination = Testbed::RadioPcIp(0);
  Bytes tcp_start;
  ByteWriter w(&tcp_start);
  w.WriteU16(client->local_port());
  w.WriteU16(23);
  w.WriteU32(0);
  IcmpMessage msg;
  msg.type = kIcmpUnreachable;
  msg.code = kUnreachAdminProhibited;
  ByteWriter bw(&msg.body);
  bw.WriteU32(0);
  bw.WriteBytes(orig.Encode(tcp_start));
  std::string error;
  client->set_error_handler([&](const std::string& e) { error = e; });
  tb2.gateway().stack().SendDatagram(Testbed::EtherHostIp(0), kIpProtoIcmp,
                                     PacketBuf::FromBytes(msg.Encode()));
  tb2.sim().RunUntil(tb2.sim().Now() + Seconds(10));
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_NE(error.find("unreachable"), std::string::npos);
}

TEST(LapbEdgeTest, PeerResetMidTransferKeepsLinkUsable) {
  Simulator sim;
  Ax25LinkConfig cfg;
  cfg.t1 = Seconds(2);
  std::unique_ptr<Ax25Link> a, b;
  a = std::make_unique<Ax25Link>(&sim, Ax25Address("AAA", 0),
                                 [&](const Ax25Frame& f) {
                                   sim.Schedule(Milliseconds(50),
                                                [&, f] { b->HandleFrame(f); });
                                 },
                                 cfg);
  b = std::make_unique<Ax25Link>(&sim, Ax25Address("BBB", 0),
                                 [&](const Ax25Frame& f) {
                                   sim.Schedule(Milliseconds(50),
                                                [&, f] { a->HandleFrame(f); });
                                 },
                                 cfg);
  b->set_accept_handler([](const Ax25Address&) { return true; });
  Bytes received;
  Ax25Connection* server = nullptr;
  b->set_connection_handler([&](Ax25Connection* c) {
    server = c;
    c->set_data_handler([&](const Bytes& d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  Ax25Connection* conn = a->Connect(Ax25Address("BBB", 0));
  conn->Send(BytesFromString("first"));
  sim.RunUntil(Seconds(20));
  ASSERT_EQ(received, BytesFromString("first"));
  // A re-connects (link reset via new SABM) and sends again.
  conn->Disconnect();
  sim.RunUntil(Seconds(40));
  conn = a->Connect(Ax25Address("BBB", 0));
  conn->Send(BytesFromString("second"));
  sim.RunUntil(Seconds(80));
  EXPECT_EQ(received, BytesFromString("firstsecond"));
}

TEST(NetRomEdgeTest, DeadRelayRoutesAgeOut) {
  Simulator sim;
  RadioChannelConfig rc;
  rc.bit_rate = 9600;
  RadioChannel channel(&sim, rc, 5);
  std::vector<std::unique_ptr<RadioStation>> stations;
  std::vector<std::unique_ptr<NetRomNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    RadioStationConfig c;
    c.hostname = "n" + std::to_string(i);
    c.callsign = Ax25Address("ND" + std::to_string(i), 0);
    c.ip = IpV4Address(44, 24, 5, static_cast<std::uint8_t>(10 + i));
    c.seed = 900 + static_cast<std::uint64_t>(i);
    stations.push_back(std::make_unique<RadioStation>(&sim, &channel, c));
    NetRomConfig nc;
    nc.learn_neighbors = false;
    nc.nodes_interval = Seconds(60);
    nc.initial_obsolescence = 3;
    nodes.push_back(std::make_unique<NetRomNode>(&sim, stations.back()->radio_if(), nc));
  }
  nodes[0]->AddNeighbor(nodes[1]->callsign(), 200);
  nodes[1]->AddNeighbor(nodes[0]->callsign(), 200);
  nodes[1]->AddNeighbor(nodes[2]->callsign(), 200);
  nodes[2]->AddNeighbor(nodes[1]->callsign(), 200);
  // Converge.
  sim.RunUntil(Seconds(60 * 5));
  ASSERT_TRUE(nodes[0]->RouteTo(nodes[2]->callsign()));
  // Kill the relay: node 0's learned route to node 2 must age out (the route
  // to node 1 itself is pinned as a static neighbor).
  nodes[1]->set_enabled(false);
  sim.RunUntil(Seconds(60 * 15));
  EXPECT_FALSE(nodes[0]->RouteTo(nodes[2]->callsign()));
  // Bring it back: routes re-learn.
  nodes[1]->set_enabled(true);
  sim.RunUntil(Seconds(60 * 25));
  EXPECT_TRUE(nodes[0]->RouteTo(nodes[2]->callsign()));
}

TEST(BbsEdgeTest, UnknownCommandAndBadReadHandled) {
  Simulator sim;
  RadioChannelConfig rc;
  rc.bit_rate = 9600;
  RadioChannel channel(&sim, rc, 6);
  RadioStationConfig c;
  c.hostname = "bbs";
  c.callsign = Ax25Address("W7BBS", 0);
  c.ip = IpV4Address(44, 24, 6, 1);
  c.seed = 1;
  RadioStation bbs_station(&sim, &channel, c);
  c.hostname = "user";
  c.callsign = Ax25Address("KD7NM", 0);
  c.ip = IpV4Address(44, 24, 6, 2);
  c.seed = 2;
  RadioStation user_station(&sim, &channel, c);
  auto bbs_link = BindAx25LinkToDriver(&sim, bbs_station.radio_if());
  auto user_link = BindAx25LinkToDriver(&sim, user_station.radio_if());
  Ax25Bbs bbs(bbs_link.get(), "[test]");
  BbsTerminal term(user_link.get(), Ax25Address("W7BBS", 0));
  sim.RunUntil(Seconds(60));
  ASSERT_TRUE(term.connected());
  term.SendLine("X");       // unknown
  term.SendLine("R 99");    // out of range
  term.SendLine("S");       // malformed send
  sim.RunUntil(Seconds(300));
  auto saw = [&](const std::string& needle) {
    for (const auto& line : term.transcript()) {
      if (line.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(saw("?"));
  EXPECT_TRUE(saw("No such message"));
  EXPECT_TRUE(saw("Usage: S"));
  EXPECT_TRUE(term.connected());
}

}  // namespace
}  // namespace upr
