// IP-over-AX.25 virtual circuits (KA9Q VC mode): the connected-mode
// alternative to the paper's UI-datagram encapsulation.
#include <gtest/gtest.h>

#include "src/driver/vc_ip_interface.h"
#include "src/scenario/vc_station.h"

namespace upr {
namespace {

// Two stations whose IP runs over AX.25 circuits instead of UI frames.
class VcPair : public ::testing::Test {
 protected:
  void Build(double loss) {
    RadioChannelConfig rc;
    rc.bit_rate = 9600;
    rc.loss_rate = loss;
    channel_ = std::make_unique<RadioChannel>(&sim_, rc, 33);
    a_ = MakeStation("a", "KD7AA", IpV4Address(44, 24, 11, 1), 1);
    b_ = MakeStation("b", "KD7AB", IpV4Address(44, 24, 11, 2), 2);
    a_->vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 2), Ax25Address("KD7AB", 0));
    b_->vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 1), Ax25Address("KD7AA", 0));
  }

  std::unique_ptr<VcStation> MakeStation(const std::string& name, const std::string& call,
                                         IpV4Address ip, std::uint64_t seed) {
    VcStationConfig cfg;
    cfg.name = name;
    cfg.callsign = call;
    cfg.ip = ip;
    cfg.link.t1 = Seconds(6);
    cfg.link.n2 = 30;
    cfg.mac = MacParams{};  // stock KISS turnaround (30 ms)
    cfg.seed = seed;
    return std::make_unique<VcStation>(&sim_, channel_.get(), cfg);
  }

  Simulator sim_;
  std::unique_ptr<RadioChannel> channel_;
  std::unique_ptr<VcStation> a_;
  std::unique_ptr<VcStation> b_;
};

TEST_F(VcPair, PingOverCircuit) {
  Build(0.0);
  bool ok = false;
  a_->stack().icmp().Ping(IpV4Address(44, 24, 11, 2), 32,
                         [&](bool success, SimTime) { ok = success; }, Seconds(120));
  sim_.RunUntil(Seconds(240));
  EXPECT_TRUE(ok);
  EXPECT_EQ(a_->vc()->circuits_opened(), 1u);
  EXPECT_GE(b_->vc()->datagrams_reassembled(), 1u);
  EXPECT_EQ(a_->vc()->framing_errors(), 0u);
}

TEST_F(VcPair, SecondDatagramReusesCircuit) {
  Build(0.0);
  int replies = 0;
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    a_->stack().icmp().Ping(IpV4Address(44, 24, 11, 2), 32,
                           [&](bool success, SimTime) {
                             done = true;
                             if (success) {
                               ++replies;
                             }
                           },
                           Seconds(120));
    sim_.RunUntil(sim_.Now() + Seconds(180), [&] { return done; });
  }
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(a_->vc()->circuits_opened(), 1u);  // one SABM for the whole session
}

TEST_F(VcPair, BackToBackDatagramsResplitCorrectly) {
  Build(0.0);
  // Two datagrams larger than PACLEN, queued before the circuit opens: the
  // stream framing must recover both boundaries.
  Bytes got1, got2;
  int count = 0;
  b_->stack().RegisterProtocol(99, [&](const Ipv4Header&, ByteView p, NetInterface*) {
    (count++ == 0 ? got1 : got2).assign(p.begin(), p.end());
  });
  Bytes p1(180, 0x11), p2(150, 0x22);
  a_->stack().SendDatagram(IpV4Address(44, 24, 11, 2), 99, PacketBuf::FromBytes(p1));
  a_->stack().SendDatagram(IpV4Address(44, 24, 11, 2), 99, PacketBuf::FromBytes(p2));
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(got1, p1);
  EXPECT_EQ(got2, p2);
  EXPECT_EQ(b_->vc()->datagrams_reassembled(), 2u);
}

TEST_F(VcPair, LinkLayerArqAbsorbsLoss) {
  Build(0.25);  // one frame in four dies
  Bytes received;
  Bytes payload(3000, 0x5C);
  b_->tcp().Listen(23, [&](TcpConnection* c) {
    c->set_data_handler([&](const Bytes& d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  TcpConnection* conn = a_->tcp().Connect(IpV4Address(44, 24, 11, 2), 23);
  ASSERT_NE(conn, nullptr);
  conn->set_connected_handler([&, conn] { conn->Send(payload); });
  sim_.RunUntil(Seconds(3600));
  EXPECT_EQ(received, payload);
  // The link layer did the heavy lifting: every lost frame was recovered by
  // AX.25 ARQ (resent I frames), and the stream TCP saw was lossless — its
  // remaining retransmissions are timer races against slow link recovery
  // (the classic VC-mode gotcha: two ARQ layers with competing timers), not
  // actual data loss. The X5 bench quantifies UI vs VC head to head.
  Ax25Connection* circuit =
      a_->vc()->link().FindConnection(*Ax25Address::Parse("KD7AB"));
  ASSERT_NE(circuit, nullptr);
  EXPECT_GT(circuit->i_frames_resent(), 0u);
  EXPECT_LT(conn->stats().retransmissions, 15u);
}

TEST_F(VcPair, UnmappedNextHopCountsError) {
  Build(0.0);
  a_->stack().SendDatagram(IpV4Address(44, 24, 11, 99), 99, PacketBuf::FromBytes(Bytes{1}));
  // Routed via vc0 (direct subnet) but no callsign mapping exists.
  EXPECT_GE(a_->vc()->stats().oerrors, 1u);
}

}  // namespace
}  // namespace upr
