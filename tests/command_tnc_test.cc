// Tests for the TNC's native command interpreter (§2.1) and BBS mail
// forwarding (§1 footnote 2) — the pre-IP workflows the paper's users came
// from: a dumb terminal talks to a TNC-2, which holds the AX.25 connection.
#include <gtest/gtest.h>

#include "src/apps/bbs.h"
#include "src/scenario/testbed.h"
#include "src/tnc/command_tnc.h"
#include "src/util/crc.h"

namespace upr {
namespace {

// A "dumb terminal": collects everything the TNC prints, types lines in.
struct Terminal {
  explicit Terminal(Simulator* sim, std::uint32_t baud = 9600)
      : line(sim, baud) {
    line.a().set_receive_chunk_handler([this](const std::uint8_t* data, std::size_t len) {
      screen.append(reinterpret_cast<const char*>(data), len);
    });
  }
  void Type(const std::string& text) { line.a().Write(BytesFromString(text)); }
  bool Saw(const std::string& needle) const {
    return screen.find(needle) != std::string::npos;
  }
  SerialLine line;
  std::string screen;
};

class CommandTncTest : public ::testing::Test {
 protected:
  CommandTncTest() {
    RadioChannelConfig rc;
    rc.bit_rate = 9600;
    channel_ = std::make_unique<RadioChannel>(&sim_, rc, 12);
  }

  std::unique_ptr<CommandModeTnc> MakeTnc(Terminal* term, const std::string& call,
                                          std::uint64_t seed) {
    CommandTncConfig cfg;
    cfg.mycall = *Ax25Address::Parse(call);
    cfg.link.t1 = Seconds(5);
    return std::make_unique<CommandModeTnc>(&sim_, channel_.get(), &term->line.b(),
                                            call, cfg, seed);
  }

  Simulator sim_;
  std::unique_ptr<RadioChannel> channel_;
};

TEST_F(CommandTncTest, PromptAndUnknownCommand) {
  Terminal term(&sim_);
  auto tnc = MakeTnc(&term, "KD7NM", 1);
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(term.Saw("cmd: "));
  term.Type("FROBNICATE\r\n");
  sim_.RunUntil(Seconds(2));
  EXPECT_TRUE(term.Saw("?EH"));
  EXPECT_EQ(tnc->commands_processed(), 1u);
}

TEST_F(CommandTncTest, MycallCommand) {
  Terminal term(&sim_);
  CommandTncConfig cfg;  // no callsign yet
  cfg.link.t1 = Seconds(5);
  CommandModeTnc tnc(&sim_, channel_.get(), &term.line.b(), "blank", cfg, 2);
  sim_.RunUntil(Seconds(1));
  term.Type("CONNECT W7BBS\r\n");
  sim_.RunUntil(Seconds(2));
  EXPECT_TRUE(term.Saw("?set MYCALL first"));
  term.Type("MYCALL KB7DZ\r\n");
  sim_.RunUntil(Seconds(3));
  EXPECT_TRUE(term.Saw("MYCALL set to KB7DZ"));
  EXPECT_EQ(tnc.mycall(), Ax25Address("KB7DZ", 0));
}

TEST_F(CommandTncTest, ConnectConverseDisconnectBetweenTwoTncs) {
  Terminal term_a(&sim_), term_b(&sim_);
  auto tnc_a = MakeTnc(&term_a, "KD7AA", 3);
  auto tnc_b = MakeTnc(&term_b, "KD7BB", 4);
  sim_.RunUntil(Seconds(1));

  term_a.Type("CONNECT KD7BB\r\n");
  sim_.RunUntil(Seconds(30));
  EXPECT_TRUE(term_a.Saw("*** CONNECTED to KD7BB"));
  EXPECT_TRUE(term_b.Saw("*** CONNECTED to KD7AA"));
  EXPECT_TRUE(tnc_a->connected());
  EXPECT_TRUE(tnc_a->in_converse_mode());
  EXPECT_TRUE(tnc_b->in_converse_mode());

  // Keyboard-to-keyboard chat, both directions.
  term_a.Type("hello bob, the gateway is up\r\n");
  term_b.Type("copy that alice\r\n");
  sim_.RunUntil(Seconds(90));
  EXPECT_TRUE(term_b.Saw("hello bob, the gateway is up"));
  EXPECT_TRUE(term_a.Saw("copy that alice"));

  // Ctrl-C back to command mode; disconnect.
  term_a.Type(std::string(1, static_cast<char>(kTncEscape)));
  sim_.RunUntil(Seconds(100));
  EXPECT_FALSE(tnc_a->in_converse_mode());
  term_a.Type("DISCONNECT\r\n");
  sim_.RunUntil(Seconds(140));
  EXPECT_TRUE(term_a.Saw("*** DISCONNECTED"));
  EXPECT_TRUE(term_b.Saw("*** DISCONNECTED"));
  EXPECT_FALSE(tnc_a->connected());
}

TEST_F(CommandTncTest, StatusCommand) {
  Terminal term(&sim_);
  auto tnc = MakeTnc(&term, "KD7NM", 5);
  sim_.RunUntil(Seconds(1));
  term.Type("STATUS\r\n");
  sim_.RunUntil(Seconds(2));
  EXPECT_TRUE(term.Saw("DISCONNECTED"));
}

TEST_F(CommandTncTest, MonitorShowsUiTraffic) {
  Terminal term(&sim_);
  auto tnc = MakeTnc(&term, "KD7NM", 6);
  sim_.RunUntil(Seconds(1));
  term.Type("MONITOR ON\r\n");
  sim_.RunUntil(Seconds(2));
  // Another station beacons a UI frame.
  Terminal term_b(&sim_);
  auto tnc_b = MakeTnc(&term_b, "KD7AA", 7);
  (void)tnc_b;
  // Simplest beacon: drive a raw port.
  RadioPort* beacon = channel_->CreatePort("beacon");
  Ax25Frame ui = Ax25Frame::MakeUi(Ax25Address::Broadcast(), Ax25Address("N7AKR", 0),
                                   kPidNoLayer3, BytesFromString("UW GATEWAY UP"));
  Bytes wire = ui.Encode();
  std::uint16_t fcs = Crc16Ccitt(wire);
  wire.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(fcs >> 8));
  beacon->StartTransmit(wire, 0, 0);
  sim_.RunUntil(Seconds(10));
  EXPECT_TRUE(term.Saw("N7AKR>QST: UW GATEWAY UP"));
  EXPECT_EQ(tnc->frames_monitored(), 1u);
}

TEST_F(CommandTncTest, ConnectViaDigipeater) {
  Terminal term_a(&sim_), term_b(&sim_);
  auto tnc_a = MakeTnc(&term_a, "KD7AA", 8);
  auto tnc_b = MakeTnc(&term_b, "KD7BB", 9);
  Digipeater digi(&sim_, channel_.get(), Ax25Address("WB7RA", 0));
  sim_.RunUntil(Seconds(1));
  term_a.Type("CONNECT KD7BB VIA WB7RA\r\n");
  sim_.RunUntil(Seconds(60));
  EXPECT_TRUE(term_a.Saw("*** CONNECTED to KD7BB"));
  EXPECT_GT(digi.frames_repeated(), 0u);
  EXPECT_TRUE(tnc_a->connected());
  EXPECT_TRUE(tnc_b->connected());
}

TEST_F(CommandTncTest, MheardTracksStations) {
  Terminal term(&sim_);
  auto tnc = MakeTnc(&term, "KD7NM", 11);
  // Two other stations beacon.
  RadioPort* beacon = channel_->CreatePort("beacon");
  auto send_ui = [&](const char* from, int copies, int offset) {
    Ax25Frame ui = Ax25Frame::MakeUi(Ax25Address::Broadcast(),
                                     *Ax25Address::Parse(from), kPidNoLayer3,
                                     BytesFromString("id"));
    Bytes wire = ui.Encode();
    std::uint16_t fcs = Crc16Ccitt(wire);
    wire.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
    wire.push_back(static_cast<std::uint8_t>(fcs >> 8));
    for (int i = 0; i < copies; ++i) {
      sim_.Schedule(Seconds(offset + i * 3), [beacon, wire] {
        if (!beacon->transmitting()) {
          beacon->StartTransmit(wire, 0, 0);
        }
      });
    }
  };
  send_ui("N7AKR", 3, 1);
  send_ui("W1GOH", 1, 2);
  sim_.RunUntil(Seconds(30));
  ASSERT_EQ(tnc->heard().size(), 2u);
  EXPECT_EQ(tnc->heard().at(*Ax25Address::Parse("N7AKR")).frames, 3u);
  EXPECT_EQ(tnc->heard().at(*Ax25Address::Parse("W1GOH")).frames, 1u);
  term.Type("MHEARD\r\n");
  sim_.RunUntil(Seconds(40));
  EXPECT_TRUE(term.Saw("N7AKR"));
  EXPECT_TRUE(term.Saw("W1GOH"));
  EXPECT_TRUE(term.Saw("3 frames"));
}

// --- A terminal user on a command-mode TNC uses the BBS --------------------

TEST_F(CommandTncTest, TerminalUserReadsBbs) {
  // BBS runs on a RadioStation (host-resident, §2.4 style); the user has
  // only a terminal and a stock TNC — the §1 configuration.
  RadioStationConfig bc;
  bc.hostname = "bbs";
  bc.callsign = Ax25Address("W7BBS", 0);
  bc.ip = IpV4Address(44, 24, 7, 1);
  bc.seed = 70;
  RadioStation bbs_station(&sim_, channel_.get(), bc);
  Ax25LinkConfig link_cfg;
  link_cfg.t1 = Seconds(5);
  auto bbs_link = BindAx25LinkToDriver(&sim_, bbs_station.radio_if(), link_cfg);
  Ax25Bbs bbs(bbs_link.get(), "[UW BBS]");
  bbs.Post(BbsMessage{.from = "N7AKR", .to = "", .subject = "net 44 gateway",
                      .body = {"online at 44.24.0.28"}});

  Terminal term(&sim_);
  auto tnc = MakeTnc(&term, "KD7NM", 10);
  sim_.RunUntil(Seconds(1));
  term.Type("CONNECT W7BBS\r\n");
  sim_.RunUntil(Seconds(60));
  ASSERT_TRUE(term.Saw("*** CONNECTED to W7BBS"));
  EXPECT_TRUE(term.Saw("[UW BBS]"));
  term.Type("L\r\n");
  sim_.RunUntil(Seconds(120));
  EXPECT_TRUE(term.Saw("#1 N7AKR: net 44 gateway"));
  term.Type("R 1\r\n");
  sim_.RunUntil(Seconds(200));
  EXPECT_TRUE(term.Saw("online at 44.24.0.28"));
  term.Type("B\r\n");
  sim_.RunUntil(Seconds(260));
  EXPECT_TRUE(term.Saw("73!"));
  EXPECT_FALSE(tnc->connected());
}

// --- BBS-to-BBS mail forwarding ----------------------------------------------

class BbsForwardingTest : public ::testing::Test {
 protected:
  BbsForwardingTest() {
    RadioChannelConfig rc;
    rc.bit_rate = 9600;
    channel_ = std::make_unique<RadioChannel>(&sim_, rc, 14);
    seattle_station_ = MakeStation("sea-bbs", "W7SEA", 1);
    tacoma_station_ = MakeStation("tac-bbs", "W7TAC", 2);
    Ax25LinkConfig link_cfg;
    link_cfg.t1 = Seconds(5);
    seattle_link_ = BindAx25LinkToDriver(&sim_, seattle_station_->radio_if(), link_cfg);
    tacoma_link_ = BindAx25LinkToDriver(&sim_, tacoma_station_->radio_if(), link_cfg);
    seattle_ = std::make_unique<Ax25Bbs>(seattle_link_.get(), "[Seattle]");
    tacoma_ = std::make_unique<Ax25Bbs>(tacoma_link_.get(), "[Tacoma]");
    // KB7DZ reads mail in Tacoma.
    seattle_->SetUserHome("KB7DZ", Ax25Address("W7TAC", 0));
  }

  std::unique_ptr<RadioStation> MakeStation(const std::string& name,
                                            const std::string& call,
                                            std::uint64_t seed) {
    RadioStationConfig c;
    c.hostname = name;
    c.callsign = *Ax25Address::Parse(call);
    c.ip = IpV4Address(44, 24, 8, static_cast<std::uint8_t>(seed));
    c.seed = 80 + seed;
    return std::make_unique<RadioStation>(&sim_, channel_.get(), c);
  }

  Simulator sim_;
  std::unique_ptr<RadioChannel> channel_;
  std::unique_ptr<RadioStation> seattle_station_;
  std::unique_ptr<RadioStation> tacoma_station_;
  std::unique_ptr<Ax25Link> seattle_link_;
  std::unique_ptr<Ax25Link> tacoma_link_;
  std::unique_ptr<Ax25Bbs> seattle_;
  std::unique_ptr<Ax25Bbs> tacoma_;
};

TEST_F(BbsForwardingTest, MessageForNonLocalUserIsForwarded) {
  seattle_->Post(BbsMessage{.from = "N7AKR", .to = "KB7DZ",
                            .subject = "meeting", .body = {"Saturday 10am."}});
  seattle_->ForwardPending();
  sim_.RunUntil(Seconds(300));
  ASSERT_EQ(tacoma_->messages().size(), 1u);
  const BbsMessage& m = tacoma_->messages()[0];
  EXPECT_EQ(m.from, "N7AKR");
  EXPECT_EQ(m.to, "KB7DZ");
  EXPECT_EQ(m.subject, "meeting");
  ASSERT_EQ(m.body.size(), 1u);
  EXPECT_EQ(m.body[0], "Saturday 10am.");
  EXPECT_TRUE(seattle_->messages()[0].forwarded);
  EXPECT_EQ(seattle_->messages_forwarded(), 1u);
  EXPECT_EQ(tacoma_->messages_received_by_forwarding(), 1u);
}

TEST_F(BbsForwardingTest, LocalMessagesStayPut) {
  seattle_->Post(BbsMessage{.from = "N7AKR", .to = "KG7K",
                            .subject = "local", .body = {"no forwarding needed"}});
  seattle_->ForwardPending();
  sim_.RunUntil(Seconds(300));
  EXPECT_TRUE(tacoma_->messages().empty());
  EXPECT_FALSE(seattle_->messages()[0].forwarded);
}

TEST_F(BbsForwardingTest, PeriodicForwardingPicksUpLaterMail) {
  seattle_->StartForwarding(Seconds(120));
  sim_.RunUntil(Seconds(10));
  seattle_->Post(BbsMessage{.from = "KG7K", .to = "KB7DZ",
                            .subject = "late mail", .body = {"posted after start"}});
  sim_.RunUntil(Seconds(600));
  ASSERT_EQ(tacoma_->messages().size(), 1u);
  EXPECT_EQ(tacoma_->messages()[0].subject, "late mail");
}

TEST_F(BbsForwardingTest, ForwardedMessageNotForwardedAgain) {
  seattle_->Post(BbsMessage{.from = "N7AKR", .to = "KB7DZ",
                            .subject = "once only", .body = {"x"}});
  seattle_->StartForwarding(Seconds(60));
  sim_.RunUntil(Seconds(900));
  EXPECT_EQ(tacoma_->messages().size(), 1u);
  EXPECT_EQ(seattle_->messages_forwarded(), 1u);
}

TEST_F(BbsForwardingTest, MultipleMessagesOneSession) {
  for (int i = 0; i < 3; ++i) {
    seattle_->Post(BbsMessage{.from = "N7AKR", .to = "KB7DZ",
                              .subject = "msg" + std::to_string(i),
                              .body = {"body " + std::to_string(i)}});
  }
  seattle_->ForwardPending();
  sim_.RunUntil(Seconds(600));
  EXPECT_EQ(tacoma_->messages().size(), 3u);
  EXPECT_EQ(seattle_->messages_forwarded(), 3u);
}

TEST_F(BbsForwardingTest, TerminalUserMailReachesHomeBbs) {
  // End to end: a terminal user posts at Seattle addressed to KB7DZ, who
  // reads it at Tacoma — §1's "connectivity for electronic mail".
  RadioStationConfig uc;
  uc.hostname = "user";
  uc.callsign = Ax25Address("KG7K", 0);
  uc.ip = IpV4Address(44, 24, 8, 9);
  uc.seed = 90;
  RadioStation user_station(&sim_, channel_.get(), uc);
  Ax25LinkConfig link_cfg;
  link_cfg.t1 = Seconds(5);
  auto user_link = BindAx25LinkToDriver(&sim_, user_station.radio_if(), link_cfg);
  BbsTerminal term(user_link.get(), Ax25Address("W7SEA", 0));
  sim_.RunUntil(Seconds(60));
  ASSERT_TRUE(term.connected());
  term.SendLine("S KB7DZ qsl card");
  sim_.RunUntil(Seconds(120));
  term.SendLine("Your card is in the mail. 73");
  term.SendLine("/EX");
  sim_.RunUntil(Seconds(240));
  term.SendLine("B");
  seattle_->StartForwarding(Seconds(60));
  sim_.RunUntil(Seconds(1200));
  ASSERT_EQ(tacoma_->messages().size(), 1u);
  EXPECT_EQ(tacoma_->messages()[0].to, "KB7DZ");
  EXPECT_EQ(tacoma_->messages()[0].from, "KG7K");
}

}  // namespace
}  // namespace upr
