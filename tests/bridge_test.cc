// Live bridge tests: EdgePacer byte-edge accounting, the RealtimeExecutor's
// wall pacing and fd event sourcing, and BridgePort splicing an external fd
// into the SerialLine/KISS pipeline (with the FIFO backpressure contract).
//
// The wall-clock assertions are deliberately one-sided: a loaded CI machine
// can always run *late*, so we only ever assert "at least this much wall time
// passed" or "the exchange completed before a generous deadline".
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "src/ax25/frame.h"
#include "src/bridge/bridge.h"
#include "src/kiss/kiss.h"
#include "src/radio/channel.h"
#include "src/scenario/vc_station.h"
#include "src/sim/realtime.h"
#include "src/sim/simulator.h"
#include "src/tnc/kiss_tnc.h"

namespace upr {
namespace {

using Clock = std::chrono::steady_clock;

double WallSecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- EdgePacer ---------------------------------------------------------------

TEST(EdgePacerTest, DeliveryAtOrAfterEdgeReleasesImmediately) {
  bridge::EdgePacer pacer(1000);
  // Line idle since t=0; a 5-byte chunk delivered at t=10000 is long past its
  // reconstructed trailing edge — release at once.
  EXPECT_EQ(pacer.Admit(10000, 5), 10000);
  EXPECT_EQ(pacer.overruns(), 0u);
  EXPECT_EQ(pacer.edge(), 10000);
}

TEST(EdgePacerTest, EarlyChunkHeldToTrailingEdge) {
  bridge::EdgePacer pacer(1000);
  // One byte lands exactly at its edge.
  EXPECT_EQ(pacer.Admit(1000, 1), 1000);
  EXPECT_EQ(pacer.overruns(), 0u);
  // A 5-byte batch delivered only 500 ns later cannot have finished on the
  // wire (its edge is 1000 + 5*1000); it must be held and counted.
  EXPECT_EQ(pacer.Admit(1500, 5), 6000);
  EXPECT_EQ(pacer.overruns(), 1u);
  EXPECT_EQ(pacer.edge(), 6000);
}

TEST(EdgePacerTest, PerByteStreamAtLineRateNeverOverruns) {
  // The serial line's per-character delivery: byte n lands at n*byte_time.
  bridge::EdgePacer pacer(1000);
  for (SimTime n = 1; n <= 200; ++n) {
    EXPECT_EQ(pacer.Admit(n * 1000, 1), n * 1000);
  }
  EXPECT_EQ(pacer.overruns(), 0u);
}

TEST(EdgePacerTest, SubByteRoundingJitterAbsorbed) {
  // Cumulative-vs-per-chunk rounding can make a delivery a few ns "early";
  // the half-byte slack must not count that as an overrun.
  bridge::EdgePacer pacer(1042);  // ~9600 baud
  EXPECT_EQ(pacer.Admit(1042, 1), 1042);
  // 3 more bytes delivered 2 ns before 4*1042: within slack, not an overrun.
  SimTime early = 4 * 1042 - 2;
  EXPECT_EQ(pacer.Admit(early, 3), early);
  EXPECT_EQ(pacer.overruns(), 0u);
}

// --- RealtimeExecutor --------------------------------------------------------

TEST(RealtimeExecutorTest, PacingConsumesWallTime) {
  Simulator sim;
  RealtimeExecutor exec(&sim);
  bool fired = false;
  sim.Schedule(Milliseconds(50), [&] { fired = true; });
  auto start = Clock::now();
  exec.RunUntil(Milliseconds(50));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), Milliseconds(50));
  // 50 ms of simulated time at scale 1 must take at least ~40 ms of wall
  // time (scheduler jitter only ever adds).
  EXPECT_GE(WallSecondsSince(start), 0.040);
}

TEST(RealtimeExecutorTest, TimeScaleCompressesWallTime) {
  Simulator sim;
  RealtimeConfig cfg;
  cfg.time_scale = 100.0;  // 100 simulated seconds per wall second
  RealtimeExecutor exec(&sim, cfg);
  int fired = 0;
  for (int i = 1; i <= 20; ++i) {
    sim.Schedule(Milliseconds(100 * i), [&] { ++fired; });
  }
  auto start = Clock::now();
  exec.RunUntil(Seconds(2));
  EXPECT_EQ(fired, 20);
  double wall = WallSecondsSince(start);
  EXPECT_GE(wall, 0.015);  // 2 s / 100 = 20 ms of wall time, minus jitter
  EXPECT_LT(wall, 1.5);    // and nowhere near real time
}

TEST(RealtimeExecutorTest, FdBytesArriveAtWallEquivalentSimTime) {
  Simulator sim;
  RealtimeConfig cfg;
  cfg.time_scale = 1.0;
  RealtimeExecutor exec(&sim, cfg);
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::optional<SimTime> arrival;
  exec.AddFd(fds[0], POLLIN, [&](short) {
    char c;
    ASSERT_EQ(read(fds[0], &c, 1), 1);
    arrival = sim.Now();
  });
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    char c = 0x55;
    ASSERT_EQ(write(fds[1], &c, 1), 1);
  });
  exec.RunUntil(Seconds(2), [&] { return arrival.has_value(); });
  writer.join();
  ASSERT_TRUE(arrival.has_value());
  // The byte was written ~30 ms in; the executor must have advanced the sim
  // clock to (at least) that instant before dispatching the handler.
  EXPECT_GE(*arrival, Milliseconds(25));
  EXPECT_LT(*arrival, Seconds(2));
  EXPECT_GE(exec.stats().fd_dispatches, 1u);
  close(fds[0]);
  close(fds[1]);
}

TEST(RealtimeExecutorTest, StopPredicateEndsRunEarly) {
  Simulator sim;
  RealtimeConfig cfg;
  cfg.time_scale = 1.0;
  RealtimeExecutor exec(&sim, cfg);
  sim.Schedule(Seconds(30), [] {});
  auto start = Clock::now();
  exec.RunUntil(Seconds(30), [] { return true; });
  EXPECT_LT(WallSecondsSince(start), 5.0);
}

// --- BridgePort --------------------------------------------------------------

// The MAC tuning the live scenario uses: no random defers, short keyup.
MacParams DeterministicMac() {
  MacParams mac;
  mac.persistence = 1.0;
  mac.slot_time = Milliseconds(50);
  mac.tx_delay = Milliseconds(50);
  mac.turnaround = 0;
  return mac;
}

TEST(BridgePortTest, SplicesExternalKissClientToStation) {
  // End-to-end: an external "client" on the far end of a socketpair speaks
  // raw KISS through a BridgePort; the resident VC station must answer its
  // SABM with a UA that arrives back over the fd — fd -> serial -> KISS ->
  // MAC -> channel -> station LAPB and the whole way back, paced.
  Simulator sim;
  RealtimeConfig rtc;
  rtc.time_scale = 50.0;
  RealtimeExecutor exec(&sim, rtc);
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  RadioChannel channel(&sim, rc, 7);

  VcStationConfig scfg;
  scfg.name = "live";
  scfg.callsign = "KD7AA";
  scfg.ip = IpV4Address(44, 24, 11, 1);
  scfg.serial_baud = 1200;
  scfg.link.t1 = Seconds(30);
  scfg.mac = DeterministicMac();
  scfg.seed = 8;
  VcStation station(&sim, &channel, scfg);

  bridge::BridgePortConfig bcfg;
  bcfg.name = "ext0";
  bcfg.serial.baud_rate = 1200;
  bcfg.tnc.mac = DeterministicMac();
  bridge::BridgePort port(&exec, &channel, bcfg);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  port.AttachFd(fds[0], /*close_on_detach=*/false);

  std::atomic<bool> got_ua{false};
  std::thread client([&] {
    Ax25Frame sabm;
    sabm.destination = *Ax25Address::Parse("KD7AA");
    sabm.source = *Ax25Address::Parse("KD7EX");
    sabm.type = Ax25FrameType::kSabm;
    sabm.command = true;
    sabm.poll_final = true;
    Bytes wire = KissEncodeData(sabm.Encode());
    ASSERT_EQ(write(fds[1], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    KissDecoder decoder([&](std::uint8_t, KissCommand command, ByteView payload) {
      if (command != KissCommand::kData) {
        return;
      }
      auto v = Ax25Frame::DecodeView(payload);
      if (v && v->frame.type == Ax25FrameType::kUa &&
          v->frame.destination == *Ax25Address::Parse("KD7EX")) {
        got_ua = true;
      }
    });
    auto deadline = Clock::now() + std::chrono::seconds(20);
    while (!got_ua && Clock::now() < deadline) {
      pollfd p{fds[1], POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) {
        continue;
      }
      std::uint8_t buf[512];
      ssize_t n = read(fds[1], buf, sizeof buf);
      if (n <= 0) {
        break;
      }
      decoder.Feed(buf, static_cast<std::size_t>(n));
    }
  });

  exec.RunUntil(Seconds(600), [&] { return got_ua.load(); });
  client.join();
  EXPECT_TRUE(got_ua);
  EXPECT_GT(port.stats().bytes_in, 0u);
  EXPECT_GT(port.stats().bytes_out, 0u);
  EXPECT_EQ(port.stats().attaches, 1u);
  // Sim-side deliveries already land at the byte edge; pacing never had to
  // hold a chunk.
  EXPECT_EQ(port.pacing_overruns(), 0u);
  close(fds[0]);
  close(fds[1]);
}

TEST(BridgePortTest, BackpressuresFdInsteadOfDroppingBytes) {
  // A client floods 2 KB at a port whose serial FIFO holds only 64 bytes.
  // The contract: never drop a byte mid-frame — pause reading (POLLIN off)
  // and let the unread bytes sit in the socket buffer until the 1200-baud
  // line drains.
  Simulator sim;
  RealtimeConfig rtc;
  rtc.time_scale = 2000.0;  // ~17 s of line time in a few ms of wall time
  RealtimeExecutor exec(&sim, rtc);
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  RadioChannel channel(&sim, rc, 7);

  bridge::BridgePortConfig bcfg;
  bcfg.name = "ext0";
  bcfg.serial.baud_rate = 1200;
  bcfg.serial.max_backlog = 64;
  bcfg.tnc.mac = DeterministicMac();
  bridge::BridgePort port(&exec, &channel, bcfg);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  port.AttachFd(fds[0], /*close_on_detach=*/false);

  // 2 KB of frameless filler (no FEND anywhere, so a drop would be silent
  // data corruption rather than a frame error — exactly what must not
  // happen).
  const Bytes flood(2048, 0x55);
  ASSERT_EQ(write(fds[1], flood.data(), flood.size()),
            static_cast<ssize_t>(flood.size()));

  // The flood takes ~17 s of line time; the deadline leaves 300 ms of wall
  // time so a loaded host cannot cut the run, and the stop predicate still
  // ends it once the last byte is in.
  exec.RunUntil(Seconds(600),
                [&] { return port.stats().bytes_in >= flood.size(); });
  EXPECT_EQ(port.stats().bytes_in, flood.size());
  // The 64-byte FIFO forced read pauses, and nothing was dropped.
  EXPECT_GT(port.stats().reads_paused, 0u);
  EXPECT_EQ(port.line().a().overruns(), 0u);
  EXPECT_EQ(port.pacing_overruns(), 0u);
  close(fds[0]);
  close(fds[1]);
}

TEST(BridgePortTest, ReattachRecoversFromKissReturnCommand) {
  // kissattach sends the KISS 0xFF "return" on exit, which takes the TNC out
  // of KISS mode. The next client must still get a working port: AttachFd
  // re-enters KISS mode and resyncs the decoder.
  Simulator sim;
  RealtimeConfig rtc;
  rtc.time_scale = 500.0;
  RealtimeExecutor exec(&sim, rtc);
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  RadioChannel channel(&sim, rc, 7);

  bridge::BridgePortConfig bcfg;
  bcfg.name = "ext0";
  bcfg.serial.baud_rate = 1200;
  bcfg.tnc.mac = DeterministicMac();
  bridge::BridgePort port(&exec, &channel, bcfg);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  port.AttachFd(fds[0], /*close_on_detach=*/false);

  // First client session ends with the return command.
  KissFrame ret;
  ret.port = 0x0F;
  ret.command = KissCommand::kReturn;
  Bytes wire = KissEncode(ret);
  ASSERT_EQ(write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  exec.RunUntil(Seconds(5), [&] { return !port.tnc().in_kiss_mode(); });
  EXPECT_FALSE(port.tnc().in_kiss_mode());
  EXPECT_EQ(port.tnc().return_commands(), 1u);
  port.DetachFd();

  // Second session: reattach must resync, and a data frame must reach the
  // radio channel again.
  int fds2[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  port.AttachFd(fds2[0], /*close_on_detach=*/false);
  EXPECT_TRUE(port.tnc().in_kiss_mode());
  Ax25Frame ui = Ax25Frame::MakeUi(*Ax25Address::Parse("KD7AA"),
                                   *Ax25Address::Parse("KD7EX"), kPidNoLayer3,
                                   Bytes{1, 2, 3});
  Bytes data = KissEncodeData(ui.Encode());
  ASSERT_EQ(write(fds2[1], data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  exec.RunUntil(Seconds(30), [&] { return channel.transmissions() > 0; });
  EXPECT_GT(channel.transmissions(), 0u);
  EXPECT_EQ(port.tnc().frames_from_host(), 1u);
  close(fds[0]);
  close(fds[1]);
  close(fds2[0]);
  close(fds2[1]);
}

TEST(BridgePortTest, KissParamCommandsUpdateLiveMacParams) {
  // The satellite-1 plumbing end to end over the fd: parameter command
  // frames from the external client must land in the TNC's *live* MAC
  // parameters and be counted for --netstat.
  Simulator sim;
  RealtimeConfig rtc;
  rtc.time_scale = 500.0;
  RealtimeExecutor exec(&sim, rtc);
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  RadioChannel channel(&sim, rc, 7);

  bridge::BridgePortConfig bcfg;
  bcfg.name = "ext0";
  bcfg.serial.baud_rate = 1200;
  bridge::BridgePort port(&exec, &channel, bcfg);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  port.AttachFd(fds[0], /*close_on_detach=*/false);

  Bytes wire;
  for (auto [cmd, value] : {std::pair<KissCommand, std::uint8_t>{
                                KissCommand::kTxDelay, 20},
                            {KissCommand::kPersistence, 255},
                            {KissCommand::kSlotTime, 5},
                            {KissCommand::kFullDuplex, 1}}) {
    KissFrame f;
    f.command = cmd;
    f.payload = Bytes{value};
    Bytes enc = KissEncode(f);
    wire.insert(wire.end(), enc.begin(), enc.end());
  }
  ASSERT_EQ(write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  exec.RunUntil(Seconds(10), [&] { return port.tnc().param_updates() >= 4; });

  EXPECT_EQ(port.tnc().param_updates(), 4u);
  const MacParams& live = port.tnc().mac_params();
  EXPECT_EQ(live.tx_delay, Milliseconds(200));  // 20 * 10 ms
  EXPECT_DOUBLE_EQ(live.persistence, 1.0);      // (255+1)/256
  EXPECT_EQ(live.slot_time, Milliseconds(50));
  EXPECT_TRUE(live.full_duplex);
  EXPECT_GT(port.tnc().last_param_update(), 0);
  close(fds[0]);
  close(fds[1]);
}

}  // namespace
}  // namespace upr
