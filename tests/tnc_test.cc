#include <gtest/gtest.h>

#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/radio/channel.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"
#include "src/tnc/kiss_tnc.h"

namespace upr {
namespace {

// A host-side harness: a serial line, a TNC on its far end, and a KISS
// decoder standing in for the driver.
struct Station {
  Station(Simulator* sim, RadioChannel* ch, const std::string& name, TncConfig config,
          std::uint64_t seed)
      : serial(sim, 9600),
        tnc(sim, ch, &serial.b(), name, config, seed),
        decoder([this](std::uint8_t, KissCommand command, ByteView payload) {
          if (command == KissCommand::kData) {
            frames.emplace_back(payload.begin(), payload.end());
          }
        }) {
    serial.a().set_receive_chunk_handler(
        [this](const std::uint8_t* data, std::size_t len) { decoder.Feed(data, len); });
  }

  void SendAx25(const Ax25Frame& f) { serial.a().Write(KissEncodeData(f.Encode())); }

  SerialLine serial;
  KissTnc tnc;
  KissDecoder decoder;
  std::vector<Bytes> frames;  // AX.25 frames seen by the "host"
};

class TncTest : public ::testing::Test {
 protected:
  TncTest() : channel_(&sim_, FastChannel()) {}

  static RadioChannelConfig FastChannel() {
    RadioChannelConfig c;
    c.bit_rate = 9600;
    return c;
  }

  static TncConfig QuickMac() {
    TncConfig c;
    c.mac.tx_delay = Milliseconds(10);
    c.mac.tx_tail = 0;
    c.mac.persistence = 1.0;
    return c;
  }

  Simulator sim_;
  RadioChannel channel_;
};

TEST_F(TncTest, HostToAirToHost) {
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  Station b(&sim_, &channel_, "b", QuickMac(), 2);
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                                  kPidNoLayer3, BytesFromString("over the air"));
  a.SendAx25(f);
  sim_.RunUntil(Seconds(10));
  ASSERT_EQ(b.frames.size(), 1u);
  auto decoded = Ax25Frame::Decode(b.frames[0]);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->info, BytesFromString("over the air"));
  EXPECT_EQ(a.tnc.frames_from_host(), 1u);
  EXPECT_EQ(b.tnc.frames_to_host(), 1u);
}

// A resync mid-frame drops the bytes that landed before it, as it would if
// each had been an event of its own, although the host's frame travels as
// one run: the tail after the resync decodes as a frame of its own, typed
// by its first byte ('A' = TXDELAY on port 4).
TEST_F(TncTest, ResyncMidRunDropsTheBytesLandedBeforeIt) {
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  Bytes frame = {kKissFend, 0x00};
  frame.insert(frame.end(), 20, 'A');
  frame.push_back(kKissFend);
  a.serial.a().Write(frame);
  sim_.RunUntil(a.serial.transfer_time(12));
  a.tnc.EnterKissMode();
  sim_.RunAll();
  EXPECT_EQ(a.tnc.frames_from_host(), 0u);
  EXPECT_EQ(a.tnc.param_updates(), 1u);
  EXPECT_EQ(a.tnc.mac_params().tx_delay, Milliseconds(10.0 * 'A'));
  EXPECT_EQ(a.serial.b().bytes_received(), frame.size());
}

// The perfbench buf.* metrics count this: a host-to-TNC data frame of n
// bytes costs the TNC exactly one owned copy, out of the KISS decoder's
// buffer onto the MAC queue.
TEST_F(TncTest, HostDataFrameCountsOneKissCopy) {
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  Bytes body = Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                                 kPidNoLayer3, BytesFromString("counted once"))
                   .Encode();
  Bytes wire = KissEncodeData(body);
  ResetBufStats();
  a.serial.a().Write(wire);
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(a.tnc.frames_from_host(), 1u);
  const BufLayerStats kiss = BufStatsFor(BufLayer::kKiss);
  EXPECT_EQ(kiss.allocs, 1u);
  EXPECT_EQ(kiss.bytes_copied, body.size());
  const BufLayerStats total = BufStatsTotal();
  EXPECT_EQ(total.allocs, 1u);
  EXPECT_EQ(total.bytes_copied, body.size());
}

TEST_F(TncTest, StockTncIsPromiscuous) {
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  Station b(&sim_, &channel_, "b", QuickMac(), 2);
  Station c(&sim_, &channel_, "c", QuickMac(), 3);
  // Frame from A to B: C's stock TNC still passes it up (§3's complaint).
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                                  kPidNoLayer3, BytesFromString("not for c"));
  a.SendAx25(f);
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.tnc.frames_to_host(), 1u);
}

TEST_F(TncTest, AddressFilterSuppressesOtherTraffic) {
  TncConfig filtered = QuickMac();
  filtered.address_filter = true;
  filtered.local_addresses.push_back(Ax25Address("CCC", 0));
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  Station c(&sim_, &channel_, "c", filtered, 3);
  Ax25Frame not_for_c = Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                                          kPidNoLayer3, Bytes{1});
  Ax25Frame for_c = Ax25Frame::MakeUi(Ax25Address("CCC", 0), Ax25Address("AAA", 0),
                                      kPidNoLayer3, Bytes{2});
  Ax25Frame broadcast = Ax25Frame::MakeUi(Ax25Address::Broadcast(),
                                          Ax25Address("AAA", 0), kPidNoLayer3, Bytes{3});
  a.SendAx25(not_for_c);
  a.SendAx25(for_c);
  a.SendAx25(broadcast);
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(c.frames.size(), 2u);  // the directed frame and the broadcast
  EXPECT_EQ(c.tnc.frames_filtered(), 1u);
}

TEST_F(TncTest, CorruptedFramesDropAtFcs) {
  RadioChannelConfig lossy;
  lossy.bit_rate = 9600;
  lossy.loss_rate = 1.0;  // everything corrupted
  RadioChannel bad_channel(&sim_, lossy, 9);
  Station a(&sim_, &bad_channel, "a", QuickMac(), 1);
  Station b(&sim_, &bad_channel, "b", QuickMac(), 2);
  a.SendAx25(Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                               kPidNoLayer3, Bytes{1, 2, 3}));
  sim_.RunUntil(Seconds(10));
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(b.tnc.fcs_errors(), 1u);
}

TEST_F(TncTest, KissParameterCommandsAdjustMac) {
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  KissFrame cmd;
  cmd.command = KissCommand::kTxDelay;
  cmd.payload = Bytes{50};  // 500 ms
  a.serial.a().Write(KissEncode(cmd));
  cmd.command = KissCommand::kPersistence;
  cmd.payload = Bytes{127};  // 0.5
  a.serial.a().Write(KissEncode(cmd));
  cmd.command = KissCommand::kSlotTime;
  cmd.payload = Bytes{20};  // 200 ms
  a.serial.a().Write(KissEncode(cmd));
  cmd.command = KissCommand::kFullDuplex;
  cmd.payload = Bytes{1};
  a.serial.a().Write(KissEncode(cmd));
  sim_.RunUntil(Seconds(1));
  // Parameters land on the MAC via the TNC. Verify through behaviour: TNC
  // still in KISS mode, and a frame gets out with the 500 ms keyup.
  EXPECT_TRUE(a.tnc.in_kiss_mode());
  Station b(&sim_, &channel_, "b", QuickMac(), 2);
  SimTime t0 = sim_.Now();
  a.SendAx25(Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                               kPidNoLayer3, Bytes{}));
  sim_.RunUntil(Seconds(20));
  ASSERT_EQ(b.frames.size(), 1u);
  // Air time must include the 500 ms TXDELAY.
  EXPECT_GT(sim_.Now() - t0, Milliseconds(500));
}

TEST_F(TncTest, ReturnCommandExitsKissMode) {
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  KissFrame ret;
  ret.command = KissCommand::kReturn;
  a.serial.a().Write(KissEncode(ret));
  sim_.RunUntil(Seconds(1));
  EXPECT_FALSE(a.tnc.in_kiss_mode());
  // Subsequent data is ignored.
  a.SendAx25(Ax25Frame::MakeUi(Ax25Address("BBB", 0), Ax25Address("AAA", 0),
                               kPidNoLayer3, Bytes{}));
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(a.tnc.frames_from_host(), 0u);
}

TEST_F(TncTest, CarrierSenseSerializesWithInstantTurnaround) {
  // With zero decision-to-RF latency, carrier sense fully serializes the two
  // MACs and every frame arrives clean.
  TncConfig instant = QuickMac();
  instant.mac.turnaround = 0;
  Station a(&sim_, &channel_, "a", instant, 1);
  Station b(&sim_, &channel_, "b", instant, 2);
  Station c(&sim_, &channel_, "c", instant, 3);
  for (int i = 0; i < 5; ++i) {
    a.SendAx25(Ax25Frame::MakeUi(Ax25Address("CCC", 0), Ax25Address("AAA", 0),
                                 kPidNoLayer3, Bytes{static_cast<std::uint8_t>(i)}));
    b.SendAx25(Ax25Frame::MakeUi(Ax25Address("CCC", 0), Ax25Address("BBB", 0),
                                 kPidNoLayer3, Bytes{static_cast<std::uint8_t>(i)}));
  }
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(c.frames.size(), 10u);
  EXPECT_EQ(channel_.collisions(), 0u);
}

TEST_F(TncTest, TurnaroundWindowAllowsRealCollisions) {
  // With the (default) keying latency, two stations that decide to transmit
  // within the window collide — UI frames lost (no link-layer retry).
  Station a(&sim_, &channel_, "a", QuickMac(), 1);
  Station b(&sim_, &channel_, "b", QuickMac(), 2);
  Station c(&sim_, &channel_, "c", QuickMac(), 3);
  for (int i = 0; i < 10; ++i) {
    a.SendAx25(Ax25Frame::MakeUi(Ax25Address("CCC", 0), Ax25Address("AAA", 0),
                                 kPidNoLayer3, Bytes{static_cast<std::uint8_t>(i)}));
    b.SendAx25(Ax25Frame::MakeUi(Ax25Address("CCC", 0), Ax25Address("BBB", 0),
                                 kPidNoLayer3, Bytes{static_cast<std::uint8_t>(i)}));
  }
  sim_.RunUntil(Seconds(300));
  EXPECT_GT(channel_.collisions(), 0u);
  EXPECT_LT(c.frames.size(), 20u);  // the collided frames are gone for good
  EXPECT_GT(c.frames.size(), 0u);  // but the channel is not dead
}

}  // namespace
}  // namespace upr
