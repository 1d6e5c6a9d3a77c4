// Tests for the point-to-point backbone trunk: a datagram output on one end
// reaches the peer's stack byte-identical at depart + latency, the transmit
// clock serializes back-to-back outputs, the in-flight limit tail-drops, and
// the error counters and buffer accounting of one hop.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/ipv4.h"
#include "src/net/netstack.h"
#include "src/net/trunk_link.h"
#include "src/sim/shard_exec.h"
#include "src/util/packet_buf.h"

namespace upr {
namespace {

constexpr std::uint8_t kProto = 99;
constexpr SimTime kStart = Milliseconds(5);

class TrunkTest : public ::testing::Test {
 protected:
  // 3 Mbit/s does not divide 8 * 25 bits evenly, so TransmitTime rounds.
  void Build(TrunkConfig config = {.bit_rate = 3'000'000,
                                   .latency = 1'000'000,
                                   .queue_limit = 64}) {
    config_ = config;
    ShardSet::Config sc;
    sc.shards = 2;
    sc.lookahead = config.latency;
    shards_ = std::make_unique<ShardSet>(sc);
    a_ = std::make_unique<NetStack>(shards_->shard(0), "a");
    b_ = std::make_unique<NetStack>(shards_->shard(1), "b");
    a_if_ = static_cast<TrunkLink*>(
        a_->AddInterface(std::make_unique<TrunkLink>("trunk0", shards_.get(), 0, config)));
    b_if_ = static_cast<TrunkLink*>(
        b_->AddInterface(std::make_unique<TrunkLink>("trunk0", shards_.get(), 1, config)));
    a_if_->Configure(kIpA, 30);
    b_if_->Configure(kIpB, 30);
    TrunkLink::Wire(a_if_, b_if_);
    b_->RegisterProtocol(kProto, [this](const Ipv4Header& h, ByteView payload, NetInterface*) {
      buf_at_delivery_ = BufStatsTotal();  // before the re-encode below
      received_.push_back(
          Received{h.Encode(Bytes(payload.begin(), payload.end())), shards_->shard(1)->Now()});
    });
  }

  // A datagram from a to b with a `payload_len`-byte payload (20-byte header).
  static Bytes Datagram(std::size_t payload_len, std::uint16_t id = 7) {
    Ipv4Header h;
    h.identification = id;
    h.protocol = kProto;
    h.source = kIpA;
    h.destination = kIpB;
    Bytes payload(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 37 + id);
    }
    return h.Encode(payload);
  }

  // Outputs `dgram` on a's end. The buffer carries headroom, as a datagram
  // forwarded from a radio interface does.
  void Send(const Bytes& dgram) { a_if_->Output(PacketBuf::FromBytes(dgram), kIpB); }

  // Runs `fn` as an event on a's shard at `when`.
  void At(SimTime when, std::function<void()> fn) {
    shards_->shard(0)->ScheduleAt(when, std::move(fn));
  }

  void Run() { shards_->RunUntil(Seconds(1)); }

  // ceil(bytes * 8 bits / bit_rate) in ns.
  SimTime TxTime(std::size_t bytes) const {
    return static_cast<SimTime>((bytes * 8 * 1'000'000'000ull + config_.bit_rate - 1) /
                                config_.bit_rate);
  }

  struct Received {
    Bytes datagram;  // re-encoded from the delivered header and payload
    SimTime at;
  };

  static inline const IpV4Address kIpA{10, 9, 0, 1};
  static inline const IpV4Address kIpB{10, 9, 0, 2};

  TrunkConfig config_;
  std::unique_ptr<ShardSet> shards_;
  std::unique_ptr<NetStack> a_;
  std::unique_ptr<NetStack> b_;
  TrunkLink* a_if_ = nullptr;
  TrunkLink* b_if_ = nullptr;
  std::vector<Received> received_;
  BufLayerStats buf_at_delivery_;
};

TEST_F(TrunkTest, DeliversByteIdenticalAtDepartPlusLatency) {
  Build();
  const Bytes dgram = Datagram(5);
  ASSERT_EQ(dgram.size(), 25u);
  // 200 bits at 3 Mbit/s is 66,666.7 ns: a datagram never finishes early.
  ASSERT_EQ(TxTime(dgram.size()), 66'667);
  At(kStart, [&] { Send(dgram); });
  Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].datagram, dgram);
  EXPECT_EQ(received_[0].at, kStart + 66'667 + config_.latency);
  EXPECT_EQ(a_if_->stats().opackets, 1u);
  EXPECT_EQ(a_if_->stats().obytes, 25u);
  // Counted once, by the receiving stack.
  EXPECT_EQ(b_if_->stats().ipackets, 1u);
  EXPECT_EQ(b_if_->stats().ibytes, 25u);
  EXPECT_EQ(b_->ip_stats().delivered, 1u);
  EXPECT_EQ(shards_->stats().posted, 1u);
}

TEST_F(TrunkTest, BackToBackOutputsSerializeOnTheTransmitClock) {
  Build();
  const Bytes first = Datagram(5, 1);
  const Bytes second = Datagram(30, 2);
  At(kStart, [&] {
    Send(first);
    Send(second);
  });
  Run();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].datagram, first);
  EXPECT_EQ(received_[1].datagram, second);
  const SimTime depart1 = kStart + TxTime(first.size());
  EXPECT_EQ(received_[0].at, depart1 + config_.latency);
  EXPECT_EQ(received_[1].at, depart1 + TxTime(second.size()) + config_.latency);
}

TEST_F(TrunkTest, OutputsBeyondQueueLimitAreTailDropped) {
  Build({.bit_rate = 3'000'000, .latency = 1'000'000, .queue_limit = 3});
  At(kStart, [&] {
    for (std::uint16_t id = 1; id <= 5; ++id) {
      Send(Datagram(5, id));
    }
  });
  Run();
  EXPECT_EQ(a_if_->stats().opackets, 3u);
  EXPECT_EQ(a_if_->stats().odrops, 2u);
  ASSERT_EQ(received_.size(), 3u);
  // The first three got through, in order; the tail was dropped.
  for (std::uint16_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(received_[id - 1].datagram, Datagram(5, id));
  }
}

TEST_F(TrunkTest, InflightSlotFreesWhenTheLastBitDeparts) {
  Build({.bit_rate = 3'000'000, .latency = 1'000'000, .queue_limit = 1});
  const Bytes dgram = Datagram(5);
  const SimTime tx = TxTime(dgram.size());
  At(kStart, [&] {
    Send(Datagram(5, 1));
    // Scheduled after the completion event, so at kStart + tx it runs
    // second: one ns earlier the slot is still taken.
    At(kStart + tx - 1, [&] { Send(Datagram(5, 2)); });
    At(kStart + tx, [&] { Send(Datagram(5, 3)); });
  });
  Run();
  EXPECT_EQ(a_if_->stats().odrops, 1u);
  EXPECT_EQ(a_if_->stats().opackets, 2u);
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].datagram, Datagram(5, 1));
  EXPECT_EQ(received_[1].datagram, Datagram(5, 3));
  // The slot frees at departure, long before the first datagram arrives.
  EXPECT_EQ(received_[1].at, kStart + 2 * tx + config_.latency);
}

TEST_F(TrunkTest, DownLinkCountsOutputErrors) {
  Build();
  a_if_->SetUp(false);
  At(kStart, [&] { Send(Datagram(5)); });
  Run();
  EXPECT_EQ(a_if_->stats().oerrors, 1u);
  EXPECT_EQ(a_if_->stats().opackets, 0u);
  EXPECT_EQ(shards_->stats().posted, 0u);
  EXPECT_TRUE(received_.empty());
}

TEST_F(TrunkTest, DownReceiverCountsInputErrors) {
  Build();
  b_if_->SetUp(false);
  At(kStart, [&] { Send(Datagram(5)); });
  Run();
  EXPECT_EQ(a_if_->stats().opackets, 1u);
  EXPECT_EQ(b_if_->stats().ierrors, 1u);
  EXPECT_EQ(b_if_->stats().ipackets, 0u);
  EXPECT_TRUE(received_.empty());
}

// The perfbench buf.* metrics count this: a hop flattens the datagram out of
// its headroom-carrying buffer once (one counted alloc and copy on the
// sending side); the receiving side adopts the bytes without a counted copy
// or alloc.
TEST_F(TrunkTest, OneHopCountsOneCopyAndNoReceiveSideAlloc) {
  Build();
  const Bytes dgram = Datagram(40);
  BufLayerStats sent;
  At(kStart, [&] {
    PacketBuf pb = PacketBuf::FromBytes(dgram);
    ResetBufStats();
    a_if_->Output(std::move(pb), kIpB);
    sent = BufStatsTotal();
    ResetBufStats();
  });
  Run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(sent.bytes_copied, dgram.size());
  EXPECT_EQ(sent.allocs, 1u);
  EXPECT_EQ(buf_at_delivery_.bytes_copied, 0u);
  EXPECT_EQ(buf_at_delivery_.allocs, 0u);
}

}  // namespace
}  // namespace upr
