// Property suites for the IP machinery: fragmentation/reassembly must be a
// lossless identity for any payload size and MTU, longest-prefix routing
// must agree with a brute-force oracle, and checksums must satisfy their
// algebraic properties.
#include <gtest/gtest.h>

#include <tuple>

#include "src/net/netstack.h"
#include "src/net/routing.h"
#include "src/sim/simulator.h"
#include "src/util/crc.h"
#include "src/util/random.h"

namespace upr {
namespace {

// An in-memory interface pair: everything A outputs is fed to B's stack.
class PipeInterface : public NetInterface {
 public:
  PipeInterface(std::string name, std::size_t mtu) : NetInterface(std::move(name), mtu) {}
  void Output(PacketBuf&& dgram, IpV4Address next_hop) override {
    if (peer_ != nullptr) {
      peer_->DeliverToStack(std::move(dgram));
    }
  }
  void set_peer(PipeInterface* peer) { peer_ = peer; }

 private:
  PipeInterface* peer_ = nullptr;
};

class FragmentationProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t /*mtu*/, std::uint64_t>> {};

TEST_P(FragmentationProperty, FragmentReassembleIdentity) {
  std::size_t mtu = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  Simulator sim;
  NetStack a(&sim, "a"), b(&sim, "b");
  auto ia = std::make_unique<PipeInterface>("p0", mtu);
  ia->Configure(IpV4Address(10, 0, 0, 1), 24);
  auto ib = std::make_unique<PipeInterface>("p0", mtu);
  ib->Configure(IpV4Address(10, 0, 0, 2), 24);
  ia->set_peer(ib.get());
  ib->set_peer(ia.get());
  a.AddInterface(std::move(ia));
  b.AddInterface(std::move(ib));
  // The pipe has no wire time, so a heavily fragmented datagram lands on the
  // input queue in one burst; lift the IFQ cap (4000 B at MTU 68 is ~84
  // fragments) — queue-overflow behaviour is covered by NetStackTest.
  b.set_input_queue_limit(256);

  Bytes got;
  int deliveries = 0;
  b.RegisterProtocol(99, [&](const Ipv4Header&, ByteView p, NetInterface*) {
    got.assign(p.begin(), p.end());
    ++deliveries;
  });

  for (int iter = 0; iter < 30; ++iter) {
    std::size_t len = rng.NextBelow(4000) + 1;
    Bytes payload(len);
    for (std::size_t i = 0; i < len; ++i) {
      payload[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    got.clear();
    deliveries = 0;
    ASSERT_TRUE(a.SendDatagram(IpV4Address(10, 0, 0, 2), 99, PacketBuf::FromBytes(payload)));
    sim.RunAll();
    ASSERT_EQ(deliveries, 1) << "len=" << len << " mtu=" << mtu;
    EXPECT_EQ(got, payload) << "len=" << len << " mtu=" << mtu;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MtuSweep, FragmentationProperty,
    ::testing::Combine(::testing::Values(68u, 256u, 576u, 1500u),
                       ::testing::Values(9ull, 10ull)),
    [](const auto& param_info) {
      return "mtu" + std::to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, LongestPrefixMatchesBruteForceOracle) {
  Rng rng(GetParam());
  Simulator sim;
  NetStack stack(&sim, "r");
  auto iface = std::make_unique<PipeInterface>("p0", 1500);
  PipeInterface* ifp = iface.get();
  stack.AddInterface(std::move(iface));

  RouteTable table;
  struct Entry {
    IpV4Prefix prefix;
    int metric;
  };
  std::vector<Entry> oracle;
  for (int i = 0; i < 60; ++i) {
    int plen = static_cast<int>(rng.NextBelow(33));
    IpV4Address addr(static_cast<std::uint32_t>(rng.NextU64()));
    auto prefix = IpV4Prefix::FromCidr(addr, plen);
    int metric = static_cast<int>(rng.NextBelow(4));
    table.AddDirect(prefix, ifp, metric);
    oracle.push_back({prefix, metric});
  }

  for (int probe = 0; probe < 2000; ++probe) {
    IpV4Address dst(static_cast<std::uint32_t>(rng.NextU64()));
    // Oracle: best = longest mask, tie by min metric, tie by first inserted.
    const Entry* best = nullptr;
    for (const auto& e : oracle) {
      if (!e.prefix.Contains(dst)) {
        continue;
      }
      if (best == nullptr || e.prefix.mask > best->prefix.mask ||
          (e.prefix.mask == best->prefix.mask && e.metric < best->metric)) {
        best = &e;
      }
    }
    const Route* found = table.Lookup(dst);
    if (best == nullptr) {
      EXPECT_EQ(found, nullptr);
    } else {
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->prefix.mask, best->prefix.mask);
      EXPECT_EQ(found->metric, best->metric);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty, ::testing::Values(41, 42, 43, 44));

class ChecksumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChecksumProperty, InternetChecksumVerifiesToZero) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    std::size_t len = rng.NextBelow(200) + 2;
    if (len % 2 != 0) {
      ++len;  // keep a dedicated 16-bit slot for the checksum
    }
    Bytes data(len);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    data[len - 2] = 0;
    data[len - 1] = 0;
    std::uint16_t sum = InternetChecksum(data);
    data[len - 2] = static_cast<std::uint8_t>(sum >> 8);
    data[len - 1] = static_cast<std::uint8_t>(sum & 0xFF);
    EXPECT_EQ(InternetChecksum(data), 0);
  }
}

TEST_P(ChecksumProperty, PartialSumsCompose) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    std::size_t len = (rng.NextBelow(100) + 1) * 2;  // even split point
    Bytes data(len * 2);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    std::uint32_t whole = ChecksumPartial(data.data(), data.size());
    std::uint32_t split = ChecksumPartial(data.data() + len, data.size() - len,
                                          ChecksumPartial(data.data(), len));
    EXPECT_EQ(ChecksumFinish(whole), ChecksumFinish(split));
  }
}

TEST_P(ChecksumProperty, Crc16DetectsAllSingleAndDoubleBitErrors) {
  Rng rng(GetParam());
  Bytes frame(64);
  for (auto& b : frame) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  std::uint16_t good = Crc16Ccitt(frame);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = frame;
    std::size_t bit1 = rng.NextBelow(frame.size() * 8);
    mutated[bit1 / 8] ^= static_cast<std::uint8_t>(1u << (bit1 % 8));
    if (rng.Chance(0.5)) {
      std::size_t bit2 = rng.NextBelow(frame.size() * 8);
      if (bit2 != bit1) {
        mutated[bit2 / 8] ^= static_cast<std::uint8_t>(1u << (bit2 % 8));
      }
    }
    if (mutated != frame) {
      EXPECT_NE(Crc16Ccitt(mutated), good);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumProperty, ::testing::Values(71, 72, 73));

// --- Simulator stress ---------------------------------------------------------

class SimulatorStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorStress, RandomScheduleCancelPreservesOrdering) {
  Rng rng(GetParam());
  Simulator sim;
  SimTime last_seen = -1;
  std::size_t executed = 0;
  std::vector<std::uint64_t> cancellable;
  for (int i = 0; i < 20000; ++i) {
    SimTime when = static_cast<SimTime>(rng.NextBelow(1'000'000'000));
    auto id = sim.ScheduleAt(when, [&, when] {
      EXPECT_GE(when, last_seen);
      last_seen = when;
      ++executed;
    });
    if (rng.Chance(0.25)) {
      cancellable.push_back(id);
    }
  }
  std::size_t cancelled = 0;
  for (auto id : cancellable) {
    sim.Cancel(id);
    ++cancelled;
  }
  sim.RunAll();
  EXPECT_EQ(executed, 20000u - cancelled);
  EXPECT_TRUE(sim.Idle());
}

TEST_P(SimulatorStress, TimersUnderChurn) {
  Rng rng(GetParam());
  Simulator sim;
  constexpr int kTimers = 200;
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<int> fire_counts(kTimers, 0);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(&sim, [&fire_counts, i] {
      ++fire_counts[static_cast<std::size_t>(i)];
    }));
  }
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kTimers; ++i) {
      double action = rng.NextDouble();
      if (action < 0.5) {
        timers[static_cast<std::size_t>(i)]->Restart(
            static_cast<SimTime>(rng.NextBelow(1000) + 1));
      } else if (action < 0.7) {
        timers[static_cast<std::size_t>(i)]->Stop();
      }
    }
    sim.RunUntil(sim.Now() + 500);
  }
  sim.RunAll();
  // Every timer fired at most once per restart and none is still pending.
  EXPECT_TRUE(sim.Idle());
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_LE(fire_counts[static_cast<std::size_t>(i)], 50);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorStress, ::testing::Values(1001, 1002));

}  // namespace
}  // namespace upr
