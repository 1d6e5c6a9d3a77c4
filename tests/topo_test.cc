// Tests for the city-scale topology generator (ISSUE 8): spec parsing,
// golden seeded counts, the addressing plan, backbone connectivity, and
// thread-count equivalence of a short traffic run.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/net/routing.h"
#include "src/scenario/topo_gen.h"
#include "src/util/packet_buf.h"

namespace upr::topo {
namespace {

// ---------------------------------------------------------------------------
// ParseCitySpec

TEST(ParseCitySpec, AcceptsWellFormedSpecs) {
  CitySpec spec;
  std::string error;
  ASSERT_TRUE(ParseCitySpec("city:4x6", &spec, &error)) << error;
  EXPECT_EQ(spec.channels, 4u);
  EXPECT_EQ(spec.stations, 6u);

  ASSERT_TRUE(ParseCitySpec("city:1x1", &spec, &error)) << error;
  EXPECT_EQ(spec.channels, 1u);
  EXPECT_EQ(spec.stations, 1u);

  ASSERT_TRUE(ParseCitySpec("city:250x2000", &spec, &error)) << error;
  EXPECT_EQ(spec.channels, kMaxChannels);
  EXPECT_EQ(spec.stations, kMaxStationsPerChannel);
}

TEST(ParseCitySpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",            // empty
      "city",        // no colon
      "city:",       // no dimensions
      "city:4",      // missing 'x'
      "city:4x",     // missing stations
      "city:x6",     // missing channels
      "city:axb",    // not numbers
      "city:4x6x7",  // extra dimension
      "city:-1x5",   // sign
      "city:4 x6",   // embedded space
      "town:4x6",    // unknown scheme
      "city:0x5",    // zero channels
      "city:4x0",    // zero stations
      "city:251x5",  // channels over the 44.<c> octet plan
      "city:4x2001"  // stations over the per-channel address plan
  };
  for (const char* text : bad) {
    CitySpec spec;
    std::string error;
    EXPECT_FALSE(ParseCitySpec(text, &spec, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty()) << "no error for: " << text;
  }
}

// ---------------------------------------------------------------------------
// Golden seeded topology counts

CityConfig SmallConfig(std::size_t channels, std::size_t stations) {
  CityConfig cfg;
  cfg.spec = {channels, stations};
  cfg.seed = 42;
  return cfg;
}

TEST(CityTopology, GoldenCountsFourBySix) {
  CityTopology city(SmallConfig(4, 6));
  EXPECT_EQ(city.channel_count(), 4u);
  EXPECT_EQ(city.gateway_count(), 4u);
  EXPECT_EQ(city.station_count(), 24u);
  // 6 stations/channel is under the two-digi threshold: one per channel.
  EXPECT_EQ(city.digipeater_count(), 4u);
  // Ring (4 edges) plus the two cross-town chords 0-2 and 1-3.
  EXPECT_EQ(city.trunk_count(), 6u);
  EXPECT_TRUE(city.BackboneConnected());
  EXPECT_EQ(city.lookahead(), city.config().trunk_latency);
  EXPECT_EQ(city.shards().shard_count(), 4u);
}

TEST(CityTopology, GoldenCountsEightByEight) {
  CityTopology city(SmallConfig(8, 8));
  EXPECT_EQ(city.station_count(), 64u);
  // 8 stations/channel reaches the two-digi threshold.
  EXPECT_EQ(city.digipeater_count(), 16u);
  // Ring (8) plus chords 0-4, 1-5, 2-6, 3-7.
  EXPECT_EQ(city.trunk_count(), 12u);
  EXPECT_TRUE(city.BackboneConnected());
}

TEST(CityTopology, DegenerateBackbones) {
  CityTopology one(SmallConfig(1, 3));
  EXPECT_EQ(one.trunk_count(), 0u);
  EXPECT_TRUE(one.BackboneConnected());

  CityTopology two(SmallConfig(2, 3));
  EXPECT_EQ(two.trunk_count(), 1u);  // a pair gets one trunk, not two
  EXPECT_TRUE(two.BackboneConnected());

  CityTopology three(SmallConfig(3, 3));
  EXPECT_EQ(three.trunk_count(), 3u);  // triangle ring, no room for chords
  EXPECT_TRUE(three.BackboneConnected());
}

// Every gateway's route to every other channel leaves by the trunk to its
// parent in a BFS tree rooted at the destination, neighbours taken in
// ascending order. The test rebuilds the trunk graph from the gateways'
// own /30 trunk interfaces and runs its own BFS.
TEST(CityTopology, RoutesFollowBfsNextHop) {
  for (std::size_t channels : {5u, 8u}) {
    CityTopology city(SmallConfig(channels, 1));
    std::map<std::uint32_t, std::size_t> owner;  // trunk address -> gateway
    for (std::size_t g = 0; g < channels; ++g) {
      for (const auto& itf : city.gateway(g).stack().interfaces()) {
        if ((itf->address().value() >> 24) == 10) {
          owner[itf->address().value()] = g;
        }
      }
    }
    // A /30's two ends are .1 and .2: the peer of x is x ^ 3.
    std::vector<std::set<std::size_t>> neighbors(channels);
    for (const auto& [address, g] : owner) {
      neighbors[g].insert(owner.at(address ^ 3));
    }
    for (std::size_t d = 0; d < channels; ++d) {
      std::vector<std::size_t> parent(channels, channels);
      std::vector<std::size_t> queue{d};
      parent[d] = d;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (std::size_t n : neighbors[queue[head]]) {
          if (parent[n] == channels) {
            parent[n] = queue[head];
            queue.push_back(n);
          }
        }
      }
      for (std::size_t g = 0; g < channels; ++g) {
        if (g == d) {
          continue;
        }
        const Route* route = city.gateway(g).stack().routes().Lookup(
            CityTopology::StationIp(d, 0));
        ASSERT_NE(route, nullptr) << "gw" << g << " to ch" << d;
        ASSERT_TRUE(route->gateway.has_value()) << "gw" << g << " to ch" << d;
        EXPECT_EQ(owner.at(route->gateway->value()), parent[g])
            << "gw" << g << " to ch" << d;
        EXPECT_EQ(owner.at(route->interface->address().value()), g);
        EXPECT_EQ(route->interface->address().value() ^ 3,
                  route->gateway->value());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Addressing plan

TEST(CityTopology, AmprNetAddressPlan) {
  EXPECT_EQ(CityTopology::GatewayIp(0), IpV4Address(44, 0, 0, 1));
  EXPECT_EQ(CityTopology::GatewayIp(7), IpV4Address(44, 7, 0, 1));
  EXPECT_EQ(CityTopology::StationIp(2, 0), IpV4Address(44, 2, 1, 1));
  EXPECT_EQ(CityTopology::StationIp(2, 249), IpV4Address(44, 2, 1, 250));
  EXPECT_EQ(CityTopology::StationIp(2, 250), IpV4Address(44, 2, 2, 1));
  EXPECT_TRUE(CityTopology::StationIp(0, 1999).IsAmprNet());
}

TEST(CityTopology, CallsignsAreDistinct) {
  EXPECT_NE(CityTopology::GatewayCall(0), CityTopology::GatewayCall(1));
  EXPECT_NE(CityTopology::StationCall(0), CityTopology::StationCall(1));
  EXPECT_NE(CityTopology::DigiCall(0, 0), CityTopology::DigiCall(0, 1));
  EXPECT_NE(CityTopology::DigiCall(0, 0), CityTopology::DigiCall(1, 0));
}

// ---------------------------------------------------------------------------
// Traffic + thread-count equivalence

TEST(CityTopology, SeededRunGeneratesTraffic) {
  CityConfig cfg = SmallConfig(2, 3);
  cfg.radio_bit_rate = 9600;
  CityTopology city(cfg);
  city.Run(Seconds(5));
  const ChannelTraffic total = city.TrafficTotal();
  EXPECT_GT(total.pings_sent, 0u);
  EXPECT_GT(total.pings_ok, 0u);
  // Per-channel counters sum to the total.
  std::uint64_t sent = 0;
  for (std::size_t c = 0; c < city.channel_count(); ++c) {
    sent += city.traffic(c).pings_sent;
  }
  EXPECT_EQ(sent, total.pings_sent);
}

// The same seed must yield the same summary on one thread and on three,
// run to run.
TEST(CityTopology, ParallelSummaryMatchesSerialAndRepeats) {
  std::string serial;
  std::string parallel[2];
  for (int run = 0; run < 3; ++run) {
    CityConfig cfg = SmallConfig(3, 4);
    cfg.radio_bit_rate = 9600;
    if (run > 0) {
      cfg.threads = 3;
    }
    CityTopology city(cfg);
    city.Run(Seconds(8));
    if (run == 0) {
      serial = city.FormatSummary();
    } else {
      parallel[run - 1] = city.FormatSummary();
    }
  }
  EXPECT_EQ(parallel[0], serial);
  EXPECT_EQ(parallel[1], serial);
}

// A shard's buffer counters and slab pool live in its own context, so a
// city counts the same copies, allocations and pool traffic whichever
// thread ran each shard.
TEST(CityTopology, BufferCountersMatchAtEveryThreadCount) {
  struct Counts {
    BufLayerStats total;
    BufLayerStats ip;
    BufPoolStats pool;
    std::size_t parked = 0;
    std::size_t events = 0;
  };
  std::vector<Counts> runs;
  for (int threads = 1; threads <= 4; ++threads) {
    ResetBufStats();
    DrainBufPool();
    CityConfig cfg = SmallConfig(8, 4);
    cfg.seed = 7;
    cfg.threads = threads;
    cfg.trunk_latency = Milliseconds(50);
    cfg.ping_period = Seconds(10);
    CityTopology city(cfg);
    Counts c;
    c.events = city.Run(Seconds(120));
    c.total = BufStatsTotal();
    c.ip = BufStatsFor(BufLayer::kIp);
    c.pool = BufPoolSnapshot();
    c.parked = BufPoolDepth();
    runs.push_back(c);
  }
  ASSERT_GT(runs[0].total.bytes_copied, 0u);
  ASSERT_GT(runs[0].pool.hits, 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const Counts& a = runs[0];
    const Counts& b = runs[i];
    const int threads = static_cast<int>(i) + 1;
    EXPECT_EQ(b.events, a.events) << threads << " threads";
    EXPECT_EQ(b.total.bytes_copied, a.total.bytes_copied) << threads << " threads";
    EXPECT_EQ(b.total.allocs, a.total.allocs) << threads << " threads";
    EXPECT_EQ(b.total.prepend_reallocs, a.total.prepend_reallocs)
        << threads << " threads";
    EXPECT_EQ(b.ip.bytes_copied, a.ip.bytes_copied) << threads << " threads";
    EXPECT_EQ(b.pool.hits, a.pool.hits) << threads << " threads";
    EXPECT_EQ(b.pool.misses, a.pool.misses) << threads << " threads";
    EXPECT_EQ(b.pool.oversize, a.pool.oversize) << threads << " threads";
    EXPECT_EQ(b.pool.recycled, a.pool.recycled) << threads << " threads";
    EXPECT_EQ(b.pool.dropped, a.pool.dropped) << threads << " threads";
    EXPECT_EQ(b.parked, a.parked) << threads << " threads";
  }
}

}  // namespace
}  // namespace upr::topo
