// Tests for the city-scale topology generator (ISSUE 8): spec parsing,
// golden seeded counts, the addressing plan, backbone connectivity, and
// thread-count equivalence of a short traffic run.
#include <gtest/gtest.h>

#include <string>

#include "src/scenario/topo_gen.h"

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

}  // namespace
}  // namespace upr::topo
