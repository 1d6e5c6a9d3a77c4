// upr::topo — seeded city-scale AMPRnet topology generator (ISSUE 8).
//
// The paper's testbed is a handful of Seattle–Tacoma hosts behind one
// gateway. This module scales that pattern to a regional network: C radio
// channels (one per frequency/locale), each carrying S full radio stations
// (the same Radio—TNC—RS-232—DZ—Host pipeline the Testbed builds), one or
// two digipeaters, and a gateway host with one foot on the channel and
// point-to-point backbone trunks to other gateways — a ring plus cross-town
// chords, the IP-layer rendering of a NET/ROM backbone. Addressing follows
// the AMPRnet plan: channel c is net 44.c.0.0/16 (gateway .0.1, stations
// .1.x up), trunks are /30s in net 10. Static routes come from per-
// destination BFS over the trunk graph (deterministic tie-break: lowest
// neighbor index), so every station can reach every other through at most a
// few gateway hops.
//
// Sharding: channel c *is* shard c. Every component of a channel — its
// RadioChannel, stations, digipeaters, gateway stack — runs on
// ShardSet::shard(c); the only cross-shard edges are the trunks, whose
// latency therefore lower-bounds the conservative lookahead. The generator
// derives lookahead = min trunk latency.
//
// Traffic: every station runs a seeded periodic ICMP ping driver — most
// ping their local gateway, every fourth station pings a station on another
// channel (exercising the backbone), and every sixteenth reaches its
// gateway through a digipeater path. All randomness is per-station
// (MixSeed), consumed only on the station's own shard, so the schedule is
// identical at every thread count.
#ifndef SRC_SCENARIO_TOPO_GEN_H_
#define SRC_SCENARIO_TOPO_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/net/trunk_link.h"
#include "src/radio/channel.h"
#include "src/radio/digipeater.h"
#include "src/scenario/testbed.h"
#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"

namespace upr::topo {

// A `--topo city:<channels>x<stations>` spec. Limits keep the address plan
// honest: channels fit the 44.<c> second octet, stations fit 44.c.1.x up.
struct CitySpec {
  std::size_t channels = 0;
  std::size_t stations = 0;  // per channel
};
inline constexpr std::size_t kMaxChannels = 250;
inline constexpr std::size_t kMaxStationsPerChannel = 2000;

// Parses "city:<C>x<S>". On failure returns false and sets `error` to a
// one-line reason (the caller prints usage and exits 2).
bool ParseCitySpec(std::string_view text, CitySpec* out, std::string* error);

struct CityConfig {
  CitySpec spec;
  // Kept only because perfbench sets it. Nothing reads it: the executor
  // depends on `threads` alone.
  ShardSet::Mode mode = ShardSet::Mode::kSharded;
  int threads = 1;
  std::uint64_t seed = 42;

  std::uint64_t radio_bit_rate = 9600;
  std::uint32_t serial_baud = 19200;
  SerialLineConfig serial;  // baud overridden by serial_baud
  MacParams mac;

  std::uint64_t trunk_bit_rate = 1'000'000;
  SimTime trunk_latency = Milliseconds(5);

  SimTime ping_period = Seconds(2);
  std::size_t ping_payload = 32;
  SimTime ping_timeout = Seconds(30);
};

// Per-channel traffic counters; written only by events on that channel's
// shard, aggregated after the run.
struct ChannelTraffic {
  std::uint64_t pings_sent = 0;
  std::uint64_t pings_ok = 0;
  std::uint64_t pings_failed = 0;
};

class CityTopology {
 public:
  explicit CityTopology(const CityConfig& config);
  ~CityTopology();
  CityTopology(const CityTopology&) = delete;
  CityTopology& operator=(const CityTopology&) = delete;

  ShardSet& shards() { return *shards_; }
  const CityConfig& config() const { return config_; }
  SimTime lookahead() const;

  std::size_t channel_count() const { return cells_.size(); }
  std::size_t station_count() const;     // excluding gateways
  std::size_t gateway_count() const { return cells_.size(); }
  std::size_t digipeater_count() const;
  std::size_t trunk_count() const { return trunk_edges_.size(); }

  RadioStation& gateway(std::size_t c) { return *cells_[c]->gateway; }
  RadioStation& station(std::size_t c, std::size_t i) {
    return *cells_[c]->stations[i];
  }
  RadioChannel& channel(std::size_t c) { return *cells_[c]->channel; }

  // True when the trunk graph reaches every gateway from gateway 0 (the
  // "connected NET/ROM backbone" gate).
  bool BackboneConnected() const;

  // Runs the topology up to `duration` of simulated time.
  // Returns events executed.
  std::size_t Run(SimTime duration);

  const ChannelTraffic& traffic(std::size_t c) const {
    return cells_[c]->traffic;
  }
  ChannelTraffic TrafficTotal() const;

  // Deterministic per-channel summary (pings, gateway interface counters,
  // per-shard event counts) — the artifact the parallel two-run determinism
  // gate compares byte-for-byte.
  std::string FormatSummary() const;

  // Addressing plan.
  static IpV4Address GatewayIp(std::size_t c);
  static IpV4Address StationIp(std::size_t c, std::size_t i);
  static Ax25Address GatewayCall(std::size_t c);
  static Ax25Address StationCall(std::size_t i);
  static Ax25Address DigiCall(std::size_t c, std::size_t d);

 private:
  struct Cell {
    std::unique_ptr<RadioChannel> channel;
    std::unique_ptr<RadioStation> gateway;
    std::vector<std::unique_ptr<RadioStation>> stations;
    std::vector<std::unique_ptr<Digipeater>> digis;
    std::vector<TrunkLink*> trunk_ifs;  // owned by the gateway stack
    std::vector<Rng> station_rngs;      // one per station ping driver
    ChannelTraffic traffic;
  };

  struct TrunkEdge {
    std::size_t a = 0;
    std::size_t b = 0;
    TrunkLink* a_if = nullptr;
    TrunkLink* b_if = nullptr;
    IpV4Address a_ip;
    IpV4Address b_ip;
  };

  void BuildCell(std::size_t c);
  void BuildBackbone();
  void BuildRoutes();
  void InstallTraffic();
  void SchedulePing(std::size_t c, std::size_t i, bool first);
  IpV4Address PingTarget(std::size_t c, std::size_t i) const;

  CityConfig config_;
  std::unique_ptr<ShardSet> shards_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<TrunkEdge> trunk_edges_;
  // Gateway graph: (neighbor, trunk edge index) pairs, ascending.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adjacency_;
};

}  // namespace upr::topo

#endif  // SRC_SCENARIO_TOPO_GEN_H_
