#include "perfbench/src/scenario.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>

#include "src/net/netstack.h"
#include "src/scenario/testbed.h"
#include "src/scenario/topo_gen.h"
#include "src/scenario/vc_station.h"
#include "src/util/packet_buf.h"
#include "src/util/random.h"

namespace perfbench {

namespace {

using upr::SimTime;
using Clock = std::chrono::steady_clock;

std::uint64_t NsSince(Clock::time_point* mark) {
  const Clock::time_point now = Clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - *mark).count();
  *mark = now;
  return static_cast<std::uint64_t>(ns);
}

std::uint64_t IpDrops(const upr::IpStats& s) {
  return s.input_drops + s.header_errors + s.no_route + s.ttl_expired +
         s.no_protocol + s.filtered + s.reassembly_failures + s.cant_fragment;
}

void AddStack(const upr::NetStack& stack, LayerCounts* c) {
  const upr::IpStats& ip = stack.ip_stats();
  c->ip_forwarded += ip.forwarded;
  c->ip_delivered += ip.delivered;
  c->ip_drops += IpDrops(ip);
  for (const auto& itf : stack.interfaces()) {
    c->if_odrops += itf->stats().odrops;
  }
}

void AddSerial(const upr::SerialLine& line, LayerCounts* c) {
  c->serial_events += line.a().events_scheduled() + line.b().events_scheduled();
  c->serial_dropped_bytes += line.a().bytes_dropped() + line.b().bytes_dropped();
}

void AddTnc(upr::KissTnc& tnc, LayerCounts* c) {
  c->tnc_frames_to_host += tnc.frames_to_host();
  c->serial_frames += tnc.frames_to_host() + tnc.frames_from_host();
  const upr::RadioPort* port = tnc.radio_port();
  c->radio_receptions += port->frames_received();
  c->radio_half_duplex_misses += port->half_duplex_misses();
}

void AddDriver(const upr::PacketRadioInterface& drv, LayerCounts* c) {
  const upr::DriverStats& d = drv.driver_stats();
  c->driver_frames_for_host +=
      d.frames_in - d.frames_not_for_us - d.frames_in_transit;
}

void AddBufStats(LayerCounts* c) {
  const upr::BufLayerStats buf = upr::BufStatsTotal();
  c->buf_bytes_copied = buf.bytes_copied;
  c->buf_allocs = buf.allocs;
  c->buf_pool_hits = upr::BufPoolSnapshot().hits;
}

// Packet-buffer counters and the slab free list are per thread and outlive a
// scenario; every repetition starts them from zero so repetitions repeat.
void ResetBufState() {
  upr::ResetBufStats();
  upr::DrainBufPool();
}

// --- City -------------------------------------------------------------------

class CityRep : public Rep {
 public:
  CityRep(const Workload& w, std::uint64_t seed, upr::ShardSet::Mode mode) {
    ResetBufState();
    const CityKnobs& k = w.city;
    upr::topo::CityConfig cfg;
    cfg.spec = upr::topo::CitySpec{k.channels, k.stations};
    cfg.mode = mode;
    cfg.threads = mode == upr::ShardSet::Mode::kParallel ? k.threads : 1;
    cfg.seed = seed;
    cfg.radio_bit_rate = k.radio_bit_rate;
    cfg.serial_baud = k.serial_baud;
    cfg.serial = k.serial;
    cfg.mac = k.mac;
    cfg.trunk_bit_rate = k.trunk_bit_rate;
    cfg.trunk_latency = k.trunk_latency;
    cfg.ping_period = k.ping_period;
    cfg.ping_payload = k.ping_payload;
    cfg.ping_timeout = k.ping_timeout;
    city_ = std::make_unique<upr::topo::CityTopology>(cfg);
  }

  void Advance(SimTime until) override { city_->Run(until); }

  // The serial merge, one event at a time: always run the earliest (time,
  // shard) event, ties to the lowest shard — the rule ShardSet's own merge
  // pins. Each shard has at most one live entry in a lazy heap (`queued`
  // holds its time; other entries are stale and dropped on pop). A
  // cross-shard post lands directly in another shard's queue, so whenever
  // the handoff counter moves every shard is re-peeked.
  void AdvanceTimed(SimTime until, MergeTimers* t) override {
    upr::ShardSet& set = city_->shards();
    const std::size_t n = set.shard_count();
    constexpr SimTime kNone = -1;
    using Entry = std::pair<SimTime, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    std::vector<SimTime> queued(n, kNone);
    Clock::time_point mark;
    // Peeks shard k and queues it when its next event time changed.
    auto refresh = [&](std::size_t k) {
      SimTime when;
      mark = Clock::now();
      const bool has = set.shard(k)->NextEventTime(&when);
      t->peek_ns += NsSince(&mark);
      ++t->peeks;
      const SimTime next = has ? when : kNone;
      if (next != queued[k]) {
        queued[k] = next;
        if (has) {
          heap.push({when, k});
        }
      }
    };
    for (std::size_t k = 0; k < n; ++k) {
      refresh(k);
    }
    while (!heap.empty()) {
      const auto [when, k] = heap.top();
      if (when > until) {
        break;
      }
      heap.pop();
      if (when != queued[k]) {
        continue;  // stale
      }
      const std::uint64_t posted = set.stats().posted;
      mark = Clock::now();
      set.shard(k)->Step();
      t->step_ns += NsSince(&mark);
      ++t->steps;
      queued[k] = kNone;
      refresh(k);
      if (set.stats().posted != posted) {
        for (std::size_t j = 0; j < n; ++j) {
          refresh(j);
        }
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      set.shard(k)->RunUntil(until);  // settle every shard clock
    }
  }

  Ops ops() const override {
    const upr::topo::ChannelTraffic total = city_->TrafficTotal();
    return Ops{total.pings_sent, total.pings_ok};
  }

  LayerCounts Counts() const override {
    upr::topo::CityTopology& city = *city_;
    LayerCounts c;
    upr::ShardSet& set = city.shards();
    c.sim_events = set.TotalEventsExecuted();
    for (std::size_t k = 0; k < set.shard_count(); ++k) {
      c.sim_pool_peak += set.shard(k)->pool_capacity();
    }
    const upr::ShardStats ss = set.stats();
    c.shard_windows = ss.windows;
    c.shard_handoffs = ss.posted;
    c.shard_ring_overflow = ss.ring_overflow;
    for (std::size_t ch = 0; ch < city.channel_count(); ++ch) {
      c.radio_transmissions += city.channel(ch).transmissions();
      c.radio_collisions += city.channel(ch).collisions();
      AddStation(city.gateway(ch), &c);
      for (std::size_t i = 0; i < city.config().spec.stations; ++i) {
        AddStation(city.station(ch, i), &c);
      }
    }
    AddBufStats(&c);
    return c;
  }

  std::string Fingerprint() const override {
    char line[128];
    std::snprintf(line, sizeof(line), "events %zu\n",
                  city_->shards().TotalEventsExecuted());
    return line + city_->FormatSummary();
  }

  bool OutputsOk(std::string* why) const override {
    if (!city_->BackboneConnected()) {
      *why = "generated backbone is not connected";
      return false;
    }
    const upr::topo::ChannelTraffic t = city_->TrafficTotal();
    if (t.pings_ok + t.pings_failed > t.pings_sent) {
      *why = "more ping outcomes than pings sent";
      return false;
    }
    return true;
  }

  std::vector<upr::RadioChannel*> Channels() override {
    std::vector<upr::RadioChannel*> out;
    for (std::size_t ch = 0; ch < city_->channel_count(); ++ch) {
      out.push_back(&city_->channel(ch));
    }
    return out;
  }

 private:
  static void AddStation(upr::RadioStation& st, LayerCounts* c) {
    AddSerial(st.serial(), c);
    AddTnc(st.tnc(), c);
    AddDriver(*st.radio_if(), c);
    AddStack(st.stack(), c);
  }

  std::unique_ptr<upr::topo::CityTopology> city_;
};

// --- vc-bulk ----------------------------------------------------------------

// Transfer n is an 8-byte little-endian header carrying n, then a body whose
// bytes are a function of (seed, n, offset): the receiver can verify every
// byte in order without keeping a copy.
std::uint8_t PatternByte(std::uint64_t key, std::size_t offset) {
  std::uint64_t x = key + 0x9E3779B97F4A7C15ULL * (offset / 8 + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint8_t>(x >> (8 * (offset % 8)));
}

constexpr std::size_t kHeaderBytes = 8;

class VcRep : public Rep {
 public:
  VcRep(const Workload& w, std::uint64_t seed)
      : knobs_(w.vc),
        pattern_key_(upr::MixSeed(seed, "vc-bulk-pattern")),
        channel_(&sim_, ChannelConfig(w.vc), upr::MixSeed(seed, "vc-bulk-ch")) {
    ResetBufState();
    a_ = MakeStation("vca", "KD7AA", upr::IpV4Address(44, 24, 11, 1),
                     upr::MixSeed(seed, "vc-bulk-a"));
    b_ = MakeStation("vcb", "KD7AB", upr::IpV4Address(44, 24, 11, 2),
                     upr::MixSeed(seed, "vc-bulk-b"));
    a_->vc()->MapIpToCallsign(kIpB, b_->callsign());
    b_->vc()->MapIpToCallsign(kIpA, a_->callsign());
    b_->tcp().Listen(knobs_.port,
                     [this](upr::TcpConnection* c) { Accept(c); });
    Open();
  }

  void Advance(SimTime until) override {
    sim_.RunUntil(until);
    Reap();
  }

  void AdvanceTimed(SimTime until, MergeTimers* t) override {
    Clock::time_point mark = Clock::now();
    for (;;) {
      SimTime when;
      const bool has = sim_.NextEventTime(&when);
      t->peek_ns += NsSince(&mark);
      ++t->peeks;
      if (!has || when > until) {
        break;
      }
      sim_.Step();
      t->step_ns += NsSince(&mark);
      ++t->steps;
    }
    sim_.RunUntil(until);  // settle the clock at the slice edge
    Reap();
  }

  Ops ops() const override { return Ops{started_, verified_}; }

  LayerCounts Counts() const override {
    LayerCounts c;
    c.sim_events = sim_.executed_events();
    c.sim_pool_peak = sim_.pool_capacity();
    c.radio_transmissions = channel_.transmissions();
    c.radio_collisions = channel_.collisions();
    c.tcp_retransmissions = closed_tcp_.retransmissions;
    c.tcp_spurious_retransmissions = closed_tcp_.spurious_retransmissions;
    for (const upr::TcpConnection* conn : live_) {
      c.tcp_retransmissions += conn->stats().retransmissions;
      c.tcp_spurious_retransmissions += conn->stats().spurious_retransmissions;
    }
    for (upr::VcStation* st : {a_.get(), b_.get()}) {
      AddSerial(st->serial(), &c);
      AddTnc(st->tnc(), &c);
      AddDriver(*st->driver(), &c);
      AddStack(st->stack(), &c);
      st->vc()->link().VisitConnections([&c](const upr::Ax25Connection& conn) {
        c.lapb_i_sent += conn.i_frames_sent();
        c.lapb_i_resent += conn.i_frames_resent();
      });
    }
    AddBufStats(&c);
    return c;
  }

  std::string Fingerprint() const override {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "events %zu\ntransfers started %llu verified %llu "
                  "aborted %llu\nbytes verified %llu\n",
                  sim_.executed_events(),
                  static_cast<unsigned long long>(started_),
                  static_cast<unsigned long long>(verified_),
                  static_cast<unsigned long long>(aborted_),
                  static_cast<unsigned long long>(bytes_verified_));
    return line;
  }

  bool OutputsOk(std::string* why) const override {
    if (!check_error_.empty()) {
      *why = check_error_;
      return false;
    }
    return true;
  }

  std::vector<upr::RadioChannel*> Channels() override { return {&channel_}; }

 private:
  static inline const upr::IpV4Address kIpA{44, 24, 11, 1};
  static inline const upr::IpV4Address kIpB{44, 24, 11, 2};

  // Receiver-side state of one accepted connection.
  struct Inbound {
    std::uint64_t offset = 0;    // stream bytes received
    std::uint64_t transfer = 0;  // header of the transfer being received
    bool bad = false;
  };

  static upr::RadioChannelConfig ChannelConfig(const VcKnobs& k) {
    upr::RadioChannelConfig rc;
    rc.bit_rate = k.radio_bit_rate;
    rc.loss_rate = 0.0;
    rc.bit_error_rate = 0.0;
    rc.propagation_delay = 0;
    return rc;
  }

  std::unique_ptr<upr::VcStation> MakeStation(const char* name, const char* call,
                                              upr::IpV4Address ip,
                                              std::uint64_t seed) {
    upr::VcStationConfig cfg;
    cfg.name = name;
    cfg.callsign = call;
    cfg.ip = ip;
    cfg.prefix_len = 24;
    cfg.serial_baud = knobs_.serial_baud;
    cfg.link = knobs_.link;
    cfg.tcp = knobs_.tcp;
    cfg.mac = knobs_.mac;
    cfg.seed = seed;
    return std::make_unique<upr::VcStation>(&sim_, &channel_, cfg);
  }

  upr::Bytes TransferBytes(std::uint64_t n) const {
    upr::Bytes data(knobs_.transfer_bytes);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = i < kHeaderBytes ? static_cast<std::uint8_t>(n >> (8 * i))
                                 : PatternByte(pattern_key_ ^ n, i);
    }
    return data;
  }

  // One TCP connection carries the transfers back to back; transfer n is
  // written the moment transfer n - 1 has been delivered and verified. If
  // the connection dies, the transfer on it is lost and a new connection
  // carries the next one.
  void Open() {
    upr::TcpConnection* conn = a_->tcp().Connect(kIpB, knobs_.port);
    if (conn == nullptr) {
      check_error_ = "no route to the receiver";
      return;
    }
    conn_ = conn;
    Track(conn);
    conn->set_connected_handler([this] { SendNext(); });
    conn->set_error_handler([this, conn](const std::string&) {
      if (conn != conn_) {
        return;
      }
      conn_ = nullptr;
      if (in_flight_) {
        in_flight_ = false;
        ++aborted_;
      }
      sim_.Schedule(0, [this] { Open(); });
    });
  }

  void SendNext() {
    const std::uint64_t n = started_++;
    in_flight_ = true;
    if (conn_->Send(TransferBytes(n)) != knobs_.transfer_bytes) {
      check_error_ = "send buffer refused transfer " + std::to_string(n);
    }
  }

  void Accept(upr::TcpConnection* c) {
    Track(c);
    auto in = std::make_shared<Inbound>();
    c->set_data_handler([this, in](const upr::Bytes& d) {
      const std::size_t size = knobs_.transfer_bytes;
      for (std::uint8_t byte : d) {
        const std::size_t i = in->offset++ % size;
        if (i == 0) {
          in->transfer = 0;
          in->bad = false;
        }
        if (i < kHeaderBytes) {
          in->transfer |= static_cast<std::uint64_t>(byte) << (8 * i);
        } else if (byte != PatternByte(pattern_key_ ^ in->transfer, i)) {
          in->bad = true;
        }
        if (i + 1 == size) {
          Delivered(*in);
        }
      }
    });
  }

  void Delivered(const Inbound& in) {
    if (in.bad || in.transfer + 1 != started_ || !in_flight_) {
      check_error_ = "transfer " + std::to_string(in.transfer) +
                     " delivered out of order or with wrong bytes";
      return;
    }
    in_flight_ = false;
    ++verified_;
    bytes_verified_ += knobs_.transfer_bytes;
    sim_.Schedule(0, [this] {
      if (conn_ != nullptr) {
        SendNext();
      }
    });
  }

  // Connections are reaped between slices; their statistics are folded in
  // when they close so the totals cover every transfer.
  void Track(upr::TcpConnection* c) {
    live_.push_back(c);
    c->set_closed_handler([this, c] {
      closed_tcp_.retransmissions += c->stats().retransmissions;
      closed_tcp_.spurious_retransmissions +=
          c->stats().spurious_retransmissions;
      live_.erase(std::find(live_.begin(), live_.end(), c));
    });
  }

  void Reap() {
    a_->tcp().ReapClosed();
    b_->tcp().ReapClosed();
  }

  const VcKnobs knobs_;
  const std::uint64_t pattern_key_;
  upr::Simulator sim_;
  upr::RadioChannel channel_;
  std::unique_ptr<upr::VcStation> a_;
  std::unique_ptr<upr::VcStation> b_;

  std::uint64_t started_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t aborted_ = 0;
  bool in_flight_ = false;  // transfer started_ - 1 neither verified nor aborted
  upr::TcpConnection* conn_ = nullptr;  // the sender's live connection
  std::uint64_t bytes_verified_ = 0;
  std::string check_error_;
  std::vector<upr::TcpConnection*> live_;  // not yet closed
  upr::TcpConnectionStats closed_tcp_;
};

}  // namespace

std::unique_ptr<Rep> Rep::Make(const Workload& w, std::uint64_t seed,
                               upr::ShardSet::Mode mode) {
  if (w.kind == Workload::Kind::kVc) {
    return std::make_unique<VcRep>(w, seed);
  }
  return std::make_unique<CityRep>(w, seed, mode);
}

}  // namespace perfbench
