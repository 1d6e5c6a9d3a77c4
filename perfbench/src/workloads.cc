#include "perfbench/src/workloads.h"

#include <cstdio>

namespace perfbench {

namespace {

using upr::Milliseconds;
using upr::Seconds;
using upr::SimTime;

// Stock KISS MAC timing, spelled out: TXDELAY 300 ms, TXTAIL 20 ms,
// SLOTTIME 100 ms, P = 64/256, half duplex, 30 ms decision-to-RF turnaround.
upr::MacParams CityMac() {
  upr::MacParams mac;
  mac.tx_delay = Milliseconds(300);
  mac.tx_tail = Milliseconds(20);
  mac.slot_time = Milliseconds(100);
  mac.persistence = 0.25;
  mac.full_duplex = false;
  mac.turnaround = Milliseconds(30);
  return mac;
}

// Per-character DZ delivery: one serial event (receive interrupt) per byte,
// the paper's §2.2 path and the one that multiplies with fan-out.
upr::SerialLineConfig PerByteSerial() {
  upr::SerialLineConfig serial;
  serial.mode = upr::SerialLineConfig::Mode::kPerByte;
  serial.silo_depth = 16;
  serial.silo_timeout = 0;
  serial.max_backlog = 0;
  return serial;
}

CityKnobs CityBase() {
  CityKnobs k;
  k.radio_bit_rate = 9600;
  k.serial_baud = 19200;
  k.serial = PerByteSerial();
  k.mac = CityMac();
  k.trunk_bit_rate = 1'000'000;
  k.trunk_latency = Milliseconds(5);
  k.ping_payload = 32;
  k.ping_timeout = Seconds(30);
  return k;
}

// city-dense — two channels of 24 stations each, on the serial sharded
// merge.
//
// Why: paper §3 puts the cost of this system in the promiscuous TNC, which
// hands every frame on the channel to every host's per-character interrupt
// path. Here every frame fans out to 25 listeners, so the workload loads
// `sim` (each receiver's per-byte serial events land on the same instants,
// the pattern that makes the timer wheel rescan one slot per pop), `serial`,
// `tnc` promiscuous receive and `radio`'s per-receiver frame copies. It
// barely touches `sim/shard_exec` (two shards, few trunk crossings) and never
// touches `ax25/lapb` or `tcp`.
//
// Load: a 32-byte ping is ~0.77 s of airtime for request plus reply at
// 9600 bps with TXDELAY 300 ms, so a ping period of 2.2 s × stations per
// channel offers ~35% airtime and most pings succeed.
//
// Sizing (Release build, 4-core host, when this workload was defined): 2×100 stations with
// a 240 s period for 60 simulated s is 1.15M events and 69 pings (50 ok);
// 17.5 s on the default timer wheel, 0.53 s with the heap event store. At
// 4×250 for 120 s: 336 s on the wheel vs 4.3 s on the heap. Replacing the
// wheel should shorten this workload ~30×; a later change may lengthen it.
//
// Why 24 stations and not ~100: on the timer wheel the wall cost of a ping
// grows about with the square of the listeners (0.2 s per ping at 100,
// 0.05 s at 50, 0.012 s at 24), and a fifth of the pings fail on the air at
// random, so failed_ops_ratio only repeats across seeds when one
// repetition holds ~1,000 pings. At 24 listeners that is 1,200 simulated s
// in ~13 s of wall time; the wheel is still ~15× slower than the heap here.
Workload CityDense(bool smoke) {
  Workload w;
  w.name = "city-dense";
  w.kind = Workload::Kind::kCity;
  w.city = CityBase();
  w.city.channels = 2;
  w.city.stations = smoke ? 16 : 24;
  w.city.mode = upr::ShardSet::Mode::kSharded;
  w.city.threads = 1;
  w.city.ping_period = Milliseconds(2200) * static_cast<SimTime>(w.city.stations);
  w.duration = smoke ? Seconds(60) : Seconds(1200);
  w.slice = Seconds(4);
  return w;
}

// city-wide — many channels with few stations each, on the parallel
// executor with 2 worker threads.
//
// Why: with 4 stations per channel the fan-out is small and each per-shard
// event queue stays short, so the work moves onto IP forwarding across
// gateways and trunks (every fourth station pings a station on another
// channel) and onto `sim/shard_exec`: conservative windows, cross-shard
// handoffs and barriers. It loads `driver`/`net` forwarding and the parallel
// executor; `serial` and `tnc` run but with 5 listeners per frame. It never
// touches `ax25/lapb` or `tcp`.
//
// Output check: the same seed on the serial merge must give identical
// events, ping counts and per-channel summary.
//
// Sizing (Release build, 4-core host, when this workload was defined): 64×4 stations, 20 s ping
// period, 120 simulated s is 1.65M events and 1,540 pings (1,407 ok):
// 0.78 s serial, 0.91 s with 2 workers, 1.22 s with 4 — the parallel
// executor currently loses to the serial merge here. The ping period is
// 10 s (~30% offered airtime, as on city-dense) rather than 20 s: with only
// ~9% of pings failing, failed_ops_ratio varied ±10% across seeds; at 10 s
// about 17% fail. One repetition is 240 simulated s (~6,000 pings):
// failed_ops_ratio spreads 5% across seeds.
//
// Trunks have 50 ms of latency, not the generator's 5 ms. The lookahead is
// the trunk latency, and at 5 ms a repetition is ~47,000 windows of ~130
// events: each window's two condition-variable wake-ups cost as much as its
// events, and how long a shared host takes to wake an idle virtual CPU
// varies from minute to minute, so whole runs went 1.7× slower and
// slice_ms_p90 spread up to 48% between runs of one build. At 50 ms a
// repetition is ~4,800 windows of ~1,300 events, 2.3 s with 2 workers vs
// 4.2 s on the serial merge, and a 30 s run holds ~12 repetitions.
Workload CityWide(bool smoke) {
  Workload w;
  w.name = "city-wide";
  w.kind = Workload::Kind::kCity;
  w.city = CityBase();
  w.city.channels = smoke ? 8 : 64;
  w.city.stations = 4;
  w.city.mode = upr::ShardSet::Mode::kParallel;
  w.city.threads = 2;
  w.city.ping_period = Seconds(10);
  w.city.trunk_latency = Milliseconds(50);
  w.duration = smoke ? Seconds(60) : Seconds(240);
  w.slice = Seconds(4);
  return w;
}

// vc-bulk — one IP-over-VC station pair at 9600 bps, AX.25 v2.0 (k = 4,
// paclen 128), running back-to-back fixed-size TCP transfers, closed loop.
//
// Why: the only workload that runs `ax25/lapb`, `driver/vc_ip_interface`
// and a TCP byte stream. Its event queue holds a few dozen timer-heavy
// events (T1/T3/RTO re-arms and cancels) instead of fan-out bursts, so a
// scheduler change that helps fan-out but hurts cancel shows here. Fan-out
// is one listener per frame, so `tnc` useful ratio is ~1. It bypasses
// `sim/shard_exec` and IP forwarding.
//
// One pair only: two pairs sharing a channel livelock today (79 KB of
// 128 KB delivered after 400k simulated s with 0 collisions) — a LAPB bug
// to fix in the simulator, not something to bake into the benchmark.
//
// Output check: every transfer's bytes are verified in order against the
// pattern generated from the seed and the transfer number.
//
// The transfers share one TCP connection (a new one is opened only if it
// dies); opening one connection per transfer stalls the circuit after ~16
// transfers, with every SYN timing out behind LAPB resends.
//
// T1 is 15 s, not the 8 s the `uprsim --workload vc` path uses: with 8 s,
// T1 expires before a loaded window is acknowledged under p-persistence,
// LAPB resends ~30% of its I frames and the transfers completed in
// 30,000 simulated s vary from 247 to 320 across seeds; with 15 s they are
// 484 ± 1.
//
// Sizing (Release build, 4-core host, when this workload was defined): one 256 KB stream takes
// 0.23 s wall, 4,978 simulated s and 1.25M events. Transmissions per KB grow
// with stream length (34 at 128 KB, 91 at 2 MB).
Workload VcBulk(bool smoke) {
  Workload w;
  w.name = "vc-bulk";
  w.kind = Workload::Kind::kVc;
  VcKnobs& k = w.vc;
  k.radio_bit_rate = 9600;
  k.serial_baud = 9600;
  k.mac = CityMac();
  k.mac.turnaround = 0;  // the VC stations' MAC: ideal carrier sense
  k.link.dialect = upr::Ax25Dialect::kV20;
  k.link.t1 = Seconds(15);
  k.link.t3 = Seconds(300);
  k.link.n2 = 40;
  k.link.window = 4;
  k.link.paclen = 128;
  k.link.pid = upr::kPidIp;
  k.link.max_i_field = upr::kAx25MaxInfo;
  k.tcp.rto_algorithm = upr::RtoAlgorithm::kJacobson;
  k.tcp.fixed_rto = Seconds(3);
  k.tcp.initial_rtt = Seconds(1);
  k.tcp.min_rto = Seconds(1);
  k.tcp.max_rto = Seconds(64);
  k.tcp.exponential_backoff = true;
  k.tcp.mss = 216;  // VC interface MTU 256 minus 40 bytes of headers
  k.tcp.send_buffer_limit = 32 * 1024;
  k.tcp.receive_window = 4096;
  k.tcp.max_retries = 60;
  k.tcp.slow_start = false;
  k.tcp.delayed_ack = false;
  k.tcp.delayed_ack_timeout = Milliseconds(200);
  k.tcp.time_wait = Seconds(60);
  k.tcp.connect_timeout = Seconds(75);
  k.transfer_bytes = 4096;
  k.port = 5001;
  w.duration = smoke ? Seconds(1500) : Seconds(30000);
  w.slice = Seconds(250);
  return w;
}

const char* ModeName(upr::ShardSet::Mode m) {
  switch (m) {
    case upr::ShardSet::Mode::kUnified:
      return "unified";
    case upr::ShardSet::Mode::kSharded:
      return "sharded";
    case upr::ShardSet::Mode::kParallel:
      return "parallel";
  }
  return "?";
}

std::string MacJson(const upr::MacParams& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"tx_delay_ns\":%lld,\"tx_tail_ns\":%lld,\"slot_time_ns\":%lld,"
                "\"persistence\":%.6g,\"full_duplex\":%s,\"turnaround_ns\":%lld}",
                static_cast<long long>(m.tx_delay),
                static_cast<long long>(m.tx_tail),
                static_cast<long long>(m.slot_time), m.persistence,
                m.full_duplex ? "true" : "false",
                static_cast<long long>(m.turnaround));
  return buf;
}

}  // namespace

const std::vector<Workload>& Workloads(bool smoke) {
  static const std::vector<Workload> full = {CityDense(false), CityWide(false),
                                             VcBulk(false)};
  static const std::vector<Workload> small = {CityDense(true), CityWide(true),
                                              VcBulk(true)};
  return smoke ? small : full;
}

const Workload* FindWorkload(const std::string& name, bool smoke) {
  for (const Workload& w : Workloads(smoke)) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string KnobsJson(const Workload& w, std::uint64_t seed) {
  char buf[1024];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "{\"workload\":\"%s\",\"seed\":%llu,\"duration_ns\":%lld,"
                "\"slice_ns\":%lld,",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<long long>(w.duration),
                static_cast<long long>(w.slice));
  out += buf;
  if (w.kind == Workload::Kind::kCity) {
    const CityKnobs& k = w.city;
    std::snprintf(
        buf, sizeof(buf),
        "\"city\":{\"channels\":%zu,\"stations\":%zu,\"mode\":\"%s\","
        "\"threads\":%d,\"radio_bit_rate\":%llu,\"serial_baud\":%u,"
        "\"serial_mode\":\"%s\",\"silo_depth\":%zu,\"silo_timeout_ns\":%lld,"
        "\"max_backlog\":%llu,\"trunk_bit_rate\":%llu,\"trunk_latency_ns\":%lld,"
        "\"ping_period_ns\":%lld,\"ping_payload\":%zu,\"ping_timeout_ns\":%lld,"
        "\"mac\":",
        k.channels, k.stations, ModeName(k.mode), k.threads,
        static_cast<unsigned long long>(k.radio_bit_rate), k.serial_baud,
        k.serial.mode == upr::SerialLineConfig::Mode::kSilo ? "silo"
                                                            : "per-byte",
        k.serial.silo_depth, static_cast<long long>(k.serial.silo_timeout),
        static_cast<unsigned long long>(k.serial.max_backlog),
        static_cast<unsigned long long>(k.trunk_bit_rate),
        static_cast<long long>(k.trunk_latency),
        static_cast<long long>(k.ping_period), k.ping_payload,
        static_cast<long long>(k.ping_timeout));
    out += buf;
    out += MacJson(k.mac);
    out += "}}";
  } else {
    const VcKnobs& k = w.vc;
    const upr::TcpConfig& t = k.tcp;
    std::snprintf(
        buf, sizeof(buf),
        "\"vc\":{\"radio_bit_rate\":%llu,\"serial_baud\":%u,"
        "\"ax25\":\"%s\",\"t1_ns\":%lld,\"t3_ns\":%lld,\"n2\":%d,"
        "\"window\":%u,\"paclen\":%zu,\"max_i_field\":%zu,"
        "\"tcp\":{\"rto\":\"%s\",\"fixed_rto_ns\":%lld,\"initial_rtt_ns\":%lld,"
        "\"min_rto_ns\":%lld,\"max_rto_ns\":%lld,\"exponential_backoff\":%s,"
        "\"mss\":%u,\"send_buffer_limit\":%zu,\"receive_window\":%u,"
        "\"max_retries\":%d,\"slow_start\":%s,\"delayed_ack\":%s,"
        "\"delayed_ack_timeout_ns\":%lld,\"time_wait_ns\":%lld,"
        "\"connect_timeout_ns\":%lld},\"transfer_bytes\":%zu,\"port\":%u,"
        "\"mac\":",
        static_cast<unsigned long long>(k.radio_bit_rate), k.serial_baud,
        upr::Ax25DialectName(k.link.dialect),
        static_cast<long long>(k.link.t1), static_cast<long long>(k.link.t3),
        k.link.n2, static_cast<unsigned>(k.link.window), k.link.paclen,
        k.link.max_i_field,
        t.rto_algorithm == upr::RtoAlgorithm::kJacobson ? "jacobson"
        : t.rto_algorithm == upr::RtoAlgorithm::kRfc793 ? "rfc793"
                                                        : "fixed",
        static_cast<long long>(t.fixed_rto),
        static_cast<long long>(t.initial_rtt),
        static_cast<long long>(t.min_rto), static_cast<long long>(t.max_rto),
        t.exponential_backoff ? "true" : "false",
        static_cast<unsigned>(t.mss), t.send_buffer_limit,
        static_cast<unsigned>(t.receive_window), t.max_retries,
        t.slow_start ? "true" : "false", t.delayed_ack ? "true" : "false",
        static_cast<long long>(t.delayed_ack_timeout),
        static_cast<long long>(t.time_wait),
        static_cast<long long>(t.connect_timeout), k.transfer_bytes,
        static_cast<unsigned>(k.port));
    out += buf;
    out += MacJson(k.mac);
    out += "}}";
  }
  return out;
}

}  // namespace perfbench
