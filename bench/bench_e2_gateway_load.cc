// E2 — §3: "the gateway slows considerably as traffic on the packet radio
// subnet climbs. Part of the reason is that the present code running inside
// the TNC passes every packet it receives to the packet radio driver
// regardless of the destination address. We are considering changing the TNC
// code so that it can selectively pass only those packets destined for the
// broadcast or local AX.25 addresses."
//
// Third-party stations chatter on the channel at increasing rates; we
// measure the load the gateway host absorbs (per-character interrupts,
// interrupt CPU time) and the latency of real gateway traffic — first with
// the stock promiscuous TNC, then with the paper's proposed address filter.
#include <cstdio>
#include <memory>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/radio/csma_mac.h"
#include "src/util/crc.h"
#include "src/util/random.h"

using namespace upr;
using namespace upr::bench;

namespace {

// A chattering third-party station: sends UI frames between fictitious
// callsigns at an exponential rate. Pure MAC-level, no host attached.
class BackgroundTalker {
 public:
  BackgroundTalker(Simulator* sim, RadioChannel* channel, int index,
                   double frames_per_minute, std::uint64_t seed)
      : sim_(sim), rng_(seed), rate_per_s_(frames_per_minute / 60.0) {
    port_ = channel->CreatePort("bg" + std::to_string(index));
    MacParams mac;
    mac.persistence = 0.25;
    mac_ = std::make_unique<CsmaMac>(sim, port_, mac, seed * 3 + 1);
    Ax25Frame f = Ax25Frame::MakeUi(
        Ax25Address("KC" + std::to_string(index % 10) + "ZZ", 0),
        Ax25Address("KC" + std::to_string(index % 10) + "YY", 0), kPidNoLayer3,
        Bytes(100, 0x55));
    wire_ = f.Encode();
    AppendFcs(&wire_);
    ScheduleNext();
  }

 private:
  void ScheduleNext() {
    SimTime wait = Seconds(rng_.NextExponential(1.0 / rate_per_s_));
    sim_->Schedule(wait, [this] {
      if (mac_->queue_depth() < 4) {
        mac_->Enqueue(wire_);
      }
      ScheduleNext();
    });
  }

  Simulator* sim_;
  Rng rng_;
  double rate_per_s_;
  RadioPort* port_;
  std::unique_ptr<CsmaMac> mac_;
  Bytes wire_;
};

struct LoadResult {
  double rtt_ms = 0;
  bool rtt_ok = false;
  std::uint64_t interrupts = 0;
  double cpu_ms = 0;
  std::uint64_t not_for_us = 0;
  std::uint64_t tnc_filtered = 0;
  std::uint64_t serial_to_host = 0;
  double utilization = 0;
  std::uint64_t events = 0;
};

LoadResult RunLoad(double bg_frames_per_minute, int talkers, bool filter) {
  TestbedConfig cfg;
  cfg.radio_pcs = 1;
  cfg.ether_hosts = 1;
  cfg.radio_bit_rate = 1200;
  cfg.tnc_address_filter = filter;
  cfg.seed = 21;
  Testbed tb(cfg);
  tb.PopulateRadioArp();

  std::vector<std::unique_ptr<BackgroundTalker>> talkers_list;
  if (bg_frames_per_minute > 0) {
    for (int i = 0; i < talkers; ++i) {
      talkers_list.push_back(std::make_unique<BackgroundTalker>(
          &tb.sim(), &tb.channel(), i, bg_frames_per_minute / talkers,
          1000 + static_cast<std::uint64_t>(i)));
    }
  }

  // Warm up, then measure over a fixed 600-second window during which five
  // pings cross the gateway at regular intervals.
  constexpr SimTime kWarmup = Seconds(120);
  constexpr SimTime kWindow = Seconds(600);
  tb.sim().RunUntil(kWarmup);
  std::uint64_t interrupts_before =
      tb.gateway().radio_if()->driver_stats().interrupts;
  SimTime cpu_before = tb.gateway().radio_if()->driver_stats().interrupt_cpu_time;
  std::uint64_t rejects_before =
      tb.gateway().radio_if()->driver_stats().frames_not_for_us;
  std::uint64_t filtered_before = tb.gateway().tnc().frames_filtered();

  auto rtts = std::make_shared<Samples>();
  for (int i = 0; i < 5; ++i) {
    tb.sim().ScheduleAt(kWarmup + Seconds(30) + i * Seconds(110), [&tb, rtts] {
      tb.pc(0).stack().icmp().Ping(Testbed::EtherHostIp(0), 32,
                                   [rtts](bool ok, SimTime rtt) {
                                     if (ok) {
                                       rtts->Add(ToMillis(rtt));
                                     }
                                   },
                                   Seconds(300));
    });
  }
  tb.sim().RunUntil(kWarmup + kWindow);
  double window_s = ToSeconds(kWindow);

  LoadResult r;
  r.rtt_ok = rtts->count() > 0;
  r.rtt_ms = rtts->Mean();
  const DriverStats& ds = tb.gateway().radio_if()->driver_stats();
  r.interrupts = static_cast<std::uint64_t>(
      static_cast<double>(ds.interrupts - interrupts_before) / window_s);
  r.cpu_ms = ToMillis(ds.interrupt_cpu_time - cpu_before) / window_s * 1000.0;
  r.not_for_us = ds.frames_not_for_us - rejects_before;
  r.tnc_filtered = tb.gateway().tnc().frames_filtered() - filtered_before;
  r.serial_to_host = tb.gateway().tnc().serial_bytes_to_host();
  r.utilization = tb.channel().Utilization();
  r.events = tb.sim().events_scheduled();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("e2_gateway_load", &argc, argv);
  rep.Param("seed", 21);
  rep.Param("bit_rate", 1200);
  rep.Param("talkers", 4);
  rep.Param("loads_frames_per_min", "0,15,30,60,120,240");
  std::printf("E2: gateway load vs packet-radio subnet traffic (1200 bps)\n");
  std::printf("background: 4 third-party stations exchanging 100 B UI frames\n");

  for (bool filter : {false, true}) {
    rep.Header(filter ? "TNC with the proposed address filter (§3 fix)"
                      : "stock promiscuous KISS TNC",
               {"bg_frames/min", "chan_util", "intr/s", "cpu_us/s", "drvr_rejects",
                "tnc_filtered", "ping_rtt_ms"},
               14);
    for (double load : {0.0, 15.0, 30.0, 60.0, 120.0, 240.0}) {
      LoadResult r = RunLoad(load, 4, filter);
      rep.Row({Fmt(load, 0), Fmt(r.utilization, 2), FmtInt(r.interrupts),
               Fmt(r.cpu_ms, 0), FmtInt(r.not_for_us),
               FmtInt(r.tnc_filtered), r.rtt_ok ? Fmt(r.rtt_ms, 0) : "timeout"},
              14);
      rep.Events(r.events);
    }
  }

  std::printf("\nShape check (paper §3): with the stock TNC, host interrupt load\n"
              "rises with channel traffic even though none of it is for the\n"
              "gateway (drvr_rejects climbs). The filter moves that rejection into\n"
              "the TNC: serial traffic and interrupts stay flat. Ping RTT rises\n"
              "with load in both cases — that part is channel contention, which no\n"
              "host-side filter can fix.\n");
  return rep.Finish();
}
