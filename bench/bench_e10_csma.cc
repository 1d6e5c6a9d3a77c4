// E10 — the MAC underneath everything: p-persistent CSMA as configured by
// the KISS parameters (TXDELAY / P / SLOTTIME). The paper's §3 performance
// problem ("the gateway slows considerably as traffic ... climbs") is
// ultimately this channel saturating.
//
// N stations offer Poisson UI traffic; we sweep offered load and the
// persistence parameter, reporting channel utilization, collision rate,
// clean-delivery rate, and MAC queueing delay. Expected shape: the classic
// CSMA curve — throughput rises with load, peaks, then collapses under
// collisions; lower p trades delay for stability.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/radio/csma_mac.h"
#include "src/util/crc.h"
#include "src/util/random.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct Offered {
  std::unique_ptr<CsmaMac> mac;
  RadioPort* port;
  SimTime enqueue_total = 0;
  std::uint64_t frames_offered = 0;
};

struct CsmaResult {
  double utilization = 0;
  std::uint64_t events = 0;
  double collision_rate = 0;   // collisions per transmission
  double delivery_rate = 0;    // clean frames / offered frames
  double mean_queue_depth = 0;
};

CsmaResult RunCsma(int stations, double offered_frames_per_min, double persistence,
                   std::uint64_t seed) {
  Simulator sim;
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  RadioChannel channel(&sim, rc, seed);
  Rng arrivals(seed * 77 + 5);

  // Pre-built 100-byte frame + FCS.
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("QST", 0), Ax25Address("KA7AA", 0),
                                  kPidNoLayer3, Bytes(100, 0xA5));
  Bytes wire = f.Encode();
  AppendFcs(&wire);

  std::vector<std::unique_ptr<Offered>> senders;
  std::uint64_t clean = 0;
  RadioPort* monitor = channel.CreatePort("monitor");
  monitor->set_receive_handler([&](const Bytes&, bool corrupted) {
    if (!corrupted) {
      ++clean;
    }
  });
  for (int i = 0; i < stations; ++i) {
    auto o = std::make_unique<Offered>();
    o->port = channel.CreatePort("s" + std::to_string(i));
    MacParams mac;
    mac.persistence = persistence;
    mac.tx_delay = Milliseconds(300);
    mac.slot_time = Milliseconds(100);
    o->mac = std::make_unique<CsmaMac>(&sim, o->port, mac,
                                       seed * 131 + static_cast<std::uint64_t>(i));
    senders.push_back(std::move(o));
  }
  double per_station_rate = offered_frames_per_min / 60.0 / stations;
  std::function<void(int)> arm = [&](int i) {
    SimTime wait = Seconds(arrivals.NextExponential(1.0 / per_station_rate));
    sim.Schedule(wait, [&, i] {
      Offered* o = senders[static_cast<std::size_t>(i)].get();
      ++o->frames_offered;
      if (o->mac->queue_depth() < 16) {
        o->mac->Enqueue(wire);
      }
      arm(i);
    });
  };
  for (int i = 0; i < stations; ++i) {
    arm(i);
  }
  constexpr SimTime kWindow = Seconds(3600);
  // Sample queue depths periodically.
  RunningStats depths;
  std::function<void()> sample = [&] {
    for (auto& o : senders) {
      depths.Add(static_cast<double>(o->mac->queue_depth()));
    }
    if (sim.Now() < kWindow) {
      sim.Schedule(Seconds(10), sample);
    }
  };
  sample();
  sim.RunUntil(kWindow);

  CsmaResult r;
  r.utilization = channel.Utilization();
  r.collision_rate = channel.transmissions() > 0
                         ? static_cast<double>(channel.collisions()) /
                               static_cast<double>(channel.transmissions())
                         : 0;
  std::uint64_t offered = 0;
  for (auto& o : senders) {
    offered += o->frames_offered;
  }
  r.delivery_rate = offered > 0 ? static_cast<double>(clean) /
                                      static_cast<double>(offered)
                                : 0;
  r.mean_queue_depth = depths.mean();
  r.events = sim.events_scheduled();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("e10_csma", &argc, argv);
  rep.Param("seed", 1234);
  rep.Param("stations", 5);
  rep.Param("frame_bytes", 100);
  rep.Param("window_s", 3600);
  std::printf("E10: p-persistent CSMA on the shared 1200 bps channel\n");
  std::printf("5 stations, 100 B UI frames, 1 simulated hour per cell\n");
  // A 100 B frame + keyup occupies ~1.0 s of air; 100%% load ~ 54 frames/min.

  for (double p : {0.063, 0.25, 0.63}) {
    rep.Header("persistence p = " + Fmt(p, 3),
                {"offered/min", "utilization", "collisions/tx", "delivered",
                 "mean_queue"},
                13);
    for (double load : {6.0, 15.0, 30.0, 45.0, 60.0, 90.0}) {
      CsmaResult r = RunCsma(5, load, p, 1234);
      rep.Row({Fmt(load, 0), Fmt(r.utilization, 2), Fmt(r.collision_rate, 2),
               Fmt(r.delivery_rate, 2), Fmt(r.mean_queue_depth, 1)},
              13);
      rep.Events(r.events);
    }
  }

  std::printf("\nShape check: delivery stays near 1.0 until the channel nears\n"
              "saturation, then collisions climb and queues grow without bound.\n"
              "Low persistence keeps collision rates down at high load at the\n"
              "price of idle slots (lower utilization at light load) — the same\n"
              "trade KISS exposes via its P and SLOTTIME parameters.\n");
  return rep.Finish();
}
