// City — the ISSUE 8 scaling macro-bench: one regional AMPRnet topology run
// by the ShardSet executor on 1, 2 and 4 threads, reporting events/sec per
// thread count and the 4-thread speedup over the one-thread run of the same
// window loop.
//
// The full run is the acceptance-criteria topology — 64 channels × 1000
// stations, one simulated second of seeded ping traffic (local,
// cross-backbone, and digipeated). Each thread count runs three times in
// this process, in rounds that take every thread count in turn, and reports
// its median wall time, so one noisy run moves no figure. The traffic
// counters and executed-event count are deterministic simulation outputs and
// must be identical across every run and machine (they land in the ledger as
// exact sim metrics, and the bench itself exits nonzero if any run
// disagrees). Wall-clock rates and the speedup land as banded one-sided
// wall metrics.
//
// The >= 2.5x speedup floor at 4 threads binds only where it can be
// measured: an optimized full-length run on a host with at least 4 cores.
// Smoke mode shrinks the topology (it still runs every thread count, which
// is what the TSan CI lane is after) and skips the floor.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/scenario/topo_gen.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct RunResult {
  std::string label;
  int threads = 1;
  double secs = 0;
  std::size_t events = 0;
  std::string summary;
  topo::ChannelTraffic traffic;
  double events_per_sec() const {
    return secs > 0 ? static_cast<double>(events) / secs : 0.0;
  }
};

RunResult RunOne(const topo::CitySpec& spec, SimTime duration, int threads) {
  topo::CityConfig cfg;
  cfg.spec = spec;
  cfg.threads = threads;
  cfg.seed = 7;
  cfg.radio_bit_rate = 9600;
  topo::CityTopology city(cfg);
  RunResult r;
  r.threads = threads;
  auto t0 = std::chrono::steady_clock::now();
  r.events = city.Run(duration);
  auto t1 = std::chrono::steady_clock::now();
  r.secs = std::chrono::duration<double>(t1 - t0).count();
  r.summary = city.FormatSummary();
  r.traffic = city.TrafficTotal();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("city", &argc, argv);
  const topo::CitySpec spec = rep.smoke()
                                  ? topo::CitySpec{4, 12}
                                  : topo::CitySpec{64, 1000};
  // One simulated second of the full city is already ~10^8 events (the
  // channels run congested, which is the point of a load bench); the smoke
  // topology is small enough to afford two.
  const int sim_secs = rep.smoke() ? 2 : 1;
  const SimTime duration = Seconds(sim_secs);
  rep.Param("channels", static_cast<std::int64_t>(spec.channels));
  rep.Param("stations_per_channel", static_cast<std::int64_t>(spec.stations));
  rep.Param("sim_seconds", sim_secs);
  rep.Param("rate", 9600);
  rep.Param("seed", 7);

  std::printf(
      "City: %zu channels x %zu stations, %d simulated seconds of seeded "
      "pings\n",
      spec.channels, spec.stations, sim_secs);

  // Three rounds, each running every thread count once, so a slow phase of
  // the host slows every leg alike; each leg reports its median run.
  constexpr int kRounds = 3;
  const int thread_counts[] = {1, 2, 4};
  const char* labels[] = {"serial", "parallel-2", "parallel-4"};
  std::vector<RunResult> runs(3);
  std::vector<std::vector<double>> secs(3);
  bool runs_agree = true;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      RunResult r = RunOne(spec, duration, thread_counts[i]);
      r.label = labels[i];
      secs[i].push_back(r.secs);
      if (round == 0) {
        runs[i] = r;
      }
      if (r.summary != runs[0].summary || r.events != runs[0].events) {
        runs_agree = false;
        std::fprintf(stderr,
                     "FAIL: %s round %d disagrees with serial (events %zu vs %zu)\n",
                     r.label.c_str(), round, r.events, runs[0].events);
      }
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::sort(secs[i].begin(), secs[i].end());
    runs[i].secs = secs[i][kRounds / 2];
  }
  const RunResult& serial = runs.front();

  rep.Header("executor sweep", {"mode", "threads", "events", "secs",
                                "events_per_sec", "speedup"},
             14, TableKind::kWall);
  const double base = serial.events_per_sec();
  for (const RunResult& r : runs) {
    const double speedup = base > 0 ? r.events_per_sec() / base : 0.0;
    rep.Row({r.label, FmtInt(static_cast<std::uint64_t>(r.threads)),
             FmtInt(r.events), Fmt(r.secs, 3), Fmt(r.events_per_sec(), 0),
             Fmt(speedup, 2)},
            14);
  }
  rep.Wall("serial_events_per_sec", serial.events_per_sec(), "higher");
  rep.Wall("par2_events_per_sec", runs[1].events_per_sec(), "higher");
  rep.Wall("par4_events_per_sec", runs[2].events_per_sec(), "higher");
  const double par4_speedup =
      base > 0 ? runs[2].events_per_sec() / base : 0.0;
  rep.Wall("par4_speedup", par4_speedup, "higher");

  rep.Header("seeded traffic (identical across modes)",
             {"pings_sent", "pings_ok", "pings_failed"}, 14, TableKind::kSim);
  rep.Row({FmtInt(serial.traffic.pings_sent), FmtInt(serial.traffic.pings_ok),
           FmtInt(serial.traffic.pings_failed)},
          14);
  rep.Sim("pings_sent", serial.traffic.pings_sent);
  rep.Sim("pings_ok", serial.traffic.pings_ok);
  rep.Sim("modes_agree", runs_agree ? 1 : 0);
  rep.Events(serial.events);

  // The scaling floor (ISSUE 8 acceptance): >= 2.5x events/sec at 4 threads.
  // It needs an optimized build, the full topology, and 4 real cores —
  // anywhere else (smoke, sanitizers, small CI shells) the sweep still
  // checks determinism, which is the part that breaks silently.
#ifdef NDEBUG
  const bool enforce_scaling =
      !rep.smoke() && std::thread::hardware_concurrency() >= 4;
#else
  const bool enforce_scaling = false;
#endif
  bool ok = runs_agree;
  if (enforce_scaling && par4_speedup < 2.5) {
    ok = false;
  }
  std::printf(
      "\n%s: %.0f events/sec serial, %.2fx at 4 threads (floor 2.5x%s), "
      "runs %s\n",
      ok ? "PASS" : "FAIL", base, par4_speedup,
      enforce_scaling ? "" : ", not enforced in this build",
      runs_agree ? "agree" : "DISAGREE");
  return rep.Finish(ok ? 0 : 1);
}
