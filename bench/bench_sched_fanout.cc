// Sched fan-out — the scheduler's same-instant micro-bench.
//
// A frame on a shared channel reaches every promiscuous TNC at once, so every
// receiver's per-byte serial events land on the same instants (paper §3's
// DZ interrupt path, multiplied by the fan-out). This bench schedules N
// events at one instant and pops them all, for N = 10, 100, 1k and 10k, and
// reports the wall cost per schedule+pop.
//
// The gate: ns/event at N = 10k may be at most 4x ns/event at N = 10. An
// O(log n) store passes with room to spare; a store that rescans the
// same-instant bucket on every pop (the timer wheel this repo once had) is
// quadratic in N and fails by orders of magnitude. Event counts are exact
// sim metrics; the per-N costs are banded wall metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/sim/simulator.h"

using namespace upr;
using namespace upr::bench;

namespace {

constexpr double kMaxFanoutRatio = 4.0;

struct FanoutResult {
  std::size_t n = 0;
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  double ns_per_event = 0;
};

// One trial: `rounds` bursts of `n` same-instant events, each burst drained
// before the next. Returns ns per schedule+pop; `events` gets the count.
double TimeFanout(std::size_t n, std::uint64_t rounds, std::uint64_t* events) {
  Simulator sim;
  std::uint64_t fired = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const SimTime when = sim.Now() + kMillisecond;
    for (std::size_t i = 0; i < n; ++i) {
      sim.ScheduleAt(when, [&fired] { ++fired; });
    }
    sim.RunAll();
  }
  auto t1 = std::chrono::steady_clock::now();
  *events = fired == sim.events_scheduled() ? fired : 0;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(rounds * n);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("sched_fanout", &argc, argv);
  // Every N schedules and pops the same number of events per trial.
  const std::uint64_t events_per_trial = rep.smoke() ? 20'000 : 400'000;
  const int trials = rep.smoke() ? 1 : 9;
  rep.Param("events_per_trial", events_per_trial);
  rep.Param("trials", trials);

  std::printf("Sched fan-out: N same-instant events scheduled then popped\n");

  // Trials interleave the fan-outs, and each N keeps its best trial, so a
  // slow spell on a shared host hits every N alike instead of one ratio term.
  std::vector<FanoutResult> results;
  for (std::size_t n : {10u, 100u, 1'000u, 10'000u}) {
    results.push_back({n, events_per_trial / n, 0, 0});
  }
  for (int t = 0; t < trials; ++t) {
    for (FanoutResult& r : results) {
      double ns = TimeFanout(r.n, r.rounds, &r.events);
      r.ns_per_event = t == 0 ? ns : std::min(r.ns_per_event, ns);
    }
  }

  rep.Header("events per fan-out", {"n", "rounds", "events"}, 14,
             TableKind::kSim);
  std::uint64_t total = 0;
  for (const FanoutResult& r : results) {
    rep.Row({FmtInt(r.n), FmtInt(r.rounds), FmtInt(r.events)}, 14);
    rep.Sim("events_n" + std::to_string(r.n), r.events);
    total += r.events;
  }
  rep.Events(total);

  rep.Header("cost per schedule+pop", {"n", "ns_per_event"}, 14,
             TableKind::kWall);
  for (const FanoutResult& r : results) {
    rep.Row({FmtInt(r.n), Fmt(r.ns_per_event, 1)}, 14);
    rep.Wall("ns_per_event_n" + std::to_string(r.n), r.ns_per_event, "lower");
  }
  const double ratio = results.back().ns_per_event / results.front().ns_per_event;
  rep.Wall("fanout_ratio", ratio, "lower");

  bool ok = ratio <= kMaxFanoutRatio;
  for (const FanoutResult& r : results) {
    ok = ok && r.events == r.rounds * r.n;
  }
  std::printf("\n%s: %.1f ns/event at N=10k vs %.1f at N=10 (%.2fx, bound %.0fx)\n",
              ok ? "PASS" : "FAIL", results.back().ns_per_event,
              results.front().ns_per_event, ratio, kMaxFanoutRatio);
  return rep.Finish(ok ? 0 : 1);
}
