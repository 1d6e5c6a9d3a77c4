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
//
// A second table is the same fan-out through real per-byte serial lines:
// N lines (N = 10, 100, 1k) each take one 80-byte write (a frame's KISS
// stream to a promiscuous host) at one instant, then drain. A busy line keeps
// only its head byte in the heap, so the event pool may hold at most N + 4
// events; queuing every byte as its own heap entry needs ~80N and fails.
//
// A third, one-line row is the chain: one per-byte line streams frames while
// one far timer stays pending (a TCP transfer over one host's serial line,
// perfbench's vc-bulk). Each byte's event schedules the next byte ahead of
// everything pending, which the Simulator's next-event slot takes without a
// sift.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"

using namespace upr;
using namespace upr::bench;

namespace {

constexpr double kMaxFanoutRatio = 4.0;
constexpr std::size_t kFrameBytes = 80;
constexpr std::size_t kMaxPoolOverLines = 4;

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

struct SerialFanoutResult {
  std::size_t n = 0;
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;
  std::size_t pool = 0;
  double ns_per_byte = 0;
};

// One trial: `rounds` times, every one of `n` lines takes one frame-sized
// write at the same instant, then all drain. Returns ns per delivered byte;
// `bytes` gets the count (0 if it disagrees with the seqs taken) and `pool`
// the simulator's event-pool size.
double TimeSerialFanout(std::size_t n, std::uint64_t rounds, std::uint64_t* bytes,
                        std::size_t* pool) {
  Simulator sim;
  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<SerialLine>> lines;
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(std::make_unique<SerialLine>(&sim, 9600));
    lines.back()->b().set_receive_chunk_handler(
        [&delivered](const std::uint8_t*, std::size_t len) { delivered += len; });
  }
  const Bytes frame(kFrameBytes, 0x55);
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (auto& line : lines) {
      line->a().Write(frame);
    }
    sim.RunAll();
  }
  auto t1 = std::chrono::steady_clock::now();
  *bytes = delivered == sim.events_scheduled() ? delivered : 0;
  *pool = sim.pool_capacity();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(rounds * n * kFrameBytes);
}

// One trial: `rounds` frames streamed over one per-byte line, each written
// once the previous one has landed, beside a timer an hour away. Returns ns
// per delivered byte; `bytes` gets the count (0 if it disagrees with the
// seqs taken, the timer's excluded) and `pool` the event-pool size.
double TimeSerialChain(std::uint64_t rounds, std::uint64_t* bytes, std::size_t* pool) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  std::uint64_t delivered = 0;
  line.b().set_receive_chunk_handler(
      [&delivered](const std::uint8_t*, std::size_t len) { delivered += len; });
  Timer far(&sim, [] {});
  far.Restart(3600 * kSecond);
  const Bytes frame(kFrameBytes, 0x55);
  const SimTime frame_time = line.transfer_time(kFrameBytes);
  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    line.a().Write(frame);
    sim.RunUntil(sim.Now() + frame_time);
  }
  auto t1 = std::chrono::steady_clock::now();
  *bytes = delivered + 1 == sim.events_scheduled() ? delivered : 0;
  *pool = sim.pool_capacity();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(rounds * kFrameBytes);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("sched_fanout", &argc, argv);
  // Every N schedules and pops the same number of events per trial.
  const std::uint64_t events_per_trial = rep.smoke() ? 20'000 : 400'000;
  const int trials = rep.smoke() ? 1 : 9;
  const std::uint64_t serial_bytes_per_trial = rep.smoke() ? 80'000 : 800'000;
  rep.Param("events_per_trial", events_per_trial);
  rep.Param("trials", trials);
  rep.Param("serial_bytes_per_trial", serial_bytes_per_trial);

  std::printf("Sched fan-out: N same-instant events scheduled then popped\n");

  // Trials interleave the fan-outs, and each N keeps its best trial, so a
  // slow spell on a shared host hits every N alike instead of one ratio term.
  std::vector<FanoutResult> results;
  for (std::size_t n : {10u, 100u, 1'000u, 10'000u}) {
    results.push_back({n, events_per_trial / n, 0, 0});
  }
  std::vector<SerialFanoutResult> serial;
  for (std::size_t n : {10u, 100u, 1'000u}) {
    serial.push_back({n, serial_bytes_per_trial / (n * kFrameBytes), 0, 0, 0});
  }
  SerialFanoutResult chain{1, serial_bytes_per_trial / kFrameBytes, 0, 0, 0};
  for (int t = 0; t < trials; ++t) {
    for (FanoutResult& r : results) {
      double ns = TimeFanout(r.n, r.rounds, &r.events);
      r.ns_per_event = t == 0 ? ns : std::min(r.ns_per_event, ns);
    }
    for (SerialFanoutResult& r : serial) {
      double ns = TimeSerialFanout(r.n, r.rounds, &r.bytes, &r.pool);
      r.ns_per_byte = t == 0 ? ns : std::min(r.ns_per_byte, ns);
    }
    double ns = TimeSerialChain(chain.rounds, &chain.bytes, &chain.pool);
    chain.ns_per_byte = t == 0 ? ns : std::min(chain.ns_per_byte, ns);
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

  std::printf("\nSerial fan-out: N lines each write one %zu-byte frame at one "
              "instant\n", kFrameBytes);
  rep.Header("serial lines per fan-out", {"n", "rounds", "bytes", "pool"}, 14,
             TableKind::kSim);
  for (const SerialFanoutResult& r : serial) {
    rep.Row({FmtInt(r.n), FmtInt(r.rounds), FmtInt(r.bytes), FmtInt(r.pool)}, 14);
    rep.Sim("serial_bytes_n" + std::to_string(r.n), r.bytes);
    rep.Sim("serial_pool_n" + std::to_string(r.n),
            static_cast<std::uint64_t>(r.pool));
  }
  rep.Header("cost per delivered serial byte", {"n", "ns_per_byte"}, 14,
             TableKind::kWall);
  for (const SerialFanoutResult& r : serial) {
    rep.Row({FmtInt(r.n), Fmt(r.ns_per_byte, 1)}, 14);
    rep.Wall("serial_ns_per_byte_n" + std::to_string(r.n), r.ns_per_byte, "lower");
  }

  std::printf("\nSerial chain: one line streams %zu-byte frames beside a far "
              "timer\n", kFrameBytes);
  rep.Header("serial chain", {"rounds", "bytes", "pool", "ns_per_byte"}, 14,
             TableKind::kWall);
  rep.Row({FmtInt(chain.rounds), FmtInt(chain.bytes), FmtInt(chain.pool),
           Fmt(chain.ns_per_byte, 1)}, 14);
  rep.Sim("chain_bytes", chain.bytes);
  rep.Sim("chain_pool", static_cast<std::uint64_t>(chain.pool));
  rep.Wall("chain_ns_per_byte", chain.ns_per_byte, "lower");

  bool ok = ratio <= kMaxFanoutRatio;
  for (const FanoutResult& r : results) {
    ok = ok && r.events == r.rounds * r.n;
  }
  bool serial_ok = true;
  for (const SerialFanoutResult& r : serial) {
    serial_ok = serial_ok && r.bytes == r.rounds * r.n * kFrameBytes &&
                r.pool <= r.n + kMaxPoolOverLines;
  }
  serial_ok = serial_ok && chain.bytes == chain.rounds * kFrameBytes &&
              chain.pool <= chain.n + kMaxPoolOverLines;
  std::printf("\n%s: %.1f ns/event at N=10k vs %.1f at N=10 (%.2fx, bound %.0fx)\n",
              ok ? "PASS" : "FAIL", results.back().ns_per_event,
              results.front().ns_per_event, ratio, kMaxFanoutRatio);
  std::printf("%s: event pool %zu at N=%zu serial lines (bound N + %zu)\n",
              serial_ok ? "PASS" : "FAIL", serial.back().pool, serial.back().n,
              kMaxPoolOverLines);
  return rep.Finish(ok && serial_ok ? 0 : 1);
}
