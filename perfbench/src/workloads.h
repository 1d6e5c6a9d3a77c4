// Workload definitions for the repository benchmark.
//
// Every scenario knob a workload depends on is set here, in the benchmark's
// own files, instead of being inherited from library defaults: a later
// change to a default (offered load derived from capacity, T1 derived from
// airtime, ...) must not silently redefine what a workload measures. The
// runner echoes every knob and the seed in its output.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ax25/lapb.h"
#include "src/radio/csma_mac.h"
#include "src/serial/serial_line.h"
#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp.h"

namespace perfbench {

// A city of `channels` radio channels with `stations` stations each (the
// upr::topo generator), seeded ping traffic on every station.
struct CityKnobs {
  std::size_t channels = 0;
  std::size_t stations = 0;  // per channel
  upr::ShardSet::Mode mode = upr::ShardSet::Mode::kSharded;
  int threads = 1;  // worker threads, kParallel only

  std::uint64_t radio_bit_rate = 0;
  std::uint32_t serial_baud = 0;
  upr::SerialLineConfig serial;  // baud_rate is overridden by serial_baud
  upr::MacParams mac;

  std::uint64_t trunk_bit_rate = 0;
  upr::SimTime trunk_latency = 0;

  upr::SimTime ping_period = 0;
  std::size_t ping_payload = 0;
  upr::SimTime ping_timeout = 0;
};

// One IP-over-VC station pair on its own channel, running back-to-back
// fixed-size TCP transfers (a closed loop: transfer n+1 is opened the moment
// transfer n is delivered and verified).
struct VcKnobs {
  std::uint64_t radio_bit_rate = 0;
  std::uint32_t serial_baud = 0;
  upr::MacParams mac;
  upr::Ax25LinkConfig link;
  upr::TcpConfig tcp;
  std::size_t transfer_bytes = 0;
  std::uint16_t port = 0;
};

struct Workload {
  enum class Kind { kCity, kVc };

  std::string name;
  Kind kind = Kind::kCity;
  CityKnobs city;
  VcKnobs vc;
  // One repetition simulates `duration`, advanced in `slice` steps (each
  // slice is timed on the wall clock).
  upr::SimTime duration = 0;
  upr::SimTime slice = 0;

  // True when the workload runs on the parallel executor; its outputs are
  // then checked against the serial merge.
  bool parallel() const {
    return kind == Kind::kCity && city.mode == upr::ShardSet::Mode::kParallel;
  }
};

// The benchmark workloads. `smoke` selects scaled-down variants that finish
// in seconds (same knobs, smaller size and duration).
const std::vector<Workload>& Workloads(bool smoke);
// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name, bool smoke);

// One-line JSON object with the seed and every knob of `w`.
std::string KnobsJson(const Workload& w, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
