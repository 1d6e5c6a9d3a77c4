// One repetition of a workload: builds the scenario from the workload's
// knobs and a seed, advances it through the program's own executor or
// through the benchmark's serial merge (which times every
// Simulator::NextEventTime / Step call), and reads the layers' counters
// through their public accessors afterwards.
#ifndef PERFBENCH_SRC_SCENARIO_H_
#define PERFBENCH_SRC_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/radio/channel.h"
#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"

namespace perfbench {

// Operations of one repetition. A city operation is one ping; a vc-bulk
// operation is one transfer. An operation still in flight when the
// repetition ends counts as attempted but not ok.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
};

// Counters read after a repetition, summed over every component of the
// scenario. All of them are simulation outputs: identical for a given seed.
struct LayerCounts {
  std::uint64_t sim_events = 0;     // events executed
  std::uint64_t sim_pool_peak = 0;  // event objects allocated (peak concurrency)

  std::uint64_t shard_windows = 0;
  std::uint64_t shard_handoffs = 0;
  std::uint64_t shard_ring_overflow = 0;

  std::uint64_t serial_events = 0;        // delivery events scheduled
  std::uint64_t serial_dropped_bytes = 0;
  std::uint64_t serial_frames = 0;        // KISS frames crossing a serial line

  std::uint64_t tnc_frames_to_host = 0;
  std::uint64_t driver_frames_for_host = 0;  // addressed to the host itself

  std::uint64_t radio_transmissions = 0;
  std::uint64_t radio_receptions = 0;  // frames received by station TNC ports
  std::uint64_t radio_collisions = 0;
  std::uint64_t radio_half_duplex_misses = 0;

  std::uint64_t ip_forwarded = 0;
  std::uint64_t ip_delivered = 0;
  std::uint64_t ip_drops = 0;
  std::uint64_t if_odrops = 0;

  std::uint64_t lapb_i_sent = 0;
  std::uint64_t lapb_i_resent = 0;

  std::uint64_t tcp_retransmissions = 0;
  std::uint64_t tcp_spurious_retransmissions = 0;

  std::uint64_t buf_bytes_copied = 0;
  std::uint64_t buf_allocs = 0;
  std::uint64_t buf_pool_hits = 0;

  // Two repetitions of one seed must compare equal.
  bool operator==(const LayerCounts&) const = default;
};

// Wall time spent inside NextEventTime and Step by the benchmark's merge.
struct MergeTimers {
  std::uint64_t peek_ns = 0;
  std::uint64_t peeks = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t steps = 0;
};

class Rep {
 public:
  // `mode` overrides the workload's executor for city workloads (the output
  // check and the traced run use the serial merge); vc-bulk has one
  // simulator and ignores it.
  static std::unique_ptr<Rep> Make(const Workload& w, std::uint64_t seed,
                                   upr::ShardSet::Mode mode);
  virtual ~Rep() = default;

  // Runs every event up to and including `until` on the program's executor.
  virtual void Advance(upr::SimTime until) = 0;
  // Same schedule, driven one event at a time by the benchmark's serial
  // merge over the shards' simulators. Serial modes only.
  virtual void AdvanceTimed(upr::SimTime until, MergeTimers* timers) = 0;

  virtual Ops ops() const = 0;
  virtual LayerCounts Counts() const = 0;
  // Deterministic summary compared across repetitions and executors: event
  // count, operation counts and (cities) the per-channel summary.
  virtual std::string Fingerprint() const = 0;
  // False, with a reason, when an output check failed.
  virtual bool OutputsOk(std::string* why) const = 0;
  // The scenario's radio channels (a receive-only port can be attached to
  // capture frames for the codec replay).
  virtual std::vector<upr::RadioChannel*> Channels() = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCENARIO_H_
