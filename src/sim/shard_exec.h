// upr — sharded event execution + conservative parallel DES (ISSUE 8).
//
// The city-scale topology decomposes, as the NS-2 multi-channel model does,
// into radio channels that only interact through gateways and point-to-point
// trunks: a channel's MAC, serial lines and stations never touch another
// channel's state directly, and every cross-channel path crosses a link with
// a real, bounded latency. A ShardSet exploits that: one Simulator (and so
// one event heap) per shard, with cross-shard events carried as
// explicit handoffs instead of shared-queue inserts. Three execution modes:
//
//   * kUnified — every shard aliases ONE Simulator. This is exactly the
//     classic single-queue execution, byte-for-byte: the tracediff gate runs
//     the city topology in this mode as the pre-shard reference.
//   * kSharded — one Simulator per shard, executed on one thread as a
//     globally time-ordered merge (a lazy min-heap over shard clocks; equal
//     timestamps break ties by shard index). The default for `--topo`.
//   * kParallel — conservative parallel DES: the caller of RunUntil and
//     threads − 1 helpers started for that call run their shards through
//     each window [next, next + lookahead) and meet at one barrier, where
//     the last to arrive injects the handoffs — which the lookahead
//     guarantees land strictly beyond the window — from per-source outboxes
//     in (src shard, post order) and opens the next window, so execution is
//     deterministic for a fixed seed and any thread count.
//
// Lookahead comes from the topology: the minimum over all cross-shard links
// of (propagation delay + one serial byte time); a handoff posted at time t
// may not be scheduled before t + lookahead, and Post() enforces that with
// an invariant. An outbox needs no lock: only the thread running its source
// shard appends to it during a window, and only the last thread to reach
// the barrier drains it, while every other thread waits; the barrier mutex
// orders the two.
#ifndef SRC_SIM_SHARD_EXEC_H_
#define SRC_SIM_SHARD_EXEC_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace upr {

struct ShardStats {
  std::uint64_t posted = 0;         // cross-shard handoffs posted
  std::uint64_t ring_overflow = 0;  // always 0: outboxes are unbounded
  std::uint64_t injected = 0;       // handoffs injected at barriers
  std::uint64_t windows = 0;        // parallel windows executed
  std::uint64_t merge_steps = 0;    // events run by the kSharded merge loop
};

class ShardSet {
 public:
  enum class Mode { kUnified, kSharded, kParallel };

  struct Config {
    std::size_t shards = 1;
    Mode mode = Mode::kSharded;
    // Threads, the caller included (kParallel only; clamped to [1, shards]).
    int threads = 1;
    // Conservative lookahead (ns). Post() rejects handoffs closer than this.
    // Ignored in kUnified, where every "handoff" is a same-queue insert.
    SimTime lookahead = 1;
  };

  explicit ShardSet(const Config& config);
  ~ShardSet() = default;
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t shard_count() const { return shard_count_; }
  Mode mode() const { return config_.mode; }
  SimTime lookahead() const { return config_.lookahead; }
  int threads() const { return config_.threads; }

  // The simulator backing shard `k`. In kUnified mode every k returns the
  // same Simulator; construction order is otherwise identical across modes,
  // which is what keeps seeded component construction byte-stable.
  Simulator* shard(std::size_t k) const;

  // The simulator whose event is currently executing (merge cursor in
  // kSharded, the single sim in kUnified). Valid on the executing thread
  // only; a tracer given this set reads it so ring/pcap timestamps come
  // from the shard that actually recorded the crossing. kParallel never
  // touches it — its threads install per-shard tracers instead.
  Simulator* current_sim() const { return current_; }
  SimTime CurrentTime() const { return current_->Now(); }

  // Schedules `fn` on shard `dst` at absolute sim time `when`. Must be
  // called from an event executing on shard `src`. In kParallel mode `when`
  // must be at least the source clock plus the lookahead (invariant-checked)
  // and the handoff waits in src's outbox until the next barrier; the serial
  // modes and a self-post schedule directly and keep the same timestamps.
  void Post(std::size_t src, std::size_t dst, SimTime when,
            std::function<void()> fn);

  // Installed hook runs on the thread about to run a shard's parallel window
  // (a helper or the caller); the city runner installs the shard's
  // thread_local tracer with it, so after a run the caller's slot holds the
  // tracer of the last shard it ran. kParallel only; set before RunUntil.
  void set_shard_enter_hook(std::function<void(std::size_t)> hook) {
    enter_hook_ = std::move(hook);
  }

  // Runs all shards up to and including `deadline`, per the mode. Returns
  // the number of events executed across shards.
  std::size_t RunUntil(SimTime deadline);

  // True when no shard has a pending event (call between RunUntil calls).
  bool Idle();

  // Aggregated handoff/window counters (call when quiescent).
  ShardStats stats() const;

  // Aggregate counters across distinct simulators (kUnified counts its one
  // simulator once).
  std::uint64_t TotalEventsScheduled() const;
  std::size_t TotalEventsExecuted() const;

 private:
  struct Handoff {
    SimTime when = 0;
    std::size_t dst = 0;
    std::function<void()> fn;
  };

  std::size_t RunUnified(SimTime deadline);
  std::size_t RunShardedMerge(SimTime deadline);
  // noexcept: a throw would strand the helpers at the barrier, unjoinable,
  // so it ends the program, as a throw on a helper does.
  std::size_t RunParallel(SimTime deadline) noexcept;

  // The barrier's work, on the last thread to reach it while the others
  // wait: moves every outbox entry into its destination simulator, sources
  // in index order, each outbox in post order (the event heap breaks
  // same-instant ties by scheduling order, so same-instant handoffs run in
  // (src, post order) on every thread count), then opens the next window
  // (window_end_). False when no shard has an event by `deadline`.
  bool OpenWindow(SimTime deadline);
  // Thread t's share of a parallel run: shards k ≡ t (mod threads).
  void RunShare(std::size_t t, SimTime deadline);

  Config config_;
  std::size_t shard_count_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Simulator*> shards_;  // shard index -> sim (aliased in kUnified)
  std::function<void(std::size_t)> enter_hook_;
  Simulator* current_ = nullptr;

  // kParallel handoffs, indexed by source shard. outbox_[s] and posted_[s]
  // are written only by the thread running s (or the last thread to reach
  // the barrier), and the barrier mutex orders the two.
  std::vector<std::vector<Handoff>> outbox_;
  std::vector<std::uint64_t> posted_;

  // kSharded merge state: lazy min-heap of (next event time, shard).
  using MergeEntry = std::pair<SimTime, std::size_t>;
  std::priority_queue<MergeEntry, std::vector<MergeEntry>,
                      std::greater<MergeEntry>>
      merge_heap_;

  // Counters. serial_posted_/injected/windows/merge_steps are touched only
  // by one thread at a time (in kParallel, the last to reach the barrier).
  std::uint64_t serial_posted_ = 0;
  std::uint64_t stats_injected_ = 0;
  std::uint64_t stats_windows_ = 0;
  std::uint64_t stats_merge_steps_ = 0;

  // The kParallel barrier. The last thread to bump arrived_ under mu_ does
  // the barrier's work and bumps generation_, waking the others; mu_ orders
  // window_end_ and every shard's state between the threads.
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  std::size_t arrived_ = 0;
  SimTime window_end_ = 0;
  bool window_open_ = false;
  std::size_t run_executed_ = 0;  // this RunUntil's events, summed under mu_
};

}  // namespace upr

#endif  // SRC_SIM_SHARD_EXEC_H_
