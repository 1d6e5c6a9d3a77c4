// upr — sharded event execution as conservative parallel DES (ISSUE 8).
//
// The city-scale topology decomposes, as the NS-2 multi-channel model does,
// into radio channels that only interact through gateways and point-to-point
// trunks: a channel's MAC, serial lines and stations never touch another
// channel's state directly, and every cross-channel path crosses a link with
// a real, bounded latency. A ShardSet exploits that: one Simulator (and so
// one event heap) per shard, with cross-shard events carried as explicit
// handoffs instead of shared-queue inserts.
//
// One executor runs every set, at any thread count: the caller of RunUntil
// and threads − 1 helpers run the shards through each window
// [next, next + lookahead) and meet at one barrier, where the last to arrive
// injects the handoffs — which the lookahead guarantees land strictly beyond
// the window — from per-source outboxes in (src shard, post order) and opens
// the next window. With one thread the caller runs every shard, in index
// order, and a handoff goes straight into its destination heap instead,
// since no other thread can be running that shard. Execution is
// deterministic for a fixed seed and any thread count.
//
// Helpers live with the set: the first RunUntil on more than one thread
// starts them (construction starts nothing), they park between calls, and
// the destructor wakes and joins them. The barrier is one arrival count and
// one generation word: a waiter spins on the word for a few tens of
// microseconds, then blocks in std::atomic::wait; the last thread to arrive
// opens the next window, bumps the generation and wakes the rest. Inside a
// window a thread runs its home shards (k ≡ t mod threads) first, then
// steals any shard not yet run, from the highest index down; a per-shard
// claim word stamped with the window number runs each shard exactly once.
// RunUntil returns only once every helper is parked again, so no helper
// reads window state the next call rewrites.
//
// Which thread runs a shard changes from run to run, and nothing may show
// it: a shard's events touch only its own state, its handoffs wait in its
// own outbox, and its buffer counters and slab pool live in its own
// BufContext, installed on the running thread around each shard's window.
// There is nothing to configure.
//
// Lookahead comes from the topology: the minimum over all cross-shard links
// of (propagation delay + one serial byte time); a handoff posted at time t
// may not be scheduled before t + lookahead, and Post() enforces that with
// an invariant at every thread count. An outbox needs no lock: only the
// thread running its source shard appends to it during a window, and only
// the last thread to reach the barrier drains it, while every other thread
// waits; the barrier's acquire/release pairs order the two.
#ifndef SRC_SIM_SHARD_EXEC_H_
#define SRC_SIM_SHARD_EXEC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace upr {

class BufContextGroup;

struct ShardStats {
  std::uint64_t posted = 0;         // handoffs posted, self-posts included
  std::uint64_t ring_overflow = 0;  // always 0: outboxes are unbounded
  std::uint64_t injected = 0;       // cross-shard handoffs scheduled into dst
  std::uint64_t windows = 0;        // lookahead windows executed
};

class ShardSet {
 public:
  // Kept only because perfbench names it (CityConfig::mode, ModeName).
  // Nothing reads it: every set runs the one executor above.
  enum class Mode { kUnified, kSharded, kParallel };

  struct Config {
    std::size_t shards = 1;
    // Threads, the caller included (clamped to [1, shards]).
    int threads = 1;
    // Conservative lookahead (ns). Post() rejects handoffs closer than this.
    SimTime lookahead = 1;
  };

  explicit ShardSet(const Config& config);
  // Wakes and joins the parked helpers, if any were started.
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t shard_count() const { return sims_.size(); }
  SimTime lookahead() const { return config_.lookahead; }
  int threads() const { return config_.threads; }

  // The simulator backing shard `k`.
  Simulator* shard(std::size_t k) const;

  // Schedules `fn` on shard `dst` at absolute sim time `when`. Must be
  // called from an event executing on shard `src`. A self-post schedules
  // directly. A cross-shard `when` must be at least the source clock plus
  // the lookahead (invariant-checked); with one thread the handoff is
  // scheduled at once, with more it waits in src's outbox until the next
  // barrier. The two differ only against an event the destination
  // schedules, later in the same window, for the handoff's very instant:
  // one thread runs the handoff first, a barrier runs it second.
  void Post(std::size_t src, std::size_t dst, SimTime when,
            std::function<void()> fn);

  // Installed hook runs on the thread about to run a shard's window (a
  // helper or the caller); the city runner installs the shard's thread_local
  // tracer with it, so after a run the caller's slot holds the tracer of
  // some shard it ran. Set before RunUntil.
  void set_shard_enter_hook(std::function<void(std::size_t)> hook) {
    enter_hook_ = std::move(hook);
  }

  // Runs all shards up to and including `deadline`. Returns the number of
  // events executed across shards. noexcept: a throw would strand the
  // helpers at the barrier, so it ends the program, as a throw on a helper
  // does.
  std::size_t RunUntil(SimTime deadline) noexcept;

  // True when no shard has a pending event (call between RunUntil calls).
  bool Idle();

  // Aggregated handoff/window counters (call when quiescent).
  ShardStats stats() const;

  // Aggregate counters across the shards' simulators.
  std::uint64_t TotalEventsScheduled() const;
  std::size_t TotalEventsExecuted() const;

 private:
  struct Handoff {
    SimTime when = 0;
    std::size_t dst = 0;
    std::function<void()> fn;
  };

  // The barrier's work, on the last thread to reach it while the others
  // wait: moves every outbox entry into its destination simulator, sources
  // in index order, each outbox in post order (the event heap breaks
  // same-instant ties by scheduling order, so same-instant handoffs run in
  // (src, post order) on every thread count), then opens the next window
  // (window_end_, numbered by stats_windows_). False when no shard has an
  // event by `deadline`.
  bool OpenWindow(SimTime deadline);
  // Runs shard k's part of the open window on the calling thread, in the
  // shard's buffer context.
  void RunShard(std::size_t k);
  // Thread t's part of one window: its home shards, then any left unclaimed.
  void RunWindowShards(std::size_t t);
  // Thread t runs windows from the one published at `generation` until a
  // barrier opens none. Returns that barrier's generation.
  std::uint32_t RunWindows(std::size_t t, std::uint32_t generation);
  // A helper's life: parked until a call publishes a window (or the set is
  // destroyed), then the call's windows, then parked again.
  void HelperMain(std::size_t t, std::uint32_t generation);

  Config config_;
  std::vector<std::unique_ptr<Simulator>> sims_;  // one per shard
  std::function<void(std::size_t)> enter_hook_;

  // Handoffs, indexed by source shard. outbox_[s] and posted_[s] are
  // written only by the thread running s (or the last thread to reach the
  // barrier), and the barrier orders the two.
  std::vector<std::vector<Handoff>> outbox_;
  std::vector<std::uint64_t> posted_;

  // Touched only by one thread at a time: the last to reach the barrier,
  // or the caller of a one-thread run's Post.
  std::uint64_t stats_injected_ = 0;
  std::uint64_t stats_windows_ = 0;

  // Created by the first RunUntil, never by the constructor, which set-up
  // timings include.
  std::unique_ptr<BufContextGroup> buf_;  // one buffer context per shard
  struct alignas(64) Claim {
    std::atomic<std::uint64_t> window{0};  // last window that ran the shard
  };
  std::unique_ptr<Claim[]> claims_;

  // The barrier. Window state is written by the caller before it publishes
  // a call, or by the last thread to arrive before it bumps generation_;
  // every other thread reads it after seeing the bump.
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> parked_{0};  // helpers done with this call
  SimTime deadline_ = 0;
  SimTime window_end_ = 0;
  bool window_open_ = false;
  bool stop_ = false;  // set by the destructor

  // Last, after everything the helpers use.
  std::vector<std::thread> helpers_;
};

}  // namespace upr

#endif  // SRC_SIM_SHARD_EXEC_H_
