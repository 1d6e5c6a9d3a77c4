// Tests for the sharded executor: the three ShardSet execution modes
// producing identical per-shard event schedules for the same seeded
// workload, and the parallel executor's handoff order and accounting.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

// ---------------------------------------------------------------------------
// ShardSet

TEST(ShardSet, UnifiedModeAliasesOneSimulator) {
  ShardSet set({.shards = 4, .mode = ShardSet::Mode::kUnified});
  EXPECT_EQ(set.shard(0), set.shard(1));
  EXPECT_EQ(set.shard(0), set.shard(3));
}

TEST(ShardSet, ShardedModeHasDistinctSimulators) {
  ShardSet set({.shards = 3, .mode = ShardSet::Mode::kSharded});
  EXPECT_NE(set.shard(0), set.shard(1));
  EXPECT_NE(set.shard(1), set.shard(2));
}

TEST(ShardSet, ShardedMergeRunsInGlobalTimeOrder) {
  ShardSet set({.shards = 3, .mode = ShardSet::Mode::kSharded});
  std::vector<std::pair<SimTime, std::size_t>> order;
  // Interleaved timestamps across shards; one tie (t=500) that must break by
  // shard index.
  set.shard(1)->ScheduleAt(100, [&] { order.push_back({100, 1}); });
  set.shard(0)->ScheduleAt(200, [&] { order.push_back({200, 0}); });
  set.shard(2)->ScheduleAt(150, [&] { order.push_back({150, 2}); });
  set.shard(2)->ScheduleAt(500, [&] { order.push_back({500, 2}); });
  set.shard(0)->ScheduleAt(500, [&] { order.push_back({500, 0}); });
  const std::size_t executed = set.RunUntil(1000);
  EXPECT_EQ(executed, 5u);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], (std::pair<SimTime, std::size_t>{100, 1}));
  EXPECT_EQ(order[1], (std::pair<SimTime, std::size_t>{150, 2}));
  EXPECT_EQ(order[2], (std::pair<SimTime, std::size_t>{200, 0}));
  EXPECT_EQ(order[3], (std::pair<SimTime, std::size_t>{500, 0}));
  EXPECT_EQ(order[4], (std::pair<SimTime, std::size_t>{500, 2}));
  EXPECT_TRUE(set.Idle());
}

TEST(ShardSet, CrossShardPostArrivesAtRequestedTime) {
  ShardSet set({.shards = 2, .mode = ShardSet::Mode::kSharded, .lookahead = 50});
  SimTime arrival = 0;
  set.shard(0)->ScheduleAt(100, [&] {
    set.Post(0, 1, set.shard(0)->Now() + 50,
             [&] { arrival = set.shard(1)->Now(); });
  });
  set.RunUntil(1000);
  EXPECT_EQ(arrival, 150u);
  EXPECT_EQ(set.stats().posted, 1u);
}

// A seeded synthetic workload: each shard runs a chain of local events and
// every third step posts a handoff to the next shard. Event timestamps are
// residue-separated (locals on shard s are ≡ s mod 10, handoffs into s are
// ≡ src+5 mod 10) so no two events on a shard ever share a timestamp and the
// per-shard logs are a complete order witness. The same workload must
// produce byte-identical per-shard logs in every mode and thread count.
class SyntheticWorkload {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr int kSteps = 200;
  static constexpr SimTime kLookahead = 1000;
  static constexpr SimTime kEnd = 10'000'000;

  SyntheticWorkload(ShardSet::Mode mode, int threads)
      : set_({.shards = kShards,
              .mode = mode,
              .threads = threads,
              .lookahead = kLookahead}),
        logs_(kShards) {
    for (std::size_t s = 0; s < kShards; ++s) {
      ScheduleStep(s, /*step=*/0, /*when=*/100 + 10 * s + s);
    }
  }

  void Run() { executed_ = set_.RunUntil(kEnd); }
  // The same run cut into RunUntil calls `slice` apart, then to the end.
  void RunSliced(SimTime slice) {
    for (SimTime t = slice; !set_.Idle(); t += slice) {
      executed_ += set_.RunUntil(t);
    }
    executed_ += set_.RunUntil(kEnd);
  }

  const std::vector<std::vector<std::string>>& logs() const { return logs_; }
  ShardStats stats() const { return set_.stats(); }
  std::size_t executed() const { return executed_; }
  bool Idle() { return set_.Idle(); }

 private:
  void ScheduleStep(std::size_t s, int step, SimTime when) {
    set_.shard(s)->ScheduleAt(when, [this, s, step] {
      Simulator* sim = set_.shard(s);
      Append(s, "s%zu step%d t%llu", s, step,
             static_cast<unsigned long long>(sim->Now()));
      if (step % 3 == 1) {
        const std::size_t dst = (s + 1) % kShards;
        // A burst of four. The +5 offset keeps handoff residues disjoint
        // from local residues; burst members stay 10 apart so no two events
        // on the destination shard ever share a timestamp.
        for (int burst = 0; burst < 4; ++burst) {
          const SimTime rx = sim->Now() + kLookahead + 10 * burst + 5;
          set_.Post(s, dst, rx, [this, dst, s, burst] {
            Append(dst, "s%zu rx-from%zu.%d t%llu", dst, s, burst,
                   static_cast<unsigned long long>(set_.shard(dst)->Now()));
          });
        }
      }
      if (step + 1 < kSteps) {
        // Increments are multiples of 10, so locals stay on residue s.
        ScheduleStep(s, step + 1, sim->Now() + 100 + 40 * ((step * 7 + s) % 5));
      }
    });
  }

  void Append(std::size_t s, const char* fmt, ...) {
    char buf[96];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    logs_[s].push_back(buf);
  }

  ShardSet set_;
  std::vector<std::vector<std::string>> logs_;
  std::size_t executed_ = 0;
};

TEST(ShardSet, AllModesProduceIdenticalPerShardSchedules) {
  SyntheticWorkload unified(ShardSet::Mode::kUnified, 1);
  unified.Run();
  SyntheticWorkload sharded(ShardSet::Mode::kSharded, 1);
  sharded.Run();
  SyntheticWorkload par2(ShardSet::Mode::kParallel, 2);
  par2.Run();
  SyntheticWorkload par4(ShardSet::Mode::kParallel, 4);
  par4.Run();

  // Every shard saw its 200 local steps plus the handoffs aimed at it.
  for (std::size_t s = 0; s < SyntheticWorkload::kShards; ++s) {
    ASSERT_GT(unified.logs()[s].size(), 200u) << "shard " << s;
    EXPECT_EQ(sharded.logs()[s], unified.logs()[s]) << "shard " << s;
    EXPECT_EQ(par2.logs()[s], unified.logs()[s]) << "shard " << s;
    EXPECT_EQ(par4.logs()[s], unified.logs()[s]) << "shard " << s;
  }
  EXPECT_EQ(sharded.executed(), unified.executed());
  EXPECT_EQ(par2.executed(), unified.executed());
  EXPECT_EQ(par4.executed(), unified.executed());
  EXPECT_TRUE(par4.Idle());

  // Handoff accounting: the parallel runs posted the same crossings the
  // serial merge did, and every posted handoff was injected at a barrier.
  const ShardStats serial = sharded.stats();
  const ShardStats p4 = par4.stats();
  EXPECT_GT(serial.posted, 0u);
  EXPECT_EQ(p4.posted, serial.posted);
  EXPECT_EQ(p4.injected, p4.posted);
  EXPECT_GT(p4.windows, 0u);
}

// Each RunUntil starts its helper threads afresh and joins them before it
// returns, so a run cut into many calls must match one call: the same
// per-shard schedule, the same handoffs and the same event count. A cut
// inside a window splits it in two, so the window count grows with the
// cuts, but it is the same on every thread count.
TEST(ShardSet, ParallelSlicedRunMatchesOneCall) {
  constexpr SimTime kSlice = 777;  // cuts windows at no fixed phase
  SyntheticWorkload whole(ShardSet::Mode::kParallel, 1);
  whole.Run();
  SyntheticWorkload sliced1(ShardSet::Mode::kParallel, 1);
  sliced1.RunSliced(kSlice);
  for (int threads = 1; threads <= 4; ++threads) {
    SyntheticWorkload sliced(ShardSet::Mode::kParallel, threads);
    sliced.RunSliced(kSlice);
    EXPECT_EQ(sliced.logs(), whole.logs()) << threads << " threads";
    EXPECT_EQ(sliced.executed(), whole.executed()) << threads << " threads";
    const ShardStats s = sliced.stats();
    EXPECT_EQ(s.posted, whole.stats().posted) << threads << " threads";
    EXPECT_EQ(s.injected, whole.stats().injected) << threads << " threads";
    EXPECT_GT(s.windows, whole.stats().windows) << threads << " threads";
    EXPECT_EQ(s.windows, sliced1.stats().windows) << threads << " threads";
    EXPECT_TRUE(sliced.Idle());
  }
}

// A set destroyed between RunUntil calls, with events still pending on
// every shard, owns no thread that could run them: destruction only frees.
TEST(ShardSet, ParallelSetDestroyedWithPendingEventsExitsCleanly) {
  int ran = 0;
  int late = 0;
  {
    ShardSet set({.shards = 4,
                  .mode = ShardSet::Mode::kParallel,
                  .threads = 4,
                  .lookahead = 1000});
    for (std::size_t s = 0; s < 4; ++s) {
      set.shard(s)->ScheduleAt(100 + s, [&set, s] {
        set.Post(s, (s + 1) % 4, set.shard(s)->Now() + 1000, [] {});
      });
      set.shard(s)->ScheduleAt(50'000, [&late] { ++late; });
    }
    ran = static_cast<int>(set.RunUntil(10'000));
    EXPECT_FALSE(set.Idle());
    EXPECT_EQ(set.stats().injected, 4u);
  }
  EXPECT_EQ(ran, 8);  // the four posts and the four handoffs they carried
  EXPECT_EQ(late, 0);
}

TEST(ShardSet, ParallelRunsAreRepeatable) {
  SyntheticWorkload a(ShardSet::Mode::kParallel, 3);
  a.Run();
  SyntheticWorkload b(ShardSet::Mode::kParallel, 3);
  b.Run();
  EXPECT_EQ(a.logs(), b.logs());
  EXPECT_EQ(a.executed(), b.executed());
}

// Same-instant handoffs to one shard, posted inside one window, run in
// (source index, post order) whatever the thread count: the barrier drains
// the outboxes in source order and the destination heap breaks ties by
// scheduling order. Shard 2 posts first (twice), shard 1 posts later. (The
// serial modes schedule at post time, so there the two bursts would run in
// post order instead; the synthetic workload above avoids such ties.)
TEST(ShardSet, SameInstantHandoffsRunInSourceThenPostOrder) {
  for (int threads = 1; threads <= 4; ++threads) {
    ShardSet set({.shards = 4,
                  .mode = ShardSet::Mode::kParallel,
                  .threads = threads,
                  .lookahead = 1000});
    constexpr SimTime kArrive = 5000;
    std::vector<std::string> order;
    auto post = [&](std::size_t src, const char* tag) {
      set.Post(src, 0, kArrive, [&order, tag] { order.push_back(tag); });
    };
    set.shard(2)->ScheduleAt(100, [&] {
      post(2, "from2.0");
      post(2, "from2.1");
    });
    set.shard(1)->ScheduleAt(200, [&] { post(1, "from1.0"); });
    set.RunUntil(10'000);
    EXPECT_EQ(order,
              (std::vector<std::string>{"from1.0", "from2.0", "from2.1"}))
        << threads << " threads";
    EXPECT_EQ(set.stats().posted, 3u);
    EXPECT_EQ(set.stats().injected, 3u);
  }
}

// A self-post in kParallel schedules directly and counts against the
// source's own posted count. Two shards on two workers self-post at once,
// so a shared counter here is a data race the TSan lane reports.
TEST(ShardSet, ParallelSelfPostsCountPerSource) {
  constexpr SimTime kLookahead = 1'000'000;
  constexpr int kPosts = 2000;
  ShardSet set({.shards = 2,
                .mode = ShardSet::Mode::kParallel,
                .threads = 2,
                .lookahead = kLookahead});
  std::vector<int> ran(2, 0);
  std::function<void(std::size_t, int)> chain = [&](std::size_t s, int n) {
    ++ran[s];
    if (n + 1 < kPosts) {
      set.Post(s, s, set.shard(s)->Now() + 10,
               [&chain, s, n] { chain(s, n + 1); });
    }
  };
  for (std::size_t s = 0; s < 2; ++s) {
    set.shard(s)->ScheduleAt(100, [&chain, s] { chain(s, 0); });
  }
  set.RunUntil(kLookahead * 10);
  EXPECT_EQ(ran, (std::vector<int>{kPosts, kPosts}));
  const ShardStats st = set.stats();
  EXPECT_EQ(st.posted, 2u * (kPosts - 1));
  EXPECT_EQ(st.injected, 0u);
}

}  // namespace
}  // namespace upr
