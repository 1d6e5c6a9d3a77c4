// Tests for the sharded executor: one window loop producing identical
// per-shard event schedules for the same seeded workload at every thread
// count, its lookahead check, and its handoff order and accounting.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"

namespace upr {
namespace {

// ---------------------------------------------------------------------------
// ShardSet

TEST(ShardSet, ShardsHaveDistinctSimulators) {
  ShardSet set({.shards = 3});
  EXPECT_NE(set.shard(0), set.shard(1));
  EXPECT_NE(set.shard(1), set.shard(2));
}

// With lookahead 1 every window is a single instant, so events run in time
// order at any thread count, and one thread runs an instant's events in
// shard order.
TEST(ShardSet, LookaheadOneRunsInTimeThenShardOrder) {
  for (int threads = 1; threads <= 3; ++threads) {
    ShardSet set({.shards = 3, .threads = threads});
    std::vector<std::pair<SimTime, std::size_t>> order;
    std::mutex mu;  // on three threads shards 0 and 2 run t=500 at once
    auto log = [&](SimTime t, std::size_t k) {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back({t, k});
    };
    // Interleaved timestamps across shards; one tie (t=500) that one thread
    // breaks by shard index.
    set.shard(1)->ScheduleAt(100, [&] { log(100, 1); });
    set.shard(0)->ScheduleAt(200, [&] { log(200, 0); });
    set.shard(2)->ScheduleAt(150, [&] { log(150, 2); });
    set.shard(2)->ScheduleAt(500, [&] { log(500, 2); });
    set.shard(0)->ScheduleAt(500, [&] { log(500, 0); });
    const std::size_t executed = set.RunUntil(1000);
    EXPECT_EQ(executed, 5u);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order[0], (std::pair<SimTime, std::size_t>{100, 1}));
    EXPECT_EQ(order[1], (std::pair<SimTime, std::size_t>{150, 2}));
    EXPECT_EQ(order[2], (std::pair<SimTime, std::size_t>{200, 0}));
    if (threads == 1) {
      EXPECT_EQ(order[3], (std::pair<SimTime, std::size_t>{500, 0}));
      EXPECT_EQ(order[4], (std::pair<SimTime, std::size_t>{500, 2}));
    }
    EXPECT_EQ(set.stats().windows, 4u) << threads << " threads";
    EXPECT_TRUE(set.Idle());
  }
}

TEST(ShardSet, CrossShardPostArrivesAtRequestedTime) {
  for (int threads = 1; threads <= 2; ++threads) {
    ShardSet set({.shards = 2, .threads = threads, .lookahead = 50});
    SimTime arrival = 0;
    set.shard(0)->ScheduleAt(100, [&] {
      set.Post(0, 1, set.shard(0)->Now() + 50,
               [&] { arrival = set.shard(1)->Now(); });
    });
    set.RunUntil(1000);
    EXPECT_EQ(arrival, 150u) << threads << " threads";
    EXPECT_EQ(set.stats().posted, 1u);
    EXPECT_EQ(set.stats().injected, 1u);
  }
}

// One thread schedules a handoff straight into its destination, but still
// holds it to the lookahead the windows rely on.
TEST(ShardSetDeathTest, OneThreadPostInsideLookaheadDies) {
  ShardSet set({.shards = 2, .threads = 1, .lookahead = 50});
  set.shard(0)->ScheduleAt(100, [&] {
    set.Post(0, 1, set.shard(0)->Now() + 49, [] {});
  });
  EXPECT_DEATH(set.RunUntil(1000), "violates lookahead 50");
}

// A seeded synthetic workload: each shard runs a chain of local events and
// every third step posts a handoff to the next shard. Event timestamps are
// residue-separated (locals on shard s are ≡ s mod 10, handoffs into s are
// ≡ src+5 mod 10) so no two events on a shard ever share a timestamp and the
// per-shard logs are a complete order witness. The same workload must
// produce byte-identical per-shard logs at every thread count. A skewed
// workload gives shard 0 ten times the steps, packed ten times tighter, so
// it carries most events of every window; it posts every 24th step, which
// keeps its bursts apart on the destination.
class SyntheticWorkload {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr int kSteps = 200;
  static constexpr SimTime kLookahead = 1000;
  static constexpr SimTime kEnd = 10'000'000;

  explicit SyntheticWorkload(int threads, bool skewed = false)
      : set_({.shards = kShards,
              .threads = threads,
              .lookahead = kLookahead}),
        skewed_(skewed),
        logs_(kShards) {
    for (std::size_t s = 0; s < kShards; ++s) {
      ScheduleStep(s, /*step=*/0, /*when=*/100 + 10 * s + s);
    }
  }

  void Run() { executed_ = set_.RunUntil(kEnd); }
  void RunTo(SimTime deadline) { executed_ += set_.RunUntil(deadline); }
  // The same run cut into RunUntil calls `slice` apart, then to the end.
  void RunSliced(SimTime slice) {
    for (SimTime t = slice; !set_.Idle(); t += slice) {
      executed_ += set_.RunUntil(t);
    }
    executed_ += set_.RunUntil(kEnd);
  }

  void set_enter_hook(std::function<void(std::size_t)> hook) {
    set_.set_shard_enter_hook(std::move(hook));
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
      const bool heavy = skewed_ && s == 0;
      if (step % (heavy ? 24 : 3) == 1) {
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
      if (step + 1 < (heavy ? 10 * kSteps : kSteps)) {
        // Increments are multiples of 10, so locals stay on residue s.
        ScheduleStep(s, step + 1,
                     sim->Now() + (heavy ? 10 + 10 * (step % 3)
                                         : 100 + 40 * ((step * 7 + s) % 5)));
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
  bool skewed_;
  std::vector<std::vector<std::string>> logs_;
  std::size_t executed_ = 0;
};

TEST(ShardSet, EveryThreadCountProducesIdenticalPerShardSchedules) {
  SyntheticWorkload one(1);
  one.Run();
  // Every shard saw its 200 local steps plus the handoffs aimed at it.
  for (std::size_t s = 0; s < SyntheticWorkload::kShards; ++s) {
    ASSERT_GT(one.logs()[s].size(), 200u) << "shard " << s;
  }
  EXPECT_TRUE(one.Idle());
  // Every handoff crosses shards, so each posted one is injected: at post
  // time on one thread, at a barrier on more.
  const ShardStats base = one.stats();
  EXPECT_GT(base.posted, 0u);
  EXPECT_EQ(base.injected, base.posted);
  EXPECT_GT(base.windows, 0u);
  for (int threads = 2; threads <= 4; ++threads) {
    SyntheticWorkload run(threads);
    run.Run();
    EXPECT_EQ(run.logs(), one.logs()) << threads << " threads";
    EXPECT_EQ(run.executed(), one.executed()) << threads << " threads";
    const ShardStats s = run.stats();
    EXPECT_EQ(s.posted, base.posted) << threads << " threads";
    EXPECT_EQ(s.injected, base.injected) << threads << " threads";
    EXPECT_EQ(s.windows, base.windows) << threads << " threads";
    EXPECT_TRUE(run.Idle());
  }
}

// Helpers park between RunUntil calls and every call returns with them
// parked, so a run cut into many calls must match one call: the same
// per-shard schedule, the same handoffs and the same event count. A cut
// inside a window splits it in two, so the window count grows with the
// cuts, but it is the same on every thread count.
TEST(ShardSet, SlicedRunMatchesOneCall) {
  constexpr SimTime kSlice = 777;  // cuts windows at no fixed phase
  SyntheticWorkload whole(1);
  whole.Run();
  SyntheticWorkload sliced1(1);
  sliced1.RunSliced(kSlice);
  for (int threads = 1; threads <= 4; ++threads) {
    SyntheticWorkload sliced(threads);
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
// every shard, wakes and joins its parked helpers without running them.
TEST(ShardSet, ParallelSetDestroyedWithPendingEventsExitsCleanly) {
  int ran = 0;
  int late = 0;
  {
    ShardSet set({.shards = 4,
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

// The helpers live with the set: a run cut into ~50 calls sees no more
// distinct threads than the set has, the caller included.
TEST(ShardSet, SlicedRunKeepsItsThreads) {
  for (int threads = 2; threads <= 4; ++threads) {
    SyntheticWorkload run(threads);
    std::mutex mu;
    std::set<std::thread::id> ids;
    run.set_enter_hook([&](std::size_t) {
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
    run.RunSliced(777);
    EXPECT_TRUE(run.Idle());
    EXPECT_LE(ids.size(), static_cast<std::size_t>(threads))
        << threads << " threads";
  }
}

// One shard carrying most events is where threads steal from one another;
// what they run must not show in any log or counter.
TEST(ShardSet, SkewedLoadProducesIdenticalPerShardSchedules) {
  SyntheticWorkload one(1, /*skewed=*/true);
  one.Run();
  ASSERT_GT(one.logs()[0].size(), 3 * one.logs()[1].size());
  const ShardStats base = one.stats();
  for (int threads = 2; threads <= 4; ++threads) {
    for (bool sliced : {false, true}) {
      SyntheticWorkload run(threads, /*skewed=*/true);
      if (sliced) {
        run.RunSliced(777);
      } else {
        run.Run();
      }
      EXPECT_EQ(run.logs(), one.logs()) << threads << " threads";
      EXPECT_EQ(run.executed(), one.executed()) << threads << " threads";
      const ShardStats s = run.stats();
      EXPECT_EQ(s.posted, base.posted) << threads << " threads";
      EXPECT_EQ(s.injected, base.injected) << threads << " threads";
      if (!sliced) {
        EXPECT_EQ(s.windows, base.windows) << threads << " threads";
      }
    }
  }
}

// Sliced runs leave the helpers parked; destroying the set mid-workload
// wakes and joins them, and nothing pending runs.
TEST(ShardSet, SetWithParkedHelpersDestroyedAfterSlicedRunsExitsCleanly) {
  for (int threads = 2; threads <= 4; ++threads) {
    std::vector<std::vector<std::string>> logs;
    {
      SyntheticWorkload run(threads);
      for (SimTime t = 777; t <= 20 * 777; t += 777) {
        run.RunTo(t);
      }
      EXPECT_FALSE(run.Idle());
      logs = run.logs();
    }
    SyntheticWorkload reference(1);
    reference.RunTo(20 * 777);
    EXPECT_EQ(logs, reference.logs()) << threads << " threads";
  }
}

TEST(ShardSet, ParallelRunsAreRepeatable) {
  SyntheticWorkload a(3);
  a.Run();
  SyntheticWorkload b(3);
  b.Run();
  EXPECT_EQ(a.logs(), b.logs());
  EXPECT_EQ(a.executed(), b.executed());
}

// Same-instant handoffs to one shard, posted inside one window, run in
// (source index, post order) whatever the thread count: the barrier drains
// the outboxes in source order and the destination heap breaks ties by
// scheduling order. Shard 2 posts first in time (twice), shard 1 later; one
// thread runs the window's shards in index order and schedules each post at
// once, so it posts them in that same order.
TEST(ShardSet, SameInstantHandoffsRunInSourceThenPostOrder) {
  for (int threads = 1; threads <= 4; ++threads) {
    ShardSet set({.shards = 4,
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

// A self-post schedules directly and counts against the
// source's own posted count. Two shards on two workers self-post at once,
// so a shared counter here is a data race the TSan lane reports.
TEST(ShardSet, ParallelSelfPostsCountPerSource) {
  constexpr SimTime kLookahead = 1'000'000;
  constexpr int kPosts = 2000;
  ShardSet set({.shards = 2,
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
