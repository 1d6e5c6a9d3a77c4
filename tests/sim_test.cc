#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/sim/simulator.h"

namespace upr {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

TEST(SimulatorTest, EqualTimestampsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto id = sim.Schedule(Seconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelIsIdempotentAndSafeAfterRun) {
  Simulator sim;
  int runs = 0;
  auto id = sim.Schedule(Seconds(1), [&] { ++runs; });
  sim.RunAll();
  sim.Cancel(id);  // already executed: no-op
  sim.Cancel(id);
  EXPECT_EQ(runs, 1);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(5), [&] { order.push_back(5); });
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), Seconds(2));
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

// RunUntil(deadline, done): the one stop rule every workload runs under.
TEST(RunUntilDoneTest, DoneOnEntryRunsNothingAndKeepsTheClock) {
  Simulator sim;
  sim.RunUntil(Milliseconds(500));
  bool ran = false;
  sim.Schedule(Seconds(1), [&] { ran = true; });
  EXPECT_EQ(sim.RunUntil(Seconds(2), [] { return true; }), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.Now(), Milliseconds(500));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(RunUntilDoneTest, StopsBetweenSameInstantEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAt(Seconds(1), [&] { ++count; });
  }
  EXPECT_EQ(sim.RunUntil(Seconds(2), [&] { return count >= 2; }), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), Seconds(1));
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(RunUntilDoneTest, RunsEveryEventAtTheDeadlineAndNonePast) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAt(Seconds(3), [&] { order.push_back(2); });
  sim.ScheduleAt(Seconds(3), [&] { order.push_back(3); });
  sim.ScheduleAt(Seconds(3) + 1, [&] { order.push_back(4); });
  EXPECT_EQ(sim.RunUntil(Seconds(3), [] { return false; }), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Seconds(3));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(RunUntilDoneTest, ReachingTheDeadlineSettlesTheClock) {
  Simulator sim;
  std::uint64_t seq = 0;
  // The reserved key lies between the last event and the deadline, and the
  // queue drains before the deadline.
  sim.ScheduleAt(Seconds(1), [&] { seq = sim.ReserveSeq(); });
  EXPECT_EQ(sim.RunUntil(Seconds(5), [] { return false; }), 1u);
  EXPECT_EQ(sim.Now(), Seconds(5));
  EXPECT_TRUE(sim.Reached(Seconds(5), seq));
  EXPECT_TRUE(sim.Idle());
}

TEST(RunUntilDoneTest, StoppingOnDoneLeavesTheClockAtThatEvent) {
  Simulator sim;
  int count = 0;
  std::uint64_t seq = 0;
  sim.ScheduleAt(Seconds(1), [&] { ++count; });
  sim.ScheduleAt(Seconds(2), [&] {
    ++count;
    seq = sim.ReserveSeq();
  });
  sim.ScheduleAt(Seconds(3), [&] { ++count; });
  EXPECT_EQ(sim.RunUntil(Seconds(5), [&] { return count >= 2; }), 2u);
  EXPECT_EQ(sim.Now(), Seconds(2));
  EXPECT_FALSE(sim.Reached(Seconds(2), seq));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.Schedule(Seconds(1), recurse);
    }
  };
  sim.Schedule(Seconds(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(Seconds(2), [] {});
  sim.RunAll();
  SimTime before = sim.Now();
  bool ran = false;
  sim.Schedule(-Seconds(5), [&] { ran = true; });
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), before);
}

TEST(TimerTest, FiresOnceAfterDelay) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Restart(Seconds(3));
  EXPECT_TRUE(t.running());
  sim.RunAll();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.running());
}

TEST(TimerTest, RestartResetsDeadline) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Restart(Seconds(1));
  sim.RunUntil(Milliseconds(500));
  t.Restart(Seconds(1));
  sim.RunUntil(Seconds(1));  // original deadline passes
  EXPECT_EQ(fires, 0);
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StopCancels) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Restart(Seconds(1));
  t.Stop();
  sim.RunAll();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, TimerCanRearmItself) {
  Simulator sim;
  int fires = 0;
  Timer* handle = nullptr;
  Timer t(&sim, [&] {
    if (++fires < 3) {
      handle->Restart(Seconds(1));
    }
  });
  handle = &t;
  t.Restart(Seconds(1));
  sim.RunAll();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(SimulatorTest, EventPoolRecyclesInsteadOfGrowing) {
  Simulator sim;
  // A self-rescheduling chain keeps at most one event live; the pool must
  // not grow with the number of events executed.
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 10000) {
      sim.Schedule(kMicrosecond, tick);
    }
  };
  sim.Schedule(kMicrosecond, tick);
  sim.RunAll();
  EXPECT_EQ(fires, 10000);
  EXPECT_EQ(sim.events_scheduled(), 10000u);
  EXPECT_EQ(sim.executed_events(), 10000u);
  EXPECT_LE(sim.pool_capacity(), 4u);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

TEST(SimulatorTest, CancelledEventsReturnToPool) {
  Simulator sim;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Seconds(1), [] {}));
  }
  for (auto id : ids) {
    sim.Cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunAll();
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
  // Recycled slots are reused by later schedules.
  std::size_t capacity = sim.pool_capacity();
  bool ran = false;
  sim.Schedule(Seconds(1), [&] { ran = true; });
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pool_capacity(), capacity);
}

TEST(SimulatorTest, CancelOfRecycledIdDoesNotAffectNewEvent) {
  Simulator sim;
  auto id = sim.Schedule(Seconds(1), [] {});
  sim.RunAll();
  // `id` already ran; a new event may reuse its pool slot. Cancelling the
  // stale id must be a no-op for the new event.
  bool ran = false;
  sim.Schedule(Seconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_TRUE(ran);
}

// The heap is checked against a naive reference model: a std::set of
// (when, seq, tag), whose begin() is by definition the next event to run.
class ReferenceModel {
 public:
  using Key = std::tuple<SimTime, std::uint64_t, int>;

  explicit ReferenceModel(Simulator* sim) : sim_(sim) {}

  // Schedules tag `tag` at Now() + delay on both sides.
  void Schedule(SimTime delay, int tag) {
    SimTime when = sim_->Now() + delay;
    Key key{when, next_seq_++, tag};
    std::uint64_t id = sim_->Schedule(delay, [this, tag] { Fire(tag); });
    pending_.insert(key);
    live_[tag] = {id, key};
  }

  // Takes a seq on both sides now; ScheduleReserved() uses it later.
  void Reserve() { reserved_.push_back({sim_->ReserveSeq(), next_seq_++}); }

  // Schedules tag `tag` at Now() + delay under a seq reserved earlier (the
  // `pick`-th outstanding one, not necessarily the oldest).
  void ScheduleReserved(SimTime delay, int tag, std::size_t pick) {
    if (reserved_.empty()) {
      return;
    }
    auto it = reserved_.begin() + static_cast<std::ptrdiff_t>(pick % reserved_.size());
    SimTime when = sim_->Now() + delay;
    Key key{when, it->model_seq, tag};
    std::uint64_t id =
        sim_->ScheduleReserved(when, it->sim_seq, [this, tag] { Fire(tag); });
    reserved_.erase(it);
    pending_.insert(key);
    live_[tag] = {id, key};
  }

  void Cancel(int tag) {
    auto it = live_.find(tag);
    ASSERT_NE(it, live_.end());
    sim_->Cancel(it->second.id);
    pending_.erase(it->second.key);
    stale_.push_back(it->second.id);
    live_.erase(it);
  }

  // Cancelling an id that already ran or was cancelled must change nothing.
  void CancelStale(std::size_t pick) {
    if (!stale_.empty()) {
      sim_->Cancel(stale_[pick % stale_.size()]);
    }
  }

  // Expectation checked after every operation: same size, same next time,
  // and every record that is not pending back on the free list.
  void ExpectAgrees() const {
    ASSERT_EQ(sim_->pending_events(), pending_.size());
    ASSERT_EQ(sim_->pool_free() + pending_.size(), sim_->pool_capacity());
    ASSERT_EQ(sim_->Idle(), pending_.empty());
    SimTime next = 0;
    ASSERT_EQ(sim_->NextEventTime(&next), !pending_.empty());
    if (!pending_.empty()) {
      EXPECT_EQ(next, std::get<0>(*pending_.begin()));
    }
  }

  // The id of a live tag, for cancels the model does not see (stale ones).
  std::uint64_t id_of(int tag) const { return live_.at(tag).id; }
  // The tag the model runs next, or -1 when nothing is pending.
  int next_tag() const {
    return pending_.empty() ? -1 : std::get<2>(*pending_.begin());
  }

  std::vector<int> live_tags() const {
    std::vector<int> tags;
    for (const auto& [tag, rec] : live_) {
      tags.push_back(tag);
    }
    return tags;
  }
  std::size_t fired() const { return fired_; }
  std::size_t mismatches() const { return mismatches_; }
  // Called from a running callback: re-arms `tag` like Timer::Restart does.
  std::function<void(int)> on_fire;

 private:
  struct Live {
    std::uint64_t id;
    Key key;
  };
  struct Reservation {
    std::uint64_t sim_seq;
    std::uint64_t model_seq;
  };

  void Fire(int tag) {
    ++fired_;
    // The event the simulator runs must be the model's earliest, at the
    // model's time.
    if (pending_.empty() || std::get<2>(*pending_.begin()) != tag ||
        std::get<0>(*pending_.begin()) != sim_->Now()) {
      ++mismatches_;
    } else {
      pending_.erase(pending_.begin());
    }
    stale_.push_back(live_[tag].id);
    live_.erase(tag);
    if (on_fire) {
      on_fire(tag);
    }
  }

  Simulator* sim_;
  std::uint64_t next_seq_ = 0;
  std::set<Key> pending_;
  std::map<int, Live> live_;
  std::vector<std::uint64_t> stale_;
  std::vector<Reservation> reserved_;
  std::size_t fired_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(EventHeapTest, SeededChurnMatchesReferenceModel) {
  // Schedule / cancel / re-arm / stale-id cancel / run, plus seqs reserved
  // at one step and scheduled some steps later (as a serial line's queued
  // bytes are), chosen by a seeded LCG. Delays are coarse (whole
  // milliseconds) so many events share an instant and the seq tiebreak is
  // exercised constantly.
  Simulator sim;
  ReferenceModel model(&sim);
  std::uint64_t lcg = 12345;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  int next_tag = 0;
  // Some callbacks re-arm from inside the run, as protocol timers do.
  model.on_fire = [&](int tag) {
    if (tag % 5 == 0) {
      model.Schedule(Milliseconds(static_cast<double>(next() % 20)), next_tag++);
    }
  };
  for (int op = 0; op < 20'000; ++op) {
    std::uint64_t r = next() % 110;
    if (r >= 105) {
      model.Reserve();
    } else if (r >= 100) {
      model.ScheduleReserved(Milliseconds(static_cast<double>(next() % 50)),
                             next_tag++, next());
    } else if (r < 45) {
      model.Schedule(Milliseconds(static_cast<double>(next() % 50)), next_tag++);
    } else if (r < 65) {
      auto tags = model.live_tags();
      if (!tags.empty()) {
        model.Cancel(tags[next() % tags.size()]);
      }
    } else if (r < 80) {
      auto tags = model.live_tags();
      if (!tags.empty()) {
        // Re-arm: cancel and schedule afresh, like Timer::Restart.
        model.Cancel(tags[next() % tags.size()]);
        model.Schedule(Milliseconds(static_cast<double>(next() % 50)), next_tag++);
      }
    } else if (r < 90) {
      model.CancelStale(next());
    } else {
      sim.RunUntil(sim.Now() + Milliseconds(static_cast<double>(next() % 10)));
    }
    model.ExpectAgrees();
    ASSERT_EQ(model.mismatches(), 0u) << "diverged at op " << op;
  }
  model.on_fire = nullptr;
  sim.RunAll();
  model.ExpectAgrees();
  EXPECT_EQ(model.mismatches(), 0u);
  EXPECT_GT(model.fired(), 5'000u);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

// The next-event slot holds one entry outside the heap: every push earlier
// than everything pending. These cases drive it through the reference model,
// which knows nothing of the slot.
TEST(EventHeapTest, ChainAheadOfEverythingPendingUsesTheSlot) {
  // A per-byte serial line: each byte's event schedules the next one ahead
  // of far timers that stay pending throughout.
  Simulator sim;
  ReferenceModel model(&sim);
  int next_tag = 100;
  model.Schedule(Seconds(10), 0);
  model.Schedule(Seconds(20), 1);
  model.Schedule(Seconds(20), 2);
  model.on_fire = [&](int tag) {
    if (tag >= 100 && tag < 1100) {
      model.Schedule(Microseconds(1041), next_tag++);
    }
  };
  model.Schedule(Microseconds(1041), next_tag++);
  model.ExpectAgrees();
  while (model.next_tag() >= 100) {
    ASSERT_TRUE(sim.Step());
    model.ExpectAgrees();
  }
  EXPECT_EQ(model.fired(), 1001u);
  // The chain never held more than itself and the three timers.
  EXPECT_EQ(sim.pool_capacity(), 4u);
  sim.RunAll();
  model.ExpectAgrees();
  EXPECT_EQ(model.mismatches(), 0u);
}

TEST(EventHeapTest, PushEarlierThanTheSlotDemotesItToTheHeap) {
  Simulator sim;
  ReferenceModel model(&sim);
  model.Schedule(Milliseconds(10), 1);  // empty store: takes the slot
  model.ExpectAgrees();
  model.Schedule(Milliseconds(5), 2);  // earlier: the 10 ms entry moves
  model.ExpectAgrees();
  model.Schedule(Milliseconds(7), 3);  // between: the heap
  model.ExpectAgrees();
  model.Schedule(Milliseconds(5), 4);  // same instant, later seq: the heap
  model.ExpectAgrees();
  model.Reserve();
  model.Schedule(Milliseconds(1), 5);  // takes the slot again
  model.ExpectAgrees();
  // Same instant as the slot's entry, but an older seq: runs first.
  model.ScheduleReserved(Milliseconds(1), 6, 0);
  model.ExpectAgrees();
  EXPECT_EQ(model.next_tag(), 6);
  while (sim.Step()) {
    model.ExpectAgrees();
  }
  EXPECT_EQ(model.fired(), 6u);
  EXPECT_EQ(model.mismatches(), 0u);
}

TEST(EventHeapTest, CancellingTheSlotEntryAndAStaleIdToIt) {
  Simulator sim;
  ReferenceModel model(&sim);
  model.Schedule(Milliseconds(4), 1);
  model.Schedule(Milliseconds(2), 2);  // the slot's entry
  model.Schedule(Milliseconds(3), 3);
  const std::uint64_t slot_id = model.id_of(2);
  model.Cancel(2);
  model.ExpectAgrees();
  SimTime next = 0;
  ASSERT_TRUE(sim.NextEventTime(&next));
  EXPECT_EQ(next, Milliseconds(3));
  // The stale id now names a free record; the next push reuses it and
  // takes the slot again. Cancelling the stale id must leave it alone.
  model.Schedule(Milliseconds(1), 4);
  model.ExpectAgrees();
  sim.Cancel(slot_id);
  model.ExpectAgrees();
  EXPECT_EQ(model.next_tag(), 4);
  // Cancelling the only pending event, in the slot, leaves the store idle.
  Simulator lone;
  auto id = lone.Schedule(Seconds(1), [] {});
  lone.Cancel(id);
  EXPECT_TRUE(lone.Idle());
  EXPECT_EQ(lone.pending_events(), 0u);
  EXPECT_FALSE(lone.NextEventTime(&next));
  EXPECT_EQ(lone.pool_free(), lone.pool_capacity());
  sim.RunAll();
  model.ExpectAgrees();
  EXPECT_EQ(model.fired(), 3u);
  EXPECT_EQ(model.mismatches(), 0u);
}

TEST(EventHeapTest, RunUntilDoneStopsWhileTheSlotIsFull) {
  Simulator sim;
  ReferenceModel model(&sim);
  int next_tag = 10;
  model.Schedule(Seconds(5), 0);
  // Each event puts its successor in the slot before done() is asked.
  model.on_fire = [&](int) { model.Schedule(Milliseconds(1), next_tag++); };
  model.Schedule(Milliseconds(1), next_tag++);
  EXPECT_EQ(sim.RunUntil(Seconds(1), [&] { return model.fired() == 3; }), 3u);
  model.ExpectAgrees();
  EXPECT_EQ(sim.Now(), Milliseconds(3));
  EXPECT_EQ(sim.pending_events(), 2u);
  SimTime next = 0;
  ASSERT_TRUE(sim.NextEventTime(&next));
  EXPECT_EQ(next, Milliseconds(4));
  // Running on to a deadline past the slot's entry, but short of the
  // timer, runs the chain up to it and settles the clock.
  EXPECT_EQ(sim.RunUntil(Milliseconds(5) + 1, [] { return false; }), 2u);
  model.ExpectAgrees();
  EXPECT_EQ(sim.Now(), Milliseconds(5) + 1);
  model.on_fire = nullptr;
  sim.RunAll();
  model.ExpectAgrees();
  EXPECT_EQ(model.mismatches(), 0u);
}

TEST(EventHeapTest, SeededChainChurnMatchesReferenceModel) {
  // The churn above, with sub-millisecond successors scheduled from inside
  // callbacks: most land ahead of everything pending, so the slot fills,
  // demotes, and is cancelled constantly.
  Simulator sim;
  ReferenceModel model(&sim);
  std::uint64_t lcg = 777;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  int next_tag = 0;
  model.on_fire = [&](int tag) {
    if (tag % 3 != 0) {
      model.Schedule(Microseconds(static_cast<double>(next() % 900)), next_tag++);
    }
  };
  for (int op = 0; op < 20'000; ++op) {
    std::uint64_t r = next() % 100;
    if (r < 30) {
      model.Schedule(Microseconds(static_cast<double>(next() % 3000)), next_tag++);
    } else if (r < 45) {
      auto tags = model.live_tags();
      if (!tags.empty()) {
        model.Cancel(tags[next() % tags.size()]);
      }
    } else if (r < 55) {
      model.CancelStale(next());
    } else if (r < 60) {
      model.Reserve();
    } else if (r < 65) {
      model.ScheduleReserved(Microseconds(static_cast<double>(next() % 3000)),
                             next_tag++, next());
    } else if (r < 90) {
      sim.Step();
    } else {
      sim.RunUntil(sim.Now() + Microseconds(static_cast<double>(next() % 2000)));
    }
    model.ExpectAgrees();
    ASSERT_EQ(model.mismatches(), 0u) << "diverged at op " << op;
  }
  model.on_fire = nullptr;
  sim.RunAll();
  model.ExpectAgrees();
  EXPECT_EQ(model.mismatches(), 0u);
  EXPECT_GT(model.fired(), 5'000u);
}

// Event records: a callable is stored inline or boxed, and either way it is
// destroyed exactly once, whether it runs, is cancelled, or is still pending
// when the simulator goes.
struct Padding {
  char bytes[Simulator::kInlineBytes];
};

TEST(EventRecordTest, CapturesAreDestroyedExactlyOnce) {
  auto probe = std::make_shared<int>(0);
  auto small = [probe] { ++*probe; };
  auto large = [probe, pad = Padding{}] { *probe += 1 + pad.bytes[0]; };
  static_assert(Simulator::StoresInline<decltype(small)>());
  static_assert(!Simulator::StoresInline<decltype(large)>());
  auto check = [&probe](const auto& fn) {
    const long base = probe.use_count();
    {
      Simulator sim;
      sim.Schedule(Seconds(1), fn);
      EXPECT_EQ(probe.use_count(), base + 1);
      sim.Schedule(Seconds(2), [&probe, base] { EXPECT_EQ(probe.use_count(), base); });
      sim.RunAll();
      EXPECT_EQ(probe.use_count(), base);
      auto id = sim.Schedule(Seconds(1), fn);
      sim.Cancel(id);
      EXPECT_EQ(probe.use_count(), base);
      sim.Schedule(Seconds(1), fn);
      sim.Schedule(Seconds(2), fn);
      EXPECT_EQ(probe.use_count(), base + 2);
    }
    EXPECT_EQ(probe.use_count(), base);  // ~Simulator destroyed both
  };
  check(small);
  check(large);
  EXPECT_EQ(*probe, 2);
}

TEST(EventRecordTest, CallbackCanScheduleIntoItsOwnRecycledSlot) {
  Simulator sim;
  auto probe = std::make_shared<int>(42);
  std::vector<int> seen;
  sim.Schedule(Seconds(1), [&sim, &seen, probe, tag = 7] {
    // The record this runs from is free already: the next push takes it
    // (and the slot) and overwrites its payload. This callable's captures
    // must not change under it.
    sim.Schedule(Seconds(1), [&seen, pad = Padding{}, n = 9] { seen.push_back(n); });
    EXPECT_EQ(sim.pool_capacity(), 1u);
    seen.push_back(tag);
    seen.push_back(*probe);
  });
  sim.RunAll();
  EXPECT_EQ(seen, (std::vector<int>{7, 42, 9}));
  EXPECT_EQ(sim.pool_capacity(), 1u);
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(EventRecordTest, DestroyingAPendingCaptureMayCancelAnother) {
  // ~Simulator pops one event at a time, so a capture whose destructor
  // cancels another pending event finds the store consistent.
  int cancels = 0;
  {
    Simulator sim;
    auto other = sim.Schedule(Seconds(2), [] {});
    std::shared_ptr<void> guard(nullptr, [&sim, &cancels, other](void*) {
      sim.Cancel(other);
      ++cancels;
    });
    sim.Schedule(Seconds(1), [guard] {});
    sim.Schedule(Seconds(3), [] {});
    guard.reset();
  }
  EXPECT_EQ(cancels, 1);
}

TEST(EventHeapTest, CancelRootLastEntryAndFromInsideCallback) {
  Simulator sim;
  std::vector<int> order;
  auto push = [&order](int v) { return [&order, v] { order.push_back(v); }; };
  auto root = sim.ScheduleAt(Milliseconds(1), push(1));
  sim.ScheduleAt(Milliseconds(2), push(2));
  std::uint64_t victim = 0;
  sim.ScheduleAt(Milliseconds(3), [&] {
    order.push_back(3);
    sim.Cancel(victim);  // same instant, later seq: must not run
  });
  victim = sim.ScheduleAt(Milliseconds(3), push(99));
  sim.ScheduleAt(Milliseconds(4), push(4));
  // Latest deadline scheduled last: it stays the heap's last entry.
  auto last = sim.ScheduleAt(Milliseconds(9), push(98));
  sim.Cancel(root);
  sim.Cancel(last);
  EXPECT_EQ(sim.pending_events(), 4u);
  SimTime next = 0;
  ASSERT_TRUE(sim.NextEventTime(&next));
  EXPECT_EQ(next, Milliseconds(2));
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(sim.Now(), Milliseconds(4));
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

TEST(EventHeapTest, TenThousandSameInstantEventsFireFifo) {
  // The promiscuous-TNC fan-out: every receiver's serial byte lands on the
  // same instant. They must run in scheduling order.
  Simulator sim;
  std::vector<int> order;
  order.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    sim.ScheduleAt(Seconds(1), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.RunAll(), 10'000u);
  ASSERT_EQ(order.size(), 10'000u);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventHeapTest, TimerRestartLeavesNoTombstones) {
  // Re-arming a timer 100k times must not leave 100k dead entries behind
  // (pool slots and pops): every cancel recycles its slot at once.
  Simulator sim;
  Timer t(&sim, [] {});
  for (int i = 0; i < 100'000; ++i) {
    t.Restart(Seconds(5));  // each Restart cancels the previous arm
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_LE(sim.pool_capacity(), 4u);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity() - 1);
  t.Stop();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.pool_free(), sim.pool_capacity());
}

TEST(EventHeapTest, OrderingAcrossWideTimeSpans) {
  // Deadlines from a microsecond to days apart, scheduled in reverse.
  Simulator sim;
  std::vector<int> order;
  const SimTime whens[] = {
      Microseconds(1),  Microseconds(64), Microseconds(65),  Microseconds(200),
      Milliseconds(16), Milliseconds(17), Milliseconds(400), Seconds(4),
      Seconds(5),       Seconds(1000),    Seconds(1100),     Seconds(100'000),
      Seconds(300'000), Seconds(400'000),
  };
  for (int i = static_cast<int>(std::size(whens)) - 1; i >= 0; --i) {
    sim.ScheduleAt(whens[i], [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), std::size(whens));
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
  EXPECT_EQ(sim.Now(), Seconds(400'000));
}

TEST(TimeHelpersTest, Conversions) {
  EXPECT_EQ(Seconds(1.5), 1'500'000'000);
  EXPECT_EQ(Milliseconds(2), 2'000'000);
  EXPECT_EQ(Microseconds(3), 3'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(7)), 7.0);
}

TEST(TimeHelpersTest, TransmitTimeAt1200Baud) {
  // 150 bytes at 1200 bit/s = 1 second: the paper's dominant cost.
  EXPECT_EQ(TransmitTime(150, 1200), Seconds(1));
  EXPECT_EQ(TransmitTime(1500, 10'000'000), Microseconds(1200));
}

TEST(TimeHelpersTest, TransmitTimeIsExactIntegerMathWithRoundHalfUp) {
  // Non-divisible rates: the old double formula truncated (1 byte at 1200
  // bit/s -> 6666666 ns); integer round-half-up pins the mathematically
  // nearest nanosecond.
  EXPECT_EQ(TransmitTime(1, 1200), 6'666'667);     // 6666666.66... rounds up
  EXPECT_EQ(TransmitTime(100, 1200), 666'666'667); // .66 rounds up
  EXPECT_EQ(TransmitTime(1, 9600), 833'333);       // 833333.33 rounds down
  EXPECT_EQ(TransmitTime(7, 9600), 5'833'333);     // 5833333.33 rounds down
  // Exact half: 1 byte at 16000 bit/s = 500000 ns exactly; 1 at 3200000 is
  // 2500 ns exactly; 1 byte at 4800 = 1666666.66 rounds up.
  EXPECT_EQ(TransmitTime(1, 4800), 1'666'667);
  // Half-way case rounds up: 3 bytes at 48'000'000'000 bps = 0.5 ns.
  EXPECT_EQ(TransmitTime(3, 48'000'000'000ULL), 1);
  // Pathological rates.
  EXPECT_EQ(TransmitTime(1, 1), Seconds(8));         // 8 s per byte
  EXPECT_EQ(TransmitTime(1, 3), 2'666'666'667);      // 2.66... s rounds up
  EXPECT_EQ(TransmitTime(0, 1200), 0);
  EXPECT_EQ(TransmitTime(10, 0), 0);  // guarded: no divide-by-zero
  // Saturates instead of overflowing for absurd byte counts.
  EXPECT_EQ(TransmitTime(static_cast<std::size_t>(-1), 1), INT64_MAX);
  // No drift when accumulated: 1000 one-byte times vs one 1000-byte frame
  // differ only by per-frame rounding, never by more than half a ns each.
  SimTime per_byte_sum = 0;
  for (int i = 0; i < 1000; ++i) {
    per_byte_sum += TransmitTime(1, 1200);
  }
  SimTime frame = TransmitTime(1000, 1200);
  EXPECT_LE(per_byte_sum - frame, 1000);
  EXPECT_GE(per_byte_sum - frame, 0);
}

}  // namespace
}  // namespace upr
