// Deterministic discrete-event simulator that drives the whole system.
//
// Every component (radio channel, TNC, serial line, host stack, application)
// schedules callbacks on a single Simulator. Events at equal timestamps run
// in scheduling order (a monotonically increasing sequence number, taken at
// scheduling or reserved ahead of it, breaks ties), so runs are
// bit-reproducible.
//
// Event storage is one indexed 4-ary min-heap of inline (when, seq, pool
// index) keys over a pooled event store. Comparisons never touch an Event;
// each pooled Event records its heap position, so Cancel() removes it in
// O(log n) and recycles its slot at once — the protocol timers
// (T1/T3/RTO/ARP/silo alarms) that are re-armed far more often than they
// fire leave no tombstones behind. N events at one instant (a frame fanned
// out to every promiscuous TNC) cost O(log n) each, not a rescan per pop.
//
// Time is kept in integer nanoseconds (`SimTime`). Helpers convert from
// humane units.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace upr {

// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

constexpr SimTime Microseconds(double us) {
  return static_cast<SimTime>(us * static_cast<double>(kMicrosecond));
}
constexpr SimTime Milliseconds(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMillisecond));
}
constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}
constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}
constexpr double ToMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

// Transmission time of `bytes` at `bits_per_second` (8 bits per byte; HDLC
// bit-stuffing overhead is ignored, as the paper's budget analysis does).
// Integer math with round-half-up: the old double formula truncated, so
// rates that don't divide evenly (1200, 9600, ...) drifted up to 1 ns per
// frame — the same error class PR 1 fixed for per-byte serial `byte_time`.
constexpr SimTime TransmitTime(std::size_t bytes, std::uint64_t bits_per_second) {
  if (bits_per_second == 0) {
    return 0;
  }
  using Wide = unsigned __int128;
  Wide ns = (Wide(bytes) * 8u * Wide(kSecond) + bits_per_second / 2) /
            bits_per_second;
  constexpr Wide kMax = Wide(INT64_MAX);
  return ns > kMax ? INT64_MAX : static_cast<SimTime>(ns);
}

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay (delay < 0 is clamped to 0).
  // Returns an id usable with Cancel().
  std::uint64_t Schedule(SimTime delay, std::function<void()> fn);
  std::uint64_t ScheduleAt(SimTime when, std::function<void()> fn);

  // Takes the next sequence number now, for an event scheduled later with
  // ScheduleReserved(). The event then runs exactly where ScheduleAt() would
  // have put it at reservation time: after every same-instant event
  // scheduled before the reservation, before every one scheduled after it.
  // A serial line reserves one seq per delivery and keeps only its head
  // delivery in the heap (see SerialEndpoint).
  std::uint64_t ReserveSeq() { return next_seq_++; }
  std::uint64_t ScheduleReserved(SimTime when, std::uint64_t seq, std::function<void()> fn);

  // True once execution has reached the key (when, seq): an event under it
  // has run or is the one running now. After RunUntil(t) every key at or
  // before t that is already reserved counts as reached. A serial line asks
  // this of the bytes it lands without an event of their own.
  bool Reached(SimTime when, std::uint64_t seq) const {
    return when < now_ || (when == now_ && seq <= now_seq_);
  }

  // Cancels a pending event; a no-op if it already ran or was cancelled.
  // O(log n): the event leaves the heap and its pool slot recycles at once.
  void Cancel(std::uint64_t id);

  // Runs every event at or before `deadline`, then settles the clock there:
  // Now() reads `deadline` and every key at or before it reserved so far
  // counts as reached. Returns the number of events executed.
  std::size_t RunUntil(SimTime deadline);
  // The one stop rule for a run that can finish early: as above, but
  // `done()` is asked before each event and the run stops once it holds,
  // leaving the clock at the event that satisfied it. Only a run that
  // reaches `deadline` without `done()` ever holding settles the clock.
  std::size_t RunUntil(SimTime deadline, const std::function<bool()>& done) {
    std::size_t n = 0;
    while (!done()) {
      if (heap_.empty() || heap_.front().when > deadline) {
        RunUntil(deadline);  // nothing left to run: settles the clock
        break;
      }
      Step();
      ++n;
    }
    return n;
  }

  // Runs until the event queue drains (use with care: periodic timers never
  // drain). Returns the number of events executed.
  std::size_t RunAll(std::size_t max_events = 100'000'000);

  // Runs a single event if one is pending; returns false when idle.
  bool Step();

  bool Idle() const { return heap_.empty(); }
  // Timestamp of the earliest pending event without running it. Returns
  // false when the queue is empty. The sharded city executor merges shard
  // queues globally-by-time with this.
  bool NextEventTime(SimTime* when) const {
    if (heap_.empty()) {
      return false;
    }
    *when = heap_.front().when;
    return true;
  }
  // Heap entries. A busy serial line holds one entry for its head delivery;
  // the bytes queued behind it are counted by SerialEndpoint::backlog().
  std::size_t pending_events() const { return heap_.size(); }
  std::size_t executed_events() const { return executed_; }
  // Total events ever scheduled (the interrupt-rate analogue: every serial
  // byte, timer and frame delivery takes a seq here, reserved or not).
  std::uint64_t events_scheduled() const { return next_seq_ - 1; }
  // Event objects allocated over the simulator's lifetime. Events are pooled
  // on a free list, so this tracks peak concurrency, not event count.
  std::size_t pool_capacity() const { return pool_.size(); }
  std::size_t pool_free() const { return free_.size(); }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  // Pooled event. `heap_pos` is its index in `heap_` while pending and
  // kNotQueued while free or running.
  struct Event {
    std::function<void()> fn;
    std::uint32_t gen = 0;  // bumped on alloc; ids embed it
    std::uint32_t heap_pos = kNotQueued;
  };
  // Inline heap key: ordering reads only this, never the Event.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;  // into pool_
  };
  // Strict (when, seq) order — the execution order contract. seq is unique,
  // so the pop order is independent of the heap's shape. `when` is never
  // negative, so one 128-bit compare orders both fields without a branch
  // (same-instant fan-out makes a two-step compare mispredict constantly).
  static bool Earlier(const Entry& a, const Entry& b) {
    using Key = unsigned __int128;
    return (Key(static_cast<std::uint64_t>(a.when)) << 64 | a.seq) <
           (Key(static_cast<std::uint64_t>(b.when)) << 64 | b.seq);
  }

  // Free-list allocation: events live in `pool_` for the simulator's
  // lifetime and recycle through `free_`, so a serial byte costs no
  // allocation of its own (the hot path bench_e5 measures).
  std::uint32_t AllocEvent();
  void Recycle(std::uint32_t index);

  // Writes `e` at heap position `pos` and records the position in its Event.
  void Put(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    pool_[e.index].heap_pos = static_cast<std::uint32_t>(pos);
  }
  // Fill the hole at `pos` with `e`: SiftUp moves it toward the root,
  // SiftDown moves the hole to a leaf first, so `e` may end up anywhere on
  // that path.
  void SiftUp(std::size_t pos, const Entry& e);
  void SiftDown(std::size_t pos, const Entry& e);
  // Removes the entry at `pos`, refilling the hole with the last entry.
  void RemoveAt(std::size_t pos);

  SimTime now_ = 0;
  std::uint64_t now_seq_ = 0;  // seq of the event running or last run
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;

  std::vector<Entry> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_;
};

// RAII one-shot timer bound to a Simulator. Restart() re-arms; destruction or
// Stop() cancels. Used for protocol timers (T1, ARP expiry, RTO, ...).
class Timer {
 public:
  Timer(Simulator* sim, std::function<void()> fn) : sim_(sim), fn_(std::move(fn)) {}
  ~Timer() { Stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer to fire after `delay`.
  void Restart(SimTime delay);
  void Stop();
  bool running() const { return running_; }
  // Time at which the timer will fire (valid only while running()).
  SimTime deadline() const { return deadline_; }

 private:
  Simulator* sim_;
  std::function<void()> fn_;
  std::uint64_t id_ = 0;
  bool running_ = false;
  SimTime deadline_ = 0;
};

}  // namespace upr

#endif  // SRC_SIM_SIMULATOR_H_
