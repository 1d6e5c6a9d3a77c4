// Deterministic discrete-event simulator that drives the whole system.
//
// Every component (radio channel, TNC, serial line, host stack, application)
// schedules callbacks on a single Simulator. Events at equal timestamps run
// in scheduling order (a monotonically increasing sequence number, taken at
// scheduling or reserved ahead of it, breaks ties), so runs are
// bit-reproducible.
//
// Event storage is one indexed 4-ary min-heap of inline (when, seq, record
// index) keys, fronted by a next-event slot, over a pool of event records.
// Comparisons never touch a record; each record's heap position is kept
// beside it, so Cancel() removes it in O(log n) and recycles its record at
// once — the protocol timers (T1/T3/RTO/ARP/silo alarms) that are re-armed
// far more often than they fire leave no tombstones behind. N events at one
// instant (a frame fanned out to every promiscuous TNC) cost O(log n) each,
// not a rescan per pop.
//
// The slot holds one entry outside the heap: a push earlier than every
// pending key goes there, and a pop takes it first. A per-byte serial line
// schedules each byte ahead of everything else pending, so its chain of
// events runs without a sift.
//
// A record is a function pointer plus the callable itself, stored inline
// when it fits (kInlineBytes; every hot capture does) and boxed otherwise,
// so Schedule() takes any callable and a serial byte allocates nothing.
//
// Time is kept in integer nanoseconds (`SimTime`). Helpers convert from
// humane units.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/panic.h"

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
  // Bytes of callable an event record holds without an allocation: enough
  // for every hot capture (a serial line's head, a Timer, the CSMA retry, a
  // channel delivery to one receiver).
  static constexpr std::size_t kInlineBytes = 56;
  // Whether a callable of type F is stored inside its event record. Any
  // other one is boxed: the record holds a pointer to a heap copy.
  template <class F>
  static constexpr bool StoresInline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::uint64_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` (any callable taking no arguments) to run at Now() +
  // delay (delay < 0 is clamped to 0). Returns an id usable with Cancel().
  template <class F>
  std::uint64_t Schedule(SimTime delay, F&& fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }
  template <class F>
  std::uint64_t ScheduleAt(SimTime when, F&& fn) {
    return ScheduleReserved(when, next_seq_++, std::forward<F>(fn));
  }

  // Takes the next sequence number now, for an event scheduled later with
  // ScheduleReserved(). The event then runs exactly where ScheduleAt() would
  // have put it at reservation time: after every same-instant event
  // scheduled before the reservation, before every one scheduled after it.
  // A serial line reserves one seq per delivery and keeps only its head
  // delivery in the heap (see SerialEndpoint).
  std::uint64_t ReserveSeq() { return next_seq_++; }
  template <class F>
  std::uint64_t ScheduleReserved(SimTime when, std::uint64_t seq, F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t index = AllocEvent();
    Record& rec = RecordAt(index);
    if constexpr (StoresInline<Fn>()) {
      ::new (static_cast<void*>(rec.payload)) Fn(std::forward<F>(fn));
      rec.invoke = &Invoke<Fn>;
    } else {
      ::new (static_cast<void*>(rec.payload))
          Boxed<Fn>{std::make_unique<Fn>(std::forward<F>(fn))};
      rec.invoke = &Invoke<Boxed<Fn>>;
    }
    return Push(when, seq, index);
  }

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
      const Entry* next = Next();
      if (next == nullptr || next->when > deadline) {
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

  bool Idle() const { return Next() == nullptr; }
  // Timestamp of the earliest pending event without running it. Returns
  // false when the queue is empty. The sharded city executor merges shard
  // queues globally-by-time with this.
  bool NextEventTime(SimTime* when) const {
    const Entry* next = Next();
    if (next == nullptr) {
      return false;
    }
    *when = next->when;
    return true;
  }
  // Pending events: the heap's entries plus the next-event slot's. A busy
  // serial line holds one entry for its head delivery; the bytes queued
  // behind it are counted by SerialEndpoint::backlog().
  std::size_t pending_events() const {
    return heap_.size() + (slot_.index != kNoEvent ? 1 : 0);
  }
  std::size_t executed_events() const { return executed_; }
  // Total events ever scheduled (the interrupt-rate analogue: every serial
  // byte, timer and frame delivery takes a seq here, reserved or not).
  std::uint64_t events_scheduled() const { return next_seq_ - 1; }
  // Event records allocated over the simulator's lifetime. Records are
  // pooled on a free list, so this tracks peak concurrency, not event count.
  std::size_t pool_capacity() const { return state_.size(); }
  std::size_t pool_free() const { return free_.size(); }

 private:
  static constexpr std::uint32_t kNoEvent = UINT32_MAX;
  // heap_pos of a record that is free or running, and of the slot's entry.
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;
  static constexpr std::uint32_t kInSlot = UINT32_MAX - 1;

  // Runs (run = true) or only destroys the callable in record `index`. Either
  // way the record recycles first, so a running callback may schedule into
  // its own slot.
  using Invoker = void (*)(Simulator& sim, std::uint32_t index, bool run);
  // One pooled event record: the callable's invoker and the callable
  // itself, inline or boxed. Records never move once allocated (the pool
  // grows by whole chunks), so any nothrow-movable callable that fits may
  // sit inline.
  struct Record {
    Invoker invoke;
    alignas(std::uint64_t) unsigned char payload[kInlineBytes];
  };
  template <class F>
  struct Boxed {
    std::unique_ptr<F> fn;
    void operator()() { (*fn)(); }
  };
  template <class F>
  static void Invoke(Simulator& sim, std::uint32_t index, bool run) {
    F* stored = std::launder(reinterpret_cast<F*>(sim.RecordAt(index).payload));
    F fn(std::move(*stored));
    std::destroy_at(stored);
    sim.Recycle(index);
    if (run) {
      fn();
    }
  }
  // Per-record bookkeeping, apart from the records so heap moves touch only
  // this dense array.
  struct State {
    std::uint32_t gen = 0;  // bumped on alloc; ids embed it
    std::uint32_t heap_pos = kNotQueued;  // index in heap_, or kInSlot
  };
  // Inline heap key: ordering reads only this, never the Record.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;  // into the pool, or kNoEvent for an empty slot
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

  static constexpr std::uint32_t kChunkShift = 4;  // 16 records, 1 KiB
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  Record& RecordAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  // Free-list allocation: records live in the pool for the simulator's
  // lifetime and recycle through `free_`, so a serial byte costs no
  // allocation of its own (the hot path bench_e5 measures).
  std::uint32_t AllocEvent() {
    if (free_.empty()) {
      return GrowPool();
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    // The generation stamp bumps per allocation, so a Cancel() holding an id
    // from a previous tenant of this record is a guaranteed no-op.
    ++state_[index].gen;
    return index;
  }
  // Adds a record (and, every 16, a chunk) to the pool and allocates it.
  std::uint32_t GrowPool();
  void Recycle(std::uint32_t index) {
    state_[index].heap_pos = kNotQueued;
    free_.push_back(index);
  }
  // Files record `index` under (when, seq): in the slot when it is earlier
  // than every pending key, else in the heap. Returns its id.
  std::uint64_t Push(SimTime when, std::uint64_t seq, std::uint32_t index) {
    UPR_INVARIANT(seq < next_seq_, "seq %llu was never reserved (next %llu)",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(next_seq_));
    const Entry e{when < now_ ? now_ : when, seq, index};
    const Entry* next = Next();
    if (next == nullptr || Earlier(e, *next)) {
      // Earlier than everything pending: the slot takes it, and an entry
      // already there moves into the heap (still earlier than the rest).
      if (slot_.index != kNoEvent) {
        PushHeap(slot_);
      }
      slot_ = e;
      state_[index].heap_pos = kInSlot;
    } else {
      PushHeap(e);
    }
    return (static_cast<std::uint64_t>(state_[index].gen) << 32) | index;
  }
  void PushHeap(const Entry& e) {
    heap_.emplace_back();
    SiftUp(heap_.size() - 1, e);
  }
  // The earliest pending entry (the slot's, else the heap's root), or
  // nullptr when idle.
  const Entry* Next() const {
    if (slot_.index != kNoEvent) {
      return &slot_;
    }
    return heap_.empty() ? nullptr : &heap_.front();
  }
  // Removes and returns the earliest pending entry; one must exist.
  Entry Pop();

  // Writes `e` at heap position `pos` and records the position.
  void Put(std::size_t pos, const Entry& e) {
    heap_[pos] = e;
    state_[e.index].heap_pos = static_cast<std::uint32_t>(pos);
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

  // The next-event slot: an entry earlier than every heap entry, held out
  // of the heap (index kNoEvent when empty).
  Entry slot_{0, 0, kNoEvent};
  std::vector<Entry> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<State> state_;
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
