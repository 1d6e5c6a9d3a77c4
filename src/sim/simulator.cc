#include "src/sim/simulator.h"

#include "src/util/panic.h"

namespace upr {

std::uint64_t Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

std::uint32_t Simulator::AllocEvent() {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  // The generation stamp bumps per allocation, so a Cancel() holding an id
  // from a previous tenant of this slot is a guaranteed no-op.
  ++pool_[index].gen;
  return index;
}

void Simulator::Recycle(std::uint32_t index) {
  Event& ev = pool_[index];
  ev.fn = nullptr;  // release the closure's captures now, not at reuse
  ev.heap_pos = kNotQueued;
  free_.push_back(index);
}

std::uint64_t Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  return ScheduleReserved(when, next_seq_++, std::move(fn));
}

std::uint64_t Simulator::ScheduleReserved(SimTime when, std::uint64_t seq,
                                          std::function<void()> fn) {
  UPR_INVARIANT(seq < next_seq_, "seq %llu was never reserved (next %llu)",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(next_seq_));
  if (when < now_) {
    when = now_;
  }
  std::uint32_t index = AllocEvent();
  Event& ev = pool_[index];
  ev.fn = std::move(fn);
  std::uint64_t id = (static_cast<std::uint64_t>(ev.gen) << 32) | index;
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{when, seq, index});
  return id;
}

void Simulator::SiftUp(std::size_t pos, const Entry& e) {
  while (pos > 0) {
    std::size_t parent = (pos - 1) / 4;
    if (!Earlier(e, heap_[parent])) {
      break;
    }
    Put(pos, heap_[parent]);
    pos = parent;
  }
  Put(pos, e);
}

void Simulator::SiftDown(std::size_t pos, const Entry& e) {
  // Bottom-up: walk the hole to a leaf along the earliest children, then
  // sift `e` up from there. The refill entry is usually among the latest
  // (always so for same-instant fan-out), so this saves a compare per level,
  // and the final SiftUp also places an `e` earlier than pos's parent.
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first = 4 * pos + 1;
    if (first >= n) {
      break;
    }
    std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    Put(pos, heap_[best]);
    pos = best;
  }
  SiftUp(pos, e);
}

void Simulator::RemoveAt(std::size_t pos) {
  Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    SiftDown(pos, last);
  }
}

void Simulator::Cancel(std::uint64_t id) {
  auto index = static_cast<std::uint32_t>(id & 0xFFFFFFFF);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (index >= pool_.size()) {
    return;
  }
  const Event& ev = pool_[index];
  if (ev.gen != gen || ev.heap_pos == kNotQueued) {
    return;  // already ran, already cancelled, or a stale id
  }
  UPR_INVARIANT(ev.heap_pos < heap_.size() && heap_[ev.heap_pos].index == index,
                "event %u has a stale heap position %u", index, ev.heap_pos);
  RemoveAt(ev.heap_pos);
  Recycle(index);
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  const Entry top = heap_.front();
  RemoveAt(0);
  UPR_INVARIANT(top.when >= now_,
                "event seq %llu would move time backwards (%lld < %lld)",
                static_cast<unsigned long long>(top.seq),
                static_cast<long long>(top.when), static_cast<long long>(now_));
  now_ = top.when;
  now_seq_ = top.seq;
  ++executed_;
  // Move the closure out and recycle before running: the callback may
  // schedule new events, which must be free to reuse this slot.
  std::function<void()> fn = std::move(pool_[top.index].fn);
  Recycle(top.index);
  fn();
  return true;
}

std::size_t Simulator::RunUntil(SimTime deadline) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    Step();
    ++n;
  }
  if (now_ <= deadline) {
    // Every event at or before the deadline has run, so has every key
    // reserved so far at the deadline itself.
    now_ = deadline;
    now_seq_ = next_seq_ - 1;
  }
  return n;
}

std::size_t Simulator::RunAll(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
  return n;
}

void Timer::Restart(SimTime delay) {
  Stop();
  running_ = true;
  deadline_ = sim_->Now() + (delay < 0 ? 0 : delay);
  id_ = sim_->Schedule(delay, [this] {
    running_ = false;
    fn_();
  });
}

void Timer::Stop() {
  if (running_) {
    sim_->Cancel(id_);
    running_ = false;
  }
}

}  // namespace upr
