#include "src/sim/simulator.h"

#include "src/util/panic.h"

namespace upr {

Simulator::~Simulator() {
  // Pop rather than sweep: a capture's destructor may cancel another event.
  while (Next() != nullptr) {
    const std::uint32_t index = Pop().index;
    RecordAt(index).invoke(*this, index, false);
  }
}

std::uint32_t Simulator::GrowPool() {
  const auto index = static_cast<std::uint32_t>(state_.size());
  state_.emplace_back();
  if ((index & kChunkMask) == 0) {
    chunks_.emplace_back(new Record[kChunkMask + 1]);
  }
  ++state_[index].gen;
  return index;
}

Simulator::Entry Simulator::Pop() {
  if (slot_.index != kNoEvent) {
    const Entry e = slot_;
    slot_.index = kNoEvent;
    return e;
  }
  const Entry top = heap_.front();
  RemoveAt(0);
  return top;
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
    std::size_t best;
    if (first + 4 <= n) {
      // Under same-instant fan-out which child is earliest is a coin toss,
      // so four children play a branch-free tournament: no mispredicted
      // branch per level.
      const Entry* c = &heap_[first];
      const std::size_t a = first + static_cast<std::size_t>(Earlier(c[1], c[0]));
      const std::size_t b = first + 2 + static_cast<std::size_t>(Earlier(c[3], c[2]));
      best = Earlier(heap_[b], heap_[a]) ? b : a;
    } else {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (Earlier(heap_[c], heap_[best])) {
          best = c;
        }
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
  if (index >= state_.size()) {
    return;
  }
  const State& st = state_[index];
  if (st.gen != gen || st.heap_pos == kNotQueued) {
    return;  // already ran, already cancelled, or a stale id
  }
  if (st.heap_pos == kInSlot) {
    slot_.index = kNoEvent;
  } else {
    UPR_INVARIANT(st.heap_pos < heap_.size() && heap_[st.heap_pos].index == index,
                  "event %u has a stale heap position %u", index, st.heap_pos);
    RemoveAt(st.heap_pos);
  }
  RecordAt(index).invoke(*this, index, false);
}

bool Simulator::Step() {
  if (Next() == nullptr) {
    return false;
  }
  const Entry top = Pop();
  UPR_INVARIANT(top.when >= now_,
                "event seq %llu would move time backwards (%lld < %lld)",
                static_cast<unsigned long long>(top.seq),
                static_cast<long long>(top.when), static_cast<long long>(now_));
  now_ = top.when;
  now_seq_ = top.seq;
  ++executed_;
  // The invoker moves the callable out and recycles the record before
  // running it: the callback may schedule new events, which must be free
  // to reuse this slot.
  RecordAt(top.index).invoke(*this, top.index, true);
  return true;
}

std::size_t Simulator::RunUntil(SimTime deadline) {
  std::size_t n = 0;
  for (const Entry* next = Next(); next != nullptr && next->when <= deadline;
       next = Next()) {
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
  auto fire = [this] {
    running_ = false;
    fn_();
  };
  static_assert(Simulator::StoresInline<decltype(fire)>());
  id_ = sim_->Schedule(delay, fire);
}

void Timer::Stop() {
  if (running_) {
    sim_->Cancel(id_);
    running_ = false;
  }
}

}  // namespace upr
