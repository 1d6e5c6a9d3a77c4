#include "src/sim/shard_exec.h"

#include <algorithm>
#include <chrono>

#include "src/util/packet_buf.h"
#include "src/util/panic.h"

namespace upr {

ShardSet::ShardSet(const Config& config) : config_(config) {
  const std::size_t shards = std::max<std::size_t>(1, config_.shards);
  config_.threads = std::clamp(config_.threads, 1, static_cast<int>(shards));
  config_.lookahead = std::max<SimTime>(1, config_.lookahead);
  sims_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(shards);
  posted_.resize(shards);
}

Simulator* ShardSet::shard(std::size_t k) const {
  UPR_INVARIANT(k < sims_.size(), "shard index %zu out of range (%zu shards)",
                k, sims_.size());
  return sims_[k].get();
}

void ShardSet::Post(std::size_t src, std::size_t dst, SimTime when,
                    std::function<void()> fn) {
  UPR_INVARIANT(src < sims_.size() && dst < sims_.size(),
                "Post shard out of range (%zu -> %zu, %zu shards)", src, dst,
                sims_.size());
  // Runs on the thread that owns src: posted_[src] is that thread's alone.
  ++posted_[src];
  if (src == dst) {
    sims_[dst]->ScheduleAt(when, std::move(fn));
    return;
  }
  const Simulator* src_sim = sims_[src].get();
  UPR_INVARIANT(when >= src_sim->Now() + config_.lookahead,
                "cross-shard post at %lld violates lookahead %lld (src now "
                "%lld)",
                static_cast<long long>(when),
                static_cast<long long>(config_.lookahead),
                static_cast<long long>(src_sim->Now()));
  if (config_.threads == 1) {
    sims_[dst]->ScheduleAt(when, std::move(fn));
    ++stats_injected_;
    return;
  }
  outbox_[src].push_back({when, dst, std::move(fn)});
}

bool ShardSet::OpenWindow(SimTime deadline) {
  for (std::vector<Handoff>& outbox : outbox_) {
    for (Handoff& h : outbox) {
      sims_[h.dst]->ScheduleAt(h.when, std::move(h.fn));
      ++stats_injected_;
    }
    outbox.clear();
  }
  bool any = false;
  SimTime next = 0;
  for (const auto& sim : sims_) {
    SimTime t;
    if (sim->NextEventTime(&t) && (!any || t < next)) {
      next = t;
      any = true;
    }
  }
  if (!any || next > deadline) {
    return false;
  }
  // Every event in [next, next + lookahead) can run without hearing from
  // another shard: a handoff sent at time t arrives no earlier than
  // t + lookahead >= next + lookahead, i.e. strictly past the window.
  window_end_ = next + config_.lookahead - 1;
  if (window_end_ > deadline || window_end_ < next) {  // clamp + overflow
    window_end_ = deadline;
  }
  ++stats_windows_;
  return true;
}

namespace {

// How long a barrier waiter spins before it blocks. A window's work is tens
// of microseconds on the city, so a waiter that spins this long usually
// sees the barrier open without a sleep and a wake-up.
constexpr auto kSpin = std::chrono::microseconds(50);

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Waits until `word` no longer holds `old`: spins for kSpin, then blocks.
// Returns the new value, read with acquire.
std::uint32_t AwaitChange(const std::atomic<std::uint32_t>& word,
                          std::uint32_t old) {
  const auto spin_end = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 1;; ++i) {
    const std::uint32_t v = word.load(std::memory_order_acquire);
    if (v != old) {
      return v;
    }
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= spin_end) {
      break;
    }
    CpuRelax();
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

ShardSet::~ShardSet() {
  if (helpers_.empty()) {
    return;
  }
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& helper : helpers_) {
    helper.join();
  }
}

void ShardSet::RunShard(std::size_t k) {
  if (enter_hook_) {
    enter_hook_(k);
  }
  BufContextScope scope(&buf_->contexts()[k]);
  sims_[k]->RunUntil(window_end_);
}

void ShardSet::RunWindowShards(std::size_t t) {
  const std::uint64_t window = stats_windows_;
  auto claim = [&](std::size_t k) {
    std::atomic<std::uint64_t>& word = claims_[k].window;
    if (word.load(std::memory_order_relaxed) != window &&
        word.exchange(window, std::memory_order_relaxed) != window) {
      RunShard(k);
    }
  };
  const std::size_t n = sims_.size();
  for (std::size_t k = t; k < n; k += static_cast<std::size_t>(config_.threads)) {
    claim(k);
  }
  for (std::size_t k = n; k-- > 0;) {
    claim(k);
  }
}

std::uint32_t ShardSet::RunWindows(std::size_t t, std::uint32_t generation) {
  const auto threads = static_cast<std::uint32_t>(config_.threads);
  for (;;) {
    RunWindowShards(t);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads) {
      arrived_.store(0, std::memory_order_relaxed);
      window_open_ = OpenWindow(deadline_);
      generation_.store(++generation, std::memory_order_release);
      generation_.notify_all();
    } else {
      generation = AwaitChange(generation_, generation);
    }
    if (!window_open_) {
      return generation;
    }
  }
}

void ShardSet::HelperMain(std::size_t t, std::uint32_t generation) {
  for (;;) {
    generation = AwaitChange(generation_, generation);
    if (stop_) {
      return;
    }
    generation = RunWindows(t, generation);
    parked_.fetch_add(1, std::memory_order_release);
    parked_.notify_one();
  }
}

std::size_t ShardSet::RunUntil(SimTime deadline) noexcept {
  const std::size_t executed = TotalEventsExecuted();
  if (buf_ == nullptr) {
    buf_ = std::make_unique<BufContextGroup>(sims_.size());
  }
  if (OpenWindow(deadline)) {
    if (config_.threads == 1) {
      do {
        for (std::size_t k = 0; k < sims_.size(); ++k) {
          RunShard(k);
        }
      } while (OpenWindow(deadline));
    } else {
      const std::uint32_t generation =
          generation_.load(std::memory_order_relaxed) + 1;
      if (helpers_.empty()) {
        claims_ = std::make_unique<Claim[]>(sims_.size());
        for (int t = 1; t < config_.threads; ++t) {
          helpers_.emplace_back(&ShardSet::HelperMain, this,
                                static_cast<std::size_t>(t), generation - 1);
        }
      }
      deadline_ = deadline;
      window_open_ = true;
      generation_.store(generation, std::memory_order_release);
      generation_.notify_all();
      RunWindows(0, generation);
      const auto helpers = static_cast<std::uint32_t>(config_.threads - 1);
      for (std::uint32_t p; (p = parked_.load(std::memory_order_acquire)) != helpers;) {
        AwaitChange(parked_, p);
      }
      parked_.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& sim : sims_) {
    sim->RunUntil(deadline);  // settle every shard clock at deadline
  }
  return TotalEventsExecuted() - executed;
}

bool ShardSet::Idle() {
  for (const auto& sim : sims_) {
    SimTime t;
    if (sim->NextEventTime(&t)) {
      return false;
    }
  }
  return true;
}

ShardStats ShardSet::stats() const {
  ShardStats s;
  s.injected = stats_injected_;
  s.windows = stats_windows_;
  for (std::uint64_t n : posted_) {
    s.posted += n;
  }
  return s;
}

std::uint64_t ShardSet::TotalEventsScheduled() const {
  std::uint64_t n = 0;
  for (const auto& sim : sims_) {
    n += sim->events_scheduled();
  }
  return n;
}

std::size_t ShardSet::TotalEventsExecuted() const {
  std::size_t n = 0;
  for (const auto& sim : sims_) {
    n += sim->executed_events();
  }
  return n;
}

}  // namespace upr
