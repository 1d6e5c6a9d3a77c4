#include "src/sim/shard_exec.h"

#include <algorithm>
#include <thread>

#include "src/util/panic.h"

namespace upr {

ShardSet::ShardSet(const Config& config)
    : config_(config), shard_count_(config.shards == 0 ? 1 : config.shards) {
  config_.threads = std::max(1, config_.threads);
  config_.threads =
      std::min<int>(config_.threads, static_cast<int>(shard_count_));
  if (config_.lookahead < 1) {
    config_.lookahead = 1;
  }
  const std::size_t sims =
      config_.mode == Mode::kUnified ? 1 : shard_count_;
  sims_.reserve(sims);
  for (std::size_t i = 0; i < sims; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  shards_.resize(shard_count_);
  for (std::size_t k = 0; k < shard_count_; ++k) {
    shards_[k] = config_.mode == Mode::kUnified ? sims_[0].get()
                                                : sims_[k].get();
  }
  current_ = shards_[0];
  if (config_.mode == Mode::kParallel) {
    outbox_.resize(shard_count_);
    posted_.resize(shard_count_);
  }
}

Simulator* ShardSet::shard(std::size_t k) const {
  UPR_INVARIANT(k < shard_count_, "shard index %zu out of range (%zu shards)",
                k, shard_count_);
  return shards_[k];
}

void ShardSet::Post(std::size_t src, std::size_t dst, SimTime when,
                    std::function<void()> fn) {
  UPR_INVARIANT(src < shard_count_ && dst < shard_count_,
                "Post shard out of range (%zu -> %zu, %zu shards)", src, dst,
                shard_count_);
  if (config_.mode != Mode::kParallel) {
    // Serial modes schedule straight into the destination queue with the
    // same timestamp the parallel path would use — this is what keeps the
    // three modes trace-equivalent.
    ++serial_posted_;
    shards_[dst]->ScheduleAt(when, std::move(fn));
    if (config_.mode == Mode::kSharded) {
      merge_heap_.push({when, dst});
    }
    return;
  }
  // Runs on the thread that owns src: posted_[src] is that thread's alone.
  ++posted_[src];
  if (src == dst) {
    shards_[dst]->ScheduleAt(when, std::move(fn));
    return;
  }
  Simulator* src_sim = shards_[src];
  UPR_INVARIANT(when >= src_sim->Now() + config_.lookahead,
                "cross-shard post at %lld violates lookahead %lld (src now "
                "%lld)",
                static_cast<long long>(when),
                static_cast<long long>(config_.lookahead),
                static_cast<long long>(src_sim->Now()));
  outbox_[src].push_back({when, dst, std::move(fn)});
}

std::size_t ShardSet::RunUnified(SimTime deadline) {
  current_ = shards_[0];
  return shards_[0]->RunUntil(deadline);
}

std::size_t ShardSet::RunShardedMerge(SimTime deadline) {
  // Rebuild the candidate heap from scratch: entries are (time, shard)
  // pairs, lazily invalidated — on pop we re-check the shard's real next
  // event time and re-push when the entry went stale (ran, cancelled, or
  // superseded). Ties execute lowest shard index first, which is the
  // deterministic rule the two-run gate pins.
  while (!merge_heap_.empty()) {
    merge_heap_.pop();
  }
  for (std::size_t k = 0; k < shard_count_; ++k) {
    SimTime t;
    if (shards_[k]->NextEventTime(&t)) {
      merge_heap_.push({t, k});
    }
  }
  std::size_t n = 0;
  while (!merge_heap_.empty()) {
    const auto [t, k] = merge_heap_.top();
    if (t > deadline) {
      break;
    }
    merge_heap_.pop();
    SimTime real;
    if (!shards_[k]->NextEventTime(&real)) {
      continue;  // stale: the event ran or was cancelled
    }
    if (real != t) {
      merge_heap_.push({real, k});
      continue;
    }
    current_ = shards_[k];
    shards_[k]->Step();
    ++n;
    ++stats_merge_steps_;
    if (shards_[k]->NextEventTime(&real)) {
      merge_heap_.push({real, k});
    }
  }
  for (std::size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->RunUntil(deadline);  // settle every shard clock at deadline
  }
  return n;
}

bool ShardSet::OpenWindow(SimTime deadline) {
  for (std::vector<Handoff>& outbox : outbox_) {
    for (Handoff& h : outbox) {
      shards_[h.dst]->ScheduleAt(h.when, std::move(h.fn));
      ++stats_injected_;
    }
    outbox.clear();
  }
  bool any = false;
  SimTime next = 0;
  for (std::size_t k = 0; k < shard_count_; ++k) {
    SimTime t;
    if (shards_[k]->NextEventTime(&t) && (!any || t < next)) {
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

void ShardSet::RunShare(std::size_t t, SimTime deadline) {
  const auto threads = static_cast<std::size_t>(config_.threads);
  for (;;) {
    std::size_t n = 0;
    for (std::size_t k = t; k < shard_count_; k += threads) {
      if (enter_hook_) {
        enter_hook_(k);
      }
      n += shards_[k]->RunUntil(window_end_);
    }
    std::unique_lock<std::mutex> lk(mu_);
    run_executed_ += n;
    if (++arrived_ < threads) {
      const std::uint64_t generation = generation_;
      cv_.wait(lk, [&] { return generation_ != generation; });
    } else {
      arrived_ = 0;
      window_open_ = OpenWindow(deadline);
      ++generation_;
      cv_.notify_all();
    }
    if (!window_open_) {
      return;
    }
  }
}

std::size_t ShardSet::RunParallel(SimTime deadline) noexcept {
  run_executed_ = 0;
  if (OpenWindow(deadline)) {
    std::vector<std::jthread> helpers;
    for (int t = 1; t < config_.threads; ++t) {
      helpers.emplace_back(
          [this, t, deadline] { RunShare(static_cast<std::size_t>(t), deadline); });
    }
    RunShare(0, deadline);
  }  // the helpers join here
  for (std::size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->RunUntil(deadline);
  }
  return run_executed_;
}

std::size_t ShardSet::RunUntil(SimTime deadline) {
  switch (config_.mode) {
    case Mode::kUnified:
      return RunUnified(deadline);
    case Mode::kSharded:
      return RunShardedMerge(deadline);
    case Mode::kParallel:
      return RunParallel(deadline);
  }
  return 0;
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
  s.posted = serial_posted_;
  s.injected = stats_injected_;
  s.windows = stats_windows_;
  s.merge_steps = stats_merge_steps_;
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
