#include "src/sim/shard_exec.h"

#include <algorithm>
#include <thread>

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

void ShardSet::RunShare(std::size_t t, SimTime deadline) {
  const auto threads = static_cast<std::size_t>(config_.threads);
  for (;;) {
    std::size_t n = 0;
    for (std::size_t k = t; k < sims_.size(); k += threads) {
      if (enter_hook_) {
        enter_hook_(k);
      }
      n += sims_[k]->RunUntil(window_end_);
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

std::size_t ShardSet::RunUntil(SimTime deadline) noexcept {
  run_executed_ = 0;
  if (OpenWindow(deadline)) {
    std::vector<std::jthread> helpers;
    for (int t = 1; t < config_.threads; ++t) {
      helpers.emplace_back(
          [this, t, deadline] { RunShare(static_cast<std::size_t>(t), deadline); });
    }
    RunShare(0, deadline);
  }  // the helpers join here
  for (const auto& sim : sims_) {
    sim->RunUntil(deadline);  // settle every shard clock at deadline
  }
  return run_executed_;
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
