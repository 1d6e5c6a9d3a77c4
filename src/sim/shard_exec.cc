#include "src/sim/shard_exec.h"

#include <algorithm>

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

ShardSet::~ShardSet() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
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
  // Runs on the worker that owns src: posted_[src] is that worker's alone.
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

void ShardSet::DrainOutboxes() {
  for (std::vector<Handoff>& outbox : outbox_) {
    for (Handoff& h : outbox) {
      shards_[h.dst]->ScheduleAt(h.when, std::move(h.fn));
      ++stats_injected_;
    }
    outbox.clear();
  }
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

void ShardSet::StartWorkers() {
  if (!workers_.empty()) {
    return;
  }
  workers_.reserve(static_cast<std::size_t>(config_.threads));
  for (int i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void ShardSet::WorkerLoop(int worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    SimTime window_end;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk,
                    [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) {
        return;
      }
      seen_epoch = epoch_;
      window_end = window_end_;
    }
    std::size_t n = 0;
    for (std::size_t k = static_cast<std::size_t>(worker_index);
         k < shard_count_; k += static_cast<std::size_t>(config_.threads)) {
      if (enter_hook_) {
        enter_hook_(k);
      }
      n += shards_[k]->RunUntil(window_end);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      window_executed_ += n;
      ++workers_done_;
    }
    cv_done_.notify_one();
  }
}

void ShardSet::RunWindowOnWorkers(SimTime window_end) {
  std::unique_lock<std::mutex> lk(mu_);
  window_end_ = window_end;
  workers_done_ = 0;
  window_executed_ = 0;
  ++epoch_;
  cv_work_.notify_all();
  cv_done_.wait(lk, [&] { return workers_done_ == config_.threads; });
}

std::size_t ShardSet::RunParallel(SimTime deadline) {
  StartWorkers();
  std::size_t total = 0;
  for (;;) {
    DrainOutboxes();
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
      break;
    }
    // Every event in [next, next + lookahead) can run without hearing from
    // another shard: a handoff sent at time t arrives no earlier than
    // t + lookahead >= next + lookahead, i.e. strictly past the window.
    SimTime window_end = next + config_.lookahead - 1;
    if (window_end > deadline || window_end < next) {  // clamp + overflow
      window_end = deadline;
    }
    RunWindowOnWorkers(window_end);
    total += window_executed_;
    ++stats_windows_;
  }
  DrainOutboxes();
  for (std::size_t k = 0; k < shard_count_; ++k) {
    shards_[k]->RunUntil(deadline);
  }
  return total;
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
