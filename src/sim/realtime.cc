#include "src/sim/realtime.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>

#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "realtime";
// Longest single ppoll sleep. Bounds how stale the stop predicate and fd
// interest sets can get while the schedule is far in the future.
constexpr SimTime kMaxSleepWall = Milliseconds(100);
}  // namespace

RealtimeExecutor::RealtimeExecutor(Simulator* sim, RealtimeConfig config)
    : sim_(sim), config_(config) {
  if (config_.time_scale <= 0.0) {
    config_.time_scale = 1.0;
  }
}

void RealtimeExecutor::AddFd(int fd, short events, FdHandler handler) {
  for (Watch& w : watches_) {
    if (w.fd == fd) {
      w.events = events;
      w.handler = std::move(handler);
      return;
    }
  }
  watches_.push_back(Watch{fd, events, std::move(handler)});
}

void RealtimeExecutor::SetFdEvents(int fd, short events) {
  for (Watch& w : watches_) {
    if (w.fd == fd) {
      w.events = events;
      return;
    }
  }
}

void RealtimeExecutor::RemoveFd(int fd) {
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    if (watches_[i].fd == fd) {
      watches_.erase(watches_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void RealtimeExecutor::Anchor() {
  if (anchored_) {
    return;
  }
  wall_epoch_ = std::chrono::steady_clock::now();
  sim_epoch_ = sim_->Now();
  anchored_ = true;
}

SimTime RealtimeExecutor::WallSimTime() const {
  if (!anchored_) {
    return sim_->Now();
  }
  auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - wall_epoch_)
                     .count();
  return sim_epoch_ + static_cast<SimTime>(std::llround(
                          static_cast<double>(wall_ns) * config_.time_scale));
}

void RealtimeExecutor::SyncSimToWall(SimTime clamp) {
  SimTime target = std::min(WallSimTime(), clamp);
  if (target > sim_->Now()) {
    stats_.events_executed += sim_->RunUntil(target);
  }
}

std::uint64_t RealtimeExecutor::AddPrepareHook(std::function<void()> hook) {
  std::uint64_t id = next_hook_id_++;
  prepare_.emplace_back(id, std::move(hook));
  return id;
}

void RealtimeExecutor::RemovePrepareHook(std::uint64_t id) {
  for (std::size_t i = 0; i < prepare_.size(); ++i) {
    if (prepare_[i].first == id) {
      prepare_.erase(prepare_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void RealtimeExecutor::PollOnce(SimTime sim_wait) {
  for (auto& hook : prepare_) {
    hook.second();
  }
  // Snapshot the fds: handlers may mutate watches_ while we iterate.
  std::vector<pollfd> pfds;
  pfds.reserve(watches_.size());
  for (const Watch& w : watches_) {
    pfds.push_back(pollfd{w.fd, w.events, 0});
  }
  double wall_ns = static_cast<double>(sim_wait) / config_.time_scale;
  SimTime wait = std::min<SimTime>(static_cast<SimTime>(wall_ns), kMaxSleepWall);
  if (wait < 0) {
    wait = 0;
  }
  timespec ts;
  ts.tv_sec = static_cast<time_t>(wait / kSecond);
  ts.tv_nsec = static_cast<long>(wait % kSecond);
  ++stats_.polls;
  int ready = ppoll(pfds.empty() ? nullptr : pfds.data(), pfds.size(), &ts,
                    nullptr);
  if (ready < 0) {
    if (errno != EINTR) {
      UPR_WARN(kTag, "ppoll failed: errno %d", errno);
    }
    return;
  }
  if (ready == 0) {
    return;
  }
  for (const pollfd& p : pfds) {
    if (p.revents == 0) {
      continue;
    }
    // Re-resolve by fd: an earlier handler in this batch may have removed or
    // replaced this watch.
    FdHandler* handler = nullptr;
    for (Watch& w : watches_) {
      if (w.fd == p.fd) {
        handler = &w.handler;
        break;
      }
    }
    if (handler == nullptr || !*handler) {
      continue;
    }
    // Bytes the handler injects must carry the sim time of their actual
    // arrival, not the last executed event's time.
    SyncSimToWall(run_deadline_);
    ++stats_.fd_dispatches;
    (*handler)(p.revents);
    if (stop_requested_) {
      return;
    }
  }
}

std::size_t RealtimeExecutor::RunUntil(SimTime deadline,
                                       const std::function<bool()>& stop) {
  Anchor();
  stop_requested_ = false;
  run_deadline_ = deadline;
  std::uint64_t before = stats_.events_executed;
  while (!stop_requested_) {
    if (stop && stop()) {
      break;
    }
    SimTime wall = WallSimTime();
    SimTime next = 0;
    SimTime target = deadline;
    if (sim_->NextEventTime(&next) && next < target) {
      target = next;
    }
    if (target <= wall) {
      // The schedule is at or behind the wall clock: catch up every due
      // event in order, under the simulated run's stop rule so a paced run
      // stops at the same event, then give fds one zero-timeout poll so a
      // burst of sim events cannot starve external I/O.
      if (wall - target > stats_.max_lag) {
        stats_.max_lag = wall - target;
      }
      const SimTime until = std::min(wall, deadline);
      stats_.events_executed += stop ? sim_->RunUntil(until, stop) : sim_->RunUntil(until);
      if ((sim_->Now() >= deadline && wall >= deadline) || (stop && stop())) {
        break;
      }
      PollOnce(0);
      continue;
    }
    // Sleep toward the next event (or the deadline), waking for fd traffic.
    PollOnce(target - wall);
  }
  return static_cast<std::size_t>(stats_.events_executed - before);
}

}  // namespace upr
