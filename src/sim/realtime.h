// Real-time pacing executor: drives a deterministic Simulator against the
// wall clock so external processes (a kissattach'd PTY, a TCP KISS client)
// can participate in a run. The simulator itself is untouched — events,
// ordering and timestamps are exactly the fast-forward schedule; this class
// only decides *when in wall time* to execute them, and folds external fd
// readiness into the waiting.
//
// Mapping: once Anchor()ed, sim time `t` corresponds to wall time
// `wall_epoch + (t - sim_epoch) / time_scale`. time_scale is simulated
// seconds per wall second (2.0 runs the scenario at twice real time; the
// interop smoke uses large factors to keep CI fast).
//
// External I/O: file descriptors registered with AddFd() are ppoll()ed while
// the executor sleeps toward the next event's wall deadline. Before a
// handler runs, the simulator is advanced to the wall-equivalent sim time,
// so bytes the handler injects (SerialEndpoint::Write and friends) are
// timestamped at the moment they actually arrived — the fd is an event
// source with wall-clock timestamps, not a poll-when-idle afterthought.
//
// Determinism boundary: a run that never constructs a RealtimeExecutor is
// byte-identical to the pre-bridge schedule. A run that does is reproducible
// only in frame *content* and per-station ordering, never in timestamps —
// see DESIGN.md §13.
#ifndef SRC_SIM_REALTIME_H_
#define SRC_SIM_REALTIME_H_

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace upr {

struct RealtimeConfig {
  // Simulated seconds per wall-clock second.
  double time_scale = 1.0;
};

struct RealtimeStats {
  std::uint64_t polls = 0;           // ppoll calls
  std::uint64_t fd_dispatches = 0;   // fd handler invocations
  std::uint64_t events_executed = 0; // simulator events run under pacing
  // Worst observed lateness of an event relative to its wall deadline (the
  // scheduler can only run late, never early).
  SimTime max_lag = 0;
};

class RealtimeExecutor {
 public:
  // revents from ppoll; handlers may AddFd/RemoveFd/SetFdEvents freely.
  using FdHandler = std::function<void(short revents)>;

  RealtimeExecutor(Simulator* sim, RealtimeConfig config = {});

  // Registers `fd` (must be non-blocking) for `events` (POLLIN/POLLOUT).
  // Re-adding an fd replaces its registration.
  void AddFd(int fd, short events, FdHandler handler);
  // Adjusts poll interest — the backpressure hook: a watcher with no FIFO
  // room drops POLLIN and stops consuming its peer's bytes.
  void SetFdEvents(int fd, short events);
  void RemoveFd(int fd);

  // Hooks run immediately before every ppoll; watchers recompute fd interest
  // (POLLIN when there is FIFO room, POLLOUT when output is queued) here so
  // interest always reflects current simulator state. Returns an id for
  // RemovePrepareHook.
  std::uint64_t AddPrepareHook(std::function<void()> hook);
  void RemovePrepareHook(std::uint64_t id);

  // Sim time equivalent of the current wall clock (>= sim->Now() except
  // transiently while catching up a burst of due events).
  SimTime WallSimTime() const;

  // Paces the simulator until `deadline` (sim time). Returns when the
  // deadline's wall time has passed and all events at or before it have run,
  // when `stop` returns true, or when RequestStop() was called. Events due
  // in the past (schedule behind wall clock) run immediately in order, with
  // `stop` asked before each as Simulator::RunUntil(deadline, done) asks
  // it, so a paced run stops at the event a simulated one stops at.
  std::size_t RunUntil(SimTime deadline, const std::function<bool()>& stop = {});

  // Makes the innermost RunUntil return after the current event/handler.
  void RequestStop() { stop_requested_ = true; }

  Simulator* sim() const { return sim_; }
  double time_scale() const { return config_.time_scale; }
  const RealtimeStats& stats() const { return stats_; }

 private:
  struct Watch {
    int fd = -1;
    short events = 0;
    FdHandler handler;
  };

  // Pins the sim-to-wall mapping at the current (sim, wall) instant. Called
  // lazily by the first RunUntil so construction-time setup costs nothing.
  void Anchor();
  // Sleeps up to `sim_wait` (sim units) in ppoll, dispatching ready fds.
  void PollOnce(SimTime sim_wait);
  // Advances the simulator to min(WallSimTime(), clamp) so fd handlers
  // inject at the arrival instant.
  void SyncSimToWall(SimTime clamp);

  Simulator* sim_;
  RealtimeConfig config_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> prepare_;
  std::uint64_t next_hook_id_ = 1;
  std::vector<Watch> watches_;
  bool anchored_ = false;
  bool stop_requested_ = false;
  SimTime run_deadline_ = 0;
  std::chrono::steady_clock::time_point wall_epoch_;
  SimTime sim_epoch_ = 0;
  RealtimeStats stats_;
};

}  // namespace upr

#endif  // SRC_SIM_REALTIME_H_
