#include "src/radio/csma_mac.h"

#include "src/radio/fault_plan.h"
#include "src/trace/trace.h"

namespace upr {

namespace {

void TraceDefer(RadioPort* port, const Bytes& frame, const char* why) {
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kMac, trace::Kind::kMacDefer, trace::Dir::kTx,
              port->name(), frame, why);
  }
}

}  // namespace

// The seed is mixed with the port name: co-channel MACs sharing a default
// seed would otherwise roll identical p-persistence sequences and back off
// in lockstep, synchronizing their collisions forever.
CsmaMac::CsmaMac(Simulator* sim, RadioPort* port, MacParams params,
                 std::uint64_t seed)
    : sim_(sim), port_(port), params_(params), rng_(MixSeed(seed, port->name())) {}

void CsmaMac::Enqueue(Bytes frame) {
  queue_.push_back(std::move(frame));
  TrySend();
}

void CsmaMac::ScheduleRetry() {
  if (retry_pending_) {
    return;
  }
  retry_pending_ = true;
  auto retry = [this] {
    retry_pending_ = false;
    TrySend();
  };
  static_assert(Simulator::StoresInline<decltype(retry)>());
  sim_->Schedule(params_.slot_time, retry);
}

void CsmaMac::TrySend() {
  if (busy_ || queue_.empty()) {
    return;
  }
  if (!params_.full_duplex) {
    if (port_->CarrierBusy()) {
      ++deferrals_;
      TraceDefer(port_, queue_.front(), "carrier-busy");
      ScheduleRetry();
      return;
    }
    // p-persistence: transmit now with probability p, else wait a slot. The
    // roll goes through the fault schedule when a session is installed
    // (outcome polarity: true = deferred, matching the other fault kinds).
    auto roll = [&] { return !rng_.Chance(params_.persistence); };
    fault::Session* fs = fault::Active();
    bool deferred = fs != nullptr ? fs->Decide(fault::Kind::kPPersist,
                                               port_->name(), queue_.front(), roll)
                                  : roll();
    if (deferred) {
      ++deferrals_;
      TraceDefer(port_, queue_.front(), "p-persist");
      ScheduleRetry();
      return;
    }
  }
  busy_ = true;
  Bytes frame = std::move(queue_.front());
  queue_.pop_front();
  ++frames_sent_;
  // Committed: the transmitter keys after the turnaround latency without
  // re-sensing (the collision vulnerability window). Zero turnaround keys
  // synchronously — ideal carrier sense, collision-free.
  auto key_up = [this, frame = std::move(frame)]() mutable {
    if (port_->transmitting()) {
      // The port was keyed (by user-level code, outside this MAC) during the
      // turnaround window. StartTransmit would reject the frame and lose it;
      // put it back at the head of the queue and retry after a slot.
      ++deferrals_;
      queue_.push_front(std::move(frame));
      busy_ = false;
      ScheduleRetry();
      return;
    }
    port_->StartTransmit(std::move(frame), params_.tx_delay, params_.tx_tail, [this] {
      busy_ = false;
      TrySend();
    });
  };
  if (params_.turnaround == 0) {
    key_up();
  } else {
    sim_->Schedule(params_.turnaround, std::move(key_up));
  }
}

}  // namespace upr
