#include "src/radio/channel.h"

#include <algorithm>
#include <cmath>

#include "src/radio/fault_plan.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "radio";
}  // namespace

bool BerCorrupts(Rng& rng, double bit_error_rate, std::size_t frame_len) {
  // `!(ber > 0)` rather than `ber <= 0` so a NaN rate reads as "no errors"
  // instead of poisoning pow() and silently disabling corruption.
  if (!(bit_error_rate > 0.0) || frame_len == 0) {
    return false;
  }
  if (bit_error_rate >= 1.0) {
    return true;
  }
  double survive =
      std::pow(1.0 - bit_error_rate, static_cast<double>(frame_len) * 8.0);
  return !rng.Chance(survive);
}

RadioChannel::RadioChannel(Simulator* sim, RadioChannelConfig config,
                           std::uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {}

RadioPort* RadioChannel::CreatePort(std::string name) {
  ports_.push_back(std::unique_ptr<RadioPort>(new RadioPort(this, std::move(name))));
  return ports_.back().get();
}

double RadioChannel::Utilization() const {
  SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  SimTime busy = busy_time_;
  if (active_ > 0) {
    busy += now - busy_since_;
  }
  return static_cast<double>(busy) / static_cast<double>(now);
}

bool RadioPort::CarrierBusy() const { return channel_->Busy(); }

SimTime RadioPort::AirTime(std::size_t len, SimTime head, SimTime tail) const {
  return head + TransmitTime(len, channel_->config_.bit_rate) + tail;
}

bool RadioPort::StartTransmit(Bytes frame, SimTime head, SimTime tail,
                              std::function<void()> on_done) {
  if (transmitting_) {
    UPR_ERROR(kTag, "%s: StartTransmit while already transmitting", name_.c_str());
    ++rejected_transmits_;
    // The frame is rejected but the completion callback must not be dropped:
    // a MAC waiting on it to clear its busy flag would stall forever.
    if (on_done) {
      channel_->sim_->Schedule(0, std::move(on_done));
    }
    return false;
  }
  RadioChannel* ch = channel_;
  Simulator* sim = ch->sim_;
  SimTime start = sim->Now();
  SimTime end = start + AirTime(frame.size(), head, tail);

  auto tx = std::make_shared<RadioChannel::Transmission>();
  tx->port = this;
  tx->start = start;
  tx->end = end;

  // Collision: any concurrently active transmission corrupts both.
  if (ch->active_ > 0) {
    tx->corrupted = true;
    for (auto& other : ch->active_list_) {
      if (!other->corrupted) {
        other->corrupted = true;
      }
    }
    ++ch->collisions_;
    UPR_DEBUG(kTag, "%s: collision (%d active)", name_.c_str(), ch->active_);
    if (auto* t = trace::Active()) {
      t->Record(trace::Layer::kMac, trace::Kind::kMacCollision, trace::Dir::kTx,
                name_, frame, std::to_string(ch->active_) + " active");
    }
  }
  if (ch->active_ == 0) {
    ch->busy_since_ = start;
  }
  ++ch->active_;
  ch->active_list_.push_back(tx);
  ++ch->transmissions_;
  transmitting_ = true;
  last_tx_start_ = start;
  last_tx_end_ = end;
  if (auto* t = trace::Active()) {
    // Frame here still carries the HDLC FCS the TNC appended.
    t->Record(trace::Layer::kMac, trace::Kind::kMacTxStart, trace::Dir::kTx,
              name_, frame,
              "air=" + std::to_string(ToMillis(end - start)) + "ms");
  }

  sim->ScheduleAt(end, [this, ch, sim, tx, frame = std::move(frame),
                        on_done = std::move(on_done)]() mutable {
    transmitting_ = false;
    --ch->active_;
    ch->active_list_.erase(
        std::remove(ch->active_list_.begin(), ch->active_list_.end(), tx),
        ch->active_list_.end());
    if (ch->active_ == 0) {
      ch->busy_time_ += sim->Now() - ch->busy_since_;
    }
    ++frames_sent_;
    // Fault-schedule decision points, in a fixed order per frame: collision
    // outcome, then (only for frames still clean) the loss roll, then the
    // BER roll. When a fault::Session is recording, each roll happens
    // exactly as in an uninstrumented run and its outcome is logged; when
    // replaying, the scheduled outcome is used and the RNG stays untouched.
    fault::Session* fs = fault::Active();
    bool corrupted = tx->corrupted;
    if (fs != nullptr) {
      corrupted = fs->Decide(fault::Kind::kCollision, name_, frame,
                             [&] { return tx->corrupted; });
    }
    if (!corrupted && ch->config_.loss_rate > 0.0) {
      auto roll = [&] { return ch->rng_.Chance(ch->config_.loss_rate); };
      if (fs != nullptr ? fs->Decide(fault::Kind::kLoss, name_, frame, roll)
                        : roll()) {
        corrupted = true;
      }
    }
    if (!corrupted && ch->config_.bit_error_rate > 0.0 && !frame.empty()) {
      auto roll = [&] {
        return BerCorrupts(ch->rng_, ch->config_.bit_error_rate, frame.size());
      };
      if (fs != nullptr ? fs->Decide(fault::Kind::kBitError, name_, frame, roll)
                        : roll()) {
        corrupted = true;
      }
    }
    ch->Deliver(this, std::move(frame), corrupted, tx->start, tx->end);
    if (on_done) {
      on_done();
    }
  });
  return true;
}

void RadioChannel::Deliver(RadioPort* sender, Bytes frame, bool corrupted,
                           SimTime tx_start, SimTime tx_end) {
  if (corrupted && !frame.empty()) {
    // Mangle the head so any FCS verification fails.
    std::size_t n = std::min<std::size_t>(8, frame.size());
    for (std::size_t i = 0; i < n; ++i) {
      frame[i] ^= 0x55;
    }
  }
  // Every receiver reads the same immutable frame: one buffer per
  // transmission, not one copy per listening port.
  auto delivered = std::make_shared<const Bytes>(std::move(frame));
  SimTime delay = config_.propagation_delay;
  // The frame occupies the receiver's antenna during [tx_start + delay,
  // tx_end + delay]; a station that transmitted during any part of that
  // window heard nothing (half duplex).
  SimTime arrive_start = tx_start + delay;
  SimTime arrive_end = tx_end + delay;
  for (auto& p : ports_) {
    RadioPort* dst = p.get();
    if (dst == sender) {
      continue;
    }
    // Pre-filter at tx-end time with what is already decidable: a port whose
    // (current or finished) transmission interval overlaps the arrival
    // window is deaf no matter what it does later. `last_tx_end_` holds the
    // scheduled end of an in-progress transmission, so this also covers a
    // port that is keyed right now but releases before the frame arrives —
    // that port still hears it.
    bool overlapped_own_tx =
        (delay == 0 && dst->transmitting_) ||
        (dst->last_tx_end_ > arrive_start && dst->last_tx_start_ < arrive_end);
    if (overlapped_own_tx) {
      ++dst->half_duplex_misses_;
      continue;
    }
    auto receive = [dst, delivered, corrupted, delay, arrive_start, arrive_end] {
      if (delay > 0) {
        // Deciding receive state at tx-end time alone would let a port that
        // *starts* transmitting inside the propagation window still hear the
        // frame; re-check at actual delivery time.
        bool deaf = dst->transmitting_ || (dst->last_tx_end_ > arrive_start &&
                                           dst->last_tx_start_ < arrive_end);
        if (deaf) {
          ++dst->half_duplex_misses_;
          return;
        }
      }
      ++dst->frames_received_;
      if (corrupted) {
        ++dst->frames_corrupted_rx_;
      }
      if (dst->on_receive_) {
        dst->on_receive_(*delivered, corrupted);
      }
    };
    static_assert(Simulator::StoresInline<decltype(receive)>());
    sim_->Schedule(delay, std::move(receive));
  }
}

}  // namespace upr
