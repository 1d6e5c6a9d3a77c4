#include "src/serial/serial_line.h"

#include <cmath>

#include "src/trace/trace.h"
#include "src/util/panic.h"

namespace upr {

SerialLine::SerialLine(Simulator* sim, SerialLineConfig config)
    : sim_(sim), config_(config) {
  a_.line_ = this;
  a_.peer_ = &b_;
  b_.line_ = this;
  b_.peer_ = &a_;
}

SerialLine::SerialLine(Simulator* sim, std::uint32_t baud_rate)
    : SerialLine(sim, SerialLineConfig{.baud_rate = baud_rate}) {}

SimTime SerialLine::byte_time() const { return transfer_time(1); }

SimTime SerialLine::transfer_time(std::uint64_t n) const {
  return static_cast<SimTime>(
      std::llround(static_cast<double>(n) * 10.0 /
                   static_cast<double>(config_.baud_rate) *
                   static_cast<double>(kSecond)));
}

std::uint64_t SerialEndpoint::tx_room() const {
  std::uint64_t cap = line_->config_.max_backlog;
  if (cap == 0) {
    return UINT64_MAX;
  }
  return backlog_ >= cap ? 0 : cap - backlog_;
}

void SerialEndpoint::DeliverChunk(const std::uint8_t* data, std::size_t len) {
  bytes_received_ += len;
  ++deliveries_;
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kSerial, trace::Kind::kSerialDeliver,
              trace::Dir::kRx, name_, ByteView(data, len));
  }
  if (on_bytes_) {
    on_bytes_(data, len);
    return;
  }
  if (on_byte_) {
    for (std::size_t i = 0; i < len; ++i) {
      on_byte_(data[i]);
    }
  }
}

void SerialEndpoint::ScheduleHead() {
  const PendingByte& head = in_flight_[in_flight_head_];
  line_->sim_->ScheduleReserved(head.when, head.seq, [this] { DeliverHead(); });
}

void SerialEndpoint::DeliverHead() {
  std::uint8_t b = in_flight_[in_flight_head_++].byte;
  --backlog_;
  // Next head first: a receive handler that writes back onto this direction
  // must find the FIFO's head already in the heap.
  if (in_flight_head_ != in_flight_.size()) {
    ScheduleHead();
  } else {
    // Drained: free the burst's storage, so an idle line holds none.
    in_flight_ = {};
    in_flight_head_ = 0;
  }
  peer_->DeliverChunk(&b, 1);
}

void SerialEndpoint::FlushSilo(SimTime when) {
  if (silo_alarm_armed_) {
    line_->sim_->Cancel(silo_alarm_id_);
    silo_alarm_armed_ = false;
  }
  if (silo_.empty()) {
    return;
  }
  SerialEndpoint* dst = peer_;
  ++events_scheduled_;
  line_->sim_->ScheduleAt(when, [this, dst, chunk = std::move(silo_)] {
    backlog_ -= chunk.size();
    dst->DeliverChunk(chunk.data(), chunk.size());
  });
  silo_.clear();
}

void SerialEndpoint::ArmSiloAlarm() {
  if (silo_alarm_armed_) {
    line_->sim_->Cancel(silo_alarm_id_);
  }
  silo_alarm_armed_ = true;
  SimTime when = busy_until_ + line_->config_.silo_timeout;
  SerialEndpoint* dst = peer_;
  silo_alarm_id_ = line_->sim_->ScheduleAt(when, [this, dst] {
    silo_alarm_armed_ = false;
    if (silo_.empty()) {
      return;
    }
    Bytes chunk = std::move(silo_);
    silo_.clear();
    ++events_scheduled_;
    backlog_ -= chunk.size();
    dst->DeliverChunk(chunk.data(), chunk.size());
  });
}

void SerialEndpoint::Write(ByteView bytes) {
  Simulator* sim = line_->sim_;
  const SerialLineConfig& cfg = line_->config_;
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kSerial, trace::Kind::kSerialEnqueue,
              trace::Dir::kTx, name_, bytes,
              "backlog=" + std::to_string(backlog_));
  }
  if (busy_until_ <= sim->Now()) {
    // Line idle: start a fresh timing epoch at now.
    busy_until_ = sim->Now();
    tx_epoch_ = sim->Now();
    tx_bytes_since_epoch_ = 0;
  }
  if (cfg.mode == SerialLineConfig::Mode::kPerByte) {
    if (in_flight_.empty()) {
      in_flight_.reserve(bytes.size());  // one allocation per idle-line burst
    } else if (2 * in_flight_head_ >= in_flight_.size()) {
      // A line that never drains: drop the delivered half. Each compaction
      // moves no more bytes than were delivered since the last, so O(1) per
      // byte.
      in_flight_.erase(in_flight_.begin(),
                       in_flight_.begin() + static_cast<std::ptrdiff_t>(in_flight_head_));
      in_flight_head_ = 0;
    }
  }
  std::uint64_t dropped = 0;
  for (std::uint8_t b : bytes) {
    if (cfg.max_backlog != 0 && backlog_ >= cfg.max_backlog) {
      // FIFO full: the DZ would overrun; drop with a stat, don't buffer
      // without bound.
      ++dropped;
      continue;
    }
    ++tx_bytes_since_epoch_;
    busy_until_ = tx_epoch_ + line_->transfer_time(tx_bytes_since_epoch_);
    ++bytes_sent_;
    ++backlog_;
    if (cfg.mode == SerialLineConfig::Mode::kPerByte) {
      // The byte takes its seq now, as a ScheduleAt() here would, so it runs
      // in the same place; land times never decrease within a direction, so
      // the FIFO's head is always its earliest byte.
      ++events_scheduled_;
      const bool idle = in_flight_head_ == in_flight_.size();
      UPR_INVARIANT(idle || busy_until_ >= in_flight_.back().when,
                    "%s: byte lands before the byte queued ahead of it", name_.c_str());
      in_flight_.push_back({busy_until_, sim->ReserveSeq(), b});
      if (idle) {
        ScheduleHead();
      }
    } else {
      silo_.push_back(b);
      if (silo_.size() >= cfg.silo_depth) {
        FlushSilo(busy_until_);
      }
    }
  }
  if (cfg.mode == SerialLineConfig::Mode::kSilo && !silo_.empty()) {
    ArmSiloAlarm();
  }
  if (dropped != 0) {
    ++overruns_;
    bytes_dropped_ += dropped;
  }
}

}  // namespace upr
