#include "src/serial/serial_line.h"

#include <algorithm>
#include <cmath>

#include "src/trace/trace.h"
#include "src/util/panic.h"

namespace upr {

SerialLine::SerialLine(Simulator* sim, SerialLineConfig config)
    : sim_(sim),
      config_(config),
      // A silo of depth 0 flushes every byte, as one of depth 1 does.
      depth_(config.mode == SerialLineConfig::Mode::kSilo
                 ? std::max<std::size_t>(config.silo_depth, 1)
                 : 1) {
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
  const std::uint64_t queued = backlog();
  return queued >= cap ? 0 : cap - queued;
}

bool SerialEndpoint::Runs() const {
  return line_->depth_ == 1 && peer_->frame_end_.has_value();
}

std::size_t SerialEndpoint::Landed() const {
  // Only a run's bytes land without an event of their own, and only in the
  // head run: every later one closes behind the head's heap entry.
  const Simulator* sim = line_->sim_;
  const auto first = in_flight_.begin() + static_cast<std::ptrdiff_t>(in_flight_head_);
  if (!Runs() || first == in_flight_.end() || !sim->Reached(first->when, first->seq)) {
    return 0;
  }
  return static_cast<std::size_t>(
      std::partition_point(first, in_flight_.end(), [sim](const PendingByte& p) {
        return sim->Reached(p.when, p.seq);
      }) - first);
}

void SerialEndpoint::TakeLanded() {
  SerialEndpoint& tx = *peer_;
  const std::size_t n = tx.Landed();
  if (n == 0) {
    return;
  }
  // Never the whole run: its closing byte lands in its own event. The rest
  // of the run stays under that byte's key.
  const auto first = tx.in_flight_.begin() + static_cast<std::ptrdiff_t>(tx.in_flight_head_);
  Bytes chunk(n);
  std::transform(first, first + static_cast<std::ptrdiff_t>(n), chunk.begin(),
                 [](const PendingByte& p) { return p.byte; });
  tx.in_flight_head_ += n;
  tx.backlog_ -= n;
  bytes_received_ += n;
  deliveries_ += n;
  if (on_bytes_) {
    on_bytes_(chunk.data(), chunk.size());
  }
}

void SerialEndpoint::ScheduleHead() {
  std::size_t last = in_flight_head_;
  while (!in_flight_[last].ends_delivery) {
    ++last;
  }
  auto deliver = [this] { DeliverHead(); };
  static_assert(Simulator::StoresInline<decltype(deliver)>());
  head_id_ = line_->sim_->ScheduleReserved(in_flight_[last].when, in_flight_[last].seq,
                                           deliver);
}

void SerialEndpoint::DeliverHead() {
  // The chunk goes to the receiver from storage that a Write() it makes
  // cannot move: a local for a one-byte delivery (every per-byte one),
  // landing_ otherwise.
  std::uint8_t one = in_flight_[in_flight_head_].byte;
  ByteView chunk(&one, 1);
  if (in_flight_[in_flight_head_].ends_delivery) {
    ++in_flight_head_;
  } else {
    landing_.clear();
    do {
      landing_.push_back(in_flight_[in_flight_head_].byte);
    } while (!in_flight_[in_flight_head_++].ends_delivery);
    chunk = landing_;
  }
  backlog_ -= chunk.size();
  // Next head first: a receive handler that writes back onto this direction
  // must find the FIFO's head already in the heap.
  if (in_flight_head_ != in_flight_.size()) {
    ScheduleHead();
  } else {
    if (open_ != 0) {
      ++events_scheduled_;  // the silo alarm fired
      open_ = 0;
    }
    // Drained: free the burst's storage, so an idle line holds none.
    in_flight_ = {};
    in_flight_head_ = 0;
  }
  // The peer takes the receive interrupt: one per byte of a run, which
  // Write() recorded at each byte's own key.
  const bool run = Runs();
  SerialEndpoint& rx = *peer_;
  rx.bytes_received_ += chunk.size();
  rx.deliveries_ += run ? chunk.size() : 1;
  if (auto* t = trace::Active(); t != nullptr && !run) {
    t->Record(trace::Layer::kSerial, trace::Kind::kSerialDeliver,
              trace::Dir::kRx, rx.name_, chunk);
  }
  if (rx.on_bytes_) {
    rx.on_bytes_(chunk.data(), chunk.size());
  }
}

void SerialEndpoint::Write(ByteView bytes) {
  Simulator* sim = line_->sim_;
  const SerialLineConfig& cfg = line_->config_;
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kSerial, trace::Kind::kSerialEnqueue,
              trace::Dir::kTx, name_, bytes,
              "backlog=" + std::to_string(backlog()));
  }
  if (busy_until_ <= sim->Now()) {
    // Line idle: start a fresh timing epoch at now.
    busy_until_ = sim->Now();
    tx_epoch_ = sim->Now();
    tx_bytes_since_epoch_ = 0;
  }
  // FIFO full: the DZ would overrun; the bytes past the cap drop with a
  // stat instead of buffering without bound.
  const std::size_t n = std::min<std::uint64_t>(bytes.size(), tx_room());
  if (n != bytes.size()) {
    ++overruns_;
    bytes_dropped_ += bytes.size() - n;
  }
  if (in_flight_.empty()) {
    in_flight_.reserve(n);  // one allocation per idle-line burst
  } else if (2 * in_flight_head_ >= in_flight_.size()) {
    // A line that never drains: drop the delivered half. Each compaction
    // moves no more bytes than were delivered since the last, so O(1) per
    // byte.
    in_flight_.erase(in_flight_.begin(),
                     in_flight_.begin() + static_cast<std::ptrdiff_t>(in_flight_head_));
    in_flight_head_ = 0;
  }
  const bool idle = in_flight_head_ == in_flight_.size();
  // Only an open head changes its key below, so only then is its heap entry
  // stale.
  const bool rekey_head = open_ != 0 && open_ == in_flight_.size() - in_flight_head_;
  bytes_sent_ += n;
  backlog_ += n;
  const std::size_t depth = line_->depth_;
  const bool runs = Runs();
  trace::Tracer* tracer = runs ? trace::Active() : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = bytes[i];
    ++tx_bytes_since_epoch_;
    busy_until_ = tx_epoch_ + line_->transfer_time(tx_bytes_since_epoch_);
    if (open_ != 0) {
      // The open silo's key moves to its new last byte.
      in_flight_.back().ends_delivery = false;
    } else {
      // Land times never decrease within a direction, so the FIFO's head is
      // always its earliest delivery.
      UPR_INVARIANT(in_flight_head_ == in_flight_.size() ||
                        busy_until_ >= in_flight_.back().when,
                    "%s: byte lands before the delivery queued ahead of it",
                    name_.c_str());
    }
    in_flight_.push_back({busy_until_, 0, b, true});
    if (++open_ == depth) {
      // A full silo takes its seq now, as a ScheduleAt() here would, so it
      // runs in the same place.
      open_ = 0;
      PendingByte& p = in_flight_.back();
      p.seq = sim->ReserveSeq();
      // A run goes on to the receiver's frame end or this Write's last byte.
      if (runs && b != *peer_->frame_end_ && i + 1 != n) {
        p.ends_delivery = false;
      } else {
        ++events_scheduled_;
      }
      if (tracer != nullptr) {
        tracer->RecordDeliverAt(sim, p.when, p.seq, peer_->name_, p.byte);
      }
    }
  }
  if (open_ != 0) {
    // (Re)arm the silo alarm: the partial silo's new key.
    in_flight_.back().when = busy_until_ + cfg.silo_timeout;
    in_flight_.back().seq = sim->ReserveSeq();
  }
  if (rekey_head) {
    sim->Cancel(head_id_);
  }
  if ((idle || rekey_head) && in_flight_head_ != in_flight_.size()) {
    ScheduleHead();
  }
}

}  // namespace upr
