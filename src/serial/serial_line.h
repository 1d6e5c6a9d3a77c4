// Full-duplex RS-232 serial line between the host's DZ port and the TNC
// (figure 1 of the paper). Bytes move at the configured baud rate, 10 bits
// per byte (8N1 framing).
//
// A direction hands its bytes to the far end in deliveries, each one heap
// event carrying a run of bytes:
//
//   * kSilo is the DH-style silo the paper's §Performance points at as the
//     cure for per-character overhead: a delivery is one receive interrupt,
//     closed when `silo_depth` bytes fill it or `silo_timeout` after the line
//     goes quiet (the DZ-11 silo alarm).
//   * kPerByte is the paper's driver ("For each character in the packet, the
//     tty driver calls the packet radio interrupt handler", §2.2): one
//     interrupt per byte, the same mechanism with a silo one byte deep.
//
// A per-byte receiver that acts on its input only at a frame end (KissTnc
// at FEND) says so when it registers its handler. Its bytes then still take
// one interrupt each, but travel in runs: a run closes at every frame-end
// byte and at the last byte of each Write(), so a KISS frame costs at most
// two heap events instead of one per byte.
//
// Every byte takes the (when, seq) key a ScheduleAt() of its own would have
// taken (a silo's key sits on its last byte and moves at every Write() while
// it is open, as re-arming the silo alarm would). A direction's deliveries
// wait in one FIFO and only the head sits in the Simulator heap, under its
// closing byte's key, so every delivery runs exactly where a heap entry of
// its own would have run (DESIGN.md §8). A run's other bytes land without
// an event: backlog(), tx_room(), the receiver's bytes_received() and
// deliveries(), and their kSerialDeliver trace records, follow each byte's
// own key against the clock.
//
// In every mode the byte stream, its ordering and its wire timing are
// identical; only the number of delivery events changes.
#ifndef SRC_SERIAL_SERIAL_LINE_H_
#define SRC_SERIAL_SERIAL_LINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"

namespace upr {

class SerialLine;

struct SerialLineConfig {
  enum class Mode {
    kPerByte,  // one delivery event per character (paper §2.2)
    kSilo,     // batched delivery, DZ/DH silo style (paper §Performance)
  };

  std::uint32_t baud_rate = 9600;
  Mode mode = Mode::kPerByte;
  // Silo mode: maximum characters per delivery event (DZ-11 had 64).
  std::size_t silo_depth = 16;
  // Silo mode: a partially-filled silo is flushed this long after its last
  // byte lands (the silo-alarm timeout). 0 flushes at the last byte's land
  // time, i.e. as soon as the burst ends.
  SimTime silo_timeout = 0;
  // Transmit FIFO cap in bytes per direction; writes beyond it are dropped
  // and counted (the real DZ overruns instead of buffering without bound).
  // 0 means unbounded (seed behaviour).
  std::uint64_t max_backlog = 0;
};

// One end of the line. Obtain via SerialLine::a()/b().
class SerialEndpoint {
 public:
  using ChunkHandler = std::function<void(const std::uint8_t* data, std::size_t len)>;

  // Runs once per delivery event with every byte it carried (size 1 in
  // per-byte mode, up to silo_depth in silo mode). A receiver that acts only
  // when `frame_end` arrives names it, and in per-byte mode then takes each
  // run up to a frame end or a Write()'s last byte in one call.
  void set_receive_chunk_handler(ChunkHandler h,
                                 std::optional<std::uint8_t> frame_end = std::nullopt) {
    on_bytes_ = std::move(h);
    frame_end_ = frame_end;
  }

  // Hands the receive handler, now, the bytes of a run that have landed but
  // wait for the run to close. A receiver about to reset its state at an
  // instant of its own (KissTnc re-entering KISS mode) calls this first, so
  // those bytes meet the state they would have met one event each.
  void TakeLanded();

  // Queues bytes for transmission to the far end. Never blocks; the line
  // serializes output at the baud rate. Bytes beyond the configured
  // max_backlog are dropped and counted in overruns()/bytes_dropped().
  void Write(ByteView bytes);

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_ + peer_->Landed(); }
  // Transmit-queue backlog in bytes not yet delivered to the peer.
  std::uint64_t backlog() const { return backlog_ - Landed(); }
  // Free transmit-FIFO capacity in bytes (UINT64_MAX when max_backlog is 0,
  // i.e. unbounded). Writers with an external flow-control lever — the live
  // bridge reading from a PTY/TCP fd — consume at most this much per burst,
  // so the cap backpressures the fd instead of dropping mid-frame and
  // desyncing the external KISS decoder.
  std::uint64_t tx_room() const;

  // --- Interrupt-path instrumentation (experiment E5) ---------------------
  // Delivery events scheduled for this endpoint's outgoing bytes.
  std::uint64_t events_scheduled() const { return events_scheduled_; }
  // Receive interrupts this endpoint has taken: one per delivery event, or
  // per byte of a run.
  std::uint64_t deliveries() const { return deliveries_ + peer_->Landed(); }
  // Mean received bytes per receive interrupt: 1.0 in per-byte mode, up to
  // silo_depth in silo mode.
  double bytes_per_event() const {
    const std::uint64_t interrupts = deliveries();
    return interrupts == 0
               ? 0.0
               : static_cast<double>(bytes_received()) / static_cast<double>(interrupts);
  }
  // Write() calls that hit the FIFO cap, and the bytes they lost.
  std::uint64_t overruns() const { return overruns_; }
  std::uint64_t bytes_dropped() const { return bytes_dropped_; }

  // Name used to attribute this endpoint's trace events (e.g. "pc0 dz0").
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

 private:
  friend class SerialLine;

  // A byte on the wire. A delivery is a run of them, and its last byte
  // holds the key the delivery's own ScheduleAt() would have taken.
  struct PendingByte {
    SimTime when;       // land time (+ silo_timeout for an open silo's key)
    std::uint64_t seq;  // reserved on a silo's last byte, on every per-byte one
    std::uint8_t byte;
    bool ends_delivery;
  };

  // Whether this direction's per-byte deliveries travel in runs: its
  // receiver named a frame end.
  bool Runs() const;
  // Bytes of the head run the clock has passed: landed at the peer, not yet
  // handed over.
  std::size_t Landed() const;
  // Puts the FIFO's head delivery in the heap under its key, and lands it at
  // the peer when it runs.
  void ScheduleHead();
  void DeliverHead();

  SerialLine* line_ = nullptr;
  SerialEndpoint* peer_ = nullptr;
  std::string name_;
  ChunkHandler on_bytes_;
  std::optional<std::uint8_t> frame_end_;  // the receive handler acts only here
  SimTime busy_until_ = 0;  // when this direction's last queued byte lands
  // Byte-accurate clock for this direction: bytes sent since `tx_epoch_`.
  // busy_until_ is recomputed as epoch + round(n * byte-time) each Write so
  // non-divisor baud rates (9600 -> 1041666.67 ns/byte) don't accumulate
  // per-byte truncation drift.
  SimTime tx_epoch_ = 0;
  std::uint64_t tx_bytes_since_epoch_ = 0;
  // Bytes on the wire, in land order, from in_flight_head_ on; only the
  // head delivery has a heap entry (head_id_). Storage is freed when the
  // line drains and the delivered prefix compacted at Write() when it does
  // not.
  std::vector<PendingByte> in_flight_;
  std::size_t in_flight_head_ = 0;
  std::uint64_t head_id_ = 0;
  // Bytes in the partial silo still taking bytes at the FIFO's tail.
  std::size_t open_ = 0;
  // A multi-byte chunk being handed to the peer, out of reach of a Write()
  // the receive handler makes.
  Bytes landing_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t backlog_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t overruns_ = 0;
  std::uint64_t bytes_dropped_ = 0;
};

class SerialLine {
 public:
  SerialLine(Simulator* sim, SerialLineConfig config);
  // Back-compat convenience: per-byte mode at `baud_rate`.
  SerialLine(Simulator* sim, std::uint32_t baud_rate);

  SerialEndpoint& a() { return a_; }
  SerialEndpoint& b() { return b_; }
  const SerialEndpoint& a() const { return a_; }
  const SerialEndpoint& b() const { return b_; }

  const SerialLineConfig& config() const { return config_; }
  std::uint32_t baud_rate() const { return config_.baud_rate; }
  // Wire time for one byte (10 bit times: start + 8 data + stop), rounded.
  SimTime byte_time() const;
  // Wire time for `n` consecutive bytes, rounded once (not n truncations).
  SimTime transfer_time(std::uint64_t n) const;

 private:
  friend class SerialEndpoint;

  Simulator* sim_;
  SerialLineConfig config_;
  std::size_t depth_;  // bytes that fill a delivery: 1 in per-byte mode
  SerialEndpoint a_;
  SerialEndpoint b_;
};

}  // namespace upr

#endif  // SRC_SERIAL_SERIAL_LINE_H_
