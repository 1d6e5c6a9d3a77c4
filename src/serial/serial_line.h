// Full-duplex RS-232 serial line between the host's DZ port and the TNC
// (figure 1 of the paper). Bytes move at the configured baud rate, 10 bits
// per byte (8N1 framing).
//
// A direction hands its bytes to the far end in deliveries: each delivery
// is one receive interrupt carrying a run of bytes. kSilo is the DH-style
// silo the paper's §Performance points at as the cure for per-character
// overhead: a run closes when `silo_depth` bytes fill it, or `silo_timeout`
// after the line goes quiet (the DZ-11 silo alarm). kPerByte, the paper's
// driver ("For each character in the packet, the tty driver calls the packet
// radio interrupt handler", §2.2), is the same mechanism with a silo one
// byte deep.
//
// A direction's deliveries wait in its own FIFO, each under the (when, seq)
// key a ScheduleAt() of its own would have taken, and only the head sits in
// the Simulator heap. A full silo takes its key when it fills; the open
// partial silo is re-keyed at every Write(), as re-arming the silo alarm
// would. Every delivery runs exactly where a heap entry of its own would
// have run (DESIGN.md §8).
//
// In either mode the byte stream, its ordering and its wire timing are
// identical; only the number of delivery events (interrupts) changes.
#ifndef SRC_SERIAL_SERIAL_LINE_H_
#define SRC_SERIAL_SERIAL_LINE_H_

#include <cstdint>
#include <functional>
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
  // per-byte mode, up to silo_depth in silo mode).
  void set_receive_chunk_handler(ChunkHandler h) { on_bytes_ = std::move(h); }

  // Queues bytes for transmission to the far end. Never blocks; the line
  // serializes output at the baud rate. Bytes beyond the configured
  // max_backlog are dropped and counted in overruns()/bytes_dropped().
  void Write(ByteView bytes);

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  // Transmit-queue backlog in bytes not yet delivered to the peer.
  std::uint64_t backlog() const { return backlog_; }
  // Free transmit-FIFO capacity in bytes (UINT64_MAX when max_backlog is 0,
  // i.e. unbounded). Writers with an external flow-control lever — the live
  // bridge reading from a PTY/TCP fd — consume at most this much per burst,
  // so the cap backpressures the fd instead of dropping mid-frame and
  // desyncing the external KISS decoder.
  std::uint64_t tx_room() const;

  // --- Interrupt-path instrumentation (experiment E5) ---------------------
  // Delivery events scheduled for this endpoint's outgoing bytes.
  std::uint64_t events_scheduled() const { return events_scheduled_; }
  // Delivery events (receive interrupts) this endpoint has taken.
  std::uint64_t deliveries() const { return deliveries_; }
  // Mean received bytes per delivery event: 1.0 in per-byte mode, up to
  // silo_depth in silo mode.
  double bytes_per_event() const {
    return deliveries_ == 0
               ? 0.0
               : static_cast<double>(bytes_received_) / static_cast<double>(deliveries_);
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
    std::uint64_t seq;  // reserved from the Simulator on a delivery's last byte
    std::uint8_t byte;
    bool ends_delivery;
  };

  // Puts the FIFO's head delivery in the heap under its key, and lands it at
  // the peer when it runs.
  void ScheduleHead();
  void DeliverHead();

  SerialLine* line_ = nullptr;
  SerialEndpoint* peer_ = nullptr;
  std::string name_;
  ChunkHandler on_bytes_;
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
