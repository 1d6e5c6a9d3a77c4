// Full-duplex RS-232 serial line between the host's DZ port and the TNC
// (figure 1 of the paper). Bytes move at the configured baud rate, 10 bits
// per byte (8N1 framing). Two delivery disciplines are supported:
//
//  * kPerByte (default, paper fidelity): each byte is a separate delivery
//    event — one receive interrupt per character, which is exactly how the
//    paper's driver ingests packets ("For each character in the packet, the
//    tty driver calls the packet radio interrupt handler", §2.2). It is not
//    one heap entry per character: a direction's in-flight bytes wait in its
//    own FIFO, each under the (land time, seq) key it took at Write(), and
//    only the head byte sits in the Simulator heap. A byte's event runs
//    exactly where a heap entry of its own would have run (DESIGN.md §8).
//
//  * kSilo: the DH-style silo/DMA discipline the paper's §Performance points
//    at as the cure for per-character overhead. Bytes accumulate in a
//    hardware silo of `silo_depth` characters; one delivery event fires when
//    the silo fills, or `silo_timeout` after the line goes quiet (the DZ-11
//    silo alarm). Receivers that install a chunk handler get the whole batch
//    in one callback — one interrupt per silo-full instead of per character.
//
// Either way the byte stream, its ordering and its wire timing are
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
  using ByteHandler = std::function<void(std::uint8_t)>;
  using ChunkHandler = std::function<void(const std::uint8_t* data, std::size_t len)>;

  // Handler runs once per received byte, at the byte's delivery time.
  void set_receive_handler(ByteHandler h) { on_byte_ = std::move(h); }
  // Chunk handler runs once per delivery event with every byte it carried
  // (size 1 in per-byte mode, up to silo_depth in silo mode). When set it
  // takes precedence over the per-byte handler; when only the per-byte
  // handler is set, chunks are unrolled into per-byte calls so existing
  // consumers work under either mode.
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

  // Per-byte mode: a byte on the wire, keyed as if it had its own event.
  struct PendingByte {
    SimTime when;       // land time at the peer
    std::uint64_t seq;  // reserved from the Simulator at Write()
    std::uint8_t byte;
  };

  // Hands a landed chunk to the receive side of *this* endpoint.
  void DeliverChunk(const std::uint8_t* data, std::size_t len);
  // Per-byte mode: puts the FIFO's head byte in the heap under its reserved
  // key, and lands it at the peer when it runs.
  void ScheduleHead();
  void DeliverHead();
  // Schedules delivery of the accumulated silo to the peer at `when`.
  void FlushSilo(SimTime when);
  // (Re)arms the silo-alarm flush for a partially-filled silo.
  void ArmSiloAlarm();

  SerialLine* line_ = nullptr;
  SerialEndpoint* peer_ = nullptr;
  std::string name_;
  ByteHandler on_byte_;
  ChunkHandler on_bytes_;
  SimTime busy_until_ = 0;  // when this direction's last queued byte lands
  // Byte-accurate clock for this direction: bytes sent since `tx_epoch_`.
  // busy_until_ is recomputed as epoch + round(n * byte-time) each Write so
  // non-divisor baud rates (9600 -> 1041666.67 ns/byte) don't accumulate
  // per-byte truncation drift.
  SimTime tx_epoch_ = 0;
  std::uint64_t tx_bytes_since_epoch_ = 0;
  // Per-byte mode: bytes on the wire, in land order, from in_flight_head_
  // on; only the head has a heap entry. Storage is freed when the line
  // drains and the delivered prefix compacted at Write() when it does not.
  std::vector<PendingByte> in_flight_;
  std::size_t in_flight_head_ = 0;
  // Silo mode: bytes on the wire not yet bundled into a delivery event.
  Bytes silo_;
  std::uint64_t silo_alarm_id_ = 0;
  bool silo_alarm_armed_ = false;
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
  SerialEndpoint a_;
  SerialEndpoint b_;
};

}  // namespace upr

#endif  // SRC_SERIAL_SERIAL_LINE_H_
