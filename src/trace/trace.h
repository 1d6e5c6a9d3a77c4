// upr::trace — the packet-lifecycle flight recorder (ISSUE 3).
//
// The paper's §3 war story (a promiscuous TNC flooding the host, diagnosed
// only by watching what actually crossed each layer) is the design brief:
// record one event per *layer crossing* — serial enqueue/dequeue, KISS frame
// in/out, AX.25 encode/decode, IP forward decisions, MAC channel events —
// each stamped with simulator time, direction, interface name and a view of
// the frame, and feed two sinks:
//
//   * a bounded in-memory ring buffer, dumpable when an assertion or a
//     workload fails (the "flight recorder" proper), and
//   * an optional pcapng writer emitting LINKTYPE_AX25_KISS (202) files
//     Wireshark opens directly, one interface block per simulated port.
//
// Cost discipline: tracing is off unless a Tracer is installed, and every
// hook is guarded by a single `Active() != nullptr` branch — the disabled
// cost per layer crossing is one predictable-not-taken branch. All strings,
// copies and formatting happen only inside the taken branch. The ambient
// tracer (like BufLayerScope's ambient layer) is thread_local: each thread
// of the parallel city executor installs the tracer of the shard it runs, so
// concurrent shards record into disjoint rings/files without locks, and the
// classic single-threaded scenarios behave exactly as before.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"

namespace upr {
class ShardSet;
}  // namespace upr

namespace upr::trace {

// The layer a crossing belongs to (which subsystem recorded it).
enum class Layer : std::uint8_t {
  kSerial,   // RS-232 line between DZ and TNC
  kKiss,     // KISS framing boundary (host<->TNC byte stream)
  kAx25,     // AX.25 frame codec
  kIp,       // IP input/forward decisions
  kMac,      // CSMA MAC + radio channel
  kGateway,  // §4.3 gateway policy
  kDriver,   // packet radio pseudo-device driver
  kEther,    // Ethernet segment (the wired side of the gateway)
};
inline constexpr int kLayerCount = 8;

// What happened at the crossing.
enum class Kind : std::uint8_t {
  kSerialEnqueue,  // bytes written to a serial endpoint's TX FIFO
  kSerialDeliver,  // a delivery event (receive interrupt) fired
  kKissFrameOut,   // a KISS frame was escape-written to the wire
  kKissFrameIn,    // the streaming decoder completed a frame
  kAx25Encode,     // an AX.25 header was serialized in front of a payload
  kAx25Decode,     // an AX.25 frame was parsed (src/dst/digi path in note)
  kIpForward,      // the stack decided to forward a datagram
  kIpDrop,         // the stack dropped a datagram (note says why)
  kGatewayPass,    // gateway forward-filter allowed a crossing
  kGatewayDeny,    // gateway forward-filter denied a crossing
  kMacTxStart,     // a port keyed up and began transmitting
  kMacCollision,   // a transmission overlapped another (both corrupted)
  kMacDefer,       // the MAC deferred (carrier busy or p-persistence)
  kDriverDrop,     // driver output drop (serial backlog cap)
  kEtherFrameOut,  // an Ethernet-II frame hit the segment
  kEtherFrameIn,   // an Ethernet-II frame passed the station's MAC filter
  kBridgeIn,       // bytes read from an external bridge fd into the sim
  kBridgeOut,      // bytes released (byte-edge paced) to an external fd
};

enum class Dir : std::uint8_t { kNone, kTx, kRx };

const char* LayerName(Layer layer);
const char* KindName(Kind kind);
const char* DirName(Dir dir);

// One recorded layer crossing. `data` is an owned copy truncated to the
// tracer's snaplen; `orig_len` preserves the pre-truncation length.
struct Entry {
  SimTime ts = 0;
  std::uint64_t seq = 0;
  Layer layer = Layer::kSerial;
  Kind kind = Kind::kSerialEnqueue;
  Dir dir = Dir::kNone;
  std::string iface;
  std::string note;
  Bytes data;
  std::uint32_t orig_len = 0;

  std::string ToString() const;
};

struct TracerConfig {
  // Ring capacity in entries; the newest entries win (older ones are evicted
  // and counted).
  std::size_t ring_capacity = 512;
  // Bytes of frame data kept per entry / per pcapng packet.
  std::size_t snaplen = 512;
  // When non-empty, AX.25-bearing crossings are also written to this pcapng
  // file (LINKTYPE_AX25_KISS, one interface block per simulated port).
  std::string pcap_path;
};

struct TraceStats {
  std::uint64_t recorded = 0;        // entries accepted into the ring
  std::uint64_t ring_evicted = 0;    // entries overwritten by newer ones
  std::uint64_t truncated = 0;       // entries whose data hit snaplen
  std::uint64_t pcap_packets = 0;    // enhanced packet blocks written
  std::uint64_t pcap_bytes = 0;      // file bytes written
  std::uint64_t pcap_interfaces = 0; // interface blocks written
  std::uint64_t per_layer[kLayerCount] = {};
};

class PcapngWriter;

class Tracer {
 public:
  // `sim` provides the event timestamps (nanosecond sim time).
  Tracer(Simulator* sim, TracerConfig config = {});
  // Sharded execution on one thread: entries are stamped from whichever
  // shard simulator `shards` is executing, not a fixed one, and a serial
  // byte recorded by RecordDeliverAt() on one shard enters the ring where
  // the shards' time-ordered merge would have run an event of its own.
  // Call before the first record.
  void set_shards(const ShardSet* shards);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records a crossing into the ring only.
  void Record(Layer layer, Kind kind, Dir dir, std::string_view iface,
              ByteView data, std::string note = {});

  // Records a crossing whose `ax25` bytes are a complete AX.25 frame (no
  // FCS): ring entry plus, when a pcap file is open, one packet on `iface`'s
  // pcapng interface. The packet body is the KISS type byte for `kiss_port`
  // followed by the frame, the LINKTYPE_AX25_KISS wire format.
  void RecordFrame(Layer layer, Kind kind, Dir dir, std::string_view iface,
                   ByteView ax25, std::string note = {},
                   std::uint8_t kiss_port = 0);

  // Records a crossing whose bytes are a complete Ethernet-II frame: ring
  // entry plus, when a pcap file is open, one packet on `iface`'s interface —
  // registered as LINKTYPE_ETHERNET (1), so a mixed capture carries the
  // radio ports as AX.25/KISS and the LAN port (`qe0`) as real Ethernet.
  void RecordEtherFrame(Kind kind, Dir dir, std::string_view iface,
                        ByteView frame, std::string note = {});

  // Records the kSerialDeliver of one `byte` landing at `iface` under the
  // key (when, seq) of `sim`, which execution may not have reached yet. The
  // entry, stamped `when`, enters the ring at the first record or Flush()
  // once execution has reached the key, so in the order an event of its own
  // at that key would have put it. A serial line records this way the bytes
  // it lands without an event each. `sim` must outlive the tracer's records
  // and flushes.
  void RecordDeliverAt(const Simulator* sim, SimTime when, std::uint64_t seq,
                       std::string_view iface, std::uint8_t byte);

  const TracerConfig& config() const { return config_; }
  const TraceStats& stats() const { return stats_; }
  // False when the pcap file could not be opened (stats keep counting).
  bool pcap_ok() const;

  // Ring contents, oldest first. Pointers are valid until the next Record.
  std::vector<const Entry*> RingSnapshot() const;
  // Human-readable dump of the ring (one line per entry), for failure paths.
  std::string FormatRing() const;

  // Enters every RecordDeliverAt() byte execution has reached, then flushes
  // buffered pcapng output to disk (also done on destruction). Read the ring
  // and stats after a Flush().
  void Flush();

 private:
  // A RecordDeliverAt() byte execution has not reached yet.
  struct Pending {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t sim;  // index into sims_
    std::uint8_t byte;
    std::string iface;
  };
  // Min-heap on (when, sim, seq): the order the shards' merge runs events in
  // (on one simulator, plain key order).
  static bool Later(const Pending& a, const Pending& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.sim != b.sim ? a.sim > b.sim : a.seq > b.seq;
  }

  Entry& NextSlot();
  // Fills the next ring slot and counts it.
  void Enter(SimTime ts, Layer layer, Kind kind, Dir dir, std::string_view iface,
             ByteView data, std::string note);
  // Enters the pending bytes execution has reached.
  void Settle();
  bool Reached(const Pending& p) const;
  // Index of `sim` in sims_, or sims_.size() when it is not there.
  std::uint32_t IndexOf(const Simulator* sim) const;

  SimTime NowForEntry() const;

  Simulator* sim_;
  const ShardSet* shards_ = nullptr;
  // The simulators pending bytes come from, in shard order when sharded.
  std::vector<const Simulator*> sims_;
  TracerConfig config_;
  TraceStats stats_;
  std::vector<Entry> ring_;     // grows to ring_capacity, then wraps
  std::size_t ring_next_ = 0;   // slot the next entry lands in (once full)
  std::uint64_t seq_ = 0;
  std::vector<Pending> pending_;  // heap, earliest at the front
  std::unique_ptr<PcapngWriter> pcap_;
};

namespace detail {
// thread_local: each parallel-city thread carries its own ambient tracer
// and interface scope; a single-threaded run's slots behave exactly like
// the old process-wide globals. Function-local thread_locals behind inline
// accessors, NOT `extern thread_local` variables — header-inline code
// touching an extern TLS variable goes through the compiler's TLS wrapper
// and trips a GCC UBSan false positive ("store to null pointer"); with the
// definition visible here the access compiles to a plain TLS load.
inline Tracer*& TracerSlot() {
  static thread_local Tracer* tracer = nullptr;
  return tracer;
}
inline std::string_view& IfNameSlot() {
  static thread_local std::string_view name;
  return name;
}
inline Dir& IfDirSlot() {
  static thread_local Dir dir = Dir::kNone;
  return dir;
}
}  // namespace detail

// The installed tracer, or nullptr. Every hook checks this — the one branch
// a disabled tracer costs.
inline Tracer* Active() { return detail::TracerSlot(); }

// Installs `t` as the process-wide tracer (replacing any previous one).
void Install(Tracer* t);
// Clears the installation if `t` is the current tracer; no-op otherwise.
void Uninstall(Tracer* t);

// RAII install/uninstall, for tests and tools.
class ScopedInstall {
 public:
  explicit ScopedInstall(Tracer* t) : t_(t) { Install(t); }
  ~ScopedInstall() { Uninstall(t_); }
  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;

 private:
  Tracer* t_;
};

// Ambient interface attribution for codec-level hooks. The KISS and AX.25
// codecs are pure functions with no interface of their own; the driver and
// TNC wrap calls into them in an IfScope naming the port the bytes belong
// to, exactly as BufLayerScope attributes buffer work. Construction is a
// no-op (one branch) when no tracer is installed.
class IfScope {
 public:
  IfScope(std::string_view name, Dir dir) {
    if (detail::TracerSlot() == nullptr) {
      return;
    }
    active_ = true;
    prev_name_ = detail::IfNameSlot();
    prev_dir_ = detail::IfDirSlot();
    detail::IfNameSlot() = name;
    detail::IfDirSlot() = dir;
  }
  ~IfScope() {
    if (active_) {
      detail::IfNameSlot() = prev_name_;
      detail::IfDirSlot() = prev_dir_;
    }
  }
  IfScope(const IfScope&) = delete;
  IfScope& operator=(const IfScope&) = delete;

 private:
  bool active_ = false;
  std::string_view prev_name_;
  Dir prev_dir_ = Dir::kNone;
};

// Interface name / direction the innermost IfScope established ("" / kNone
// outside any scope).
inline std::string_view CurrentIf() { return detail::IfNameSlot(); }
inline Dir CurrentDir() { return detail::IfDirSlot(); }

// Writes the active tracer's ring to `out` (stderr-style failure dumps).
// No-op when no tracer is installed.
void DumpActiveRing(std::FILE* out);

}  // namespace upr::trace

#endif  // SRC_TRACE_TRACE_H_
