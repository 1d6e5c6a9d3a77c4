// The packet radio pseudo-device driver — the paper's contribution (§2.2).
//
// It implements the same interface as other network drivers (NetInterface,
// our `if_net`), but since the packet controller "does not sit on the bus",
// it talks to the TNC through a serial line: a *pseudo*-device driver.
//
// Receive path, faithful to the paper: the tty layer calls the driver's
// interrupt handler once per character; escaped KISS frame-end characters
// are decoded on the fly; when the final FEND arrives the driver checks that
// the recipient's callsign "is either its own, or the broadcast address",
// then checks the protocol ID — IP packets go onto the stack's incoming IP
// queue, and *non-IP* frames are placed on a tty-style input queue where a
// user program can read them to run AX.25 connected-mode services (§2.4's
// application-layer gateway).
//
// Transmit path: IP datagrams are resolved to AX.25 addresses with the
// radio-specific ARP (htype 3, §2.3), wrapped in UI frames (PID 0xCC) with
// the resolved digipeater path, KISS-framed and written to the serial line.
#ifndef SRC_DRIVER_PACKET_RADIO_INTERFACE_H_
#define SRC_DRIVER_PACKET_RADIO_INTERFACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "src/ax25/address.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/arp.h"
#include "src/net/interface.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"

namespace upr {

struct PacketRadioConfig {
  Ax25Address local_address;
  std::size_t mtu = 256;  // AX.25 N1 default; keeps channel hold times short
  // Output backlog cap in serial bytes; beyond it datagrams are dropped
  // (IFQ_MAXLEN analogue for the slow serial path).
  std::uint64_t max_serial_backlog = 16 * 1024;
  // Size cap of the non-IP ("tty") input queue read by user programs.
  std::size_t l3_queue_limit = 32;
  // Additional destination addresses accepted as broadcasts (beyond QST/CQ):
  // NET/ROM routing broadcasts are addressed to "NODES".
  std::vector<Ax25Address> broadcast_aliases{Ax25Address("NODES", 0)};
  // Simulated CPU cost charged per received character interrupt; multiplied
  // into interrupt_cpu_time (experiment E2/E5 measure this load).
  SimTime per_interrupt_cost = Microseconds(50);
};

struct DriverStats {
  // Receive interrupts taken: one per serial delivery event. In per-byte
  // mode that is one per character (§2.2); in silo mode one per silo-full.
  // These three are read from the serial endpoint, which counts them.
  std::uint64_t interrupts = 0;
  std::uint64_t chars_in = 0;             // characters those interrupts carried
  SimTime interrupt_cpu_time = 0;
  std::uint64_t frames_in = 0;            // complete KISS frames from TNC
  std::uint64_t frames_not_for_us = 0;    // callsign filter rejections
  std::uint64_t frames_in_transit = 0;    // digipeating not complete; ignored
  std::uint64_t ip_in = 0;
  std::uint64_t arp_in = 0;
  std::uint64_t l3_in = 0;                // non-IP frames queued for user code
  std::uint64_t l3_drops = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t output_drops = 0;         // serial backlog cap exceeded
};

class PacketRadioInterface : public NetInterface {
 public:
  // `serial` is the host side of the RS-232 line to the TNC.
  PacketRadioInterface(Simulator* sim, SerialEndpoint* serial, std::string name,
                       PacketRadioConfig config);

  const Ax25Address& local_ax25() const { return config_.local_address; }
  ArpResolver& arp() { return *arp_; }
  DriverStats driver_stats() const;
  // The on-the-fly KISS unescaper; exposes framing-error counters.
  const KissDecoder& kiss_decoder() const { return decoder_; }

  // NetInterface. The AX.25 address block lands in the datagram's headroom
  // and KISS escaping is the only wire-write.
  void Output(PacketBuf&& ip_datagram, IpV4Address next_hop) override;

  // --- User-level AX.25 access (§2.4 future work) -------------------------

  // Handler for non-IP frames; if unset they accumulate on the bounded queue
  // below. The handler receives the frame decoded with the mod-8 control
  // layout plus the raw wire bytes (valid only for the duration of the call),
  // so a LAPB layer running a mod-128 connection can re-parse the control
  // field — see Ax25Link::HandleDecoded.
  using L3Tap = std::function<void(const Ax25Frame&, ByteView wire)>;
  void set_l3_tap(L3Tap tap) { l3_tap_ = std::move(tap); }

  // Reads one queued non-IP frame (when no tap is installed); nullopt when
  // the queue is empty.
  std::optional<Ax25Frame> ReadL3Frame();
  std::size_t l3_queue_depth() const { return l3_queue_.size(); }

  // Transmits a raw AX.25 frame for a user-level protocol implementation.
  void SendRawFrame(const Ax25Frame& frame);

  // Registers a static ARP entry with a digipeater path (§2.3: "some entries
  // may contain additional callsigns for digipeaters").
  void AddArpEntry(IpV4Address ip, const Ax25Address& station,
                   std::vector<Ax25Address> digipeaters = {});

  // Mean characters per receive interrupt (1.0 in per-byte serial mode).
  double chars_per_interrupt() const { return serial_->bytes_per_event(); }

 private:
  void OnSerialChunk(const std::uint8_t* data, std::size_t len);
  // Zero-copy KISS delivery: `payload` aliases the decoder's frame buffer.
  void OnKissFrame(std::uint8_t port, KissCommand command, ByteView payload);
  void TransmitUi(std::uint8_t pid, PacketBuf&& payload, const Ax25HwAddr& dst);
  void WriteKiss(ByteView ax25_wire);

  Simulator* sim_;
  SerialEndpoint* serial_;
  PacketRadioConfig config_;
  KissDecoder decoder_;
  std::unique_ptr<ArpResolver> arp_;
  L3Tap l3_tap_;
  std::deque<Ax25Frame> l3_queue_;
  DriverStats dstats_;  // its serial-line fields stay 0: see driver_stats()
};

}  // namespace upr

#endif  // SRC_DRIVER_PACKET_RADIO_INTERFACE_H_
