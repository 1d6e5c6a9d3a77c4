// IP over AX.25 virtual circuits — KA9Q's "VC mode", the alternative to the
// UI-datagram encapsulation the paper's driver uses (§2.2).
//
// The era's open question: should IP ride unnumbered AX.25 frames (losses
// left to TCP, cheap) or connected-mode circuits (link-layer ARQ per hop,
// extra SABM/RR traffic)? Karn's KA9Q code supported both; this interface
// implements the VC side so bench_x5_vc_mode can measure the trade on the
// simulated channel.
//
// Framing: IP datagrams are written onto the circuit back to back; the
// receiver re-splits the reliable byte stream using the IPv4 total-length
// field (possible only because connected mode is ordered and lossless).
// I frames carry PID 0xCC, as KA9Q did.
//
// The interface takes over the driver's tty (l3) tap — a station uses either
// this or another user-level AX.25 program, not both.
#ifndef SRC_DRIVER_VC_IP_INTERFACE_H_
#define SRC_DRIVER_VC_IP_INTERFACE_H_

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/ax25/lapb.h"
#include "src/driver/packet_radio_interface.h"
#include "src/net/interface.h"

namespace upr {

class Ax25VcIpInterface : public NetInterface {
 public:
  Ax25VcIpInterface(Simulator* sim, PacketRadioInterface* driver, std::string name,
                    Ax25LinkConfig link_config = {}, std::size_t mtu = 256);

  // VC mode has no ARP flavour of its own: next-hop IPs are mapped to
  // callsigns administratively (as KA9Q's route/arp tables did for VC).
  void MapIpToCallsign(IpV4Address ip, const Ax25Address& callsign);

  void Output(PacketBuf&& ip_datagram, IpV4Address next_hop) override;

  // The underlying connected-mode link (for per-circuit ARQ statistics).
  Ax25Link& link() { return *link_; }

  std::uint64_t circuits_opened() const { return circuits_opened_; }
  std::uint64_t datagrams_reassembled() const { return datagrams_reassembled_; }
  std::uint64_t framing_errors() const { return framing_errors_; }

 private:
  struct Peer {
    Ax25Connection* conn = nullptr;
    std::deque<Bytes> pending;  // datagrams queued while connecting
    Bytes rx_buffer;            // reliable stream awaiting re-split
  };

  void AttachConnection(const Ax25Address& callsign, Ax25Connection* conn);
  void OnStreamData(Peer* peer, const Bytes& data);

  Simulator* sim_;
  PacketRadioInterface* driver_;
  std::unique_ptr<Ax25Link> link_;
  std::map<IpV4Address, Ax25Address> ip_to_call_;
  std::map<Ax25Address, std::unique_ptr<Peer>> peers_;
  std::uint64_t circuits_opened_ = 0;
  std::uint64_t datagrams_reassembled_ = 0;
  std::uint64_t framing_errors_ = 0;
};

}  // namespace upr

#endif  // SRC_DRIVER_VC_IP_INTERFACE_H_
