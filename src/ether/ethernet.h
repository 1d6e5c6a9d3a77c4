// Simulated Ethernet: the department LAN on the wired side of the gateway.
//
// A 10 Mb/s broadcast segment. Frames are serialized on the wire (the medium
// carries one frame at a time; CSMA/CD backoff is abstracted away since the
// paper's Ethernet is never the bottleneck — the radio side at 1200 bps is
// four orders of magnitude slower). EthernetInterface is the DEQNA-driver
// equivalent: Ethernet-II framing, ARP resolution (htype 1), IP delivery.
#ifndef SRC_ETHER_ETHERNET_H_
#define SRC_ETHER_ETHERNET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/arp.h"
#include "src/net/interface.h"
#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"

namespace upr {

inline constexpr std::uint16_t kEtherTypeIp = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::size_t kEtherHeaderBytes = 14;
inline constexpr std::size_t kEtherMtu = 1500;

class EthernetInterface;

class EtherSegment {
 public:
  explicit EtherSegment(Simulator* sim, std::uint64_t bit_rate = 10'000'000);

  void Attach(EthernetInterface* interface);
  // Serializes the frame on the wire and delivers it to every other station.
  void Transmit(EthernetInterface* from, Bytes frame);

  Simulator* sim() { return sim_; }
  std::uint64_t frames_carried() const { return frames_carried_; }

 private:
  Simulator* sim_;
  std::uint64_t bit_rate_;
  SimTime busy_until_ = 0;
  std::vector<EthernetInterface*> stations_;
  std::uint64_t frames_carried_ = 0;
};

class EthernetInterface : public NetInterface {
 public:
  EthernetInterface(EtherSegment* segment, std::string name, EtherAddr mac);

  const EtherAddr& mac() const { return mac_; }
  ArpResolver& arp() { return *arp_; }

  // NetInterface. Prepends the 14-byte Ethernet-II header into the
  // datagram's headroom.
  void Output(PacketBuf&& ip_datagram, IpV4Address next_hop) override;

 private:
  friend class EtherSegment;

  void TransmitFrame(std::uint16_t ethertype, const EtherAddr& dst, PacketBuf&& payload);
  void ReceiveFrame(const Bytes& frame);

  EtherSegment* segment_;
  EtherAddr mac_;
  std::unique_ptr<ArpResolver> arp_;
};

}  // namespace upr

#endif  // SRC_ETHER_ETHERNET_H_
