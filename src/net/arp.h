// Address Resolution Protocol (RFC 826), shared by the Ethernet driver and
// the packet radio driver. The paper (§2.3) keeps the Ethernet ARP untouched
// and adds "a separate routine that deals specifically with AX.25 addresses";
// here both are instances of ArpResolver parameterized by hardware type:
//   Ethernet:     htype 1, hlen 6
//   AX.25 (AMPR): htype 3, hlen 7 (shifted-callsign wire form)
// Resolved AX.25 entries may carry a digipeater path — the path is not in
// the ARP packet (it is configured, per the paper: "some entries may contain
// additional callsigns for digipeaters"), so AddStatic() installs such
// entries and replies merely refresh the station address.
#ifndef SRC_NET_ARP_H_
#define SRC_NET_ARP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "src/net/hw_address.h"
#include "src/net/ip_address.h"
#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"
#include "src/util/packet_buf.h"

namespace upr {

inline constexpr std::uint16_t kArpHtypeEthernet = 1;
inline constexpr std::uint16_t kArpHtypeAx25 = 3;
inline constexpr std::uint16_t kArpOpRequest = 1;
inline constexpr std::uint16_t kArpOpReply = 2;

struct ArpPacket {
  std::uint16_t htype = kArpHtypeEthernet;
  std::uint16_t oper = kArpOpRequest;
  HwAddress sender_hw;
  IpV4Address sender_ip;
  std::optional<HwAddress> target_hw;  // absent (zero-filled) in requests
  IpV4Address target_ip;

  Bytes Encode() const;
  static std::optional<ArpPacket> Decode(ByteView wire);
};

struct ArpConfig {
  std::uint16_t hardware_type = kArpHtypeEthernet;
  HwAddress broadcast_hw;               // where requests are framed to
  SimTime entry_ttl = Seconds(20 * 60); // 4.3BSD-ish cache lifetime
  SimTime retry_interval = Seconds(5);
  int max_retries = 5;
  std::size_t max_pending_per_entry = 4;
};

class ArpResolver {
 public:
  // Sends an encoded ARP packet; `dst` is nullopt for broadcast.
  using TransmitArp =
      std::function<void(const Bytes& arp_packet, const std::optional<HwAddress>& dst)>;
  // Sends an IP datagram to a resolved link address. The buffer keeps its
  // headroom so the driver can prepend link framing in place.
  using SendResolved = std::function<void(PacketBuf&& ip_datagram, const HwAddress& dst)>;
  using LocalIp = std::function<IpV4Address()>;

  ArpResolver(Simulator* sim, ArpConfig config, LocalIp local_ip, HwAddress local_hw,
              TransmitArp transmit_arp, SendResolved send_resolved);

  // Output path: resolve `next_hop` and send, queueing while resolution is in
  // flight. Broadcast next hops bypass the cache.
  void Send(PacketBuf&& ip_datagram, IpV4Address next_hop);

  // Input path: process a received ARP packet addressed to this link.
  void HandleArpPacket(ByteView wire);

  // Installs a permanent entry (AX.25 entries with digipeater paths go here).
  void AddStatic(IpV4Address ip, HwAddress hw);
  void Flush();

  std::optional<HwAddress> Lookup(IpV4Address ip) const;
  std::size_t cache_size() const { return cache_.size(); }

  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t replies_sent() const { return replies_sent_; }
  std::uint64_t resolution_failures() const { return resolution_failures_; }
  std::uint64_t queue_drops() const { return queue_drops_; }

 private:
  struct Entry {
    std::optional<HwAddress> hw;  // nullopt while resolving
    SimTime expires = 0;          // 0 = permanent
    bool permanent = false;
    int retries = 0;
    std::uint64_t retry_event = 0;
    std::deque<PacketBuf> pending;
  };

  void SendRequest(IpV4Address ip);
  void ScheduleRetry(IpV4Address ip);
  void ResolveEntry(IpV4Address ip, const HwAddress& hw);
  bool EntryValid(const Entry& e) const;

  Simulator* sim_;
  ArpConfig config_;
  LocalIp local_ip_;
  HwAddress local_hw_;
  TransmitArp transmit_arp_;
  SendResolved send_resolved_;
  std::map<IpV4Address, Entry> cache_;

  std::uint64_t requests_sent_ = 0;
  std::uint64_t replies_sent_ = 0;
  std::uint64_t resolution_failures_ = 0;
  std::uint64_t queue_drops_ = 0;
};

}  // namespace upr

#endif  // SRC_NET_ARP_H_
