// Per-host network stack: interfaces, routing, IP input/output/forwarding,
// fragmentation and reassembly, protocol dispatch — the "existing Ultrix
// network support" the paper's driver plugs into, including the bounded
// "queue of incoming IP packets" (§2.2) drivers append to.
#ifndef SRC_NET_NETSTACK_H_
#define SRC_NET_NETSTACK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/icmp.h"
#include "src/net/interface.h"
#include "src/net/ip_address.h"
#include "src/net/ipv4.h"
#include "src/net/routing.h"
#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"
#include "src/util/packet_buf.h"

namespace upr {

struct IpStats {
  std::uint64_t delivered = 0;      // packets handed to a protocol
  std::uint64_t sent = 0;           // locally originated datagrams
  std::uint64_t forwarded = 0;
  std::uint64_t input_drops = 0;    // input queue overflow
  std::uint64_t header_errors = 0;
  std::uint64_t no_route = 0;
  std::uint64_t ttl_expired = 0;
  std::uint64_t no_protocol = 0;
  std::uint64_t filtered = 0;       // forward-filter (access control) drops
  std::uint64_t fragments_created = 0;
  std::uint64_t fragments_received = 0;
  std::uint64_t reassembled = 0;
  std::uint64_t reassembly_failures = 0;
  std::uint64_t cant_fragment = 0;  // DF set but fragmentation required
};

class NetStack {
 public:
  NetStack(Simulator* sim, std::string hostname);
  ~NetStack();
  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  Simulator* sim() const { return sim_; }
  const std::string& hostname() const { return hostname_; }

  // Interface management. The stack owns the interface and installs the
  // direct route for its configured prefix.
  NetInterface* AddInterface(std::unique_ptr<NetInterface> interface);
  NetInterface* FindInterface(const std::string& name) const;
  const std::vector<std::unique_ptr<NetInterface>>& interfaces() const {
    return interfaces_;
  }

  RouteTable& routes() { return routes_; }
  const RouteTable& routes() const { return routes_; }

  // IP forwarding (the MicroVAX gateway runs with this on; hosts off).
  void set_forwarding(bool on) { forwarding_ = on; }
  bool forwarding() const { return forwarding_; }

  // When forwarding hairpins out the arrival interface toward a gateway on
  // the sender's own network, emit an ICMP host redirect (§4.2 extension).
  void set_send_redirects(bool on) { send_redirects_ = on; }
  bool send_redirects() const { return send_redirects_; }

  // Called for every packet about to be forwarded; return false to drop.
  // The gateway's §4.3 access-control table hooks in here. The payload view
  // aliases the in-flight buffer and is valid only during the call.
  using ForwardFilter = std::function<bool(const Ipv4Header& header, ByteView payload,
                                           NetInterface* in, NetInterface* out)>;
  void set_forward_filter(ForwardFilter f) { forward_filter_ = std::move(f); }

  // Transport/protocol registration (ICMP registers itself; TCP/UDP attach
  // from their modules). The payload view aliases the in-flight buffer and is
  // valid only during the call; handlers copy what they keep.
  using ProtocolHandler = std::function<void(const Ipv4Header& header, ByteView payload,
                                             NetInterface* in)>;
  void RegisterProtocol(std::uint8_t protocol, ProtocolHandler handler);

  struct SendOptions {
    IpV4Address source;  // default: outgoing interface address
    std::uint8_t ttl = kDefaultTtl;
    std::uint8_t tos = 0;
    bool dont_fragment = false;
  };
  // Routes and transmits one datagram whose transport payload rides in
  // `payload`; the IP header is prepended into the buffer's headroom. Local
  // destinations loop back through the input path. Returns false when no
  // route exists.
  bool SendDatagram(IpV4Address dst, std::uint8_t protocol, PacketBuf&& payload,
                    const SendOptions& opts);
  bool SendDatagram(IpV4Address dst, std::uint8_t protocol, PacketBuf&& payload) {
    return SendDatagram(dst, protocol, std::move(payload), SendOptions{});
  }

  // Driver input: appends to the bounded IP input queue; a zero-delay event
  // drains it (the softnet half of the paper's interrupt handler). Packets
  // arriving at a full queue are dropped, as in 4.3BSD's IF_ENQUEUE.
  void EnqueueFromDriver(PacketBuf ip_datagram, NetInterface* in);

  bool IsLocalAddress(IpV4Address a) const;
  // True for the all-ones address or a directly attached subnet broadcast.
  bool IsBroadcastAddress(IpV4Address a) const;

  Icmp& icmp() { return *icmp_; }
  IpStats& ip_stats() { return ip_stats_; }
  const IpStats& ip_stats() const { return ip_stats_; }

  std::size_t input_queue_limit() const { return input_queue_limit_; }
  void set_input_queue_limit(std::size_t n) { input_queue_limit_ = n; }
  std::size_t input_queue_depth() const { return input_queue_.size(); }

 private:
  struct QueuedInput {
    PacketBuf datagram;
    NetInterface* in;
  };
  struct ReassemblyKey {
    std::uint32_t src = 0, dst = 0;
    std::uint16_t id = 0;
    std::uint8_t proto = 0;
    bool operator<(const ReassemblyKey& o) const {
      return std::tie(src, dst, id, proto) < std::tie(o.src, o.dst, o.id, o.proto);
    }
  };
  struct ReassemblyBuffer {
    struct Fragment {
      std::uint16_t offset;  // bytes
      Bytes data;
    };
    Ipv4Header first_header;  // header of the offset-0 fragment
    bool have_first = false;
    std::vector<Fragment> fragments;
    std::size_t total_len = 0;  // known once the MF=0 fragment arrives
    SimTime deadline = 0;
  };

  void DrainInputQueue();
  void ProcessDatagram(PacketBuf&& datagram, NetInterface* in);
  void DeliverLocal(const Ipv4Header& header, ByteView payload, NetInterface* in);
  // `datagram` is the full buffer (header + payload, payload aliasing it);
  // the TTL is decremented in place and the buffer moves on to the output
  // interface untouched.
  void Forward(const Ipv4Header& header, ByteView payload, PacketBuf&& datagram,
               NetInterface* in);
  // Fragments (if needed) and hands the fully encoded datagram to the
  // interface. `header` is its already-serialized IP header, parsed.
  bool TransmitVia(const Ipv4Header& header, PacketBuf&& datagram, NetInterface* out,
                   IpV4Address next_hop);
  void HandleFragment(const Ipv4Header& header, ByteView payload, NetInterface* in);
  void CleanReassembly();

  Simulator* sim_;
  std::string hostname_;
  std::vector<std::unique_ptr<NetInterface>> interfaces_;
  RouteTable routes_;
  bool forwarding_ = false;
  bool send_redirects_ = true;
  ForwardFilter forward_filter_;
  std::map<std::uint8_t, ProtocolHandler> protocols_;
  std::unique_ptr<Icmp> icmp_;
  IpStats ip_stats_;

  std::deque<QueuedInput> input_queue_;
  std::size_t input_queue_limit_ = 50;  // IFQ_MAXLEN
  bool drain_scheduled_ = false;

  std::uint16_t next_ip_id_ = 1;
  std::map<ReassemblyKey, ReassemblyBuffer> reassembly_;
  SimTime reassembly_timeout_ = Seconds(30);
};

}  // namespace upr

#endif  // SRC_NET_NETSTACK_H_
