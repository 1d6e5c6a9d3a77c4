// The network-interface abstraction — our equivalent of the Ultrix `if_net`
// structure (§2.2): a name, an address, an MTU, and "pointers to the
// procedures used to initialize the interface, send packets, change
// parameters", here expressed as virtual methods. As with `if_output`, one
// packet representation crosses the boundary both ways: a PacketBuf, moved.
// Drivers live in src/ether, src/driver, src/netrom and src/net (TrunkLink).
#ifndef SRC_NET_INTERFACE_H_
#define SRC_NET_INTERFACE_H_

#include <cstdint>
#include <string>

#include "src/net/ip_address.h"
#include "src/util/packet_buf.h"

namespace upr {

class NetStack;

struct InterfaceStats {
  std::uint64_t ipackets = 0;  // packets delivered to the stack
  std::uint64_t opackets = 0;  // packets handed to the hardware
  std::uint64_t ierrors = 0;   // malformed / failed input
  std::uint64_t oerrors = 0;   // output failures (no route to hw, full queue)
  std::uint64_t ibytes = 0;
  std::uint64_t obytes = 0;
  std::uint64_t odrops = 0;    // output queue overflow
};

class NetInterface {
 public:
  NetInterface(std::string name, std::size_t mtu) : name_(std::move(name)), mtu_(mtu) {}
  virtual ~NetInterface() = default;
  NetInterface(const NetInterface&) = delete;
  NetInterface& operator=(const NetInterface&) = delete;

  const std::string& name() const { return name_; }
  std::size_t mtu() const { return mtu_; }

  IpV4Address address() const { return address_; }
  IpV4Prefix prefix() const { return prefix_; }
  // Assigns the interface address; `prefix_len` defines the directly
  // attached network (a route is added when the interface is attached to a
  // stack, or immediately if already attached).
  void Configure(IpV4Address address, int prefix_len);

  bool up() const { return up_; }
  virtual void SetUp(bool up) { up_ = up; }

  // Sends one IP datagram (already serialized) toward `next_hop` — a
  // neighbour on this link. Handles link-address resolution and framing.
  // Headroom-aware drivers prepend link framing in place; drivers that need
  // an owned byte string take `ip_datagram.Release()`.
  virtual void Output(PacketBuf&& ip_datagram, IpV4Address next_hop) = 0;

  NetStack* stack() const { return stack_; }
  InterfaceStats& stats() { return stats_; }
  const InterfaceStats& stats() const { return stats_; }

 protected:
  friend class NetStack;

  // Delivers a received IP datagram to the owning stack's input queue by move
  // (an owned byte string goes in through PacketBuf::Adopt).
  void DeliverToStack(PacketBuf&& ip_datagram);

  std::string name_;
  std::size_t mtu_;
  IpV4Address address_;
  IpV4Prefix prefix_{};
  bool up_ = true;
  NetStack* stack_ = nullptr;
  InterfaceStats stats_;
};

}  // namespace upr

#endif  // SRC_NET_INTERFACE_H_
