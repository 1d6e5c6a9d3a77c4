// NET/ROM layer 3 (§2.4 future work: "using another layer three protocol
// known as NET/ROM to pass IP traffic between gateways ... the use of an
// existing, and growing, point-to-point backbone in the same way Internet
// subnets are connected via the ARPANET").
//
// Structured exactly as the paper prescribes for non-IP protocols: NET/ROM
// frames (AX.25 UI, PID 0xCF) arrive on the driver's tty queue and are
// handled by a *user-level* NetRomNode — no kernel support needed.
//
// Implemented here:
//   * NODES routing broadcasts (0xFF signature, alias + entry list) with
//     quality-product route learning and obsolescence aging, as in the
//     Software 2000 firmware.
//   * Network-layer datagram forwarding by callsign with TTL.
//   * An IP-over-NET/ROM tunnel interface (NetRomIpInterface) so a gateway
//     can route Internet traffic across the NET/ROM backbone.
// The layer-4 circuit protocol (reliable end-to-end streams across the
// backbone) lives in netrom_transport.h on top of the datagram service.
#ifndef SRC_NETROM_NETROM_H_
#define SRC_NETROM_NETROM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ax25/address.h"
#include "src/ax25/frame.h"
#include "src/driver/packet_radio_interface.h"
#include "src/net/interface.h"
#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"

namespace upr {

struct NetRomConfig {
  std::string alias = "NODE";           // up to 6 characters
  std::uint8_t initial_ttl = 16;
  SimTime nodes_interval = Seconds(300); // broadcast period
  std::uint8_t default_neighbor_quality = 192;
  std::uint8_t minimum_quality = 10;    // routes below this are not kept
  int initial_obsolescence = 6;         // survives this many broadcast periods
  // When true, NODES broadcasts from unknown stations create a neighbor at
  // the default quality (the firmware default). When false, only stations
  // declared with AddNeighbor are believed — used to model stations that are
  // administratively locked down, or chains whose ends are out of range of
  // each other on a simulated single-frequency channel.
  bool learn_neighbors = true;
};

// One route toward a NET/ROM destination.
struct NetRomRoute {
  Ax25Address neighbor;   // next hop
  std::uint8_t quality = 0;
  int obsolescence = 0;
  std::string alias;
};

// Network-layer datagram: src(7) dst(7) ttl(1) opcode(1) payload.
// Opcode 0x0C marks an encapsulated IP datagram (tunnel traffic); the low
// nibbles 1..6 are the circuit-layer messages (netrom_transport.h).
struct NetRomPacket {
  Ax25Address source;
  Ax25Address destination;
  std::uint8_t ttl = 16;
  std::uint8_t opcode = kOpcodeIp;
  Bytes payload;

  static constexpr std::uint8_t kOpcodeIp = 0x0C;

  Bytes Encode() const;
  static std::optional<NetRomPacket> Decode(const Bytes& wire);
};

class NetRomNode {
 public:
  // The payload is the handler's to keep: the IP tunnel adopts it as its
  // datagram buffer.
  using DatagramHandler =
      std::function<void(const Ax25Address& source, std::uint8_t opcode, Bytes&&)>;
  // Overflow tap: frames that are not NET/ROM (wrong PID) are passed on so
  // another user-level protocol can share the driver's tty queue.
  using FrameHandler = std::function<void(const Ax25Frame&)>;

  NetRomNode(Simulator* sim, PacketRadioInterface* driver, NetRomConfig config = {});

  Simulator* sim() { return sim_; }
  const Ax25Address& callsign() const { return callsign_; }
  const std::string& alias() const { return config_.alias; }

  // Declares a directly reachable neighbor node and its link quality.
  void AddNeighbor(const Ax25Address& neighbor, std::uint8_t quality);

  // Sends one datagram toward `destination` (a node callsign, possibly
  // multiple hops away). Returns false when no route exists.
  bool SendDatagram(const Ax25Address& destination, std::uint8_t opcode, Bytes payload);

  // Fallback handler for datagrams whose opcode has no specific handler.
  void set_datagram_handler(DatagramHandler h) { on_datagram_ = std::move(h); }
  // Opcode-specific dispatch: the IP tunnel registers kOpcodeIp, the circuit
  // transport registers the layer-4 opcodes.
  void RegisterOpcodeHandler(std::uint8_t opcode, DatagramHandler h) {
    opcode_handlers_[opcode] = std::move(h);
  }
  void set_overflow_handler(FrameHandler h) { overflow_ = std::move(h); }

  // Emits a NODES broadcast now (also runs periodically).
  void BroadcastNodes();

  // Failure injection: a disabled node neither broadcasts nor processes
  // frames (station powered down); its neighbors' routes through it age out.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  std::optional<NetRomRoute> RouteTo(const Ax25Address& destination) const;
  std::size_t route_count() const { return routes_.size(); }
  // Snapshot of the routing table (for NODES listings and diagnostics).
  const std::map<Ax25Address, NetRomRoute>& routes() const { return routes_; }
  // Resolves a node by its six-character alias.
  std::optional<Ax25Address> FindNodeByAlias(const std::string& alias) const;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t ttl_drops() const { return ttl_drops_; }
  std::uint64_t no_route_drops() const { return no_route_drops_; }
  std::uint64_t nodes_received() const { return nodes_received_; }

 private:
  void HandleFrame(const Ax25Frame& frame);
  void HandleNodesBroadcast(const Ax25Frame& frame);
  void HandlePacket(NetRomPacket packet);
  void TransmitTo(const Ax25Address& neighbor, const NetRomPacket& packet);
  void AgeRoutes();

  Simulator* sim_;
  PacketRadioInterface* driver_;
  Ax25Address callsign_;
  NetRomConfig config_;
  std::map<Ax25Address, std::uint8_t> neighbors_;  // callsign -> link quality
  std::map<Ax25Address, NetRomRoute> routes_;      // destination -> best route
  std::map<std::uint8_t, DatagramHandler> opcode_handlers_;
  DatagramHandler on_datagram_;
  FrameHandler overflow_;
  std::unique_ptr<Timer> nodes_timer_;
  bool enabled_ = true;

  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t ttl_drops_ = 0;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t nodes_received_ = 0;
};

// An IP interface that tunnels datagrams across the NET/ROM backbone:
// "connected via the ARPANET" for AMPRnet subnets.
class NetRomIpInterface : public NetInterface {
 public:
  NetRomIpInterface(NetRomNode* node, std::string name, std::size_t mtu = 236);

  // Maps a next-hop IP (the remote tunnel endpoint) to its node callsign.
  void MapIpToNode(IpV4Address ip, const Ax25Address& node);

  void Output(PacketBuf&& ip_datagram, IpV4Address next_hop) override;

  std::uint64_t no_mapping_drops() const { return no_mapping_drops_; }

 private:
  NetRomNode* node_;
  std::map<IpV4Address, Ax25Address> ip_to_node_;
  std::uint64_t no_mapping_drops_ = 0;
};

}  // namespace upr

#endif  // SRC_NETROM_NETROM_H_
