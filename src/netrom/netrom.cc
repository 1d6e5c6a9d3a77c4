#include "src/netrom/netrom.h"

#include <algorithm>

#include "src/util/logging.h"

namespace upr {

namespace {

constexpr const char* kTag = "netrom";
constexpr std::uint8_t kNodesSignature = 0xFF;

Ax25Address NodesDestination() { return Ax25Address("NODES", 0); }

void WriteAlias(ByteWriter* w, const std::string& alias) {
  for (std::size_t i = 0; i < 6; ++i) {
    w->WriteU8(i < alias.size() ? static_cast<std::uint8_t>(alias[i]) : ' ');
  }
}

std::string ReadAlias(ByteReader* r) {
  Bytes raw = r->ReadBytes(6);
  std::string alias;
  for (std::uint8_t c : raw) {
    if (c != ' ') {
      alias.push_back(static_cast<char>(c));
    }
  }
  return alias;
}

void WriteCallsign(ByteWriter* w, const Ax25Address& a) {
  auto enc = a.Encode(false, true);
  for (std::uint8_t b : enc) {
    w->WriteU8(b);
  }
}

std::optional<Ax25Address> ReadCallsign(ByteReader* r) {
  Bytes raw = r->ReadBytes(kAx25AddressBytes);
  if (raw.size() != kAx25AddressBytes) {
    return std::nullopt;
  }
  auto d = Ax25Address::Decode(raw.data());
  if (!d) {
    return std::nullopt;
  }
  return d->address;
}

}  // namespace

Bytes NetRomPacket::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  WriteCallsign(&w, source);
  WriteCallsign(&w, destination);
  w.WriteU8(ttl);
  w.WriteU8(opcode);
  w.WriteBytes(payload);
  return out;
}

std::optional<NetRomPacket> NetRomPacket::Decode(const Bytes& wire) {
  ByteReader r(wire);
  NetRomPacket p;
  auto src = ReadCallsign(&r);
  auto dst = ReadCallsign(&r);
  p.ttl = r.ReadU8();
  p.opcode = r.ReadU8();
  if (!r.ok() || !src || !dst) {
    return std::nullopt;
  }
  p.source = *src;
  p.destination = *dst;
  p.payload = r.ReadRest();
  return p;
}

NetRomNode::NetRomNode(Simulator* sim, PacketRadioInterface* driver, NetRomConfig config)
    : sim_(sim),
      driver_(driver),
      callsign_(driver->local_ax25()),
      config_(std::move(config)) {
  // NET/ROM rides plain v2.0 mod-8 links (the deployed network never adopted
  // v2.2), so the pre-parsed mod-8 frame is already correct here.
  driver_->set_l3_tap(
      [this](const Ax25Frame& f, ByteView /*wire*/) { HandleFrame(f); });
  nodes_timer_ = std::make_unique<Timer>(sim_, [this] {
    AgeRoutes();
    BroadcastNodes();
    nodes_timer_->Restart(config_.nodes_interval);
  });
  nodes_timer_->Restart(config_.nodes_interval);
}

void NetRomNode::AddNeighbor(const Ax25Address& neighbor, std::uint8_t quality) {
  neighbors_[neighbor] = quality;
  NetRomRoute& r = routes_[neighbor];
  if (quality >= r.quality) {
    r.neighbor = neighbor;
    r.quality = quality;
    r.obsolescence = config_.initial_obsolescence;
  }
}

std::optional<NetRomRoute> NetRomNode::RouteTo(const Ax25Address& destination) const {
  auto it = routes_.find(destination);
  if (it == routes_.end() || it->second.quality < config_.minimum_quality) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<Ax25Address> NetRomNode::FindNodeByAlias(const std::string& alias) const {
  for (const auto& [call, route] : routes_) {
    if (route.alias == alias) {
      return call;
    }
  }
  return std::nullopt;
}

void NetRomNode::TransmitTo(const Ax25Address& neighbor, const NetRomPacket& packet) {
  Ax25Frame f = Ax25Frame::MakeUi(neighbor, callsign_, kPidNetRom, packet.Encode());
  driver_->SendRawFrame(f);
}

bool NetRomNode::SendDatagram(const Ax25Address& destination, std::uint8_t opcode,
                              Bytes payload) {
  NetRomPacket p;
  p.source = callsign_;
  p.destination = destination;
  p.ttl = config_.initial_ttl;
  p.opcode = opcode;
  p.payload = std::move(payload);
  if (destination == callsign_) {
    HandlePacket(std::move(p));
    return true;
  }
  auto route = RouteTo(destination);
  if (!route) {
    ++no_route_drops_;
    UPR_DEBUG(kTag, "%s: no route to %s", callsign_.ToString().c_str(),
              destination.ToString().c_str());
    return false;
  }
  TransmitTo(route->neighbor, p);
  return true;
}

void NetRomNode::BroadcastNodes() {
  if (!enabled_) {
    return;
  }
  Bytes info;
  ByteWriter w(&info);
  w.WriteU8(kNodesSignature);
  WriteAlias(&w, config_.alias);
  // Advertise every route (split horizon is not in the original firmware
  // either; quality decay keeps loops bounded).
  for (const auto& [dest, route] : routes_) {
    if (dest == callsign_) {
      continue;
    }
    WriteCallsign(&w, dest);
    WriteAlias(&w, route.alias);
    WriteCallsign(&w, route.neighbor);
    w.WriteU8(route.quality);
  }
  Ax25Frame f = Ax25Frame::MakeUi(NodesDestination(), callsign_, kPidNetRom, info);
  driver_->SendRawFrame(f);
}

void NetRomNode::AgeRoutes() {
  for (auto it = routes_.begin(); it != routes_.end();) {
    // Routes to static neighbors do not age out.
    if (neighbors_.count(it->first) != 0) {
      ++it;
      continue;
    }
    if (--it->second.obsolescence <= 0) {
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetRomNode::HandleNodesBroadcast(const Ax25Frame& frame) {
  auto nit = neighbors_.find(frame.source);
  if (nit == neighbors_.end()) {
    if (!config_.learn_neighbors) {
      return;  // not a declared neighbor: out of range / locked down
    }
    AddNeighbor(frame.source, config_.default_neighbor_quality);
    nit = neighbors_.find(frame.source);
  }
  std::uint8_t neighbor_quality = nit->second;
  ++nodes_received_;

  ByteReader r(frame.info);
  if (r.ReadU8() != kNodesSignature) {
    return;
  }
  std::string sender_alias = ReadAlias(&r);
  routes_[frame.source].alias = sender_alias;
  routes_[frame.source].obsolescence = config_.initial_obsolescence;
  while (r.remaining() >= kAx25AddressBytes + 6 + kAx25AddressBytes + 1) {
    auto dest = ReadCallsign(&r);
    std::string alias = ReadAlias(&r);
    auto best_neighbor = ReadCallsign(&r);
    std::uint8_t quality = r.ReadU8();
    if (!r.ok() || !dest || !best_neighbor) {
      return;
    }
    if (*dest == callsign_) {
      continue;  // that's us
    }
    // Ignore entries the sender routes through us (poor man's split horizon).
    if (*best_neighbor == callsign_) {
      continue;
    }
    std::uint8_t effective = static_cast<std::uint8_t>(
        static_cast<unsigned>(quality) * neighbor_quality / 256);
    if (effective < config_.minimum_quality) {
      continue;
    }
    NetRomRoute& route = routes_[*dest];
    if (effective >= route.quality || route.neighbor == frame.source) {
      route.neighbor = frame.source;
      route.quality = effective;
      route.obsolescence = config_.initial_obsolescence;
      route.alias = alias;
    }
  }
}

void NetRomNode::HandlePacket(NetRomPacket packet) {
  if (packet.destination == callsign_) {
    ++delivered_;
    auto it = opcode_handlers_.find(packet.opcode);
    if (it != opcode_handlers_.end()) {
      it->second(packet.source, packet.opcode, std::move(packet.payload));
    } else if (on_datagram_) {
      on_datagram_(packet.source, packet.opcode, std::move(packet.payload));
    }
    return;
  }
  if (packet.ttl <= 1) {
    ++ttl_drops_;
    return;
  }
  auto route = RouteTo(packet.destination);
  if (!route) {
    ++no_route_drops_;
    return;
  }
  --packet.ttl;
  ++forwarded_;
  TransmitTo(route->neighbor, packet);
}

void NetRomNode::set_enabled(bool enabled) {
  if (enabled == enabled_) {
    return;
  }
  enabled_ = enabled;
  if (enabled_) {
    nodes_timer_->Restart(config_.nodes_interval);
  } else {
    nodes_timer_->Stop();
  }
}

void NetRomNode::HandleFrame(const Ax25Frame& frame) {
  if (!enabled_) {
    return;
  }
  if (frame.type != Ax25FrameType::kUi || frame.pid != kPidNetRom) {
    if (overflow_) {
      overflow_(frame);
    }
    return;
  }
  if (frame.destination == NodesDestination() ||
      (frame.destination.IsBroadcast() && !frame.info.empty() &&
       frame.info[0] == kNodesSignature)) {
    HandleNodesBroadcast(frame);
    return;
  }
  auto packet = NetRomPacket::Decode(frame.info);
  if (!packet) {
    return;
  }
  HandlePacket(std::move(*packet));
}

NetRomIpInterface::NetRomIpInterface(NetRomNode* node, std::string name, std::size_t mtu)
    : NetInterface(std::move(name), mtu), node_(node) {
  node_->RegisterOpcodeHandler(
      NetRomPacket::kOpcodeIp,
      [this](const Ax25Address&, std::uint8_t, Bytes&& payload) {
        DeliverToStack(PacketBuf::Adopt(std::move(payload)));
      });
}

void NetRomIpInterface::MapIpToNode(IpV4Address ip, const Ax25Address& node) {
  ip_to_node_[ip] = node;
}

void NetRomIpInterface::Output(PacketBuf&& ip_datagram, IpV4Address next_hop) {
  Bytes datagram = ip_datagram.Release();
  if (!up_) {
    ++stats_.oerrors;
    return;
  }
  auto it = ip_to_node_.find(next_hop);
  if (it == ip_to_node_.end()) {
    ++no_mapping_drops_;
    ++stats_.oerrors;
    return;
  }
  ++stats_.opackets;
  stats_.obytes += datagram.size();
  if (!node_->SendDatagram(it->second, NetRomPacket::kOpcodeIp, std::move(datagram))) {
    ++stats_.oerrors;
  }
}

}  // namespace upr
