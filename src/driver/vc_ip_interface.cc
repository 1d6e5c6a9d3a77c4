#include "src/driver/vc_ip_interface.h"

#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "ax25vc";
}  // namespace

Ax25VcIpInterface::Ax25VcIpInterface(Simulator* sim, PacketRadioInterface* driver,
                                     std::string name, Ax25LinkConfig link_config,
                                     std::size_t mtu)
    : NetInterface(std::move(name), mtu), sim_(sim), driver_(driver) {
  link_config.pid = kPidIp;  // I frames announce their layer 3, per KA9Q VC
  link_ = std::make_unique<Ax25Link>(
      sim, driver->local_ax25(),
      [driver](const Ax25Frame& f) { driver->SendRawFrame(f); }, link_config);
  driver_->set_l3_tap([this](const Ax25Frame& f, ByteView wire) {
    link_->HandleDecoded(f, wire);
  });
  link_->set_accept_handler([](const Ax25Address&) { return true; });
  link_->set_connection_handler([this](Ax25Connection* conn) {
    AttachConnection(conn->peer(), conn);
  });
}

void Ax25VcIpInterface::MapIpToCallsign(IpV4Address ip, const Ax25Address& callsign) {
  ip_to_call_[ip] = callsign;
}

void Ax25VcIpInterface::AttachConnection(const Ax25Address& callsign,
                                         Ax25Connection* conn) {
  auto& slot = peers_[callsign];
  if (!slot) {
    slot = std::make_unique<Peer>();
  }
  Peer* peer = slot.get();
  peer->conn = conn;
  conn->set_data_handler([this, peer](const Bytes& d) { OnStreamData(peer, d); });
  conn->set_connected_handler([this, peer] {
    while (!peer->pending.empty()) {
      peer->conn->Send(peer->pending.front());
      peer->pending.pop_front();
    }
  });
  conn->set_disconnected_handler([this, peer] {
    // Drop any half-reassembled datagram; a new circuit starts clean.
    peer->rx_buffer.clear();
    peer->pending.clear();
    peer->conn = nullptr;
  });
}

void Ax25VcIpInterface::Output(PacketBuf&& ip_datagram, IpV4Address next_hop) {
  Bytes datagram = ip_datagram.Release();
  if (!up_) {
    ++stats_.oerrors;
    return;
  }
  auto it = ip_to_call_.find(next_hop);
  if (it == ip_to_call_.end()) {
    ++stats_.oerrors;
    UPR_DEBUG(kTag, "no callsign mapping for %s", next_hop.ToString().c_str());
    return;
  }
  ++stats_.opackets;
  stats_.obytes += datagram.size();
  auto& slot = peers_[it->second];
  if (!slot) {
    slot = std::make_unique<Peer>();
  }
  Peer* peer = slot.get();
  if (peer->conn == nullptr ||
      peer->conn->state() == Ax25Connection::State::kDisconnected) {
    ++circuits_opened_;
    Ax25Connection* conn = link_->Connect(it->second);
    AttachConnection(it->second, conn);
    peer->pending.push_back(std::move(datagram));
    return;
  }
  if (peer->conn->state() == Ax25Connection::State::kConnecting) {
    peer->pending.push_back(std::move(datagram));
    return;
  }
  peer->conn->Send(datagram);
}

void Ax25VcIpInterface::OnStreamData(Peer* peer, const Bytes& data) {
  peer->rx_buffer.insert(peer->rx_buffer.end(), data.begin(), data.end());
  for (;;) {
    if (peer->rx_buffer.size() < 20) {
      return;
    }
    // Sanity: IPv4, sane header length. A framing slip is unrecoverable on a
    // byte stream, so reset the circuit's buffer.
    if ((peer->rx_buffer[0] >> 4) != 4) {
      ++framing_errors_;
      peer->rx_buffer.clear();
      return;
    }
    std::size_t total = static_cast<std::size_t>(peer->rx_buffer[2]) << 8 |
                        peer->rx_buffer[3];
    if (total < 20) {
      ++framing_errors_;
      peer->rx_buffer.clear();
      return;
    }
    if (peer->rx_buffer.size() < total) {
      return;  // datagram still arriving
    }
    Bytes datagram(peer->rx_buffer.begin(),
                   peer->rx_buffer.begin() + static_cast<std::ptrdiff_t>(total));
    peer->rx_buffer.erase(peer->rx_buffer.begin(),
                          peer->rx_buffer.begin() + static_cast<std::ptrdiff_t>(total));
    ++datagrams_reassembled_;
    DeliverToStack(PacketBuf::Adopt(std::move(datagram)));
  }
}

}  // namespace upr
