#include "src/netrom/netrom_transport.h"

#include "src/util/logging.h"

namespace upr {

namespace {

constexpr const char* kTag = "netrom.l4";

std::uint8_t Mod256(int v) { return static_cast<std::uint8_t>(v & 0xFF); }

std::uint8_t OutstandingCount(std::uint8_t vs, std::uint8_t va) {
  return Mod256(vs - va);
}

void WriteCall(ByteWriter* w, const Ax25Address& a) {
  auto enc = a.Encode(false, true);
  for (std::uint8_t b : enc) {
    w->WriteU8(b);
  }
}

std::optional<Ax25Address> ReadCall(ByteReader* r) {
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

NetRomTransport::NetRomTransport(NetRomNode* node, NetRomTransportConfig config)
    : node_(node), config_(config) {
  for (std::uint8_t op : {kNrOpConnReq, kNrOpConnAck, kNrOpDiscReq, kNrOpDiscAck,
                          kNrOpInfo, kNrOpInfoAck}) {
    // Flag bits live in the high nibble of the same byte; register the plain
    // opcode and each flag combination we can receive.
    for (std::uint8_t flags : {0x00, 0x20, 0x40, 0x60, 0x80, 0xA0, 0xC0, 0xE0}) {
      node_->RegisterOpcodeHandler(
          static_cast<std::uint8_t>(op | flags),
          [this](const Ax25Address& src, std::uint8_t opcode, const Bytes& payload) {
            Bytes full;
            full.reserve(payload.size() + 1);
            full.push_back(opcode);
            full.insert(full.end(), payload.begin(), payload.end());
            HandleL4(src, full);
          });
    }
  }
}

std::uint16_t NetRomTransport::AllocateCircuitKey() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    std::uint16_t key = next_key_++;
    if ((key >> 8) == 0 || (key & 0xFF) == 0) {
      continue;  // never use index/id zero
    }
    if (circuits_.find(key) == circuits_.end()) {
      return key;
    }
  }
  return 0;
}

NetRomCircuit* NetRomTransport::Connect(const Ax25Address& remote_node,
                                        const Ax25Address& user) {
  if (remote_node != node_->callsign() && !node_->RouteTo(remote_node)) {
    UPR_DEBUG(kTag, "no route to node %s", remote_node.ToString().c_str());
    return nullptr;
  }
  std::uint16_t key = AllocateCircuitKey();
  if (key == 0) {
    return nullptr;
  }
  auto circuit = std::unique_ptr<NetRomCircuit>(
      new NetRomCircuit(this, remote_node, key));
  NetRomCircuit* raw = circuit.get();
  circuits_[key] = std::move(circuit);
  raw->StartConnect(user.IsNull() ? node_->callsign() : user);
  return raw;
}

void NetRomTransport::ReapClosed() {
  for (auto it = circuits_.begin(); it != circuits_.end();) {
    if (it->second->state() == NetRomCircuit::State::kDisconnected) {
      it = circuits_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetRomTransport::HandleL4(const Ax25Address& src, const Bytes& full) {
  // full := opcode(1) idx(1) id(1) tx(1) rx(1) body...
  if (full.size() < 5) {
    return;
  }
  NetRomCircuit::L4Message m;
  m.opcode = full[0];
  m.idx = full[1];
  m.id = full[2];
  m.tx_seq = full[3];
  m.rx_seq = full[4];
  m.payload.assign(full.begin() + 5, full.end());

  if (m.op() == kNrOpConnReq) {
    ByteReader r(m.payload);
    std::uint8_t window = r.ReadU8();
    auto user = ReadCall(&r);
    auto origin = ReadCall(&r);
    (void)window;
    if (!r.ok() || !user || !origin) {
      return;
    }
    // Duplicate CONN REQ for an existing circuit: re-ack with our key.
    for (auto& [key, circuit] : circuits_) {
      if (circuit->remote_node_ == *origin && circuit->their_idx_ == m.idx &&
          circuit->their_id_ == m.id &&
          circuit->state_ != NetRomCircuit::State::kDisconnected) {
        Bytes payload;
        payload.push_back(circuit->their_idx_);
        payload.push_back(circuit->their_id_);
        payload.push_back(static_cast<std::uint8_t>(circuit->our_key_ >> 8));
        payload.push_back(static_cast<std::uint8_t>(circuit->our_key_ & 0xFF));
        payload.push_back(config_.window);
        node_->SendDatagram(*origin, kNrOpConnAck, std::move(payload));
        return;
      }
    }
    if (!accept_ || !accept_(*origin, *user)) {
      // Refuse: CONN ACK with CHOKE, echoing their circuit key.
      Bytes payload;
      payload.push_back(m.idx);
      payload.push_back(m.id);
      payload.push_back(0);
      payload.push_back(0);
      payload.push_back(0);  // window 0
      node_->SendDatagram(*origin, kNrOpConnAck | kNrFlagChoke, std::move(payload));
      return;
    }
    std::uint16_t key = AllocateCircuitKey();
    if (key == 0) {
      return;
    }
    auto circuit = std::unique_ptr<NetRomCircuit>(
        new NetRomCircuit(this, *origin, key));
    NetRomCircuit* raw = circuit.get();
    circuits_[key] = std::move(circuit);
    raw->StartAccept(m, *origin, *user);
    if (on_circuit_) {
      on_circuit_(raw);
    }
    return;
  }

  // All other messages address our circuit by our (idx, id).
  std::uint16_t key = static_cast<std::uint16_t>(m.idx << 8 | m.id);
  auto it = circuits_.find(key);
  if (it == circuits_.end()) {
    // Unknown circuit: answer DISC REQ politely, drop the rest.
    if (m.op() == kNrOpDiscReq) {
      Bytes payload{m.idx, m.id, 0, 0};
      node_->SendDatagram(src, kNrOpDiscAck, std::move(payload));
    }
    return;
  }
  it->second->HandleMessage(m);
}

NetRomCircuit::NetRomCircuit(NetRomTransport* transport, Ax25Address remote_node,
                             std::uint16_t our_key)
    : transport_(transport),
      remote_node_(std::move(remote_node)),
      our_key_(our_key),
      timer_(transport->node()->sim(), [this] { OnTimeout(); }) {}

void NetRomCircuit::StartConnect(const Ax25Address& user) {
  user_ = user;
  state_ = State::kConnecting;
  retries_ = 0;
  SendConnRequest();
}

void NetRomCircuit::SendConnRequest() {
  Bytes payload;
  ByteWriter w(&payload);
  w.WriteU8(static_cast<std::uint8_t>(our_key_ >> 8));
  w.WriteU8(static_cast<std::uint8_t>(our_key_ & 0xFF));
  w.WriteU8(0);
  w.WriteU8(0);
  w.WriteU8(transport_->config().window);
  WriteCall(&w, user_);
  WriteCall(&w, transport_->node()->callsign());
  transport_->node()->SendDatagram(remote_node_, kNrOpConnReq, std::move(payload));
  timer_.Restart(transport_->config().retransmit_timeout);
}

void NetRomCircuit::StartAccept(const L4Message& conn_req, const Ax25Address& origin,
                                const Ax25Address& user) {
  user_ = user;
  their_idx_ = conn_req.idx;
  their_id_ = conn_req.id;
  state_ = State::kConnected;
  vs_ = va_ = vr_ = 0;
  // CONN ACK: echo their key in idx/id; ours rides in tx/rx; payload window.
  Bytes payload;
  payload.push_back(their_idx_);
  payload.push_back(their_id_);
  payload.push_back(static_cast<std::uint8_t>(our_key_ >> 8));
  payload.push_back(static_cast<std::uint8_t>(our_key_ & 0xFF));
  payload.push_back(transport_->config().window);
  transport_->node()->SendDatagram(remote_node_, kNrOpConnAck, std::move(payload));
  if (on_connected_) {
    on_connected_();
  }
}

void NetRomCircuit::SendControl(std::uint8_t opcode, const Bytes& body) {
  Bytes payload;
  payload.push_back(their_idx_);
  payload.push_back(their_id_);
  payload.push_back(0);
  payload.push_back(0);
  payload.insert(payload.end(), body.begin(), body.end());
  transport_->node()->SendDatagram(remote_node_, opcode, std::move(payload));
}

void NetRomCircuit::SendInfoAck(std::uint8_t flags) {
  Bytes payload;
  payload.push_back(their_idx_);
  payload.push_back(their_id_);
  payload.push_back(0);
  payload.push_back(vr_);
  transport_->node()->SendDatagram(remote_node_,
                                   static_cast<std::uint8_t>(kNrOpInfoAck | flags),
                                   std::move(payload));
}

void NetRomCircuit::Send(const Bytes& data) {
  std::size_t mtu = transport_->config().info_mtu;
  for (std::size_t off = 0; off < data.size(); off += mtu) {
    std::size_t n = std::min(mtu, data.size() - off);
    send_queue_.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(off),
                             data.begin() + static_cast<std::ptrdiff_t>(off + n));
  }
  if (state_ == State::kConnected) {
    PumpSendQueue();
  }
}

void NetRomCircuit::Disconnect() {
  if (state_ == State::kConnected || state_ == State::kConnecting) {
    state_ = State::kDisconnecting;
    retries_ = 0;
    SendControl(kNrOpDiscReq);
    timer_.Restart(transport_->config().retransmit_timeout);
  }
}

void NetRomCircuit::PumpSendQueue() {
  while (!send_queue_.empty() &&
         OutstandingCount(vs_, va_) < transport_->config().window) {
    Bytes body = std::move(send_queue_.front());
    send_queue_.pop_front();
    outstanding_[vs_] = body;
    TransmitInfo(vs_, false);
    vs_ = Mod256(vs_ + 1);
  }
  if (!outstanding_.empty() && !timer_.running()) {
    timer_.Restart(transport_->config().retransmit_timeout);
  }
}

void NetRomCircuit::TransmitInfo(std::uint8_t seq, bool retransmission) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) {
    return;
  }
  Bytes payload;
  payload.push_back(their_idx_);
  payload.push_back(their_id_);
  payload.push_back(seq);
  payload.push_back(vr_);
  payload.insert(payload.end(), it->second.begin(), it->second.end());
  if (retransmission) {
    ++info_resent_;
  } else {
    ++info_sent_;
  }
  transport_->node()->SendDatagram(remote_node_, kNrOpInfo, std::move(payload));
}

void NetRomCircuit::HandleInfoAckField(std::uint8_t rx_seq) {
  if (Mod256(rx_seq - va_) > OutstandingCount(vs_, va_)) {
    return;  // acks something we never sent
  }
  bool advanced = false;
  while (va_ != rx_seq) {
    outstanding_.erase(va_);
    va_ = Mod256(va_ + 1);
    advanced = true;
  }
  if (advanced) {
    retries_ = 0;
    if (outstanding_.empty()) {
      timer_.Stop();
    } else {
      timer_.Restart(transport_->config().retransmit_timeout);
    }
    PumpSendQueue();
  }
}

void NetRomCircuit::HandleMessage(const L4Message& m) {
  switch (m.op()) {
    case kNrOpConnAck:
      if (state_ == State::kConnecting) {
        if (m.opcode & kNrFlagChoke) {
          UPR_DEBUG(kTag, "connection to %s refused",
                    remote_node_.ToString().c_str());
          EnterDisconnected();
          return;
        }
        their_idx_ = m.tx_seq;
        their_id_ = m.rx_seq;
        state_ = State::kConnected;
        vs_ = va_ = vr_ = 0;
        retries_ = 0;
        timer_.Stop();
        if (on_connected_) {
          on_connected_();
        }
        PumpSendQueue();
      }
      return;
    case kNrOpInfo: {
      if (state_ != State::kConnected) {
        return;
      }
      HandleInfoAckField(m.rx_seq);
      if (m.tx_seq == vr_) {
        vr_ = Mod256(vr_ + 1);
        bytes_delivered_ += m.payload.size();
        if (on_data_) {
          on_data_(m.payload);
        }
        SendInfoAck();
      } else {
        // Out of order: NAK requests retransmission from vr_.
        SendInfoAck(kNrFlagNak);
      }
      return;
    }
    case kNrOpInfoAck:
      if (state_ != State::kConnected) {
        return;
      }
      HandleInfoAckField(m.rx_seq);
      if (m.opcode & kNrFlagNak) {
        for (std::uint8_t i = 0; i < OutstandingCount(vs_, va_); ++i) {
          TransmitInfo(Mod256(va_ + i), true);
        }
        if (!outstanding_.empty()) {
          timer_.Restart(transport_->config().retransmit_timeout);
        }
      }
      return;
    case kNrOpDiscReq:
      SendControl(kNrOpDiscAck);
      if (state_ != State::kDisconnected) {
        EnterDisconnected();
      }
      return;
    case kNrOpDiscAck:
      if (state_ == State::kDisconnecting) {
        EnterDisconnected();
      }
      return;
    default:
      return;
  }
}

void NetRomCircuit::OnTimeout() {
  ++retries_;
  if (retries_ > transport_->config().max_retries) {
    UPR_WARN(kTag, "circuit to %s: retry limit exceeded",
             remote_node_.ToString().c_str());
    EnterDisconnected();
    return;
  }
  switch (state_) {
    case State::kConnecting:
      SendConnRequest();
      break;
    case State::kConnected:
      for (std::uint8_t i = 0; i < OutstandingCount(vs_, va_); ++i) {
        TransmitInfo(Mod256(va_ + i), true);
      }
      timer_.Restart(transport_->config().retransmit_timeout);
      break;
    case State::kDisconnecting:
      SendControl(kNrOpDiscReq);
      timer_.Restart(transport_->config().retransmit_timeout);
      break;
    case State::kDisconnected:
      break;
  }
}

void NetRomCircuit::EnterDisconnected() {
  state_ = State::kDisconnected;
  timer_.Stop();
  send_queue_.clear();
  outstanding_.clear();
  if (on_disconnected_) {
    on_disconnected_();
  }
}

}  // namespace upr
