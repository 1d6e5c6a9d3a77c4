#include "src/net/icmp.h"

#include <algorithm>

#include "src/net/netstack.h"
#include "src/util/crc.h"
#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "icmp";

// Encodes `msg` into a headroom-reserved buffer (the IP-layer copy every ICMP
// message pays) and sends it.
bool SendMessage(NetStack* stack, IpV4Address dst, const IcmpMessage& msg,
                 const NetStack::SendOptions& opts = {}) {
  PacketBuf pb;
  {
    BufLayerScope scope(BufLayer::kIp);
    pb = PacketBuf::FromView(msg.Encode());
  }
  return stack->SendDatagram(dst, kIpProtoIcmp, std::move(pb), opts);
}

}  // namespace

Bytes IcmpMessage::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.WriteU8(type);
  w.WriteU8(code);
  w.WriteU16(0);  // checksum placeholder
  w.WriteBytes(body);
  std::uint16_t sum = InternetChecksum(out);
  out[2] = static_cast<std::uint8_t>(sum >> 8);
  out[3] = static_cast<std::uint8_t>(sum & 0xFF);
  return out;
}

std::optional<IcmpMessage> IcmpMessage::Decode(ByteView wire) {
  if (wire.size() < 4 || InternetChecksum(wire.data(), wire.size()) != 0) {
    return std::nullopt;
  }
  IcmpMessage m;
  m.type = wire[0];
  m.code = wire[1];
  m.body.assign(wire.begin() + 4, wire.end());
  return m;
}

Bytes GatewayControlBody::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.WriteU32(amateur_host.value());
  w.WriteU32(non_amateur_host.value());
  w.WriteU32(ttl_seconds);
  w.WriteU8(static_cast<std::uint8_t>(callsign.size()));
  w.WriteBytes(BytesFromString(callsign));
  w.WriteU8(static_cast<std::uint8_t>(password.size()));
  w.WriteBytes(BytesFromString(password));
  return out;
}

std::optional<GatewayControlBody> GatewayControlBody::Decode(const Bytes& body) {
  ByteReader r(body);
  GatewayControlBody g;
  g.amateur_host = IpV4Address(r.ReadU32());
  g.non_amateur_host = IpV4Address(r.ReadU32());
  g.ttl_seconds = r.ReadU32();
  std::uint8_t clen = r.ReadU8();
  Bytes call = r.ReadBytes(clen);
  std::uint8_t plen = r.ReadU8();
  Bytes pass = r.ReadBytes(plen);
  if (!r.ok()) {
    return std::nullopt;
  }
  g.callsign.assign(call.begin(), call.end());
  g.password.assign(pass.begin(), pass.end());
  return g;
}

Icmp::Icmp(NetStack* stack) : stack_(stack) {}

void Icmp::HandleInput(const Ipv4Header& ip, ByteView payload, NetInterface* in) {
  auto msg = IcmpMessage::Decode(payload);
  if (!msg) {
    return;
  }
  switch (msg->type) {
    case kIcmpEchoRequest: {
      ++echoes_answered_;
      IcmpMessage reply;
      reply.type = kIcmpEchoReply;
      reply.code = 0;
      reply.body = msg->body;
      NetStack::SendOptions opts;
      opts.source = ip.destination;  // answer from the address they asked
      if (stack_->IsBroadcastAddress(ip.destination)) {
        opts.source = IpV4Address();  // let routing pick
      }
      SendMessage(stack_, ip.source, reply, opts);
      return;
    }
    case kIcmpEchoReply: {
      ByteReader r(msg->body);
      std::uint16_t id = r.ReadU16();
      r.ReadU16();  // sequence
      auto it = pending_pings_.find(id);
      if (it != pending_pings_.end()) {
        PendingPing ping = std::move(it->second);
        pending_pings_.erase(it);
        stack_->sim()->Cancel(ping.timeout_event);
        ping.callback(true, stack_->sim()->Now() - ping.sent_at);
      }
      return;
    }
    case kIcmpUnreachable:
    case kIcmpTimeExceeded:
      if (on_error_) {
        on_error_(ip, *msg);
      }
      return;
    case kIcmpRedirect:
      HandleRedirect(ip, *msg, in);
      return;
    default: {
      auto it = type_handlers_.find(msg->type);
      if (it != type_handlers_.end()) {
        it->second(ip, *msg, in);
      }
      return;
    }
  }
}

std::uint16_t Icmp::Ping(IpV4Address dst, std::size_t payload_len, PingCallback callback,
                         SimTime timeout) {
  std::uint16_t id = next_echo_id_++;
  IcmpMessage msg;
  msg.type = kIcmpEchoRequest;
  msg.code = 0;
  ByteWriter w(&msg.body);
  w.WriteU16(id);
  w.WriteU16(1);  // sequence
  for (std::size_t i = 0; i < payload_len; ++i) {
    w.WriteU8(static_cast<std::uint8_t>(i));
  }
  PendingPing ping;
  ping.callback = std::move(callback);
  ping.sent_at = stack_->sim()->Now();
  ping.timeout_event = stack_->sim()->Schedule(timeout, [this, id] {
    auto it = pending_pings_.find(id);
    if (it != pending_pings_.end()) {
      PendingPing p = std::move(it->second);
      pending_pings_.erase(it);
      p.callback(false, 0);
    }
  });
  pending_pings_[id] = std::move(ping);
  if (!SendMessage(stack_, dst, msg)) {
    auto it = pending_pings_.find(id);
    if (it != pending_pings_.end()) {
      PendingPing p = std::move(it->second);
      stack_->sim()->Cancel(p.timeout_event);
      pending_pings_.erase(it);
      p.callback(false, 0);
    }
  }
  return id;
}

void Icmp::SendError(const Ipv4Header& orig, ByteView orig_payload, std::uint8_t type,
                     std::uint8_t code) {
  // Never generate errors about ICMP errors or broadcasts.
  if (orig.protocol == kIpProtoIcmp) {
    auto inner = IcmpMessage::Decode(orig_payload);
    if (inner && inner->type != kIcmpEchoRequest && inner->type != kIcmpEchoReply) {
      return;
    }
  }
  if (stack_->IsBroadcastAddress(orig.destination) || orig.source.IsAny()) {
    return;
  }
  IcmpMessage msg;
  msg.type = type;
  msg.code = code;
  ByteWriter w(&msg.body);
  w.WriteU32(0);  // unused
  // Original header + first 8 payload bytes.
  Bytes orig_hdr = orig.Encode(Bytes(orig_payload.begin(),
                                     orig_payload.begin() + static_cast<std::ptrdiff_t>(
                                         std::min<std::size_t>(8, orig_payload.size()))));
  w.WriteBytes(orig_hdr);
  ++errors_sent_;
  SendMessage(stack_, orig.source, msg);
}

void Icmp::SendUnreachable(const Ipv4Header& orig, ByteView orig_payload,
                           std::uint8_t code) {
  SendError(orig, orig_payload, kIcmpUnreachable, code);
}

void Icmp::SendTimeExceeded(const Ipv4Header& orig, ByteView orig_payload) {
  SendError(orig, orig_payload, kIcmpTimeExceeded, 0);
}

void Icmp::SendRedirect(const Ipv4Header& orig, ByteView orig_payload,
                        IpV4Address better_gateway) {
  if (stack_->IsBroadcastAddress(orig.destination) || orig.source.IsAny()) {
    return;
  }
  IcmpMessage msg;
  msg.type = kIcmpRedirect;
  msg.code = kRedirectHost;
  ByteWriter w(&msg.body);
  w.WriteU32(better_gateway.value());
  Bytes orig_hdr = orig.Encode(Bytes(orig_payload.begin(),
                                     orig_payload.begin() + static_cast<std::ptrdiff_t>(
                                         std::min<std::size_t>(8, orig_payload.size()))));
  w.WriteBytes(orig_hdr);
  ++redirects_sent_;
  SendMessage(stack_, orig.source, msg);
}

void Icmp::HandleRedirect(const Ipv4Header& ip, const IcmpMessage& msg,
                          NetInterface* in) {
  if (!accept_redirects_ || stack_->forwarding()) {
    return;  // routers ignore redirects
  }
  ByteReader r(msg.body);
  IpV4Address better_gateway(r.ReadU32());
  Bytes inner = r.ReadRest();
  auto orig = Ipv4Header::Decode(inner);
  if (!r.ok() || !orig) {
    return;
  }
  IpV4Address dest = orig->header.destination;
  // Sanity per RFC 1122: the new gateway must be on a directly attached
  // network, and the redirect must come from our current first hop.
  const Route* current = stack_->routes().Lookup(dest);
  if (current == nullptr || current->interface == nullptr) {
    return;
  }
  IpV4Address current_hop = current->gateway.value_or(dest);
  if (current_hop != ip.source) {
    return;
  }
  if (!current->interface->prefix().Contains(better_gateway)) {
    return;
  }
  ++redirects_accepted_;
  stack_->routes().AddVia(IpV4Prefix::FromCidr(dest, 32), better_gateway,
                          current->interface);
}

void Icmp::SendGatewayControl(IpV4Address gateway, std::uint8_t code,
                              const GatewayControlBody& body) {
  IcmpMessage msg;
  msg.type = kIcmpGatewayControl;
  msg.code = code;
  msg.body = body.Encode();
  SendMessage(stack_, gateway, msg);
}

void Icmp::RegisterTypeHandler(std::uint8_t type, TypeHandler handler) {
  type_handlers_[type] = std::move(handler);
}

}  // namespace upr
