#include "src/net/netstack.h"

#include <algorithm>
#include <tuple>

#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "ip";

void TraceIpDrop(const Ipv4Header& header, ByteView datagram, NetInterface* in,
                 const char* why) {
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kIp, trace::Kind::kIpDrop, trace::Dir::kRx,
              in != nullptr ? in->name() : std::string(), datagram,
              std::string(why) + " " + header.source.ToString() + ">" +
                  header.destination.ToString());
  }
}

}  // namespace

void NetInterface::Configure(IpV4Address address, int prefix_len) {
  address_ = address;
  prefix_ = IpV4Prefix::FromCidr(address, prefix_len);
  if (stack_ != nullptr) {
    stack_->routes().AddDirect(prefix_, this);
  }
}

void NetInterface::DeliverToStack(PacketBuf&& ip_datagram) {
  if (stack_ != nullptr) {
    stack_->EnqueueFromDriver(std::move(ip_datagram), this);
  }
}

NetStack::NetStack(Simulator* sim, std::string hostname)
    : sim_(sim), hostname_(std::move(hostname)) {
  icmp_ = std::make_unique<Icmp>(this);
  RegisterProtocol(kIpProtoIcmp,
                   [this](const Ipv4Header& h, ByteView p, NetInterface* in) {
                     icmp_->HandleInput(h, p, in);
                   });
}

NetStack::~NetStack() = default;

NetInterface* NetStack::AddInterface(std::unique_ptr<NetInterface> interface) {
  interface->stack_ = this;
  NetInterface* raw = interface.get();
  interfaces_.push_back(std::move(interface));
  if (!raw->address().IsAny()) {
    routes_.AddDirect(raw->prefix(), raw);
  }
  return raw;
}

NetInterface* NetStack::FindInterface(const std::string& name) const {
  for (const auto& i : interfaces_) {
    if (i->name() == name) {
      return i.get();
    }
  }
  return nullptr;
}

void NetStack::RegisterProtocol(std::uint8_t protocol, ProtocolHandler handler) {
  protocols_[protocol] = std::move(handler);
}

bool NetStack::IsLocalAddress(IpV4Address a) const {
  for (const auto& i : interfaces_) {
    if (i->address() == a) {
      return true;
    }
  }
  return false;
}

bool NetStack::IsBroadcastAddress(IpV4Address a) const {
  if (a.IsLimitedBroadcast()) {
    return true;
  }
  for (const auto& i : interfaces_) {
    if (i->prefix().mask != 0 &&
        a.value() == (i->prefix().network.value() | ~i->prefix().mask)) {
      return true;
    }
  }
  return false;
}

bool NetStack::SendDatagram(IpV4Address dst, std::uint8_t protocol, PacketBuf&& payload,
                            const SendOptions& opts) {
  Ipv4Header header;
  header.protocol = protocol;
  header.destination = dst;
  header.ttl = opts.ttl;
  header.tos = opts.tos;
  header.dont_fragment = opts.dont_fragment;
  header.identification = next_ip_id_++;

  // Local destination (including our own addresses): loop through input.
  if (IsLocalAddress(dst)) {
    header.source = opts.source.IsAny() ? dst : opts.source;
    ++ip_stats_.sent;
    header.EncodeTo(&payload);
    EnqueueFromDriver(std::move(payload), nullptr);
    return true;
  }

  const Route* route = routes_.Lookup(dst);
  if (route == nullptr || route->interface == nullptr) {
    ++ip_stats_.no_route;
    UPR_DEBUG(kTag, "%s: no route to %s", hostname_.c_str(), dst.ToString().c_str());
    return false;
  }
  NetInterface* out = route->interface;
  header.source = opts.source.IsAny() ? out->address() : opts.source;
  IpV4Address next_hop = route->gateway.value_or(dst);
  if (IsBroadcastAddress(dst)) {
    next_hop = IpV4Address::LimitedBroadcast();
  }
  ++ip_stats_.sent;
  header.EncodeTo(&payload);
  return TransmitVia(header, std::move(payload), out, next_hop);
}

bool NetStack::TransmitVia(const Ipv4Header& header, PacketBuf&& datagram,
                           NetInterface* out, IpV4Address next_hop) {
  std::size_t hlen = header.HeaderLength();
  if (datagram.size() <= out->mtu()) {
    out->Output(std::move(datagram), next_hop);
    return true;
  }
  ByteView payload = datagram.view().subspan(hlen);
  if (header.dont_fragment) {
    ++ip_stats_.cant_fragment;
    icmp_->SendUnreachable(header, payload, kUnreachFragNeeded);
    return false;
  }
  // Fragment: payload chunks must be multiples of 8 bytes except the last.
  std::size_t max_data = (out->mtu() - hlen) / 8 * 8;
  if (max_data == 0) {
    ++ip_stats_.cant_fragment;
    return false;
  }
  for (std::size_t off = 0; off < payload.size(); off += max_data) {
    std::size_t n = std::min(max_data, payload.size() - off);
    Ipv4Header fh = header;
    fh.fragment_offset = static_cast<std::uint16_t>(
        header.fragment_offset + off / 8);
    bool last_piece = off + n >= payload.size();
    fh.more_fragments = header.more_fragments || !last_piece;
    PacketBuf frag;
    {
      BufLayerScope scope(BufLayer::kIp);
      frag = PacketBuf::FromView(payload.subspan(off, n),
                                 PacketBuf::kDefaultHeadroom);
    }
    fh.EncodeTo(&frag);
    ++ip_stats_.fragments_created;
    out->Output(std::move(frag), next_hop);
  }
  return true;
}

void NetStack::EnqueueFromDriver(PacketBuf ip_datagram, NetInterface* in) {
  if (input_queue_.size() >= input_queue_limit_) {
    ++ip_stats_.input_drops;
    return;
  }
  input_queue_.push_back(QueuedInput{std::move(ip_datagram), in});
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    sim_->Schedule(0, [this] { DrainInputQueue(); });
  }
}

void NetStack::DrainInputQueue() {
  drain_scheduled_ = false;
  while (!input_queue_.empty()) {
    QueuedInput q = std::move(input_queue_.front());
    input_queue_.pop_front();
    ProcessDatagram(std::move(q.datagram), q.in);
  }
}

void NetStack::ProcessDatagram(PacketBuf&& datagram, NetInterface* in) {
  auto parsed = Ipv4Header::DecodeView(datagram.view());
  if (!parsed) {
    ++ip_stats_.header_errors;
    if (in != nullptr) {
      ++in->stats().ierrors;
    }
    return;
  }
  const Ipv4Header& header = parsed->header;
  if (in != nullptr) {
    ++in->stats().ipackets;
    in->stats().ibytes += datagram.size();
  }
  if (IsLocalAddress(header.destination) || IsBroadcastAddress(header.destination)) {
    if (header.more_fragments || header.fragment_offset != 0) {
      HandleFragment(header, parsed->payload, in);
    } else {
      DeliverLocal(header, parsed->payload, in);
    }
    return;
  }
  if (!forwarding_) {
    ++ip_stats_.no_route;
    return;
  }
  Forward(header, parsed->payload, std::move(datagram), in);
}

void NetStack::DeliverLocal(const Ipv4Header& header, ByteView payload,
                            NetInterface* in) {
  auto it = protocols_.find(header.protocol);
  if (it == protocols_.end()) {
    ++ip_stats_.no_protocol;
    icmp_->SendUnreachable(header, payload, kUnreachProtocol);
    return;
  }
  ++ip_stats_.delivered;
  it->second(header, payload, in);
}

void NetStack::Forward(const Ipv4Header& header, ByteView payload, PacketBuf&& datagram,
                       NetInterface* in) {
  if (header.ttl <= 1) {
    ++ip_stats_.ttl_expired;
    TraceIpDrop(header, datagram.view(), in, "ttl-expired");
    icmp_->SendTimeExceeded(header, payload);
    return;
  }
  const Route* route = routes_.Lookup(header.destination);
  if (route == nullptr || route->interface == nullptr) {
    ++ip_stats_.no_route;
    TraceIpDrop(header, datagram.view(), in, "no-route");
    icmp_->SendUnreachable(header, payload, kUnreachNet);
    return;
  }
  NetInterface* out = route->interface;
  if (forward_filter_ && !forward_filter_(header, payload, in, out)) {
    ++ip_stats_.filtered;
    TraceIpDrop(header, datagram.view(), in, "forward-filter");
    return;
  }
  Ipv4Header fwd = header;
  fwd.ttl = static_cast<std::uint8_t>(header.ttl - 1);
  IpV4Address next_hop = route->gateway.value_or(header.destination);
  // Hairpin: the packet leaves the way it came and a better first hop exists
  // on the sender's own network — tell the sender (ICMP redirect, §4.2's
  // missing mechanism). The packet is still forwarded, as in 4.3BSD.
  if (send_redirects_ && out == in && in != nullptr && route->gateway.has_value() &&
      in->prefix().Contains(header.source) && in->prefix().Contains(*route->gateway)) {
    icmp_->SendRedirect(header, payload, *route->gateway);
  }
  ++ip_stats_.forwarded;
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kIp, trace::Kind::kIpForward, trace::Dir::kNone,
              out->name(), datagram.view(),
              header.source.ToString() + ">" + header.destination.ToString() +
                  " ttl=" + std::to_string(fwd.ttl) +
                  (in != nullptr ? " in=" + in->name() : std::string()));
  }
  // The fast path of the refactor: no re-encode — patch TTL and checksum in
  // the buffer that arrived and move it straight to the output interface.
  Ipv4Header::DecrementTtlInPlace(datagram.data());
  TransmitVia(fwd, std::move(datagram), out, next_hop);
}

void NetStack::HandleFragment(const Ipv4Header& header, ByteView payload,
                              NetInterface* in) {
  ++ip_stats_.fragments_received;
  CleanReassembly();
  ReassemblyKey key{header.source.value(), header.destination.value(),
                    header.identification, header.protocol};
  ReassemblyBuffer& buf = reassembly_[key];
  if (buf.deadline == 0) {
    buf.deadline = sim_->Now() + reassembly_timeout_;
  }
  std::uint16_t byte_off = static_cast<std::uint16_t>(header.fragment_offset * 8);
  {
    BufLayerScope scope(BufLayer::kIp);
    if (!payload.empty()) {
      BufNoteAlloc();
      BufNoteCopy(payload.size());
    }
  }
  buf.fragments.push_back(
      ReassemblyBuffer::Fragment{byte_off, Bytes(payload.begin(), payload.end())});
  if (header.fragment_offset == 0) {
    buf.first_header = header;
    buf.have_first = true;
  }
  if (!header.more_fragments) {
    buf.total_len = byte_off + payload.size();
  }
  if (buf.total_len == 0 || !buf.have_first) {
    return;
  }
  // Try to assemble: coverage must be contiguous from 0 to total_len.
  std::sort(buf.fragments.begin(), buf.fragments.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  Bytes assembled;
  std::size_t next = 0;
  for (const auto& f : buf.fragments) {
    if (f.offset > next) {
      return;  // hole remains
    }
    if (f.offset + f.data.size() <= next) {
      continue;  // fully overlapped
    }
    std::size_t skip = next - f.offset;
    assembled.insert(assembled.end(), f.data.begin() + static_cast<std::ptrdiff_t>(skip),
                     f.data.end());
    next = f.offset + f.data.size();
    if (next >= buf.total_len) {
      break;
    }
  }
  if (next < buf.total_len) {
    return;
  }
  assembled.resize(buf.total_len);
  Ipv4Header whole = buf.first_header;
  whole.more_fragments = false;
  whole.fragment_offset = 0;
  ++ip_stats_.reassembled;
  reassembly_.erase(key);
  DeliverLocal(whole, assembled, in);
}

void NetStack::CleanReassembly() {
  SimTime now = sim_->Now();
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    if (it->second.deadline <= now) {
      ++ip_stats_.reassembly_failures;
      it = reassembly_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace upr
