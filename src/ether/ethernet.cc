#include "src/ether/ethernet.h"

#include <algorithm>

#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace upr {

EtherSegment::EtherSegment(Simulator* sim, std::uint64_t bit_rate)
    : sim_(sim), bit_rate_(bit_rate) {}

void EtherSegment::Attach(EthernetInterface* interface) {
  stations_.push_back(interface);
}

void EtherSegment::Transmit(EthernetInterface* from, Bytes frame) {
  // Serialize on the medium: transmissions queue behind the wire.
  SimTime start = std::max(busy_until_, sim_->Now());
  SimTime end = start + TransmitTime(frame.size(), bit_rate_);
  busy_until_ = end;
  ++frames_carried_;
  sim_->ScheduleAt(end, [this, from, frame = std::move(frame)] {
    for (EthernetInterface* station : stations_) {
      if (station != from) {
        station->ReceiveFrame(frame);
      }
    }
  });
}

EthernetInterface::EthernetInterface(EtherSegment* segment, std::string name,
                                     EtherAddr mac)
    : NetInterface(std::move(name), kEtherMtu), segment_(segment), mac_(mac) {
  ArpConfig config;
  config.hardware_type = kArpHtypeEthernet;
  config.broadcast_hw = EtherAddr::Broadcast();
  config.retry_interval = Seconds(1);  // LAN-speed retries
  arp_ = std::make_unique<ArpResolver>(
      segment->sim(), config, [this] { return address(); }, HwAddress(mac_),
      /*transmit_arp=*/
      [this](const Bytes& arp_packet, const std::optional<HwAddress>& dst) {
        EtherAddr to = dst ? std::get<EtherAddr>(*dst) : EtherAddr::Broadcast();
        PacketBuf pb;
        {
          BufLayerScope scope(BufLayer::kEther);
          pb = PacketBuf::FromView(arp_packet, PacketBuf::kDefaultHeadroom);
        }
        TransmitFrame(kEtherTypeArp, to, std::move(pb));
      },
      /*send_resolved=*/
      [this](PacketBuf&& ip_datagram, const HwAddress& dst) {
        TransmitFrame(kEtherTypeIp, std::get<EtherAddr>(dst), std::move(ip_datagram));
      });
  segment->Attach(this);
}

void EthernetInterface::Output(PacketBuf&& ip_datagram, IpV4Address next_hop) {
  if (!up_) {
    ++stats_.oerrors;
    return;
  }
  ++stats_.opackets;
  stats_.obytes += ip_datagram.size();
  arp_->Send(std::move(ip_datagram), next_hop);
}

void EthernetInterface::TransmitFrame(std::uint16_t ethertype, const EtherAddr& dst,
                                      PacketBuf&& payload) {
  std::uint8_t* h;
  {
    BufLayerScope scope(BufLayer::kEther);
    h = payload.Prepend(kEtherHeaderBytes);
  }
  std::copy(dst.octets.begin(), dst.octets.end(), h);
  std::copy(mac_.octets.begin(), mac_.octets.end(), h + 6);
  h[12] = static_cast<std::uint8_t>(ethertype >> 8);
  h[13] = static_cast<std::uint8_t>(ethertype & 0xFF);
  if (auto* t = trace::Active()) {
    t->RecordEtherFrame(trace::Kind::kEtherFrameOut, trace::Dir::kTx, name(),
                        payload.view());
  }
  segment_->Transmit(this, payload.Release());
}

void EthernetInterface::ReceiveFrame(const Bytes& frame) {
  if (!up_ || frame.size() < kEtherHeaderBytes) {
    return;
  }
  EtherAddr dst;
  std::copy(frame.begin(), frame.begin() + 6, dst.octets.begin());
  if (dst != mac_ && !dst.IsBroadcast()) {
    return;  // hardware address filter
  }
  if (auto* t = trace::Active()) {
    t->RecordEtherFrame(trace::Kind::kEtherFrameIn, trace::Dir::kRx, name(),
                        frame);
  }
  std::uint16_t ethertype = static_cast<std::uint16_t>(frame[12] << 8 | frame[13]);
  ByteView payload(frame.data() + kEtherHeaderBytes, frame.size() - kEtherHeaderBytes);
  if (ethertype == kEtherTypeIp) {
    // The one receive-side copy: into an owned, headroom-carrying PacketBuf.
    PacketBuf pb;
    {
      BufLayerScope scope(BufLayer::kEther);
      pb = PacketBuf::FromView(payload, PacketBuf::kDefaultHeadroom);
    }
    DeliverToStack(std::move(pb));
  } else if (ethertype == kEtherTypeArp) {
    arp_->HandleArpPacket(payload);
  }
}

}  // namespace upr
