#include "src/driver/packet_radio_interface.h"

#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "prdrv";
}  // namespace

PacketRadioInterface::PacketRadioInterface(Simulator* sim, SerialEndpoint* serial,
                                           std::string name, PacketRadioConfig config)
    : NetInterface(std::move(name), config.mtu),
      sim_(sim),
      serial_(serial),
      config_(std::move(config)),
      decoder_([this](std::uint8_t port, KissCommand command, ByteView payload) {
        OnKissFrame(port, command, payload);
      }) {
  ArpConfig arp_config;
  arp_config.hardware_type = kArpHtypeAx25;
  arp_config.broadcast_hw = Ax25HwAddr{Ax25Address::Broadcast(), {}};
  // The radio subnet is slow: space retries out accordingly.
  arp_config.retry_interval = Seconds(15);
  arp_config.max_retries = 4;
  arp_ = std::make_unique<ArpResolver>(
      sim_, arp_config, [this] { return address(); },
      HwAddress(Ax25HwAddr{config_.local_address, {}}),
      /*transmit_arp=*/
      [this](const Bytes& arp_packet, const std::optional<HwAddress>& dst) {
        Ax25HwAddr to = dst ? std::get<Ax25HwAddr>(*dst)
                            : Ax25HwAddr{Ax25Address::Broadcast(), {}};
        PacketBuf pb;
        {
          BufLayerScope scope(BufLayer::kDriver);
          pb = PacketBuf::FromView(arp_packet, PacketBuf::kDefaultHeadroom);
        }
        TransmitUi(kPidArp, std::move(pb), to);
      },
      /*send_resolved=*/
      [this](PacketBuf&& ip_datagram, const HwAddress& dst) {
        TransmitUi(kPidIp, std::move(ip_datagram), std::get<Ax25HwAddr>(dst));
      });
  serial_->set_receive_chunk_handler(
      [this](const std::uint8_t* data, std::size_t len) { OnSerialChunk(data, len); });
}

void PacketRadioInterface::Output(PacketBuf&& ip_datagram, IpV4Address next_hop) {
  if (!up_) {
    ++stats_.oerrors;
    return;
  }
  ++stats_.opackets;
  stats_.obytes += ip_datagram.size();
  arp_->Send(std::move(ip_datagram), next_hop);
}

void PacketRadioInterface::AddArpEntry(IpV4Address ip, const Ax25Address& station,
                                       std::vector<Ax25Address> digipeaters) {
  arp_->AddStatic(ip, Ax25HwAddr{station, std::move(digipeaters)});
}

void PacketRadioInterface::TransmitUi(std::uint8_t pid, PacketBuf&& payload,
                                      const Ax25HwAddr& dst) {
  std::vector<Ax25Digipeater> digis;
  digis.reserve(dst.digipeaters.size());
  for (const auto& d : dst.digipeaters) {
    digis.push_back(Ax25Digipeater{d, false});
  }
  // The frame carries no owned info: the payload stays in the PacketBuf and
  // the address block + control + PID are prepended into its headroom.
  Ax25Frame frame = Ax25Frame::MakeUi(dst.station, config_.local_address, pid, {},
                                      std::move(digis));
  frame.EncodeTo(&payload);
  WriteKiss(payload.view());
}

void PacketRadioInterface::SendRawFrame(const Ax25Frame& frame) {
  WriteKiss(frame.Encode());
}

void PacketRadioInterface::WriteKiss(ByteView ax25_wire) {
  trace::IfScope tscope(serial_->name(), trace::Dir::kTx);
  if (serial_->backlog() > config_.max_serial_backlog) {
    ++dstats_.output_drops;
    ++stats_.odrops;
    if (auto* t = trace::Active()) {
      t->Record(trace::Layer::kDriver, trace::Kind::kDriverDrop,
                trace::Dir::kTx, serial_->name(), ax25_wire,
                "serial-backlog=" + std::to_string(serial_->backlog()));
    }
    return;
  }
  Bytes wire;
  KissEncodeInto(ax25_wire, &wire);
  serial_->Write(wire);
}

DriverStats PacketRadioInterface::driver_stats() const {
  // One receive interrupt per serial delivery event: per character in the
  // paper's §2.2 discipline, per silo-full under the DH-style batching.
  DriverStats d = dstats_;
  d.interrupts = serial_->deliveries();
  d.chars_in = serial_->bytes_received();
  d.interrupt_cpu_time = static_cast<SimTime>(d.interrupts) * config_.per_interrupt_cost;
  return d;
}

void PacketRadioInterface::OnSerialChunk(const std::uint8_t* data, std::size_t len) {
  trace::IfScope tscope(serial_->name(), trace::Dir::kRx);
  decoder_.Feed(data, len);
}

void PacketRadioInterface::OnKissFrame(std::uint8_t port, KissCommand command,
                                       ByteView payload) {
  (void)port;
  if (command != KissCommand::kData) {
    return;  // TNC-to-host command frames do not exist in plain KISS
  }
  ++dstats_.frames_in;
  // Parse over the decoder's buffer in place; nothing is copied until the
  // frame is known to be for us.
  auto decoded = Ax25Frame::DecodeView(payload);
  if (!decoded) {
    ++dstats_.decode_errors;
    ++stats_.ierrors;
    return;
  }
  Ax25Frame& frame = decoded->frame;
  // Frames still being source-routed through digipeaters are not for final
  // recipients yet.
  if (!frame.DigipeatingComplete()) {
    ++dstats_.frames_in_transit;
    return;
  }
  // The paper's address check: ours or broadcast. (The stock TNC passes every
  // frame up, so this runs once per heard packet — the §3 load problem.)
  bool for_us = frame.destination == config_.local_address ||
                frame.destination.IsBroadcast();
  if (!for_us) {
    for (const auto& alias : config_.broadcast_aliases) {
      if (frame.destination == alias) {
        for_us = true;
        break;
      }
    }
  }
  if (!for_us) {
    ++dstats_.frames_not_for_us;
    return;
  }
  if (frame.type == Ax25FrameType::kUi && frame.pid == kPidIp) {
    ++dstats_.ip_in;
    // The one receive-side copy: out of the decoder's frame buffer into an
    // owned PacketBuf that rides the input queue. Headroom is reserved so a
    // gateway can forward it with in-place prepends.
    PacketBuf pb;
    {
      BufLayerScope scope(BufLayer::kDriver);
      pb = PacketBuf::FromView(decoded->info, PacketBuf::kDefaultHeadroom);
    }
    DeliverToStack(std::move(pb));
    return;
  }
  if (frame.type == Ax25FrameType::kUi && frame.pid == kPidArp) {
    ++dstats_.arp_in;
    arp_->HandleArpPacket(decoded->info);
    return;
  }
  // Non-IP: place on the tty input queue for user-level AX.25 (§2.4). These
  // leave the datapath, so the frame takes ownership of its info here.
  ++dstats_.l3_in;
  {
    BufLayerScope scope(BufLayer::kDriver);
    if (!decoded->info.empty()) {
      BufNoteAlloc();
      BufNoteCopy(decoded->info.size());
    }
  }
  frame.info.assign(decoded->info.begin(), decoded->info.end());
  if (l3_tap_) {
    l3_tap_(frame, payload);
    return;
  }
  if (l3_queue_.size() >= config_.l3_queue_limit) {
    l3_queue_.pop_front();
    ++dstats_.l3_drops;
  }
  l3_queue_.push_back(std::move(frame));
}

std::optional<Ax25Frame> PacketRadioInterface::ReadL3Frame() {
  if (l3_queue_.empty()) {
    return std::nullopt;
  }
  Ax25Frame f = std::move(l3_queue_.front());
  l3_queue_.pop_front();
  return f;
}

}  // namespace upr
