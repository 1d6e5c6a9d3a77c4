#include "src/scenario/testbed.h"

namespace upr {

RadioFrontEnd AttachRadio(Simulator* sim, RadioChannel* channel, NetStack* stack,
                          const std::string& name, const Ax25Address& callsign,
                          SerialLineConfig serial, std::uint32_t baud, TncConfig tnc,
                          PacketRadioConfig driver, std::uint64_t tnc_seed,
                          bool name_line_ends) {
  RadioFrontEnd radio;
  serial.baud_rate = baud;
  radio.serial = std::make_unique<SerialLine>(sim, serial);
  if (name_line_ends) {
    radio.serial->a().set_name(name + " dz0");
    radio.serial->b().set_name(name + " tnc");
  }
  if (tnc.local_addresses.empty()) {
    tnc.local_addresses.push_back(callsign);
  }
  radio.tnc = std::make_unique<KissTnc>(sim, channel, &radio.serial->b(), name, tnc, tnc_seed);
  driver.local_address = callsign;
  radio.driver = static_cast<PacketRadioInterface*>(stack->AddInterface(
      std::make_unique<PacketRadioInterface>(sim, &radio.serial->a(), "pr0", driver)));
  return radio;
}

RadioStation::RadioStation(Simulator* sim, RadioChannel* channel,
                           RadioStationConfig config)
    : config_(std::move(config)) {
  stack_ = std::make_unique<NetStack>(sim, config_.hostname);
  radio_ = AttachRadio(sim, channel, stack_.get(), config_.hostname, config_.callsign,
                       config_.serial, config_.serial_baud, config_.tnc, config_.driver,
                       config_.seed * 1000 + 1, true);
  radio_.driver->Configure(config_.ip, config_.prefix_len);
  tcp_ = std::make_unique<Tcp>(stack_.get(), config_.tcp, config_.seed * 1000 + 2);
  udp_ = std::make_unique<Udp>(stack_.get());
}

EtherHost::EtherHost(Simulator* sim, EtherSegment* segment, EtherHostConfig config)
    : config_(std::move(config)) {
  stack_ = std::make_unique<NetStack>(sim, config_.hostname);
  auto ether_if = std::make_unique<EthernetInterface>(
      segment, "qe0", EtherAddr::FromIndex(config_.mac_index));
  ether_if->Configure(config_.ip, config_.prefix_len);
  ether_if_ =
      static_cast<EthernetInterface*>(stack_->AddInterface(std::move(ether_if)));
  tcp_ = std::make_unique<Tcp>(stack_.get(), config_.tcp, config_.seed * 1000 + 3);
  udp_ = std::make_unique<Udp>(stack_.get());
}

GatewayHost::GatewayHost(Simulator* sim, RadioChannel* channel, EtherSegment* segment,
                         GatewayHostConfig config)
    : config_(std::move(config)) {
  stack_ = std::make_unique<NetStack>(sim, config_.hostname);
  radio_ = AttachRadio(sim, channel, stack_.get(), config_.hostname, config_.callsign,
                       config_.serial, config_.serial_baud, config_.tnc, config_.driver,
                       config_.seed * 1000 + 4, true);
  radio_.driver->Configure(config_.radio_ip, config_.radio_prefix_len);
  auto ether_if = std::make_unique<EthernetInterface>(
      segment, "qe0", EtherAddr::FromIndex(config_.mac_index));
  ether_if->Configure(config_.ether_ip, config_.ether_prefix_len);
  ether_if_ =
      static_cast<EthernetInterface*>(stack_->AddInterface(std::move(ether_if)));
  gateway_ = std::make_unique<PacketRadioGateway>(stack_.get(), radio_.driver,
                                                  config_.gateway);
  tcp_ = std::make_unique<Tcp>(stack_.get(), config_.tcp, config_.seed * 1000 + 5);
  udp_ = std::make_unique<Udp>(stack_.get());
}

Ax25Address Testbed::PcCallsign(std::size_t i) {
  // KD7xx series for the PCs, SSID distinguishing beyond 26.
  std::string call = "KD7";
  call.push_back(static_cast<char>('A' + i % 26));
  call.push_back(static_cast<char>('A' + (i / 26) % 26));
  return Ax25Address(call, 0);
}

Ax25Address Testbed::DigiCallsign(std::size_t i) {
  std::string call = "WB7R";
  call.push_back(static_cast<char>('A' + i % 26));
  return Ax25Address(call, static_cast<std::uint8_t>(i / 26));
}

Testbed::Testbed(TestbedConfig config) : config_(config) {
  RadioChannelConfig rc;
  rc.bit_rate = config_.radio_bit_rate;
  rc.loss_rate = config_.radio_loss_rate;
  rc.bit_error_rate = config_.radio_bit_error_rate;
  channel_ = std::make_unique<RadioChannel>(&sim_, rc, config_.seed);
  ether_ = std::make_unique<EtherSegment>(&sim_);

  GatewayHostConfig gw;
  gw.callsign = GatewayCallsign();
  gw.radio_ip = GatewayRadioIp();
  gw.ether_ip = GatewayEtherIp();
  gw.serial_baud = config_.serial_baud;
  gw.serial = config_.serial;
  gw.tnc.address_filter = config_.tnc_address_filter;
  gw.tnc.mac = config_.mac;
  gw.tcp = config_.tcp;
  gw.gateway.enforce_access_control = config_.enforce_access_control;
  gw.seed = config_.seed + 7;
  gateway_ = std::make_unique<GatewayHost>(&sim_, channel_.get(), ether_.get(), gw);

  for (std::size_t i = 0; i < config_.radio_pcs; ++i) {
    RadioStationConfig pc;
    pc.hostname = "pc" + std::to_string(i);
    pc.callsign = PcCallsign(i);
    pc.ip = RadioPcIp(i);
    pc.serial_baud = config_.serial_baud;
    pc.serial = config_.serial;
    pc.tnc.address_filter = config_.tnc_address_filter;
    pc.tnc.mac = config_.mac;
    pc.tcp = config_.tcp;
    pc.seed = config_.seed + 100 + i;
    pcs_.push_back(std::make_unique<RadioStation>(&sim_, channel_.get(), pc));
    // Default route toward the rest of the world via the gateway.
    pcs_.back()->stack().routes().AddDefault(GatewayRadioIp(),
                                             pcs_.back()->radio_if());
  }
  for (std::size_t i = 0; i < config_.ether_hosts; ++i) {
    EtherHostConfig h;
    h.hostname = "vax" + std::to_string(i);
    h.ip = EtherHostIp(i);
    h.mac_index = static_cast<std::uint32_t>(i + 1);
    h.tcp = config_.tcp;
    h.seed = config_.seed + 200 + i;
    hosts_.push_back(std::make_unique<EtherHost>(&sim_, ether_.get(), h));
    // §2.3: "The routing table of another system on our Ethernet was modified
    // so it knew that [the MicroVAX] was the address of a gateway to net 44."
    hosts_.back()->stack().routes().AddVia(
        IpV4Prefix::FromCidr(IpV4Address(44, 0, 0, 0), 8), GatewayEtherIp(),
        hosts_.back()->ether_if());
  }
  for (std::size_t i = 0; i < config_.digipeaters; ++i) {
    digis_.push_back(std::make_unique<Digipeater>(&sim_, channel_.get(),
                                                  DigiCallsign(i), config_.mac,
                                                  config_.seed + 300 + i));
  }
}

void Testbed::PopulateRadioArp() {
  // Gateway knows every PC; every PC knows the gateway and its peers.
  for (std::size_t i = 0; i < pcs_.size(); ++i) {
    gateway_->radio_if()->AddArpEntry(RadioPcIp(i), PcCallsign(i));
    pcs_[i]->radio_if()->AddArpEntry(GatewayRadioIp(), GatewayCallsign());
    for (std::size_t j = 0; j < pcs_.size(); ++j) {
      if (i != j) {
        pcs_[i]->radio_if()->AddArpEntry(RadioPcIp(j), PcCallsign(j));
      }
    }
  }
}

void Testbed::SetDigiPath(std::size_t pc_index, IpV4Address peer,
                          const std::vector<Ax25Address>& digis) {
  // Find the peer's callsign from the addressing plan.
  Ax25Address peer_call;
  if (peer == GatewayRadioIp()) {
    peer_call = GatewayCallsign();
  } else {
    for (std::size_t i = 0; i < pcs_.size(); ++i) {
      if (RadioPcIp(i) == peer) {
        peer_call = PcCallsign(i);
        break;
      }
    }
  }
  pcs_[pc_index]->radio_if()->AddArpEntry(peer, peer_call, digis);
}

}  // namespace upr
