#include "src/scenario/vc_station.h"

namespace upr {

VcStation::VcStation(Simulator* sim, RadioChannel* channel, VcStationConfig config) {
  callsign_ = *Ax25Address::Parse(config.callsign);
  stack_ = std::make_unique<NetStack>(sim, config.name);
  TncConfig tnc_cfg;
  tnc_cfg.mac = config.mac;
  // The driver carries no IP address in VC mode; the VC interface is the IP
  // attachment point. The line's ends stay unnamed (the vc goldens pin that).
  radio_ = AttachRadio(sim, channel, stack_.get(), config.name, callsign_, SerialLineConfig{},
                       config.serial_baud, std::move(tnc_cfg), PacketRadioConfig{},
                       config.seed * 100 + 1, false);
  auto vc = std::make_unique<Ax25VcIpInterface>(sim, radio_.driver, "vc0", config.link);
  vc->Configure(config.ip, config.prefix_len);
  vc_ = static_cast<Ax25VcIpInterface*>(stack_->AddInterface(std::move(vc)));
  tcp_ = std::make_unique<Tcp>(stack_.get(), config.tcp, config.seed * 100 + 2);
}

}  // namespace upr
