// A complete VC-mode station: the KA9Q configuration where IP rides AX.25
// connected-mode circuits instead of UI datagrams (§2.2's road not taken).
//
// Radio — KISS TNC — RS-232 — host, like RadioStation, but the stack's
// interface is Ax25VcIpInterface: every IP next hop maps administratively to
// a callsign, datagrams are written onto a reliable LAPB byte stream and
// re-split by the receiver. bench_x5_vc_mode measures this trade against the
// paper's datagram mode, and `uprsim --workload vc` drives it for the seeded
// LAPB wire-format goldens in tools/check.sh.
#ifndef SRC_SCENARIO_VC_STATION_H_
#define SRC_SCENARIO_VC_STATION_H_

#include <memory>
#include <string>

#include "src/driver/vc_ip_interface.h"
#include "src/net/netstack.h"
#include "src/radio/channel.h"
#include "src/scenario/testbed.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp.h"
#include "src/tnc/kiss_tnc.h"

namespace upr {

// The default VC-station MAC: stock KISS parameters with zero turnaround
// (the value VcStation has always used — seeded wire goldens depend on it).
inline MacParams VcDefaultMac() {
  MacParams mac;
  mac.turnaround = 0;
  return mac;
}

struct VcStationConfig {
  std::string name = "vc";
  std::string callsign;
  IpV4Address ip;
  int prefix_len = 24;
  std::uint32_t serial_baud = 9600;
  Ax25LinkConfig link;
  TcpConfig tcp;
  MacParams mac = VcDefaultMac();
  std::uint64_t seed = 1;
};

// One station: NetStack + serial line + KISS TNC + packet radio driver with
// an Ax25VcIpInterface on top. The TNC and TCP seeds are derived from
// `config.seed` the way bench_x5_vc_mode always has, so existing seeded
// scenarios keep their byte-exact wire traces.
class VcStation {
 public:
  VcStation(Simulator* sim, RadioChannel* channel, VcStationConfig config);

  NetStack& stack() { return *stack_; }
  SerialLine& serial() { return *radio_.serial; }
  KissTnc& tnc() { return *radio_.tnc; }
  PacketRadioInterface* driver() { return radio_.driver; }
  Ax25VcIpInterface* vc() { return vc_; }
  Tcp& tcp() { return *tcp_; }
  const Ax25Address& callsign() const { return callsign_; }

 private:
  Ax25Address callsign_;
  std::unique_ptr<NetStack> stack_;
  RadioFrontEnd radio_;
  Ax25VcIpInterface* vc_ = nullptr;
  std::unique_ptr<Tcp> tcp_;
};

}  // namespace upr

#endif  // SRC_SCENARIO_VC_STATION_H_
