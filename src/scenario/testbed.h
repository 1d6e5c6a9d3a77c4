// Testbed assembly: complete simulated stations matching the paper's
// figure 1 pipeline (Radio — TNC — RS-232 — DZ — Host), plus helpers that
// build the whole Seattle–Tacoma deployment of §2.3: radio PCs running IP
// (the KA9Q-style stations), the MicroVAX gateway with one foot on the
// department Ethernet, wired Internet hosts, and optional digipeaters.
#ifndef SRC_SCENARIO_TESTBED_H_
#define SRC_SCENARIO_TESTBED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ax25/address.h"
#include "src/driver/packet_radio_interface.h"
#include "src/ether/ethernet.h"
#include "src/gateway/gateway.h"
#include "src/net/netstack.h"
#include "src/radio/channel.h"
#include "src/radio/digipeater.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp.h"
#include "src/tnc/kiss_tnc.h"
#include "src/udp/udp.h"

namespace upr {

// The radio half every station shares, figure 1's Radio — TNC — RS-232 —
// DZ: a serial line with a KISS TNC on `channel` at its far end and the
// packet radio driver "pr0" at its near end, added to `stack`. `serial`
// runs at `baud`; `tnc` learns `callsign` as its local address when it has
// none. `name_line_ends` names the line's ends "<name> dz0" and "<name> tnc"
// for trace attribution, each its own pcapng interface; VcStation leaves them
// unnamed, as its wire goldens were captured.
struct RadioFrontEnd {
  std::unique_ptr<SerialLine> serial;
  std::unique_ptr<KissTnc> tnc;
  PacketRadioInterface* driver = nullptr;
};
RadioFrontEnd AttachRadio(Simulator* sim, RadioChannel* channel, NetStack* stack,
                          const std::string& name, const Ax25Address& callsign,
                          SerialLineConfig serial, std::uint32_t baud, TncConfig tnc,
                          PacketRadioConfig driver, std::uint64_t tnc_seed,
                          bool name_line_ends);

struct RadioStationConfig {
  std::string hostname = "pc";
  Ax25Address callsign;
  IpV4Address ip;
  int prefix_len = 8;  // net 44 is a class A (§4.2)
  std::uint32_t serial_baud = 9600;
  // Serial delivery discipline for the DZ<->TNC line (per-byte vs silo);
  // `serial.baud_rate` is overridden by `serial_baud` above.
  SerialLineConfig serial;
  TncConfig tnc;
  PacketRadioConfig driver;
  TcpConfig tcp;
  std::uint64_t seed = 1;
};

// A host attached to the radio channel through a TNC: a packet-radio PC, or
// the radio half of the gateway.
class RadioStation {
 public:
  RadioStation(Simulator* sim, RadioChannel* channel, RadioStationConfig config);

  NetStack& stack() { return *stack_; }
  PacketRadioInterface* radio_if() { return radio_.driver; }
  KissTnc& tnc() { return *radio_.tnc; }
  Tcp& tcp() { return *tcp_; }
  Udp& udp() { return *udp_; }
  const Ax25Address& callsign() const { return config_.callsign; }
  IpV4Address ip() const { return config_.ip; }
  SerialLine& serial() { return *radio_.serial; }

 private:
  RadioStationConfig config_;
  std::unique_ptr<NetStack> stack_;
  RadioFrontEnd radio_;
  std::unique_ptr<Tcp> tcp_;
  std::unique_ptr<Udp> udp_;
};

struct EtherHostConfig {
  std::string hostname = "host";
  IpV4Address ip;
  int prefix_len = 24;
  std::uint32_t mac_index = 1;
  TcpConfig tcp;
  std::uint64_t seed = 2;
};

// A conventional Internet host on the department Ethernet.
class EtherHost {
 public:
  EtherHost(Simulator* sim, EtherSegment* segment, EtherHostConfig config);

  NetStack& stack() { return *stack_; }
  EthernetInterface* ether_if() { return ether_if_; }
  Tcp& tcp() { return *tcp_; }
  Udp& udp() { return *udp_; }
  IpV4Address ip() const { return config_.ip; }

 private:
  EtherHostConfig config_;
  std::unique_ptr<NetStack> stack_;
  EthernetInterface* ether_if_ = nullptr;
  std::unique_ptr<Tcp> tcp_;
  std::unique_ptr<Udp> udp_;
};

struct GatewayHostConfig {
  std::string hostname = "microvax";
  Ax25Address callsign;
  IpV4Address radio_ip;   // e.g. 44.24.0.28 (§2.3)
  int radio_prefix_len = 8;
  IpV4Address ether_ip;
  int ether_prefix_len = 24;
  std::uint32_t mac_index = 0;
  std::uint32_t serial_baud = 9600;
  // Serial delivery discipline (per-byte vs silo); baud comes from above.
  SerialLineConfig serial;
  TncConfig tnc;
  PacketRadioConfig driver;
  TcpConfig tcp;
  GatewayConfig gateway;
  std::uint64_t seed = 3;
};

// The MicroVAX: radio station + Ethernet interface + gateway policy.
class GatewayHost {
 public:
  GatewayHost(Simulator* sim, RadioChannel* channel, EtherSegment* segment,
              GatewayHostConfig config);

  NetStack& stack() { return *stack_; }
  PacketRadioInterface* radio_if() { return radio_.driver; }
  EthernetInterface* ether_if() { return ether_if_; }
  PacketRadioGateway& gateway() { return *gateway_; }
  KissTnc& tnc() { return *radio_.tnc; }
  Tcp& tcp() { return *tcp_; }
  Udp& udp() { return *udp_; }
  SerialLine& serial() { return *radio_.serial; }
  const GatewayHostConfig& config() const { return config_; }

 private:
  GatewayHostConfig config_;
  std::unique_ptr<NetStack> stack_;
  RadioFrontEnd radio_;
  EthernetInterface* ether_if_ = nullptr;
  std::unique_ptr<PacketRadioGateway> gateway_;
  std::unique_ptr<Tcp> tcp_;
  std::unique_ptr<Udp> udp_;
};

// The full §2.3 deployment, parameterized for the benches.
struct TestbedConfig {
  std::size_t radio_pcs = 1;
  std::size_t ether_hosts = 1;
  std::size_t digipeaters = 0;
  std::uint64_t radio_bit_rate = 1200;
  double radio_loss_rate = 0.0;
  double radio_bit_error_rate = 0.0;
  std::uint32_t serial_baud = 9600;
  // Serial delivery discipline applied to every station's DZ<->TNC line
  // (per-byte vs silo); its baud_rate is overridden by serial_baud above.
  SerialLineConfig serial;
  bool tnc_address_filter = false;     // the §3 proposed fix
  bool enforce_access_control = false; // §4.3 policy on/off
  TcpConfig tcp;                        // applied to every host
  MacParams mac;                        // applied to every TNC and digipeater
  std::uint64_t seed = 42;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  Simulator& sim() { return sim_; }
  RadioChannel& channel() { return *channel_; }
  EtherSegment& ether() { return *ether_; }
  GatewayHost& gateway() { return *gateway_; }
  RadioStation& pc(std::size_t i) { return *pcs_[i]; }
  EtherHost& host(std::size_t i) { return *hosts_[i]; }
  Digipeater& digi(std::size_t i) { return *digis_[i]; }
  std::size_t pc_count() const { return pcs_.size(); }
  std::size_t host_count() const { return hosts_.size(); }
  const TestbedConfig& config() const { return config_; }

  // Addressing plan used by the builders.
  static IpV4Address RadioPcIp(std::size_t i) { return IpV4Address(44, 24, 0, 10 + static_cast<std::uint8_t>(i)); }
  static IpV4Address GatewayRadioIp() { return IpV4Address(44, 24, 0, 28); }
  static IpV4Address GatewayEtherIp() { return IpV4Address(128, 95, 1, 1); }
  static IpV4Address EtherHostIp(std::size_t i) { return IpV4Address(128, 95, 1, 10 + static_cast<std::uint8_t>(i)); }
  static Ax25Address PcCallsign(std::size_t i);
  static Ax25Address GatewayCallsign() { return Ax25Address("N7AKR", 1); }
  static Ax25Address DigiCallsign(std::size_t i);

  // Installs static AX.25 ARP entries everywhere on the radio side; without
  // this, stations resolve dynamically over the air.
  void PopulateRadioArp();
  // Routes a PC's traffic to a peer through the given digipeater chain.
  void SetDigiPath(std::size_t pc_index, IpV4Address peer,
                   const std::vector<Ax25Address>& digis);

 private:
  TestbedConfig config_;
  Simulator sim_;
  std::unique_ptr<RadioChannel> channel_;
  std::unique_ptr<EtherSegment> ether_;
  std::unique_ptr<GatewayHost> gateway_;
  std::vector<std::unique_ptr<RadioStation>> pcs_;
  std::vector<std::unique_ptr<EtherHost>> hosts_;
  std::vector<std::unique_ptr<Digipeater>> digis_;
};

}  // namespace upr

#endif  // SRC_SCENARIO_TESTBED_H_
