// Simulated Terminal Node Controller running the KISS code (§2.1).
//
// Serial side: speaks KISS with the host — data frames carry raw AX.25
// without FCS; command frames set MAC parameters (TXDELAY, P, SLOTTIME,
// TXTAIL, FULLDUP). Radio side: appends/verifies the HDLC FCS and runs
// p-persistent CSMA.
//
// Faithful to the paper's §3 observation, the stock TNC is promiscuous: it
// passes *every* FCS-valid frame it hears up the serial line regardless of
// destination, loading the host as channel traffic grows. The proposed fix —
// "selectively pass only those packets destined for the broadcast or local
// AX.25 addresses" — is implemented as the `address_filter` option.
#ifndef SRC_TNC_KISS_TNC_H_
#define SRC_TNC_KISS_TNC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ax25/address.h"
#include "src/kiss/kiss.h"
#include "src/radio/channel.h"
#include "src/radio/csma_mac.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"

namespace upr {

struct TncConfig {
  MacParams mac;
  // §3 proposed change: pass up only frames destined for a local or broadcast
  // address. Off by default (stock KISS behaviour).
  bool address_filter = false;
  // Addresses considered "ours" when filtering.
  std::vector<Ax25Address> local_addresses;
  // Extra destinations accepted as broadcasts when filtering (NET/ROM NODES).
  std::vector<Ax25Address> broadcast_aliases{Ax25Address("NODES", 0)};
};

class KissTnc {
 public:
  KissTnc(Simulator* sim, RadioChannel* channel, SerialEndpoint* serial,
          std::string name, TncConfig config = {}, std::uint64_t seed = 13);

  TncConfig& config() { return config_; }
  RadioPort* radio_port() { return port_; }

  // The *live* MAC parameters — config().mac is only the construction-time
  // snapshot; KISS command frames from the host mutate these.
  const MacParams& mac_params() const { return mac_->params(); }

  // Re-enters KISS mode and resyncs the stream decoder. The KISS 0xFF
  // "return" command used to disable the port permanently — correct for a
  // simulated host that never restarts, but a live bridge client (kissattach
  // sends 0xFF on exit) must get a working port on reattach.
  void EnterKissMode();

  // Statistics for the E2 experiment.
  std::uint64_t frames_to_host() const { return frames_to_host_; }
  std::uint64_t frames_filtered() const { return frames_filtered_; }
  std::uint64_t fcs_errors() const { return fcs_errors_; }
  std::uint64_t frames_from_host() const { return frames_from_host_; }
  // Bytes written toward the host, dropped ones included.
  std::uint64_t serial_bytes_to_host() const {
    return serial_->bytes_sent() + serial_->bytes_dropped();
  }
  bool in_kiss_mode() const { return kiss_mode_; }

  // KISS parameter plumbing observability (--netstat "kiss params" lines):
  // how often a peer actually adjusted this port's MAC, and the command-path
  // errors a live client surfaces.
  std::uint64_t param_updates() const { return param_updates_; }
  SimTime last_param_update() const { return last_param_update_; }
  std::uint64_t param_errors() const { return param_errors_; }  // empty payload
  std::uint64_t return_commands() const { return return_commands_; }
  std::uint64_t kiss_resyncs() const { return kiss_resyncs_; }

 private:
  void OnSerialChunk(const std::uint8_t* data, std::size_t len);
  void OnKissFrame(KissCommand command, ByteView payload);
  void NoteParamUpdate();
  void OnRadioReceive(const Bytes& wire, bool corrupted);
  bool PassesFilter(ByteView ax25_body) const;

  Simulator* sim_;
  std::string name_;
  TncConfig config_;
  SerialEndpoint* serial_;
  RadioPort* port_;
  std::unique_ptr<CsmaMac> mac_;
  KissDecoder decoder_;
  bool kiss_mode_ = true;

  std::uint64_t frames_to_host_ = 0;
  std::uint64_t frames_filtered_ = 0;
  std::uint64_t fcs_errors_ = 0;
  std::uint64_t frames_from_host_ = 0;
  std::uint64_t param_updates_ = 0;
  SimTime last_param_update_ = 0;
  std::uint64_t param_errors_ = 0;
  std::uint64_t return_commands_ = 0;
  std::uint64_t kiss_resyncs_ = 0;
};

}  // namespace upr

#endif  // SRC_TNC_KISS_TNC_H_
