// The TNC's native ROM personality (§2.1: the TNC "provides a command
// interpreter, and has a primitive network layer protocol for use with
// terminals unable to support this layer on their own").
//
// A TAPR TNC-2 style command interpreter over the serial line:
//
//   cmd: MYCALL KD7NM
//   cmd: CONNECT W7BBS VIA WB7RA
//   *** CONNECTED to W7BBS
//   <converse mode: lines go to the link, link data goes to the terminal>
//   <Ctrl-C>
//   cmd: DISCONNECT
//
// Unlike the KISS personality (kiss_tnc.h), the AX.25 connected-mode state
// machine lives *inside* the TNC — this is the configuration the paper's §1
// terminal users had, and what the host replaces when it downloads KISS.
#ifndef SRC_TNC_COMMAND_TNC_H_
#define SRC_TNC_COMMAND_TNC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/apps/line_codec.h"
#include "src/ax25/lapb.h"
#include "src/radio/channel.h"
#include "src/radio/csma_mac.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"

namespace upr {

inline constexpr std::uint8_t kTncEscape = 0x03;  // Ctrl-C back to command mode

struct CommandTncConfig {
  Ax25Address mycall;           // settable at runtime with MYCALL
  MacParams mac;
  Ax25LinkConfig link;
  bool monitor = false;         // MONITOR ON: print heard UI frames
  bool accept_incoming = true;  // ring the terminal on incoming SABM
};

class CommandModeTnc {
 public:
  CommandModeTnc(Simulator* sim, RadioChannel* channel, SerialEndpoint* serial,
                 std::string name, CommandTncConfig config, std::uint64_t seed = 23);

  const Ax25Address& mycall() const { return config_.mycall; }
  bool connected() const;
  bool in_converse_mode() const { return mode_ == Mode::kConverse; }

  std::uint64_t commands_processed() const { return commands_; }
  std::uint64_t frames_monitored() const { return monitored_; }

  // The MHEARD list: stations heard on the channel (any destination).
  struct HeardEntry {
    std::uint64_t frames = 0;
    SimTime last_heard = 0;
  };
  const std::map<Ax25Address, HeardEntry>& heard() const { return heard_; }

 private:
  enum class Mode { kCommand, kConverse };

  void OnSerialByte(std::uint8_t byte);
  void OnCommandLine(const std::string& line);
  void OnRadioReceive(const Bytes& wire, bool corrupted);
  // (Re)builds the AX.25 link on config_.mycall.
  void StartLink();
  // Puts a frame from the link on the air, FCS appended.
  void Transmit(const Ax25Frame& frame);
  void AttachConnection(Ax25Connection* conn);
  void ToTerminal(const std::string& text);
  void Prompt();

  Simulator* sim_;
  std::string name_;
  CommandTncConfig config_;
  SerialEndpoint* serial_;
  RadioPort* port_;
  std::unique_ptr<CsmaMac> mac_;
  std::unique_ptr<Ax25Link> link_;
  Ax25Connection* active_ = nullptr;
  Mode mode_ = Mode::kCommand;
  LineBuffer command_lines_;
  Bytes converse_buffer_;
  std::map<Ax25Address, HeardEntry> heard_;
  std::uint64_t commands_ = 0;
  std::uint64_t monitored_ = 0;
};

}  // namespace upr

#endif  // SRC_TNC_COMMAND_TNC_H_
