#include "src/tnc/command_tnc.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/util/crc.h"
#include "src/util/logging.h"

namespace upr {

namespace {

constexpr const char* kTag = "tnc2";

std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

}  // namespace

CommandModeTnc::CommandModeTnc(Simulator* sim, RadioChannel* channel,
                               SerialEndpoint* serial, std::string name,
                               CommandTncConfig config, std::uint64_t seed)
    : sim_(sim),
      name_(std::move(name)),
      config_(std::move(config)),
      serial_(serial),
      command_lines_([this](const std::string& line) { OnCommandLine(line); }) {
  port_ = channel->CreatePort("tnc2:" + name_);
  mac_ = std::make_unique<CsmaMac>(sim, port_, config_.mac, seed);
  StartLink();
  // The command interpreter is inherently per-character (echo, Ctrl-C);
  // unroll silo chunks into the byte handler.
  serial_->set_receive_chunk_handler(
      [this](const std::uint8_t* data, std::size_t len) {
        for (std::size_t i = 0; i < len; ++i) {
          OnSerialByte(data[i]);
        }
      });
  port_->set_receive_handler(
      [this](const Bytes& wire, bool corrupted) { OnRadioReceive(wire, corrupted); });
  Prompt();
}

void CommandModeTnc::StartLink() {
  link_ = std::make_unique<Ax25Link>(
      sim_, config_.mycall, [this](const Ax25Frame& f) { Transmit(f); }, config_.link);
  link_->set_accept_handler(
      [this](const Ax25Address&) { return config_.accept_incoming; });
  link_->set_connection_handler([this](Ax25Connection* conn) {
    ToTerminal("*** CONNECTED to " + conn->peer().ToString() + "\r\n");
    AttachConnection(conn);
    mode_ = Mode::kConverse;
  });
}

void CommandModeTnc::Transmit(const Ax25Frame& frame) {
  Bytes wire = frame.Encode();
  AppendFcs(&wire);
  mac_->Enqueue(std::move(wire));
}

bool CommandModeTnc::connected() const {
  return active_ != nullptr && active_->state() == Ax25Connection::State::kConnected;
}

void CommandModeTnc::ToTerminal(const std::string& text) {
  serial_->Write(BytesFromString(text));
}

void CommandModeTnc::Prompt() { ToTerminal("cmd: "); }

void CommandModeTnc::AttachConnection(Ax25Connection* conn) {
  active_ = conn;
  conn->set_data_handler([this](const Bytes& data) { serial_->Write(data); });
  conn->set_disconnected_handler([this, conn] {
    ToTerminal("*** DISCONNECTED\r\n");
    if (active_ == conn) {
      active_ = nullptr;
    }
    if (mode_ == Mode::kConverse) {
      mode_ = Mode::kCommand;
      Prompt();
    }
  });
}

void CommandModeTnc::OnSerialByte(std::uint8_t byte) {
  if (mode_ == Mode::kConverse) {
    if (byte == kTncEscape) {
      mode_ = Mode::kCommand;
      converse_buffer_.clear();
      ToTerminal("\r\n");
      Prompt();
      return;
    }
    converse_buffer_.push_back(byte);
    if (byte == '\n') {
      if (active_ != nullptr) {
        active_->Send(converse_buffer_);
      }
      converse_buffer_.clear();
    }
    return;
  }
  command_lines_.Feed(Bytes{byte});
}

void CommandModeTnc::OnCommandLine(const std::string& line) {
  auto words = Words(line);
  if (words.empty()) {
    Prompt();
    return;
  }
  ++commands_;
  const std::string& cmd = words[0];
  if (cmd == "MYCALL" || cmd == "MY") {
    if (words.size() >= 2) {
      auto call = Ax25Address::Parse(words[1]);
      if (call) {
        config_.mycall = *call;
        // Re-home the link on the new address.
        StartLink();
        active_ = nullptr;
        ToTerminal("MYCALL set to " + config_.mycall.ToString() + "\r\n");
      } else {
        ToTerminal("?bad callsign\r\n");
      }
    } else {
      ToTerminal("MYCALL " + config_.mycall.ToString() + "\r\n");
    }
  } else if (cmd == "CONNECT" || cmd == "C") {
    if (config_.mycall.IsNull()) {
      ToTerminal("?set MYCALL first\r\n");
      Prompt();
      return;
    }
    if (words.size() < 2) {
      ToTerminal("?usage: CONNECT <call> [VIA d1,d2,...]\r\n");
      Prompt();
      return;
    }
    auto dest = Ax25Address::Parse(words[1]);
    if (!dest) {
      ToTerminal("?bad callsign\r\n");
      Prompt();
      return;
    }
    std::vector<Ax25Digipeater> digis;
    if (words.size() >= 4 && (words[2] == "VIA" || words[2] == "V")) {
      std::string path;
      for (std::size_t i = 3; i < words.size(); ++i) {
        path += words[i];
      }
      std::string cur;
      auto flush = [&] {
        if (!cur.empty()) {
          if (auto d = Ax25Address::Parse(cur)) {
            digis.push_back(Ax25Digipeater{*d, false});
          }
          cur.clear();
        }
      };
      for (char ch : path) {
        if (ch == ',') {
          flush();
        } else {
          cur.push_back(ch);
        }
      }
      flush();
    }
    Ax25Connection* conn = link_->Connect(*dest, std::move(digis));
    AttachConnection(conn);
    conn->set_connected_handler([this, conn] {
      ToTerminal("*** CONNECTED to " + conn->peer().ToString() + "\r\n");
      mode_ = Mode::kConverse;
    });
    // No prompt while the SABM is in flight; failure reports DISCONNECTED.
    return;
  } else if (cmd == "DISCONNECT" || cmd == "D") {
    if (active_ != nullptr) {
      active_->Disconnect();
    } else {
      ToTerminal("?not connected\r\n");
    }
  } else if (cmd == "CONVERS" || cmd == "K") {
    if (connected()) {
      mode_ = Mode::kConverse;
      return;
    }
    ToTerminal("?not connected\r\n");
  } else if (cmd == "MONITOR") {
    if (words.size() >= 2) {
      config_.monitor = words[1] == "ON";
    }
    ToTerminal(std::string("MONITOR ") + (config_.monitor ? "ON" : "OFF") + "\r\n");
  } else if (cmd == "MHEARD" || cmd == "MH") {
    if (heard_.empty()) {
      ToTerminal("nothing heard\r\n");
    }
    for (const auto& [call, entry] : heard_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%-9s %6llu frames  last %.0f s ago\r\n",
                    call.ToString().c_str(),
                    static_cast<unsigned long long>(entry.frames),
                    ToSeconds(sim_->Now() - entry.last_heard));
      ToTerminal(buf);
    }
  } else if (cmd == "STATUS") {
    if (connected()) {
      ToTerminal("CONNECTED to " + active_->peer().ToString() + "\r\n");
    } else {
      ToTerminal("DISCONNECTED\r\n");
    }
  } else if (cmd == "VERSION" || cmd == "V") {
    // AX.25 dialect for links this TNC initiates: VERSION 2.2 turns on XID
    // negotiation / mod-128 / SREJ, VERSION 2.0 pins classic behaviour.
    if (words.size() >= 2) {
      if (words[1] == "2.2" || words[1] == "V2.2") {
        config_.link.dialect = Ax25Dialect::kV22;
      } else if (words[1] == "2.0" || words[1] == "V2.0") {
        config_.link.dialect = Ax25Dialect::kV20;
      } else {
        ToTerminal("?use VERSION 2.0 | 2.2\r\n");
        Prompt();
        return;
      }
      link_->set_config(config_.link);
    }
    ToTerminal(std::string("VERSION ") + Ax25DialectName(config_.link.dialect) +
               "\r\n");
  } else if (cmd == "MAXFRAME" || cmd == "MAX") {
    // Window size k. 1..7 in v2.0; up to 127 negotiable under VERSION 2.2.
    if (words.size() >= 2) {
      int k = std::atoi(words[1].c_str());
      int limit = config_.link.dialect == Ax25Dialect::kV22 ? 127 : 7;
      if (k < 1 || k > limit) {
        ToTerminal("?MAXFRAME must be 1.." + std::to_string(limit) + "\r\n");
        Prompt();
        return;
      }
      config_.link.window = static_cast<std::uint8_t>(k);
      link_->set_config(config_.link);
    }
    ToTerminal("MAXFRAME " + std::to_string(config_.link.window) + "\r\n");
  } else {
    ToTerminal("?EH\r\n");
  }
  Prompt();
}

void CommandModeTnc::OnRadioReceive(const Bytes& wire, bool corrupted) {
  std::optional<ByteView> body = corrupted ? std::nullopt : CheckFcs(wire);
  if (!body) {
    return;
  }
  auto frame = Ax25Frame::Decode(*body);
  if (!frame) {
    return;
  }
  HeardEntry& heard = heard_[frame->source];
  ++heard.frames;
  heard.last_heard = sim_->Now();
  if (!frame->DigipeatingComplete()) {
    return;
  }
  if (frame->destination == config_.mycall) {
    link_->HandleDecoded(*frame, *body);
    return;
  }
  if (config_.monitor && frame->type == Ax25FrameType::kUi) {
    ++monitored_;
    std::string text(frame->info.begin(), frame->info.end());
    ToTerminal(frame->source.ToString() + ">" + frame->destination.ToString() + ": " +
               text + "\r\n");
  }
}

}  // namespace upr
