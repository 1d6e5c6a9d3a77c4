#include "src/scenario/monitor.h"

#include <cstdio>

#include "src/net/ipv4.h"
#include "src/netrom/netrom.h"
#include "src/tcp/tcp.h"
#include "src/util/crc.h"

namespace upr {

ChannelMonitor::ChannelMonitor(Simulator* sim, RadioChannel* channel,
                               LineHandler on_line, std::size_t keep_lines)
    : sim_(sim), on_line_(std::move(on_line)), keep_lines_(keep_lines) {
  RadioPort* port = channel->CreatePort("monitor");
  port->set_receive_handler(
      [this](const Bytes& wire, bool corrupted) { OnFrame(wire, corrupted); });
}

bool ChannelMonitor::Saw(const std::string& needle) const {
  for (const auto& line : lines_) {
    if (line.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string ChannelMonitor::DescribePayload(const Ax25Frame& frame) const {
  if (frame.type != Ax25FrameType::kUi) {
    return "";
  }
  if (frame.pid == kPidIp) {
    auto ip = Ipv4Header::Decode(frame.info);
    if (!ip) {
      return " (IP: malformed)";
    }
    std::string out = " (IP " + ip->header.ToString();
    if (ip->header.protocol == kIpProtoTcp && ip->header.fragment_offset == 0) {
      auto seg = TcpSegment::Decode(ip->payload, ip->header.source,
                                    ip->header.destination);
      if (seg) {
        out += " | TCP " + seg->ToString();
      }
    }
    out += ")";
    return out;
  }
  if (frame.pid == kPidArp) {
    return " (ARP)";
  }
  if (frame.pid == kPidNetRom) {
    auto p = NetRomPacket::Decode(frame.info);
    if (p) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " (NET/ROM %s>%s ttl=%u op=%02x len=%zu)",
                    p->source.ToString().c_str(), p->destination.ToString().c_str(),
                    p->ttl, p->opcode, p->payload.size());
      return buf;
    }
    return " (NET/ROM nodes/route)";
  }
  return "";
}

void ChannelMonitor::OnFrame(const Bytes& wire, bool corrupted) {
  ++counters_.frames;
  counters_.bytes_on_air += wire.size();
  std::string line;
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "%9.3f ", ToSeconds(sim_->Now()));
  line += stamp;
  if (corrupted || wire.size() < 2) {
    ++counters_.corrupted;
    line += "<collision/noise " + std::to_string(wire.size()) + " bytes>";
  } else {
    std::optional<ByteView> body = CheckFcs(wire);
    if (!body) {
      ++counters_.corrupted;
      line += "<bad FCS " + std::to_string(wire.size()) + " bytes>";
    } else {
      auto frame = Ax25Frame::Decode(*body);
      if (!frame) {
        line += "<undecodable frame>";
      } else {
        if (frame->type == Ax25FrameType::kUi) {
          switch (frame->pid) {
            case kPidIp:
              ++counters_.ui_ip;
              break;
            case kPidArp:
              ++counters_.ui_arp;
              break;
            case kPidNetRom:
              ++counters_.ui_netrom;
              break;
            default:
              ++counters_.ui_other;
              break;
          }
        } else {
          ++counters_.connected_mode;
        }
        line += frame->ToString() + DescribePayload(*frame);
      }
    }
  }
  if (on_line_) {
    on_line_(line);
  }
  lines_.push_back(std::move(line));
  if (lines_.size() > keep_lines_) {
    lines_.erase(lines_.begin(),
                 lines_.begin() + static_cast<std::ptrdiff_t>(lines_.size() -
                                                              keep_lines_));
  }
}

}  // namespace upr
