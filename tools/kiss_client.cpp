// kiss_client — a minimal external KISS station, the interop half of
// `uprsim --workload live`.
//
// Attaches to a bridged port (TCP KISS socket or PTY slave) exactly as a real
// TNC host program would: it speaks raw KISS bytes over the fd and has no
// access to the simulator. On attach it pushes its KISS parameters (TXDELAY/
// P/SLOTTIME/FULLDUP), then works one scripted exchange against the resident
// station KD7AA at 44.24.11.1:
//
//   SABM ->   (open the LAPB circuit, v2.0 mod-8)
//   <- UA
//   I ns=0 -> (PID 0xCC: an IPv4 ICMP echo request, 44.24.11.9 -> 44.24.11.1,
//              back-to-back VC framing: the datagram is delimited by its own
//              total-length field)
//   <- I ns=0 (the station's echo reply)
//   RR nr=1-> (ack it)
//   DISC ->
//   <- UA
//
// Every field is fixed, so for a fixed simulation seed the whole exchange is
// reproducible frame for frame — check.sh --interop tracediffs the bridged
// port's capture against tests/golden/interop_live.pcapng.
//
// Exit status: 0 when the round completed, 1 on timeout/protocol failure,
// 2 on usage or connect errors.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <termios.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <string>

#include "src/ax25/address.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/util/parse.h"

using namespace upr;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::uint16_t tcp_port = 0;  // --tcp PORT (127.0.0.1)
  std::string pty_path;        // --pty PATH
  double timeout = 60.0;       // wall seconds for the whole exchange
  std::string mycall = "KD7EX";
  std::string peer = "KD7AA";
  bool verbose = false;
};

void Usage(const char* argv0) {
  std::printf(
      "usage: %s (--tcp PORT | --pty PATH) [options]\n"
      "  --tcp PORT       connect to the bridge's KISS listener on\n"
      "                   127.0.0.1:PORT\n"
      "  --pty PATH       open the bridge's PTY slave (e.g. /dev/pts/3)\n"
      "  --timeout SECS   wall-clock budget for the exchange (default 60)\n"
      "  --mycall CALL    our callsign/IP identity (default KD7EX)\n"
      "  --peer CALL      the resident station (default KD7AA)\n"
      "  --verbose        print every frame sent and received\n",
      argv0);
}

[[noreturn]] void BadValue(const std::string& flag, const char* value) {
  std::fprintf(stderr, "invalid value '%s' for %s\n", value, flag.c_str());
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tcp") {
      const char* v = next();
      auto n = ParseU64(v, 1, 65535);
      if (!n) {
        BadValue(arg, v);
      }
      opt->tcp_port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--pty") {
      opt->pty_path = next();
    } else if (arg == "--timeout") {
      const char* v = next();
      auto d = ParseDouble(v, 0.1, 3600.0);
      if (!d) {
        BadValue(arg, v);
      }
      opt->timeout = *d;
    } else if (arg == "--mycall") {
      opt->mycall = next();
    } else if (arg == "--peer") {
      opt->peer = next();
    } else if (arg == "--verbose") {
      opt->verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  if ((opt->tcp_port == 0) == opt->pty_path.empty()) {
    std::fprintf(stderr, "need exactly one of --tcp or --pty\n");
    return false;
  }
  return true;
}

int ConnectTcp(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("connect");
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

int OpenPty(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_NOCTTY);
  if (fd < 0) {
    std::perror("open pty");
    return -1;
  }
  termios tio{};
  if (::tcgetattr(fd, &tio) == 0) {
    ::cfmakeraw(&tio);
    ::tcsetattr(fd, TCSANOW, &tio);
  }
  return fd;
}

// The external station: one fd, a streaming KISS decoder, and a queue of
// decoded AX.25 frames addressed to us (the bridge TNC is promiscuous, so we
// filter on destination ourselves, as host AX.25 stacks do).
class KissStation {
 public:
  KissStation(int fd, Ax25Address mycall, Ax25Address peer, bool verbose)
      : fd_(fd),
        mycall_(mycall),
        peer_(peer),
        verbose_(verbose),
        decoder_([this](std::uint8_t, KissCommand command, ByteView payload) {
          OnKissFrame(command, payload);
        }) {}

  void SendCommand(KissCommand cmd, std::uint8_t value) {
    KissFrame f;
    f.command = cmd;
    f.payload = Bytes{value};
    SendAll(KissEncode(f));
  }

  void SendFrame(const Ax25Frame& frame) {
    if (verbose_) {
      std::printf("-> %s\n", frame.ToString().c_str());
    }
    SendAll(KissEncodeData(frame.Encode()));
  }

  // Blocks until a frame for us from the peer satisfies `want`, discarding
  // others (RRs we don't care about, stations overheard on the channel).
  // Returns nullopt at `deadline`.
  std::optional<Ax25Frame> WaitFor(bool (*want)(const Ax25Frame&),
                                   Clock::time_point deadline) {
    for (;;) {
      while (!frames_.empty()) {
        Ax25Frame f = frames_.front();
        frames_.pop_front();
        if (want(f)) {
          return f;
        }
      }
      if (!FillFromFd(deadline)) {
        return std::nullopt;
      }
    }
  }

 private:
  void OnKissFrame(KissCommand command, ByteView payload) {
    if (command != KissCommand::kData) {
      return;
    }
    auto frame = Ax25Frame::Decode(Bytes(payload.begin(), payload.end()), Ax25Modulus::kMod8);
    if (!frame) {
      return;
    }
    if (verbose_) {
      std::printf("<- %s\n", frame->ToString().c_str());
    }
    if (frame->destination == mycall_ && frame->source == peer_) {
      frames_.push_back(*frame);
    }
  }

  // One poll+read round; false on timeout or EOF.
  bool FillFromFd(Clock::time_point deadline) {
    for (;;) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        return false;
      }
      pollfd p{fd_, POLLIN, 0};
      int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        std::perror("poll");
        return false;
      }
      if (rc == 0) {
        return false;
      }
      std::uint8_t buf[4096];
      ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n == 0) {
        std::fprintf(stderr, "bridge closed the connection\n");
        return false;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) {
          continue;
        }
        std::perror("read");
        return false;
      }
      decoder_.Feed(buf, static_cast<std::size_t>(n));
      return true;
    }
  }

  void SendAll(const Bytes& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN) {
          pollfd p{fd_, POLLOUT, 0};
          ::poll(&p, 1, 1000);
          continue;
        }
        std::perror("write");
        std::exit(1);
      }
      off += static_cast<std::size_t>(n);
    }
  }

  int fd_;
  Ax25Address mycall_;
  Ax25Address peer_;
  bool verbose_;
  KissDecoder decoder_;
  std::deque<Ax25Frame> frames_;
};

Ax25Frame MakeU(Ax25FrameType type, const Ax25Address& dst,
                const Ax25Address& src, bool command, bool pf) {
  Ax25Frame f;
  f.destination = dst;
  f.source = src;
  f.type = type;
  f.command = command;
  f.poll_final = pf;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(argv[0]);
    return 2;
  }
  auto mycall = Ax25Address::Parse(opt.mycall);
  auto peer = Ax25Address::Parse(opt.peer);
  if (!mycall || !peer) {
    std::fprintf(stderr, "bad callsign\n");
    return 2;
  }

  int fd = opt.tcp_port != 0 ? ConnectTcp(opt.tcp_port) : OpenPty(opt.pty_path);
  if (fd < 0) {
    return 2;
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<long long>(opt.timeout * 1000.0));
  KissStation station(fd, *mycall, *peer, opt.verbose);

  // TNC setup, as kissattach's kissparms would: moderate TXDELAY, full
  // persistence (the live scenario runs the MAC deterministic), short slots.
  station.SendCommand(KissCommand::kTxDelay, 20);
  station.SendCommand(KissCommand::kPersistence, 255);
  station.SendCommand(KissCommand::kSlotTime, 5);
  station.SendCommand(KissCommand::kFullDuplex, 0);

  // Connect: SABM, expect UA.
  station.SendFrame(MakeU(Ax25FrameType::kSabm, *peer, *mycall, true, true));
  if (!station.WaitFor(
          [](const Ax25Frame& f) { return f.type == Ax25FrameType::kUa; },
          deadline)) {
    std::fprintf(stderr, "no UA for SABM\n");
    return 1;
  }
  std::printf("circuit open: %s <-> %s\n", opt.mycall.c_str(),
              opt.peer.c_str());

  // Ping over the circuit: one IPv4 ICMP echo request in one I frame, VC
  // framing (datagram delimited by its own total-length field).
  IcmpMessage echo;
  echo.type = kIcmpEchoRequest;
  echo.code = 0;
  const char kTag[] = "upr interop";
  echo.body = Bytes{0x77, 0x01, 0x00, 0x01};  // identifier 0x7701, sequence 1
  echo.body.insert(echo.body.end(), kTag, kTag + sizeof kTag - 1);
  Ipv4Header ip;
  ip.identification = 1;
  ip.protocol = kIpProtoIcmp;
  ip.source = IpV4Address(44, 24, 11, 9);
  ip.destination = IpV4Address(44, 24, 11, 1);
  const Bytes request = ip.Encode(echo.Encode());

  Ax25Frame iframe;
  iframe.destination = *peer;
  iframe.source = *mycall;
  iframe.type = Ax25FrameType::kI;
  iframe.command = true;
  iframe.ns = 0;
  iframe.nr = 0;
  iframe.pid = kPidIp;
  iframe.info = request;
  station.SendFrame(iframe);

  // The station's echo reply comes back in its own I frame; reassemble the
  // byte stream and check it is our ICMP body again.
  auto reply_frame = station.WaitFor(
      [](const Ax25Frame& f) { return f.type == Ax25FrameType::kI; }, deadline);
  if (!reply_frame) {
    std::fprintf(stderr, "no I frame with the echo reply\n");
    return 1;
  }
  Bytes stream = reply_frame->info;
  bool echo_ok = false;
  if (stream.size() >= 4) {
    const std::size_t total = (static_cast<std::size_t>(stream[2]) << 8) |
                              static_cast<std::size_t>(stream[3]);
    if (total >= 20 && stream.size() >= total) {
      stream.resize(total);
      auto parsed = Ipv4Header::Decode(stream);
      if (parsed && parsed->header.protocol == kIpProtoIcmp) {
        auto icmp = IcmpMessage::Decode(
            ByteView(parsed->payload.data(), parsed->payload.size()));
        echo_ok = icmp && icmp->type == kIcmpEchoReply &&
                  icmp->body == echo.body;
      }
    }
  }
  if (!echo_ok) {
    std::fprintf(stderr, "I frame did not carry our echo reply\n");
    return 1;
  }
  std::printf("ping %s: echo reply received\n",
              ip.destination.ToString().c_str());

  // Ack the station's I frame so its LAPB doesn't retransmit into the DISC.
  Ax25Frame rr;
  rr.destination = *peer;
  rr.source = *mycall;
  rr.type = Ax25FrameType::kRr;
  rr.command = false;
  rr.nr = 1;
  station.SendFrame(rr);

  // Disconnect: DISC, expect UA.
  station.SendFrame(MakeU(Ax25FrameType::kDisc, *peer, *mycall, true, true));
  if (!station.WaitFor(
          [](const Ax25Frame& f) { return f.type == Ax25FrameType::kUa; },
          deadline)) {
    std::fprintf(stderr, "no UA for DISC\n");
    return 1;
  }
  std::printf("disconnected\n");
  ::close(fd);
  return 0;
}
