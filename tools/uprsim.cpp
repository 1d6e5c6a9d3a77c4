// uprsim — command-line scenario runner.
//
// Builds the paper's testbed from flags, runs a workload, and prints the
// operator's view: optional live channel monitor, then netstat for every
// host and the gateway's access-control state.
//
//   uprsim --pcs 2 --rate 1200 --workload ping --monitor
//   uprsim --pcs 1 --hosts 1 --workload telnet --duration 1800 --netstat
//   uprsim --pcs 2 --digis 1 --workload tcp --loss 0.1 --access-control
//
// Fault record/replay: --record-faults writes every channel fault decision
// (loss roll, BER draw, collision outcome, p-persistence defer) to a sidecar
// schedule; --replay-faults re-runs the scenario consuming that schedule
// instead of the RNGs, reproducing the original run decision for decision.
//
// A flag the chosen workload does not honour is a usage error, never
// silently ignored.
//
// Exit status is 0 when the workload completed, 1 when it failed, 2 on a
// usage or file error, 3 when a replay diverged from its schedule.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/telnet.h"
#include "src/bridge/bridge.h"
#include "src/radio/fault_plan.h"
#include "src/sim/realtime.h"
#include "src/scenario/monitor.h"
#include "src/scenario/netstat.h"
#include "src/scenario/testbed.h"
#include "src/scenario/topo_gen.h"
#include "src/scenario/vc_station.h"
#include "src/trace/trace.h"
#include "src/util/logging.h"
#include "src/util/parse.h"

using namespace upr;

namespace {

struct Options {
  std::size_t pcs = 1;
  std::size_t hosts = 1;
  std::size_t digis = 0;
  std::uint64_t rate = 1200;
  double loss = 0.0;
  double ber = 0.0;
  bool tnc_filter = false;
  bool access_control = false;
  bool monitor = false;
  bool netstat = false;
  std::size_t silo = 0;
  double duration = 600.0;
  std::uint64_t seed = 42;
  std::string workload = "ping";
  std::string trace_file;
  std::size_t trace_ring = 512;
  std::size_t trace_snap = 512;
  bool trace_enabled = false;
  std::string record_faults;
  std::string replay_faults;
  std::string ax25 = "2.0";
  std::size_t maxframe = 0;  // 0 = dialect default (4 for 2.0, 127 for 2.2)
  std::string log = "warn";
  std::string topo;             // e.g. "city:8x20"
  topo::CitySpec city_spec;     // validated in ParseOptions
  int parallel = 1;             // city threads, the caller included
  bool realtime = false;        // pace the schedule against the wall clock
  double time_scale = 1.0;      // simulated seconds per wall second
  std::string bridge_pty;       // port name to surface as a PTY
  std::string bridge_tcp_name;  // port name to surface as a TCP listener
  std::uint16_t bridge_tcp_port = 0;  // 0 = ephemeral (printed at startup)
  std::vector<std::string> given;     // every flag on the command line
};

bool Given(const Options& opt, const char* flag) {
  return std::find(opt.given.begin(), opt.given.end(), flag) != opt.given.end();
}

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --pcs N            radio PCs (default 1)\n"
      "  --hosts N          Ethernet hosts (default 1)\n"
      "  --digis N          digipeaters (default 0)\n"
      "  --rate BPS         radio channel bit rate (default 1200; 9600,\n"
      "                     the topology's own rate, for --topo)\n"
      "  --loss P           per-frame loss probability (default 0)\n"
      "  --ber B            per-bit error rate (default 0)\n"
      "  --filter           enable the TNC address filter (the paper's fix)\n"
      "  --access-control   enforce the gateway access table (paper 4.3)\n"
      "  --workload W       ping | tcp | telnet | vc (default ping)\n"
      "                     vc: 8 KB TCP transfer between two IP-over-AX.25\n"
      "                     virtual-circuit stations (KA9Q VC mode, LAPB ARQ)\n"
      "  --ax25 V           vc workload AX.25 dialect: 2.0 (default) or 2.2\n"
      "                     (XID negotiation, mod-128 window, SREJ)\n"
      "  --maxframe K       vc workload LAPB window; default 4 for --ax25 2.0,\n"
      "                     127 for --ax25 2.2\n"
      "  --duration SECS    simulated run length (default 600)\n"
      "  --seed S           PRNG seed (default 42)\n"
      "  --silo N           batch serial delivery, N chars per interrupt\n"
      "                     (default 0 = per-character, the paper's DZ)\n"
      "  --log LEVEL        log threshold: trace | debug | info | warn\n"
      "                     (default warn)\n"
      "  --monitor          print decoded channel traffic as it happens\n"
      "  --netstat          print per-host netstat at the end\n"
      "  --trace FILE       record KISS/AX.25 crossings to FILE (pcapng,\n"
      "                     LINKTYPE_AX25_KISS; open it with Wireshark)\n"
      "  --trace-ring N     flight-recorder ring size in events (default 512);\n"
      "                     the ring is dumped when the workload fails\n"
      "  --trace-snap N     bytes of each frame kept (default 512)\n"
      "  --record-faults F  record every channel fault decision to F\n"
      "  --replay-faults F  replay the fault schedule in F instead of\n"
      "                     rolling the channel/MAC RNGs (exit 3 if the\n"
      "                     run diverges from the schedule)\n"
      "  --topo city:CxS    run the city-scale AMPRnet generator instead of\n"
      "                     the testbed: C radio channels (1..250) of S\n"
      "                     stations (1..2000) each, one gateway per channel,\n"
      "                     trunk backbone, seeded ping traffic\n"
      "  --parallel N       run the city topology on N threads, the caller\n"
      "                     included (default 1; conservative parallel DES;\n"
      "                     deterministic for a fixed seed at any N)\n"
      "  --realtime         pace events against the wall clock so external\n"
      "                     processes can take part (ping/tcp/telnet/live)\n"
      "  --time-scale X     simulated seconds per wall second (default 1;\n"
      "                     needs --realtime)\n"
      "  --workload live    one simulated VC station (KD7AA, 44.24.11.1)\n"
      "                     plus bridged port(s); an external KISS client\n"
      "                     (callsign KD7EX, IP 44.24.11.9) connects over\n"
      "                     the bridge and works the station live; needs\n"
      "                     --realtime and at least one --bridge-* flag\n"
      "  --bridge-pty NAME  surface bridged port NAME as a PTY (the slave\n"
      "                     path is printed; kissattach/pattyd open it)\n"
      "  --bridge-tcp NAME:PORT\n"
      "                     surface bridged port NAME as a KISS TCP listener\n"
      "                     on 127.0.0.1:PORT (0 picks a free port, printed)\n",
      argv0);
}

// Validated numeric parsing: `--rate abc` used to strtoull to 0 and silently
// run a nonsense scenario; now every malformed or out-of-range value exits 2
// with the usage text.
[[noreturn]] void BadValue(const std::string& flag, const char* value,
                           const char* constraint) {
  std::fprintf(stderr, "invalid value '%s' for %s (expected %s)\n", value,
               flag.c_str(), constraint);
  std::exit(2);
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    opt->given.push_back(arg);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](std::uint64_t min, std::uint64_t max,
                     const char* constraint) -> std::size_t {
      const char* v = next();
      auto n = ParseU64(v, min, max);
      if (!n) {
        BadValue(arg, v, constraint);
      }
      return static_cast<std::size_t>(*n);
    };
    auto real = [&](double min, double max, const char* constraint) -> double {
      const char* v = next();
      auto d = ParseDouble(v, min, max);
      if (!d) {
        BadValue(arg, v, constraint);
      }
      return *d;
    };
    if (arg == "--pcs") {
      opt->pcs = count(1, 64, "an integer in [1, 64]");
    } else if (arg == "--hosts") {
      opt->hosts = count(0, 64, "an integer in [0, 64]");
    } else if (arg == "--digis") {
      opt->digis = count(0, 16, "an integer in [0, 16]");
    } else if (arg == "--rate") {
      opt->rate = count(1, 10'000'000, "a bit rate in [1, 10000000]");
    } else if (arg == "--loss") {
      opt->loss = real(0.0, 1.0, "a probability in [0, 1]");
    } else if (arg == "--ber") {
      opt->ber = real(0.0, 1.0, "a probability in [0, 1]");
    } else if (arg == "--filter") {
      opt->tnc_filter = true;
    } else if (arg == "--access-control") {
      opt->access_control = true;
    } else if (arg == "--workload") {
      opt->workload = next();
    } else if (arg == "--ax25") {
      opt->ax25 = next();
      if (opt->ax25 != "2.0" && opt->ax25 != "2.2") {
        BadValue(arg, opt->ax25.c_str(), "'2.0' or '2.2'");
      }
    } else if (arg == "--maxframe") {
      opt->maxframe = count(1, 127, "an integer in [1, 127]");
    } else if (arg == "--duration") {
      opt->duration = real(0.001, 1e7, "seconds in [0.001, 1e7]");
    } else if (arg == "--seed") {
      const char* v = next();
      auto n = ParseU64(v);
      if (!n) {
        BadValue(arg, v, "an unsigned 64-bit integer");
      }
      opt->seed = *n;
    } else if (arg == "--silo") {
      opt->silo = count(0, 65536, "an integer in [0, 65536]");
    } else if (arg == "--trace") {
      opt->trace_file = next();
      opt->trace_enabled = true;
    } else if (arg == "--trace-ring") {
      opt->trace_ring = count(1, 100'000'000, "an integer in [1, 1e8]");
      opt->trace_enabled = true;
    } else if (arg == "--trace-snap") {
      opt->trace_snap = count(1, 1'000'000, "an integer in [1, 1e6]");
      opt->trace_enabled = true;
    } else if (arg == "--topo") {
      opt->topo = next();
      std::string error;
      if (!ParseCitySpec(opt->topo, &opt->city_spec, &error)) {
        std::fprintf(stderr, "invalid --topo spec: %s\n", error.c_str());
        return false;
      }
    } else if (arg == "--parallel") {
      opt->parallel = static_cast<int>(count(1, 256, "an integer in [1, 256]"));
    } else if (arg == "--realtime") {
      opt->realtime = true;
    } else if (arg == "--time-scale") {
      opt->time_scale = real(0.001, 100000, "a factor in [0.001, 100000]");
    } else if (arg == "--bridge-pty") {
      opt->bridge_pty = next();
      if (opt->bridge_pty.empty()) {
        BadValue(arg, "", "a non-empty port name");
      }
    } else if (arg == "--bridge-tcp") {
      std::string spec = next();
      std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        BadValue(arg, spec.c_str(), "NAME:PORT");
      }
      auto port = ParseU64(spec.c_str() + colon + 1, 0, 65535);
      if (!port) {
        BadValue(arg, spec.c_str(), "NAME:PORT with PORT in [0, 65535]");
      }
      opt->bridge_tcp_name = spec.substr(0, colon);
      opt->bridge_tcp_port = static_cast<std::uint16_t>(*port);
    } else if (arg == "--record-faults") {
      opt->record_faults = next();
    } else if (arg == "--replay-faults") {
      opt->replay_faults = next();
    } else if (arg == "--log") {
      opt->log = next();
      if (opt->log != "trace" && opt->log != "debug" && opt->log != "info" &&
          opt->log != "warn") {
        BadValue(arg, opt->log.c_str(), "trace | debug | info | warn");
      }
    } else if (arg == "--monitor") {
      opt->monitor = true;
    } else if (arg == "--netstat") {
      opt->netstat = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// --- Scenes ------------------------------------------------------------------
//
// A scene is one workload, built and ready to run: its clock (one Simulator,
// or a ShardSet of one Simulator per shard), its radio channels, a run step
// with the workload's own stop rule, and its --netstat printer. RunScene
// wraps every scene in the same fault session, tracing, monitor, pacing,
// channel summary and verdict.
class Scene {
 public:
  Scene(std::string workload, const Options& options, Simulator* clock,
        std::vector<RadioChannel*> radios)
      : name(std::move(workload)), opt(options), sim(clock), channels(std::move(radios)) {}
  virtual ~Scene() = default;

  // Sets the workload going and runs it to its stop rule, printing what the
  // workload reports. Returns 0 when the workload completed, 1 when it
  // failed, and 2 on a setup error it has already reported.
  virtual int Run() = 0;
  // Prints the --netstat tables.
  virtual void Netstat() = 0;

  std::string name;                     // workload name on the verdict line
  const Options& opt;
  Simulator* sim = nullptr;             // the clock, unless sharded...
  ShardSet* shards = nullptr;           // ...across these shards
  std::vector<RadioChannel*> channels;  // monitored and summarised
  std::string fault_meta;  // its own flags, stamped into a recorded schedule
  // Set by the harness.
  RealtimeExecutor* rt = nullptr;          // paces the run under --realtime
  const trace::Tracer* tracer = nullptr;   // the first tracer, if tracing
  const fault::Session* faults = nullptr;  // set when recording or replaying

 protected:
  // The tables every single-clock scene ends its --netstat with.
  void PrintBufTraceFaults() const {
    std::printf("\n%s", FormatBufStats().c_str());
    if (tracer != nullptr) {
      std::printf("\n%s", FormatTrace(*tracer).c_str());
    }
    if (faults != nullptr) {
      std::printf("\n%s", FormatFaults(*faults).c_str());
    }
  }

  // Runs to --duration, paced by `rt` under --realtime: ping and telnet stop
  // by the clock either way, so a paced run prints what a simulated one does.
  void RunFor() {
    if (rt != nullptr) {
      rt->RunUntil(Seconds(opt.duration));
    } else {
      sim->RunUntil(Seconds(opt.duration));
    }
  }

  // The bulk workload of tcp and vc: 8 KB from `from` to port 5001 on `to`,
  // running until the last byte arrives or --duration passes, paced or not
  // (where a run stops moves Utilization() and the --netstat counts).
  int RunTransfer(Tcp& from, Tcp& to, IpV4Address dst, bool over_vc) {
    constexpr std::size_t kBytes = 8 * 1024;
    std::size_t received = 0;
    to.Listen(5001, [&](TcpConnection* c) {
      c->set_data_handler([&](const Bytes& d) { received += d.size(); });
    });
    TcpConnection* conn = from.Connect(dst, 5001);
    if (conn == nullptr) {
      return 1;
    }
    conn->set_connected_handler([conn] { conn->Send(Bytes(kBytes, 0x42)); });
    const SimTime start = sim->Now();
    const auto done = [&] { return received >= kBytes; };
    if (rt != nullptr) {
      rt->RunUntil(Seconds(opt.duration), done);
    } else {
      sim->RunUntil(Seconds(opt.duration), done);
    }
    if (received < kBytes) {
      std::printf("%stransfer incomplete: %zu/%zu bytes\n", over_vc ? "VC " : "", received, kBytes);
      return 1;
    }
    const double secs = ToSeconds(sim->Now() - start);
    std::printf("transferred %zu bytes%s (%.0f bps goodput, %llu rexmits)\n",
                received, over_vc ? " over VC" : "", received * 8.0 / secs,
                static_cast<unsigned long long>(conn->stats().retransmissions));
    return 0;
  }
};

RadioChannelConfig ChannelConfig(const Options& opt) {
  return {.bit_rate = opt.rate, .loss_rate = opt.loss, .bit_error_rate = opt.ber};
}

// --silo N as a serial delivery discipline; 0 keeps the per-character DZ.
SerialLineConfig SerialConfig(const Options& opt) {
  SerialLineConfig serial;
  if (opt.silo > 0) {
    serial.mode = SerialLineConfig::Mode::kSilo;
    serial.silo_depth = opt.silo;
  }
  return serial;
}

// --- The paper's testbed: ping, tcp and telnet ------------------------------

TestbedConfig TestbedConfigFor(const Options& opt) {
  TestbedConfig cfg;
  cfg.radio_pcs = opt.pcs;
  cfg.ether_hosts = opt.hosts;
  cfg.digipeaters = opt.digis;
  cfg.radio_bit_rate = opt.rate;
  cfg.radio_loss_rate = opt.loss;
  cfg.radio_bit_error_rate = opt.ber;
  cfg.tnc_address_filter = opt.tnc_filter;
  cfg.enforce_access_control = opt.access_control;
  cfg.seed = opt.seed;
  cfg.serial = SerialConfig(opt);
  return cfg;
}

class TestbedScene : public Scene {
 public:
  explicit TestbedScene(const Options& options)
      : Scene(options.workload, options, nullptr, {}), tb_(TestbedConfigFor(options)) {
    tb_.PopulateRadioArp();
    sim = &tb_.sim();
    channels.push_back(&tb_.channel());
    fault_meta = "--pcs " + std::to_string(opt.pcs) + " --hosts " +
                 std::to_string(opt.hosts) + " --digis " + std::to_string(opt.digis);
  }

  int Run() override {
    const IpV4Address target = opt.hosts > 0
                                   ? Testbed::EtherHostIp(0)
                                   : Testbed::RadioPcIp(opt.pcs > 1 ? 1 : 0);
    if (opt.workload == "tcp") {
      Tcp& sink = opt.hosts > 0 ? tb_.host(0).tcp() : tb_.pc(opt.pcs > 1 ? 1 : 0).tcp();
      return RunTransfer(tb_.pc(0).tcp(), sink, target, false);
    }
    if (opt.workload == "telnet") {
      // Log in, echo a line at 40% of --duration, quit at 80%.
      telnetd_ = std::make_unique<TelnetServer>(&tb_.host(0).tcp(), "june");
      telnet_ = std::make_unique<TelnetClient>(&tb_.pc(0).tcp());
      telnet_->set_line_handler([this](const std::string& line) {
        std::printf("  [telnet] %s\n", line.c_str());
        if (line.find("73 de uprsim") != std::string::npos) {
          echoed_ = true;
        }
      });
      telnet_->Connect(Testbed::EtherHostIp(0), "operator");
      tb_.sim().Schedule(Seconds(opt.duration * 0.4),
                         [this] { telnet_->SendCommand("echo 73 de uprsim"); });
      tb_.sim().Schedule(Seconds(opt.duration * 0.8), [this] { telnet_->Quit(); });
      RunFor();
      return echoed_ ? 0 : 1;
    }
    // Three pings in turn.
    int replies = 0;
    const int wanted = 3;
    std::function<void(int)> ping = [&](int remaining) {
      if (remaining == 0) {
        return;
      }
      tb_.pc(0).stack().icmp().Ping(target, 32, [&, remaining](bool ok, SimTime rtt) {
        if (ok) {
          ++replies;
          std::printf("reply from %s: time=%.2f s\n", target.ToString().c_str(),
                      ToSeconds(rtt));
        } else {
          std::printf("ping timed out\n");
        }
        ping(remaining - 1);
      });
    };
    ping(wanted);
    RunFor();
    return replies == wanted ? 0 : 1;
  }

  void Netstat() override {
    std::printf("\n%s", FormatNetstat(tb_.gateway().stack()).c_str());
    std::printf("%s", FormatGateway(tb_.gateway().gateway()).c_str());
    std::printf("%s", FormatSerial(tb_.gateway().serial(), "microvax dz0").c_str());
    std::printf("%s", FormatDriverStats(*tb_.gateway().radio_if()).c_str());
    for (std::size_t i = 0; i < opt.pcs; ++i) {
      std::printf("\n%s", FormatNetstat(tb_.pc(i).stack()).c_str());
      std::printf("%s", FormatSerial(tb_.pc(i).serial(),
                                     "pc" + std::to_string(i) + " com0").c_str());
      std::printf("%s", FormatDriverStats(*tb_.pc(i).radio_if()).c_str());
    }
    PrintBufTraceFaults();
    std::printf("\n%s", FormatSimulator(tb_.sim()).c_str());
  }

 private:
  Testbed tb_;
  std::unique_ptr<TelnetServer> telnetd_;
  std::unique_ptr<TelnetClient> telnet_;
  bool echoed_ = false;
};

// --- IP-over-VC workload -----------------------------------------------------
//
// Two KA9Q-style VC stations (IP over AX.25 connected mode) on one channel,
// one bulk TCP transfer between them. This is the only workload that runs the
// LAPB state machine over the real serial/KISS wire, so ctest uses it (seeded,
// with --trace) to pin the connected-mode wire format against the goldens in
// tests/golden/.
class VcScene : public Scene {
 public:
  explicit VcScene(const Options& options)
      : Scene("vc", options, &sim_, {&channel_}),
        channel_(&sim_, ChannelConfig(options), options.seed),
        a_(&sim_, &channel_, StationConfig(options, "vca", "KD7AA", 1)),
        b_(&sim_, &channel_, StationConfig(options, "vcb", "KD7AB", 2)) {
    a_.vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 2), b_.callsign());
    b_.vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 1), a_.callsign());
    fault_meta = "--ax25 " + opt.ax25 + " --maxframe " +
                 std::to_string(a_.vc()->link().config().window);
  }

  int Run() override {
    return RunTransfer(a_.tcp(), b_.tcp(), IpV4Address(44, 24, 11, 2), true);
  }

  void Netstat() override {
    std::printf("\n%s", FormatNetstat(a_.stack()).c_str());
    std::printf("%s", FormatAx25Link(a_.vc()->link(), "vca/vc0").c_str());
    std::printf("\n%s", FormatNetstat(b_.stack()).c_str());
    std::printf("%s", FormatAx25Link(b_.vc()->link(), "vcb/vc0").c_str());
    PrintBufTraceFaults();
  }

 private:
  // Station `host` is 44.24.11.<host>, seeded --seed + host.
  static VcStationConfig StationConfig(const Options& opt, const char* name,
                                       const char* call, std::uint8_t host) {
    VcStationConfig cfg;
    cfg.name = name;
    cfg.callsign = call;
    cfg.ip = IpV4Address(44, 24, 11, host);
    cfg.serial_baud = static_cast<std::uint32_t>(opt.rate);
    cfg.link.t1 = Seconds(8);
    cfg.link.n2 = 40;
    if (opt.ax25 == "2.2") {
      cfg.link.dialect = Ax25Dialect::kV22;
      cfg.link.window = 127;
    }
    if (opt.maxframe != 0) {
      cfg.link.window = static_cast<std::uint8_t>(opt.maxframe);
    }
    cfg.tcp.max_retries = 60;
    cfg.seed = opt.seed + host;
    return cfg;
  }

  Simulator sim_;
  RadioChannel channel_;
  VcStation a_;
  VcStation b_;
};

// --- Live bridge workload ----------------------------------------------------
//
// One resident VC station (KD7AA, 44.24.11.1) on the channel plus bridged
// port(s) surfaced as a PTY and/or TCP KISS listener. The RealtimeExecutor
// paces the schedule against the wall clock so an unmodified external KISS
// client (callsign KD7EX, 44.24.11.9) can attach, set its KISS parameters,
// open an LAPB circuit and ping the station — tools/kiss_client and
// check.sh --interop exercise exactly that round.
class LiveScene : public Scene {
 public:
  explicit LiveScene(const Options& options)
      : Scene("live", options, &sim_, {&channel_}),
        channel_(&sim_, ChannelConfig(options), options.seed),
        station_(&sim_, &channel_, StationConfig(options)) {
    station_.vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 9), *Ax25Address::Parse("KD7EX"));
  }

  int Run() override {
    if (!opt.bridge_pty.empty()) {
      pty_port_ = MakePort(opt.bridge_pty, 11);
      pty_ = std::make_unique<bridge::PtyBridge>(rt, pty_port_.get());
      if (!pty_->ok()) {
        std::fprintf(stderr, "cannot allocate a PTY for %s\n", opt.bridge_pty.c_str());
        return 2;
      }
      std::printf("bridge %s: pty %s\n", opt.bridge_pty.c_str(), pty_->slave_path().c_str());
    }
    if (!opt.bridge_tcp_name.empty()) {
      tcp_port_ = MakePort(opt.bridge_tcp_name, 12);
      tcp_ = std::make_unique<bridge::TcpKissListener>(rt, tcp_port_.get(), opt.bridge_tcp_port);
      if (!tcp_->ok()) {
        std::fprintf(stderr, "cannot listen on 127.0.0.1:%u\n",
                     static_cast<unsigned>(opt.bridge_tcp_port));
        return 2;
      }
      std::printf("bridge %s: listening on 127.0.0.1:%u\n",
                  opt.bridge_tcp_name.c_str(),
                  static_cast<unsigned>(tcp_->port()));
    }
    // The interop driver greps these lines to find the attach point.
    std::fflush(stdout);

    // Success: the external client got at least one echo answered by the
    // station's ICMP. A TCP client that has done its round and hung up ends
    // the run early; a PTY session (kissattach stays open) runs to --duration.
    auto answered = [&] { return station_.stack().icmp().echoes_answered() > 0; };
    rt->RunUntil(Seconds(opt.duration), [&] {
      return answered() && tcp_port_ != nullptr &&
             tcp_port_->stats().disconnects > 0 && !tcp_port_->attached();
    });
    return answered() ? 0 : 1;
  }

  void Netstat() override {
    std::printf("\n%s", FormatNetstat(station_.stack()).c_str());
    std::printf("%s", FormatAx25Link(station_.vc()->link(), "live/vc0").c_str());
    std::printf("%s", FormatSerial(station_.serial(), "live com0").c_str());
    std::printf("%s", FormatTnc(station_.tnc(), "live tnc").c_str());
    for (bridge::BridgePort* port : {pty_port_.get(), tcp_port_.get()}) {
      if (port == nullptr) {
        continue;
      }
      std::printf("\n%s", FormatSerial(port->line(), port->name() + " line").c_str());
      std::printf("%s", FormatTnc(port->tnc(), port->name() + " tnc").c_str());
      std::printf("%s", bridge::FormatBridge(*port).c_str());
    }
    const RealtimeStats& rs = rt->stats();
    std::printf("\nrealtime: %llu polls, %llu fd dispatches, %llu events, "
                "max lag %.3f ms\n",
                static_cast<unsigned long long>(rs.polls),
                static_cast<unsigned long long>(rs.fd_dispatches),
                static_cast<unsigned long long>(rs.events_executed),
                ToSeconds(rs.max_lag) * 1e3);
    PrintBufTraceFaults();
  }

 private:
  // Persistence 1.0 and zero turnaround remove the MAC's random defers, so
  // for a lockstep client the exchange is the same frame for frame run after
  // run (the interop golden depends on that); t1 is generous because the
  // peer runs on its own wall clock.
  static VcStationConfig StationConfig(const Options& opt) {
    VcStationConfig cfg;
    cfg.name = "live";
    cfg.callsign = "KD7AA";
    cfg.ip = IpV4Address(44, 24, 11, 1);
    cfg.serial_baud = static_cast<std::uint32_t>(opt.rate);
    cfg.link.t1 = Seconds(30);
    cfg.link.n2 = 40;
    cfg.mac.persistence = 1.0;
    cfg.mac.slot_time = Milliseconds(50);
    cfg.mac.tx_delay = Milliseconds(50);
    cfg.seed = opt.seed + 1;
    return cfg;
  }

  std::unique_ptr<bridge::BridgePort> MakePort(const std::string& port_name, std::uint64_t salt) {
    bridge::BridgePortConfig bc;
    bc.name = port_name;
    bc.serial = SerialConfig(opt);
    bc.serial.baud_rate = static_cast<std::uint32_t>(opt.rate);
    bc.tnc.mac = StationConfig(opt).mac;
    bc.seed = opt.seed * 100 + salt;
    return std::make_unique<bridge::BridgePort>(rt, &channel_, bc);
  }

  Simulator sim_;
  RadioChannel channel_;
  VcStation station_;
  std::unique_ptr<bridge::BridgePort> pty_port_;
  std::unique_ptr<bridge::PtyBridge> pty_;
  std::unique_ptr<bridge::BridgePort> tcp_port_;
  std::unique_ptr<bridge::TcpKissListener> tcp_;
};

// --- City-scale topology (ISSUE 8) ------------------------------------------
//
// `--topo city:CxS` swaps the testbed for the upr::topo generator: C radio
// channels of S stations behind per-channel gateways and a trunk backbone,
// executed as conservative parallel DES on --parallel N threads (one by
// default). The city reports each channel's traffic in its own
// summary table, so its scene lists no channels for the one-channel summary.
// Its channels run at the topology's own rate (CityConfig::radio_bit_rate,
// which its airtime arithmetic assumes) unless --rate is given.
topo::CityConfig CityConfigFor(const Options& opt) {
  topo::CityConfig cfg;
  cfg.spec = opt.city_spec;
  cfg.threads = opt.parallel;
  cfg.seed = opt.seed;
  if (Given(opt, "--rate")) {
    cfg.radio_bit_rate = opt.rate;
  }
  cfg.serial = SerialConfig(opt);
  return cfg;
}

class CityScene : public Scene {
 public:
  explicit CityScene(const Options& options)
      : Scene("city", options, nullptr, {}), city_(CityConfigFor(options)) {
    shards = &city_.shards();
  }

  int Run() override {
    if (!city_.BackboneConnected()) {
      std::fprintf(stderr, "generated backbone is not connected (bug)\n");
      return 1;
    }
    executed_ = city_.Run(Seconds(opt.duration));
    std::printf("%s", city_.FormatSummary().c_str());
    const topo::ChannelTraffic total = city_.TrafficTotal();
    return total.pings_sent > 0 && total.pings_ok > 0 ? 0 : 1;
  }

  void Netstat() override {
    const ShardSet& set = city_.shards();
    const ShardStats stats = set.stats();
    std::printf(
        "shards %zu threads %d lookahead %lld ns\n"
        "events executed %zu scheduled %llu\n"
        "handoffs posted %llu injected %llu ring-overflow %llu windows %llu\n",
        set.shard_count(), set.threads(), static_cast<long long>(city_.lookahead()), executed_,
        static_cast<unsigned long long>(set.TotalEventsScheduled()),
        static_cast<unsigned long long>(stats.posted),
        static_cast<unsigned long long>(stats.injected),
        static_cast<unsigned long long>(stats.ring_overflow),
        static_cast<unsigned long long>(stats.windows));
    // Each shard counts in its own buffer context, so the table is the same
    // at every thread count.
    std::printf("\n%s", FormatBufStats().c_str());
  }

 private:
  topo::CityTopology city_;
  std::size_t executed_ = 0;
};

// --- The harness -------------------------------------------------------------

template <typename S>
std::unique_ptr<Scene> Build(const Options& opt) {
  return std::make_unique<S>(opt);
}

// A workload's builder and the flags it honours, beyond the ones every scene
// does. Faults are recorded and replayed only where one Simulator stamps
// every decision (fault::Session), so not on the sharded city, and never on
// a run paced by the wall clock, which cannot be replayed.
struct SceneKind {
  const char* flags;
  std::unique_ptr<Scene> (*build)(const Options&);
};
constexpr const char* kEverySceneFlags =
    " --seed --duration --rate --log --netstat --trace --trace-ring --trace-snap ";
constexpr SceneKind kTestbedKind = {
    " --workload --pcs --hosts --digis --loss --ber --filter --access-control --silo --monitor"
    " --realtime --time-scale --record-faults --replay-faults ",
    Build<TestbedScene>};
constexpr SceneKind kVcKind = {
    " --workload --loss --ber --ax25 --maxframe --monitor --record-faults --replay-faults ",
    Build<VcScene>};
constexpr SceneKind kLiveKind = {
    " --workload --loss --ber --silo --monitor --realtime --time-scale --bridge-pty --bridge-tcp ",
    Build<LiveScene>};
constexpr SceneKind kCityKind = {" --topo --silo --parallel ", Build<CityScene>};

// One tracer per clock. A single-clock scene's is installed for the run. A
// city gives each shard its own, installed thread-local by the shard-enter
// hook on whichever thread runs the shard, and capturing to a temporary
// FILE.part<k> that MergeShardTraces folds into FILE after the run.
bool StartTracers(const Options& opt, Scene& scene,
                  std::vector<std::unique_ptr<trace::Tracer>>* tracers,
                  std::unique_ptr<trace::ScopedInstall>* install) {
  ShardSet* set = scene.shards;
  const std::size_t count = set != nullptr ? set->shard_count() : 1;
  for (std::size_t k = 0; k < count; ++k) {
    trace::TracerConfig tcfg;
    tcfg.ring_capacity = opt.trace_ring;
    tcfg.snaplen = opt.trace_snap;
    tcfg.pcap_path = count > 1 && !opt.trace_file.empty()
                         ? opt.trace_file + ".part" + std::to_string(k)
                         : opt.trace_file;
    tracers->push_back(
        std::make_unique<trace::Tracer>(set != nullptr ? set->shard(k) : scene.sim, tcfg));
    if (!tracers->back()->pcap_ok()) {
      std::fprintf(stderr, "cannot open trace file %s\n", tcfg.pcap_path.c_str());
      return false;
    }
  }
  if (set == nullptr) {
    *install = std::make_unique<trace::ScopedInstall>(tracers->front().get());
    return true;
  }
  // Warm the panic-hook registration on the main thread before helper
  // threads race to Install their shard tracers.
  trace::Install(nullptr);
  set->set_shard_enter_hook([tracers](std::size_t k) { trace::Install((*tracers)[k].get()); });
  return true;
}

// Builds the scene and runs it: fault session, tracers, monitor, optional
// wall-clock pacing, the run, flush (and the ring dump on failure), fault
// report, channel summary, netstat, verdict and exit status.
int RunScene(const Options& opt, const SceneKind& kind) {
  // Declared before the scene so it outlives it: bridge ports unhook
  // themselves from the executor when they are destroyed.
  std::unique_ptr<RealtimeExecutor> rt;
  std::unique_ptr<Scene> scene = kind.build(opt);

  // The fault session must be installed before any channel activity so the
  // schedule covers the whole run, frame zero onward.
  std::unique_ptr<fault::Session> faults;
  if (!opt.replay_faults.empty()) {
    std::string error;
    auto schedule = fault::Schedule::LoadFromFile(opt.replay_faults, &error);
    if (!schedule) {
      std::fprintf(stderr, "cannot load fault schedule %s: %s\n",
                   opt.replay_faults.c_str(), error.c_str());
      return 2;
    }
    if (!schedule->meta.empty()) {
      std::printf("replaying fault schedule: %zu decisions (%s)\n",
                  schedule->events.size(), schedule->meta.c_str());
    }
    faults = std::make_unique<fault::Session>(scene->sim, std::move(*schedule));
  } else if (!opt.record_faults.empty()) {
    faults = std::make_unique<fault::Session>(scene->sim);
  }
  fault::ScopedInstall fault_install(faults.get());

  std::vector<std::unique_ptr<trace::Tracer>> tracers;
  std::unique_ptr<trace::ScopedInstall> trace_install;
  if (opt.trace_enabled && !StartTracers(opt, *scene, &tracers, &trace_install)) {
    return 2;
  }

  std::vector<std::unique_ptr<ChannelMonitor>> monitors;
  if (opt.monitor) {
    for (RadioChannel* channel : scene->channels) {
      monitors.push_back(std::make_unique<ChannelMonitor>(
          scene->sim, channel, [](const std::string& line) { std::printf("%s\n", line.c_str()); }));
    }
  }

  // --realtime swaps only the run loop: the schedule, seeds and stats are
  // those of the deterministic path, just paced against the wall clock.
  if (opt.realtime) {
    rt = std::make_unique<RealtimeExecutor>(
        scene->sim, RealtimeConfig{.time_scale = opt.time_scale});
  }

  scene->rt = rt.get();
  const int status = scene->Run();
  // The caller of a city run ran shards too, and its tracer slot still
  // holds the last one's tracer: clear it before the tracers go.
  if (!tracers.empty() && trace_install == nullptr) {
    trace::Install(nullptr);
  }
  if (status == 2) {
    return 2;
  }
  const bool workload_ok = status == 0;

  if (!tracers.empty()) {
    std::string ring;
    std::string error;
    if (!trace::MergeShardTraces(tracers, opt.trace_file, &ring, &error)) {
      std::fprintf(stderr, "cannot merge the shard traces: %s\n", error.c_str());
      return 2;
    }
    if (!workload_ok) {
      std::fputs(ring.c_str(), stderr);
    }
  }

  bool replay_clean = true;
  if (faults != nullptr) {
    if (!opt.record_faults.empty()) {
      // Stamp the scenario into the schedule so a replay artifact is
      // self-describing.
      char meta[256];
      std::snprintf(meta, sizeof meta,
                    "%s --rate %llu --loss %g --ber %g --workload %s "
                    "--duration %g --seed %llu",
                    scene->fault_meta.c_str(),
                    static_cast<unsigned long long>(opt.rate), opt.loss,
                    opt.ber, opt.workload.c_str(), opt.duration,
                    static_cast<unsigned long long>(opt.seed));
      faults->schedule().meta = meta;
      if (!faults->schedule().SaveToFile(opt.record_faults)) {
        std::fprintf(stderr, "cannot write fault schedule %s\n",
                     opt.record_faults.c_str());
        return 2;
      }
      std::printf("recorded fault schedule: %zu decisions -> %s\n",
                  faults->schedule().events.size(), opt.record_faults.c_str());
    } else {
      replay_clean = faults->ReplayClean();
      std::printf("replay %s: %llu decisions replayed, %llu mismatches, "
                  "%llu past end, %zu unused\n",
                  replay_clean ? "clean" : "DIVERGED",
                  static_cast<unsigned long long>(faults->stats().replayed),
                  static_cast<unsigned long long>(faults->stats().mismatches),
                  static_cast<unsigned long long>(faults->stats().exhausted),
                  faults->remaining());
      for (const std::string& p : faults->problems()) {
        std::fprintf(stderr, "replay divergence: %s\n", p.c_str());
      }
    }
  }

  for (const RadioChannel* channel : scene->channels) {
    std::printf("\n=== channel ===\n");
    std::printf("transmissions %llu, collisions %llu, utilization %.1f%%\n",
                static_cast<unsigned long long>(channel->transmissions()),
                static_cast<unsigned long long>(channel->collisions()),
                channel->Utilization() * 100.0);
  }
  if (opt.netstat) {
    scene->tracer = tracers.empty() ? nullptr : tracers.front().get();
    scene->faults = faults.get();
    scene->Netstat();
  }
  std::printf("\nworkload %s: %s\n", scene->name.c_str(), workload_ok ? "completed" : "FAILED");
  if (!replay_clean) {
    return 3;
  }
  return workload_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    Usage(argv[0]);
    return 2;
  }
  if (opt.log == "trace") {
    SetLogLevel(LogLevel::kTrace);
  } else if (opt.log == "debug") {
    SetLogLevel(LogLevel::kDebug);
  } else if (opt.log == "info") {
    SetLogLevel(LogLevel::kInfo);
  }
  if (!opt.record_faults.empty() && !opt.replay_faults.empty()) {
    std::fprintf(stderr, "--record-faults and --replay-faults are exclusive\n");
    return 2;
  }
  if (Given(opt, "--time-scale") && !opt.realtime) {
    std::fprintf(stderr, "--time-scale needs --realtime\n");
    return 2;
  }
  const bool testbed = opt.workload == "ping" || opt.workload == "tcp" || opt.workload == "telnet";
  const SceneKind* kind = !opt.topo.empty()       ? &kCityKind
                          : testbed               ? &kTestbedKind
                          : opt.workload == "vc"   ? &kVcKind
                          : opt.workload == "live" ? &kLiveKind
                                                   : nullptr;
  if (kind == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // A flag the workload would ignore is an error, never a silent no-op.
  for (const std::string& flag : opt.given) {
    const std::string padded = " " + flag + " ";
    if (std::strstr(kEverySceneFlags, padded.c_str()) == nullptr &&
        std::strstr(kind->flags, padded.c_str()) == nullptr) {
      std::fprintf(stderr, "%s is not supported for %s\n", flag.c_str(),
                   opt.topo.empty() ? ("--workload " + opt.workload).c_str()
                                    : "--topo");
      return 2;
    }
  }
  if (opt.workload == "telnet" && opt.hosts == 0) {
    std::fprintf(stderr, "telnet workload needs --hosts >= 1\n");
    return 2;
  }
  if (opt.workload == "live" &&
      (!opt.realtime || (opt.bridge_pty.empty() && opt.bridge_tcp_name.empty()))) {
    std::fprintf(stderr, "--workload live needs --realtime and --bridge-pty "
                         "and/or --bridge-tcp\n");
    return 2;
  }
  return RunScene(opt, *kind);
}
