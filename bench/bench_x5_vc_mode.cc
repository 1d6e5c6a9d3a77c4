// X5 — ablation: IP over UI datagrams (the paper's choice, §2.2) vs IP over
// AX.25 virtual circuits (KA9Q's VC mode).
//
// The era's running argument: datagram mode leaves loss recovery to TCP
// end-to-end (cheap on a clean channel, brutal timeouts on a dirty one);
// VC mode adds link-layer ARQ per hop (fast local recovery, but connection
// overhead, and two retransmission timers that can fight). We run the same
// TCP transfer both ways across a loss sweep.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/scenario/vc_station.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct X5Result {
  bool completed = false;
  std::uint64_t events = 0;
  double elapsed_s = 0;
  std::uint64_t tcp_rexmit = 0;
  std::uint64_t link_resent = 0;  // VC only
  std::uint64_t srej_sent = 0;    // VC v2.2 only
  const char* negotiated = "-";   // dialect the circuit actually runs
};

// --- UI datagram mode: the standard testbed ---------------------------------
X5Result RunUi(double loss, std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.radio_pcs = 2;
  cfg.ether_hosts = 0;
  cfg.radio_bit_rate = 9600;
  cfg.radio_loss_rate = loss;
  cfg.mac.turnaround = 0;
  cfg.tcp.max_retries = 60;
  cfg.seed = seed;
  Testbed tb(cfg);
  tb.PopulateRadioArp();
  TransferResult tr =
      RunBulkTransfer(&tb.sim(), &tb.pc(0).tcp(), &tb.pc(1).tcp(),
                      Testbed::RadioPcIp(1), 8 * 1024, Seconds(3600 * 4));
  X5Result r;
  r.completed = tr.completed;
  r.elapsed_s = ToSeconds(tr.elapsed);
  r.tcp_rexmit = tr.retransmissions;
  r.events = tb.sim().events_scheduled();
  return r;
}

// --- VC mode: two stations with Ax25VcIpInterface ----------------------------
X5Result RunVc(double loss, std::uint64_t seed, Ax25Dialect dialect) {
  Simulator sim;
  RadioChannelConfig rc;
  rc.bit_rate = 9600;
  rc.loss_rate = loss;
  RadioChannel channel(&sim, rc, seed);
  Ax25LinkConfig lc;
  lc.t1 = Seconds(8);
  lc.n2 = 40;
  lc.dialect = dialect;
  if (dialect == Ax25Dialect::kV22) {
    // The v2.2 pitch: a window past mod-8's ceiling of 7, sized to the
    // 9600 bps bandwidth-delay product (deeper just melts down under loss),
    // plus SREJ so one lost frame costs one retransmission.
    lc.window = 32;
  }
  auto station = [&](const char* name, const char* call, IpV4Address ip,
                     std::uint64_t station_seed) {
    VcStationConfig vc;
    vc.name = name;
    vc.callsign = call;
    vc.ip = ip;
    vc.link = lc;
    vc.tcp.max_retries = 60;
    vc.seed = station_seed;
    return std::make_unique<VcStation>(&sim, &channel, vc);
  };
  auto a = station("a", "KD7AA", IpV4Address(44, 24, 11, 1), seed + 1);
  auto b = station("b", "KD7AB", IpV4Address(44, 24, 11, 2), seed + 2);
  a->vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 2), *Ax25Address::Parse("KD7AB"));
  b->vc()->MapIpToCallsign(IpV4Address(44, 24, 11, 1), *Ax25Address::Parse("KD7AA"));
  X5Result r;
  TransferResult tr = RunBulkTransfer(&sim, &a->tcp(), &b->tcp(),
                                      IpV4Address(44, 24, 11, 2), 8 * 1024,
                                      Seconds(3600 * 4));
  r.completed = tr.completed;
  r.elapsed_s = ToSeconds(tr.elapsed);
  r.tcp_rexmit = tr.retransmissions;
  if (Ax25Connection* circuit =
          a->vc()->link().FindConnection(*Ax25Address::Parse("KD7AB"))) {
    r.link_resent = circuit->i_frames_resent();
    r.negotiated = Ax25DialectName(circuit->dialect());
  }
  if (Ax25Connection* back =
          b->vc()->link().FindConnection(*Ax25Address::Parse("KD7AA"))) {
    r.link_resent += back->i_frames_resent();
  }
  r.srej_sent = a->vc()->link().stats().srej_sent + b->vc()->link().stats().srej_sent;
  r.events = sim.events_scheduled();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("x5_vc_mode", &argc, argv);
  rep.Param("seed_ui", 91);
  rep.Param("seed_vc", 92);
  rep.Param("transfer_bytes", 8 * 1024);
  rep.Param("bit_rate", 9600);
  std::printf("X5: IP encapsulation — UI datagrams (the paper, KA9Q default) vs\n"
              "AX.25 virtual circuits (KA9Q VC mode), v2.0 and v2.2 dialects;\n"
              "8 KB TCP transfer, 9600 bps\n");
  rep.Header("per frame-loss rate",
              {"loss", "mode", "neg", "done", "time_s", "tcp_rexmit",
               "link_resent", "srej"},
              12);
  for (double loss : {0.0, 0.10, 0.25, 0.40}) {
    X5Result ui = RunUi(loss, 91);
    rep.Row({Fmt(loss, 2), "ui-dgram", "-", ui.completed ? "yes" : "NO",
             Fmt(ui.elapsed_s, 0), FmtInt(ui.tcp_rexmit), "-", "-"},
            12);
    rep.Events(ui.events);
    X5Result vc = RunVc(loss, 92, Ax25Dialect::kV20);
    rep.Row({Fmt(loss, 2), "ax25-vc20", vc.negotiated,
             vc.completed ? "yes" : "NO", Fmt(vc.elapsed_s, 0),
             FmtInt(vc.tcp_rexmit), FmtInt(vc.link_resent), "-"},
            12);
    rep.Events(vc.events);
    X5Result v22 = RunVc(loss, 92, Ax25Dialect::kV22);
    rep.Row({Fmt(loss, 2), "ax25-vc22", v22.negotiated,
             v22.completed ? "yes" : "NO", Fmt(v22.elapsed_s, 0),
             FmtInt(v22.tcp_rexmit), FmtInt(v22.link_resent),
             FmtInt(v22.srej_sent)},
            12);
    rep.Events(v22.events);
  }
  std::printf("\nShape check: on a clean channel UI wins (no SABM handshake, no RR\n"
              "chatter). As loss grows, VC's per-hop ARQ recovers in one link\n"
              "round trip what costs TCP a full backed-off RTO — total time and\n"
              "TCP retransmissions grow much faster in datagram mode. This is the\n"
              "trade Karn's KA9Q exposed as a per-route mode switch, and the\n"
              "reason dirty paths ran VC while clean ones ran datagram.\n"
              "Within VC, v2.2 (XID-negotiated modulo-128 window + SREJ) beats\n"
              "v2.0 go-back-N on a dirty channel: one lost frame costs one\n"
              "selective retransmission, not the whole outstanding window.\n");
  return rep.Finish();
}
