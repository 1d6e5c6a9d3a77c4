// X4 — ablation: delayed acknowledgments (RFC 1122) on the half-duplex
// radio path.
//
// Every ACK on the paper's channel costs a full keyup: 330 ms of TXDELAY +
// turnaround plus the frame itself, during which the data sender cannot
// transmit. Acking every second segment nearly halves that overhead. This
// was standard by 4.3BSD-Tahoe; the bench quantifies what it is worth at
// 1200 bps.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct X4Result {
  bool completed = false;
  std::uint64_t events = 0;
  double elapsed_s = 0;
  std::uint64_t receiver_segments = 0;  // almost all pure ACKs
  std::uint64_t sender_segments = 0;
  double goodput_bps = 0;
};

X4Result RunOne(bool delayed_ack, std::size_t bytes, std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.radio_pcs = 1;
  cfg.ether_hosts = 1;
  cfg.radio_bit_rate = 1200;
  cfg.mac.turnaround = 0;
  cfg.tcp.delayed_ack = delayed_ack;
  // The holdoff must exceed one segment's air time (~4 s at 1200 bps) or the
  // timer acks before the second segment can arrive and nothing is saved —
  // the LAN default of 200 ms is meaningless here.
  cfg.tcp.delayed_ack_timeout = Seconds(10);
  cfg.seed = seed;
  Testbed tb(cfg);
  tb.PopulateRadioArp();

  std::size_t received = 0;
  TcpConnection* server = nullptr;
  tb.pc(0).tcp().Listen(5001, [&](TcpConnection* c) {
    server = c;
    c->set_data_handler([&](const Bytes& d) { received += d.size(); });
  });
  TcpConnection* conn = tb.host(0).tcp().Connect(Testbed::RadioPcIp(0), 5001);
  X4Result r;
  if (conn == nullptr) {
    return r;
  }
  Bytes payload(bytes, 0x51);
  conn->set_connected_handler([&, conn] { conn->Send(payload); });
  SimTime start = tb.sim().Now();
  tb.sim().RunUntil(Seconds(3600 * 4), [&] { return received >= bytes; });
  r.completed = received >= bytes;
  r.elapsed_s = ToSeconds(tb.sim().Now() - start);
  r.sender_segments = conn->stats().segments_sent;
  r.receiver_segments = server != nullptr ? server->stats().segments_sent : 0;
  if (r.elapsed_s > 0) {
    r.goodput_bps = static_cast<double>(received) * 8.0 / r.elapsed_s;
  }
  r.events = tb.sim().events_scheduled();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("x4_delayed_ack", &argc, argv);
  rep.Param("seed", 29);
  rep.Param("bit_rate", 1200);
  rep.Param("delack_timeout_s", 10);
  std::printf("X4: delayed-ACK ablation — Ethernet host -> radio PC at 1200 bps\n");
  rep.Header("per transfer size, ack-every-segment vs delayed (2 in-order / 10 s)",
              {"bytes", "delack", "done", "time_s", "acks", "data_segs",
               "goodput_bps"},
              12);
  for (std::size_t bytes : {2048, 8192, 16384}) {
    for (bool delack : {false, true}) {
      X4Result r = RunOne(delack, bytes, 29);
      rep.Row({FmtInt(bytes), delack ? "on" : "off", r.completed ? "yes" : "NO",
               Fmt(r.elapsed_s, 0), FmtInt(r.receiver_segments),
               FmtInt(r.sender_segments), Fmt(r.goodput_bps, 0)},
              12);
      rep.Events(r.events);
    }
  }
  std::printf("\nShape check: delayed ACK roughly halves the receiver's segment\n"
              "count; on the half-duplex channel each spared ACK returns its air\n"
              "time plus a keyup to the data stream, so goodput rises by\n"
              "double-digit percent. (The sender's RTT estimator sees slightly\n"
              "higher, more variable samples — the known delack cost.)\n");
  return rep.Finish();
}
