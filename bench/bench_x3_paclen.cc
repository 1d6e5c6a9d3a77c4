// X3 — ablation: AX.25 link-parameter tuning (PACLEN and window k).
//
// Every TNC manual of the era had a folk theorem: long frames amortize the
// 300 ms keyup but lose more often (a frame's loss probability grows with
// its air time on a noisy channel); big windows pipeline the half-duplex
// turnarounds but amplify go-back-N waste. This bench measures the actual
// trade on our channel: a 4 KB connected-mode transfer across PACLEN x k x
// per-frame loss rate, reporting throughput and retransmission ratio.
#include <cstdio>
#include <memory>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/ax25/lapb.h"
#include "src/tnc/command_tnc.h"
#include "src/util/crc.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct X3Result {
  bool completed = false;
  std::uint64_t events = 0;
  double elapsed_s = 0;
  std::uint64_t i_sent = 0;
  std::uint64_t i_resent = 0;
};

// Two stations, MAC + channel real; link parameters under test.
X3Result RunOne(std::size_t paclen, std::uint8_t window, double ber,
                std::uint64_t seed) {
  Simulator sim;
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  rc.bit_error_rate = ber;
  RadioChannel channel(&sim, rc, seed);

  MacParams mac;
  mac.persistence = 1.0;  // two stations, half duplex: carrier sense suffices
  mac.turnaround = 0;

  Ax25LinkConfig link_cfg;
  link_cfg.paclen = paclen;
  link_cfg.window = window;
  link_cfg.t1 = Seconds(20);
  link_cfg.n2 = 50;

  struct Station {
    RadioPort* port;
    std::unique_ptr<CsmaMac> mac;
    std::unique_ptr<Ax25Link> link;
  };
  auto make_station = [&](const char* call, std::uint64_t s) {
    auto st = std::make_unique<Station>();
    st->port = channel.CreatePort(call);
    st->mac = std::make_unique<CsmaMac>(&sim, st->port, mac, s);
    st->link = std::make_unique<Ax25Link>(
        &sim, *Ax25Address::Parse(call),
        [raw = st.get()](const Ax25Frame& f) {
          Bytes wire = f.Encode();
          AppendFcs(&wire);
          raw->mac->Enqueue(std::move(wire));
        },
        link_cfg);
    st->port->set_receive_handler([raw = st.get()](const Bytes& wire, bool corrupted) {
      const std::optional<ByteView> body = corrupted ? std::nullopt : CheckFcs(wire);
      if (!body) {
        return;
      }
      if (auto frame = Ax25Frame::Decode(*body)) {
        raw->link->HandleDecoded(*frame, *body);
      }
    });
    return st;
  };
  auto a = make_station("KD7AA", seed * 3 + 1);
  auto b = make_station("KD7BB", seed * 3 + 2);
  b->link->set_accept_handler([](const Ax25Address&) { return true; });
  std::size_t received = 0;
  b->link->set_connection_handler([&](Ax25Connection* c) {
    c->set_data_handler([&](const Bytes& d) { received += d.size(); });
  });

  constexpr std::size_t kBytes = 4096;
  Ax25Connection* conn = a->link->Connect(*Ax25Address::Parse("KD7BB"));
  conn->Send(Bytes(kBytes, 0x6B));
  sim.RunUntil(Seconds(3600 * 4), [&] {
    return received >= kBytes || conn->state() == Ax25Connection::State::kDisconnected;
  });
  X3Result r;
  r.completed = received >= kBytes;
  r.elapsed_s = ToSeconds(sim.Now());
  r.i_sent = conn->i_frames_sent();
  r.i_resent = conn->i_frames_resent();
  r.events = sim.events_scheduled();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("x3_paclen", &argc, argv);
  rep.Param("seed", 77);
  rep.Param("transfer_bytes", 4096);
  rep.Param("bit_rate", 1200);
  std::printf("X3: AX.25 PACLEN / window tuning — 4 KB connected-mode transfer\n"
              "at 1200 bps; bit-error rate as marked (long frames die more often)\n");
  for (double ber : {0.0, 1e-4, 5e-4}) {
    rep.Header("BER = " + Fmt(ber * 1e4, 1) + "e-4",
                {"paclen", "k", "done", "time_s", "bps", "resent/sent"}, 10);
    for (std::size_t paclen : {32, 64, 128, 256}) {
      for (std::uint8_t window : {1, 4, 7}) {
        X3Result r = RunOne(paclen, window, ber, 77);
        double bps = r.completed ? 4096.0 * 8.0 / r.elapsed_s : 0.0;
        double ratio = r.i_sent > 0 ? static_cast<double>(r.i_resent) /
                                          static_cast<double>(r.i_sent)
                                    : 0.0;
        rep.Row({FmtInt(paclen), FmtInt(window), r.completed ? "yes" : "NO",
                 Fmt(r.elapsed_s, 0), Fmt(bps, 0), Fmt(ratio, 2)},
                10);
        rep.Events(r.events);
      }
    }
  }
  std::printf("\nShape check: on a clean channel, bigger PACLEN and window always\n"
              "win (fewer keyups and turnarounds per byte). Under bit errors the\n"
              "optimum moves to medium frames: a 256-byte frame is ~8x more likely\n"
              "to die than a 32-byte one, and each loss costs a go-back-N burst\n"
              "that larger windows amplify. This is the trade every TNC manual's\n"
              "PACLEN advice encoded.\n");
  return rep.Finish();
}
