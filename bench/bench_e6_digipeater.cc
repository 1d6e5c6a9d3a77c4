// E6 — §1: "The standard amateur packet radio link layer protocol allows
// the specification of up to eight digipeaters through which a packet is to
// pass."
//
// Sweeps the digipeater path length 0..8 between two stations on one
// 1200 bps channel and reports ping RTT and a small UDP transfer's
// effective throughput. Every relay repeats the frame on the *same*
// frequency, so each hop costs a full retransmission of the frame — RTT
// grows linearly with hop count and throughput decays as 1/(hops+1).
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/radio/digipeater.h"

using namespace upr;
using namespace upr::bench;

int main(int argc, char** argv) {
  BenchReport rep("e6_digipeater", &argc, argv);
  rep.Param("seed", 17);
  rep.Param("bit_rate", 1200);
  rep.Param("udp_bytes", 1024);
  std::printf("E6: source-routed digipeater chains, 0..8 hops at 1200 bps\n");
  rep.Header("ping 32 B + 1 KB UDP one-way vs digipeater count",
              {"digis", "rtt_s", "rtt_ratio", "udp_s", "frames_repeated"});

  double base_rtt = 0.0;
  for (std::size_t digis = 0; digis <= 8; ++digis) {
    TestbedConfig cfg;
    cfg.radio_pcs = 2;
    cfg.ether_hosts = 0;
    cfg.digipeaters = digis;
    cfg.radio_bit_rate = 1200;
    // Ideal carrier sense isolates the structural per-hop cost; with the
    // default keying latency, a digipeater's repeat regularly collides with
    // the source's next fragment — real behaviour, but it buries the curve.
    cfg.mac.turnaround = 0;
    cfg.seed = 17;
    Testbed tb(cfg);
    tb.PopulateRadioArp();
    std::vector<Ax25Address> path;
    for (std::size_t i = 0; i < digis; ++i) {
      path.push_back(Testbed::DigiCallsign(i));
    }
    tb.SetDigiPath(0, Testbed::RadioPcIp(1), path);
    // Reverse path for the replies.
    std::vector<Ax25Address> reverse(path.rbegin(), path.rend());
    tb.pc(1).radio_if()->AddArpEntry(Testbed::RadioPcIp(0), Testbed::PcCallsign(0),
                                     reverse);

    auto rtt = RunPing(&tb.sim(), &tb.pc(0).stack(), Testbed::RadioPcIp(1), 32,
                       Seconds(1200));
    double rtt_s = rtt ? ToSeconds(*rtt) : 0.0;
    if (digis == 0) {
      base_rtt = rtt_s;
    }

    // 1 KB one-way UDP (fragments at the 256 B MTU).
    std::size_t received = 0;
    tb.pc(1).udp().Bind(7, [&](IpV4Address, std::uint16_t, const Bytes& d) {
      received += d.size();
    });
    SimTime start = tb.sim().Now();
    tb.pc(0).udp().SendTo(Testbed::RadioPcIp(1), 7, 7, Bytes(1024, 0x5A));
    tb.sim().RunUntil(start + Seconds(3600), [&] { return received >= 1024; });
    double udp_s = received >= 1024 ? ToSeconds(tb.sim().Now() - start) : -1.0;

    std::uint64_t repeated = 0;
    for (std::size_t i = 0; i < digis; ++i) {
      repeated += tb.digi(i).frames_repeated();
    }
    rep.Row({FmtInt(digis), rtt ? Fmt(rtt_s, 1) : "timeout",
             (rtt && base_rtt > 0) ? Fmt(rtt_s / base_rtt, 2) : "-",
             udp_s >= 0 ? Fmt(udp_s, 1) : "lost", FmtInt(repeated)});
    rep.Events(tb.sim().events_scheduled());
  }

  std::printf("\nShape check: RTT ratio ~= digis+1 (each hop re-occupies the shared\n"
              "channel for the full frame). The fragmented 1 KB datagram stops\n"
              "arriving beyond ~4 digipeaters: each of its five fragments crosses\n"
              "the chain serially, the spread exceeds the receiver's 30 s\n"
              "reassembly lifetime (BSD's IPFRAGTTL), and the datagram dies with\n"
              "every fragment delivered — long digipeater chains break fragmented\n"
              "IP even on a loss-free channel.\n");
  return rep.Finish();
}
