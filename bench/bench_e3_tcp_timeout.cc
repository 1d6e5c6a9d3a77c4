// E3 — §4.1: "Hosts on the Ethernet side expect fast response. If they
// don't get a response quickly, they time out and retry their transmission.
// ... the system on the Ethernet side initially retransmits packets several
// times before a response makes it back. ... Fortunately, many
// implementations of TCP dynamically adjust their timeout values. Hence,
// when the system on the Ethernet side learns the correct timeout value, the
// frequency of unnecessary packet retransmissions is reduced."
//
// An Ethernet host pushes 8 KB to a radio PC through the gateway. The path
// RTT is tens of seconds at 1200 bps; LAN TCPs assume ~1 s. We compare RTO
// policies, splitting retransmissions into the first two minutes (the
// paper's "initially") vs the rest of the transfer — adaptation shows up as
// the second column going to zero. On the loss-free channel *every*
// retransmission is needless; a lossy run separates needless from necessary.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct Policy {
  const char* name;
  TcpConfig config;
};

struct E3Result {
  bool completed = false;
  std::uint64_t events = 0;
  double elapsed_s = 0;
  std::uint64_t rexmit_early = 0;  // within the first two minutes
  std::uint64_t rexmit_late = 0;
  std::uint64_t segments = 0;
  double final_srtt_s = 0;
};

E3Result RunOne(const TcpConfig& tcp, double loss, std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.radio_pcs = 1;
  cfg.ether_hosts = 1;
  cfg.radio_bit_rate = 1200;
  cfg.radio_loss_rate = loss;
  // Ideal carrier sense: losses in this experiment come only from the
  // configured loss rate, so "needless vs necessary" stays exact.
  cfg.mac.turnaround = 0;
  cfg.tcp = tcp;
  cfg.seed = seed;
  Testbed tb(cfg);
  tb.PopulateRadioArp();

  constexpr std::size_t kBytes = 8 * 1024;
  std::size_t received = 0;
  tb.pc(0).tcp().Listen(5001, [&](TcpConnection* c) {
    c->set_data_handler([&](const Bytes& d) { received += d.size(); });
  });
  TcpConnection* conn = tb.host(0).tcp().Connect(Testbed::RadioPcIp(0), 5001);
  E3Result r;
  if (conn == nullptr) {
    return r;
  }
  Bytes payload(kBytes, 0x42);
  conn->set_connected_handler([&payload, conn] { conn->Send(payload); });
  SimTime start = tb.sim().Now();
  SimTime early_mark = start + Seconds(120);
  bool early_recorded = false;
  tb.sim().RunUntil(start + Seconds(3600 * 8), [&] {
    // Asked between events, so this samples the count just after the first
    // event at or past the mark.
    if (!early_recorded && tb.sim().Now() >= early_mark) {
      early_recorded = true;
      r.rexmit_early = conn->stats().retransmissions;
    }
    return received >= kBytes || conn->state() == TcpState::kClosed;
  });
  if (!early_recorded) {
    r.rexmit_early = conn->stats().retransmissions;
  }
  r.completed = received >= kBytes;
  r.elapsed_s = ToSeconds(tb.sim().Now() - start);
  r.rexmit_late = conn->stats().retransmissions - r.rexmit_early;
  r.segments = conn->stats().segments_sent;
  r.final_srtt_s = ToSeconds(conn->rto().srtt());
  r.events = tb.sim().events_scheduled();
  return r;
}

std::vector<Policy> Policies() {
  std::vector<Policy> policies;
  {
    Policy p{"fixed-3s", {}};
    p.config.rto_algorithm = RtoAlgorithm::kFixed;
    p.config.fixed_rto = Seconds(3);
    p.config.exponential_backoff = false;
    p.config.max_retries = 200;
    policies.push_back(p);
  }
  {
    Policy p{"fixed-3s+boff", {}};
    p.config.rto_algorithm = RtoAlgorithm::kFixed;
    p.config.fixed_rto = Seconds(3);
    p.config.exponential_backoff = true;
    p.config.max_retries = 200;
    policies.push_back(p);
  }
  {
    Policy p{"rfc793", {}};
    p.config.rto_algorithm = RtoAlgorithm::kRfc793;
    p.config.initial_rtt = Seconds(1);
    p.config.exponential_backoff = true;
    p.config.max_rto = Seconds(120);
    p.config.max_retries = 200;
    policies.push_back(p);
  }
  {
    Policy p{"jacobson-karn", {}};
    p.config.rto_algorithm = RtoAlgorithm::kJacobson;
    p.config.initial_rtt = Seconds(1);
    p.config.exponential_backoff = true;
    p.config.max_rto = Seconds(120);
    p.config.max_retries = 200;
    policies.push_back(p);
  }
  return policies;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("e3_tcp_timeout", &argc, argv);
  rep.Param("transfer_bytes", 8 * 1024);
  rep.Param("bit_rate", 1200);
  rep.Param("seed_lossfree", 11);
  rep.Param("seed_lossy", 12);
  rep.Param("loss_lossy", 0.10);
  std::printf("E3: TCP timeout adaptation across the Ethernet->radio gateway\n");
  std::printf("transfer: 8 KB from Ethernet host to radio PC, radio at 1200 bps\n");

  rep.Header("loss-free channel: every retransmission is needless (§4.1)",
              {"policy", "done", "time_s", "rexmit<2min", "rexmit_rest",
               "segs", "srtt_s"},
              13);
  for (const auto& policy : Policies()) {
    E3Result r = RunOne(policy.config, 0.0, 11);
    rep.Row({policy.name, r.completed ? "yes" : "NO", Fmt(r.elapsed_s, 0),
             FmtInt(r.rexmit_early), FmtInt(r.rexmit_late), FmtInt(r.segments),
             Fmt(r.final_srtt_s, 1)},
            13);
    rep.Events(r.events);
  }

  rep.Header("10% frame loss: retransmissions now mix needless and necessary",
              {"policy", "done", "time_s", "rexmit<2min", "rexmit_rest",
               "segs", "srtt_s"},
              13);
  for (const auto& policy : Policies()) {
    E3Result r = RunOne(policy.config, 0.10, 12);
    rep.Row({policy.name, r.completed ? "yes" : "NO", Fmt(r.elapsed_s, 0),
             FmtInt(r.rexmit_early), FmtInt(r.rexmit_late), FmtInt(r.segments),
             Fmt(r.final_srtt_s, 1)},
            13);
    rep.Events(r.events);
  }

  std::printf("\nShape check (paper §4.1): the fixed 3 s sender keeps retransmitting\n"
              "for the whole transfer (rexmit_rest stays high; on the loss-free\n"
              "channel all of it is waste — each needless 560 B segment burns ~4 s\n"
              "of the 1200 bps channel and queues at the gateway). The adaptive\n"
              "estimators retransmit only 'initially', while they still believe\n"
              "the path is LAN-fast, then learn (srtt column) and go quiet. Under\n"
              "loss, Karn's rule (jacobson-karn) keeps the estimate honest.\n");
  return rep.Finish();
}
