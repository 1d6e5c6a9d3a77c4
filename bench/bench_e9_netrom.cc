// E9 — §2.4 future work: "Work is also proceeding on using another layer
// three protocol known as NET/ROM to pass IP traffic between gateways."
//
// Builds NET/ROM chains of increasing length, measures route convergence
// from NODES broadcasts, then compares IP-over-NET/ROM against the plain
// digipeated path with the same number of relays. Both pay the same air
// time per hop (same shared channel); NET/ROM adds a 16-byte network header
// but removes the need for the *sender* to know the whole path — routing is
// the backbone's job, as the paper wants.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/netrom/netrom.h"
#include "src/netrom/netrom_transport.h"
#include "src/radio/digipeater.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct Backbone {
  Simulator sim;
  std::unique_ptr<RadioChannel> channel;
  std::vector<std::unique_ptr<RadioStation>> stations;
  std::vector<std::unique_ptr<NetRomNode>> nodes;
};

std::unique_ptr<Backbone> MakeChain(std::size_t length) {
  auto bb = std::make_unique<Backbone>();
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  bb->channel = std::make_unique<RadioChannel>(&bb->sim, rc, 31);
  for (std::size_t i = 0; i < length; ++i) {
    RadioStationConfig c;
    c.hostname = "n" + std::to_string(i);
    c.callsign = Ax25Address("NR" + std::to_string(i), 0);
    c.ip = IpV4Address(44, 24, 3, static_cast<std::uint8_t>(10 + i));
    c.seed = 700 + i;
    bb->stations.push_back(
        std::make_unique<RadioStation>(&bb->sim, bb->channel.get(), c));
    NetRomConfig nc;
    nc.alias = "N" + std::to_string(i);
    nc.learn_neighbors = false;
    nc.nodes_interval = Seconds(300);
    bb->nodes.push_back(
        std::make_unique<NetRomNode>(&bb->sim, bb->stations.back()->radio_if(), nc));
  }
  for (std::size_t i = 0; i + 1 < length; ++i) {
    bb->nodes[i]->AddNeighbor(bb->nodes[i + 1]->callsign(), 200);
    bb->nodes[i + 1]->AddNeighbor(bb->nodes[i]->callsign(), 200);
  }
  return bb;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("e9_netrom", &argc, argv);
  rep.Param("bit_rate", 1200);
  rep.Param("circuit_bytes", 2048);
  std::printf("E9: IP over a NET/ROM backbone (1200 bps channel per hop)\n");

  rep.Header("route convergence + end-to-end ping vs chain length",
              {"nodes", "bcast_rounds", "routes@end0", "quality", "rtt_s",
               "relayed"},
              13);
  for (std::size_t length : {2, 3, 4, 5}) {
    auto bb = MakeChain(length);
    // Broadcast rounds until end 0 has a route to the far end.
    int rounds = 0;
    while (rounds < 10 &&
           !bb->nodes[0]->RouteTo(bb->nodes[length - 1]->callsign())) {
      ++rounds;
      for (auto& n : bb->nodes) {
        n->BroadcastNodes();
      }
      bb->sim.RunUntil(bb->sim.Now() + Seconds(120));
    }
    auto route = bb->nodes[0]->RouteTo(bb->nodes[length - 1]->callsign());

    // IP tunnel between the ends.
    auto tun_a = std::make_unique<NetRomIpInterface>(bb->nodes[0].get(), "nr0");
    tun_a->Configure(IpV4Address(44, 100, 0, 1), 24);
    tun_a->MapIpToNode(IpV4Address(44, 100, 0, 2), bb->nodes[length - 1]->callsign());
    bb->stations[0]->stack().AddInterface(std::move(tun_a));
    auto tun_b = std::make_unique<NetRomIpInterface>(bb->nodes[length - 1].get(), "nr0");
    tun_b->Configure(IpV4Address(44, 100, 0, 2), 24);
    tun_b->MapIpToNode(IpV4Address(44, 100, 0, 1), bb->nodes[0]->callsign());
    bb->stations[length - 1]->stack().AddInterface(std::move(tun_b));

    auto rtt = RunPing(&bb->sim, &bb->stations[0]->stack(),
                       IpV4Address(44, 100, 0, 2), 32, Seconds(1200));
    std::uint64_t relayed = 0;
    for (std::size_t i = 1; i + 1 < length; ++i) {
      relayed += bb->nodes[i]->forwarded();
    }
    rep.Row({FmtInt(length), FmtInt(static_cast<std::uint64_t>(rounds)),
             FmtInt(bb->nodes[0]->route_count()),
             route ? FmtInt(route->quality) : "-",
             rtt ? Fmt(ToSeconds(*rtt), 1) : "timeout", FmtInt(relayed)},
            13);
    rep.Events(bb->sim.events_scheduled());
  }

  // Head-to-head: 3-relay NET/ROM path vs 3-digipeater source route.
  rep.Header("same relay count: NET/ROM backbone vs digipeater source route",
              {"transport", "rtt_s", "sender_must_know"}, 20);
  {
    auto bb = MakeChain(5);
    for (int round = 0; round < 6; ++round) {
      for (auto& n : bb->nodes) {
        n->BroadcastNodes();
      }
      bb->sim.RunUntil(bb->sim.Now() + Seconds(120));
    }
    auto tun_a = std::make_unique<NetRomIpInterface>(bb->nodes[0].get(), "nr0");
    tun_a->Configure(IpV4Address(44, 100, 0, 1), 24);
    tun_a->MapIpToNode(IpV4Address(44, 100, 0, 2), bb->nodes[4]->callsign());
    bb->stations[0]->stack().AddInterface(std::move(tun_a));
    auto tun_b = std::make_unique<NetRomIpInterface>(bb->nodes[4].get(), "nr0");
    tun_b->Configure(IpV4Address(44, 100, 0, 2), 24);
    tun_b->MapIpToNode(IpV4Address(44, 100, 0, 1), bb->nodes[0]->callsign());
    bb->stations[4]->stack().AddInterface(std::move(tun_b));
    auto rtt = RunPing(&bb->sim, &bb->stations[0]->stack(),
                       IpV4Address(44, 100, 0, 2), 32, Seconds(1200));
    rep.Row({"netrom-3-relays", rtt ? Fmt(ToSeconds(*rtt), 1) : "timeout",
             "next hop only"},
            20);
    rep.Events(bb->sim.events_scheduled());
  }
  {
    TestbedConfig cfg;
    cfg.radio_pcs = 2;
    cfg.ether_hosts = 0;
    cfg.digipeaters = 3;
    cfg.radio_bit_rate = 1200;
    Testbed tb(cfg);
    tb.PopulateRadioArp();
    std::vector<Ax25Address> path{Testbed::DigiCallsign(0), Testbed::DigiCallsign(1),
                                  Testbed::DigiCallsign(2)};
    tb.SetDigiPath(0, Testbed::RadioPcIp(1), path);
    std::vector<Ax25Address> reverse(path.rbegin(), path.rend());
    tb.pc(1).radio_if()->AddArpEntry(Testbed::RadioPcIp(0), Testbed::PcCallsign(0),
                                     reverse);
    auto rtt = RunPing(&tb.sim(), &tb.pc(0).stack(), Testbed::RadioPcIp(1), 32,
                       Seconds(1200));
    rep.Row({"digipeater-3", rtt ? Fmt(ToSeconds(*rtt), 1) : "timeout",
             "entire path"},
            20);
    rep.Events(tb.sim().events_scheduled());
  }

  // Layer-4 circuit stream across the same 5-node chain: 2 KB end to end.
  rep.Header("layer-4 circuit: 2 KB stream across the 5-node backbone",
              {"transport", "time_s", "goodput_bps", "info_resent"}, 16);
  {
    auto bb = MakeChain(5);
    for (int round = 0; round < 6; ++round) {
      for (auto& n : bb->nodes) {
        n->BroadcastNodes();
      }
      bb->sim.RunUntil(bb->sim.Now() + Seconds(120));
    }
    NetRomTransportConfig tc;
    tc.retransmit_timeout = Seconds(120);
    NetRomTransport near_end(bb->nodes[0].get(), tc);
    NetRomTransport far_end(bb->nodes[4].get(), tc);
    far_end.set_accept_handler(
        [](const Ax25Address&, const Ax25Address&) { return true; });
    std::size_t received = 0;
    far_end.set_circuit_handler([&](NetRomCircuit* c) {
      c->set_data_handler([&](const Bytes& d) { received += d.size(); });
    });
    NetRomCircuit* circuit = near_end.Connect(bb->nodes[4]->callsign());
    constexpr std::size_t kBytes = 2048;
    SimTime start = bb->sim.Now();
    if (circuit != nullptr) {
      circuit->Send(Bytes(kBytes, 0x77));
      bb->sim.RunUntil(start + Seconds(3600), [&] { return received >= kBytes; });
      double secs = ToSeconds(bb->sim.Now() - start);
      rep.Row({"nr-circuit", Fmt(secs, 0),
               received >= kBytes ? Fmt(received * 8.0 / secs, 0) : "incomplete",
               FmtInt(circuit->info_resent())},
              16);
    }
    rep.Events(bb->sim.events_scheduled());
  }

  std::printf("\nShape check (§2.4): RTT grows linearly with chain length for both;\n"
              "NET/ROM pays a small header tax per hop but the source only names\n"
              "the destination node — the backbone routes, 'in the same way\n"
              "Internet subnets are connected via the ARPANET'.\n");
  return rep.Finish();
}
