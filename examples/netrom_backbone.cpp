// §2.4's second future-work item: "using another layer three protocol known
// as NET/ROM to pass IP traffic between gateways. Doing this would allow the
// use of an existing, and growing, point-to-point backbone in the same way
// Internet subnets are connected via the ARPANET."
//
// Three NET/ROM nodes form a Seattle - relay - Tacoma chain. The end nodes
// are IP gateways with a NET/ROM tunnel interface; the middle node is a pure
// NET/ROM relay with no IP at all. Routes are learned from NODES broadcasts,
// then a ping and a UDP exchange cross the backbone.
#include <cstdio>

#include "src/apps/bbs.h"
#include "src/netrom/netrom.h"
#include "src/netrom/netrom_transport.h"
#include "src/netrom/node_shell.h"
#include "src/scenario/testbed.h"

using namespace upr;

int main() {
  Simulator sim;
  RadioChannelConfig channel_config;
  channel_config.bit_rate = 1200;
  RadioChannel channel(&sim, channel_config, 404);

  auto make_station = [&](const char* host, const char* call, IpV4Address ip,
                          std::uint64_t seed) {
    RadioStationConfig c;
    c.hostname = host;
    c.callsign = Ax25Address(call, 0);
    c.ip = ip;
    c.seed = seed;
    return std::make_unique<RadioStation>(&sim, &channel, c);
  };
  auto seattle = make_station("seattle-gw", "N7SEA", IpV4Address(44, 24, 0, 1), 1);
  auto relay = make_station("midpoint", "W7MID", IpV4Address(44, 24, 0, 2), 2);
  auto tacoma = make_station("tacoma-gw", "K7TAC", IpV4Address(44, 24, 0, 3), 3);

  NetRomConfig nr;
  nr.learn_neighbors = false;  // enforce the chain: ends are "out of range"
  nr.nodes_interval = Seconds(120);
  auto node_of = [&](RadioStation* s, const char* alias) {
    NetRomConfig c = nr;
    c.alias = alias;
    return std::make_unique<NetRomNode>(&sim, s->radio_if(), c);
  };
  auto sea_node = node_of(seattle.get(), "SEA");
  auto mid_node = node_of(relay.get(), "MID");
  auto tac_node = node_of(tacoma.get(), "TAC");
  sea_node->AddNeighbor(mid_node->callsign(), 200);
  mid_node->AddNeighbor(sea_node->callsign(), 200);
  mid_node->AddNeighbor(tac_node->callsign(), 200);
  tac_node->AddNeighbor(mid_node->callsign(), 200);

  std::printf("letting NODES broadcasts propagate...\n");
  for (int round = 0; round < 3; ++round) {
    sea_node->BroadcastNodes();
    mid_node->BroadcastNodes();
    tac_node->BroadcastNodes();
    sim.RunUntil(sim.Now() + Seconds(240));
  }
  auto route = sea_node->RouteTo(tac_node->callsign());
  if (route) {
    std::printf("seattle's route to %s: via %s, quality %u\n",
                tac_node->callsign().ToString().c_str(),
                route->neighbor.ToString().c_str(), route->quality);
  } else {
    std::printf("route learning FAILED\n");
    return 1;
  }

  // IP tunnel over the backbone: 44.100.0.0/24 spans the two gateways.
  auto tun_a = std::make_unique<NetRomIpInterface>(sea_node.get(), "nr0");
  tun_a->Configure(IpV4Address(44, 100, 0, 1), 24);
  tun_a->MapIpToNode(IpV4Address(44, 100, 0, 2), tac_node->callsign());
  seattle->stack().AddInterface(std::move(tun_a));
  auto tun_b = std::make_unique<NetRomIpInterface>(tac_node.get(), "nr0");
  tun_b->Configure(IpV4Address(44, 100, 0, 2), 24);
  tun_b->MapIpToNode(IpV4Address(44, 100, 0, 1), sea_node->callsign());
  tacoma->stack().AddInterface(std::move(tun_b));

  std::printf("\npinging across the NET/ROM backbone (two radio hops)...\n");
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    seattle->stack().icmp().Ping(IpV4Address(44, 100, 0, 2), 32,
                                 [&](bool ok, SimTime rtt) {
                                   if (ok) {
                                     std::printf("  reply: time=%.2f s\n",
                                                 ToSeconds(rtt));
                                   } else {
                                     std::printf("  timeout\n");
                                   }
                                   done = true;
                                 },
                                 Seconds(600));
    sim.RunUntil(sim.Now() + Seconds(660), [&] { return done; });
  }

  std::printf("\nrelay node forwarded %llu datagrams; seattle delivered %llu\n",
              static_cast<unsigned long long>(mid_node->forwarded()),
              static_cast<unsigned long long>(sea_node->delivered()));

  // --- Part 2: the §1 user workflow over the same backbone ----------------
  // "users would connect to a node on the network. They would then connect
  //  to the NET/ROM node nearest their destination. Finally, they would
  //  connect to their destination."
  std::printf("\n--- node shell: terminal user crosses the backbone ---\n");
  NetRomTransportConfig tc;
  tc.retransmit_timeout = Seconds(90);
  NetRomTransport sea_transport(sea_node.get(), tc);
  NetRomTransport mid_transport(mid_node.get(), tc);
  NetRomTransport tac_transport(tac_node.get(), tc);
  Ax25LinkConfig lc;
  lc.t1 = Seconds(15);
  auto sea_user_link = MakeNodeUserLink(&sim, seattle->radio_if(), sea_node.get(), lc);
  auto tac_user_link = MakeNodeUserLink(&sim, tacoma->radio_if(), tac_node.get(), lc);
  NetRomNodeShell sea_shell(sea_node.get(), &sea_transport, sea_user_link.get());
  NetRomNodeShell tac_shell(tac_node.get(), &tac_transport, tac_user_link.get());

  // A BBS near Tacoma, and a terminal user near Seattle.
  RadioStationConfig bc;
  bc.hostname = "bbs";
  bc.callsign = *Ax25Address::Parse("W7BBS");
  bc.ip = IpV4Address(44, 24, 0, 9);
  bc.seed = 9;
  auto bbs_station = std::make_unique<RadioStation>(&sim, &channel, bc);
  auto bbs_link = BindAx25LinkToDriver(&sim, bbs_station->radio_if(), lc);
  Ax25Bbs bbs(bbs_link.get(), "[Tacoma BBS]");
  bbs.Post(BbsMessage{.from = "KB7DZ", .to = "", .subject = "hello seattle",
                      .body = {"reachable across the backbone now"}});

  bc.hostname = "user";
  bc.callsign = *Ax25Address::Parse("KD7NM");
  bc.ip = IpV4Address(44, 24, 0, 8);
  bc.seed = 8;
  auto user_station = std::make_unique<RadioStation>(&sim, &channel, bc);
  auto user_link = BindAx25LinkToDriver(&sim, user_station->radio_if(), lc);
  Ax25Connection* session = user_link->Connect(*Ax25Address::Parse("N7SEA"));
  session->set_data_handler([](const Bytes& d) {
    std::fwrite(d.data(), 1, d.size(), stdout);
  });
  sim.RunUntil(sim.Now() + Seconds(120));
  session->Send(BytesFromString("NODES\r\n"));
  sim.RunUntil(sim.Now() + Seconds(180));
  session->Send(BytesFromString("C TAC\r\n"));
  sim.RunUntil(sim.Now() + Seconds(400));
  session->Send(BytesFromString("C W7BBS\r\n"));
  sim.RunUntil(sim.Now() + Seconds(400));
  session->Send(BytesFromString("R 1\r\n"));
  sim.RunUntil(sim.Now() + Seconds(500));
  session->Send(BytesFromString("B\r\n"));
  sim.RunUntil(sim.Now() + Seconds(300));
  std::printf("\nshells spliced: seattle %llu, tacoma %llu\n",
              static_cast<unsigned long long>(sea_shell.circuits_spliced()),
              static_cast<unsigned long long>(tac_shell.circuits_spliced()));
  return 0;
}
