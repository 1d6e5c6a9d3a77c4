// IP routing table with longest-prefix match. "The routing tables at the IP
// layer determine which driver is called" (§2.3): a lookup yields the output
// interface and, for indirect routes, the gateway whose link address the
// packet is actually sent to.
#ifndef SRC_NET_ROUTING_H_
#define SRC_NET_ROUTING_H_

#include <optional>
#include <string>
#include <vector>

#include "src/net/ip_address.h"

namespace upr {

class NetInterface;

struct Route {
  IpV4Prefix prefix;
  NetInterface* interface = nullptr;
  // For indirect routes: the next-hop gateway on a directly attached network.
  std::optional<IpV4Address> gateway;
  int metric = 0;

  bool direct() const { return !gateway.has_value(); }
};

class RouteTable {
 public:
  void AddDirect(IpV4Prefix prefix, NetInterface* ifp, int metric = 0);
  void AddVia(IpV4Prefix prefix, IpV4Address gateway, NetInterface* ifp, int metric = 0);
  void AddDefault(IpV4Address gateway, NetInterface* ifp);
  // Makes room for `n` more routes.
  void Reserve(std::size_t n) { routes_.reserve(routes_.size() + n); }
  // Removes all routes exactly matching `prefix`. Returns count removed.
  std::size_t Remove(IpV4Prefix prefix);

  // Longest-prefix match; ties broken by lowest metric.
  const Route* Lookup(IpV4Address dst) const;

  std::size_t size() const { return routes_.size(); }
  const std::vector<Route>& routes() const { return routes_; }
  std::string ToString() const;

 private:
  std::vector<Route> routes_;
};

}  // namespace upr

#endif  // SRC_NET_ROUTING_H_
