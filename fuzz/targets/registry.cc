#include "fuzz/targets.h"

#include <cstring>

namespace upr::fuzz {

namespace {

// Order matches the DESIGN.md target table.
constexpr Target kTargets[] = {
    {"kiss", RunKiss},
    {"ax25_frame", RunAx25Frame},
    {"ax25_xid", RunAx25Xid},
    {"ipv4", RunIpv4},
    {"tcp", RunTcp},
    {"udp", RunUdp},
    {"icmp", RunIcmp},
    {"arp", RunArp},
    {"pcapng", RunPcapng},
    {"faults", RunFaults},
    {"json", RunJson},
    {"serial_line", RunSerialLine},
};

}  // namespace

const Target* Targets(std::size_t* count) {
  *count = sizeof(kTargets) / sizeof(kTargets[0]);
  return kTargets;
}

TargetFn FindTarget(const char* name) {
  for (const Target& t : kTargets) {
    if (std::strcmp(t.name, name) == 0) {
      return t.fn;
    }
  }
  return nullptr;
}

}  // namespace upr::fuzz
