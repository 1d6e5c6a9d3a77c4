// Shared helpers for the experiment harnesses. Each bench binary regenerates
// one table/figure of the paper (see DESIGN.md §3 and EXPERIMENTS.md); these
// helpers run the common workloads (pings, bulk TCP transfers) on a Testbed
// and print aligned tables of *simulated* metrics.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/scenario/testbed.h"
#include "src/util/stats.h"

namespace upr {
namespace bench {

// Left-pads each cell to `width` columns. Cells longer than `width` are kept
// whole (the column just overflows) — the old snprintf(char[64]) version
// silently truncated any cell of 64+ characters, which clipped long scenario
// labels; tests/bench_util_test.cc pins the long-cell behavior.
inline std::string FormatCells(const std::vector<std::string>& cells, int width = 14) {
  std::string row;
  const auto w = static_cast<std::size_t>(width < 0 ? 0 : width);
  for (const auto& c : cells) {
    row += c;
    if (c.size() < w) {
      row.append(w - c.size(), ' ');
    }
  }
  return row;
}

inline void PrintHeader(const std::string& title, const std::vector<std::string>& cols,
                        int width = 14) {
  std::printf("\n== %s ==\n", title.c_str());
  std::string row = FormatCells(cols, width);
  std::printf("%s\n", row.c_str());
  std::printf("%s\n", std::string(row.size(), '-').c_str());
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  std::printf("%s\n", FormatCells(cells, width).c_str());
}

inline std::string Fmt(double v, int decimals = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string FmtInt(std::uint64_t v) { return std::to_string(v); }

// Runs a single ping and returns the RTT, or nullopt on timeout.
inline std::optional<SimTime> RunPing(Simulator* sim, NetStack* from, IpV4Address to,
                                      std::size_t payload, SimTime timeout,
                                      SimTime deadline_slack = Seconds(60)) {
  std::optional<SimTime> result;
  bool done = false;
  from->icmp().Ping(to, payload,
                    [&](bool ok, SimTime rtt) {
                      done = true;
                      if (ok) {
                        result = rtt;
                      }
                    },
                    timeout);
  sim->RunUntil(sim->Now() + timeout + deadline_slack, [&] { return done; });
  return result;
}

struct TransferResult {
  bool completed = false;
  SimTime elapsed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t spurious_retransmissions = 0;
  std::uint64_t segments_sent = 0;
  SimTime final_srtt = 0;
  double goodput_bps = 0.0;
};

// Bulk one-way TCP transfer: `from` connects to a sink on `to_stack` and
// sends `bytes`, which must fit the sender's TcpConfig::send_buffer_limit
// (one Send queues them all). Runs the simulator until delivery completes,
// the connection closes, or `deadline` passes.
inline TransferResult RunBulkTransfer(Simulator* sim, Tcp* from, Tcp* to_tcp,
                                      IpV4Address to_ip, std::size_t bytes,
                                      SimTime deadline, std::uint16_t port = 5001) {
  TransferResult result;
  std::size_t received = 0;
  to_tcp->Listen(port, [&](TcpConnection* c) {
    c->set_data_handler([&](const Bytes& d) { received += d.size(); });
  });
  TcpConnection* conn = from->Connect(to_ip, port);
  if (conn == nullptr) {
    return result;
  }
  Bytes payload(bytes, 0x42);
  SimTime start = sim->Now();
  conn->set_connected_handler([&payload, conn] { conn->Send(payload); });
  sim->RunUntil(deadline, [&] {
    return received >= bytes || conn->state() == TcpState::kClosed;
  });
  result.completed = received >= bytes;
  result.elapsed = sim->Now() - start;
  result.retransmissions = conn->stats().retransmissions;
  result.spurious_retransmissions = conn->stats().spurious_retransmissions;
  result.segments_sent = conn->stats().segments_sent;
  result.final_srtt = conn->rto().srtt();
  if (result.elapsed > 0) {
    result.goodput_bps =
        static_cast<double>(received) * 8.0 / ToSeconds(result.elapsed);
  }
  to_tcp->StopListening(port);
  return result;
}

}  // namespace bench
}  // namespace upr

#endif  // BENCH_BENCH_UTIL_H_
