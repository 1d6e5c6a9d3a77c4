// Hotpath — the ledger's canary macro-benchmark: one core pushing forwarded
// frames through the real gateway datapath as fast as it will go.
//
// Each iteration is a full radio->radio forward of one KISS-framed IP
// datagram: streaming KISS unescape -> AX.25 decode over views -> one owned
// copy into a headroom-carrying PacketBuf -> IP header check -> TTL patched
// in place -> AX.25 UI header prepended into headroom -> KISS escape back to
// the wire. That is the per-frame work a busy gateway repeats for every
// datagram it relays (§2.2's receive path plus the transmit side), minus the
// event-loop machinery the other benches already cover.
//
// The acceptance bar (ISSUE, PR 6): >= 1M forwarded frames per second per
// core in an optimized build. The rate lands in the perf ledger as a banded
// wall metric, so benchdiff also catches slower-but-above-the-bar drift.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/ipv4.h"
#include "src/util/packet_buf.h"

using namespace upr;
using namespace upr::bench;

namespace {

const Ax25Address kPcCall("PC0", 0);
const Ax25Address kGwCall("GW", 0);
const Ax25Address kNextCall("PC1", 0);

// One UI/IP KISS frame as it arrives from the TNC, carrying an IP datagram
// with `payload_len` transport bytes (FEND-heavy so escaping does real work).
Bytes MakeInputWire(std::size_t payload_len) {
  Bytes payload(payload_len, 0);
  for (std::size_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37);
  }
  Ipv4Header h;
  h.identification = 42;
  h.protocol = kIpProtoUdp;
  h.source = IpV4Address(44, 24, 1, 2);
  h.destination = IpV4Address(44, 24, 2, 3);
  Ax25Frame f = Ax25Frame::MakeUi(kGwCall, kPcCall, kPidIp, h.Encode(payload));
  return KissEncodeData(f.Encode());
}

// The forwarding engine: a persistent decoder whose handler runs the
// driver->IP->gateway->driver datapath and re-encodes onto `out_wire`.
class Forwarder {
 public:
  Forwarder()
      : dec_([this](std::uint8_t, KissCommand, ByteView frame_wire) {
          auto fr = Ax25Frame::DecodeView(frame_wire);
          if (!fr) {
            return;
          }
          PacketBuf pb = PacketBuf::FromView(fr->info, PacketBuf::kDefaultHeadroom);
          if (!Ipv4Header::DecodeView(pb.view())) {
            return;
          }
          Ipv4Header::DecrementTtlInPlace(pb.data());
          Ax25Frame out = Ax25Frame::MakeUi(kNextCall, kGwCall, kPidIp, {});
          out.EncodeTo(&pb);
          KissEncodeInto(pb.view(), &out_wire_);
          ++forwarded_;
        }) {}

  void Feed(const Bytes& in_wire) {
    out_wire_.clear();
    dec_.Feed(in_wire);
  }

  std::uint64_t forwarded() const { return forwarded_; }
  const Bytes& out_wire() const { return out_wire_; }

 private:
  KissDecoder dec_;
  Bytes out_wire_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("hotpath", &argc, argv);
  const std::uint64_t iters = rep.smoke() ? 1000 : 2'000'000;
  constexpr std::size_t kPayload = 200;
  rep.Param("iters", static_cast<std::int64_t>(iters));
  rep.Param("payload", static_cast<std::int64_t>(kPayload));

  std::printf("Hotpath: single-core gateway forward rate (KISS->AX.25->IP->AX.25->KISS)\n");

  Bytes in_wire = MakeInputWire(kPayload);
  Forwarder fwd;

  // Warm up (and sanity-check that the datapath actually forwards).
  for (int i = 0; i < 1000; ++i) {
    fwd.Feed(in_wire);
  }
  if (fwd.forwarded() != 1000 || fwd.out_wire().empty()) {
    std::fprintf(stderr, "hotpath forward is broken: %llu frames out\n",
                 static_cast<unsigned long long>(fwd.forwarded()));
    return rep.Finish(1);
  }

  // Steady-state allocation accounting: after warm-up the forward loop must
  // run entirely out of the PacketBuf slab free list — zero heap allocations
  // per forwarded frame (the mbuf-free-list discipline, §2.2).
  std::uint64_t allocs_before = BufStatsTotal().allocs;
  BufPoolStats pool_before = BufPoolSnapshot();

  auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    fwd.Feed(in_wire);
  }
  auto t1 = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(t1 - t0).count();
  std::uint64_t done = fwd.forwarded() - 1000;
  double rate = secs > 0 ? static_cast<double>(done) / secs : 0.0;

  std::uint64_t steady_allocs = BufStatsTotal().allocs - allocs_before;
  BufPoolStats pool_after = BufPoolSnapshot();
  std::uint64_t pool_hits = pool_after.hits - pool_before.hits;

  rep.Header("forwarded frames, one core", {"frames", "secs", "frames_per_sec"},
             16, TableKind::kWall);
  rep.Row({FmtInt(done), Fmt(secs, 3), Fmt(rate, 0)}, 16);
  rep.Wall("frames_per_sec", rate, "higher");

  rep.Header("slab pool, timed loop", {"heap_allocs", "pool_hits"}, 16,
             TableKind::kSim);
  rep.Row({FmtInt(steady_allocs), FmtInt(pool_hits)}, 16);
  rep.Sim("steady_heap_allocs", steady_allocs);
  rep.Sim("pool_hits", pool_hits);

  // The >= 1M/s floor only binds in an optimized, full-length run: smoke and
  // unoptimized/sanitizer builds exercise correctness, not speed.
#ifdef NDEBUG
  const bool enforce = !rep.smoke();
#else
  const bool enforce = false;
#endif
  bool ok = !enforce || rate >= 1'000'000.0;
  // The zero-alloc floor is deterministic, so it binds in every build.
  if (steady_allocs != 0) {
    ok = false;
  }
  std::printf(
      "\n%s: %.0f forwarded frames/sec (floor 1000000%s), "
      "%llu steady-state heap allocs (floor 0)\n",
      ok ? "PASS" : "FAIL", rate, enforce ? "" : ", not enforced in this build",
      static_cast<unsigned long long>(steady_allocs));
  return rep.Finish(ok ? 0 : 1);
}
