// E8-copy — the cost of carrying a datagram through the gateway, in buffer
// work rather than channel time: bytes memcpy'd between buffers and buffer
// allocations per forwarded datagram.
//
// Two implementations of the same radio->radio forward are run over identical
// input and must produce byte-identical KISS output:
//
//   legacy:    the seed's copy-per-layer pipeline, reconstructed from the
//              Bytes-based wrapper APIs (KISS frame copy, AX.25 info copy,
//              input-queue copy, IP payload copy, re-encode, AX.25 re-encode,
//              KISS escape write);
//   packetbuf: the current datapath — one owned copy out of the decoder's
//              frame buffer into a headroom-carrying PacketBuf, TTL patched
//              in place, AX.25 header prepended into headroom, KISS escape
//              write at the edge.
//
// The acceptance bar (ISSUE 2): >= 3x fewer bytes copied and >= 2x fewer
// allocations per gateway-forwarded datagram. The bench exits non-zero if
// either ratio is missed, so tools/check.sh keeps the zero-copy path honest.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/ipv4.h"
#include "src/scenario/netstat.h"
#include "src/util/packet_buf.h"

using namespace upr;
using namespace upr::bench;

namespace {

const Ax25Address kPcCall("PC0", 0);
const Ax25Address kGwCall("GW", 0);
const Ax25Address kNextCall("PC1", 0);

// One UI/IP KISS frame as it arrives from the TNC, carrying an IP datagram
// with `payload_len` transport bytes.
Bytes MakeInputWire(std::size_t payload_len) {
  Bytes payload(payload_len, 0);
  for (std::size_t i = 0; i < payload_len; ++i) {
    // Include FEND/FESC values so KISS escaping does real work.
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

// The seed's forward, step by step: every layer boundary re-materializes the
// packet in a fresh buffer.
Bytes ForwardLegacy(const Bytes& in_wire) {
  Bytes out_wire;
  KissDecoder dec([&](std::uint8_t port, KissCommand command, ByteView payload) {
    // Frame copied out of the decoder, as the seed decoder delivered it.
    KissFrame kf{port, command, {}};
    {
      BufLayerScope scope(BufLayer::kKiss);
      BufNoteAlloc();
      BufNoteCopy(payload.size());
    }
    kf.payload.assign(payload.begin(), payload.end());
    auto fr = Ax25Frame::Decode(kf.payload);  // info copied into the frame
    if (!fr) {
      return;
    }
    // Input-queue hop: the driver handed the stack an owned Bytes copy.
    Bytes queued;
    {
      BufLayerScope scope(BufLayer::kDriver);
      BufNoteAlloc();
      BufNoteCopy(fr->info.size());
    }
    queued = fr->info;
    auto parsed = Ipv4Header::Decode(queued);  // payload copied out
    if (!parsed) {
      return;
    }
    Ipv4Header fwd = parsed->header;
    --fwd.ttl;
    Bytes datagram = fwd.Encode(parsed->payload);  // re-serialized
    Ax25Frame out =
        Ax25Frame::MakeUi(kNextCall, kGwCall, kPidIp, std::move(datagram));
    out_wire = KissEncodeData(out.Encode());  // info copied again, then escaped
  });
  dec.Feed(in_wire);
  return out_wire;
}

// The current datapath: decode over views, one owned copy, prepend in place.
Bytes ForwardPacketBuf(const Bytes& in_wire) {
  Bytes out_wire;
  KissDecoder dec([&](std::uint8_t, KissCommand, ByteView frame_wire) {
    auto fr = Ax25Frame::DecodeView(frame_wire);
    if (!fr) {
      return;
    }
    PacketBuf pb;
    {
      BufLayerScope scope(BufLayer::kDriver);
      pb = PacketBuf::FromView(fr->info, PacketBuf::kDefaultHeadroom);
    }
    if (!Ipv4Header::DecodeView(pb.view())) {
      return;
    }
    Ipv4Header::DecrementTtlInPlace(pb.data());
    Ax25Frame out = Ax25Frame::MakeUi(kNextCall, kGwCall, kPidIp, {});
    out.EncodeTo(&pb);
    KissEncodeInto(pb.view(), &out_wire);
  });
  dec.Feed(in_wire);
  return out_wire;
}

struct RunStats {
  double bytes_per_dgram = 0;
  double allocs_per_dgram = 0;
};

RunStats Measure(const Bytes& in_wire, Bytes (*forward)(const Bytes&), int iters) {
  ResetBufStats();
  Bytes last;
  for (int i = 0; i < iters; ++i) {
    last = forward(in_wire);
  }
  BufLayerStats t = BufStatsTotal();
  RunStats r;
  r.bytes_per_dgram = static_cast<double>(t.bytes_copied) / iters;
  r.allocs_per_dgram = static_cast<double>(t.allocs) / iters;
  if (last.empty()) {
    std::fprintf(stderr, "forward produced no output\n");
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("e8_copy_path", &argc, argv);
  // One smoke iteration for CI / sanitizer jobs.
  int iters = rep.smoke() ? 1 : 1000;
  rep.Param("iters", iters);
  rep.Param("payloads", "64,200,236");

  std::printf("E8-copy: buffer work per gateway-forwarded datagram\n");
  rep.Header("radio->radio forward, per datagram",
              {"payload", "legacy_B", "pbuf_B", "B_ratio", "legacy_al", "pbuf_al",
               "al_ratio"},
              11);

  bool ok = true;
  for (std::size_t payload : {64u, 200u, 236u}) {
    Bytes in_wire = MakeInputWire(payload);
    // The two pipelines must agree on the wire, byte for byte.
    if (ForwardLegacy(in_wire) != ForwardPacketBuf(in_wire)) {
      std::fprintf(stderr, "output mismatch at payload %zu\n", payload);
      return 1;
    }
    RunStats legacy = Measure(in_wire, ForwardLegacy, iters);
    RunStats pbuf = Measure(in_wire, ForwardPacketBuf, iters);
    double b_ratio = legacy.bytes_per_dgram / pbuf.bytes_per_dgram;
    double a_ratio = legacy.allocs_per_dgram / pbuf.allocs_per_dgram;
    rep.Row({FmtInt(payload), Fmt(legacy.bytes_per_dgram, 0),
             Fmt(pbuf.bytes_per_dgram, 0), Fmt(b_ratio, 2),
             Fmt(legacy.allocs_per_dgram, 1), Fmt(pbuf.allocs_per_dgram, 1),
             Fmt(a_ratio, 2)},
            11);
    if (b_ratio < 3.0 || a_ratio < 2.0) {
      ok = false;
    }
  }

  // The same counters on the live stack: a ping forwarded radio->Ethernet
  // through the testbed gateway, attributed per layer (what `uprsim
  // --netstat` prints).
  std::printf("\n== live gateway forward (testbed ping, per-layer) ==\n");
  {
    TestbedConfig cfg;
    cfg.radio_pcs = 1;
    cfg.ether_hosts = 1;
    Testbed tb(cfg);
    ResetBufStats();
    auto rtt = RunPing(&tb.sim(), &tb.pc(0).stack(), Testbed::EtherHostIp(0), 64,
                       Seconds(600));
    std::printf("%s", FormatBufStats().c_str());
    std::printf("ping %s\n", rtt ? "completed" : "timed out");
    rep.Events(tb.sim().events_scheduled());
  }

  std::printf("\n%s: bytes ratio >= 3x and alloc ratio >= 2x %s\n", ok ? "PASS" : "FAIL",
              ok ? "met" : "NOT met");
  return rep.Finish(ok ? 0 : 1);
}
