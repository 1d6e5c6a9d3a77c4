// E5 — §2.2's receive path: "For each character in the packet, the tty
// driver calls the packet radio interrupt handler to process the character.
// ... As each character is read by the interrupt handler, some processing of
// characters is done on the fly."
//
// Wall-clock microbenchmarks (google-benchmark) of exactly that code: the
// streaming KISS decoder fed one byte at a time, across escape densities;
// the HDLC FCS the TNC computes; the AX.25 frame codec the driver runs per
// packet; and the full driver byte path. These bound how much host CPU each
// received character costs — the quantity experiment E2 shows being wasted
// on other stations' traffic.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_json.h"

#include "src/ax25/frame.h"
#include "src/driver/packet_radio_interface.h"
#include "src/kiss/kiss.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"
#include "src/util/crc.h"

namespace upr {
namespace {

Bytes MakePayload(std::size_t size, int escape_percent) {
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    bool escape = (static_cast<int>(i * 100 / size) % 100) < escape_percent;
    payload[i] = escape ? kKissFend : static_cast<std::uint8_t>(i);
  }
  return payload;
}

void BM_KissEncode(benchmark::State& state) {
  Bytes payload = MakePayload(static_cast<std::size_t>(state.range(0)),
                              static_cast<int>(state.range(1)));
  for (auto _ : state) {
    Bytes wire = KissEncodeData(payload);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KissEncode)->Args({256, 0})->Args({256, 25})->Args({256, 100});

void BM_KissDecodeByteAtATime(benchmark::State& state) {
  Bytes payload = MakePayload(static_cast<std::size_t>(state.range(0)),
                              static_cast<int>(state.range(1)));
  Bytes wire = KissEncodeData(payload);
  std::size_t frames = 0;
  KissDecoder decoder([&frames](std::uint8_t, KissCommand, ByteView) { ++frames; });
  for (auto _ : state) {
    // One call per byte: the per-character interrupt discipline.
    for (std::uint8_t b : wire) {
      decoder.Feed(b);
    }
  }
  benchmark::DoNotOptimize(frames);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_KissDecodeByteAtATime)
    ->Args({256, 0})
    ->Args({256, 25})
    ->Args({256, 100});

// Chunked decode: the silo-mode delivery discipline hands the decoder a
// silo-full at a time; ordinary payload runs are appended in bulk.
void BM_KissDecodeChunked(benchmark::State& state) {
  Bytes payload = MakePayload(static_cast<std::size_t>(state.range(0)),
                              static_cast<int>(state.range(1)));
  Bytes wire = KissEncodeData(payload);
  const std::size_t chunk = 16;  // silo_depth
  std::size_t frames = 0;
  KissDecoder decoder([&frames](std::uint8_t, KissCommand, ByteView) { ++frames; });
  for (auto _ : state) {
    for (std::size_t i = 0; i < wire.size(); i += chunk) {
      decoder.Feed(wire.data() + i, std::min(chunk, wire.size() - i));
    }
  }
  benchmark::DoNotOptimize(frames);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_KissDecodeChunked)->Args({256, 0})->Args({256, 25})->Args({256, 100});

void BM_HdlcFcs(benchmark::State& state) {
  Bytes frame = MakePayload(static_cast<std::size_t>(state.range(0)), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc16Ccitt(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HdlcFcs)->Arg(64)->Arg(256)->Arg(330);

void BM_Ax25Encode(benchmark::State& state) {
  std::vector<Ax25Digipeater> digis;
  for (int i = 0; i < state.range(0); ++i) {
    digis.push_back(
        {Ax25Address("WB7R" + std::string(1, static_cast<char>('A' + i)), 0), false});
  }
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("KD7NM", 0), Ax25Address("N7AKR", 1),
                                  kPidIp, Bytes(128, 0x42), digis);
  for (auto _ : state) {
    Bytes wire = f.Encode();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_Ax25Encode)->Arg(0)->Arg(2)->Arg(8);

void BM_Ax25Decode(benchmark::State& state) {
  std::vector<Ax25Digipeater> digis;
  for (int i = 0; i < state.range(0); ++i) {
    digis.push_back(
        {Ax25Address("WB7R" + std::string(1, static_cast<char>('A' + i)), 0), false});
  }
  Bytes wire = Ax25Frame::MakeUi(Ax25Address("KD7NM", 0), Ax25Address("N7AKR", 1),
                                 kPidIp, Bytes(128, 0x42), digis)
                   .Encode();
  for (auto _ : state) {
    auto f = Ax25Frame::Decode(wire);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_Ax25Decode)->Arg(0)->Arg(2)->Arg(8);

// The full §2.2 receive path: serial delivery -> interrupt handler ->
// on-the-fly KISS unescape -> AX.25 header checks -> IP dispatch into the
// input queue. Arg 0 selects the serial delivery discipline: 0 = per-byte
// (one event + one interrupt per character, the paper's DZ), 1 = silo
// (depth-16 batched delivery, the DH-style fix §Performance calls for).
// Compare the "events/frame" and "interrupts/frame" counters across the two:
// the KISS/AX.25 byte stream and decoded frame count are identical, only the
// event machinery cost changes.
void BM_DriverReceivePath(benchmark::State& state) {
  Simulator sim;
  SerialLineConfig serial_config;
  serial_config.baud_rate = 9600;
  if (state.range(0) != 0) {
    serial_config.mode = SerialLineConfig::Mode::kSilo;
    serial_config.silo_depth = 16;
  }
  SerialLine serial(&sim, serial_config);
  PacketRadioConfig config;
  config.local_address = Ax25Address("N7AKR", 1);
  config.per_interrupt_cost = 0;  // measuring real cost, not modelled cost
  PacketRadioInterface driver(&sim, &serial.a(), "pr0", config);
  Bytes ip_payload(128, 0x33);
  Ax25Frame f = Ax25Frame::MakeUi(Ax25Address("N7AKR", 1), Ax25Address("KD7NM", 0),
                                  kPidIp, ip_payload);
  Bytes kiss_stream = KissEncodeData(f.Encode());
  for (auto _ : state) {
    serial.b().Write(kiss_stream);
    sim.RunAll();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kiss_stream.size()));
  double frames = static_cast<double>(driver.driver_stats().frames_in);
  state.counters["frames"] = frames;
  if (frames > 0) {
    state.counters["events/frame"] =
        static_cast<double>(sim.events_scheduled()) / frames;
    state.counters["interrupts/frame"] =
        static_cast<double>(driver.driver_stats().interrupts) / frames;
    state.counters["chars/interrupt"] = driver.chars_per_interrupt();
  }
}
BENCHMARK(BM_DriverReceivePath)
    ->Arg(0)  // per-byte (paper fidelity)
    ->Arg(1)  // silo/DMA batching
    ->ArgName("silo");

// Console output as usual, but each run is also recorded into the perf
// ledger as a banded wall-clock metric (adjusted real time per iteration).
class LedgerReporter : public benchmark::ConsoleReporter {
 public:
  explicit LedgerReporter(bench::BenchReport* rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      rep_->Wall(run.benchmark_name() + "_ns", run.GetAdjustedRealTime(),
                 "lower");
      auto bps = run.counters.find("bytes_per_second");
      if (bps != run.counters.end()) {
        rep_->Wall(run.benchmark_name() + "_Bps", bps->second.value, "higher");
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport* rep_;
};

}  // namespace
}  // namespace upr

int main(int argc, char** argv) {
  upr::bench::BenchReport rep("e5_interrupt_path", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  upr::LedgerReporter reporter(&rep);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return rep.Finish();
}
