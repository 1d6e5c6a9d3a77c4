#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "src/kiss/kiss.h"
#include "src/radio/channel.h"
#include "src/serial/serial_line.h"
#include "src/sim/simulator.h"
#include "src/tnc/command_tnc.h"
#include "src/trace/trace.h"

namespace upr {
namespace {

// Exact land time of the n-th byte (1-based) of a burst starting at t=0:
// round(n * 10 bits / baud), the cumulative-rounding rule SerialLine uses.
SimTime LandTime(std::uint64_t n, std::uint32_t baud) {
  return static_cast<SimTime>(std::llround(
      static_cast<double>(n) * 10.0 / baud * static_cast<double>(kSecond)));
}

// Calls `fn` once per received byte, however the line batches them.
void OnEachByte(SerialEndpoint& ep, std::function<void(std::uint8_t)> fn) {
  ep.set_receive_chunk_handler([fn = std::move(fn)](const std::uint8_t* d, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(d[i]);
    }
  });
}

TEST(SerialLineTest, DeliversBytesInOrder) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  Bytes got;
  OnEachByte(line.b(), [&](std::uint8_t b) { got.push_back(b); });
  line.a().Write(Bytes{1, 2, 3, 4});
  sim.RunAll();
  EXPECT_EQ(got, (Bytes{1, 2, 3, 4}));
}

TEST(SerialLineTest, ByteTimingMatchesBaudRate) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  // 10 bits per byte at 9600 baud, rounded to the nearest nanosecond.
  EXPECT_EQ(line.byte_time(), LandTime(1, 9600));
  std::vector<SimTime> arrivals;
  OnEachByte(line.b(), [&](std::uint8_t) { arrivals.push_back(sim.Now()); });
  line.a().Write(Bytes{0, 0, 0});
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each arrival is the *cumulative* rounded time, not n truncated additions.
  EXPECT_EQ(arrivals[0], LandTime(1, 9600));
  EXPECT_EQ(arrivals[1], LandTime(2, 9600));
  EXPECT_EQ(arrivals[2], LandTime(3, 9600));
}

TEST(SerialLineTest, NonDivisorBaudRateDoesNotDrift) {
  // 9600 baud: 1041666.67 ns/byte. The old per-byte truncation lost 2/3 ns
  // per byte (~0.06 ms/s of drift); cumulative rounding keeps the clock
  // within half a nanosecond of exact forever. 9600 bytes at 9600 baud with
  // 10-bit framing is exactly 10 seconds.
  Simulator sim;
  SerialLine line(&sim, 9600);
  SimTime last = 0;
  OnEachByte(line.b(), [&](std::uint8_t) { last = sim.Now(); });
  line.a().Write(Bytes(9600, 0x55));
  sim.RunAll();
  EXPECT_EQ(last, Seconds(10));
}

TEST(SerialLineTest, BacklogSerializesBursts) {
  Simulator sim;
  SerialLine line(&sim, 1200);
  int received = 0;
  OnEachByte(line.b(), [&](std::uint8_t) { ++received; });
  line.a().Write(Bytes(120, 0x55));  // one second of data at 1200 baud
  EXPECT_EQ(line.a().backlog(), 120u);
  sim.RunUntil(Milliseconds(500));
  EXPECT_EQ(received, 60);
  sim.RunAll();
  EXPECT_EQ(received, 120);
  EXPECT_EQ(line.a().backlog(), 0u);
}

TEST(SerialLineTest, FullDuplexDirectionsIndependent) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  int a_got = 0, b_got = 0;
  OnEachByte(line.a(), [&](std::uint8_t) { ++a_got; });
  OnEachByte(line.b(), [&](std::uint8_t) { ++b_got; });
  line.a().Write(Bytes(10, 1));
  line.b().Write(Bytes(10, 2));
  sim.RunAll();
  EXPECT_EQ(a_got, 10);
  EXPECT_EQ(b_got, 10);
  EXPECT_EQ(line.a().bytes_sent(), 10u);
  EXPECT_EQ(line.a().bytes_received(), 10u);
}

TEST(SerialLineTest, LaterWritesQueueBehindEarlier) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  std::vector<std::uint8_t> got;
  OnEachByte(line.b(), [&](std::uint8_t b) { got.push_back(b); });
  line.a().Write(Bytes{1});
  line.a().Write(Bytes{2});
  sim.RunAll();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2}));
  // Second byte lands a full byte-time after the first.
}

// --- Per-byte run order ------------------------------------------------------
//
// Only a direction's head byte sits in the Simulator heap; each byte waits
// under the seq it reserved at Write(). These pin the contract that makes
// that invisible: every byte runs exactly where an event scheduled at Write()
// would have, relative to probes and to other lines.

// Event log shared by a line's receiver and probe events.
struct OrderLog {
  std::vector<std::string> events;
  // Logs each delivery as the line's name and its bytes ("a1", "a1234").
  void Receive(SerialEndpoint& ep, const char* line) {
    ep.set_receive_chunk_handler([this, line](const std::uint8_t* d, std::size_t n) {
      std::string event = line;
      for (std::size_t i = 0; i < n; ++i) {
        event += std::to_string(d[i]);
      }
      events.push_back(event);
    });
  }
  void Probe(Simulator& sim, SimTime when, std::string name) {
    sim.ScheduleAt(when, [this, name] { events.push_back(name); });
  }
};

TEST(SerialOrderTest, ProbeScheduledAfterWriteRunsAfterByte) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  OrderLog log;
  log.Receive(line.b(), "a");
  line.a().Write(Bytes{1, 2, 3, 4, 5});
  // Same instant as byte 3, later seq: byte 3 first.
  log.Probe(sim, LandTime(3, 9600), "probe");
  sim.RunAll();
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"a1", "a2", "a3", "probe", "a4", "a5"}));
}

TEST(SerialOrderTest, ProbeScheduledBeforeWriteRunsBeforeByte) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  OrderLog log;
  log.Receive(line.b(), "a");
  // The line is already busy, so byte 4 queues behind bytes 1..3.
  line.a().Write(Bytes{1, 2});
  log.Probe(sim, LandTime(4, 9600), "before");
  line.a().Write(Bytes{3, 4, 5});
  log.Probe(sim, LandTime(4, 9600), "after");
  sim.RunAll();
  EXPECT_EQ(log.events, (std::vector<std::string>{"a1", "a2", "a3", "before",
                                                  "a4", "after", "a5"}));
}

TEST(SerialOrderTest, LinesWrittenAtOneInstantInterleaveInWriteOrder) {
  // Line b runs at half line a's rate, so b's k-th byte lands with a's
  // 2k-th: at each shared instant the line written first delivers first.
  Simulator sim;
  SerialLine fast(&sim, 9600);
  SerialLine slow(&sim, 4800);
  ASSERT_EQ(LandTime(2, 9600), LandTime(1, 4800));
  ASSERT_EQ(LandTime(4, 9600), LandTime(2, 4800));
  OrderLog log;
  log.Receive(fast.b(), "a");
  log.Receive(slow.b(), "b");
  fast.a().Write(Bytes{1, 2, 3, 4});
  slow.a().Write(Bytes{1, 2});
  sim.RunAll();
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"a1", "a2", "b1", "a3", "a4", "b2"}));
}

TEST(SerialOrderTest, LineThatNeverDrainsKeepsOrderAndTiming) {
  // A write lands every 3 byte-times, 4 bytes each, so the line never goes
  // idle and its FIFO compacts the delivered prefix on later writes.
  Simulator sim;
  SerialLine line(&sim, 9600);
  Bytes got;
  std::vector<SimTime> arrivals;
  OnEachByte(line.b(), [&](std::uint8_t b) {
    got.push_back(b);
    arrivals.push_back(sim.Now());
  });
  Bytes sent;
  for (int w = 0; w < 200; ++w) {
    sim.RunUntil(LandTime(3 * static_cast<std::uint64_t>(w), 9600));
    Bytes chunk;
    for (int i = 0; i < 4; ++i) {
      chunk.push_back(static_cast<std::uint8_t>(sent.size()));
      sent.push_back(chunk.back());
    }
    line.a().Write(chunk);
    EXPECT_GT(line.a().backlog(), 0u);
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunAll();
  EXPECT_EQ(got, sent);
  ASSERT_EQ(arrivals.size(), sent.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    ASSERT_EQ(arrivals[i], LandTime(i + 1, 9600)) << "byte " << i;
  }
}

TEST(SerialOrderTest, BurstHoldsOneHeapEntryAndOneSeqPerByte) {
  Simulator sim;
  SerialLine line(&sim, 1200);
  std::size_t received = 0;
  OnEachByte(line.b(), [&](std::uint8_t) { ++received; });
  line.a().Write(Bytes(100000, 0));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(line.a().backlog(), 100000u);
  EXPECT_EQ(sim.events_scheduled(), 100000u);
  sim.RunAll();
  EXPECT_EQ(received, 100000u);
  EXPECT_EQ(line.a().backlog(), 0u);
  // Re-scheduling the head takes no seq: still exactly one per byte.
  EXPECT_EQ(sim.events_scheduled(), 100000u);
  EXPECT_EQ(sim.executed_events(), 100000u);
  EXPECT_LE(sim.pool_capacity(), 2u);
}

// --- Runs to a frame end -----------------------------------------------------
//
// A per-byte receiver that names a frame end (KissTnc at FEND) takes a run
// of bytes per delivery: the run closes at every frame-end byte and at the
// last byte of each Write(), and runs under its closing byte's key. Every
// byte still holds its own key, and the counters read per byte against it.

constexpr std::uint8_t kEnd = kKissFend;

// Logs each delivery with its land time: "<bytes>@<ns>".
struct RunLog {
  Simulator* sim;
  std::vector<std::string> runs;
  void Receive(SerialEndpoint& ep) {
    ep.set_receive_chunk_handler(
        [this](const std::uint8_t* d, std::size_t n) {
          std::string run;
          for (std::size_t i = 0; i < n; ++i) {
            run += d[i] == kEnd ? "|" : std::to_string(d[i]);
          }
          runs.push_back(run + "@" + std::to_string(sim->Now()));
        },
        kEnd);
  }
};

std::string At(const std::string& run, std::uint64_t byte) {
  return run + "@" + std::to_string(LandTime(byte, 9600));
}

// What a probe reads off a line at its instant.
struct Reading {
  std::uint64_t backlog, tx_room, received, deliveries;
  bool operator==(const Reading&) const = default;
};

// Probes byte 4's land instant before and after the Write that carries it
// (as ProbeScheduledBeforeWriteRunsBeforeByte does), on a line whose
// receiver names `frame_end` or none.
std::vector<Reading> ProbeByteFour(std::optional<std::uint8_t> frame_end) {
  Simulator sim;
  SerialLineConfig cfg;
  cfg.max_backlog = 100;
  SerialLine line(&sim, cfg);
  line.b().set_receive_chunk_handler([](const std::uint8_t*, std::size_t) {}, frame_end);
  std::vector<Reading> readings;
  auto probe = [&] {
    sim.ScheduleAt(LandTime(4, 9600), [&] {
      readings.push_back({line.a().backlog(), line.a().tx_room(),
                          line.b().bytes_received(), line.b().deliveries()});
    });
  };
  line.a().Write(Bytes{1, 2});
  probe();
  line.a().Write(Bytes{3, 4, 5});
  probe();
  sim.RunAll();
  return readings;
}

TEST(SerialRunTest, SameInstantProbesReadPerByteCounters) {
  const std::vector<Reading> per_byte = ProbeByteFour(std::nullopt);
  const std::vector<Reading> runs = ProbeByteFour(kEnd);
  // Before byte 4 runs three bytes have landed; after it, four. Byte 4 is
  // in the middle of the run 3,4,5, so only its key says which.
  const std::vector<Reading> expected = {{2, 98, 3, 3}, {1, 99, 4, 4}};
  EXPECT_EQ(per_byte, expected);
  EXPECT_EQ(runs, expected);
}

TEST(SerialRunTest, FrameSplitAcrossWritesClosesAtItsFend) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  RunLog log{&sim, {}};
  log.Receive(line.b());
  line.a().Write(Bytes{kEnd, 1, 2});
  line.a().Write(Bytes{3, kEnd});
  sim.RunAll();
  EXPECT_EQ(log.runs, (std::vector<std::string>{At("|", 1), At("12", 3), At("3|", 5)}));
  EXPECT_EQ(line.a().events_scheduled(), 3u);
  EXPECT_EQ(sim.executed_events(), 3u);
  // One seq per byte, as per-byte delivery reserves.
  EXPECT_EQ(sim.events_scheduled(), 5u);
  EXPECT_EQ(line.b().deliveries(), 5u);
  EXPECT_DOUBLE_EQ(line.b().bytes_per_event(), 1.0);
}

TEST(SerialRunTest, TwoFramesInOneWriteCloseSeparately) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  RunLog log{&sim, {}};
  log.Receive(line.b());
  // Probes at byte 4's instant (the first frame's closing FEND) count the
  // runs delivered so far: one scheduled before the Write runs first.
  std::vector<std::size_t> seen;
  auto probe = [&] { sim.ScheduleAt(LandTime(4, 9600), [&] { seen.push_back(log.runs.size()); }); };
  probe();
  line.a().Write(Bytes{kEnd, 1, 2, kEnd, kEnd, 3, 4, kEnd});
  probe();
  sim.RunAll();
  EXPECT_EQ(log.runs, (std::vector<std::string>{At("|", 1), At("12|", 4), At("|", 5),
                                                At("34|", 8)}));
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2}));
}

TEST(SerialRunTest, RunUntilMidFrameShowsTheLandedBytes) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  line.a().set_name("host");
  line.b().set_name("tnc");
  RunLog log{&sim, {}};
  log.Receive(line.b());
  trace::Tracer tracer(&sim);
  trace::ScopedInstall install(&tracer);
  line.a().Write(Bytes{kEnd, 1, 2, 3, 4, 5, 6, 7, 8, 9, kEnd});
  sim.RunUntil(LandTime(6, 9600));
  EXPECT_EQ(log.runs, (std::vector<std::string>{At("|", 1)}));
  EXPECT_EQ(line.b().bytes_received(), 6u);
  EXPECT_EQ(line.b().deliveries(), 6u);
  EXPECT_EQ(line.a().backlog(), 5u);
  // One enqueue record and a deliver record for each landed byte, stamped
  // with its land time.
  tracer.Flush();
  EXPECT_EQ(tracer.stats().per_layer[static_cast<int>(trace::Layer::kSerial)], 7u);
  std::vector<SimTime> delivered;
  for (const trace::Entry* e : tracer.RingSnapshot()) {
    if (e->kind == trace::Kind::kSerialDeliver) {
      EXPECT_EQ(e->iface, "tnc");
      delivered.push_back(e->ts);
    }
  }
  ASSERT_EQ(delivered.size(), 6u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], LandTime(i + 1, 9600)) << "byte " << i + 1;
  }
  sim.RunAll();
  tracer.Flush();
  EXPECT_EQ(tracer.stats().per_layer[static_cast<int>(trace::Layer::kSerial)], 12u);
  EXPECT_EQ(log.runs.back(), At("123456789|", 11));
}

TEST(SerialRunTest, ReceiverWithoutFrameEndTakesOneDeliveryPerByte) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  OrderLog log;
  log.Receive(line.b(), "a");
  line.a().Write(Bytes{kEnd, 1, 2, kEnd});
  sim.RunAll();
  EXPECT_EQ(log.events, (std::vector<std::string>{"a192", "a1", "a2", "a192"}));
  EXPECT_EQ(line.a().events_scheduled(), 4u);
  EXPECT_EQ(sim.executed_events(), 4u);
}

TEST(SerialRunTest, CommandModeTncTakesOneDeliveryPerCharacter) {
  // The TNC-2 command interpreter works per character, so it names no frame
  // end: a typed line costs the terminal's line an event per character.
  Simulator sim;
  RadioChannel channel(&sim, RadioChannelConfig{.bit_rate = 9600}, 1);
  SerialLine line(&sim, 9600);
  std::string screen;
  line.a().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    screen.append(reinterpret_cast<const char*>(d), n);
  });
  CommandTncConfig cfg;
  cfg.mycall = *Ax25Address::Parse("KD7NM");
  CommandModeTnc tnc(&sim, &channel, &line.b(), "KD7NM", cfg, 1);
  sim.RunUntil(Seconds(1));
  line.a().Write(BytesFromString("MYCALL\r\n"));
  sim.RunUntil(Seconds(2));
  EXPECT_NE(screen.find("MYCALL KD7NM"), std::string::npos);
  EXPECT_EQ(line.a().events_scheduled(), 8u);
  EXPECT_EQ(line.b().deliveries(), 8u);
}

TEST(SerialRunTest, BusyLineHoldsOneHeapEntry) {
  Simulator sim;
  SerialLine line(&sim, 9600);
  RunLog log{&sim, {}};
  log.Receive(line.b());
  Bytes frames;
  for (int f = 0; f < 50; ++f) {
    frames.push_back(kEnd);
    frames.insert(frames.end(), 20, static_cast<std::uint8_t>(f));
    frames.push_back(kEnd);
  }
  line.a().Write(frames);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(LandTime(500, 9600) + 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(line.a().backlog(), frames.size() - 500);
  sim.RunAll();
  EXPECT_EQ(log.runs.size(), 100u);
  EXPECT_EQ(line.a().events_scheduled(), 100u);
  EXPECT_EQ(sim.events_scheduled(), frames.size());
  EXPECT_EQ(line.b().bytes_received(), frames.size());
}

// --- Silo (DZ/DH batched) mode ---------------------------------------------

SerialLineConfig SiloConfig(std::uint32_t baud, std::size_t depth,
                            SimTime timeout = 0) {
  SerialLineConfig c;
  c.baud_rate = baud;
  c.mode = SerialLineConfig::Mode::kSilo;
  c.silo_depth = depth;
  c.silo_timeout = timeout;
  return c;
}

TEST(SerialSiloTest, DeliversFullSilosAsChunks) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 16));
  std::vector<std::size_t> chunk_sizes;
  Bytes got;
  line.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    chunk_sizes.push_back(n);
    got.insert(got.end(), d, d + n);
  });
  Bytes sent(40, 0);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i);
  }
  line.a().Write(sent);
  sim.RunAll();
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{16, 16, 8}));
  EXPECT_EQ(got, sent);
  EXPECT_EQ(line.a().events_scheduled(), 3u);
  EXPECT_EQ(line.b().deliveries(), 3u);
  EXPECT_DOUBLE_EQ(line.b().bytes_per_event(), 40.0 / 3.0);
}

TEST(SerialSiloTest, ChunkArrivesWhenLastByteLands) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 16));
  std::vector<SimTime> arrivals;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t) { arrivals.push_back(sim.Now()); });
  line.a().Write(Bytes(20, 0x42));
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 2u);
  // Full silo: at the 16th byte's land time. Partial: at the 20th's (no
  // timeout configured).
  EXPECT_EQ(arrivals[0], LandTime(16, 9600));
  EXPECT_EQ(arrivals[1], LandTime(20, 9600));
}

TEST(SerialSiloTest, SiloAlarmFlushesPartialAfterTimeout) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 64, Milliseconds(5)));
  std::vector<SimTime> arrivals;
  std::vector<std::size_t> sizes;
  line.b().set_receive_chunk_handler([&](const std::uint8_t*, std::size_t n) {
    arrivals.push_back(sim.Now());
    sizes.push_back(n);
  });
  line.a().Write(Bytes(10, 0x11));
  sim.RunAll();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(sizes[0], 10u);
  EXPECT_EQ(arrivals[0], LandTime(10, 9600) + Milliseconds(5));
}

TEST(SerialSiloTest, NewBytesExtendArmedAlarm) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 64, Milliseconds(50)));
  std::vector<std::size_t> sizes;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t n) { sizes.push_back(n); });
  line.a().Write(Bytes(4, 1));
  // Before the alarm fires, more bytes arrive: they join the same silo.
  sim.RunUntil(Milliseconds(10));
  line.a().Write(Bytes(4, 2));
  sim.RunAll();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{8}));
}

TEST(SerialSiloTest, SameByteStreamAsPerByteModeWithFewerEvents) {
  // The acceptance criterion: the silo path must deliver a byte-identical
  // stream with >= 3x fewer delivery events than per-byte mode.
  Bytes sent;
  for (int i = 0; i < 500; ++i) {
    sent.push_back(static_cast<std::uint8_t>(i * 7 + 3));
  }

  Simulator sim_pb;
  SerialLine per_byte(&sim_pb, 9600);
  Bytes got_pb;
  per_byte.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got_pb.insert(got_pb.end(), d, d + n);
  });
  per_byte.a().Write(sent);
  sim_pb.RunAll();

  Simulator sim_silo;
  SerialLine silo(&sim_silo, SiloConfig(9600, 16));
  Bytes got_silo;
  silo.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    got_silo.insert(got_silo.end(), d, d + n);
  });
  silo.a().Write(sent);
  sim_silo.RunAll();

  EXPECT_EQ(got_pb, sent);
  EXPECT_EQ(got_silo, sent);
  EXPECT_EQ(per_byte.a().events_scheduled(), 500u);
  EXPECT_LE(silo.a().events_scheduled() * 3, per_byte.a().events_scheduled());
  EXPECT_LE(sim_silo.events_scheduled() * 3, sim_pb.events_scheduled());
}

// --- Silo run order -----------------------------------------------------------
//
// A silo is a delivery like a per-byte line's byte: a full silo keeps the key
// it took when it filled, the open partial silo the key of the last Write()
// that touched it, and only the head delivery sits in the heap.

TEST(SerialSiloOrderTest, FullSiloRunsWhereItsFillWouldHaveScheduledIt) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 4));
  OrderLog log;
  log.Receive(line.b(), "a");
  // The line is already busy, so the second silo queues behind the first.
  line.a().Write(Bytes{1, 2, 3, 4});
  log.Probe(sim, LandTime(8, 9600), "before");
  line.a().Write(Bytes{5, 6, 7, 8});
  log.Probe(sim, LandTime(8, 9600), "after");
  sim.RunAll();
  EXPECT_EQ(log.events,
            (std::vector<std::string>{"a1234", "before", "a5678", "after"}));
}

TEST(SerialSiloOrderTest, ExtendingAPartialSiloRekeysIt) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 16, Milliseconds(5)));
  OrderLog log;
  log.Receive(line.b(), "a");
  line.a().Write(Bytes{1, 2});
  // Where the extended silo will land, scheduled before the Write that
  // moves it there.
  log.Probe(sim, LandTime(4, 9600) + Milliseconds(5), "probe");
  line.a().Write(Bytes{3, 4});
  sim.RunAll();
  EXPECT_EQ(log.events, (std::vector<std::string>{"probe", "a1234"}));
}

TEST(SerialSiloOrderTest, BurstHoldsOneHeapEntryAndOneSeqPerSilo) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(1200, 16));
  std::size_t received = 0;
  line.b().set_receive_chunk_handler(
      [&](const std::uint8_t*, std::size_t n) { received += n; });
  line.a().Write(Bytes(100000, 0));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.events_scheduled(), 6250u);
  sim.RunAll();
  EXPECT_EQ(received, 100000u);
  EXPECT_EQ(sim.events_scheduled(), 6250u);
  EXPECT_EQ(sim.executed_events(), 6250u);
  EXPECT_LE(sim.pool_capacity(), 2u);
}

TEST(SerialSiloOrderTest, WriteFromTheHandlerLeavesItsChunkIntact) {
  // The receiver answers the first silos with bursts onto the very direction
  // that is delivering, growing its FIFO past the storage it had; the chunk
  // in hand is read only after that Write.
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 16));
  Bytes sent(40, 0);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i);
  }
  Bytes burst(1000, 0);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    burst[i] = static_cast<std::uint8_t>(i * 7 + 100);
  }
  int answers = 2;
  Bytes got;
  std::vector<std::size_t> sizes;
  line.b().set_receive_chunk_handler([&](const std::uint8_t* d, std::size_t n) {
    if (answers > 0) {
      --answers;
      line.a().Write(burst);
    }
    got.insert(got.end(), d, d + n);
    sizes.push_back(n);
  });
  line.a().Write(sent);
  sim.RunAll();
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 16u);
  EXPECT_EQ(sizes[1], 16u);
  Bytes expected = sent;
  expected.insert(expected.end(), burst.begin(), burst.end());
  expected.insert(expected.end(), burst.begin(), burst.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(line.a().backlog(), 0u);
}

TEST(SerialSiloOrderTest, DepthZeroDeliversByteByByte) {
  Simulator sim;
  SerialLine line(&sim, SiloConfig(9600, 0, Milliseconds(5)));
  OrderLog log;
  log.Receive(line.b(), "a");
  line.a().Write(Bytes{1, 2, 3});
  sim.RunAll();
  EXPECT_EQ(log.events, (std::vector<std::string>{"a1", "a2", "a3"}));
  EXPECT_EQ(line.a().events_scheduled(), 3u);
  EXPECT_EQ(sim.events_scheduled(), 3u);
}

// --- Bounded transmit FIFO ---------------------------------------------------

TEST(SerialBacklogCapTest, OverflowDropsWithStatInsteadOfBuffering) {
  Simulator sim;
  SerialLineConfig cfg;
  cfg.baud_rate = 1200;
  cfg.max_backlog = 100;
  SerialLine line(&sim, cfg);
  int received = 0;
  OnEachByte(line.b(), [&](std::uint8_t) { ++received; });
  line.a().Write(Bytes(250, 0x77));
  // FIFO capped at 100: 150 bytes dropped, one overrun event recorded.
  EXPECT_EQ(line.a().backlog(), 100u);
  EXPECT_EQ(line.a().overruns(), 1u);
  EXPECT_EQ(line.a().bytes_dropped(), 150u);
  EXPECT_EQ(line.a().bytes_sent(), 100u);
  sim.RunAll();
  EXPECT_EQ(received, 100);
  // Once drained, new writes go through again.
  line.a().Write(Bytes(10, 0x01));
  sim.RunAll();
  EXPECT_EQ(received, 110);
  EXPECT_EQ(line.a().overruns(), 1u);
}

TEST(SerialBacklogCapTest, UnboundedByDefault) {
  Simulator sim;
  SerialLine line(&sim, 1200);
  line.a().Write(Bytes(100000, 0));
  EXPECT_EQ(line.a().backlog(), 100000u);
  EXPECT_EQ(line.a().overruns(), 0u);
}

}  // namespace
}  // namespace upr
