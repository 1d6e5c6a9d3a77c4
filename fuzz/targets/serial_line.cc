// SerialLine harness: the first stateful target. A line the fuzzer
// configures (per-byte or silo, depth, alarm timeout, baud, backlog cap, and
// for each receiver whether it names a frame end) runs a script the fuzzer
// writes: writes from either end, probes scheduled at chosen instants (some
// of them writing as well), handler write-backs and RunUntil cuts.
//
// The oracle is a naive model of the same line on a Simulator of its own:
// one ScheduleAt per delivery event, a silo as a byte buffer plus an alarm
// (the paper's DZ), nothing reserved and nothing kept in a FIFO. A receiver
// that names a frame end gets its bytes in runs closed at each frame-end
// byte and at a write's last byte, which the model applies byte by byte.
// The real line (one heap entry per busy direction, reserved seqs, runs
// landed by key) must match it exactly: every handler call (time and bytes),
// every counter of both ends at every probe, and every kSerialDeliver trace
// record. Event granularity must never show.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"
#include "src/serial/serial_line.h"
#include "src/trace/trace.h"

namespace upr::fuzz {

namespace {

constexpr std::uint8_t kFrameEnd = 0xC0;  // KISS FEND, the byte KissTnc names
// Bounds that keep one input's deliveries inside the trace ring.
constexpr std::size_t kMaxOps = 128;
constexpr std::size_t kRingEntries = 8192;
constexpr std::size_t kMaxWriteBacks = 16;
const char* const kNames[2] = {"a", "b"};

// Reads the fuzzer's choices off the input; past its end every read is 0.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : p_(data), end_(data + size) {}
  bool empty() const { return p_ == end_; }
  std::uint8_t Byte() { return p_ == end_ ? 0 : *p_++; }
  Bytes Take(std::size_t n) {
    n = std::min<std::size_t>(n, static_cast<std::size_t>(end_ - p_));
    Bytes out(p_, p_ + n);
    p_ += n;
    return out;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

struct Setup {
  SerialLineConfig cfg;
  bool names_frame_end[2] = {false, false};  // receiver at a, at b
};

// A handler's reply to the frame ends it receives: `from_receiver` writes
// back from the receiving end, otherwise the sending end writes more onto
// the direction being delivered.
struct WriteBack {
  bool from_receiver;
  Bytes bytes;
};

struct Op {
  enum Kind { kWrite, kProbe, kCut } kind;
  int side = 0;         // the writing end
  Bytes bytes;          // a write's bytes (also a probe's, when it writes)
  bool writes = false;  // a probe that also writes
  std::uint8_t sel = 0;
  std::uint8_t off = 0;
};

struct Script {
  Setup setup;
  std::vector<WriteBack> write_backs;
  std::vector<Op> ops;
};

Script Parse(Reader* in) {
  Script s;
  const std::uint8_t mode = in->Byte();
  s.setup.cfg.mode = (mode & 1) != 0 ? SerialLineConfig::Mode::kSilo
                                     : SerialLineConfig::Mode::kPerByte;
  s.setup.names_frame_end[0] = (mode & 2) != 0;
  s.setup.names_frame_end[1] = (mode & 4) != 0;
  s.setup.cfg.silo_depth = (mode >> 3) % 21;  // 0 and 1 included
  const std::uint8_t line = in->Byte();
  static constexpr std::uint32_t kBauds[] = {9600, 1200, 19200, 300, 38400, 4800, 115200, 7777};
  static constexpr SimTime kTimeouts[] = {0, 1, 100 * kMicrosecond, kMillisecond,
                                          5 * kMillisecond, 40 * kMillisecond};
  s.setup.cfg.baud_rate = kBauds[line % 8];
  s.setup.cfg.silo_timeout = kTimeouts[(line >> 3) % 6];
  const std::uint8_t cap = in->Byte();
  s.setup.cfg.max_backlog = cap < 128 ? 0 : cap - 127u;
  const std::size_t n_write_backs = in->Byte() % (kMaxWriteBacks + 1);
  for (std::size_t i = 0; i < n_write_backs; ++i) {
    const std::uint8_t h = in->Byte();
    s.write_backs.push_back({(h & 0x80) != 0, in->Take(h % 32)});
  }
  while (!in->empty() && s.ops.size() < kMaxOps) {
    const std::uint8_t h = in->Byte();
    Op op;
    op.side = (h >> 2) & 1;
    switch (h % 3) {
      case 0:
        op.kind = Op::kWrite;
        op.bytes = in->Take(in->Byte() % 40);
        break;
      case 1:
        op.kind = Op::kProbe;
        op.sel = in->Byte();
        op.off = in->Byte();
        op.writes = (h & 8) != 0;
        if (op.writes) {
          op.bytes = in->Take(in->Byte() % 24);
        }
        break;
      default:
        op.kind = Op::kCut;
        op.sel = in->Byte();
        op.off = in->Byte();
        break;
    }
    s.ops.push_back(std::move(op));
  }
  return s;
}

// Counters one end shows.
struct Counters {
  std::uint64_t v[8];
  std::string Format() const {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "sent %llu recv %llu backlog %llu room %llu events %llu "
                  "intr %llu overruns %llu dropped %llu",
                  static_cast<unsigned long long>(v[0]), static_cast<unsigned long long>(v[1]),
                  static_cast<unsigned long long>(v[2]), static_cast<unsigned long long>(v[3]),
                  static_cast<unsigned long long>(v[4]), static_cast<unsigned long long>(v[5]),
                  static_cast<unsigned long long>(v[6]), static_cast<unsigned long long>(v[7]));
    return buf;
  }
};

std::string Hex(ByteView b) { return HexDump(b.data(), b.size()); }

// What a run records, in run order. The real line and the model each fill
// one, and the two must be equal.
struct Outcome {
  std::vector<std::string> log;       // handler calls and probes
  std::vector<std::string> delivers;  // kSerialDeliver records
};

// The script, run against the real line or the model: both share the
// probes, the write-backs and the log format, and differ only in the line.
class Harness {
 public:
  Harness(const Script& script, Outcome* out) : script_(script), out_(out) {}
  virtual ~Harness() = default;

  Simulator& sim() { return sim_; }

  // Applies op `i` of the script; a probe or a cut happens at `t`.
  void Apply(std::size_t i, SimTime t) {
    const Op& op = script_.ops[i];
    switch (op.kind) {
      case Op::kWrite:
        Write(op.side, op.bytes);
        break;
      case Op::kProbe:
        sim_.ScheduleAt(t, [this, &op, i] {
          Log("probe " + std::to_string(i) + " " + ReadBoth());
          if (op.writes) {
            Write(op.side, op.bytes);
          }
        });
        break;
      case Op::kCut:
        sim_.RunUntil(t);
        Log("cut " + ReadBoth());
        break;
    }
  }

  void Finish() {
    sim_.RunAll();
    Log("end " + ReadBoth());
  }

 protected:
  virtual void Write(int side, ByteView bytes) = 0;
  virtual Counters Read(int side) const = 0;

  // A receiver's handler: logs the chunk, and answers each frame end in it
  // with the next write-back, if one is left.
  void Receive(int side, ByteView chunk) {
    Log("rx " + std::string(kNames[side]) + " " + Hex(chunk));
    for (std::uint8_t b : chunk) {
      if (b == kFrameEnd && next_write_back_ < script_.write_backs.size()) {
        const WriteBack& wb = script_.write_backs[next_write_back_++];
        Write(wb.from_receiver ? side : 1 - side, wb.bytes);
      }
    }
  }

  std::string ReadBoth() const {
    return "a{" + Read(0).Format() + "} b{" + Read(1).Format() + "}";
  }

  void Log(const std::string& what) {
    out_->log.push_back("t=" + std::to_string(sim_.Now()) + " " + what);
  }

  Simulator sim_;
  const Script& script_;
  Outcome* out_;
  std::size_t next_write_back_ = 0;
};

class RealLine : public Harness {
 public:
  RealLine(const Script& script, Outcome* out)
      : Harness(script, out), line_(&sim_, script.setup.cfg) {
    for (int side : {0, 1}) {
      End(side).set_name(kNames[side]);
      std::optional<std::uint8_t> frame_end;
      if (script.setup.names_frame_end[side]) {
        frame_end = kFrameEnd;
      }
      End(side).set_receive_chunk_handler(
          [this, side](const std::uint8_t* data, std::size_t len) {
            Receive(side, ByteView(data, len));
          },
          frame_end);
    }
  }

 private:
  SerialEndpoint& End(int side) { return side == 0 ? line_.a() : line_.b(); }
  const SerialEndpoint& End(int side) const { return side == 0 ? line_.a() : line_.b(); }

  void Write(int side, ByteView bytes) override { End(side).Write(bytes); }
  Counters Read(int side) const override {
    const SerialEndpoint& e = End(side);
    return {{e.bytes_sent(), e.bytes_received(), e.backlog(), e.tx_room(),
             e.events_scheduled(), e.deliveries(), e.overruns(), e.bytes_dropped()}};
  }

  SerialLine line_;
};

// The reference: each direction is a timing epoch, a silo buffer and its
// alarm; every delivery is a ScheduleAt of its own.
class ModelLine : public Harness {
 public:
  ModelLine(const Script& script, Outcome* out)
      : Harness(script, out),
        cfg_(script.setup.cfg),
        depth_(cfg_.mode == SerialLineConfig::Mode::kSilo
                   ? std::max<std::size_t>(cfg_.silo_depth, 1)
                   : 1) {}

  // Where a probe or a cut lands: a byte already on the wire, the k-th
  // byte of a write made now, or an arbitrary instant; then nudged by a
  // nanosecond either way or by the alarm timeout.
  SimTime PickTime(std::uint8_t sel, std::uint8_t off) const {
    const Dir& d = dirs_[sel & 1];
    const std::size_t k = sel >> 3;
    SimTime t;
    switch ((sel >> 1) & 3) {
      case 0:
        t = d.lands.empty() ? sim_.Now() : d.lands[k % d.lands.size()];
        break;
      case 1:
        t = d.busy_until <= sim_.Now()
                ? sim_.Now() + Transfer(k + 1)
                : d.epoch + Transfer(d.in_epoch + k + 1);
        break;
      default:
        t = sim_.Now() + static_cast<SimTime>(k) * 137 * kMicrosecond;
        break;
    }
    static constexpr SimTime kNudge[] = {0, 0, -1, 1};
    t += (off & 4) != 0 ? cfg_.silo_timeout : kNudge[off & 3];
    return std::max(t, sim_.Now());
  }

 private:
  struct Dir {
    SimTime busy_until = 0;
    SimTime epoch = 0;
    std::uint64_t in_epoch = 0;
    Bytes silo;
    std::optional<std::uint64_t> alarm;
    std::vector<SimTime> lands;  // every accepted byte's land time
    Bytes run;                   // a frame-end receiver's bytes not yet handed over
    // The sending end's counters, then the receiving end's.
    std::uint64_t sent = 0, backlog = 0, events = 0, overruns = 0, dropped = 0;
    std::uint64_t received = 0, interrupts = 0;
  };

  // 10 bits per byte, rounded once: the line's own formula.
  SimTime Transfer(std::uint64_t n) const {
    return static_cast<SimTime>(std::llround(static_cast<double>(n) * 10.0 /
                                             static_cast<double>(cfg_.baud_rate) *
                                             static_cast<double>(kSecond)));
  }
  bool Runs(int side) const {
    return depth_ == 1 && script_.setup.names_frame_end[1 - side];
  }
  std::uint64_t Room(const Dir& d) const {
    if (cfg_.max_backlog == 0) {
      return UINT64_MAX;
    }
    return d.backlog >= cfg_.max_backlog ? 0 : cfg_.max_backlog - d.backlog;
  }

  void Write(int side, ByteView bytes) override {
    Dir& d = dirs_[side];
    if (d.busy_until <= sim_.Now()) {
      d.busy_until = d.epoch = sim_.Now();
      d.in_epoch = 0;
    }
    const std::size_t n = std::min<std::uint64_t>(bytes.size(), Room(d));
    if (n != bytes.size()) {
      ++d.overruns;
      d.dropped += bytes.size() - n;
    }
    d.sent += n;
    d.backlog += n;
    for (std::size_t i = 0; i < n; ++i) {
      d.busy_until = d.epoch + Transfer(++d.in_epoch);
      d.lands.push_back(d.busy_until);
      d.silo.push_back(bytes[i]);
      if (d.silo.size() == depth_) {
        // A full silo interrupts when its last byte lands. A frame-end
        // receiver acts only at a frame end or a write's last byte.
        const bool acts = !Runs(side) || bytes[i] == kFrameEnd || i + 1 == n;
        d.events += acts ? 1 : 0;
        sim_.ScheduleAt(d.busy_until, [this, side, chunk = d.silo, acts] {
          Deliver(side, chunk, acts);
        });
        d.silo.clear();
      }
    }
    if (d.alarm) {
      sim_.Cancel(*d.alarm);
      d.alarm.reset();
    }
    if (!d.silo.empty()) {
      // The silo alarm re-arms at every write.
      d.alarm = sim_.ScheduleAt(d.busy_until + cfg_.silo_timeout, [this, side] {
        Dir& dir = dirs_[side];
        dir.alarm.reset();
        ++dir.events;
        Bytes chunk;
        chunk.swap(dir.silo);
        Deliver(side, chunk, true);
      });
    }
  }

  void Deliver(int side, const Bytes& chunk, bool acts) {
    Dir& d = dirs_[side];
    d.backlog -= chunk.size();
    d.received += chunk.size();
    d.interrupts += Runs(side) ? chunk.size() : 1;
    out_->delivers.push_back(std::to_string(sim_.Now()) + " " + kNames[1 - side] + " " +
                             Hex(chunk));
    d.run.insert(d.run.end(), chunk.begin(), chunk.end());
    if (acts) {
      Bytes run;
      run.swap(d.run);
      Receive(1 - side, run);
    }
  }

  Counters Read(int side) const override {
    const Dir& tx = dirs_[side];
    const Dir& rx = dirs_[1 - side];
    return {{tx.sent, rx.received, tx.backlog, Room(tx), tx.events, rx.interrupts,
             tx.overruns, tx.dropped}};
  }

  SerialLineConfig cfg_;
  std::size_t depth_;
  Dir dirs_[2];
};

// Prints where two records part, so a crash report says what diverged.
void ReportDivergence(const char* what, const std::vector<std::string>& got,
                      const std::vector<std::string>& want) {
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) {
    ++i;
  }
  if (i == got.size() && i == want.size()) {
    return;
  }
  std::fprintf(stderr, "serial_line: %s differs at entry %zu\n  line:  %s\n  model: %s\n",
               what, i, i < got.size() ? got[i].c_str() : "(none)",
               i < want.size() ? want[i].c_str() : "(none)");
}

}  // namespace

int RunSerialLine(const std::uint8_t* data, std::size_t size) {
  if (size > (1u << 14)) {
    return 0;
  }
  Reader in(data, size);
  const Script script = Parse(&in);

  // Both run the script in lockstep, op by op, each on its own Simulator;
  // the model picks every probe and cut instant from its state there.
  Outcome want;
  Outcome got;
  ModelLine model(script, &want);
  RealLine real(script, &got);
  trace::TracerConfig trace_config;
  trace_config.ring_capacity = kRingEntries;
  trace::Tracer tracer(&real.sim(), trace_config);
  trace::ScopedInstall install(&tracer);
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const Op& op = script.ops[i];
    const SimTime t = op.kind == Op::kWrite ? 0 : model.PickTime(op.sel, op.off);
    model.Apply(i, t);
    real.Apply(i, t);
  }
  model.Finish();
  real.Finish();
  tracer.Flush();
  FUZZ_REQUIRE(tracer.stats().ring_evicted == 0);
  for (const trace::Entry* e : tracer.RingSnapshot()) {
    if (e->kind == trace::Kind::kSerialDeliver) {
      got.delivers.push_back(std::to_string(e->ts) + " " + e->iface + " " + Hex(e->data));
    }
  }
  ReportDivergence("handler log", got.log, want.log);
  FUZZ_REQUIRE(got.log == want.log);
  ReportDivergence("kSerialDeliver records", got.delivers, want.delivers);
  FUZZ_REQUIRE(got.delivers == want.delivers);
  return 0;
}

}  // namespace upr::fuzz
