// perfbench — the repository benchmark runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans FILE]
//
// A run builds one workload's scenario (from the workload's knobs and the
// seed) several times to time set-up, then repeats it while another
// repetition fits in `--seconds` of wall time (at least once), and checks
// that every repetition reproduces the same simulation outputs.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the untraced and the traced serial merge, a counting pass and a codec
// replay, and reports the per-layer metrics. The last line of standard
// output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// `attempted` counts the simulated operations (pings or transfers) of the
// measured repetitions; `failed` counts operations that failed an output
// check. Losses on the simulated air are results, reported in
// failed_ops_ratio. Exit status: 0 on success, 1 when an output check fails
// or no operation completes, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/scenario.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/ax25/frame.h"
#include "src/kiss/kiss.h"
#include "src/net/ipv4.h"
#include "src/radio/channel.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using upr::ShardSet;
using upr::SimTime;

// Set-up samples per end-to-end run, taken back to back before the first
// repetition; the reported setup_s is their median.
constexpr int kSetupSamples = 101;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks, p in [0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *v != '-' && *end == '\0';
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 3600) {
        return false;
      }
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return false;
      }
      a->trace = v[0] - '0';
    } else if (arg == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && have_seed && a->seconds > 0 && a->trace >= 0;
}

// Repetitions of one scenario on one executor.
// Each repetition's slices are grouped into this many chunks; rates are
// medians over chunks, so a burst of interference on a shared host moves a
// few chunks instead of the whole figure.
constexpr int kChunksPerRep = 10;

// On a shared host one virtual CPU can run the simulator at two thirds of
// its siblings' speed for minutes at a time (a busy neighbour on the same
// core), and a serial run stays wherever it first lands. Serial phases
// therefore move to the next allowed CPU at every chunk, so each run
// samples every CPU instead of one at random. Outputs are unaffected.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the calling thread to the next allowed CPU.
  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Phase {
  int reps = 0;
  std::vector<double> setup_s;    // set-up-only builds
  std::vector<double> run_s;     // wall time advancing the scenario
  std::vector<std::vector<double>> rep_slice_ms;  // per repetition, per slice
  std::vector<double> chunk_sim_rate;  // simulated s per wall s
  std::vector<double> chunk_ok_rate;   // operations completed per wall s
  Ops ops;                             // of one repetition (all identical)
  std::uint64_t attempted_total = 0;
  LayerCounts counts;
  std::string fingerprint;
  MergeTimers timers;
};

// Runs one repetition on `rep`, slice by slice, appending its timings to
// `out`. `timed` drives the benchmark's serial merge and times every
// NextEventTime/Step.
void RunSlices(const Workload& w, Rep* rep, bool timed, SpanLog* spans,
               int rep_span, CpuRotation* rotation, Phase* out) {
  const std::size_t slices =
      static_cast<std::size_t>((w.duration + w.slice - 1) / w.slice);
  std::size_t slice_index = 0;
  std::size_t chunk_index = 0;
  std::vector<double> slice_ms;
  double run = 0;
  double chunk_wall = 0;
  SimTime chunk_start = 0;
  std::uint64_t chunk_ok = 0;
  bool chunk_starts = true;
  for (SimTime t = 0; t < w.duration;) {
    t = std::min(t + w.slice, w.duration);
    if (chunk_starts && rotation) {
      rotation->Next();
    }
    chunk_starts = false;
    const int slice_span =
        spans ? spans->Open(timed ? "slice.traced" : "slice", rep_span) : -1;
    MergeTimers mt;
    const Clock::time_point s0 = Clock::now();
    if (timed) {
      rep->AdvanceTimed(t, &mt);
    } else {
      rep->Advance(t);
    }
    const double secs = SecondsSince(s0);
    if (spans) {
      if (timed) {
        spans->Aggregate("sim.peek", slice_span, mt.peek_ns, mt.peeks);
        spans->Aggregate("sim.step", slice_span, mt.step_ns, mt.steps);
      }
      spans->Close(slice_span);
    }
    out->timers.peek_ns += mt.peek_ns;
    out->timers.peeks += mt.peeks;
    out->timers.step_ns += mt.step_ns;
    out->timers.steps += mt.steps;
    slice_ms.push_back(secs * 1e3);
    run += secs;
    chunk_wall += secs;
    ++slice_index;
    if (slice_index * kChunksPerRep >= (chunk_index + 1) * slices) {
      const std::uint64_t ok = rep->ops().ok;
      out->chunk_sim_rate.push_back(
          Ratio(upr::ToSeconds(t - chunk_start), chunk_wall));
      out->chunk_ok_rate.push_back(
          Ratio(static_cast<double>(ok - chunk_ok), chunk_wall));
      ++chunk_index;
      chunk_starts = true;
      chunk_wall = 0;
      chunk_start = t;
      chunk_ok = ok;
    }
  }
  out->run_s.push_back(run);
  out->rep_slice_ms.push_back(std::move(slice_ms));
}

// Builds the scenario `setup_samples` times without running it (set-up
// time is a metric of its own and a single build takes milliseconds), then
// runs repetitions while another one fits in `budget_s` of wall time (at
// least `min_reps`). Returns false, with a reason, when an output check
// fails or two repetitions disagree.
bool MeasureReps(const Workload& w, std::uint64_t seed, ShardSet::Mode mode,
                 bool timed, double budget_s, int setup_samples, int min_reps,
                 SpanLog* spans, Phase* out, std::string* why) {
  for (int i = 0; i < setup_samples; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Rep> rep = Rep::Make(w, seed, mode);
    out->setup_s.push_back(SecondsSince(t0));
  }
  std::unique_ptr<CpuRotation> rotation;
  if (mode != ShardSet::Mode::kParallel) {
    rotation = std::make_unique<CpuRotation>();
  }
  const Clock::time_point phase_start = Clock::now();
  std::vector<double> rep_wall;
  while (out->reps < min_reps ||
         SecondsSince(phase_start) + Median(rep_wall) <= budget_s) {
    const Clock::time_point rep_start = Clock::now();
    const int rep_span = spans ? spans->Open(timed ? "rep.traced" : "rep") : -1;
    const int setup_span = spans ? spans->Open("setup", rep_span) : -1;
    std::unique_ptr<Rep> rep = Rep::Make(w, seed, mode);
    if (spans) {
      spans->Close(setup_span);
    }
    RunSlices(w, rep.get(), timed, spans, rep_span, rotation.get(), out);
    if (!rep->OutputsOk(why)) {
      return false;
    }
    const std::string fp = rep->Fingerprint();
    const LayerCounts counts = rep->Counts();
    if (out->reps == 0) {
      out->fingerprint = fp;
      out->counts = counts;
      out->ops = rep->ops();
    } else if (fp != out->fingerprint ||
               counts != out->counts) {
      *why = "two repetitions of one seed disagree:\n" + out->fingerprint +
             "---\n" + fp;
      return false;
    }
    out->attempted_total += rep->ops().attempted;
    rep.reset();
    if (spans) {
      spans->Close(rep_span);
    }
    rep_wall.push_back(SecondsSince(rep_start));
    ++out->reps;
  }
  return true;
}

// The counting pass: one repetition on the serial merge with the program's
// packet tracer installed (its per-layer record counts are the only public
// view of MAC deferrals) and a receive-only port on every channel capturing
// clean frames for the codec replay.
struct Audit {
  std::uint64_t mac_deferrals = 0;
  std::vector<upr::Bytes> frames;  // on-air bytes, FCS included
};

constexpr std::size_t kMaxCapture = 2048;

Audit RunAudit(const Workload& w, std::uint64_t seed) {
  Audit audit;
  std::unique_ptr<Rep> rep = Rep::Make(w, seed, ShardSet::Mode::kSharded);
  for (upr::RadioChannel* ch : rep->Channels()) {
    upr::RadioPort* port = ch->CreatePort("perfbench-monitor");
    port->set_receive_handler([&audit](const upr::Bytes& wire, bool corrupted) {
      if (!corrupted && audit.frames.size() < kMaxCapture) {
        audit.frames.push_back(wire);
      }
    });
  }
  upr::Simulator clock_sim;  // timestamps are irrelevant to the counts
  upr::trace::TracerConfig tcfg;
  tcfg.ring_capacity = 1;
  tcfg.snaplen = 0;
  upr::trace::Tracer tracer(&clock_sim, tcfg);
  {
    upr::trace::ScopedInstall install(&tracer);
    rep->Advance(w.duration);
  }
  const LayerCounts c = rep->Counts();
  const std::uint64_t mac_records =
      tracer.stats().per_layer[static_cast<int>(upr::trace::Layer::kMac)];
  // kMac records are one per transmission start, one per collision and one
  // per traced deferral.
  const std::uint64_t other = c.radio_transmissions + c.radio_collisions;
  audit.mac_deferrals = mac_records > other ? mac_records - other : 0;
  return audit;
}

struct Replay {
  double kiss_encode_ns = 0;
  double kiss_decode_ns = 0;
  double ax25_decode_ns = 0;
  double ip_decode_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t sink = 0;  // keeps the codec calls observable
};

// Replays the captured frames through the codecs, timing each codec over
// enough passes for ~100k calls.
Replay RunReplay(const std::vector<upr::Bytes>& wires, SpanLog* spans) {
  Replay r;
  std::vector<upr::Bytes> bodies;
  for (const upr::Bytes& w : wires) {
    if (w.size() > 2) {
      bodies.emplace_back(w.begin(), w.end() - 2);  // strip the FCS
    }
  }
  r.frames = bodies.size();
  if (bodies.empty()) {
    return r;
  }
  const std::size_t passes = std::max<std::size_t>(1, 100000 / bodies.size());
  const double calls = static_cast<double>(passes * bodies.size());
  const int root = spans->Open("replay");

  std::vector<upr::Bytes> encoded(bodies.size());
  int span = spans->Open("kiss.encode", root);
  Clock::time_point t0 = Clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      encoded[i].clear();
      upr::KissEncodeInto(bodies[i], &encoded[i]);
      r.sink += encoded[i].size();
    }
  }
  r.kiss_encode_ns = SecondsSince(t0) * 1e9 / calls;
  spans->Close(span);

  upr::KissDecoder decoder(
      [&r](std::uint8_t, upr::KissCommand, upr::ByteView payload) {
        r.sink += payload.size();
      });
  span = spans->Open("kiss.decode", root);
  t0 = Clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const upr::Bytes& e : encoded) {
      decoder.Feed(e.data(), e.size());
    }
  }
  r.kiss_decode_ns = SecondsSince(t0) * 1e9 / calls;
  spans->Close(span);

  std::vector<upr::Bytes> datagrams;
  span = spans->Open("ax25.decode", root);
  t0 = Clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const upr::Bytes& b : bodies) {
      auto v = upr::Ax25Frame::DecodeView(b);
      if (v) {
        r.sink += v->info.size();
        if (p == 0 && v->frame.pid == upr::kPidIp && !v->info.empty()) {
          datagrams.emplace_back(v->info.begin(), v->info.end());
        }
      }
    }
  }
  r.ax25_decode_ns = SecondsSince(t0) * 1e9 / calls;
  spans->Close(span);

  if (!datagrams.empty()) {
    const std::size_t ip_passes =
        std::max<std::size_t>(1, 100000 / datagrams.size());
    span = spans->Open("ip.decode", root);
    t0 = Clock::now();
    for (std::size_t p = 0; p < ip_passes; ++p) {
      for (const upr::Bytes& d : datagrams) {
        auto v = upr::Ipv4Header::DecodeView(d);
        r.sink += v ? v->payload.size() : 1;
      }
    }
    r.ip_decode_ns = SecondsSince(t0) * 1e9 /
                     static_cast<double>(ip_passes * datagrams.size());
    spans->Close(span);
  }
  spans->Close(root);
  return r;
}

// Peak resident set of this process image. VmHWM, not getrusage's
// ru_maxrss: the latter survives exec and would report the launcher's peak.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[192];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Fail(const std::string& why, std::uint64_t attempted) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  PrintResult(false, attempted, attempted, {});
  return 1;
}

// Every repetition does the same work slice by slice, so slice i's cost is
// the median of its wall times over the repetitions: a burst of interference
// on a shared host that hits one repetition's slice is dropped there instead
// of landing in the tail percentiles. Returns one cost per slice.
std::vector<double> SliceCostsMs(const Phase& p) {
  std::vector<double> costs;
  if (p.rep_slice_ms.empty()) {
    return costs;
  }
  const std::size_t slices = p.rep_slice_ms.front().size();
  std::vector<double> times;
  for (std::size_t i = 0; i < slices; ++i) {
    times.clear();
    for (const std::vector<double>& rep : p.rep_slice_ms) {
      times.push_back(rep[i]);
    }
    costs.push_back(Median(times));
  }
  return costs;
}

void PrintPhase(const char* label, const Phase& p) {
  std::printf(
      "%s: %d reps, setup median %.3f s, run median %.3f s, %zu slices/rep, "
      "ops %llu attempted %llu ok, %llu events\n",
      label, p.reps, Median(p.setup_s), Median(p.run_s),
      p.rep_slice_ms.empty() ? 0 : p.rep_slice_ms.front().size(),
      static_cast<unsigned long long>(p.ops.attempted),
      static_cast<unsigned long long>(p.ops.ok),
      static_cast<unsigned long long>(p.counts.sim_events));
}

int RunEndToEnd(const Workload& w, const Args& a) {
  Phase m;
  std::string why;
  const ShardSet::Mode mode = w.kind == Workload::Kind::kCity
                                  ? w.city.mode
                                  : ShardSet::Mode::kSharded;
  if (!MeasureReps(w, a.seed, mode, false, a.seconds, kSetupSamples, 1,
                   nullptr, &m, &why)) {
    return Fail(why, m.attempted_total);
  }
  PrintPhase("measured", m);
  if (w.parallel()) {
    Phase s;
    if (!MeasureReps(w, a.seed, ShardSet::Mode::kSharded, false, 0, 0, 1,
                     nullptr, &s, &why)) {
      return Fail(why, m.attempted_total);
    }
    PrintPhase("serial check", s);
    if (s.fingerprint != m.fingerprint) {
      return Fail("parallel run disagrees with the serial merge:\n" +
                      m.fingerprint + "---\n" + s.fingerprint,
                  m.attempted_total);
    }
  }
  if (m.ops.ok == 0) {
    return Fail("no operation completed", m.attempted_total);
  }
  const std::vector<double> slice_costs = SliceCostsMs(m);
  const double failed =
      Ratio(static_cast<double>(m.ops.attempted - m.ops.ok),
            static_cast<double>(m.ops.attempted));
  PrintResult(true, m.attempted_total, 0,
              {{"setup_s", Median(m.setup_s), "s"},
               {"sim_s_per_wall_s", Median(m.chunk_sim_rate), "s/s"},
               {"ok_ops_per_s", Median(m.chunk_ok_rate), "1/s"},
               {"failed_ops_ratio", failed, "ratio"},
               {"slice_ms_p50", Percentile(slice_costs, 50), "ms"},
               {"slice_ms_p90", Percentile(slice_costs, 90), "ms"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

int RunTraced(const Workload& w, const Args& a) {
  SpanLog spans;
  std::string why;
  // Untraced and traced serial merge, each over ~40% of the budget.
  Phase u;
  if (!MeasureReps(w, a.seed, ShardSet::Mode::kSharded, false, 0.4 * a.seconds,
                   0, 1, &spans, &u, &why)) {
    return Fail(why, u.attempted_total);
  }
  PrintPhase("untraced merge", u);
  Phase t;
  if (!MeasureReps(w, a.seed, ShardSet::Mode::kSharded, true, 0.4 * a.seconds,
                   0, 1, &spans, &t, &why)) {
    return Fail(why, u.attempted_total);
  }
  PrintPhase("traced merge", t);
  if (t.fingerprint != u.fingerprint) {
    return Fail("the benchmark's merge disagrees with the program's:\n" +
                    u.fingerprint + "---\n" + t.fingerprint,
                u.attempted_total);
  }
  // Executor counters come from the workload's own executor.
  LayerCounts exec = u.counts;
  if (w.parallel()) {
    Phase p;
    if (!MeasureReps(w, a.seed, w.city.mode, false, 0, 0, 1, &spans, &p,
                     &why)) {
      return Fail(why, u.attempted_total);
    }
    PrintPhase("parallel executor", p);
    if (p.fingerprint != u.fingerprint) {
      return Fail("parallel run disagrees with the serial merge",
                  u.attempted_total);
    }
    exec = p.counts;
  }
  if (u.ops.ok == 0) {
    return Fail("no operation completed", u.attempted_total);
  }
  const int audit_span = spans.Open("audit");
  const Audit audit = RunAudit(w, a.seed);
  spans.Close(audit_span);
  const Replay replay = RunReplay(audit.frames, &spans);
  std::printf("replay: %llu frames (sink %llu)\n",
              static_cast<unsigned long long>(replay.frames),
              static_cast<unsigned long long>(replay.sink));

  if (!a.spans_path.empty()) {
    if (FILE* f = std::fopen(a.spans_path.c_str(), "w")) {
      const std::string doc = spans.ToJson();
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_path.c_str());
    }
  }
  std::printf("self time by span (ms):");
  for (const auto& [name, ns] : spans.SelfTimes()) {
    std::printf(" %s=%.1f", name.c_str(), static_cast<double>(ns) / 1e6);
  }
  std::printf("\n");

  const LayerCounts& c = u.counts;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> events_rate;
  for (double s : u.run_s) {
    events_rate.push_back(Ratio(d(c.sim_events), s));
  }
  PrintResult(
      true, u.attempted_total, 0,
      {{"sim.peek_ns", Ratio(d(t.timers.peek_ns), d(t.timers.peeks)), "ns"},
       {"sim.step_ns", Ratio(d(t.timers.step_ns), d(t.timers.steps)), "ns"},
       {"sim.events", d(c.sim_events), "count"},
       {"sim.events_per_op", Ratio(d(c.sim_events), d(u.ops.attempted)),
        "events/op"},
       {"sim.events_per_s", Median(events_rate), "1/s"},
       {"sim.pool_peak", d(c.sim_pool_peak), "count"},
       {"shard.windows", d(exec.shard_windows), "count"},
       {"shard.handoffs", d(exec.shard_handoffs), "count"},
       {"shard.ring_overflow", d(exec.shard_ring_overflow), "count"},
       {"shard.events_per_window",
        Ratio(d(exec.sim_events), d(exec.shard_windows)), "events/window"},
       {"serial.events", d(c.serial_events), "count"},
       {"serial.events_per_frame", Ratio(d(c.serial_events), d(c.serial_frames)),
        "events/frame"},
       {"serial.dropped_bytes", d(c.serial_dropped_bytes), "B"},
       {"tnc.frames_to_host", d(c.tnc_frames_to_host), "count"},
       {"tnc.useful_ratio",
        Ratio(d(c.driver_frames_for_host), d(c.tnc_frames_to_host)), "ratio"},
       {"radio.transmissions", d(c.radio_transmissions), "count"},
       {"radio.receptions", d(c.radio_receptions), "count"},
       {"radio.collision_ratio",
        Ratio(d(c.radio_collisions), d(c.radio_transmissions)), "ratio"},
       {"radio.half_duplex_misses", d(c.radio_half_duplex_misses), "count"},
       {"mac.deferrals", d(audit.mac_deferrals), "count"},
       {"ip.forwarded", d(c.ip_forwarded), "count"},
       {"ip.delivered", d(c.ip_delivered), "count"},
       {"ip.drops", d(c.ip_drops), "count"},
       {"if.odrops", d(c.if_odrops), "count"},
       {"lapb.i_sent", d(c.lapb_i_sent), "count"},
       {"lapb.i_resent", d(c.lapb_i_resent), "count"},
       {"lapb.resend_ratio", Ratio(d(c.lapb_i_resent), d(c.lapb_i_sent)),
        "ratio"},
       {"tcp.retransmissions", d(c.tcp_retransmissions), "count"},
       {"tcp.spurious_retransmissions", d(c.tcp_spurious_retransmissions),
        "count"},
       {"buf.copies_per_frame", Ratio(d(c.buf_bytes_copied), d(c.serial_frames)),
        "B/frame"},
       {"buf.allocs_per_frame", Ratio(d(c.buf_allocs), d(c.serial_frames)),
        "allocs/frame"},
       {"buf.pool_hits", d(c.buf_pool_hits), "count"},
       {"kiss.decode_ns", replay.kiss_decode_ns, "ns"},
       {"kiss.encode_ns", replay.kiss_encode_ns, "ns"},
       {"ax25.decode_ns", replay.ax25_decode_ns, "ns"},
       {"ip.decode_ns", replay.ip_decode_ns, "ns"},
       {"trace.overhead",
        Ratio(Median(t.chunk_sim_rate), Median(u.chunk_sim_rate)), "ratio"}});
  return 0;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--spans FILE]\nworkloads:",
               argv0);
  for (const Workload& w : Workloads(false)) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  const Workload* w = FindWorkload(args.workload, args.smoke);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    Usage(argv[0]);
    return 2;
  }
  std::printf("perfbench knobs %s\n", KnobsJson(*w, args.seed).c_str());
  std::fflush(stdout);
  return args.trace == 1 ? RunTraced(*w, args) : RunEndToEnd(*w, args);
}
