#include "src/radio/fault_plan.h"

#include <cstdio>

#include "src/util/crc.h"
#include "src/util/logging.h"

namespace upr::fault {

namespace {

constexpr const char* kTag = "fault";

// Sidecar file framing (all little-endian):
//   u32 magic 'UPRF', u32 version, u64 event count,
//   u32 meta length, meta bytes, zero-pad to 4;
// then per event:
//   i64 ts, u32 frame_len, u8 kind, u8 outcome, u16 frame_crc,
//   u16 port length, port bytes, zero-pad to 4.
constexpr std::uint32_t kMagic = 0x46525055;  // "UPRF" on disk
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kEventFixedBytes = 8 + 4 + 1 + 1 + 2 + 2;

std::size_t Padding(std::size_t n) { return (4 - n % 4) % 4; }

void PutU16(Bytes* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(Bytes* out, std::uint32_t v) {
  PutU16(out, static_cast<std::uint16_t>(v));
  PutU16(out, static_cast<std::uint16_t>(v >> 16));
}

void PutU64(Bytes* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

// Bounds-checked little-endian reader (the codec ByteReader is big-endian).
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  std::uint16_t U16() {
    std::uint16_t lo = U8();
    return static_cast<std::uint16_t>(lo | U8() << 8);
  }
  std::uint32_t U32() {
    std::uint32_t lo = U16();
    return lo | static_cast<std::uint32_t>(U16()) << 16;
  }
  std::uint64_t U64() {
    std::uint64_t lo = U32();
    return lo | static_cast<std::uint64_t>(U32()) << 32;
  }
  std::string String(std::size_t n) {
    if (!Need(n)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  // Consumes pad bytes, which must be zero.
  bool ZeroPad(std::size_t n) {
    if (!Need(n)) {
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (data_[pos_ + i] != 0) {
        ok_ = false;
        return false;
      }
    }
    pos_ += n;
    return true;
  }

 private:
  bool Need(std::size_t n) {
    if (data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  ByteView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

bool Fail(std::string* error, const char* why) {
  if (error != nullptr) {
    *error = why;
  }
  return false;
}

std::string CursorKey(std::string_view port, Kind kind) {
  std::string key(port);
  key.push_back('\x1f');
  key.push_back(static_cast<char>('0' + static_cast<int>(kind)));
  return key;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kLoss:
      return "loss";
    case Kind::kBitError:
      return "bit-error";
    case Kind::kCollision:
      return "collision";
    case Kind::kPPersist:
      return "p-persist";
  }
  return "?";
}

std::string Event::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%12.6f  %-9s %-20.*s len=%u crc=%04x -> %s",
                ToSeconds(ts), KindName(kind), static_cast<int>(port.size()),
                port.data(), frame_len, frame_crc, outcome ? "fault" : "clean");
  return buf;
}

Bytes Schedule::Serialize() const {
  Bytes out;
  PutU32(&out, kMagic);
  PutU32(&out, kVersion);
  PutU64(&out, events.size());
  PutU32(&out, static_cast<std::uint32_t>(meta.size()));
  out.insert(out.end(), meta.begin(), meta.end());
  out.insert(out.end(), Padding(meta.size()), 0);
  for (const Event& e : events) {
    PutU64(&out, static_cast<std::uint64_t>(e.ts));
    PutU32(&out, e.frame_len);
    out.push_back(static_cast<std::uint8_t>(e.kind));
    out.push_back(e.outcome ? 1 : 0);
    PutU16(&out, e.frame_crc);
    PutU16(&out, static_cast<std::uint16_t>(e.port.size()));
    out.insert(out.end(), e.port.begin(), e.port.end());
    out.insert(out.end(), Padding(e.port.size()), 0);
  }
  return out;
}

std::optional<Schedule> Schedule::Parse(ByteView file, std::string* error) {
  Reader r(file);
  if (r.U32() != kMagic || !r.ok()) {
    Fail(error, "bad magic (not a .faults file)");
    return std::nullopt;
  }
  if (r.U32() != kVersion || !r.ok()) {
    Fail(error, "unsupported version");
    return std::nullopt;
  }
  std::uint64_t count = r.U64();
  std::uint32_t meta_len = r.U32();
  if (!r.ok() || meta_len > r.remaining()) {
    Fail(error, "truncated header");
    return std::nullopt;
  }
  Schedule sched;
  sched.meta = r.String(meta_len);
  if (!r.ZeroPad(Padding(meta_len))) {
    Fail(error, "bad meta padding");
    return std::nullopt;
  }
  sched.events.reserve(count < 1 << 20 ? count : 1 << 20);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (r.remaining() < kEventFixedBytes) {
      Fail(error, "truncated event");
      return std::nullopt;
    }
    Event e;
    e.ts = static_cast<SimTime>(r.U64());
    e.frame_len = r.U32();
    std::uint8_t kind = r.U8();
    std::uint8_t outcome = r.U8();
    e.frame_crc = r.U16();
    std::uint16_t port_len = r.U16();
    if (kind >= kKindCount) {
      Fail(error, "unknown fault kind");
      return std::nullopt;
    }
    if (outcome > 1) {
      Fail(error, "outcome not a boolean");
      return std::nullopt;
    }
    e.kind = static_cast<Kind>(kind);
    e.outcome = outcome != 0;
    if (port_len > r.remaining()) {
      Fail(error, "truncated port name");
      return std::nullopt;
    }
    e.port = r.String(port_len);
    if (!r.ZeroPad(Padding(port_len))) {
      Fail(error, "bad event padding");
      return std::nullopt;
    }
    if (!r.ok()) {
      Fail(error, "truncated event");
      return std::nullopt;
    }
    sched.events.push_back(std::move(e));
  }
  if (r.remaining() != 0) {
    Fail(error, "trailing bytes after last event");
    return std::nullopt;
  }
  return sched;
}

bool Schedule::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  Bytes data = Serialize();
  std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  bool ok = std::fclose(f) == 0 && written == data.size();
  return ok;
}

std::optional<Schedule> Schedule::LoadFromFile(const std::string& path,
                                               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    Fail(error, "cannot open file");
    return std::nullopt;
  }
  Bytes data;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return Parse(data, error);
}

Session::Session(Simulator* sim) : sim_(sim), mode_(Mode::kRecord) {}

Session::Session(Simulator* sim, Schedule schedule)
    : sim_(sim), mode_(Mode::kReplay), schedule_(std::move(schedule)) {
  for (std::uint32_t i = 0; i < schedule_.events.size(); ++i) {
    const Event& e = schedule_.events[i];
    cursors_[CursorKey(e.port, e.kind)].push_back(i);
  }
}

Event Session::MakeEvent(Kind kind, std::string_view port, ByteView frame,
                         bool outcome) const {
  Event e;
  e.ts = sim_->Now();
  e.kind = kind;
  e.outcome = outcome;
  e.frame_len = static_cast<std::uint32_t>(frame.size());
  e.frame_crc = Crc16Ccitt(frame.data(), frame.size());
  e.port.assign(port);
  return e;
}

bool Session::Decide(Kind kind, std::string_view port, ByteView frame,
                     const std::function<bool()>& roll) {
  if (mode_ == Mode::kRecord) {
    bool outcome = roll();
    schedule_.events.push_back(MakeEvent(kind, port, frame, outcome));
    ++stats_.recorded;
    ++stats_.per_kind[static_cast<int>(kind)];
    return outcome;
  }
  auto it = cursors_.find(CursorKey(port, kind));
  if (it == cursors_.end() || it->second.empty()) {
    ++stats_.exhausted;
    if (problems_.size() < 8) {
      problems_.push_back("schedule exhausted: " +
                          MakeEvent(kind, port, frame, false).ToString());
    }
    return roll();
  }
  const Event& expected = schedule_.events[it->second.front()];
  it->second.pop_front();
  ++stats_.replayed;
  ++stats_.per_kind[static_cast<int>(kind)];
  Event actual = MakeEvent(kind, port, frame, expected.outcome);
  if (actual != expected) {
    ++stats_.mismatches;
    if (problems_.size() < 8) {
      problems_.push_back("mismatch: expected " + expected.ToString() +
                          ", got " + actual.ToString());
    }
    UPR_ERROR(kTag, "replay mismatch on %.*s (%s)",
              static_cast<int>(port.size()), port.data(), KindName(kind));
  }
  return expected.outcome;
}

std::size_t Session::remaining() const {
  std::size_t left = 0;
  for (const auto& [key, fifo] : cursors_) {
    left += fifo.size();
  }
  return left;
}

bool Session::ReplayClean() const {
  return mode_ == Mode::kReplay && stats_.mismatches == 0 &&
         stats_.exhausted == 0 && remaining() == 0;
}

namespace {
// thread_local like the ambient tracer: each parallel-city thread can carry
// its own session (or none) without racing another's.
thread_local Session* g_session = nullptr;
}  // namespace

Session* Active() { return g_session; }

void Install(Session* s) { g_session = s; }

void Uninstall(Session* s) {
  if (g_session == s) {
    g_session = nullptr;
  }
}

}  // namespace upr::fault
