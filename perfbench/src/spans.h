// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code, around its calls into each layer's public API, and
// written out once when the run ends. A span's self time is its duration
// minus the durations of its direct children.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t start_ns = 0;  // since the log was created
    std::uint64_t dur_ns = 0;
    // Aggregate spans stand for `count` calls whose durations were summed
    // (per-event NextEventTime/Step would be millions of records).
    std::uint64_t count = 1;
  };

  SpanLog() : origin_(Clock::now()) {}

  // Opens a span now; returns its id.
  int Open(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, Now(), 0, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[id].dur_ns = Now() - spans_[id].start_ns; }

  // Records `count` calls totalling `dur_ns` as one child of `parent`.
  void Aggregate(std::string name, int parent, std::uint64_t dur_ns,
                 std::uint64_t count) {
    const std::uint64_t start = parent >= 0 ? spans_[parent].start_ns : Now();
    spans_.push_back(Span{std::move(name), parent, start, dur_ns, count});
  }

  // Total self time per span name, in ns.
  std::map<std::string, std::uint64_t> SelfTimes() const {
    std::vector<std::uint64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[s.parent] += s.dur_ns;
      }
    }
    std::map<std::string, std::uint64_t> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::uint64_t d = spans_[i].dur_ns;
      self[spans_[i].name] += d > child[i] ? d - child[i] : 0;
    }
    return self;
  }

  // JSON document: every span, then the self-time totals by name.
  std::string ToJson() const {
    std::string out = "{\"spans\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                    "\"start_ns\":%llu,\"dur_ns\":%llu,\"count\":%llu}",
                    i == 0 ? "" : ",", i, s.parent, s.name.c_str(),
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.dur_ns),
                    static_cast<unsigned long long>(s.count));
      out += buf;
    }
    out += "\n],\"self_ns\":{";
    bool first = true;
    for (const auto& [name, ns] : SelfTimes()) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                    name.c_str(), static_cast<unsigned long long>(ns));
      out += buf;
      first = false;
    }
    out += "}}\n";
    return out;
  }

 private:
  std::uint64_t Now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
