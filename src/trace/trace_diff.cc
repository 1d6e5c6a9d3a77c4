#include "src/trace/trace_diff.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <vector>

#include "src/util/crc.h"

namespace upr::tracediff {

namespace {

std::string Sprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Sprintf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// One frame of an interface's stream, timestamp normalized to nanoseconds.
struct Frame {
  SimTime ts = 0;
  Bytes data;
  std::uint32_t orig_len = 0;
  std::uint32_t flags = 0;
  std::string comment;
  // Resync key: captured length + CRC-16 over the captured bytes. Cheap to
  // compare, and two different frames virtually never collide — and an
  // accidental collision only costs a byte-compare, never a wrong verdict.
  std::uint32_t key = 0;
};

struct IfStream {
  std::uint16_t link_type = 0;
  std::vector<Frame> frames;
};

SimTime ToNanos(std::uint64_t ts, std::uint8_t tsresol) {
  // Power-of-two resolutions (bit 7 set) never come out of the in-repo
  // writer; treat them as raw rather than guessing.
  if (tsresol & 0x80) {
    return static_cast<SimTime>(ts);
  }
  if (tsresol <= 9) {
    SimTime scale = 1;
    for (int i = tsresol; i < 9; ++i) {
      scale *= 10;
    }
    return static_cast<SimTime>(ts) * scale;
  }
  SimTime scale = 1;
  for (int i = 9; i < tsresol; ++i) {
    scale *= 10;
  }
  return static_cast<SimTime>(ts / static_cast<std::uint64_t>(scale));
}

std::uint32_t FrameKey(const Bytes& data) {
  return static_cast<std::uint32_t>(data.size()) << 16 ^ Crc16Ccitt(data);
}

std::map<std::string, IfStream> BuildStreams(const trace::PcapngFile& f) {
  std::map<std::string, IfStream> out;
  for (std::size_t i = 0; i < f.interfaces.size(); ++i) {
    std::string name = f.interfaces[i].name.empty()
                           ? Sprintf("if#%zu", i)
                           : f.interfaces[i].name;
    out[name].link_type = f.interfaces[i].link_type;
  }
  for (const trace::PcapngPacket& p : f.packets) {
    const trace::PcapngInterface& idb = f.interfaces[p.interface_id];
    std::string name = idb.name.empty()
                           ? Sprintf("if#%u", p.interface_id)
                           : idb.name;
    Frame fr;
    fr.ts = ToNanos(p.timestamp, idb.tsresol);
    fr.data = p.data;
    fr.orig_len = p.orig_len;
    fr.flags = p.flags;
    fr.comment = p.comment;
    fr.key = FrameKey(fr.data);
    out[name].frames.push_back(std::move(fr));
  }
  return out;
}

// "layer:kind" prefix of the tracer's packet comment — the event bucket for
// the per-layer/per-port count level.
std::string CommentKey(const std::string& comment) {
  if (comment.empty()) {
    return "(uncommented)";
  }
  std::size_t space = comment.find(' ');
  return space == std::string::npos ? comment : comment.substr(0, space);
}

// Bounded report builder: itemizes the first max_report divergences, counts
// the rest.
class Report {
 public:
  explicit Report(std::size_t max_items) : max_items_(max_items) {}

  // Adds one itemized divergence (possibly multi-line).
  void Item(const std::string& text) {
    ++items_;
    if (items_ <= max_items_) {
      body_ += text;
      if (!text.empty() && text.back() != '\n') {
        body_ += '\n';
      }
    }
  }

  std::string Finish(const Stats& s, const Config& cfg) const {
    std::string out = body_;
    if (items_ > max_items_) {
      out += Sprintf("... %llu further divergences suppressed "
                     "(raise --max-report to see more)\n",
                     static_cast<unsigned long long>(items_ - max_items_));
    }
    out += Sprintf(
        "summary: %llu interfaces, %llu frames compared; %llu payload, "
        "%llu meta, %llu timing, %llu only-in-A, %llu only-in-B, "
        "%llu count, %llu interface diffs\n",
        static_cast<unsigned long long>(s.interfaces_compared),
        static_cast<unsigned long long>(s.frames_compared),
        static_cast<unsigned long long>(s.payload_diffs),
        static_cast<unsigned long long>(s.meta_diffs),
        static_cast<unsigned long long>(s.timing_diffs),
        static_cast<unsigned long long>(s.only_in_a),
        static_cast<unsigned long long>(s.only_in_b),
        static_cast<unsigned long long>(s.count_diffs),
        static_cast<unsigned long long>(s.iface_diffs));
    out += Sprintf("         max timestamp delta %.6f ms (tolerance %.6f ms)\n",
                   ToMillis(s.max_time_delta), ToMillis(cfg.time_tol));
    return out;
  }

 private:
  std::size_t max_items_;
  std::size_t items_ = 0;
  std::string body_ = "";
};

std::string HexLine(const Bytes& d, std::size_t start, std::size_t len) {
  std::string hex;
  std::string ascii;
  for (std::size_t i = start; i < start + len; ++i) {
    if (i < d.size()) {
      hex += Sprintf("%02x ", d[i]);
      ascii += (d[i] >= 0x20 && d[i] < 0x7F) ? static_cast<char>(d[i]) : '.';
    } else {
      hex += "   ";
      ascii += ' ';
    }
  }
  return hex + " |" + ascii + "|";
}

// First offset at which the captured bytes differ (== min size when one is a
// prefix of the other).
std::size_t FirstDiff(const Bytes& a, const Bytes& b) {
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return i;
    }
  }
  return n;
}

std::string PayloadDiffItem(const std::string& iface, std::size_t ia,
                            std::size_t ib, const Frame& fa, const Frame& fb,
                            const Config& cfg) {
  std::size_t off = FirstDiff(fa.data, fb.data);
  std::string out = Sprintf(
      "payload diff: interface \"%s\" frame a#%zu/b#%zu: first diff at byte "
      "offset %zu (a %zu B, b %zu B)\n",
      iface.c_str(), ia, ib, off, fa.data.size(), fb.data.size());
  std::size_t start = off > cfg.hex_context ? off - cfg.hex_context : 0;
  std::size_t len = cfg.hex_context * 2;
  out += Sprintf("  a @%-4zu %s\n", start, HexLine(fa.data, start, len).c_str());
  out += Sprintf("  b @%-4zu %s\n", start, HexLine(fb.data, start, len).c_str());
  return out;
}

}  // namespace

Result DiffCaptures(const trace::PcapngFile& a, const trace::PcapngFile& b,
                    const Config& cfg) {
  Result r;
  Stats& s = r.stats;
  Report report(cfg.max_report == 0 ? 1 : cfg.max_report);

  std::map<std::string, IfStream> sa = BuildStreams(a);
  std::map<std::string, IfStream> sb = BuildStreams(b);

  // --- Level 1: interface sets and per-layer/per-port event counts --------
  std::map<std::string, std::pair<const IfStream*, const IfStream*>> ifaces;
  for (const auto& [name, st] : sa) {
    ifaces[name].first = &st;
  }
  for (const auto& [name, st] : sb) {
    ifaces[name].second = &st;
  }
  for (const auto& [name, pair] : ifaces) {
    const auto& [ia, ib] = pair;
    if (ia == nullptr || ib == nullptr) {
      ++s.iface_diffs;
      report.Item(Sprintf("interface \"%s\" present only in %s (%zu frames)",
                          name.c_str(), ia != nullptr ? "A" : "B",
                          (ia != nullptr ? ia : ib)->frames.size()));
      continue;
    }
    if (ia->link_type != ib->link_type) {
      ++s.iface_diffs;
      report.Item(Sprintf("interface \"%s\": link type %u in A vs %u in B",
                          name.c_str(), ia->link_type, ib->link_type));
    }
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts;
    for (const Frame& f : ia->frames) {
      ++counts[CommentKey(f.comment)].first;
    }
    for (const Frame& f : ib->frames) {
      ++counts[CommentKey(f.comment)].second;
    }
    for (const auto& [key, cnt] : counts) {
      if (cnt.first != cnt.second) {
        ++s.count_diffs;
        report.Item(Sprintf(
            "event count: interface \"%s\" %s: %llu in A vs %llu in B",
            name.c_str(), key.c_str(),
            static_cast<unsigned long long>(cnt.first),
            static_cast<unsigned long long>(cnt.second)));
      }
    }
  }

  // --- Levels 2+3: frame-by-frame alignment per shared interface ----------
  for (const auto& [name, pair] : ifaces) {
    const auto& [pia, pib] = pair;
    if (pia == nullptr || pib == nullptr) {
      continue;
    }
    ++s.interfaces_compared;
    const std::vector<Frame>& fa = pia->frames;
    const std::vector<Frame>& fb = pib->frames;
    std::size_t i = 0;
    std::size_t j = 0;

    auto aligned_pair = [&](const Frame& x, const Frame& y, std::size_t ix,
                            std::size_t iy) {
      ++s.frames_compared;
      if (x.data != y.data || x.orig_len != y.orig_len) {
        ++s.payload_diffs;
        report.Item(PayloadDiffItem(name, ix, iy, x, y, cfg));
      } else if (x.comment != y.comment || x.flags != y.flags) {
        ++s.meta_diffs;
        report.Item(Sprintf(
            "meta diff: interface \"%s\" frame a#%zu/b#%zu: "
            "comment/flags \"%s\"/%u in A vs \"%s\"/%u in B",
            name.c_str(), ix, iy, x.comment.c_str(), x.flags,
            y.comment.c_str(), y.flags));
      }
      SimTime delta = x.ts > y.ts ? x.ts - y.ts : y.ts - x.ts;
      s.max_time_delta = std::max(s.max_time_delta, delta);
      if (delta > cfg.time_tol) {
        ++s.timing_diffs;
        report.Item(Sprintf(
            "timing diff: interface \"%s\" frame a#%zu/b#%zu: "
            "a=%.9f s, b=%.9f s, delta %.6f ms > tolerance %.6f ms",
            name.c_str(), ix, iy, ToSeconds(x.ts), ToSeconds(y.ts),
            ToMillis(delta), ToMillis(cfg.time_tol)));
      }
    };

    auto skip_one = [&](const std::vector<Frame>& v, std::size_t idx, char side,
                        std::uint64_t* counter) {
      ++*counter;
      report.Item(Sprintf(
          "frame only in %c: interface \"%s\" %c#%zu at %.9f s (%zu B, %s)",
          side, name.c_str(),
          static_cast<char>(side == 'A' ? 'a' : 'b'), idx,
          ToSeconds(v[idx].ts), v[idx].data.size(),
          v[idx].comment.empty() ? "uncommented" : v[idx].comment.c_str()));
    };

    while (i < fa.size() && j < fb.size()) {
      if (fa[i].key == fb[j].key && fa[i].data == fb[j].data) {
        aligned_pair(fa[i], fb[j], i, j);
        ++i;
        ++j;
        continue;
      }
      // Mismatch. If the streams re-align one step ahead (or both end), the
      // cheapest explanation is a mutated pair — report the byte diff and
      // move on.
      bool next_aligns =
          (i + 1 < fa.size() && j + 1 < fb.size() &&
           fa[i + 1].key == fb[j + 1].key) ||
          (i + 1 == fa.size() && j + 1 == fb.size());
      if (next_aligns) {
        aligned_pair(fa[i], fb[j], i, j);
        ++i;
        ++j;
        continue;
      }
      // Otherwise hunt for a resync anchor: the nearest frame ahead on one
      // side whose (length, CRC) key matches the other side's current frame.
      // Preferring the smallest skip keeps one insertion from cascading.
      std::size_t skip = 0;
      char side = 0;
      for (std::size_t d = 1; d <= cfg.resync_window && side == 0; ++d) {
        if (i + d < fa.size() && fa[i + d].key == fb[j].key) {
          skip = d;
          side = 'A';
        } else if (j + d < fb.size() && fa[i].key == fb[j + d].key) {
          skip = d;
          side = 'B';
        }
      }
      if (side == 'A') {
        for (std::size_t d = 0; d < skip; ++d) {
          skip_one(fa, i + d, 'A', &s.only_in_a);
        }
        i += skip;
      } else if (side == 'B') {
        for (std::size_t d = 0; d < skip; ++d) {
          skip_one(fb, j + d, 'B', &s.only_in_b);
        }
        j += skip;
      } else {
        // No anchor in the window: pair them as mutated rather than letting
        // every later frame report as inserted+deleted.
        aligned_pair(fa[i], fb[j], i, j);
        ++i;
        ++j;
      }
    }
    for (; i < fa.size(); ++i) {
      skip_one(fa, i, 'A', &s.only_in_a);
    }
    for (; j < fb.size(); ++j) {
      skip_one(fb, j, 'B', &s.only_in_b);
    }
  }

  r.equivalent = s.differences() == 0;
  r.report = report.Finish(s, cfg);
  return r;
}

std::optional<Result> DiffFiles(const std::string& path_a,
                                const std::string& path_b, const Config& cfg,
                                std::string* error) {
  std::optional<trace::PcapngFile> a = trace::PcapngFile::Load(path_a, error);
  if (!a) {
    return std::nullopt;
  }
  std::optional<trace::PcapngFile> b = trace::PcapngFile::Load(path_b, error);
  if (!b) {
    return std::nullopt;
  }
  return DiffCaptures(*a, *b, cfg);
}

}  // namespace upr::tracediff
