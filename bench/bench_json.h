// Machine-readable bench output (the perf ledger).
//
// Every bench binary owns a BenchReport. It mirrors the human-readable
// tables (Header/Row print exactly what PrintHeader/PrintRow printed) into a
// JSON document and, when the binary is invoked with `--json <path>`, writes
// that document on Finish(). tools/benchdiff compares such documents against
// the checked-in baselines in bench/baselines/BENCH_<id>.json:
//
//   params        scenario knobs; any change means the baseline is stale and
//                 the diff fails with a re-baseline hint.
//   sim metrics   deterministic outputs of the simulation (tables of printed
//                 cells and scalar metrics); compared exactly, so a 1-cell
//                 drift in goodput or retransmission count is a red diff.
//   wall metrics  host-dependent timings; compared one-sidedly within a
//                 tolerance band (improvements always pass).
//
// Finish() always records two wall metrics of its own: `wall_ms` (whole-run
// wall clock) and, if Events() was fed, `events_per_wall_sec` — the
// simulator-events-per-second throughput the ledger tracks across PRs.
#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace upr {
namespace bench {

// Tables of simulated metrics diff exactly; tables of host timings only have
// their shape (title, columns, row count) checked.
enum class TableKind { kSim, kWall };

namespace detail {

inline void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// One scalar in the document. Numbers keep full precision: %.17g
// round-trips every finite double.
struct JsonScalar {
  enum class Kind { kInt, kNum, kStr };
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0;
  std::string s;

  static JsonScalar Int(std::int64_t v) {
    JsonScalar j;
    j.kind = Kind::kInt;
    j.i = v;
    return j;
  }
  static JsonScalar Num(double v) {
    JsonScalar j;
    j.kind = Kind::kNum;
    j.d = v;
    return j;
  }
  static JsonScalar Str(std::string v) {
    JsonScalar j;
    j.kind = Kind::kStr;
    j.s = std::move(v);
    return j;
  }

  void AppendTo(std::string* out) const {
    char buf[48];
    switch (kind) {
      case Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%" PRId64, i);
        *out += buf;
        break;
      case Kind::kNum:
        if (!std::isfinite(d)) {
          *out += "null";
          break;
        }
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        *out += buf;
        break;
      case Kind::kStr:
        *out += '"';
        AppendJsonEscaped(s, out);
        *out += '"';
        break;
    }
  }
};

}  // namespace detail

// Per-binary report. Parses and REMOVES `--json <path>` and `--smoke` from
// argv (so e.g. benchmark::Initialize never sees them); everything else is
// left for the bench to handle.
class BenchReport {
 public:
  BenchReport(std::string id, int* argc, char** argv) : id_(std::move(id)) {
    int out = 1;
    for (int in = 1; in < *argc; ++in) {
      std::string a = argv[in];
      if (a == "--smoke") {
        smoke_ = true;
      } else if (a == "--json" && in + 1 < *argc) {
        json_path_ = argv[++in];
      } else {
        argv[out++] = argv[in];
      }
    }
    *argc = out;
    start_ = std::chrono::steady_clock::now();
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  bool smoke() const { return smoke_; }
  bool json_requested() const { return !json_path_.empty(); }

  // --- scenario parameters (exact-match keys in benchdiff) ---
  void Param(const std::string& name, const std::string& v) {
    params_.emplace_back(name, detail::JsonScalar::Str(v));
  }
  void Param(const std::string& name, const char* v) {
    params_.emplace_back(name, detail::JsonScalar::Str(v));
  }
  void Param(const std::string& name, std::int64_t v) {
    params_.emplace_back(name, detail::JsonScalar::Int(v));
  }
  void Param(const std::string& name, std::uint64_t v) {
    params_.emplace_back(name, detail::JsonScalar::Int(static_cast<std::int64_t>(v)));
  }
  void Param(const std::string& name, int v) {
    params_.emplace_back(name, detail::JsonScalar::Int(v));
  }
  void Param(const std::string& name, double v) {
    params_.emplace_back(name, detail::JsonScalar::Num(v));
  }

  // --- deterministic scalar metrics (compared exactly) ---
  void Sim(const std::string& name, std::int64_t v) {
    sim_.emplace_back(name, detail::JsonScalar::Int(v));
  }
  void Sim(const std::string& name, std::uint64_t v) {
    sim_.emplace_back(name, detail::JsonScalar::Int(static_cast<std::int64_t>(v)));
  }
  void Sim(const std::string& name, int v) {
    sim_.emplace_back(name, detail::JsonScalar::Int(v));
  }
  void Sim(const std::string& name, double v) {
    sim_.emplace_back(name, detail::JsonScalar::Num(v));
  }
  void Sim(const std::string& name, const std::string& v) {
    sim_.emplace_back(name, detail::JsonScalar::Str(v));
  }

  // --- host-dependent metrics (banded). better: "higher" or "lower" ---
  void Wall(const std::string& name, double v, const char* better) {
    wall_.push_back({name, v, better});
  }

  // Accumulates simulator events executed/scheduled across the run's
  // scenarios; feeds the events_per_wall_sec ledger metric. The count itself
  // is also recorded as an exact sim metric — event-store / event-pool
  // changes must not alter how many events a seeded scenario schedules.
  void Events(std::uint64_t scheduled) { events_total_ += scheduled; }

  // --- table mirroring: prints exactly like PrintHeader/PrintRow ---
  void Header(const std::string& title, const std::vector<std::string>& cols,
              int width = 14, TableKind kind = TableKind::kSim) {
    PrintHeader(title, cols, width);
    tables_.push_back({title, kind, cols, {}});
  }
  void Row(const std::vector<std::string>& cells, int width = 14) {
    PrintRow(cells, width);
    if (!tables_.empty()) {
      tables_.back().rows.push_back(cells);
    }
  }

  // Writes the JSON document if --json was given; returns `rc` so mains can
  // end with `return rep.Finish(...)`. A write failure trumps rc == 0.
  int Finish(int rc = 0) {
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    if (events_total_ > 0) {
      Sim("events_total", events_total_);
      if (wall_ms > 0) {
        Wall("events_per_wall_sec",
             static_cast<double>(events_total_) / (wall_ms / 1000.0), "higher");
      }
    }
    Wall("wall_ms", wall_ms, "lower");
    if (json_path_.empty()) {
      return rc;
    }
    std::string doc = Render(rc);
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s for writing\n",
                   json_path_.c_str());
      return rc != 0 ? rc : 1;
    }
    std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    int close_rc = std::fclose(f);
    if (n != doc.size() || close_rc != 0) {
      std::fprintf(stderr, "bench_json: short write to %s\n", json_path_.c_str());
      return rc != 0 ? rc : 1;
    }
    return rc;
  }

 private:
  struct WallMetric {
    std::string name;
    double value;
    std::string better;
  };
  struct Table {
    std::string title;
    TableKind kind;
    std::vector<std::string> cols;
    std::vector<std::vector<std::string>> rows;
  };
  using Fields = std::vector<std::pair<std::string, detail::JsonScalar>>;

  static void AppendFields(const Fields& fields, std::string* out) {
    *out += '{';
    bool first = true;
    for (const auto& [name, value] : fields) {
      if (!first) {
        *out += ", ";
      }
      first = false;
      *out += '"';
      detail::AppendJsonEscaped(name, out);
      *out += "\": ";
      value.AppendTo(out);
    }
    *out += '}';
  }

  static void AppendStringArray(const std::vector<std::string>& items,
                                std::string* out) {
    *out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) {
        *out += ", ";
      }
      *out += '"';
      detail::AppendJsonEscaped(items[i], out);
      *out += '"';
    }
    *out += ']';
  }

  std::string Render(int rc) const {
    std::string out = "{\n  \"schema\": 1,\n  \"bench\": \"";
    detail::AppendJsonEscaped(id_, &out);
    out += "\",\n  \"exit_code\": " + std::to_string(rc);
    out += ",\n  \"smoke\": ";
    out += smoke_ ? "true" : "false";
    out += ",\n  \"params\": ";
    AppendFields(params_, &out);
    out += ",\n  \"sim\": ";
    AppendFields(sim_, &out);
    out += ",\n  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const Table& tb = tables_[t];
      out += t > 0 ? ",\n    {" : "\n    {";
      out += "\"title\": \"";
      detail::AppendJsonEscaped(tb.title, &out);
      out += "\", \"kind\": \"";
      out += tb.kind == TableKind::kSim ? "sim" : "wall";
      out += "\", \"cols\": ";
      AppendStringArray(tb.cols, &out);
      out += ",\n     \"rows\": [";
      for (std::size_t r = 0; r < tb.rows.size(); ++r) {
        out += r > 0 ? ",\n       " : "\n       ";
        AppendStringArray(tb.rows[r], &out);
      }
      out += tb.rows.empty() ? "]}" : "\n     ]}";
    }
    out += tables_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"wall\": {";
    for (std::size_t i = 0; i < wall_.size(); ++i) {
      out += i > 0 ? ",\n    " : "\n    ";
      out += '"';
      detail::AppendJsonEscaped(wall_[i].name, &out);
      out += "\": {\"value\": ";
      detail::JsonScalar::Num(wall_[i].value).AppendTo(&out);
      out += ", \"better\": \"" + wall_[i].better + "\"}";
    }
    out += wall_.empty() ? "}\n}\n" : "\n  }\n}\n";
    return out;
  }

  std::string id_;
  bool smoke_ = false;
  std::string json_path_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t events_total_ = 0;
  Fields params_;
  Fields sim_;
  std::vector<Table> tables_;
  std::vector<WallMetric> wall_;
};

}  // namespace bench
}  // namespace upr

#endif  // BENCH_BENCH_JSON_H_
