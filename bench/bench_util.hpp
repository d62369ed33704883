// Shared benchmark-output helpers. Every bench binary accepts
//
//   --json <path>
//
// and, in addition to its human-readable table, dumps the headline numbers
// as one flat JSON object so perf trajectories can be diffed by machines:
//
//   {"bench": "table1_preemption",
//    "metrics": {"real.signal_yield.ext_us": 3.48, ...}}
//
// Keys are dotted paths in insertion order; values are finite numbers or
// strings (NaN/inf become null — JSON has no literal for them).
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"

namespace lpt::bench {

/// Extract the `--json <path>` argument; "" when absent.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  return {};
}

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double v) { entries_.push_back({key, num(v)}); }
  void set(const std::string& key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    entries_.push_back({key, buf});
  }
  void set_str(const std::string& key, const std::string& v) {
    entries_.push_back({key, quote(v)});
  }
  /// Expands to <key>.{count,mean,median,p99} (stddev when n >= 2).
  void set_stats(const std::string& key, const Stats& s) {
    set(key + ".count", static_cast<std::uint64_t>(s.count()));
    if (s.empty()) return;
    set(key + ".mean", s.mean());
    set(key + ".median", s.median());
    set(key + ".p99", s.percentile(99.0));
    if (s.count() >= 2) set(key + ".stddev", s.stddev());
  }
  /// Expands a metrics snapshot's preemption-tick pipeline to
  /// <key>.{ticks_sent,handler_entries,handler_deferred,klt_degraded_ticks,
  /// preemptions,tick_effectiveness,switch_rate} — how many ticks were sent,
  /// how many landed on preemptible code, and how many became switches.
  void set_tick_effectiveness(const std::string& key,
                              const metrics::Snapshot& s) {
    set(key + ".ticks_sent", s.ticks_sent);
    set(key + ".handler_entries", s.handler_entries);
    set(key + ".handler_deferred", s.handler_deferred);
    set(key + ".klt_degraded_ticks", s.klt_degraded_ticks);
    set(key + ".preemptions", s.preemptions);
    set(key + ".tick_effectiveness", s.tick_effectiveness());
    set(key + ".switch_rate", s.switch_rate());
  }

  /// Expands a tracer histogram to <key>.{count,p50_ns,p90_ns,p99_ns,p999_ns}.
  void set_hist(const std::string& key, const trace::HistSnapshot& h) {
    set(key + ".count", h.count());
    if (h.count() == 0) return;
    set(key + ".p50_ns", h.percentile_ns(50.0));
    set(key + ".p90_ns", h.percentile_ns(90.0));
    set(key + ".p99_ns", h.percentile_ns(99.0));
    set(key + ".p999_ns", h.percentile_ns(99.9));
  }

  /// The two causal-scheduling histograms of a traced run, as
  /// <key>.{sched_delay,spawn_latency}.{count,p50_ns,...} — call with
  /// Runtime::metrics_snapshot() taken while tracing was armed (empty
  /// histograms otherwise; see docs/observability.md "Causal tracing").
  void set_sched_hists(const std::string& key, const trace::HistSnapshot& delay,
                       const trace::HistSnapshot& spawn) {
    set_hist(key + ".sched_delay", delay);
    set_hist(key + ".spawn_latency", spawn);
  }

  /// Write the report; a "" path is a silent no-op (bench ran without
  /// --json). Returns true when a file was written.
  bool write(const std::string& path) const {
    if (path.empty()) return false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_util: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"metrics\": {", quote(name_).c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i)
      std::fprintf(f, "%s\n    %s: %s", i != 0 ? "," : "",
                   quote(entries_[i].first).c_str(), entries_[i].second.c_str());
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("\n[json written to %s]\n", path.c_str());
    return true;
  }

 private:
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace lpt::bench
