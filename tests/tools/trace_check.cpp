// Standalone validator for the causal event log (docs/observability.md,
// "Causal tracing & scheduling delay"). The check.sh smoke runs a mixed
// workload with LPT_TRACE_EVENTS_FILE + LPT_METRICS_FILE set and feeds both
// outputs through this binary, which cross-checks the raw JSONL event log
// against the same run's published Prometheus metrics:
//
//   1. Structure: every line parses, timestamps are sorted, types are known.
//   2. Ready/dispatch pairing: every ult_dispatch is preceded — since that
//      ULT's previous dispatch — by an event that made it runnable
//      (ult_wake, ult_yield, preempt_signal_yield, preempt_klt_switch), and
//      its arg0 (scheduling delay) is plausible against the event gap. An
//      ult_inline (a joiner running its child on its own stack) consumes
//      the child's ready event the same way, is no dispatch, and names a
//      joiner that appeared in the log before it.
//   3. Wake-edge referential integrity: every ult_wake names a real woken
//      ULT, and a nonzero waker (arg0) is a ULT that itself appears in the
//      log no later than the edge.
//   4. Exact reconciliation: the number of dispatches and the summed per-ULT
//      scheduling delay in the log equal the lpt_sched_delay_ns histogram's
//      _count/_sum across pools, and first-dispatches equal the
//      lpt_spawn_latency_ns _count. Requires a drop-free ring
//      (lpt_trace_dropped_total == 0); run with LPT_TRACE_RING_CAP sized for
//      the workload.
//
// Exit 0 when every check passes.
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "support/prom_parser.hpp"

namespace {

struct Event {
  std::int64_t ts = 0;
  std::string type;
  std::uint64_t ult = 0;
  std::int64_t worker = -1;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

int g_rc = 0;
void fail(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "trace_check: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
  g_rc = 1;
}

/// Pull one "key":value pair out of a flat one-line JSON object. The JSONL
/// writer emits exactly {"ts":N,"type":"s","ult":N,"worker":N,"arg0":N,
/// "arg1":N}, so a targeted scan beats a JSON parser dependency.
bool json_field(const std::string& line, const char* key, std::string* out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = at + needle.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(i + 1, end - i - 1);
    return true;
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(i, end - i);
  return true;
}

std::string slurp(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return {};
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Every name the tracer can write: event_name() over the EventType range.
const std::set<std::string> kKnownTypes = [] {
  std::set<std::string> names;
  for (int t = 1; t < static_cast<int>(lpt::trace::EventType::kCount); ++t)
    names.insert(lpt::trace::event_name(static_cast<lpt::trace::EventType>(t)));
  return names;
}();

bool is_ready_event(const std::string& t) {
  return t == "ult_wake" || t == "ult_yield" || t == "preempt_signal_yield" ||
         t == "preempt_klt_switch";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <events-jsonl> <metrics-file>\n", argv[0]);
    return 2;
  }
  const std::string jsonl = slurp(argv[1]);
  if (jsonl.empty()) {
    std::fprintf(stderr, "trace_check: cannot read %s\n", argv[1]);
    return 2;
  }
  const std::string prom_text = slurp(argv[2]);
  if (prom_text.empty()) {
    std::fprintf(stderr, "trace_check: cannot read %s\n", argv[2]);
    return 2;
  }

  // ----- parse the event log ------------------------------------------------
  std::vector<Event> evs;
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < jsonl.size()) {
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    const std::string line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;
    Event e;
    std::string v;
    if (!json_field(line, "ts", &v)) {
      fail("line %d: missing ts", lineno);
      continue;
    }
    e.ts = std::strtoll(v.c_str(), nullptr, 10);
    if (!json_field(line, "type", &v)) {
      fail("line %d: missing type", lineno);
      continue;
    }
    e.type = v;
    if (json_field(line, "ult", &v)) e.ult = std::strtoull(v.c_str(), nullptr, 10);
    if (json_field(line, "worker", &v)) e.worker = std::strtoll(v.c_str(), nullptr, 10);
    if (json_field(line, "arg0", &v)) e.arg0 = std::strtoull(v.c_str(), nullptr, 10);
    if (json_field(line, "arg1", &v)) e.arg1 = std::strtoull(v.c_str(), nullptr, 10);
    if (!kKnownTypes.count(e.type)) fail("line %d: unknown type '%s'", lineno, e.type.c_str());
    if (!evs.empty() && e.ts < evs.back().ts)
      fail("line %d: timestamps not sorted (%" PRId64 " after %" PRId64 ")",
           lineno, e.ts, evs.back().ts);
    evs.push_back(std::move(e));
  }
  if (evs.empty()) {
    fail("no events in %s", argv[1]);
    return g_rc;
  }

  // ----- parse the metrics --------------------------------------------------
  const lpt::promtest::Parsed prom = lpt::promtest::parse(prom_text);
  for (const std::string& err : prom.errors) fail("metrics: %s", err.c_str());

  const double dropped = prom.sum("lpt_trace_dropped_total");
  if (dropped != 0.0)
    fail("lpt_trace_dropped_total = %.0f: the event log is incomplete; "
         "re-run with a larger LPT_TRACE_RING_CAP", dropped);

  // ----- ready/dispatch pairing + per-ULT delay accumulation ----------------
  // ready_ts: ULT -> timestamp of its unconsumed became-ready event.
  std::map<std::uint64_t, std::int64_t> ready_ts;
  std::set<std::uint64_t> dispatched;     // ULTs with >= 1 dispatch
  std::set<std::uint64_t> seen_ults;      // any event naming this ULT so far
  std::uint64_t dispatches = 0, summed_delay = 0, wake_edges = 0, inlines = 0;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Event& e = evs[i];
    if (e.ult != 0) seen_ults.insert(e.ult);
    if (is_ready_event(e.type)) {
      if (e.ult == 0) {
        fail("event %zu: %s without a ULT id", i, e.type.c_str());
        continue;
      }
      if (ready_ts.count(e.ult))
        fail("event %zu: ULT %" PRIu64 " made ready twice without a dispatch",
             i, e.ult);
      ready_ts[e.ult] = e.ts;
      if (e.type == "ult_wake") {
        ++wake_edges;
        // Referential integrity: a nonzero waker is a ULT that has already
        // appeared in the log (it was running when it issued the wake).
        if (e.arg0 != 0 && !seen_ults.count(e.arg0))
          fail("event %zu: wake of ULT %" PRIu64 " names unknown waker %" PRIu64,
               i, e.ult, e.arg0);
      }
    } else if (e.type == "ult_dispatch") {
      ++dispatches;
      dispatched.insert(e.ult);
      auto it = ready_ts.find(e.ult);
      if (it == ready_ts.end()) {
        fail("event %zu: dispatch of ULT %" PRIu64 " with no prior ready event",
             i, e.ult);
        continue;
      }
      // arg0 is the delay the dispatching worker measured from the ready
      // stamp it consumed; the event-log gap brackets it from below only
      // loosely (emit happens after the stamp), so check plausibility: the
      // recorded delay must not be wildly larger than the observed gap.
      const std::uint64_t gap = static_cast<std::uint64_t>(e.ts - it->second);
      if (e.arg0 > gap + 1'000'000'000ull)
        fail("event %zu: dispatch delay %" PRIu64 " ns exceeds ready->dispatch "
             "gap %" PRIu64 " ns by more than a second", i, e.arg0, gap);
      summed_delay += e.arg0;
      ready_ts.erase(it);
    } else if (e.type == "ult_inline") {
      ++inlines;
      if (ready_ts.erase(e.ult) == 0)
        fail("event %zu: inline run of ULT %" PRIu64 " with no prior ready "
             "event", i, e.ult);
      if (e.arg0 == 0 || e.arg0 == e.ult || !seen_ults.count(e.arg0))
        fail("event %zu: inline run of ULT %" PRIu64 " names joiner %" PRIu64
             ", not a ULT seen before", i, e.ult, e.arg0);
    }
  }

  // ----- exact reconciliation against the histograms ------------------------
  if (dropped == 0.0) {
    const auto expect_eq = [&](const char* what, double log_v, double prom_v) {
      if (log_v != prom_v)
        fail("%s: event log says %.0f, metrics say %.0f", what, log_v, prom_v);
    };
    expect_eq("dispatch count vs lpt_sched_delay_ns_count",
              static_cast<double>(dispatches),
              prom.sum("lpt_sched_delay_ns_count"));
    expect_eq("summed scheduling delay vs lpt_sched_delay_ns_sum",
              static_cast<double>(summed_delay),
              prom.sum("lpt_sched_delay_ns_sum"));
    expect_eq("first-dispatched ULTs vs lpt_spawn_latency_ns_count",
              static_cast<double>(dispatched.size()),
              prom.sum("lpt_spawn_latency_ns_count"));
    expect_eq("dispatch count vs lpt_dispatches_total",
              static_cast<double>(dispatches),
              prom.sum("lpt_dispatches_total"));
    // Histogram self-consistency: +Inf bucket == count, per pool.
    for (const lpt::promtest::Sample& s : prom.samples) {
      if (s.name != "lpt_sched_delay_ns_bucket" &&
          s.name != "lpt_spawn_latency_ns_bucket")
        continue;
      auto le = s.labels.find("le");
      if (le == s.labels.end() || le->second != "+Inf") continue;
      auto pool = s.labels.find("pool");
      std::map<std::string, std::string> where;
      if (pool != s.labels.end()) where["pool"] = pool->second;
      const std::string count_name =
          s.name.substr(0, s.name.size() - 7) + "_count";
      const double count = prom.sum(count_name, where);
      if (s.value != count)
        fail("%s{pool=%s,le=+Inf} = %.0f != %s = %.0f", s.name.c_str(),
             pool != s.labels.end() ? pool->second.c_str() : "?", s.value,
             count_name.c_str(), count);
    }
  }

  if (g_rc == 0)
    std::printf("trace_check: %s ok (%zu events, %" PRIu64 " dispatches, %"
                PRIu64 " inline runs, %" PRIu64 " wake edges, %" PRIu64
                " ns total delay)\n",
                argv[1], evs.size(), dispatches, inlines, wake_edges,
                summed_delay);
  return g_rc;
}
