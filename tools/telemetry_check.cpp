// Validator for the runtime's telemetry exports, read through telemetry.hpp.
// scripts/check.sh runs workloads with LPT_METRICS_FILE, LPT_PROF_FILE,
// LPT_TRACE_EVENTS_FILE and a Chrome trace set, and feeds the files here, so
// each export path (env config -> collectors -> atomic rewrite -> format) is
// gated end to end without gtest.
//
//   telemetry_check [--metrics F] [--profile F] [--events F] [--chrome F]
//
// Each given file must parse strictly; then every cross-check the given
// files allow runs:
//
//   metrics          every family of metrics::metric_table() is present.
//   profile          the accounting identities (read_profile), either format.
//   events           every line is a known event, timestamps sorted.
//   chrome           a traceEvents array of named events, flow arrows paired.
//   profile×metrics  each profile counter equals the counter the same run
//                    published: both come from the same atomics after the
//                    runtime quiesced, so a mismatch is an exporter bug.
//   events×metrics   1. every ult_dispatch is preceded, since that ULT's
//                    previous dispatch, by an event that made it runnable
//                    (ult_wake, ult_yield, preempt_signal_yield,
//                    preempt_klt_switch), with a plausible arg0 (scheduling
//                    delay); an ult_inline (a joiner running its child on
//                    its own stack) consumes the ready event the same way,
//                    is no dispatch, and names a joiner seen before it.
//                    2. every ult_wake names a woken ULT, and a nonzero waker
//                    (arg0) has appeared in the log no later than the edge.
//                    3. the dispatch count and summed delay equal the
//                    lpt_sched_delay_ns _count/_sum over pools, and first
//                    dispatches the lpt_spawn_latency_ns _count. That needs a
//                    drop-free ring (lpt_trace_dropped_total == 0): size
//                    LPT_TRACE_RING_CAP for the workload.
//
// Exit 0 when every check passes, 1 when one fails, 2 on bad usage or an
// unreadable file.
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "common/metrics.hpp"
#include "telemetry.hpp"

namespace {

using lpt::trace::EventType;
namespace telemetry = lpt::telemetry;

int g_rc = 0;

[[gnu::format(printf, 1, 2)]] void fail(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "telemetry_check: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
  g_rc = 1;
}

void fail_all(const char* what, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) fail("%s: %s", what, e.c_str());
}

void check_metrics(const telemetry::Metrics& prom) {
  for (const lpt::metrics::Metric& m : lpt::metrics::metric_table())
    if (m.prom != nullptr && !prom.has_family(m.prom))
      fail("metrics: family %s missing", m.prom);
}

void check_chrome(const telemetry::Json& root) {
  const telemetry::Json* evs = root.get("traceEvents");
  if (evs == nullptr || evs->kind != telemetry::Json::kArray)
    return fail("chrome: no traceEvents array");
  std::map<std::string, int> phases;
  for (const telemetry::Json& e : evs->array) {
    const telemetry::Json* name = e.get("name");
    const telemetry::Json* ph = e.get("ph");
    if (name == nullptr || name->kind != telemetry::Json::kString ||
        ph == nullptr || ph->kind != telemetry::Json::kString)
      return fail("chrome: an event without a name and ph");
    ++phases[ph->str];
  }
  if (phases["s"] != phases["f"])
    fail("chrome: %d flow starts but %d flow ends", phases["s"], phases["f"]);
}

void cross_check_profile(const telemetry::Profile& p,
                         const telemetry::Metrics& prom) {
  for (const telemetry::ProfileCounter& c : telemetry::kProfileCounters) {
    if (c.family == nullptr) continue;
    if (!prom.has_family(c.family)) {
      fail("metrics family %s missing", c.family);
      continue;
    }
    const double metric = prom.sum(c.family);
    if (metric != static_cast<double>(p.*c.field))
      fail("%s = %.0f but the profile says %s = %" PRIu64, c.family, metric,
           c.header, p.*c.field);
  }
  if (prom.sum("lpt_prof_enabled") != 1.0) fail("lpt_prof_enabled is not 1");
}

bool is_ready_event(EventType t) {
  return t == EventType::kUltWake || t == EventType::kUltYield ||
         t == EventType::kPreemptSignalYield ||
         t == EventType::kPreemptKltSwitch;
}

void cross_check_events(const telemetry::Events& log,
                        const telemetry::Metrics& prom) {
  const double dropped = prom.sum("lpt_trace_dropped_total");
  if (dropped != 0.0)
    fail("lpt_trace_dropped_total = %.0f: the event log is incomplete; "
         "re-run with a larger LPT_TRACE_RING_CAP", dropped);

  // ready_ts: ULT -> timestamp of its unconsumed became-ready event.
  std::map<std::uint64_t, std::int64_t> ready_ts;
  std::set<std::uint64_t> dispatched;  // ULTs with >= 1 dispatch
  std::set<std::uint64_t> seen_ults;   // any event naming this ULT so far
  std::uint64_t dispatches = 0, summed_delay = 0, wake_edges = 0, inlines = 0;
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const telemetry::Event& e = log.events[i];
    if (e.ult != 0) seen_ults.insert(e.ult);
    if (is_ready_event(e.type)) {
      if (e.ult == 0) {
        fail("event %zu: %s without a ULT id", i,
             lpt::trace::event_name(e.type));
        continue;
      }
      if (ready_ts.count(e.ult))
        fail("event %zu: ULT %" PRIu64 " made ready twice without a dispatch",
             i, e.ult);
      ready_ts[e.ult] = e.ts;
      if (e.type == EventType::kUltWake) {
        ++wake_edges;
        // A nonzero waker was running when it issued the wake, so it has
        // already appeared in the log.
        if (e.arg0 != 0 && !seen_ults.count(e.arg0))
          fail("event %zu: wake of ULT %" PRIu64 " names unknown waker %" PRIu64,
               i, e.ult, e.arg0);
      }
    } else if (e.type == EventType::kUltDispatch) {
      ++dispatches;
      dispatched.insert(e.ult);
      auto it = ready_ts.find(e.ult);
      if (it == ready_ts.end()) {
        fail("event %zu: dispatch of ULT %" PRIu64 " with no prior ready event",
             i, e.ult);
        continue;
      }
      // arg0 is the delay the dispatching worker measured from the ready
      // stamp it consumed; the event is emitted after the stamp, so the log
      // gap brackets it only loosely: the delay must not be wildly larger.
      const std::uint64_t gap = static_cast<std::uint64_t>(e.ts - it->second);
      if (e.arg0 > gap + 1'000'000'000ull)
        fail("event %zu: dispatch delay %" PRIu64 " ns exceeds ready->dispatch "
             "gap %" PRIu64 " ns by more than a second", i, e.arg0, gap);
      summed_delay += e.arg0;
      ready_ts.erase(it);
    } else if (e.type == EventType::kUltInline) {
      ++inlines;
      if (ready_ts.erase(e.ult) == 0)
        fail("event %zu: inline run of ULT %" PRIu64 " with no prior ready "
             "event", i, e.ult);
      if (e.arg0 == 0 || e.arg0 == e.ult || !seen_ults.count(e.arg0))
        fail("event %zu: inline run of ULT %" PRIu64 " names joiner %" PRIu64
             ", not a ULT seen before", i, e.ult, e.arg0);
    }
  }

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
    for (const telemetry::Sample& s : prom.samples) {
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
    std::printf("telemetry_check: events ok (%zu events, %" PRIu64
                " dispatches, %" PRIu64 " inline runs, %" PRIu64
                " wake edges, %" PRIu64 " ns total delay)\n",
                log.events.size(), dispatches, inlines, wake_edges,
                summed_delay);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics F] [--profile F] [--events F] "
               "[--chrome F]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::set<std::string> flags = {"--metrics", "--profile", "--events",
                                       "--chrome"};
  std::map<std::string, std::string> text;  // flag -> file contents
  for (int i = 1; i < argc; i += 2) {
    if (!flags.count(argv[i]) || i + 1 >= argc || text.count(argv[i]))
      return usage(argv[0]);
    if ((text[argv[i]] = telemetry::slurp(argv[i + 1])).empty()) {
      std::fprintf(stderr, "telemetry_check: cannot read %s, or it is empty\n",
                   argv[i + 1]);
      return 2;
    }
  }
  if (text.empty()) return usage(argv[0]);

  telemetry::Metrics prom;
  const bool metrics = text.count("--metrics") != 0;
  if (metrics) {
    prom = telemetry::parse_prometheus(text["--metrics"]);
    fail_all("metrics", prom.errors);
    check_metrics(prom);
    if (g_rc == 0)
      std::printf("telemetry_check: metrics ok (%zu samples, %zu families)\n",
                  prom.samples.size(), prom.types.size());
  }
  if (text.count("--profile")) {
    const telemetry::Profile p = telemetry::read_profile(text["--profile"]);
    fail_all("profile", p.errors);
    if (p.ok() && metrics) cross_check_profile(p, prom);
    if (g_rc == 0)
      std::printf("telemetry_check: profile ok (mode %s, %zu stacks, %" PRIu64
                  " samples, %" PRIu64 " waits%s)\n",
                  p.mode.c_str(), p.stacks.size(), p.recorded, p.offcpu_waits,
                  metrics ? ", matches metrics" : "");
  }
  if (text.count("--events")) {
    const telemetry::Events log = telemetry::read_events(text["--events"]);
    fail_all("events", log.errors);
    if (log.ok() && metrics) cross_check_events(log, prom);
    else if (log.ok() && g_rc == 0)
      std::printf("telemetry_check: events ok (%zu events)\n",
                  log.events.size());
  }
  if (text.count("--chrome")) {
    telemetry::Json root;
    std::string why;
    if (!telemetry::parse_json(text["--chrome"], &root, &why))
      fail("chrome: %s", why.c_str());
    else
      check_chrome(root);
    if (g_rc == 0) std::printf("telemetry_check: chrome trace ok\n");
  }
  return g_rc;
}
