// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <cholesky_yield|forkjoin_tiny|sync_mix|insitu_latency>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with every observer off.
// --trace 1 runs the per-layer ladder, then the workload untraced and traced
// for half the time each (benchmark spans plus the runtime tracer), writes
// the spans and per-layer self times to --out, and reports the per-layer
// metrics. Both print human-readable lines first and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero when an output check failed. README.md documents the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using namespace perfbench;

/// Each run measures on fresh runtimes, one per segment, and reports
/// medians over segments: one unlucky runtime instance (thread placement, a
/// noisy neighbour) then moves no figure, and setup_s is the median of
/// several set-ups. Host slowdowns on a shared machine come in episodes of
/// seconds; with ten segments one must cover half the run to move a median.
/// The traced run alternates untraced and traced segments.
constexpr int kSegments = 10;
constexpr int kTraceSegments = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 3600) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "cholesky_yield") return make_cholesky_yield(seed);
  if (name == "forkjoin_tiny") return make_forkjoin_tiny(seed);
  if (name == "sync_mix") return make_sync_mix(seed);
  if (name == "insitu_latency") return make_insitu_latency(seed);
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Spin every hardware thread for a moment so that idle virtual CPUs are
/// running before the first set-up is timed.
void warm_cpus() {
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i)
    ts.emplace_back([] { lpt::busy_spin_ns(200'000'000); });
  for (auto& t : ts) t.join();
}

struct Segment {
  Phase phase;
  double setup_s = 0;  ///< runtime construction, seeded inputs and warm-up
};

Segment measure(Workload& w, bool traced, double seconds, Spans* spans) {
  Segment s;
  const std::int64_t t0 = now_ns();
  w.setup(traced);
  s.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  s.phase = w.run(seconds, spans);
  w.teardown();
  return s;
}

template <typename F>
double median_of(const std::vector<Segment>& segs, F f) {
  std::vector<double> v;
  for (const Segment& s : segs) v.push_back(f(s));
  return median(std::move(v));
}

void print(const Metric& m) {
  std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Always-on counter deltas over a phase (metrics_snapshot()).
std::vector<Metric> counter_metrics(const Phase& p) {
  const auto& a = p.before;
  const auto& b = p.after;
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - std::min(after, before));
  };
  double in_state[lpt::metrics::kWorkerStateCount] = {};
  double total = 0;
  for (std::size_t w = 0; w < b.workers.size() && w < a.workers.size(); ++w)
    for (int s = 0; s < lpt::metrics::kWorkerStateCount; ++s) {
      const double x = d(b.workers[w].time_in_state_ns[s], a.workers[w].time_in_state_ns[s]);
      in_state[s] += x;
      total += x;
    }
  const auto run = static_cast<int>(lpt::metrics::WorkerState::kRunningUlt);
  const auto idle = static_cast<int>(lpt::metrics::WorkerState::kIdle);
  const double ticks = d(b.ticks_sent, a.ticks_sent);
  const double switches = d(b.preemptions, a.preemptions);
  const double flags =
      d(b.watchdog_runnable_starvation, a.watchdog_runnable_starvation) +
      d(b.watchdog_worker_stall, a.watchdog_worker_stall) +
      d(b.watchdog_quantum_overrun, a.watchdog_quantum_overrun) +
      d(b.watchdog_fault_storm, a.watchdog_fault_storm) +
      d(b.watchdog_syscall_blocked, a.watchdog_syscall_blocked) +
      d(b.watchdog_deadlock, a.watchdog_deadlock) +
      d(b.watchdog_abandoned_lock, a.watchdog_abandoned_lock);
  const double remediations = d(b.remediations_retick, a.remediations_retick) +
                              d(b.remediations_cancel, a.remediations_cancel) +
                              d(b.remediations_klt_replace, a.remediations_klt_replace) +
                              d(b.remediations_deadlock_break, a.remediations_deadlock_break);
  return {
      {"runtime.stacks_cached", static_cast<double>(b.stacks_cached), "count"},
      {"runtime.stacks_shed", d(b.stacks_shed, a.stacks_shed), "count"},
      {"sched.dispatches", d(b.dispatches, a.dispatches), "count"},
      {"sched.steals", d(b.steals, a.steals), "count"},
      {"sched.yields", d(b.yields, a.yields), "count"},
      {"sched.blocks", d(b.blocks, a.blocks), "count"},
      {"sched.run_frac", total > 0 ? in_state[run] / total : 0, "ratio"},
      {"sched.idle_frac", total > 0 ? in_state[idle] / total : 0, "ratio"},
      {"preempt.ticks_sent", ticks, "count"},
      {"preempt.handler_entries", d(b.handler_entries, a.handler_entries), "count"},
      {"preempt.switches", switches, "count"},
      {"preempt.tick_effectiveness", ticks > 0 ? switches / ticks : 0, "ratio"},
      {"preempt.klts_created", static_cast<double>(b.klts_created), "count"},
      {"preempt.klt_degraded_ticks", d(b.klt_degraded_ticks, a.klt_degraded_ticks), "count"},
      {"observers.watchdog_flags", flags, "count"},
      {"observers.remediations", remediations, "count"},
  };
}

/// Tracer histograms over the traced phase (Runtime::stats()).
std::vector<Metric> tracer_metrics(const Phase& p) {
  const auto spawn = hist_delta(p.stats_after.spawn_latency_ns, p.stats_before.spawn_latency_ns);
  const auto delay = hist_delta(p.stats_after.sched_delay_ns, p.stats_before.sched_delay_ns);
  return {
      {"runtime.spawn_to_run_us_p50", spawn.percentile_ns(50) / 1e3, "us"},
      {"runtime.spawn_to_run_us_p99", spawn.percentile_ns(99) / 1e3, "us"},
      {"sched.delay_us_p50", delay.percentile_ns(50) / 1e3, "us"},
      {"sched.delay_us_p99", delay.percentile_ns(99) / 1e3, "us"},
  };
}

std::vector<Metric> harness_metrics(const Phase& p) {
  return {
      {"harness.generator_lag_us_p99", quantile(p.lag_us, 0.99), "us"},
      {"harness.probe_send_to_run_us_p50", quantile(p.send_to_run_us, 0.5), "us"},
  };
}

/// Per-name median over segments of a per-phase metric list.
std::vector<Metric> median_metrics(const std::vector<Segment>& segs,
                                   std::vector<Metric> (*f)(const Phase&)) {
  std::vector<std::vector<Metric>> per;
  for (const Segment& s : segs) per.push_back(f(s.phase));
  std::vector<Metric> out = per.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& m : per) v.push_back(m[i].value);
    out[i].value = median(std::move(v));
  }
  return out;
}

void print_phase(const char* title, const Segment& s) {
  const Phase& p = s.phase;
  std::printf("%s: setup %.3f s, ", title, s.setup_s);
  std::printf("measured %.2f s, %llu requests, %llu failed, %zu latency samples\n", p.seconds, static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.failed), p.latency_us.size());
  for (const Metric& m : p.detail) print(m);
  print({"latency_us_p50", quantile(p.latency_us, 0.5), "us"});
  print({"latency_us_p90", quantile(p.latency_us, 0.9), "us"});
  for (const Metric& m : harness_metrics(p)) print(m);
  for (const Metric& m : counter_metrics(p)) print(m);
}

void emit_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("context: compiler=\"%s\" build_type=%s ndebug=%d nproc=%u\n", __VERSION__,
              PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
              1,
#else
              0,
#endif
              std::thread::hardware_concurrency());

  warm_cpus();
  std::vector<Metric> out;
  std::uint64_t attempted = 0, failed = 0;
  auto count = [&](const Segment& s) {
    attempted += s.phase.attempted;
    failed += s.phase.failed;
  };

  if (!a.trace) {
    std::vector<Segment> segs;
    std::size_t fewest = SIZE_MAX;
    for (int k = 0; k < kSegments; ++k) {
      segs.push_back(measure(*w, false, a.seconds / kSegments, nullptr));
      count(segs.back());
      print_phase("segment", segs.back());
      fewest = std::min(fewest, segs.back().phase.latency_us.size());
    }
    out = {
        {"setup_s", median_of(segs, [](const Segment& s) { return s.setup_s; }), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"work_per_s", median_of(segs, [](const Segment& s) { return s.phase.work_per_s; }), "1/s"},
        {"latency_us_p50",
         median_of(segs, [](const Segment& s) { return quantile(s.phase.latency_us, 0.5); }), "us"},
        {"latency_us_p90",
         median_of(segs, [](const Segment& s) { return quantile(s.phase.latency_us, 0.9); }), "us"},
    };
    std::printf("latency samples: >= %zu per segment (p90 has >= %zu beyond it)\n", fewest,
                fewest / 10);
  } else {
    double gemm_gflops = 0;
    const std::vector<Metric> ladder = run_ladder(a.seed, &gemm_gflops);
    std::printf("ladder:\n");
    for (const Metric& m : ladder) print(m);

    // Untraced and traced segments alternate, so drift hits both alike.
    Spans spans;
    std::vector<Segment> plain, traced;
    for (int k = 0; k < kTraceSegments; ++k) {
      plain.push_back(measure(*w, false, a.seconds / (2 * kTraceSegments), nullptr));
      count(plain.back());
      print_phase("untraced segment", plain.back());
      traced.push_back(measure(*w, true, a.seconds / (2 * kTraceSegments), &spans));
      count(traced.back());
      print_phase("traced segment", traced.back());
    }

    const std::vector<SelfTime> self = spans.self_times();
    double self_total = 0;
    for (const SelfTime& st : self) self_total += st.self_ms;
    std::printf("spans: %llu recorded, %llu dropped; self time by span:\n",
                static_cast<unsigned long long>(spans.recorded()),
                static_cast<unsigned long long>(spans.dropped()));
    std::printf("  %-22s %10s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self%");
    for (const SelfTime& st : self)
      std::printf("  %-22s %10llu %12.3f %12.3f %7.2f%%\n", st.name.c_str(),
                  static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms,
                  self_total > 0 ? 100 * st.self_ms / self_total : 0);
    const std::string base = a.out + "/" + a.workload;
    if (!spans.write_csv(base + ".spans.csv"))
      std::fprintf(stderr, "perfbench: cannot write %s.spans.csv\n", base.c_str());
    if (std::FILE* f = std::fopen((base + ".selftime.csv").c_str(), "w")) {
      std::fprintf(f, "span,count,total_ms,self_ms\n");
      for (const SelfTime& st : self)
        std::fprintf(f, "%s,%llu,%.6f,%.6f\n", st.name.c_str(),
                     static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms);
      std::fclose(f);
    }

    out = ladder;
    for (const Metric& m : median_metrics(plain, counter_metrics)) out.push_back(m);
    for (const Metric& m : median_metrics(traced, tracer_metrics)) out.push_back(m);
    for (const Metric& m : median_metrics(plain, harness_metrics)) out.push_back(m);
    const double plain_rate = median_of(plain, [](const Segment& s) { return s.phase.work_per_s; });
    const double traced_rate =
        median_of(traced, [](const Segment& s) { return s.phase.work_per_s; });
    // Kernel-bound efficiency: achieved rate over workers x the lone-kernel
    // rate; only the Cholesky workload runs the tile kernels.
    double eff = 0;
    if (a.workload == "cholesky_yield" && gemm_gflops > 0) eff = plain_rate / (4 * gemm_gflops);
    out.push_back({"apps.parallel_eff", eff, "ratio"});
    out.push_back({"observers.trace_overhead_pct",
                   plain_rate > 0 ? 100 * (plain_rate - traced_rate) / plain_rate : 0, "%"});
  }

  std::printf("result:\n");
  for (const Metric& m : out) print(m);
  const bool correct = failed == 0;
  if (!correct)
    std::printf("FAILED: %llu of %llu requests failed their output check\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  emit_json(correct, attempted, failed, out);
  return correct ? 0 : 1;
}
