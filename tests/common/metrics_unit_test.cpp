// Unit tests of the metrics primitives and exporters that never touch a
// Runtime (no fiber context switches), so the whole binary is in scope for
// the ThreadSanitizer stage of scripts/check.sh — the same policy as
// test_trace_unit.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "telemetry.hpp"

namespace lpt {
namespace {

/// What `write` prints for `s`.
std::string render(void (*write)(std::FILE*, const metrics::Snapshot&),
                   const metrics::Snapshot& s) {
  std::FILE* f = std::tmpfile();
  write(f, s);
  std::fflush(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string render_prom(const metrics::Snapshot& s) {
  return render(metrics::write_prometheus, s);
}

std::string render_json(const metrics::Snapshot& s) {
  return render(metrics::write_json, s);
}

/// A synthetic two-worker snapshot with every field distinct, so a writer
/// that swaps two fields fails the round trip.
metrics::Snapshot sample_snapshot() {
  metrics::Snapshot s;
  s.taken_ns = 123;
  s.uptime_ns = 2'500'000'000;
  s.num_workers = 2;
  s.active_workers = 2;
  for (int r = 0; r < 2; ++r) {
    metrics::WorkerSample w;
    w.rank = r;
    w.dispatches = 100 + r;
    w.yields = 10 + r;
    w.blocks = 5 + r;
    w.exits = 90 + r;
    w.steals = 3 + r;
    w.preempt_signal_yield = 7 + r;
    w.preempt_klt_switch = 2 + r;
    w.ticks_sent = 50 + r;
    w.handler_entries = 40 + r;
    w.handler_deferred = 4 + r;
    w.klt_degraded_ticks = 1 + r;
    w.queue_depth = r;
    w.time_in_state_ns[1] = 1'000'000ull * (r + 1);
    s.workers.push_back(w);
  }
  s.finalize();
  s.ults_spawned = 200;
  s.ults_live = 3;
  s.klts_created = 4;
  s.klts_on_demand = 2;
  s.klt_pool_idle = 1;
  s.stacks_cached = 8;
  s.watchdog_checks = 33;
  s.watchdog_worker_stall = 1;
  return s;
}

TEST(MetricsCounters, SingleWriterCounterVisibleToReaders) {
  metrics::Counter c;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 100'000; ++i) c.inc();
    stop.store(true);
  });
  std::uint64_t last = 0;
  while (!stop.load()) {
    const std::uint64_t v = c.value();
    EXPECT_GE(v, last);  // monotonic from the reader's view
    last = v;
  }
  writer.join();
  EXPECT_EQ(c.value(), 100'000u);
}

TEST(MetricsCounters, AtomicCounterSumsAcrossThreads) {
  metrics::AtomicCounter c;
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([&] {
      for (int j = 0; j < 50'000; ++j) c.add();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), 200'000u);
}

TEST(MetricsCounters, GaugeBalancesAcrossThreads) {
  metrics::Gauge g;
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([&] {
      for (int j = 0; j < 20'000; ++j) {
        g.add(2);
        g.sub(2);
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsSnapshot, WorkerSampleCopiesEveryCounter) {
  metrics::WorkerMetrics m;
  m.dispatches.inc(5);
  m.yields.inc(4);
  m.blocks.inc(3);
  m.exits.inc(2);
  m.steals.inc(1);
  m.preempt_signal_yield.inc(6);
  m.preempt_klt_switch.inc(7);
  m.ticks_sent.add(8);
  m.handler_entries.add(9);
  m.handler_deferred.add(10);
  m.klt_degraded_ticks.add(11);
  m.set_state(metrics::WorkerState::kIdle);
  m.time_in_state_ns[2].inc(42);
  const metrics::WorkerSample w = m.sample();
  EXPECT_EQ(w.dispatches, 5u);
  EXPECT_EQ(w.yields, 4u);
  EXPECT_EQ(w.blocks, 3u);
  EXPECT_EQ(w.exits, 2u);
  EXPECT_EQ(w.steals, 1u);
  EXPECT_EQ(w.preempt_signal_yield, 6u);
  EXPECT_EQ(w.preempt_klt_switch, 7u);
  EXPECT_EQ(w.ticks_sent, 8u);
  EXPECT_EQ(w.handler_entries, 9u);
  EXPECT_EQ(w.handler_deferred, 10u);
  EXPECT_EQ(w.klt_degraded_ticks, 11u);
  EXPECT_EQ(w.state, static_cast<std::uint8_t>(metrics::WorkerState::kIdle));
  EXPECT_EQ(w.time_in_state_ns[2], 42u);
  EXPECT_EQ(m.preemptions(), 13u);
}

TEST(MetricsSnapshot, FinalizeSumsWorkers) {
  const metrics::Snapshot s = sample_snapshot();
  EXPECT_EQ(s.dispatches, 201u);
  EXPECT_EQ(s.yields, 21u);
  EXPECT_EQ(s.steals, 7u);
  EXPECT_EQ(s.preemptions, s.preempt_signal_yield + s.preempt_klt_switch);
  EXPECT_EQ(s.ticks_sent, 101u);
  EXPECT_EQ(s.handler_entries, 81u);
  EXPECT_EQ(s.run_queue_depth, 1);
  EXPECT_NEAR(s.tick_effectiveness(), 81.0 / 101.0, 1e-9);
}

TEST(MetricsSnapshot, RatiosDefinedWithoutTicks) {
  metrics::Snapshot s;
  EXPECT_EQ(s.tick_effectiveness(), 0.0);
  EXPECT_EQ(s.switch_rate(), 0.0);
}

TEST(MetricsExposition, PrometheusRoundTripsThroughParser) {
  const metrics::Snapshot s = sample_snapshot();
  const std::string text = render_prom(s);
  const telemetry::Metrics p = telemetry::parse_prometheus(text);
  for (const std::string& e : p.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(p.ok());

  EXPECT_EQ(p.sum("lpt_dispatches_total"), 201.0);
  EXPECT_EQ(p.sum("lpt_dispatches_total", {{"worker", "1"}}), 101.0);
  EXPECT_EQ(p.sum("lpt_preemptions_total", {{"kind", "signal_yield"}}), 15.0);
  EXPECT_EQ(p.sum("lpt_preemptions_total", {{"kind", "klt_switch"}}), 5.0);
  EXPECT_EQ(p.sum("lpt_run_queue_depth"), 1.0);
  EXPECT_EQ(p.sum("lpt_ults_spawned_total"), 200.0);
  EXPECT_EQ(p.sum("lpt_ults_live"), 3.0);
  EXPECT_EQ(p.sum("lpt_watchdog_checks_total"), 33.0);
  EXPECT_EQ(p.sum("lpt_watchdog_flags_total", {{"kind", "worker_stall"}}),
            1.0);
  EXPECT_NEAR(p.sum("lpt_uptime_seconds"), 2.5, 1e-9);
  // Counters are typed counter, gauges gauge.
  EXPECT_EQ(p.types.at("lpt_dispatches_total"), "counter");
  EXPECT_EQ(p.types.at("lpt_run_queue_depth"), "gauge");
  EXPECT_EQ(p.types.at("lpt_worker_time_in_state_seconds_total"), "counter");
  const auto* running = p.find("lpt_worker_time_in_state_seconds_total",
                               {{"worker", "0"}, {"state", "running"}});
  ASSERT_NE(running, nullptr);
  EXPECT_NEAR(running->value, 0.001, 1e-12);
}

TEST(MetricsExposition, JsonIsBalancedAndCarriesTotals) {
  const std::string text = render_json(sample_snapshot());
  telemetry::Json j;
  std::string err;
  ASSERT_TRUE(telemetry::parse_json(text, &j, &err)) << err << "\n" << text;
  ASSERT_EQ(j.kind, telemetry::Json::kObject);
  const telemetry::Json* totals = j.get("totals");
  ASSERT_NE(totals, nullptr);
  std::uint64_t dispatches = 0;
  EXPECT_TRUE(totals->int_at("dispatches", &dispatches));
  EXPECT_EQ(dispatches, 201u);
  ASSERT_NE(totals->get("tick_effectiveness"), nullptr);
  EXPECT_EQ(totals->get("tick_effectiveness")->kind, telemetry::Json::kNumber);
  ASSERT_NE(j.get("workers"), nullptr);
  EXPECT_EQ(j.get("workers")->kind, telemetry::Json::kArray);
}

/// Three workers and every field of Snapshot and WorkerSample set to a value
/// no other field has (signed fields negative, both flags of each kind).
metrics::Snapshot distinct_snapshot() {
  metrics::Snapshot s;
  std::uint64_t n = 1000;
  auto next = [&n] { return n += 7; };
  auto neg = [&next] { return -static_cast<std::int64_t>(next()); };
  s.taken_ns = static_cast<std::int64_t>(next());
  s.uptime_ns = 2'345'678'901;
  s.num_workers = 3;
  s.active_workers = 2;
  for (int r = 0; r < 3; ++r) {
    metrics::WorkerSample w;
    w.rank = r;
    w.dispatches = next();
    w.yields = next();
    w.blocks = next();
    w.exits = next();
    w.steals = next();
    w.preempt_signal_yield = next();
    w.preempt_klt_switch = next();
    w.ticks_sent = next();
    w.handler_entries = next();
    w.handler_deferred = next();
    w.klt_degraded_ticks = next();
    w.ult_faults = next();
    w.stack_overflows = next();
    w.escaped_exceptions = next();
    w.ult_cancels = next();
    w.syscall_blocks = next();
    w.queue_depth = neg();
    for (std::uint64_t& t : w.time_in_state_ns) t = next() * 1'000'003;
    w.state = static_cast<std::uint8_t>(r);
    w.parked = r == 1;
    w.posix_timer_fallback = r != 1;
    s.workers.push_back(w);
  }
  s.finalize();
  s.ults_spawned = next();
  s.ults_live = neg();
  s.klts_created = next();
  s.klts_on_demand = next();
  s.klt_create_failures = next();
  s.klt_pool_idle = neg();
  s.stacks_cached = next();
  s.stacks_shed = next();
  s.spawn_stack_failures = next();
  s.posix_timer_fallbacks = next();
  s.faults_injected = next();
  s.klts_retired = next();
  s.stacks_quarantined = next();
  s.stack_near_overflows = next();
  s.stack_watermark_max = next();
  s.stack_size_bytes = next();
  s.watchdog_checks = next();
  s.watchdog_runnable_starvation = next();
  s.watchdog_worker_stall = next();
  s.watchdog_quantum_overrun = next();
  s.watchdog_fault_storm = next();
  s.watchdog_syscall_blocked = next();
  s.watchdog_deadlock = next();
  s.watchdog_abandoned_lock = next();
  s.remediations_retick = next();
  s.remediations_cancel = next();
  s.remediations_klt_replace = next();
  s.remediations_deadlock_break = next();
  s.deadlock_cycles = next();
  s.self_deadlocks = next();
  s.abandoned_locks = next();
  s.abandoned_released = next();
  s.parked_waiters = neg();
  s.syscall_comp_activated = next();
  s.syscall_comp_reabsorbed = next();
  s.syscall_comp_saturated = next();
  s.trace_enabled = true;
  s.trace_events = next();
  s.trace_dropped = next();
  s.prof_enabled = false;
  s.prof_sample_invocations = next();
  s.prof_samples_recorded = next();
  s.prof_samples_dropped = next();
  s.prof_offcpu_waits = next();
  s.prof_offcpu_ns = next() * 12'345;
  s.prof_lock_acquires = next();
  s.prof_lock_contended = next();
  s.prof_contention_chains = next();
  return s;
}

/// `kind="retick"` -> {kind: retick}, plus the worker label when rank >= 0.
std::map<std::string, std::string> prom_labels(const metrics::Metric& m,
                                               int rank) {
  std::map<std::string, std::string> labels;
  if (rank >= 0) labels["worker"] = std::to_string(rank);
  if (m.label != nullptr) {
    const std::string l = m.label;
    const std::size_t eq = l.find('=');
    labels[l.substr(0, eq)] = l.substr(eq + 2, l.size() - eq - 3);
  }
  return labels;
}

void expect_json(const telemetry::Json* j, const metrics::Value& v) {
  ASSERT_NE(j, nullptr);
  if (v.kind == metrics::Value::Kind::kBool) {
    ASSERT_EQ(j->kind, telemetry::Json::kBool);
    EXPECT_EQ(j->boolean, v.u != 0);
  } else {
    ASSERT_EQ(j->kind, telemetry::Json::kNumber);
    EXPECT_NEAR(j->number, v.number(), 1e-6);
  }
}

TEST(MetricsExposition, EveryRowShowsItsValueInEveryFormat) {
  const metrics::Snapshot s = distinct_snapshot();
  const telemetry::Metrics prom = telemetry::parse_prometheus(render_prom(s));
  for (const std::string& e : prom.errors) ADD_FAILURE() << e;
  telemetry::Json json;
  std::string json_error;
  EXPECT_TRUE(telemetry::parse_json(render_json(s), &json, &json_error))
      << json_error;
  const telemetry::Json* workers = json.get("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array.size(), s.workers.size());
  std::map<std::string, std::uint64_t> summary;
  const std::string summary_text = render(metrics::write_degradation, s);
  for (std::size_t at = summary_text.find('\n') + 1; at < summary_text.size();) {
    const std::size_t eol = summary_text.find('\n', at);
    const std::string line = summary_text.substr(at, eol - at);
    const std::size_t sp = line.find_last_of(' ');
    const std::size_t end = line.find_last_not_of(' ', sp);
    summary[line.substr(2, end - 1)] = std::stoull(line.substr(sp + 1));
    at = eol + 1;
  }

  // Every Prometheus sample a row accounts for; the rest must be the
  // hand-written families.
  std::set<const telemetry::Sample*> shown;
  auto expect_prom = [&](const metrics::Metric& m, int rank,
                         const metrics::Value& v) {
    const telemetry::Sample* p = prom.find(m.prom, prom_labels(m, rank));
    ASSERT_NE(p, nullptr) << "rank " << rank;
    shown.insert(p);
    if (m.seconds > 0)
      EXPECT_NEAR(p->value, v.number() / 1e9, 1.0 / 1e3);
    else
      EXPECT_EQ(p->value, v.number());
  };
  std::size_t summarized = 0;
  for (const metrics::Metric& m : metrics::metric_table()) {
    if (m.series != nullptr) continue;
    SCOPED_TRACE(m.prom ? m.prom : m.key ? m.key : m.worker_key);
    if (m.worker != nullptr) {
      for (std::size_t i = 0; i < s.workers.size(); ++i) {
        const metrics::Value v = m.worker(s.workers[i]);
        if (m.prom != nullptr) expect_prom(m, s.workers[i].rank, v);
        if (m.worker_key != nullptr)
          expect_json(workers->array[i].get(m.worker_key), v);
      }
    }
    if (m.total == nullptr) continue;
    const metrics::Value v = m.total(s);
    if (m.prom != nullptr && m.worker == nullptr) expect_prom(m, -1, v);
    if (m.key != nullptr) {
      const telemetry::Json* in = m.group ? json.get(m.group) : &json;
      ASSERT_NE(in, nullptr) << m.group;
      expect_json(in->get(m.key), v);
    }
    if (m.summary != nullptr) {
      ++summarized;
      EXPECT_EQ(summary[m.summary], v.u);
    }
  }
  EXPECT_EQ(summary.size(), summarized);
  for (const telemetry::Sample& p : prom.samples) {
    if (shown.count(&p) != 0) continue;
    EXPECT_TRUE(p.name.rfind("lpt_worker_time_in_state_seconds_total", 0) ==
                    0 ||
                p.name.rfind("lpt_sched_delay_ns_", 0) == 0 ||
                p.name.rfind("lpt_spawn_latency_ns_", 0) == 0)
        << p.name << " has no table row";
  }
}

TEST(MetricsConfig, FormatFollowsPathSuffix) {
  EXPECT_EQ(metrics::format_for_path("metrics.prom"),
            metrics::Format::kPrometheus);
  EXPECT_EQ(metrics::format_for_path("metrics.json"), metrics::Format::kJson);
  EXPECT_EQ(metrics::format_for_path("x.json.bak"),
            metrics::Format::kPrometheus);
  EXPECT_EQ(metrics::format_for_path(""), metrics::Format::kPrometheus);
}

}  // namespace
}  // namespace lpt
