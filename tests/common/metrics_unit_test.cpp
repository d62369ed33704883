// Unit tests of the metrics primitives and exporters that never touch a
// Runtime (no fiber context switches), so the whole binary is in scope for
// the ThreadSanitizer stage of scripts/check.sh — the same policy as
// test_trace_unit.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "support/prom_parser.hpp"

namespace lpt {
namespace {

std::string render_prom(const metrics::Snapshot& s) {
  std::FILE* f = std::tmpfile();
  metrics::write_prometheus(f, s);
  std::fflush(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string render_json(const metrics::Snapshot& s) {
  std::FILE* f = std::tmpfile();
  metrics::write_json(f, s);
  std::fflush(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
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
  const promtest::Parsed p = promtest::parse(text);
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
  const metrics::Snapshot s = sample_snapshot();
  const std::string text = render_json(s);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  int depth = 0, brackets = 0;
  for (char c : text) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(text.find("\"dispatches\": 201"), std::string::npos) << text;
  EXPECT_NE(text.find("\"workers\""), std::string::npos);
  EXPECT_NE(text.find("\"tick_effectiveness\""), std::string::npos);
}

TEST(MetricsConfig, EnvOverridesPublishConfig) {
  unsetenv("LPT_METRICS_FILE");
  unsetenv("LPT_METRICS_PERIOD_MS");
  metrics::PublishConfig base;
  base.file = "from_options.prom";
  base.period_ms = 250;
  metrics::PublishConfig r = metrics::resolve_publish_config(base);
  EXPECT_EQ(r.file, "from_options.prom");
  EXPECT_EQ(r.period_ms, 250);

  setenv("LPT_METRICS_FILE", "/tmp/env.json", 1);
  setenv("LPT_METRICS_PERIOD_MS", "75", 1);
  r = metrics::resolve_publish_config(base);
  EXPECT_EQ(r.file, "/tmp/env.json");
  EXPECT_EQ(r.period_ms, 75);

  // Garbage or non-positive periods fall back to a sane default.
  setenv("LPT_METRICS_PERIOD_MS", "banana", 1);
  r = metrics::resolve_publish_config(base);
  EXPECT_EQ(r.period_ms, 250);
  setenv("LPT_METRICS_PERIOD_MS", "-5", 1);
  base.period_ms = 0;
  r = metrics::resolve_publish_config(base);
  EXPECT_EQ(r.period_ms, 1000);

  unsetenv("LPT_METRICS_FILE");
  unsetenv("LPT_METRICS_PERIOD_MS");
}

TEST(MetricsConfig, PeriodRejectsJunkAndOutOfRange) {
  metrics::PublishConfig base;
  base.period_ms = 250;
  for (const char* bad :
       {"75junk", "99999999999999999999", "86400001", "0", "-5"}) {
    setenv("LPT_METRICS_PERIOD_MS", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(metrics::resolve_publish_config(base).period_ms, 250) << bad;
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "lpt: ignoring malformed LPT_METRICS_PERIOD_MS"),
              std::string::npos)
        << bad;
  }
  unsetenv("LPT_METRICS_PERIOD_MS");
}

TEST(MetricsConfig, FormatFollowsPathSuffix) {
  EXPECT_EQ(metrics::format_for_path("metrics.prom"),
            metrics::Format::kPrometheus);
  EXPECT_EQ(metrics::format_for_path("metrics.json"), metrics::Format::kJson);
  EXPECT_EQ(metrics::format_for_path("x.json.bak"),
            metrics::Format::kPrometheus);
  EXPECT_EQ(metrics::format_for_path(""), metrics::Format::kPrometheus);
}

TEST(PromParser, RejectsMalformedExpositions) {
  // No TYPE before the sample.
  EXPECT_FALSE(promtest::parse("orphan_total 1\n").ok());
  // Counter not ending in _total.
  EXPECT_FALSE(promtest::parse("# TYPE bad counter\nbad 1\n").ok());
  // Duplicate series.
  EXPECT_FALSE(promtest::parse("# TYPE a_total counter\n"
                               "a_total{w=\"0\"} 1\na_total{w=\"0\"} 2\n")
                   .ok());
  // Unterminated label set / bad value.
  EXPECT_FALSE(promtest::parse("# TYPE a gauge\na{w=\"0\" 1\n").ok());
  EXPECT_FALSE(promtest::parse("# TYPE a gauge\na twelve\n").ok());
  // A well-formed minimal exposition passes.
  EXPECT_TRUE(promtest::parse("# HELP a_total says a\n"
                              "# TYPE a_total counter\na_total 12\n")
                  .ok());
}

}  // namespace
}  // namespace lpt
