// Runtime-level tracer tests: recording from the preemption signal handler
// under a fast timer (the signal-safety smoke test), ring-overflow drop
// accounting surfaced through metrics::Snapshot, latency-histogram plumbing,
// and Chrome-trace export of a real run.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "telemetry.hpp"

namespace {

using namespace lpt;

volatile std::uint64_t g_sink;

using telemetry::slurp;

/// 100 us timer hammering the handler while it records trace events — the
/// signal-safety smoke test: no deadlock, no crash, consistent accounting.
TEST(TraceRuntime, SignalYieldSmokeUnderFastTimer) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 100;
  o.trace.enabled = true;
  o.trace.ring_capacity = 1u << 16;
  Runtime rt(o);

  ThreadAttrs a;
  a.preempt = Preempt::SignalYield;
  std::vector<Thread> ts;
  for (int i = 0; i < 2; ++i)
    ts.push_back(rt.spawn([] { busy_spin_ns(80'000'000); }, a));
  for (auto& t : ts) t.join();

  const metrics::Snapshot st = rt.metrics_snapshot();
  EXPECT_TRUE(st.trace_enabled);
  EXPECT_TRUE(rt.trace_enabled());
  EXPECT_GT(rt.total_preemptions(), 0u);
  EXPECT_GT(st.trace_events, 0u);

  // The handler recorded delivery latencies; the next dispatch recorded
  // reschedule latencies.
  EXPECT_GT(st.preempt_delivery_ns.count(), 0u);
  EXPECT_GT(st.preempt_resched_ns.count(), 0u);

  // Latency medians are sane: positive, below a second.
  EXPECT_GT(st.preempt_delivery_ns.median_ns(), 0.0);
  EXPECT_LT(st.preempt_delivery_ns.median_ns(), 1e9);
  EXPECT_GT(st.preempt_resched_ns.median_ns(), 0.0);
  EXPECT_LT(st.preempt_resched_ns.median_ns(), 1e9);
}

TEST(TraceRuntime, KltSwitchSmokeRecordsRoundTrips) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 200;
  o.initial_spare_klts = 1;
  o.trace.enabled = true;
  o.trace.ring_capacity = 1u << 16;
  Runtime rt(o);

  ThreadAttrs a;
  a.preempt = Preempt::KltSwitch;
  Thread t = rt.spawn([] { busy_spin_ns(60'000'000); }, a);
  t.join();

  const metrics::Snapshot st = rt.metrics_snapshot();
  std::uint64_t klt_preempts = 0;
  for (const auto& pw : st.workers) klt_preempts += pw.preempt_klt_switch;
  EXPECT_GT(klt_preempts, 0u);
  // Every completed KLT-switch preemption suspends a KLT that later resumes
  // (the ULT ran again — it finished), so round trips were measured.
  EXPECT_GT(st.klt_switch_trip_ns.count(), 0u);
  EXPECT_GT(st.klt_switch_trip_ns.median_ns(), 0.0);
  EXPECT_LT(st.klt_switch_trip_ns.median_ns(), 1e10);
}

/// The snapshot's five tracer histograms: on a quiesced traced runtime the
/// merged scheduling histograms equal the merge of the per-pool ones and the
/// preemption histograms saw both techniques; with tracing off, preemptions
/// still happen but all five stay empty.
TEST(TraceRuntime, SnapshotMergesTracerHistograms) {
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    RuntimeOptions o;
    o.num_workers = 2;
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = 200;
    o.initial_spare_klts = 1;
    o.trace.enabled = traced;
    o.trace.ring_capacity = 1u << 16;
    Runtime rt(o);

    std::vector<Thread> ts;
    for (const Preempt p : {Preempt::SignalYield, Preempt::KltSwitch}) {
      ThreadAttrs a;
      a.preempt = p;
      ts.push_back(rt.spawn([] { busy_spin_ns(40'000'000); }, a));
    }
    for (int i = 0; i < 32; ++i)
      ts.push_back(rt.spawn([] { this_thread::yield(); }));
    for (auto& t : ts) t.join();

    const metrics::Snapshot s = rt.metrics_snapshot();
    EXPECT_GT(s.preempt_signal_yield, 0u);
    EXPECT_GT(s.preempt_klt_switch, 0u);
    if (!traced) {
      EXPECT_EQ(s.preempt_delivery_ns.count(), 0u);
      EXPECT_EQ(s.preempt_resched_ns.count(), 0u);
      EXPECT_EQ(s.klt_switch_trip_ns.count(), 0u);
      EXPECT_EQ(s.sched_delay_ns.count(), 0u);
      EXPECT_EQ(s.spawn_latency_ns.count(), 0u);
      continue;
    }
    EXPECT_GT(s.preempt_delivery_ns.count(), 0u);
    EXPECT_GT(s.preempt_resched_ns.count(), 0u);
    EXPECT_GT(s.klt_switch_trip_ns.count(), 0u);
    ASSERT_EQ(s.pool_sched_delay_ns.size(), 2u);
    ASSERT_EQ(s.pool_spawn_latency_ns.size(), 2u);
    trace::HistSnapshot delay, spawn;
    for (const auto& h : s.pool_sched_delay_ns) delay.merge(h);
    for (const auto& h : s.pool_spawn_latency_ns) spawn.merge(h);
    EXPECT_EQ(s.spawn_latency_ns.count(), 34u);
    EXPECT_EQ(s.sched_delay_ns.count(), delay.count());
    EXPECT_EQ(s.sched_delay_ns.sum_ns, delay.sum_ns);
    EXPECT_EQ(s.spawn_latency_ns.count(), spawn.count());
    EXPECT_EQ(s.spawn_latency_ns.sum_ns, spawn.sum_ns);
  }
}

TEST(TraceRuntime, RingOverflowIsCountedNotWrapped) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.trace.enabled = true;
  o.trace.ring_capacity = 32;  // tiny: a few yielding ULTs overflow it
  Runtime rt(o);

  std::vector<Thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([] {
      for (int k = 0; k < 100; ++k) this_thread::yield();
    }));
  for (auto& t : ts) t.join();

  const metrics::Snapshot st = rt.metrics_snapshot();
  EXPECT_GT(st.trace_events, 0u);
  EXPECT_GT(st.trace_dropped, 0u);  // drop-and-count, never wrap
}

TEST(TraceRuntime, ChromeExportParsesBack) {
  const std::string path = ::testing::TempDir() + "lpt_runtime_trace.json";
  RuntimeOptions o;
  o.num_workers = 2;
  o.trace.enabled = true;
  Runtime rt(o);
  // The "worker 0" track below needs a run span on worker 0; worker 1 can
  // steal every ULT, so keep yielding until one has run there.
  std::atomic<bool> ran_on_0{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 3; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 10 || !ran_on_0.load(); ++k) {
        if (this_thread::worker_rank() == 0) ran_on_0.store(true);
        this_thread::yield();
      }
    }));
  for (auto& t : ts) t.join();

  ASSERT_TRUE(rt.write_chrome_trace(path));
  const std::string json = slurp(path);
  std::remove(path.c_str());

  telemetry::Json root;
  std::string err;
  ASSERT_TRUE(telemetry::parse_json(json, &root, &err)) << err;
  const telemetry::Json* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, telemetry::Json::kArray);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // run spans
  EXPECT_NE(json.find("worker 0"), std::string::npos);      // track names
}

TEST(TraceRuntime, DisabledByDefaultAndZeroed) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  rt.spawn([] {}).join();
  EXPECT_FALSE(rt.trace_enabled());
  const metrics::Snapshot st = rt.metrics_snapshot();
  EXPECT_FALSE(st.trace_enabled);
  EXPECT_EQ(st.trace_events, 0u);
  EXPECT_EQ(st.trace_dropped, 0u);
  EXPECT_EQ(st.preempt_delivery_ns.count(), 0u);
  EXPECT_FALSE(rt.write_chrome_trace(::testing::TempDir() + "nope.json"));
}

TEST(TraceRuntime, EnvironmentEnablesTracing) {
  const std::string path = ::testing::TempDir() + "lpt_env_trace.json";
  setenv("LPT_TRACE", "1", 1);
  setenv("LPT_TRACE_FILE", path.c_str(), 1);
  {
    RuntimeOptions o;
    o.num_workers = 1;
    Runtime rt(o);
    rt.spawn([] { this_thread::yield(); }).join();
    EXPECT_TRUE(rt.trace_enabled());
  }  // ~Runtime writes the configured file
  unsetenv("LPT_TRACE");
  unsetenv("LPT_TRACE_FILE");
  const std::string json = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
