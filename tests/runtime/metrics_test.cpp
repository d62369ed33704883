// Tier-1 tests of the always-on metrics layer (docs/observability.md):
// snapshot monotonicity, queue-depth bookkeeping, preemption
// tick-effectiveness invariants, the Prometheus/JSON writers (round-tripped
// through tests/support/prom_parser.hpp), and the background publisher.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "support/prom_parser.hpp"

namespace lpt {
namespace {

std::string tmp_path(const char* tag) {
  return "/tmp/lpt_metrics_" + std::to_string(::getpid()) + "_" + tag;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string render(const Runtime& rt, metrics::Format fmt) {
  const std::string path = tmp_path("render");
  std::FILE* f = std::fopen(path.c_str(), "w+");
  EXPECT_NE(f, nullptr);
  EXPECT_TRUE(rt.write_metrics(f, fmt));
  std::fclose(f);
  std::string out = slurp(path);
  std::remove(path.c_str());
  return out;
}

TEST(Metrics, SnapshotMonotonicAndAgreesWithRuntimeTotals) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);

  const metrics::Snapshot before = rt.metrics_snapshot();
  std::vector<Thread> ts;
  for (int i = 0; i < 40; ++i)
    ts.push_back(rt.spawn([] { busy_spin_ns(100'000); }));
  for (auto& t : ts) t.join();
  const metrics::Snapshot after = rt.metrics_snapshot();

  // Monotonicity between snapshots.
  EXPECT_GE(after.taken_ns, before.taken_ns);
  EXPECT_GE(after.uptime_ns, before.uptime_ns);
  EXPECT_GE(after.dispatches, before.dispatches + 40);
  EXPECT_GE(after.exits, before.exits + 40);
  EXPECT_EQ(after.ults_spawned, before.ults_spawned + 40);
  EXPECT_EQ(after.ults_live, 0);

  // Quiesced: the snapshot agrees with the runtime's own total.
  EXPECT_EQ(after.preemptions, rt.total_preemptions());
}

TEST(Metrics, QueueDepthZeroAtQuiesceForEveryScheduler) {
  for (SchedulerKind kind : {SchedulerKind::WorkStealing,
                             SchedulerKind::Packing,
                             SchedulerKind::Priority}) {
    RuntimeOptions o;
    o.num_workers = 3;
    o.scheduler = kind;
    Runtime rt(o);
    std::vector<Thread> ts;
    for (int i = 0; i < 60; ++i)
      ts.push_back(rt.spawn([] { this_thread::yield(); }));
    for (auto& t : ts) t.join();
    const metrics::Snapshot s = rt.metrics_snapshot();
    EXPECT_EQ(s.run_queue_depth, 0)
        << "scheduler kind " << static_cast<int>(kind);
    for (const auto& w : s.workers)
      EXPECT_EQ(w.queue_depth, 0) << "worker " << w.rank;
  }
}

TEST(Metrics, TickEffectivenessInvariants) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  Runtime rt(o);
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread t = rt.spawn([] { busy_spin_ns(30'000'000); }, sy);
  t.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.ticks_sent, 0u);
  EXPECT_GT(s.handler_entries, 0u);
  // Signals coalesce but are never invented: every handler entry that found
  // a preemptible ULT traces back to a sent tick.
  EXPECT_LE(s.handler_entries, s.ticks_sent);
  // Every actual preemption came through the handler.
  EXPECT_LE(s.preemptions, s.handler_entries);
  EXPECT_GT(s.tick_effectiveness(), 0.0);
  EXPECT_LE(s.tick_effectiveness(), 1.0);
}

TEST(Metrics, NoPreemptGuardCountsDeferredTicks) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  Runtime rt(o);
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread t = rt.spawn(
      [] {
        NoPreemptGuard guard;
        busy_spin_ns(20'000'000);
      },
      sy);
  t.join();
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.handler_deferred, 0u);
  // Deferred entries are entries too.
  EXPECT_LE(s.handler_deferred, s.handler_entries);
}

TEST(Metrics, PrometheusRoundTrip) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  Runtime rt(o);
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([] { busy_spin_ns(3'000'000); }, sy));
  for (auto& t : ts) t.join();

  const metrics::Snapshot snap = rt.metrics_snapshot();
  const std::string text = render(rt, metrics::Format::kPrometheus);
  ASSERT_FALSE(text.empty());
  const promtest::Parsed p = promtest::parse(text);
  for (const std::string& e : p.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(p.ok());

  // Key families present and correctly typed.
  for (const char* fam :
       {"lpt_dispatches_total", "lpt_yields_total", "lpt_steals_total",
        "lpt_preemptions_total", "lpt_preempt_ticks_sent_total",
        "lpt_preempt_handler_entries_total", "lpt_watchdog_flags_total",
        "lpt_ults_spawned_total", "lpt_klts_created_total"})
    EXPECT_TRUE(p.has_family(fam)) << fam;
  for (const char* gauge :
       {"lpt_run_queue_depth", "lpt_ults_live", "lpt_klt_pool_idle",
        "lpt_workers", "lpt_active_workers"})
    EXPECT_TRUE(p.has_family(gauge)) << gauge;

  // Values survive the round trip (counters only grow between the snapshot
  // and the render, so >= on the totals).
  EXPECT_GE(p.sum("lpt_dispatches_total"),
            static_cast<double>(snap.dispatches));
  EXPECT_GE(p.sum("lpt_preemptions_total"),
            static_cast<double>(snap.preemptions));
  EXPECT_EQ(p.sum("lpt_workers"), 2.0);
  EXPECT_EQ(p.sum("lpt_ults_spawned_total"),
            static_cast<double>(snap.ults_spawned));
  // One series per worker per counter family.
  EXPECT_NE(p.find("lpt_dispatches_total", {{"worker", "0"}}), nullptr);
  EXPECT_NE(p.find("lpt_dispatches_total", {{"worker", "1"}}), nullptr);
  EXPECT_NE(p.find("lpt_preemptions_total",
                   {{"worker", "0"}, {"kind", "signal_yield"}}),
            nullptr);
}

TEST(Metrics, JsonWriterEmitsBalancedObject) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  rt.spawn([] {}).join();
  const std::string text = render(rt, metrics::Format::kJson);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  int depth = 0;
  for (char c : text) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(text.find("\"totals\""), std::string::npos);
  EXPECT_NE(text.find("\"tick_effectiveness\""), std::string::npos);
  EXPECT_NE(text.find("\"workers\""), std::string::npos);
  EXPECT_NE(text.find("\"watchdog\""), std::string::npos);
}

TEST(Metrics, PublisherAtomicallyRewritesFile) {
  const std::string path = tmp_path("pub.prom");
  RuntimeOptions o;
  o.num_workers = 2;
  o.metrics_file = path;
  o.metrics_period_ms = 50;
  {
    Runtime rt(o);
    EXPECT_TRUE(rt.metrics_publishing());
    std::vector<Thread> ts;
    for (int i = 0; i < 10; ++i)
      ts.push_back(rt.spawn([] { busy_spin_ns(2'000'000); }));
    for (auto& t : ts) t.join();
    usleep(120'000);  // at least one periodic publish
    const promtest::Parsed mid = promtest::parse(slurp(path));
    EXPECT_TRUE(mid.ok());
    EXPECT_TRUE(mid.has_family("lpt_dispatches_total"));
  }
  // The destructor's final publish reflects the quiesced totals.
  const promtest::Parsed fin = promtest::parse(slurp(path));
  EXPECT_TRUE(fin.ok());
  EXPECT_GE(fin.sum("lpt_dispatches_total"), 10.0);
  EXPECT_EQ(fin.sum("lpt_run_queue_depth"), 0.0);
  std::remove(path.c_str());
}

TEST(Metrics, PublisherWritesJsonForJsonPath) {
  const std::string path = tmp_path("pub.json");
  RuntimeOptions o;
  o.num_workers = 1;
  o.metrics_file = path;
  {
    Runtime rt(o);
    rt.spawn([] {}).join();
  }
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"totals\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, TimeInStateAccruesUnderWatchdog) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.watchdog_period_ms = 20;  // watchdog thread also drives state sampling
  Runtime rt(o);
  Thread t = rt.spawn([] { busy_spin_ns(120'000'000); });
  t.join();
  const metrics::Snapshot s = rt.metrics_snapshot();
  ASSERT_EQ(s.workers.size(), 1u);
  const auto& w = s.workers[0];
  const std::uint64_t running = w.time_in_state_ns[static_cast<int>(
      metrics::WorkerState::kRunningUlt)];
  EXPECT_GT(running, 0u);
}

}  // namespace
}  // namespace lpt
