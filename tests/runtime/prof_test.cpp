// Tier-1 tests of the continuous profiler (docs/observability.md,
// "Profiling"): on-CPU sampling in both piggyback and LPT_PROF_HZ modes,
// the reconciliation contract (invocations == recorded + dropped, and ==
// handler_entries in piggyback mode), off-CPU wait attribution, the
// lock-contention profiler with chain detection, the folded/JSON exports
// (round-tripped through tools/telemetry.hpp), shutdown export +
// publisher refresh, and the off-by-default guarantee.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "prof/prof.hpp"
#include "runtime/lpt.hpp"
#include "runtime/sync.hpp"
#include "telemetry.hpp"

namespace lpt {
namespace {

std::string tmp_path(const char* tag) {
  return "/tmp/lpt_prof_" + std::to_string(::getpid()) + "_" + tag;
}

using telemetry::slurp;

/// Export + parse the folded profile of a still-live runtime.
telemetry::Profile export_folded(const Runtime& rt) {
  const std::string path = tmp_path("export.folded");
  EXPECT_TRUE(rt.write_profile(path));
  telemetry::Profile p = telemetry::read_profile(slurp(path));
  std::remove(path.c_str());
  return p;
}

TEST(Prof, OffByDefaultNothingRecorded) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  Runtime rt(o);
  ASSERT_FALSE(rt.prof_enabled());

  Mutex m;
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn(
        [&m] {
          m.lock();
          busy_spin_ns(1'000'000);
          m.unlock();
          this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        sy));
  for (auto& t : ts) t.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_FALSE(s.prof_enabled);
  EXPECT_EQ(s.prof_sample_invocations, 0u);
  EXPECT_EQ(s.prof_samples_recorded, 0u);
  EXPECT_EQ(s.prof_offcpu_waits, 0u);
  EXPECT_EQ(s.prof_lock_acquires, 0u);
  EXPECT_EQ(s.prof_lock_contended, 0u);
  EXPECT_EQ(s.prof_contention_chains, 0u);
  // No profile without a profiler.
  EXPECT_FALSE(rt.write_profile(tmp_path("never")));
}

TEST(Prof, PiggybackReconcilesWithHandlerEntries) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  o.prof.enabled = true;
  Runtime rt(o);
  ASSERT_TRUE(rt.prof_enabled());

  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  rt.spawn([] { busy_spin_ns(30'000'000); }, sy).join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_TRUE(s.prof_enabled);
  EXPECT_GT(s.prof_sample_invocations, 0u);
  // The reconciliation contract, both halves: every sampler entry is either
  // recorded or a counted drop, and in piggyback mode the sampler runs on
  // exactly the handler entries.
  EXPECT_EQ(s.prof_sample_invocations,
            s.prof_samples_recorded + s.prof_samples_dropped);
  EXPECT_EQ(s.prof_sample_invocations, s.handler_entries);

  const telemetry::Profile p = export_folded(rt);
  for (const std::string& e : p.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.mode, "piggyback");
  ASSERT_FALSE(p.stacks.empty());
  // Quiesced: every reserved slot is committed, so the folded counts account
  // for every recorded sample exactly.
  EXPECT_EQ(p.samples(), s.prof_samples_recorded);
}

TEST(Prof, KltSwitchPreemptionAlsoSampled) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  o.prof.enabled = true;
  Runtime rt(o);

  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  rt.spawn([] { busy_spin_ns(30'000'000); }, ks).join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.prof_samples_recorded, 0u);
  EXPECT_EQ(s.prof_sample_invocations,
            s.prof_samples_recorded + s.prof_samples_dropped);

  const telemetry::Profile p = export_folded(rt);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.samples(), s.prof_samples_recorded);
}

TEST(Prof, HzModeSamplesWithoutPreemptionTimer) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;  // no implicit preemption at all
  o.prof.enabled = true;
  o.prof.sample_hz = 500;
  Runtime rt(o);

  // Preempt::None ULT: only the dedicated sampling signal can observe it.
  rt.spawn([] { busy_spin_ns(50'000'000); }).join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.prof_samples_recorded, 0u);
  EXPECT_EQ(s.prof_sample_invocations,
            s.prof_samples_recorded + s.prof_samples_dropped);

  const telemetry::Profile p = export_folded(rt);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.mode, "hz");
  EXPECT_EQ(p.sample_hz, 500u);
}

TEST(Prof, OffCpuWaitsAttributedByKind) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.prof.enabled = true;
  Runtime rt(o);

  Mutex m;
  std::vector<Thread> ts;
  ts.push_back(rt.spawn([&m] {
    m.lock();
    this_thread::sleep_for(std::chrono::milliseconds(10));  // kSleep, holding
    m.unlock();
  }));
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&m] {
      this_thread::sleep_for(std::chrono::milliseconds(2));  // let the holder win
      m.lock();  // kMutex wait while the holder sleeps
      m.unlock();
    }));
  for (auto& t : ts) t.join();  // kJoin waits from this external thread don't count (not a ULT)

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.prof_offcpu_waits, 0u);

  const std::string path = tmp_path("offcpu.json");
  ASSERT_TRUE(rt.write_profile(path));
  const telemetry::Profile j = telemetry::read_profile(slurp(path));
  std::remove(path.c_str());
  for (const std::string& e : j.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(j.ok());

  const telemetry::Json* sites = j.json.get("offcpu")->get("sites");
  ASSERT_NE(sites, nullptr);
  bool saw_sleep = false, saw_mutex = false;
  for (const telemetry::Json& site : sites->array) {
    const telemetry::Json* kind = site.get("kind");
    ASSERT_NE(kind, nullptr);
    if (kind->str == "sleep") saw_sleep = true;
    if (kind->str == "mutex") saw_mutex = true;
    EXPECT_GT(site.num_or("count", 0), 0.0);
  }
  EXPECT_TRUE(saw_sleep);
  EXPECT_TRUE(saw_mutex);
}

TEST(Prof, LockContentionAndChainDetection) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.prof.enabled = true;
  Runtime rt(o);

  Mutex m;
  std::atomic<bool> held{false};
  std::vector<Thread> ts;
  ts.push_back(rt.spawn([&] {
    m.lock();
    held.store(true, std::memory_order_release);
    // Sleep while holding: waiters that park now are behind an off-CPU
    // holder — the contention-chain signature.
    this_thread::sleep_for(std::chrono::milliseconds(30));
    m.unlock();
  }));
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&] {
      while (!held.load(std::memory_order_acquire)) this_thread::yield();
      m.lock();
      m.unlock();
    }));
  for (auto& t : ts) t.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.prof_lock_acquires, 5u);
  EXPECT_GE(s.prof_lock_contended, 1u);
  EXPECT_GE(s.prof_contention_chains, 1u);
  EXPECT_LE(s.prof_lock_contended, s.prof_lock_acquires);
  EXPECT_LE(s.prof_contention_chains, s.prof_lock_contended);

  const std::string path = tmp_path("locks.json");
  ASSERT_TRUE(rt.write_profile(path));
  const telemetry::Profile j = telemetry::read_profile(slurp(path));
  std::remove(path.c_str());
  ASSERT_TRUE(j.ok());
  const telemetry::Json* table = j.json.get("locks")->get("table");
  ASSERT_NE(table, nullptr);
  ASSERT_FALSE(table->array.empty());
  // Our mutex is in the table with contention and a nonzero hold percentile.
  bool found = false;
  for (const telemetry::Json& row : table->array)
    if (row.num_or("contended", 0) >= 1 && row.num_or("acquires", 0) >= 5)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Prof, ContendedLockCountsEachAcquisitionOnce) {
  // A contended lock() may take several passes (woken without the lock, it
  // competes again and may park again); the profiler counts the call once.
  // One worker, and every holder yields inside its critical section, so
  // the other ULTs find the lock held. Each ULT starts its loop only once
  // all have started: a spawner descheduled between spawns would otherwise
  // let each ULT run its whole loop alone, uncontended.
  RuntimeOptions o;
  o.num_workers = 1;
  o.prof.enabled = true;
  Runtime rt(o);

  constexpr int kUlts = 4, kLocks = 200;
  Mutex m;
  long counter = 0;  // guarded by m
  std::atomic<int> started{0};
  std::vector<Thread> ts;
  for (int i = 0; i < kUlts; ++i)
    ts.push_back(rt.spawn([&] {
      started.fetch_add(1);
      while (started.load() < kUlts) this_thread::yield();
      for (int k = 0; k < kLocks; ++k) {
        m.lock();
        ++counter;
        this_thread::yield();
        m.unlock();
      }
    }));
  for (auto& t : ts) t.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(counter, kUlts * kLocks);
  EXPECT_EQ(s.prof_lock_acquires, static_cast<std::uint64_t>(kUlts * kLocks));
  EXPECT_GE(s.prof_lock_contended, 1u);
  EXPECT_LE(s.prof_lock_contended, s.prof_lock_acquires);
}

TEST(Prof, OneWaitRecordReconciles) {
  // Every parked wait is timed once, block to wake, and that one record
  // feeds the per-ULT blocked time, the off-CPU site table and the lock wait
  // histogram, so the three views agree exactly. Tracer and profiler armed;
  // a Mutex/CondVar/Barrier/sleep/join mix on two workers, no cancels.
  RuntimeOptions o;
  o.num_workers = 2;
  o.trace.enabled = true;
  o.trace.ring_capacity = 1u << 16;
  o.prof.enabled = true;
  Runtime rt(o);

  constexpr int kUlts = 4, kRounds = 50, kItems = 100;
  Mutex m;
  CondVar cv;
  Barrier bar(kUlts);
  long counter = 0;  // guarded by m
  int queued = 0;    // guarded by m
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> blocked_ns{0};
  auto join_into_sum = [&](Thread& t) {
    const ThreadStatus st = t.join_status();
    EXPECT_TRUE(st.completed);
    EXPECT_FALSE(st.failed());
    blocked_ns.fetch_add(st.acct.blocked_ns);
  };

  std::vector<Thread> ts;
  for (int i = 0; i < kUlts; ++i)
    ts.push_back(rt.spawn([&] {
      started.fetch_add(1);
      while (started.load() < kUlts) this_thread::yield();
      for (int k = 0; k < kRounds; ++k) {
        m.lock();
        ++counter;
        this_thread::yield();  // holders yield: contenders park
        m.unlock();
        if (k % 10 == 0) {
          bar.arrive_and_wait();
          this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }));
  // A parent that joins its CondVar producer and consumer from a ULT.
  ts.push_back(rt.spawn([&] {
    Thread consumer = rt.spawn([&] {
      for (int got = 0; got < kItems; ++got) {
        m.lock();
        while (queued == 0) cv.wait(m);
        --queued;
        m.unlock();
      }
    });
    Thread producer = rt.spawn([&] {
      for (int k = 0; k < kItems; ++k) {
        m.lock();
        ++queued;
        cv.notify_one();
        m.unlock();
        if (k % 8 == 0) this_thread::yield();
      }
    });
    join_into_sum(consumer);
    join_into_sum(producer);
  }));
  for (auto& t : ts) join_into_sum(t);
  EXPECT_EQ(counter, kUlts * kRounds);

  std::uint64_t parked_ns = 0, mutex_ns = 0, mutex_waits = 0;
  prof::Collector& c = prof::Collector::instance();
  for (const prof::WaitSiteProfile& s : c.offcpu_sites()) {
    if (s.kind == prof::WaitKind::kSyscall ||
        s.kind == prof::WaitKind::kBusyFlag)
      continue;
    parked_ns += s.total_ns;
    if (s.kind != prof::WaitKind::kMutex) continue;
    mutex_ns += s.total_ns;
    mutex_waits += s.count;
  }
  std::uint64_t lock_wait_ns = 0;
  for (const prof::LockProfile& l : c.lock_profiles())
    lock_wait_ns += l.wait_ns.sum_ns;

  EXPECT_EQ(c.totals().offcpu_dropped, 0u);
  EXPECT_GT(parked_ns, 0u);
  EXPECT_GT(mutex_waits, 0u);
  EXPECT_EQ(blocked_ns.load(), parked_ns);
  EXPECT_EQ(lock_wait_ns, mutex_ns);
}

TEST(Prof, ShutdownExportAndPublisherRefresh) {
  const std::string prof_path = tmp_path("shutdown.folded");
  const std::string prom_path = tmp_path("shutdown.prom");
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  o.prof.enabled = true;
  o.prof.file = prof_path;
  o.metrics_file = prom_path;
  o.metrics_period_ms = 50;
  {
    Runtime rt(o);
    ThreadAttrs sy;
    sy.preempt = Preempt::SignalYield;
    std::vector<Thread> ts;
    for (int i = 0; i < 4; ++i)
      ts.push_back(rt.spawn([] { busy_spin_ns(10'000'000); }, sy));
    for (auto& t : ts) t.join();
    usleep(120'000);  // at least one periodic publish refreshes the profile
    const telemetry::Profile mid = telemetry::read_profile(slurp(prof_path));
    for (const std::string& e : mid.errors) ADD_FAILURE() << "mid-run: " << e;
    EXPECT_TRUE(mid.ok());
  }
  // Final export at shutdown: quiesced totals, cross-checkable against the
  // final metrics publish (exactly what tools/telemetry_check gates in CI).
  const telemetry::Profile fin = telemetry::read_profile(slurp(prof_path));
  for (const std::string& e : fin.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(fin.ok());
  EXPECT_GT(fin.invocations, 0u);
  EXPECT_EQ(fin.samples(), fin.recorded);

  const telemetry::Metrics prom = telemetry::parse_prometheus(slurp(prom_path));
  ASSERT_TRUE(prom.ok());
  EXPECT_EQ(prom.sum("lpt_prof_enabled"), 1.0);
  EXPECT_EQ(prom.sum("lpt_prof_sample_invocations_total"),
            static_cast<double>(fin.invocations));
  EXPECT_EQ(prom.sum("lpt_prof_samples_recorded_total"),
            static_cast<double>(fin.recorded));
  EXPECT_EQ(prom.sum("lpt_prof_offcpu_waits_total"),
            static_cast<double>(fin.offcpu_waits));
  EXPECT_EQ(prom.sum("lpt_prof_lock_acquires_total"),
            static_cast<double>(fin.lock_acquires));
  std::remove(prof_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(Prof, FreshRuntimeResetsCollector) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  o.prof.enabled = true;
  {
    Runtime rt(o);
    ThreadAttrs sy;
    sy.preempt = Preempt::SignalYield;
    // Spin until the sampler has run at least once (bounded), rather than a
    // fixed 10 ms a loaded host may not deliver a tick in.
    std::atomic<bool> sampled{false};
    Thread spinner = rt.spawn(
        [&] {
          while (!sampled.load()) busy_spin_ns(100'000);
        },
        sy);
    const std::int64_t give_up = now_ns() + 10'000'000'000LL;
    while (rt.metrics_snapshot().prof_sample_invocations == 0 &&
           now_ns() < give_up)
      usleep(1000);
    sampled.store(true);
    spinner.join();
    EXPECT_GT(rt.metrics_snapshot().prof_sample_invocations, 0u);
  }
  // A second profiled runtime starts from zero — no leakage across runs.
  Runtime rt2(o);
  const metrics::Snapshot s = rt2.metrics_snapshot();
  EXPECT_EQ(s.prof_sample_invocations, 0u);
  EXPECT_EQ(s.prof_offcpu_waits, 0u);
  EXPECT_EQ(s.prof_lock_acquires, 0u);
}

}  // namespace
}  // namespace lpt
