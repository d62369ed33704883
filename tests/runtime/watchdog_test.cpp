// Tier-1 tests of the preemption-starvation watchdog (runtime/watchdog.hpp):
// each detector catches the pathology it was built for within ~2 watchdog
// periods past its threshold, and a healthy preemptive workload produces
// zero flags.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "runtime/signals.hpp"

namespace lpt {
namespace {

/// Thread-safe flag recorder handed to RuntimeOptions::watchdog_callback.
struct FlagRecorder {
  std::atomic<std::uint64_t> counts[3] = {};
  std::atomic<std::int64_t> first_ns[3] = {};

  void operator()(const WatchdogReport& r) {
    const int k = static_cast<int>(r.kind);
    if (counts[k].fetch_add(1, std::memory_order_relaxed) == 0)
      first_ns[k].store(now_ns(), std::memory_order_relaxed);
  }
  std::uint64_t count(WatchdogReport::Kind k) const {
    return counts[static_cast<int>(k)].load(std::memory_order_relaxed);
  }
};

bool wait_until(const std::atomic<bool>& flag, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (!flag.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    usleep(1000);
  }
  return true;
}

TEST(Watchdog, DetectsRunnableStarvation) {
  FlagRecorder rec;
  std::atomic<bool> flagged{false};
  std::atomic<bool> release{false};

  RuntimeOptions o;
  o.num_workers = 1;
  // No preemption timer: the hog cannot be preempted away, and the service
  // thread wakes only for the watchdog.
  o.timer = TimerKind::None;
  o.watchdog_period_ms = 50;
  o.watchdog_runnable_ns = 100'000'000;
  o.watchdog_callback = [&](const WatchdogReport& r) {
    rec(r);
    if (r.kind == WatchdogReport::Kind::kRunnableStarvation) {
      EXPECT_EQ(r.worker, 0);
      EXPECT_GE(r.age_ns, o.watchdog_runnable_ns);
      EXPECT_GE(r.queue_depth, 1);
      flagged.store(true, std::memory_order_release);
    }
  };
  Runtime rt(o);

  const std::int64_t start = now_ns();
  Thread hog = rt.spawn([&] {
    while (!release.load(std::memory_order_acquire)) busy_spin_ns(100'000);
  });
  usleep(5'000);  // let the hog occupy the worker before queueing the victim
  Thread victim = rt.spawn([] {});

  // Threshold + 2 periods is the contract; the rest is scheduler slack.
  EXPECT_TRUE(wait_until(flagged, 5'000'000'000)) << "starvation never flagged";
  const std::int64_t detect_ns = now_ns() - start;
  EXPECT_LE(detect_ns, o.watchdog_runnable_ns +
                           2 * o.watchdog_period_ms * 1'000'000 +
                           300'000'000);

  release.store(true, std::memory_order_release);
  hog.join();
  victim.join();
  EXPECT_GE(rt.watchdog_flags(WatchdogReport::Kind::kRunnableStarvation), 1u);
  EXPECT_EQ(rec.count(WatchdogReport::Kind::kWorkerStall), 0u);
}

TEST(Watchdog, DetectsSignalMaskedWorker) {
  FlagRecorder rec;
  std::atomic<bool> flagged{false};

  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.watchdog_stall_ticks = 4;
  o.watchdog_callback = [&](const WatchdogReport& r) {
    rec(r);
    if (r.kind == WatchdogReport::Kind::kWorkerStall) {
      EXPECT_GE(r.ticks_without_handler, 4u);
      flagged.store(true, std::memory_order_release);
    }
  };
  Runtime rt(o);

  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread t = rt.spawn(
      [&] {
        // A buggy application blocking the preemption signal: ticks keep
        // being sent at this preemptible ULT but the handler never runs.
        sigset_t set, old;
        sigemptyset(&set);
        sigaddset(&set, signals::preempt_signo());
        pthread_sigmask(SIG_BLOCK, &set, &old);
        const std::int64_t deadline = now_ns() + 5'000'000'000;
        while (!flagged.load(std::memory_order_acquire) &&
               now_ns() < deadline)
          busy_spin_ns(100'000);
        pthread_sigmask(SIG_SETMASK, &old, nullptr);
      },
      sy);
  t.join();

  EXPECT_TRUE(flagged.load()) << "masked worker never flagged";
  EXPECT_GE(rt.watchdog_flags(WatchdogReport::Kind::kWorkerStall), 1u);
}

TEST(Watchdog, DetectsQuantumOverrunUnderDegradedKltSwitch) {
  FlagRecorder rec;
  std::atomic<bool> flagged{false};

  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1'000;
  // Cap the KLT count at the worker hosts: every KLT-switch tick degrades,
  // so the ULT genuinely overstays its quantum while the handler (which
  // keeps entering) proves the worker is not stalled.
  o.max_klts = 1;
  o.watchdog_period_ms = 20;
  o.watchdog_quantum_factor = 10;
  o.watchdog_callback = [&](const WatchdogReport& r) {
    rec(r);
    if (r.kind == WatchdogReport::Kind::kQuantumOverrun)
      flagged.store(true, std::memory_order_release);
  };
  Runtime rt(o);

  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  Thread t = rt.spawn(
      [&] {
        const std::int64_t deadline = now_ns() + 5'000'000'000;
        while (!flagged.load(std::memory_order_acquire) &&
               now_ns() < deadline)
          busy_spin_ns(100'000);
      },
      ks);
  t.join();

  EXPECT_TRUE(flagged.load()) << "quantum overrun never flagged";
  EXPECT_GE(rt.watchdog_flags(WatchdogReport::Kind::kQuantumOverrun), 1u);
  EXPECT_EQ(rec.count(WatchdogReport::Kind::kWorkerStall), 0u);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.klt_degraded_ticks, 0u);
}

TEST(Watchdog, NoFalsePositivesOnHealthyPreemptiveWorkload) {
  FlagRecorder rec;
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;  // aggressive cadence, default thresholds
  o.watchdog_callback = [&](const WatchdogReport& r) { rec(r); };
  Runtime rt(o);

  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  const std::int64_t deadline = now_ns() + 300'000'000;
  while (now_ns() < deadline) {
    std::vector<Thread> ts;
    for (int i = 0; i < 4; ++i)
      ts.push_back(rt.spawn([] { busy_spin_ns(5'000'000); }, sy));
    for (int i = 0; i < 4; ++i)
      ts.push_back(rt.spawn([] { this_thread::yield(); }));
    for (auto& t : ts) t.join();
  }

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.watchdog_checks, 0u);
  EXPECT_EQ(s.watchdog_runnable_starvation, 0u);
  EXPECT_EQ(s.watchdog_worker_stall, 0u);
  EXPECT_EQ(s.watchdog_quantum_overrun, 0u);
  EXPECT_EQ(rec.count(WatchdogReport::Kind::kRunnableStarvation), 0u);
}

}  // namespace
}  // namespace lpt
