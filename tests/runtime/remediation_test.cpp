// Tier-1 tests of the self-healing runtime (docs/robustness.md
// "Self-healing"): ULT cancellation — cooperative at cancellation points and
// forced via a directed preemption tick — per-ULT deadlines, and the
// watchdog remediation ladder (retick / cancel / KLT replacement), under
// both preemption techniques, with each way the ULT stranded by a KLT
// replacement can end. Every wedged workload here releases its spin
// flags before the Runtime is destroyed: a still-wedged orphaned KLT would
// otherwise block shutdown (the documented caveat).
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "runtime/signals.hpp"

namespace lpt {
namespace {

// Throwing on a fiber stack trips ASan's no-return handling
// (google/sanitizers#189), as in the fault-isolation suite.
#if defined(LPT_SANITIZE_BUILD)
constexpr bool kUltThrowSafe = false;
#else
constexpr bool kUltThrowSafe = true;
#endif

bool wait_until(const std::atomic<bool>& flag, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (!flag.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    usleep(1000);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Cancellation: cooperative (cancellation points)
// ---------------------------------------------------------------------------

TEST(Cancel, CooperativeCancelAtYield) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;  // Preempt::None threads cancel cooperatively
  Runtime rt(o);

  std::atomic<bool> entered{false};
  Thread t = rt.spawn([&] {
    entered.store(true, std::memory_order_release);
    for (;;) this_thread::yield();  // cancellation point
  });
  ASSERT_TRUE(wait_until(entered, 2'000'000'000));
  EXPECT_TRUE(t.request_cancel());

  const ThreadStatus st = t.join_status();
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.ult_cancels, 1u);
}

TEST(Cancel, CooperativeCancelInSleepAndTimedWait) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::None;
  Runtime rt(o);

  // sleep_for is a cancellation point: the sleeper is cancelled long before
  // its nominal wake time.
  std::atomic<bool> sleeping{false};
  Thread sleeper = rt.spawn([&] {
    sleeping.store(true, std::memory_order_release);
    this_thread::sleep_for(std::chrono::seconds(30));
  });
  ASSERT_TRUE(wait_until(sleeping, 2'000'000'000));
  const std::int64_t start = now_ns();
  EXPECT_TRUE(sleeper.request_cancel());
  const ThreadStatus st = sleeper.join_status();
  EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);
  EXPECT_LT(now_ns() - start, 10'000'000'000) << "cancel should beat the nap";
}

TEST(Cancel, EmptyOrJoinedHandleReportsNoSuchThread) {
  Runtime rt{RuntimeOptions{}};
  Thread empty;
  EXPECT_FALSE(empty.request_cancel());

  Thread t = rt.spawn([] {});
  t.join();
  EXPECT_FALSE(t.request_cancel());  // already joined: handle is dead
}

TEST(Cancel, SiblingsSurviveCancelledThread) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::None;
  Runtime rt(o);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sibling_work{0};
  Thread sibling = rt.spawn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      sibling_work.fetch_add(1, std::memory_order_relaxed);
      this_thread::yield();
    }
  });
  Thread victim = rt.spawn([&] {
    for (;;) this_thread::yield();
  });
  EXPECT_TRUE(victim.request_cancel());
  EXPECT_EQ(victim.join_status().fault.kind, FaultKind::kCancelled);

  // The sibling keeps making progress after the victim died.
  const std::uint64_t before = sibling_work.load(std::memory_order_relaxed);
  const std::int64_t deadline = now_ns() + 2'000'000'000;
  while (sibling_work.load(std::memory_order_relaxed) == before &&
         now_ns() < deadline)
    usleep(1000);
  EXPECT_GT(sibling_work.load(std::memory_order_relaxed), before);
  stop.store(true, std::memory_order_release);
  sibling.join();
}

// ---------------------------------------------------------------------------
// Cancellation: forced (directed preemption tick), both techniques
// ---------------------------------------------------------------------------

void expect_directed_cancel_kills_spinner(Preempt technique) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  Runtime rt(o);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sibling_work{0};
  ThreadAttrs a;
  a.preempt = technique;
  Thread sibling = rt.spawn(
      [&] {
        while (!stop.load(std::memory_order_acquire)) {
          sibling_work.fetch_add(1, std::memory_order_relaxed);
          busy_spin_ns(100'000);
        }
      },
      a);

  std::atomic<bool> entered{false};
  Thread spinner = rt.spawn(
      [&] {
        entered.store(true, std::memory_order_release);
        // No cancellation point, ever: only the directed tick through the
        // fault-isolation path can end this thread.
        for (;;) busy_spin_ns(100'000);
      },
      a);
  ASSERT_TRUE(wait_until(entered, 2'000'000'000));

  EXPECT_TRUE(spinner.request_cancel());
  const ThreadStatus st = spinner.join_status();
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);

  // Sibling unharmed; its worker keeps scheduling.
  const std::uint64_t before = sibling_work.load(std::memory_order_relaxed);
  const std::int64_t deadline = now_ns() + 2'000'000'000;
  while (sibling_work.load(std::memory_order_relaxed) == before &&
         now_ns() < deadline)
    usleep(1000);
  EXPECT_GT(sibling_work.load(std::memory_order_relaxed), before);
  stop.store(true, std::memory_order_release);
  sibling.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.ult_cancels, 1u);
  const metrics::Snapshot m = rt.metrics_snapshot();
  EXPECT_GE(m.stacks_quarantined, 1u) << "cancelled stack must quarantine";
}

TEST(Cancel, DirectedTickKillsSpinnerSignalYield) {
  expect_directed_cancel_kills_spinner(Preempt::SignalYield);
}

TEST(Cancel, DirectedTickKillsSpinnerKltSwitch) {
  expect_directed_cancel_kills_spinner(Preempt::KltSwitch);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Deadline, PerSpawnDeadlineCancelsRunaway) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  Runtime rt(o);

  ThreadAttrs a;
  a.preempt = Preempt::SignalYield;
  a.deadline_ns = 50'000'000;  // 50 ms
  const std::int64_t start = now_ns();
  Thread runaway = rt.spawn([&] { for (;;) busy_spin_ns(100'000); }, a);
  const ThreadStatus st = runaway.join_status();
  EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);
  // Deadline + a couple of watchdog/timer periods of slack.
  EXPECT_LT(now_ns() - start, 5'000'000'000);

  // A thread that finishes within its deadline is untouched.
  ThreadAttrs quick;
  quick.deadline_ns = 2'000'000'000;
  Thread ok = rt.spawn([] { busy_spin_ns(1'000'000); }, quick);
  EXPECT_EQ(ok.join_status().fault.kind, FaultKind::kNone);

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.remediations_cancel, 1u);
  EXPECT_GE(s.ult_cancels, 1u);
}

TEST(Deadline, DefaultDeadlineFromOptionsApplies) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.default_ult_deadline_ns = 80'000'000;  // every ULT gets 80 ms
  Runtime rt(o);

  ThreadAttrs a;
  a.preempt = Preempt::SignalYield;
  Thread runaway = rt.spawn([&] { for (;;) busy_spin_ns(100'000); }, a);
  EXPECT_EQ(runaway.join_status().fault.kind, FaultKind::kCancelled);
}

TEST(Deadline, ExpiryCancelsBlockedThreadAtWakeup) {
  // A deadline must also end a thread that is blocked (not running): the
  // cancel lands at the wakeup's cancellation point.
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  Runtime rt(o);

  ThreadAttrs a;
  a.deadline_ns = 50'000'000;
  const std::int64_t start = now_ns();
  Thread t = rt.spawn([&] { this_thread::sleep_for(std::chrono::seconds(30)); },
                      a);
  EXPECT_EQ(t.join_status().fault.kind, FaultKind::kCancelled);
  EXPECT_LT(now_ns() - start, 10'000'000'000);
}

// ---------------------------------------------------------------------------
// Watchdog remediation ladder
// ---------------------------------------------------------------------------

// How the wedged tenant ends once the watchdog replaced its host KLT. Each
// ending takes a different way off the stranded KLT (docs/robustness.md
// "Self-healing"): a return or a throw ends the thread there, a yield ends
// it as cancelled, and a sleep blocks it, so it resumes on the fresh host.
enum class Ending { kReturn, kThrow, kYield, kSleep };

void expect_replaces_masked_worker_klt(Ending ending) {
  std::atomic<bool> replaced{false};
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.watchdog_stall_ticks = 4;
  o.remediation = true;
  o.watchdog_callback = [&](const WatchdogReport& r) {
    if (r.kind == WatchdogReport::Kind::kWorkerStall &&
        r.remediation == RemediationKind::kKltReplace)
      replaced.store(true, std::memory_order_release);
  };
  Runtime rt(o);

  std::atomic<bool> victim_ran{false}, woke{false};
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  // A buggy ULT blocking the preemption signal wedges its worker: ticks land
  // but the handler never runs. The ladder replaces the host KLT; the wedged
  // tenant is stranded on the orphaned KLT and the fresh host runs the
  // victim — recovery without restarting the process.
  Thread wedge = rt.spawn(
      [&] {
        sigset_t set, old;
        sigemptyset(&set);
        sigaddset(&set, signals::preempt_signo());
        pthread_sigmask(SIG_BLOCK, &set, &old);
        const std::int64_t deadline = now_ns() + 10'000'000'000;
        while (!replaced.load(std::memory_order_acquire) &&
               now_ns() < deadline)
          busy_spin_ns(100'000);
        pthread_sigmask(SIG_SETMASK, &old, nullptr);
        // Every ending finishes before Runtime destruction, which keeps
        // shutdown clean.
        switch (ending) {
          case Ending::kReturn:
            break;
          case Ending::kThrow:
            throw std::runtime_error("stranded boom");
          case Ending::kYield:
            this_thread::yield();
            break;
          case Ending::kSleep:
            this_thread::sleep_for(std::chrono::milliseconds(2));
            woke.store(true, std::memory_order_release);
            break;
        }
      },
      sy);
  usleep(5'000);  // let the wedge occupy the worker before queueing a victim
  Thread victim = rt.spawn([&] { victim_ran.store(true, std::memory_order_release); });

  EXPECT_TRUE(wait_until(replaced, 10'000'000'000))
      << "stalled worker never remediated";
  EXPECT_TRUE(wait_until(victim_ran, 5'000'000'000))
      << "fresh host KLT never ran the queued victim";
  const ThreadStatus st = wedge.join_status();
  victim.join();

  EXPECT_TRUE(st.completed);
  const metrics::Snapshot s = rt.metrics_snapshot();
  switch (ending) {
    case Ending::kReturn:
    case Ending::kSleep:
      EXPECT_EQ(st.fault.kind, FaultKind::kNone);
      EXPECT_EQ(s.ult_faults, 0u);
      break;
    case Ending::kThrow:
      EXPECT_EQ(st.fault.kind, FaultKind::kException);
      EXPECT_EQ(s.ult_faults, 1u);
      EXPECT_EQ(s.escaped_exceptions, 1u);
      break;
    case Ending::kYield:
      EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);
      EXPECT_EQ(s.ult_faults, 1u);
      EXPECT_EQ(s.ult_cancels, 1u);
      break;
  }
  if (ending == Ending::kSleep) {
    EXPECT_TRUE(woke.load()) << "the sleeper never resumed on the fresh host";
  }
  EXPECT_EQ(s.ults_live, 0);
  EXPECT_GE(s.remediations_klt_replace, 1u);
  EXPECT_GE(s.klts_retired, 1u);
  EXPECT_GE(s.watchdog_worker_stall, 1u);
}

TEST(Remediation, ReplacesMaskedWorkerKlt) {
  expect_replaces_masked_worker_klt(Ending::kReturn);
}

// The other endings, each a different way off the stranded KLT.
class RemediationEnding : public ::testing::TestWithParam<Ending> {};

TEST_P(RemediationEnding, ReplacesMaskedWorkerKlt) {
  if (GetParam() == Ending::kThrow && !kUltThrowSafe)
    GTEST_SKIP() << "ULT-stack throws unsupported by ASan";
  expect_replaces_masked_worker_klt(GetParam());
}

std::string ending_name(const ::testing::TestParamInfo<Ending>& i) {
  static const char* const kNames[] = {"Return", "Throw", "Yield", "Sleep"};
  return kNames[static_cast<int>(i.param)];
}

INSTANTIATE_TEST_SUITE_P(Stranded, RemediationEnding,
                         ::testing::Values(Ending::kThrow, Ending::kYield,
                                           Ending::kSleep),
                         ending_name);

TEST(Remediation, RetickOnQuantumOverrun) {
  // Degraded KLT-switching (max_klts == worker hosts): every tick is
  // dropped, the ULT overstays its quantum, and the ladder's rung-1 re-tick
  // fires each poll period (budget-capped) until the thread ends.
  std::atomic<bool> reticked{false};
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1'000;
  o.max_klts = 1;
  o.watchdog_period_ms = 20;
  o.watchdog_quantum_factor = 10;
  o.remediation = true;
  o.watchdog_callback = [&](const WatchdogReport& r) {
    if (r.kind == WatchdogReport::Kind::kQuantumOverrun &&
        r.remediation == RemediationKind::kRetick)
      reticked.store(true, std::memory_order_release);
  };
  Runtime rt(o);

  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  Thread t = rt.spawn(
      [&] {
        const std::int64_t deadline = now_ns() + 5'000'000'000;
        while (!reticked.load(std::memory_order_acquire) &&
               now_ns() < deadline)
          busy_spin_ns(100'000);
      },
      ks);
  t.join();

  EXPECT_TRUE(reticked.load()) << "overrun never remediated";
  EXPECT_GE(rt.metrics_snapshot().remediations_retick, 1u);
}

TEST(Remediation, OffByDefaultOnlyFlags) {
  // Same masked-worker pathology with the ladder off: the watchdog flags,
  // nothing acts. The wedge un-wedges itself so the runtime shuts down.
  std::atomic<bool> flagged{false};
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.watchdog_stall_ticks = 4;
  ASSERT_FALSE(o.remediation) << "remediation must be opt-in";
  o.watchdog_callback = [&](const WatchdogReport& r) {
    if (r.kind == WatchdogReport::Kind::kWorkerStall) {
      EXPECT_EQ(r.remediation, RemediationKind::kNone);
      flagged.store(true, std::memory_order_release);
    }
  };
  Runtime rt(o);

  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread wedge = rt.spawn(
      [&] {
        sigset_t set, old;
        sigemptyset(&set);
        sigaddset(&set, signals::preempt_signo());
        pthread_sigmask(SIG_BLOCK, &set, &old);
        const std::int64_t deadline = now_ns() + 10'000'000'000;
        while (!flagged.load(std::memory_order_acquire) &&
               now_ns() < deadline)
          busy_spin_ns(100'000);
        pthread_sigmask(SIG_SETMASK, &old, nullptr);
      },
      sy);
  EXPECT_TRUE(wait_until(flagged, 10'000'000'000));
  wedge.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.remediations_retick, 0u);
  EXPECT_EQ(s.remediations_cancel, 0u);
  EXPECT_EQ(s.remediations_klt_replace, 0u);
  EXPECT_EQ(s.klts_retired, 0u);
  EXPECT_GE(rt.watchdog_flags(WatchdogReport::Kind::kWorkerStall), 1u);
}

TEST(Remediation, HealthyWorkloadTakesNoActions) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.remediation = true;  // armed, but a healthy load gives it nothing to do
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
  EXPECT_EQ(s.remediations_retick, 0u);
  EXPECT_EQ(s.remediations_cancel, 0u);
  EXPECT_EQ(s.remediations_klt_replace, 0u);
  EXPECT_EQ(s.ult_cancels, 0u);
}

}  // namespace
}  // namespace lpt
