// Behavioural tests of the preemption timers: rates, eligibility filtering,
// fairness of the chain, and re-arming across KLT remaps; and of the service
// thread that delivers them: one helper thread in every mode, and timed
// waits that end on time beside a busy worker.
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include "common/cpu.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

TEST(TimerRate, PreemptionCountTracksIntervalRatio) {
  // Halving the interval should roughly double the preemption count for the
  // same spin duration. Generous bounds: the container's clock is noisy.
  auto count_for = [](std::int64_t interval_us) {
    RuntimeOptions o;
    o.num_workers = 1;
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = interval_us;
    Runtime rt(o);
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    Thread t = rt.spawn([] { busy_spin_ns(60'000'000); }, attrs);
    t.join();
    return rt.total_preemptions();
  };
  const std::uint64_t at_1ms = count_for(1000);
  const std::uint64_t at_4ms = count_for(4000);
  EXPECT_GT(at_1ms, at_4ms);
  EXPECT_GE(at_1ms, 20u);  // ~60 expected
  EXPECT_LE(at_4ms, 40u);  // ~15 expected
}

TEST(TimerEligibility, ProcessTimerSkipsIdleRuntime) {
  // A per-process timer over an idle runtime must not accumulate
  // preemptions or burn signals (§3.2.2).
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::ProcessChain;
  o.interval_us = 500;
  Runtime rt(o);
  usleep(30'000);  // ~60 timer periods with nothing running
  EXPECT_EQ(rt.total_preemptions(), 0u);
  Thread t = rt.spawn([] {});
  t.join();
}

TEST(TimerFairness, ChainPreemptsWorkersEvenly) {
  // 3 spinning preemptive threads pinned to 3 workers: over many periods
  // the chain must hit all of them within a small factor of each other.
  RuntimeOptions o;
  o.num_workers = 3;
  o.timer = TimerKind::ProcessChain;
  o.interval_us = 1000;
  Runtime rt(o);
  std::atomic<bool> stop{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 3; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    attrs.home_pool = i;
    ts.push_back(rt.spawn(
        [&] {
          while (!stop.load(std::memory_order_acquire)) cpu_pause();
        },
        attrs));
  }
  // Wait until a healthy number of preemptions accumulated.
  const std::int64_t deadline = now_ns() + 20'000'000'000ll;
  while (rt.total_preemptions() < 45 && now_ns() < deadline) usleep(2000);
  stop.store(true);
  std::vector<std::uint64_t> counts;
  for (auto& t : ts) counts.push_back(t.preemptions());
  for (auto& t : ts) t.join();

  const std::uint64_t total = counts[0] + counts[1] + counts[2];
  ASSERT_GE(total, 45u);
  for (std::uint64_t c : counts) {
    // Each thread within [1/6, 2/3] of the total: rough fairness. (Perfect
    // would be 1/3 each; threads migrate between workers after preemption
    // so exact attribution wobbles.)
    EXPECT_GE(c * 6, total) << "a thread was starved of preemptions";
    EXPECT_LE(c * 3, total * 2) << "a thread hogged preemptions";
  }
}

TEST(TimerRemap, PosixPerWorkerSurvivesKltSwitching) {
  // The POSIX per-worker timer targets a tid; after a KLT-switch remap the
  // worker re-arms it against its new kernel thread. Preemption must keep
  // firing across many remaps.
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PosixPerWorker;
  o.interval_us = 1000;
  Runtime rt(o);
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  std::atomic<bool> flag{false};
  Thread spinner = rt.spawn(
      [&] {
        while (!flag.load(std::memory_order_acquire)) cpu_pause();
      },
      attrs);
  Thread worker_thread = rt.spawn(
      [&] {
        busy_spin_ns(30'000'000);  // forces repeated remaps meanwhile
        flag.store(true);
      },
      attrs);
  spinner.join();
  worker_thread.join();
  EXPECT_GE(rt.total_preemptions(), 10u);
}

TEST(TimerLifecycle, RapidRuntimeRecreationWithTimers) {
  for (int round = 0; round < 5; ++round) {
    RuntimeOptions o;
    o.num_workers = 2;
    o.timer = round % 2 == 0 ? TimerKind::PerWorkerAligned
                             : TimerKind::ProcessOneToAll;
    o.interval_us = 500;
    Runtime rt(o);
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    Thread t = rt.spawn([] { busy_spin_ns(3'000'000); }, attrs);
    t.join();
  }
  SUCCEED();  // no leaked signals/timers may fire after destruction
}

TEST(TimerTargets, OnlyPreemptiveThreadsAreEverPreempted) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerCreationTime;  // signals everyone
  o.interval_us = 500;
  Runtime rt(o);
  std::atomic<bool> flag{false};
  ThreadAttrs pre;
  pre.preempt = Preempt::SignalYield;
  Thread preemptive = rt.spawn(
      [&] {
        while (!flag.load(std::memory_order_acquire)) cpu_pause();
      },
      pre);
  Thread cooperative = rt.spawn([&] {
    busy_spin_ns(10'000'000);
    flag.store(true);
  });
  preemptive.join();
  const std::uint64_t coop_preempts = cooperative.preemptions();
  cooperative.join();
  EXPECT_EQ(coop_preempts, 0u);  // signalled, but never preempted
  EXPECT_GT(rt.total_preemptions(), 0u);
}

int task_count() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = readdir(d))
    if (e->d_name[0] != '.') ++n;
  closedir(d);
  return n;
}

TEST(ServiceThread, OneHelperThreadInEveryMode) {
  // An idle runtime of 2 workers runs the same threads whatever its timer,
  // watchdog and profiler pacer: the workers' KLTs, the KLT creator and one
  // service thread.
  const int before = task_count();
  ASSERT_GT(before, 0);
  auto threads_of = [before](TimerKind timer, bool watchdog, int sample_hz) {
    RuntimeOptions o;
    o.num_workers = 2;
    o.timer = timer;
    o.watchdog = watchdog;
    o.initial_spare_klts = 0;
    o.prof.enabled = sample_hz > 0;
    o.prof.sample_hz = sample_hz;
    Runtime rt(o);
    return task_count() - before;
  };
  for (TimerKind timer :
       {TimerKind::None, TimerKind::PerWorkerAligned,
        TimerKind::PerWorkerCreationTime, TimerKind::PosixPerWorker,
        TimerKind::ProcessOneToAll, TimerKind::ProcessChain})
    EXPECT_EQ(threads_of(timer, true, 0), 4)
        << "timer kind " << static_cast<int>(timer);
  EXPECT_EQ(threads_of(TimerKind::None, false, 0), 4) << "watchdog off";
  EXPECT_EQ(threads_of(TimerKind::None, true, 500), 4) << "LPT_PROF_HZ pacer";
}

enum class TimedWait { kSleepFor, kTryAcquireFor };

class ServiceThreadTimedWait
    : public ::testing::TestWithParam<std::tuple<TimedWait, bool>> {};

TEST_P(ServiceThreadTimedWait, EndsOnTimeBesideABusyWorker) {
  // One worker that never goes idle (a ULT yielding in a loop) and no
  // preemption timer: only the service thread can end the 2 ms wait, with a
  // 1 s watchdog period or no watchdog at all.
  const auto [wait, watchdog] = GetParam();
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;
  o.watchdog = watchdog;
  o.watchdog_period_ms = 1000;
  Runtime rt(o);
  std::atomic<bool> done{false};
  Thread spinner = rt.spawn([&done] {
    const std::int64_t cap = now_ns() + 1'000'000'000;
    while (!done.load(std::memory_order_acquire) && now_ns() < cap)
      this_thread::yield();
  });
  std::int64_t waited_ns = 0;
  Thread waiter = rt.spawn([&, wait = wait] {
    Semaphore never(0);
    const std::int64_t t0 = now_ns();
    if (wait == TimedWait::kSleepFor)
      this_thread::sleep_for(std::chrono::milliseconds(2));
    else
      EXPECT_FALSE(never.try_acquire_for(std::chrono::milliseconds(2)));
    waited_ns = now_ns() - t0;
    done.store(true, std::memory_order_release);
  });
  waiter.join();
  spinner.join();
  EXPECT_GE(waited_ns, 2'000'000);
  EXPECT_LT(waited_ns, 50'000'000);
}

INSTANTIATE_TEST_SUITE_P(
    WaitsAndWatchdogs, ServiceThreadTimedWait,
    ::testing::Combine(::testing::Values(TimedWait::kSleepFor,
                                         TimedWait::kTryAcquireFor),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<TimedWait, bool>>& info) {
      return std::string(std::get<0>(info.param) == TimedWait::kSleepFor
                             ? "SleepFor"
                             : "TryAcquireFor") +
             (std::get<1>(info.param) ? "Watchdog1s" : "NoWatchdog");
    });

}  // namespace
}  // namespace lpt
