// End-to-end tests of implicit preemption: signal-yield, KLT-switching, the
// four timer strategies, and the deadlock-prevention property of §4.1.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <vector>

#include "common/cpu.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "runtime/signals.hpp"

namespace lpt {
namespace {

RuntimeOptions preemptive_opts(int workers, TimerKind timer, std::int64_t us) {
  RuntimeOptions o;
  o.num_workers = workers;
  o.timer = timer;
  o.interval_us = us;
  return o;
}

// Busy-spin until `flag` is set or `deadline_ms` elapses; returns success.
bool spin_until(const std::atomic<bool>& flag, std::int64_t deadline_ms) {
  const std::int64_t deadline = now_ns() + deadline_ms * 1'000'000;
  while (!flag.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    cpu_pause();
  }
  return true;
}

// --- the paper's core scenario: a busy loop that needs another thread ------
//
// Two ULTs on ONE worker. A busy-waits on a flag that only B sets. Without
// preemption A monopolizes the worker and B never runs (§2.2 / §4.1's MKL
// deadlock). With preemption the scenario must complete.
void run_busy_pair(Preempt mode, TimerKind timer, bool expect_preemptions) {
  Runtime rt(preemptive_opts(1, timer, 1000));
  std::atomic<bool> flag{false};
  std::atomic<bool> a_done{false};

  ThreadAttrs attrs;
  attrs.preempt = mode;
  Thread a = rt.spawn(
      [&] {
        ASSERT_TRUE(spin_until(flag, 20'000)) << "busy-waiter starved: no preemption";
        a_done.store(true);
      },
      attrs);
  Thread b = rt.spawn([&] { flag.store(true); }, attrs);
  a.join();
  b.join();
  EXPECT_TRUE(a_done.load());
  if (expect_preemptions) EXPECT_GT(rt.total_preemptions(), 0u);
}

TEST(Preemption, SignalYieldBreaksBusyWaitSingleWorker) {
  run_busy_pair(Preempt::SignalYield, TimerKind::PerWorkerAligned, true);
}

TEST(Preemption, KltSwitchBreaksBusyWaitSingleWorker) {
  run_busy_pair(Preempt::KltSwitch, TimerKind::PerWorkerAligned, true);
}

TEST(Preemption, PosixPerWorkerTimerBreaksBusyWait) {
  run_busy_pair(Preempt::SignalYield, TimerKind::PosixPerWorker, true);
}

TEST(Preemption, ProcessChainTimerBreaksBusyWait) {
  run_busy_pair(Preempt::SignalYield, TimerKind::ProcessChain, true);
}

TEST(Preemption, ProcessOneToAllTimerBreaksBusyWait) {
  run_busy_pair(Preempt::SignalYield, TimerKind::ProcessOneToAll, true);
}

TEST(Preemption, CreationTimeTimerBreaksBusyWait) {
  run_busy_pair(Preempt::SignalYield, TimerKind::PerWorkerCreationTime, true);
}

TEST(Preemption, KltSwitchWithSigsuspendParking) {
  RuntimeOptions o = preemptive_opts(1, TimerKind::PerWorkerAligned, 1000);
  o.klt_suspend = KltSuspend::Sigsuspend;
  Runtime rt(o);
  std::atomic<bool> flag{false};
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  Thread a = rt.spawn(
      [&] { ASSERT_TRUE(spin_until(flag, 20'000)); }, attrs);
  Thread b = rt.spawn([&] { flag.store(true); }, attrs);
  a.join();
  b.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}

TEST(Preemption, KltSwitchWithoutLocalPools) {
  RuntimeOptions o = preemptive_opts(1, TimerKind::PerWorkerAligned, 1000);
  o.worker_local_klt_pool = false;
  Runtime rt(o);
  std::atomic<bool> flag{false};
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  Thread a = rt.spawn([&] { ASSERT_TRUE(spin_until(flag, 20'000)); }, attrs);
  Thread b = rt.spawn([&] { flag.store(true); }, attrs);
  a.join();
  b.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}

// --- the defining KLT-switching property (§3.1.2) --------------------------
//
// A KLT-switching thread must stay on the SAME kernel thread across every
// implicit preemption: its KLT-local state is frozen and resumed with it.
TEST(Preemption, KltSwitchPreservesKernelThreadAcrossPreemptions) {
  Runtime rt(preemptive_opts(2, TimerKind::PerWorkerAligned, 500));
  std::atomic<bool> stop{false};
  std::atomic<int> tid_changes{0};
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;

  std::vector<Thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.push_back(rt.spawn(
        [&] {
          const pid_t tid0 = gettid_syscall();
          const std::int64_t deadline = now_ns() + 100'000'000;  // 100 ms
          while (now_ns() < deadline) {
            if (gettid_syscall() != tid0) {
              tid_changes.fetch_add(1);
              break;
            }
          }
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(tid_changes.load(), 0);
  EXPECT_GT(rt.total_preemptions(), 0u);  // preemptions really happened
}

// Contrast: signal-yield threads MAY migrate between kernel threads — that
// is exactly why they require KLT-independent code. With several workers and
// frequent preemption, migration is overwhelmingly likely; we only assert
// that preemption happened and the run completes (migration itself is legal,
// not guaranteed).
TEST(Preemption, SignalYieldRunsFineAcrossWorkers) {
  Runtime rt(preemptive_opts(4, TimerKind::PerWorkerAligned, 500));
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  std::atomic<long> acc{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn(
        [&] {
          const std::int64_t deadline = now_ns() + 50'000'000;
          while (now_ns() < deadline) acc.fetch_add(1, std::memory_order_relaxed);
        },
        attrs));
  for (auto& t : ts) t.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
  EXPECT_GT(acc.load(), 0);
}

// errno through calls the compiler cannot merge: glibc's __errno_location()
// is attribute-const, so an inlined access may reuse an address computed on
// another kernel thread.
__attribute__((noinline)) void put_errno(int e) { errno = e; }
__attribute__((noinline)) int get_errno() { return errno; }

TEST(Preemption, SignalYieldResumedElsewhereLeavesTheOldKltsErrnoAlone) {
  // The preemption handler saves errno on entry and restores it on exit. A
  // signal-yield thread can resume on another kernel thread in between, and
  // the restore must then write that thread's errno, not the errno of the
  // one it was preempted on, which by then runs another ULT.
  //
  // u (signal-yield) runs on worker x with errno EDOM; blocker holds the
  // other worker; r (cooperative) waits in x's queue. A hand-sent tick
  // preempts u, x runs r, r releases blocker, and the other worker steals
  // u. r watches the errno of x's kernel thread while u's handler returns.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::None;
  Runtime rt(o);
  std::atomic<int> u_rank{-1}, u_last_rank{-1};
  std::atomic<bool> stop{false}, blocking{false}, r_ready{false};
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread u = rt.spawn(
      [&] {
        put_errno(EDOM);
        u_rank.store(this_thread::worker_rank(), std::memory_order_release);
        while (!stop.load(std::memory_order_acquire)) {
          u_last_rank.store(this_thread::worker_rank());
          busy_spin_ns(10'000);
        }
      },
      sy);
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (u_rank.load(std::memory_order_acquire) < 0 && now_ns() < deadline)
    usleep(1000);
  ASSERT_GE(u_rank.load(), 0);
  const int x = u_rank.load();

  ThreadAttrs on_y;
  on_y.home_pool = 1 - x;  // an external spawn queues on its home pool
  Thread blocker = rt.spawn(
      [&] {
        blocking.store(true, std::memory_order_release);
        while (!r_ready.load(std::memory_order_acquire)) cpu_pause();
      },
      on_y);
  ASSERT_TRUE(spin_until(blocking, 5'000));

  std::atomic<int> r_rank{-1}, r_saw{0};
  ThreadAttrs on_x;
  on_x.home_pool = x;
  Thread r = rt.spawn(
      [&] {
        put_errno(0);
        r_rank.store(this_thread::worker_rank());
        r_ready.store(true, std::memory_order_release);
        const std::int64_t end = now_ns() + 200'000'000;
        while (now_ns() < end) {
          if (const int e = get_errno(); e != 0) {
            r_saw.store(e);
            break;
          }
        }
      },
      on_x);
  while (!r_ready.load(std::memory_order_acquire) && now_ns() < deadline) {
    signals::send_preempt(rt.worker(x), -1);
    usleep(1000);
  }
  r.join();
  const int u_moved_to = u_last_rank.load();
  stop.store(true, std::memory_order_release);
  u.join();
  blocker.join();
  ASSERT_TRUE(r_ready.load());
  EXPECT_EQ(r_rank.load(), x);
  EXPECT_EQ(u_moved_to, 1 - x) << "u did not resume on the other worker";
  EXPECT_EQ(r_saw.load(), 0)
      << "errno of r's kernel thread changed under it (EDOM = " << EDOM << ")";
}

TEST(Preemption, NonpreemptiveThreadIsNeverPreempted) {
  Runtime rt(preemptive_opts(1, TimerKind::PerWorkerAligned, 500));
  Thread t = rt.spawn([&] { busy_spin_ns(30'000'000); });  // Preempt::None
  t.join();
  EXPECT_EQ(rt.total_preemptions(), 0u);
}

TEST(Preemption, ProcessTimerIssuesNoSignalsWithoutPreemptiveThreads) {
  // §3.2.2: with a per-process timer and no preemptive threads running, no
  // forwarding signals are issued at all. Functionally: no preemptions, and
  // nonpreemptive work completes untouched.
  Runtime rt(preemptive_opts(2, TimerKind::ProcessChain, 500));
  std::vector<Thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&] { busy_spin_ns(10'000'000); }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(rt.total_preemptions(), 0u);
}

TEST(Preemption, ChainReachesAllPreemptiveWorkers) {
  // 3 workers each running a spinning preemptive thread; the chain must
  // preempt every one of them within a few intervals.
  Runtime rt(preemptive_opts(3, TimerKind::ProcessChain, 1000));
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  attrs.home_pool = 0;
  std::atomic<bool> stop{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 3; ++i) {
    attrs.home_pool = i;
    ts.push_back(rt.spawn(
        [&] {
          while (!stop.load(std::memory_order_acquire)) cpu_pause();
        },
        attrs));
  }
  // Wait until every thread has been preempted at least once (20 s cap).
  const std::int64_t deadline = now_ns() + 20'000'000'000ll;
  bool all = false;
  while (!all && now_ns() < deadline) {
    all = true;
    for (auto& t : ts)
      if (t.preemptions() == 0) all = false;
    if (!all) usleep(2000);
  }
  stop.store(true);
  for (auto& t : ts) t.join();
  EXPECT_TRUE(all) << "chain did not reach all preemptive workers";
}

TEST(Preemption, MixedThreadTypesCoexist) {
  // §3.4: nonpreemptive + signal-yield + KLT-switching in one application.
  Runtime rt(preemptive_opts(2, TimerKind::PerWorkerAligned, 1000));
  std::atomic<bool> flag{false};
  ThreadAttrs sy, ks;
  sy.preempt = Preempt::SignalYield;
  ks.preempt = Preempt::KltSwitch;
  Thread spinner_sy = rt.spawn([&] { ASSERT_TRUE(spin_until(flag, 20'000)); }, sy);
  Thread spinner_ks = rt.spawn([&] { ASSERT_TRUE(spin_until(flag, 20'000)); }, ks);
  // Release the spinners only once a tick has preempted one: coop may
  // otherwise run its yields before either spinner was ever dispatched.
  Thread coop = rt.spawn([&] {
    for (int i = 0; i < 5 || rt.total_preemptions() == 0; ++i)
      this_thread::yield();
    flag.store(true);
  });
  spinner_sy.join();
  spinner_ks.join();
  coop.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}

TEST(Preemption, NoPreemptGuardDefersPreemption) {
  Runtime rt(preemptive_opts(1, TimerKind::PerWorkerAligned, 500));
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  std::atomic<std::uint64_t> preempts_inside{0};
  Thread t = rt.spawn(
      [&] {
        NoPreemptGuard guard;
        busy_spin_ns(20'000'000);  // 20 ms with a 0.5 ms timer
        preempts_inside.store(Runtime::current()->total_preemptions());
        // guard destructor turns the pending preemption into a yield
      },
      attrs);
  t.join();
  EXPECT_EQ(preempts_inside.load(), 0u);
}

TEST(Preemption, PreemptionsAreCountedPerThread) {
  Runtime rt(preemptive_opts(1, TimerKind::PerWorkerAligned, 500));
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  std::atomic<bool> done{false};
  Thread busy = rt.spawn(
      [&] {
        busy_spin_ns(30'000'000);
        done.store(true);
      },
      attrs);
  while (!done.load()) usleep(1000);
  const std::uint64_t p = busy.preemptions();  // handle still joinable here
  busy.join();
  EXPECT_GE(p, 5u);  // ~60 intervals elapsed; be generous about scheduling
}

TEST(Preemption, KltSwitchAllocatesKltsOnDemand) {
  Runtime rt(preemptive_opts(1, TimerKind::PerWorkerAligned, 500));
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  std::atomic<bool> flag{false};
  Thread a = rt.spawn([&] { ASSERT_TRUE(spin_until(flag, 20'000)); }, attrs);
  Thread b = rt.spawn([&] { flag.store(true); }, attrs);
  a.join();
  b.join();
  // At least one extra KLT beyond the single worker host must exist now.
  EXPECT_GT(rt.total_klts(), 1u);
}

TEST(Preemption, KltSwitchSurvivesMallocHeavyThreads) {
  // Glibc malloc is the paper's canonical KLT-dependent function (§3.1.1).
  // KLT-switching must preempt malloc-heavy threads without corruption.
  Runtime rt(preemptive_opts(2, TimerKind::PerWorkerAligned, 500));
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  std::atomic<long> total{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 6; ++i)
    ts.push_back(rt.spawn(
        [&] {
          const std::int64_t deadline = now_ns() + 60'000'000;
          long local = 0;
          while (now_ns() < deadline) {
            std::vector<char*> ptrs;
            for (int k = 0; k < 64; ++k) {
              char* p = static_cast<char*>(malloc(64 + k));
              p[0] = static_cast<char>(k);
              ptrs.push_back(p);
            }
            for (char* p : ptrs) free(p);
            local += 1;
          }
          total.fetch_add(local);
        },
        attrs));
  for (auto& t : ts) t.join();
  EXPECT_GT(total.load(), 0);
  EXPECT_GT(rt.total_preemptions(), 0u);
}

TEST(Preemption, StressManyPreemptiveThreads) {
  Runtime rt(preemptive_opts(4, TimerKind::PerWorkerAligned, 300));
  std::atomic<long> acc{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 16; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = (i % 2 == 0) ? Preempt::SignalYield : Preempt::KltSwitch;
    ts.push_back(rt.spawn(
        [&] {
          const std::int64_t deadline = now_ns() + 80'000'000;
          while (now_ns() < deadline) acc.fetch_add(1, std::memory_order_relaxed);
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}

// --- deadlock demonstration (negative control, in a child process) ---------
//
// The same busy-wait pair WITHOUT preemption must deadlock: the child
// process is expected to still be alive (stuck) after a grace period.
TEST(Preemption, NonpreemptiveBusyWaitDeadlocks) {
  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: nonpreemptive runtime, 1 worker, busy-wait pair → deadlock.
    RuntimeOptions o;
    o.num_workers = 1;
    o.timer = TimerKind::None;
    Runtime rt(o);
    std::atomic<bool> flag{false};
    Thread a = rt.spawn([&] {
      while (!flag.load(std::memory_order_acquire)) cpu_pause();
    });
    Thread b = rt.spawn([&] { flag.store(true); });
    a.join();
    b.join();
    _exit(0);  // unreachable if the deadlock holds
  }
  // Parent: the child must NOT finish within the grace period.
  const std::int64_t deadline = now_ns() + 2'000'000'000;
  int status = 0;
  pid_t r = 0;
  while (now_ns() < deadline) {
    r = waitpid(pid, &status, WNOHANG);
    ASSERT_NE(r, -1);
    if (r == pid) break;
    usleep(10'000);
  }
  EXPECT_EQ(r, 0) << "nonpreemptive busy-wait unexpectedly completed";
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
}

}  // namespace
}  // namespace lpt
