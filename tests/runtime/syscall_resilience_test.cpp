// Tier-1 tests of blocking-syscall resilience (docs/robustness.md,
// "Blocking-syscall resilience"): the lpt::io guards and retry wrappers, the
// watchdog's wedge sentinel, compensating-KLT activation under both
// preemption techniques, reabsorption accounting, and saturation as graceful
// degradation.
//
// Suite naming is load-bearing for scripts/check.sh: the IoCall.* and
// SyscallDetect.* suites never enter a Runtime (no fiber switches), so the
// ThreadSanitizer stage runs exactly that filter; SyscallComp.* and
// SyscallStorm.* switch contexts and run in normal/tier-1 builds only.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <vector>

#include "common/sys.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "runtime/watchdog.hpp"

namespace lpt {
namespace {

bool wait_until(const std::atomic<bool>& flag, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (!flag.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    usleep(1000);
  }
  return true;
}

/// RAII pipe pair so early ASSERT exits cannot leak descriptors.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int rd() const { return fds[0]; }
  int wr() const { return fds[1]; }
};

// ---------------------------------------------------------------------------
// io::call retry/deadline policy + the new shim sites (no Runtime; TSan-clean)
// ---------------------------------------------------------------------------

TEST(IoCall, EintrRetriesThroughShimToSuccess) {
  Pipe p;
  ASSERT_EQ(::write(p.wr(), "x", 1), 1);
  const std::uint64_t before = sys::counters(sys::Site::kRead).injected;
  ASSERT_TRUE(sys::configure_faults("read:first=3,errno=EINTR"));
  char c = 0;
  const ssize_t rc = io::read(p.rd(), &c, 1);
  const std::uint64_t injected = sys::counters(sys::Site::kRead).injected;
  sys::reset_faults();  // zeroes counters — deltas were captured above
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(c, 'x');
  EXPECT_EQ(injected - before, 3u);
}

TEST(IoCall, EagainBacksOffThenSucceeds) {
  Pipe p;
  ASSERT_TRUE(sys::configure_faults("write:first=2,errno=EAGAIN"));
  const ssize_t rc = io::write(p.wr(), "y", 1);
  sys::reset_faults();
  EXPECT_EQ(rc, 1);
  char c = 0;
  EXPECT_EQ(::read(p.rd(), &c, 1), 1);
  EXPECT_EQ(c, 'y');
}

TEST(IoCall, DeadlineExhaustionReportsEtimedout) {
  Pipe p;
  ASSERT_TRUE(sys::configure_faults("read:every=1,errno=EAGAIN"));
  char c = 0;
  const std::int64_t t0 = now_ns();
  errno = 0;
  const ssize_t rc = io::read(p.rd(), &c, 1, /*deadline_ns=*/5'000'000);
  const int err = errno;
  sys::reset_faults();
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(err, ETIMEDOUT);
  // Bounded: the retry loop must not grossly overshoot the deadline.
  EXPECT_LT(now_ns() - t0, 1'000'000'000);
}

TEST(IoCall, EnosysIsNotRetryable) {
  Pipe p;
  const std::uint64_t calls_before = sys::counters(sys::Site::kRead).calls;
  ASSERT_TRUE(sys::configure_faults("read:every=1,errno=ENOSYS"));
  char c = 0;
  errno = 0;
  const ssize_t rc = io::read(p.rd(), &c, 1);
  const int err = errno;
  const std::uint64_t calls = sys::counters(sys::Site::kRead).calls;
  sys::reset_faults();
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(err, ENOSYS);
  // A non-retryable errno surfaces after exactly one attempt.
  EXPECT_EQ(calls - calls_before, 1u);
}

TEST(IoCall, NewShimSitesInjectAndRecover) {
  ASSERT_TRUE(sys::configure_faults("pipe2:nth=1;eventfd:nth=1"));
  int fds[2];
  errno = 0;
  EXPECT_EQ(sys::pipe2(fds, 0), -1);
  EXPECT_EQ(errno, EAGAIN);
  ASSERT_EQ(sys::pipe2(fds, 0), 0);  // second call passes through
  ::close(fds[0]);
  ::close(fds[1]);
  errno = 0;
  EXPECT_EQ(sys::eventfd(0, 0), -1);
  EXPECT_EQ(errno, EAGAIN);
  const int efd = sys::eventfd(0, 0);
  EXPECT_GE(efd, 0);
  if (efd >= 0) ::close(efd);
  sys::reset_faults();
}

TEST(IoCall, GuardAndWrappersInertOutsideRuntime) {
  // No Runtime exists on this thread: the guard publishes nothing and the
  // wrappers behave like the plain syscalls (plus retry policy).
  { io::blocking_region region; }
  Pipe p;
  ASSERT_EQ(::write(p.wr(), "z", 1), 1);
  char c = 0;
  EXPECT_EQ(io::read(p.rd(), &c, 1), 1);
  EXPECT_EQ(c, 'z');
}

// ---------------------------------------------------------------------------
// Wedge-sentinel detection core (pure function; TSan-clean)
// ---------------------------------------------------------------------------

using watchdog_detail::evaluate_worker;
using watchdog_detail::kFlagQuantumOverrun;
using watchdog_detail::kFlagRunnableStarvation;
using watchdog_detail::kFlagSyscallBlocked;
using watchdog_detail::kFlagWorkerStall;
using watchdog_detail::WatchdogLimits;
using watchdog_detail::WorkerObs;
using watchdog_detail::WorkerWatch;

WorkerObs base_obs(std::int64_t now) {
  WorkerObs o;
  o.now_ns = now;
  o.dispatches = 1;
  return o;
}

TEST(SyscallDetect, FlagsOncePerEpochPastGrace) {
  WatchdogLimits lim;
  lim.syscall_grace_ns = 1'000;
  WorkerWatch w;
  EXPECT_EQ(evaluate_worker(base_obs(0), lim, w), 0u);  // priming poll

  WorkerObs obs = base_obs(10);
  obs.in_syscall = true;
  obs.syscall_epoch = 1;
  obs.syscall_age_ns = 500;
  EXPECT_EQ(evaluate_worker(obs, lim, w), 0u) << "under grace: no flag";
  obs.syscall_age_ns = 1'000;
  EXPECT_EQ(evaluate_worker(obs, lim, w), kFlagSyscallBlocked);
  obs.syscall_age_ns = 50'000;
  EXPECT_EQ(evaluate_worker(obs, lim, w), 0u) << "same epoch flags once";

  obs.in_syscall = false;  // region exited: latch clears
  EXPECT_EQ(evaluate_worker(obs, lim, w), 0u);
  obs.in_syscall = true;   // a new region on the same worker flags afresh
  obs.syscall_epoch = 3;
  obs.syscall_age_ns = 2'000;
  EXPECT_EQ(evaluate_worker(obs, lim, w), kFlagSyscallBlocked);
}

TEST(SyscallDetect, ZeroGraceDisablesTheSentinel) {
  WatchdogLimits lim;  // syscall_grace_ns stays 0
  WorkerWatch w;
  EXPECT_EQ(evaluate_worker(base_obs(0), lim, w), 0u);
  WorkerObs obs = base_obs(10);
  obs.in_syscall = true;
  obs.syscall_epoch = 1;
  obs.syscall_age_ns = 1'000'000'000;
  EXPECT_EQ(evaluate_worker(obs, lim, w), 0u);
}

TEST(SyscallDetect, DeclaredSyscallSuppressesMisdiagnoses) {
  // A wedged-in-syscall worker looks exactly like starvation (queued work,
  // frozen dispatches), a stall (ticks land, handler never runs), and an
  // overrun (one ULT hogging the worker). The declared wedge must suppress
  // all three — the force-replace ladder would orphan a host that the
  // reabsorption protocol handles loss-free.
  WatchdogLimits lim;
  lim.runnable_ns = 1'000;
  lim.stall_ticks = 2;
  lim.quantum_ns = 1'000;
  lim.syscall_grace_ns = 1'000;

  WorkerWatch w_in, w_out;
  WorkerObs prime = base_obs(0);
  prime.ticks_sent = 1;
  prime.handler_entries = 1;
  EXPECT_EQ(evaluate_worker(prime, lim, w_in), 0u);
  EXPECT_EQ(evaluate_worker(prime, lim, w_out), 0u);

  WorkerObs sick = base_obs(10'000'000);  // frozen 10 ms, every limit tripped
  sick.queue_depth = 3;
  sick.preemptible_running = true;
  sick.ticks_sent = 20;
  sick.handler_entries = 1;

  WorkerObs wedged = sick;
  wedged.in_syscall = true;
  wedged.syscall_epoch = 1;
  wedged.syscall_age_ns = 9'000'000;
  EXPECT_EQ(evaluate_worker(wedged, lim, w_in), kFlagSyscallBlocked)
      << "only the declared wedge may flag";

  unsigned flags = evaluate_worker(sick, lim, w_out);
  EXPECT_NE(flags & kFlagWorkerStall, 0u);
  EXPECT_NE(flags & kFlagQuantumOverrun, 0u);
  EXPECT_EQ(flags & kFlagSyscallBlocked, 0u);

  // Starvation needs the queue non-empty across two polls (the first only
  // baselines its wait). Second poll, 10 ms later, same pathology:
  sick.now_ns = wedged.now_ns = 20'000'000;
  wedged.syscall_age_ns = 19'000'000;
  EXPECT_EQ(evaluate_worker(wedged, lim, w_in), 0u)
      << "wedge already flagged; still nothing else may fire";
  flags = evaluate_worker(sick, lim, w_out);
  EXPECT_NE(flags & kFlagRunnableStarvation, 0u);
  EXPECT_EQ(flags & kFlagSyscallBlocked, 0u);
}

// ---------------------------------------------------------------------------
// Compensation end-to-end, both preemption techniques (Runtime; not TSan)
// ---------------------------------------------------------------------------

/// One worker, one spare KLT, a short grace. The wedge ULT parks its host
/// inside io::read on an empty pipe; the victim ULT can only ever run if the
/// sentinel activates the compensating KLT (there is no second worker). The
/// unblocking write then lets the old host reabsorb, and the books must
/// reconcile exactly: activated == reabsorbed + saturated.
void expect_compensation_rescues_wedged_worker(Preempt technique) {
  Pipe p;
  std::atomic<bool> flagged{false};
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 10;
  o.syscall_grace_ns = 5'000'000;  // 5 ms
  o.initial_spare_klts = 1;
  o.watchdog_callback = [&](const WatchdogReport& r) {
    if (r.kind == WatchdogReport::Kind::kSyscallBlocked)
      flagged.store(true, std::memory_order_release);
  };
  Runtime rt(o);

  ThreadAttrs a;
  a.preempt = technique;
  Thread wedge = rt.spawn(
      [&] {
        char c = 0;
        EXPECT_EQ(io::read(p.rd(), &c, 1), 1);
        EXPECT_EQ(c, 'x');
      },
      a);
  // Wait for the region to publish before queueing the victim: from then on
  // the guard pins the wedge ULT, so only compensation can dispatch anyone.
  const std::int64_t publish_deadline = now_ns() + 2'000'000'000;
  while (rt.metrics_snapshot().syscall_blocks == 0 &&
         now_ns() < publish_deadline)
    usleep(1000);
  ASSERT_GE(rt.metrics_snapshot().syscall_blocks, 1u) << "guard never entered";

  std::atomic<bool> victim_ran{false};
  Thread victim =
      rt.spawn([&] { victim_ran.store(true, std::memory_order_release); });
  EXPECT_TRUE(wait_until(victim_ran, 10'000'000'000))
      << "compensating KLT never dispatched the queued victim";
  // The fresh host can dispatch the victim a beat before the sentinel thread
  // reaches its report callback — wait, don't sample.
  EXPECT_TRUE(wait_until(flagged, 2'000'000'000));

  ASSERT_EQ(::write(p.wr(), "x", 1), 1);  // unwedge: old host reabsorbs
  wedge.join();
  victim.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.syscall_blocks, 1u);
  EXPECT_GE(s.syscall_comp_activated, 1u);
  EXPECT_GE(s.syscall_comp_reabsorbed, 1u);
  EXPECT_EQ(s.syscall_comp_activated,
            s.syscall_comp_reabsorbed + s.syscall_comp_saturated)
      << "compensation books must reconcile exactly after quiescing";
  EXPECT_GE(rt.watchdog_flags(WatchdogReport::Kind::kSyscallBlocked), 1u);
  const metrics::Snapshot m = rt.metrics_snapshot();
  EXPECT_GE(m.syscall_blocks, 1u);
  EXPECT_EQ(m.syscall_comp_activated, s.syscall_comp_activated);
  EXPECT_EQ(m.syscall_comp_reabsorbed, s.syscall_comp_reabsorbed);
}

TEST(SyscallComp, CompensatesWedgedWorkerSignalYield) {
  expect_compensation_rescues_wedged_worker(Preempt::SignalYield);
}

TEST(SyscallComp, CompensatesWedgedWorkerKltSwitch) {
  expect_compensation_rescues_wedged_worker(Preempt::KltSwitch);
}

TEST(SyscallComp, HealthyIoNeverActivates) {
  // Short, always-ready io calls must never trip the sentinel: zero false
  // activations and zero kSyscallBlocked flags over a churning workload.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 10;
  o.syscall_grace_ns = 20'000'000;
  Runtime rt(o);

  const std::int64_t end = now_ns() + 300'000'000;
  while (now_ns() < end) {
    std::vector<Thread> ts;
    for (int i = 0; i < 4; ++i) {
      ts.push_back(rt.spawn([] {
        Pipe p;
        char c = 0;
        for (int j = 0; j < 16; ++j) {
          ASSERT_EQ(io::write(p.wr(), "k", 1), 1);
          ASSERT_EQ(io::read(p.rd(), &c, 1), 1);  // data already queued
        }
      }));
    }
    for (Thread& t : ts) t.join();
  }

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.syscall_blocks, 0u);
  EXPECT_EQ(s.syscall_comp_activated, 0u) << "false compensation activation";
  EXPECT_EQ(rt.watchdog_flags(WatchdogReport::Kind::kSyscallBlocked), 0u);
}

TEST(SyscallComp, SaturationDegradesGracefully) {
  // max_klts == the worker host: the sentinel detects the wedge but can
  // never source a compensating KLT. That must count as saturation (not
  // activation), leave the wedge unharmed, and keep the books balanced.
  Pipe p;
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;  // watchdog drives itself on its own thread
  o.watchdog_period_ms = 10;
  o.syscall_grace_ns = 5'000'000;
  o.max_klts = 1;
  Runtime rt(o);

  Thread wedge = rt.spawn([&] {
    char c = 0;
    EXPECT_EQ(io::read(p.rd(), &c, 1), 1);
  });
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (rt.metrics_snapshot().syscall_comp_saturated == 0 &&
         now_ns() < deadline)
    usleep(1000);
  ASSERT_GE(rt.metrics_snapshot().syscall_comp_saturated, 1u)
      << "sentinel never reported saturation";

  ASSERT_EQ(::write(p.wr(), "x", 1), 1);
  wedge.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.syscall_comp_saturated, 1u);
  EXPECT_EQ(s.syscall_comp_reabsorbed, 0u)
      << "nothing was activated, so nothing may reabsorb";
  EXPECT_EQ(s.syscall_comp_activated,
            s.syscall_comp_reabsorbed + s.syscall_comp_saturated);
}

// ---------------------------------------------------------------------------
// LPT_FAULT storm through io::call inside the runtime (Runtime; not TSan)
// ---------------------------------------------------------------------------

TEST(SyscallStorm, EintrEagainStormPreservesEveryByte) {
  // A probabilistic EINTR/EAGAIN storm on the read and write sites: every
  // transfer must still complete losslessly through io::call's retry loop,
  // and transient errno churn must never be mistaken for a wedge.
  ASSERT_TRUE(sys::configure_faults(
      "read:prob=0.4,errno=EINTR,seed=7;write:prob=0.3,errno=EAGAIN,seed=11"));
  {
    RuntimeOptions o;
    o.num_workers = 2;
    o.timer = TimerKind::None;
    o.watchdog_period_ms = 10;
    Runtime rt(o);

    constexpr int kBytes = 512;
    std::vector<Thread> ts;
    std::atomic<int> bad{0};
    for (int i = 0; i < 4; ++i) {
      ts.push_back(rt.spawn([&bad, i] {
        Pipe p;
        for (int j = 0; j < kBytes; ++j) {
          const char out = static_cast<char>('a' + (i + j) % 26);
          char in = 0;
          if (io::write(p.wr(), &out, 1) != 1 ||
              io::read(p.rd(), &in, 1) != 1 || in != out)
            bad.fetch_add(1, std::memory_order_relaxed);
        }
      }));
    }
    for (Thread& t : ts) t.join();
    EXPECT_EQ(bad.load(), 0) << "storm corrupted or dropped a transfer";

    const metrics::Snapshot s = rt.metrics_snapshot();
    EXPECT_GE(s.syscall_blocks, static_cast<std::uint64_t>(4 * kBytes));
    EXPECT_EQ(s.syscall_comp_activated, 0u)
        << "retry churn misread as a wedge";
  }
  EXPECT_GT(sys::counters(sys::Site::kRead).injected, 0u);
  EXPECT_GT(sys::counters(sys::Site::kWrite).injected, 0u);
  sys::reset_faults();
}

}  // namespace
}  // namespace lpt
