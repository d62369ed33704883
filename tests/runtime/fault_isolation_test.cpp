// Fault isolation (docs/robustness.md): a ULT that overflows its stack or
// lets an exception escape is terminated with ThreadStatus Failed while the
// rest of the runtime — sibling ULTs, workers, the KLT pool — keeps going.
//
// Containment tests skip themselves when fault::available() is false
// (sanitizer builds: ASan/TSan own the SIGSEGV handler), and the
// exception-firewall tests skip under sanitizers as well (throwing on a
// fiber stack trips ASan's no-return handling — see kUltThrowSafe). The
// stack-pool hardening and env-override tests run everywhere.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/cpu.hpp"
#include "common/sys.hpp"
#include "common/time.hpp"
#include "context/stack.hpp"
#include "runtime/compat.hpp"
#include "runtime/fault.hpp"
#include "runtime/lpt.hpp"
#include "runtime/watchdog.hpp"

namespace lpt {
namespace {

class FaultIsolation : public ::testing::Test {
 protected:
  void SetUp() override { sys::reset_faults(); }
  void TearDown() override { sys::reset_faults(); }
};

RuntimeOptions quiet_opts(int workers) {
  RuntimeOptions o;
  o.num_workers = workers;
  o.timer = TimerKind::None;  // faults are synchronous; no preemption needed
  o.watchdog_callback = [](const WatchdogReport&) {};
  return o;
}

void busy_spin_ms(std::int64_t ms) {
  const std::int64_t deadline = now_ns() + ms * 1'000'000;
  while (now_ns() < deadline) cpu_pause();
}

// Throwing on a fiber stack trips ASan's __asan_handle_no_return: the
// unwinder unpoisons what ASan believes is the kernel thread's stack and
// reports a false stack-buffer-underflow (google/sanitizers#189). The
// exception-firewall tests therefore skip under sanitizer builds too, even
// though the firewall itself is plain C++.
#if defined(LPT_SANITIZE_BUILD)
constexpr bool kUltThrowSafe = false;
#else
constexpr bool kUltThrowSafe = true;
#endif

// Recursion that defeats tail-call optimization: every frame owns a buffer
// whose address escapes through a volatile pointer and whose contents feed
// the return value.
__attribute__((noinline)) int overflow_recursion(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = frame[0];
  if (depth <= 0) return frame[sizeof(frame) - 1];
  return overflow_recursion(depth - 1) + frame[0];
}

// --- tentpole acceptance: overflow contained under both preemption modes ----

void run_overflow_survival(Runtime& rt, Preempt mode) {
  constexpr int kSiblings = 4;
  std::atomic<int> sibling_done{0};

  std::vector<Thread> siblings;
  for (int i = 0; i < kSiblings; ++i) {
    siblings.push_back(rt.spawn([&] {
      busy_spin_ms(5);
      sibling_done.fetch_add(1, std::memory_order_relaxed);
    }));
  }

  ThreadAttrs attrs;
  attrs.preempt = mode;
  Thread bad = rt.spawn([] { (void)overflow_recursion(1 << 28); }, attrs);

  const ThreadStatus st = bad.join_status();
  ASSERT_TRUE(st.completed);
  EXPECT_TRUE(st.failed());
  EXPECT_EQ(st.fault.kind, FaultKind::kStackOverflow);
  EXPECT_NE(st.fault.fault_addr, 0u);
  EXPECT_GT(st.fault.stack_watermark, 0u);
  EXPECT_LE(st.fault.stack_watermark, rt.options().stack_size);

  for (Thread& t : siblings) t.join();
  EXPECT_EQ(sibling_done.load(), kSiblings);

  // The runtime keeps scheduling new work after containment.
  std::atomic<bool> after{false};
  rt.spawn([&] { after.store(true); }).join();
  EXPECT_TRUE(after.load());

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.ult_faults, 1u);
  EXPECT_GE(s.stack_overflows, 1u);
  EXPECT_GE(s.stacks_quarantined, 1u);
  EXPECT_GT(s.stack_watermark_max, 0u);

  const metrics::Snapshot m = rt.metrics_snapshot();
  EXPECT_GE(m.ult_faults, 1u);
  EXPECT_GE(m.stack_overflows, 1u);
  EXPECT_EQ(m.stack_size_bytes, rt.options().stack_size);
}

TEST_F(FaultIsolation, StackOverflowContainedSignalYield) {
  Runtime rt(quiet_opts(2));
  if (!fault::available()) GTEST_SKIP() << "containment off in this build";
  run_overflow_survival(rt, Preempt::SignalYield);
}

TEST_F(FaultIsolation, StackOverflowContainedKltSwitch) {
  RuntimeOptions o = quiet_opts(2);
  o.initial_spare_klts = 2;  // retire path hands the worker to a pooled spare
  Runtime rt(o);
  if (!fault::available()) GTEST_SKIP() << "containment off in this build";
  run_overflow_survival(rt, Preempt::KltSwitch);
  // The faulting KLT was poisoned by the abandoned signal frame: it must be
  // retired, never returned to the pool.
  EXPECT_GE(rt.metrics_snapshot().klts_retired, 1u);
}

TEST_F(FaultIsolation, RepeatedOverflowsDoNotExhaustTheRuntime) {
  Runtime rt(quiet_opts(2));
  if (!fault::available()) GTEST_SKIP() << "containment off in this build";
  for (int i = 0; i < 8; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    Thread bad = rt.spawn([] { (void)overflow_recursion(1 << 28); }, attrs);
    const ThreadStatus st = bad.join_status();
    ASSERT_TRUE(st.completed);
    EXPECT_EQ(st.fault.kind, FaultKind::kStackOverflow);
  }
  EXPECT_GE(rt.metrics_snapshot().stack_overflows, 8u);
  std::atomic<int> ok{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 16; ++i)
    ts.push_back(rt.spawn([&] { ok.fetch_add(1); }));
  for (Thread& t : ts) t.join();
  EXPECT_EQ(ok.load(), 16);
}

// --- isolate_faults: wild stores contained only on request -----------------

TEST_F(FaultIsolation, WildWriteContainedUnderIsolateFaults) {
  RuntimeOptions o = quiet_opts(2);
  o.isolate_faults = true;
  Runtime rt(o);
  if (!fault::available()) GTEST_SKIP() << "containment off in this build";

  std::atomic<int> sibling_done{0};
  Thread sib = rt.spawn([&] {
    busy_spin_ms(2);
    sibling_done.fetch_add(1);
  });
  Thread bad = rt.spawn([] {
    volatile int* p = reinterpret_cast<volatile int*>(0x40);
    *p = 1;  // not a stack overflow: address nowhere near the guard page
  });
  const ThreadStatus st = bad.join_status();
  ASSERT_TRUE(st.completed);
  EXPECT_EQ(st.fault.kind, FaultKind::kSegv);
  EXPECT_EQ(st.fault.fault_addr, 0x40u);
  sib.join();
  EXPECT_EQ(sibling_done.load(), 1);
}

// --- non-ULT faults must still crash (handler chaining) --------------------

TEST_F(FaultIsolation, NonUltFaultStillCrashesProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Runtime rt(quiet_opts(1));
  if (!fault::available()) GTEST_SKIP() << "containment off in this build";
  // The fault happens on the test's kernel thread, not in ULT context: the
  // handler must chain to the pre-runtime disposition (default: die).
  EXPECT_EXIT(
      {
        volatile int* p = reinterpret_cast<volatile int*>(0x18);
        *p = 1;
      },
      ::testing::KilledBySignal(SIGSEGV), "");
}

// --- exception firewall (plain C++: runs under sanitizers too) -------------

TEST_F(FaultIsolation, EscapedExceptionBecomesFailedStatus) {
  if (!kUltThrowSafe) GTEST_SKIP() << "ULT-stack throws unsupported by ASan";
  Runtime rt(quiet_opts(2));
  Thread bad = rt.spawn([] { throw std::runtime_error("boom42"); });
  const ThreadStatus st = bad.join_status();
  ASSERT_TRUE(st.completed);
  EXPECT_TRUE(st.failed());
  EXPECT_EQ(st.fault.kind, FaultKind::kException);
  EXPECT_NE(std::strstr(st.fault.what, "boom42"), nullptr);

  Thread odd = rt.spawn([] { throw 7; });
  const ThreadStatus st2 = odd.join_status();
  ASSERT_TRUE(st2.completed);
  EXPECT_EQ(st2.fault.kind, FaultKind::kException);
  EXPECT_NE(std::strstr(st2.fault.what, "non-std"), nullptr);

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.escaped_exceptions, 2u);
  EXPECT_GE(s.ult_faults, 2u);
  EXPECT_GE(s.stacks_quarantined, 2u);
}

TEST_F(FaultIsolation, ExceptionFirewallRunsDestructors) {
  if (!kUltThrowSafe) GTEST_SKIP() << "ULT-stack throws unsupported by ASan";
  Runtime rt(quiet_opts(1));
  std::atomic<bool> unwound{false};
  struct Sentinel {
    std::atomic<bool>* flag;
    ~Sentinel() { flag->store(true); }
  };
  Thread bad = rt.spawn([&] {
    Sentinel s{&unwound};
    throw std::runtime_error("unwind me");
  });
  EXPECT_TRUE(bad.join_status().failed());
  EXPECT_TRUE(unwound.load());  // normal unwinding, unlike the signal path
}

// --- compat layer: pthread-style EFAULT on a faulted thread ----------------

TEST_F(FaultIsolation, CompatJoinReportsEfaultForFaultedThread) {
  if (!kUltThrowSafe) GTEST_SKIP() << "ULT-stack throws unsupported by ASan";
  Runtime rt(quiet_opts(2));
  compat::thread_t t{};
  ASSERT_EQ(compat::thread_create(
                &t, nullptr,
                [](void*) -> void* { throw std::runtime_error("compat boom"); },
                nullptr),
            0);
  void* retval = reinterpret_cast<void*>(0xdead);
  EXPECT_EQ(compat::thread_join(t, &retval), EFAULT);
  // The start routine never returned a value; *retval is left untouched.
  EXPECT_EQ(retval, reinterpret_cast<void*>(0xdead));
}

// --- fault-storm watchdog ---------------------------------------------------

TEST_F(FaultIsolation, FaultStormFlagsWatchdog) {
  if (!kUltThrowSafe) GTEST_SKIP() << "ULT-stack throws unsupported by ASan";
  RuntimeOptions o = quiet_opts(1);
  o.watchdog_period_ms = 20;
  o.watchdog_fault_storm = 3;
  Runtime rt(o);

  // Exceptions count as contained faults, so this works in every build.
  const std::int64_t deadline = now_ns() + 20ll * 1'000'000'000;
  while (rt.watchdog_flags(WatchdogReport::Kind::kFaultStorm) == 0 &&
         now_ns() < deadline) {
    std::vector<Thread> burst;
    for (int i = 0; i < 8; ++i)
      burst.push_back(rt.spawn([] { throw std::runtime_error("storm"); }));
    for (Thread& t : burst) t.join();
    busy_spin_ms(5);
  }
  EXPECT_GE(rt.watchdog_flags(WatchdogReport::Kind::kFaultStorm), 1u);
}

// --- LPT_STACK_SIZE env override -------------------------------------------

TEST_F(FaultIsolation, StackSizeEnvOverrideIsValidatedAndRounded) {
  ::setenv("LPT_STACK_SIZE", "64K", 1);
  {
    Runtime rt(quiet_opts(1));
    EXPECT_EQ(rt.options().stack_size, 64u * 1024);
    EXPECT_EQ(rt.metrics_snapshot().stack_size_bytes, 64u * 1024);
    std::atomic<bool> ran{false};
    rt.spawn([&] { ran.store(true); }).join();
    EXPECT_TRUE(ran.load());
  }
  ::setenv("LPT_STACK_SIZE", "banana", 1);
  {
    Runtime rt(quiet_opts(1));
    EXPECT_EQ(rt.options().stack_size, RuntimeOptions{}.stack_size);
  }
  ::setenv("LPT_STACK_SIZE", "1", 1);  // below the floor: clamped, page-rounded
  {
    Runtime rt(quiet_opts(1));
    EXPECT_GE(rt.options().stack_size, kMinStackSize);
    EXPECT_EQ(rt.options().stack_size % 4096, 0u);
  }
  ::unsetenv("LPT_STACK_SIZE");
}

// --- StackPool hardening ----------------------------------------------------

TEST_F(FaultIsolation, CachedStackIsDroppedWhenGuardCannotBeReasserted) {
  StackPool pool(64 * 1024, 4);
  // An unsealed stack, as on a kernel without mseal: only its guard can be
  // lifted, so only its reuse re-asserts the guard.
  ASSERT_TRUE(sys::configure_faults("mseal:every=1"));
  Stack s = pool.acquire();
  ASSERT_TRUE(s.valid());
  pool.release(std::move(s));
  ASSERT_EQ(pool.cached(), 1u);

  // Reuse re-asserts PROT_NONE through the sys shim; make that fail.
  ASSERT_TRUE(sys::configure_faults("mprotect:every=1"));
  Stack fresh = pool.acquire();
  sys::reset_faults();

  // The pool shed the unprotectable cached stack and fell back to a fresh
  // mapping (whose guard is established outside the injectable reuse path).
  ASSERT_TRUE(fresh.valid());
  EXPECT_EQ(pool.cached(), 0u);
  EXPECT_GE(pool.total_shed(), 1u);
}

TEST_F(FaultIsolation, QuarantineScrubsAndRecachesOrDrops) {
  StackPool pool(64 * 1024, 4);
  ASSERT_TRUE(sys::configure_faults("mseal:every=1"));  // unsealed, as above
  Stack s = pool.acquire();
  ASSERT_TRUE(s.valid());
  std::memset(s.base(), 0xab, 4096);
  pool.quarantine(std::move(s));
  EXPECT_EQ(pool.total_quarantined(), 1u);
  EXPECT_EQ(pool.cached(), 1u);

  Stack s2 = pool.acquire();  // pops the quarantined stack (guard intact)
  ASSERT_TRUE(s2.valid());
  sys::configure_faults("mprotect:every=1");
  pool.quarantine(std::move(s2));  // re-protect fails: must drop, not cache
  sys::reset_faults();
  EXPECT_EQ(pool.total_quarantined(), 2u);
  EXPECT_EQ(pool.cached(), 0u);
  EXPECT_GE(pool.total_shed(), 1u);
}

// The sealed counterparts: a sealed guard cannot be lifted, so neither reuse
// nor quarantine calls mprotect, and a failing mprotect drops nothing.
TEST_F(FaultIsolation, SealedCachedStackIsReusedWithoutMprotect) {
  StackPool pool(64 * 1024, 4);
  Stack s = pool.acquire();
  ASSERT_TRUE(s.valid());
  if (!s.sealed()) GTEST_SKIP() << "kernel refused mseal";
  void* const base = s.base();
  pool.release(std::move(s));

  ASSERT_TRUE(sys::configure_faults("mprotect:every=1"));
  const std::uint64_t calls = sys::counters(sys::Site::kMprotect).calls;
  Stack again = pool.acquire();
  EXPECT_EQ(sys::counters(sys::Site::kMprotect).calls, calls);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.base(), base);
  EXPECT_EQ(pool.total_shed(), 0u);
}

TEST_F(FaultIsolation, SealedQuarantineRecachesWithoutMprotect) {
  StackPool pool(64 * 1024, 4);
  Stack s = pool.acquire();
  ASSERT_TRUE(s.valid());
  if (!s.sealed()) GTEST_SKIP() << "kernel refused mseal";
  std::memset(s.base(), 0xab, 4096);

  ASSERT_TRUE(sys::configure_faults("mprotect:every=1"));
  const std::uint64_t calls = sys::counters(sys::Site::kMprotect).calls;
  pool.quarantine(std::move(s));
  EXPECT_EQ(sys::counters(sys::Site::kMprotect).calls, calls);
  EXPECT_EQ(pool.total_quarantined(), 1u);
  EXPECT_EQ(pool.cached(), 1u);
  EXPECT_EQ(pool.total_shed(), 0u);
  Stack again = pool.acquire();
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(static_cast<unsigned char*>(again.base())[0], 0) << "scrubbed";
}

}  // namespace
}  // namespace lpt
