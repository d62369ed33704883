// Inline join (DESIGN.md, "Inline join"): a ULT that joins a child which
// has never been dispatched runs it on its own stack as a plain call. The
// tests pin where the child runs (its frames lie in the joiner's stack, and
// no dispatch counts it), every rule that refuses it, the exception firewall
// around it, cancellation of an inlined child and of a joiner in the middle
// of a chain of them, and what the tracer records.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/time.hpp"
#include "common/trace.hpp"
#include "runtime/internal.hpp"
#include "runtime/lpt.hpp"

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

/// The stack of the ULT running this code: for an inlined child, that is
/// its joiner's.
struct StackRange {
  std::uintptr_t lo = 0, hi = 0;
  bool contains(const void* p) const {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    return a >= lo && a < hi;
  }
};

StackRange current_stack() {
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) return {};
  const auto lo = reinterpret_cast<std::uintptr_t>(self->stack.base());
  return {lo, lo + self->stack.size()};
}

/// Where a child's frame was, and whether that lay in its joiner's stack.
struct Probe {
  StackRange joiner;
  std::atomic<const void*> frame{nullptr};
  void mark() {
    volatile char here = 0;
    frame.store(const_cast<const char*>(&here), std::memory_order_release);
  }
  bool inlined() const { return joiner.contains(frame.load()); }
};

RuntimeOptions one_worker() {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;
  return o;
}

/// Spawn a child from a ULT and join it there; returns whether the child
/// ran on the joiner's stack. `attrs` go to the child, `join` does the join.
template <typename Join>
bool child_inlined(Runtime& rt, ThreadAttrs attrs, Join join,
                   ThreadAttrs joiner_attrs = {}) {
  Probe p;
  rt.spawn(
        [&] {
          p.joiner = current_stack();
          Thread c = rt.spawn([&] { p.mark(); }, attrs);
          join(c);
        },
        joiner_attrs)
      .join();
  EXPECT_NE(p.frame.load(), nullptr) << "the child never ran";
  return p.inlined();
}

void plain_join(Thread& c) { c.join(); }

// ---------------------------------------------------------------------------
// The inline run
// ---------------------------------------------------------------------------

TEST(InlineJoin, EligibleChildRunsOnTheJoinersStack) {
  Runtime rt(one_worker());
  Probe p;
  std::atomic<int> child_rank{-1};
  std::uint64_t dispatches_before = 0;
  rt.spawn([&] {
      p.joiner = current_stack();
      dispatches_before = rt.metrics_snapshot().dispatches;
      Thread c = rt.spawn([&] {
        p.mark();
        child_rank.store(this_thread::worker_rank());
      });
      c.join();
      // The child's run dispatched nothing: the joiner never left the CPU.
      EXPECT_EQ(rt.metrics_snapshot().dispatches, dispatches_before);
    })
      .join();
  EXPECT_TRUE(p.inlined());
  EXPECT_EQ(child_rank.load(), 0);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.dispatches, 1u);  // the joiner only
  EXPECT_EQ(s.ults_spawned, 2u);
  EXPECT_EQ(s.ults_live, 0);
}

TEST(InlineJoin, JoinStatusInlinesAndReportsCompletion) {
  Runtime rt(one_worker());
  Probe p;
  ThreadStatus st;
  rt.spawn([&] {
      p.joiner = current_stack();
      Thread c = rt.spawn([&] { p.mark(); });
      st = c.join_status();
    })
      .join();
  EXPECT_TRUE(p.inlined());
  EXPECT_TRUE(st.completed);
  EXPECT_FALSE(st.failed());
}

long fib(Runtime& rt, int n) {
  if (n < 2) return n;
  long a = 0;
  Thread t = rt.spawn([&rt, &a, n] { a = fib(rt, n - 1); });
  const long b = fib(rt, n - 2);
  t.join();
  return a + b;
}

TEST(InlineJoin, OneWorkerFibTreeRunsInlineAndReusesItsStacks) {
  Runtime rt(one_worker());
  long r = 0;
  rt.spawn([&] { r = fib(rt, 15); }).join();
  EXPECT_EQ(r, 610);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.dispatches, 1u);  // every join ran its child inline
  EXPECT_EQ(s.ults_live, 0);
  // An inlined child gives its unused stack back before it runs, so its
  // own first child reuses it. What stays held is one stack per child
  // spawned and not yet joined along the walk's left spine (about n / 2
  // of them) and the root's.
  EXPECT_LE(s.stacks_cached, 9u);
}

TEST(InlineJoin, TwoWorkerTreesStillJoinExactly) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  for (int round = 0; round < 5; ++round) {
    std::vector<long> r(4, 0);
    std::vector<Thread> roots;
    for (int i = 0; i < 4; ++i)
      roots.push_back(rt.spawn([&rt, &r, i] { r[i] = fib(rt, 14); }));
    for (auto& t : roots) t.join();
    for (long v : r) EXPECT_EQ(v, 377);
  }
  EXPECT_EQ(rt.metrics_snapshot().ults_live, 0);
}

// ---------------------------------------------------------------------------
// Every refusal takes the ULT path
// ---------------------------------------------------------------------------

TEST(InlineJoin, RefusedForAnotherPreemptionTechnique) {
  Runtime rt(one_worker());
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  EXPECT_FALSE(child_inlined(rt, sy, plain_join));
  // The same technique on both sides inlines again.
  EXPECT_TRUE(child_inlined(rt, sy, plain_join, sy));
}

TEST(InlineJoin, RefusedForADeadline) {
  Runtime rt(one_worker());
  ThreadAttrs dl;
  dl.deadline_ns = 60'000'000'000;
  EXPECT_FALSE(child_inlined(rt, dl, plain_join));
}

TEST(InlineJoin, RefusedForAPendingCancel) {
  Runtime rt(one_worker());
  EXPECT_FALSE(child_inlined(rt, {}, [](Thread& c) {
    c.request_cancel();
    c.join();
  }));
}

TEST(InlineJoin, RefusedWithIsolatedFaults) {
  RuntimeOptions o = one_worker();
  o.isolate_faults = true;
  Runtime rt(o);
  EXPECT_FALSE(child_inlined(rt, {}, plain_join));
}

TEST(InlineJoin, RefusedForJoinFor) {
  Runtime rt(one_worker());
  EXPECT_FALSE(child_inlined(rt, {}, [](Thread& c) {
    EXPECT_TRUE(c.join_for(std::chrono::seconds(10)));
  }));
}

TEST(InlineJoin, RefusedForAnExternalJoiner) {
  Runtime rt(one_worker());
  std::atomic<bool> ran{false};
  Thread c = rt.spawn([&] { ran.store(true); });
  c.join();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(rt.metrics_snapshot().dispatches, 1u);  // it ran as a ULT
}

TEST(InlineJoin, RefusedForAChildThatAlreadyRan) {
  // One worker, FIFO: the child runs first, yields and queues behind the
  // joiner, so at the join it is the newest thread of the queue again. It
  // has frames on its own stack, so the join must resume it there.
  Runtime rt(one_worker());
  Probe p;
  std::atomic<int> steps{0};
  rt.spawn([&] {
      p.joiner = current_stack();
      Thread c = rt.spawn([&] {
        steps.fetch_add(1);
        this_thread::yield();
        p.mark();
        steps.fetch_add(1);
      });
      this_thread::yield();  // the child runs up to its yield
      EXPECT_EQ(steps.load(), 1);
      c.join();
    })
      .join();
  EXPECT_EQ(steps.load(), 2);
  EXPECT_FALSE(p.inlined());
}

TEST(InlineJoin, RefusedForAChildAnotherWorkerStarted) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::None;
  Runtime rt(o);
  Probe p;
  std::atomic<bool> started{false}, joining{false};
  rt.spawn([&] {
      p.joiner = current_stack();
      Thread c = rt.spawn([&] {
        p.mark();
        started.store(true, std::memory_order_release);
        const std::int64_t deadline = now_ns() + 5'000'000'000;
        while (!joining.load(std::memory_order_acquire) && now_ns() < deadline)
          busy_spin_ns(10'000);
      });
      const std::int64_t deadline = now_ns() + 5'000'000'000;
      while (!started.load(std::memory_order_acquire) && now_ns() < deadline)
        busy_spin_ns(10'000);
      joining.store(true, std::memory_order_release);
      c.join();
    })
      .join();
  EXPECT_TRUE(started.load());
  EXPECT_FALSE(p.inlined());
}

TEST(InlineJoin, RefusedUnderThePackingScheduler) {
  RuntimeOptions o = one_worker();
  o.scheduler = SchedulerKind::Packing;
  Runtime rt(o);
  EXPECT_FALSE(child_inlined(rt, {}, plain_join));
}

/// Recursion with 1 KiB frames that joins at the bottom, with less than
/// half of the joiner's stack left.
__attribute__((noinline)) void join_deep(int depth, Thread& c) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth > 0)
    join_deep(depth - 1, c);
  else
    c.join();
  frame[sizeof(frame) - 1] = frame[0];
}

TEST(InlineJoin, RefusedWithLessThanHalfTheStackFree) {
  Runtime rt(one_worker());
  const int depth =
      static_cast<int>(rt.options().stack_size / 1024 * 5 / 8);  // ~62% used
  EXPECT_FALSE(child_inlined(rt, {}, [depth](Thread& c) { join_deep(depth, c); }));
  EXPECT_TRUE(child_inlined(rt, {}, [](Thread& c) { join_deep(8, c); }));
}

// ---------------------------------------------------------------------------
// Exceptions and cancellation
// ---------------------------------------------------------------------------

TEST(InlineJoin, ExceptionInAnInlinedChildFailsOnlyTheChild) {
  if (!kUltThrowSafe) GTEST_SKIP() << "ULT-stack throws unsupported by ASan";
  Runtime rt(one_worker());
  Probe p;
  ThreadStatus st;
  std::atomic<bool> joiner_went_on{false};
  rt.spawn([&] {
      p.joiner = current_stack();
      Thread c = rt.spawn([&] {
        p.mark();
        throw std::runtime_error("inline boom");
      });
      st = c.join_status();
      joiner_went_on.store(true);
    })
      .join();
  EXPECT_TRUE(p.inlined());
  EXPECT_TRUE(joiner_went_on.load());
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(st.fault.kind, FaultKind::kException);
  EXPECT_STREQ(st.fault.what, "inline boom");
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.escaped_exceptions, 1u);
  EXPECT_EQ(s.ults_live, 0);
}

/// Sets its flag when destroyed: shows whether a frame was unwound.
struct DtorFlag {
  std::atomic<bool>* ran;
  ~DtorFlag() { ran->store(true); }
};

TEST(InlineJoin, CancelOfAnInlinedChildCutsBackToItsJoinSite) {
  Runtime rt(one_worker());
  Probe p;
  ThreadStatus st;
  std::atomic<Thread*> handle{nullptr};
  std::atomic<bool> spinning{false}, dtor_ran{false}, joiner_went_on{false};
  Thread joiner = rt.spawn([&] {
    p.joiner = current_stack();
    Thread c = rt.spawn([&] {
      DtorFlag guard{&dtor_ran};
      p.mark();
      spinning.store(true, std::memory_order_release);
      for (;;) this_thread::yield();  // cancellation point
    });
    handle.store(&c, std::memory_order_release);
    st = c.join_status();
    joiner_went_on.store(true);
  });
  ASSERT_TRUE(wait_until(spinning, 5'000'000'000));
  EXPECT_TRUE(handle.load()->request_cancel());
  joiner.join();
  EXPECT_TRUE(p.inlined());
  EXPECT_TRUE(joiner_went_on.load());
  EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);
  EXPECT_FALSE(dtor_ran.load()) << "a cancel skips the abandoned destructors";
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.ult_cancels, 1u);
  EXPECT_EQ(s.ults_live, 0);
}

TEST(InlineJoin, CancelOfAnOuterChildEndsTheChildrenInlinedInsideIt) {
  // joiner -> c1 -> c2, both inline; cancelling c1 cuts back to the
  // joiner's join site and ends c2 with it.
  Runtime rt(one_worker());
  Thread c1, c2;
  ThreadStatus st1;
  std::atomic<bool> spinning{false}, joiner_went_on{false};
  Thread joiner = rt.spawn([&] {
    c1 = rt.spawn([&] {
      c2 = rt.spawn([&] {
        spinning.store(true, std::memory_order_release);
        for (;;) this_thread::yield();
      });
      c2.join();
    });
    st1 = c1.join_status();
    joiner_went_on.store(true);
  });
  ASSERT_TRUE(wait_until(spinning, 5'000'000'000));
  EXPECT_TRUE(c1.request_cancel());
  joiner.join();
  EXPECT_TRUE(joiner_went_on.load());
  EXPECT_EQ(st1.fault.kind, FaultKind::kCancelled);
  // c2's handle lived on c1's abandoned frames; joining it here frees it.
  ASSERT_TRUE(c2.joinable());
  EXPECT_TRUE(c2.join_for(std::chrono::seconds(5)));
  EXPECT_EQ(rt.metrics_snapshot().ults_live, 0);
}

/// A joiner cancelled while it runs joiner -> c1 -> c2 inline, c2 spinning
/// in `spin`. Without ending the chain with the joiner, c1 and c2 would
/// never finish: their frames went with the joiner's stack.
template <typename Spin>
void expect_cancelled_joiner_ends_its_chain(RuntimeOptions o, ThreadAttrs a,
                                            Spin spin) {
  Runtime rt(o);
  Thread c1, c2;
  std::atomic<bool> spinning{false}, stop{false};
  Thread joiner = rt.spawn(
      [&] {
        c1 = rt.spawn(
            [&] {
              c2 = rt.spawn(
                  [&] {
                    spinning.store(true, std::memory_order_release);
                    spin(stop);
                  },
                  a);
              c2.join();
            },
            a);
        c1.join();
      },
      a);
  ASSERT_TRUE(wait_until(spinning, 5'000'000'000));
  EXPECT_TRUE(joiner.request_cancel());
  const ThreadStatus st = joiner.join_status();
  stop.store(true);  // were c2 still running anywhere, let it end
  EXPECT_EQ(st.fault.kind, FaultKind::kCancelled);
  // The children's handles outlived the joiner here, so the test can join
  // them; both ended with the joiner's fault kind.
  ASSERT_TRUE(c1.joinable());
  ASSERT_TRUE(c2.joinable());
  const bool c1_done = c1.join_for(std::chrono::seconds(5));
  const bool c2_done = c2.join_for(std::chrono::seconds(5));
  EXPECT_TRUE(c1_done) << "an inlined child outlived its cancelled joiner";
  EXPECT_TRUE(c2_done) << "an inlined child outlived its cancelled joiner";
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.ults_spawned, 3u);
  EXPECT_EQ(s.ults_live, 0);
  EXPECT_EQ(s.ult_cancels, 3u);
}

TEST(InlineJoin, CooperativeCancelOfAJoinerMidChainEndsTheChain) {
  expect_cancelled_joiner_ends_its_chain(one_worker(), {}, [](auto&) {
    for (;;) this_thread::yield();
  });
}

TEST(InlineJoin, DirectedCancelOfAJoinerMidChainEndsTheChain) {
  // Signal-yield, and a spin with no cancellation point: the directed tick
  // unwinds the joiner through the fault landing.
  RuntimeOptions o = one_worker();
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  expect_cancelled_joiner_ends_its_chain(o, sy, [](std::atomic<bool>& stop) {
    while (!stop.load(std::memory_order_acquire)) busy_spin_ns(10'000);
  });
}

// ---------------------------------------------------------------------------
// Tracing and accounting
// ---------------------------------------------------------------------------

TEST(InlineJoin, TracerRecordsOneInlineEventAndTheChildsRunTime) {
  std::vector<trace::EventView> evs;
  ThreadStatus child, joiner;
  std::uint32_t child_id = 0, joiner_id = 0;
  {
    RuntimeOptions o = one_worker();
    o.trace.enabled = true;
    o.trace.ring_capacity = 1u << 12;
    Runtime rt(o);
    Thread j = rt.spawn([&] {
      joiner_id = detail::current_ult_or_null()->trace_id;
      Thread c = rt.spawn([] { busy_spin_ns(2'000'000); });
      child = c.join_status();
    });
    joiner = j.join_status();
    const metrics::Snapshot s = rt.metrics_snapshot();
    // Dispatch accounting still reconciles: the inlined child has none.
    EXPECT_EQ(child.acct.dispatches, 0u);
    EXPECT_EQ(s.sched_delay_ns.count(),
              child.acct.dispatches + joiner.acct.dispatches);
    EXPECT_EQ(s.sched_delay_ns.sum_ns,
              child.acct.sched_delay_ns + joiner.acct.sched_delay_ns);
    evs = trace::Collector::instance().snapshot_events();
  }
  int inlines = 0;
  for (const trace::EventView& e : evs) {
    if (e.type != trace::EventType::kUltInline) continue;
    ++inlines;
    child_id = e.ult;
    EXPECT_EQ(e.arg0, joiner_id);
  }
  EXPECT_EQ(inlines, 1);
  EXPECT_NE(child_id, 0u);
  EXPECT_NE(child_id, joiner_id);
  // The child's 2 ms spin is its run time, not its joiner's.
  EXPECT_GE(child.acct.run_ns, 2'000'000u);
  EXPECT_LT(joiner.acct.run_ns, child.acct.run_ns);
}

}  // namespace
}  // namespace lpt
