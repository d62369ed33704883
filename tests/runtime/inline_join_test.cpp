// Inline join (DESIGN.md, "Inline join"): a ULT that joins a child which
// has never been dispatched runs it on its own stack as a plain call. The
// tests pin where the child runs (its frames lie in the joiner's stack, and
// no dispatch counts it), the stack footprint of fork/join trees and that
// they complete under stealing, packing, forced KLT replacement and
// shutdown, every rule that refuses a child (a refused child parks its
// joiner, which is woken through the queue), the exception firewall around
// it, cancellation of an inlined child and of a joiner in the middle of a
// chain of them, what the tracer records, and the scheduler's take.
#include <gtest/gtest.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "apps/linalg/team.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "prof/prof.hpp"
#include "runtime/internal.hpp"
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

/// fib(n) the classic fork/join way: spawn fib(n-1), recurse on fib(n-2)
/// inline, join. Every join targets the newest thread its worker queued.
long fib(Runtime& rt, int n) {
  if (n < 2) return n;
  long a = 0;
  Thread t = rt.spawn([&rt, &a, n] { a = fib(rt, n - 1); });
  const long b = fib(rt, n - 2);
  t.join();
  return a + b;
}

constexpr long kFib[] = {0,   1,   1,   2,   3,   5,    8,    13,   21,  34,
                         55,  89,  144, 233, 377, 610,  987,  1597, 2584};

// ---------------------------------------------------------------------------
// Fork/join trees
// ---------------------------------------------------------------------------

TEST(InlineJoin, OneWorkerFibTreeRunsInlineAndReusesItsStacks) {
  Runtime rt(one_worker());
  long r = 0;
  rt.spawn([&] { r = fib(rt, 15); }).join();
  EXPECT_EQ(r, kFib[15]);
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
    for (long v : r) EXPECT_EQ(v, kFib[14]);
  }
  EXPECT_EQ(rt.metrics_snapshot().ults_live, 0);
}

TEST(JoinHandoff, StolenSubtreesStillJoin) {
  // Two workers: idle ones steal subtrees from the front while the owner
  // runs its own inline; every join still completes exactly, and no thread
  // is left behind.
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  for (int round = 0; round < 5; ++round) {
    std::vector<long> r(4, 0);
    std::vector<Thread> roots;
    for (int i = 0; i < 4; ++i)
      roots.push_back(rt.spawn([&rt, &r, i] { r[i] = fib(rt, 14); }));
    for (auto& t : roots) t.join();
    for (long v : r) EXPECT_EQ(v, kFib[14]);
  }
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.steals, 0u);
  EXPECT_EQ(s.ults_live, 0);
}

TEST(JoinHandoff, PriorityHighClassTreeWalksDepthFirst) {
  // Within the high class the priority scheduler takes like work stealing,
  // so the tree runs inline and holds few stacks.
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  Runtime rt(o);
  long r = 0;
  rt.spawn([&] { r = fib(rt, 18); }).join();
  EXPECT_EQ(r, kFib[18]);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_LE(s.stacks_cached, 36u);
  EXPECT_EQ(s.ults_live, 0);
}

TEST(JoinHandoff, ShutdownRightAfterHandoffs) {
  // Every thread of the tree has finished before the runtime goes away,
  // and the teardown right after it does not hang.
  for (int i = 0; i < 20; ++i) {
    RuntimeOptions o;
    o.num_workers = 1 + i % 2;
    Runtime rt(o);
    long r = 0;
    rt.spawn([&] { r = fib(rt, 10); }).join();
    EXPECT_EQ(r, kFib[10]);
    EXPECT_EQ(rt.metrics_snapshot().ults_live, 0);
  }
}

void expect_trees_survive_packing(SchedulerKind kind) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.scheduler = kind;
  Runtime rt(o);
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0}, trees{0};
  // Drivers loop fork/join trees while the main thread packs the runtime
  // onto one worker and back.
  std::vector<Thread> drivers;
  for (int d = 0; d < 2; ++d) {
    ThreadAttrs a;
    a.home_pool = d;
    drivers.push_back(rt.spawn(
        [&] {
          while (!stop.load(std::memory_order_acquire)) {
            if (fib(rt, 11) != kFib[11]) wrong.fetch_add(1);
            trees.fetch_add(1);
          }
        },
        a));
  }
  for (int flip = 0; flip < 6; ++flip) {
    const int seen = trees.load();
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (trees.load() < seen + 3 && now_ns() < deadline) usleep(1000);
    rt.set_active_workers(flip % 2 == 0 ? 1 : 2);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : drivers) t.join();
  // Packed onto worker 0, nothing may run on worker 1 any more: trees whose
  // roots queue there are drained by worker 0 alone.
  rt.set_active_workers(1);
  usleep(20'000);  // let worker 1 reach its park
  std::atomic<int> on_parked{0};
  std::vector<Thread> probes;
  for (int i = 0; i < 8; ++i) {
    ThreadAttrs a;
    a.home_pool = i % 2;
    probes.push_back(rt.spawn(
        [&] {
          if (this_thread::worker_rank() != 0) on_parked.fetch_add(1);
          if (fib(rt, 8) != kFib[8]) wrong.fetch_add(1);
        },
        a));
  }
  for (auto& t : probes) t.join();
  rt.set_active_workers(2);
  EXPECT_EQ(rt.metrics_snapshot().ults_live, 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(trees.load(), 0);
  EXPECT_EQ(on_parked.load(), 0);
}

TEST(JoinHandoff, PackingSetActiveWorkersWhileTreesRun) {
  expect_trees_survive_packing(SchedulerKind::Packing);
}

TEST(JoinHandoff, WorkStealingSetActiveWorkersWhileTreesRun) {
  expect_trees_survive_packing(SchedulerKind::WorkStealing);
}

TEST(JoinHandoff, TreesSurviveForcedKltReplacement) {
  // The Remediation fixture's masked worker, inside a tree: the wedged ULT
  // is a child its parent joins (another technique, so not inline). The
  // watchdog replaces the host KLT; the child ends on the orphaned KLT, its
  // joiner is woken through the queue and finishes on the fresh host, where
  // further trees run inline as usual.
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

  std::atomic<bool> wedged{false}, victim_ran{false};
  long before = 0, after = 0;
  Thread root = rt.spawn([&] {
    before = fib(rt, 10);
    ThreadAttrs sy;
    sy.preempt = Preempt::SignalYield;
    Thread wedge = rt.spawn(
        [&] {
          sigset_t set, old;
          sigemptyset(&set);
          sigaddset(&set, signals::preempt_signo());
          pthread_sigmask(SIG_BLOCK, &set, &old);
          wedged.store(true, std::memory_order_release);
          const std::int64_t deadline = now_ns() + 10'000'000'000;
          while (!replaced.load(std::memory_order_acquire) &&
                 now_ns() < deadline)
            busy_spin_ns(100'000);
          pthread_sigmask(SIG_SETMASK, &old, nullptr);
        },
        sy);
    wedge.join();
    after = fib(rt, 10);
  });
  ASSERT_TRUE(wait_until(wedged, 5'000'000'000));
  Thread victim =
      rt.spawn([&] { victim_ran.store(true, std::memory_order_release); });
  EXPECT_TRUE(wait_until(replaced, 10'000'000'000))
      << "stalled worker never remediated";
  EXPECT_TRUE(wait_until(victim_ran, 5'000'000'000));
  root.join();
  victim.join();
  EXPECT_EQ(before, kFib[10]);
  EXPECT_EQ(after, kFib[10]);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GE(s.remediations_klt_replace, 1u);
  EXPECT_EQ(s.ults_live, 0);
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

TEST(JoinHandoff, ChildBoundToSuspendedKltIsNotTaken) {
  // One worker, no timer: the test preempts by hand. The child is
  // KLT-switch-preempted while the parent and a marker wait in the queue,
  // so at the join the queue reads [marker, child] with the child bound to
  // its parked KLT. It must stay queued: the marker runs first, and only
  // then does the child resume and see the marker's flag.
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;
  o.initial_spare_klts = 2;
  Runtime rt(o);

  Semaphore parent_go(0);
  std::atomic<bool> child_running{false}, marker_ran{false};
  std::atomic<int> child_saw_marker{-1};
  std::atomic<std::uint64_t> child_preemptions{0};
  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  Thread parent = rt.spawn([&] {
    Thread child = rt.spawn(
        [&] {
          child_running.store(true, std::memory_order_release);
          const std::int64_t deadline = now_ns() + 5'000'000'000;
          while (!marker_ran.load(std::memory_order_acquire) &&
                 now_ns() < deadline)
            busy_spin_ns(10'000);
          child_saw_marker.store(marker_ran.load() ? 1 : 0);
        },
        ks);
    parent_go.acquire();  // parks: the child runs
    child_preemptions.store(child.preemptions());
    child.join();
  });
  ASSERT_TRUE(wait_until(child_running, 5'000'000'000));
  parent_go.release();  // queue: [parent]
  Thread marker = rt.spawn(
      [&] { marker_ran.store(true, std::memory_order_release); });
  // queue: [parent, marker]; preempting the child appends it, bound.
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (rt.metrics_snapshot().workers[0].preempt_klt_switch == 0 &&
         now_ns() < deadline) {
    signals::send_preempt(rt.worker(0), -1);
    usleep(1000);
  }
  parent.join();
  marker.join();
  EXPECT_GE(child_preemptions.load(), 1u);
  EXPECT_EQ(child_saw_marker.load(), 1)
      << "the bound child ran before the marker queued ahead of it";
}

TEST(JoinHandoff, ChildQueuedOnAnotherWorkerIsStolenNotTaken) {
  // Both workers are pinned down by spinners. The child is queued on worker
  // X, its joiner on worker Y; Y is then freed. The joiner finds the child
  // in X's queue, not its own, so it parks and Y steals the child.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::None;
  Runtime rt(o);

  std::atomic<int> spin_rank[2] = {-1, -1};
  std::atomic<bool> release[2] = {false, false};
  std::vector<Thread> spinners;
  for (int i = 0; i < 2; ++i)
    spinners.push_back(rt.spawn([&, i] {
      spin_rank[i].store(this_thread::worker_rank());
      while (!release[i].load(std::memory_order_acquire)) busy_spin_ns(10'000);
    }));
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while ((spin_rank[0].load() < 0 || spin_rank[1].load() < 0) &&
         now_ns() < deadline)
    usleep(1000);
  ASSERT_GE(spin_rank[0].load(), 0);
  ASSERT_GE(spin_rank[1].load(), 0);
  const int x = spin_rank[0].load();
  const int y = spin_rank[1].load();
  ASSERT_NE(x, y);

  std::atomic<int> child_rank{-1};
  ThreadAttrs on_x;
  on_x.home_pool = x;  // an external spawn queues on its home pool
  Thread child =
      rt.spawn([&] { child_rank.store(this_thread::worker_rank()); }, on_x);
  ThreadAttrs on_y;
  on_y.home_pool = y;
  Thread joiner = rt.spawn([&] { child.join(); }, on_y);

  const std::uint64_t steals_before = rt.metrics_snapshot().workers[y].steals;
  release[1].store(true, std::memory_order_release);  // frees worker y
  joiner.join();
  EXPECT_EQ(child_rank.load(), y);
  EXPECT_GT(rt.metrics_snapshot().workers[y].steals, steals_before)
      << "the child reached worker y without a steal";
  release[0].store(true, std::memory_order_release);
  for (auto& t : spinners) t.join();
}

TEST(JoinHandoff, RunningStolenChildJoinsThroughTheQueue) {
  // The joiner keeps its worker busy until the other worker has stolen and
  // started the child, then joins a running child: nothing to take, and the
  // child's exit wakes the joiner the ordinary way.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::None;
  Runtime rt(o);
  std::atomic<bool> child_started{false}, joining{false};
  std::atomic<int> child_rank{-1}, joiner_rank{-1};
  Thread parent = rt.spawn([&] {
    Thread child = rt.spawn([&] {
      child_rank.store(this_thread::worker_rank());
      child_started.store(true, std::memory_order_release);
      const std::int64_t deadline = now_ns() + 5'000'000'000;
      while (!joining.load(std::memory_order_acquire) && now_ns() < deadline)
        busy_spin_ns(10'000);
      busy_spin_ns(1'000'000);  // still running when the join parks
    });
    joiner_rank.store(this_thread::worker_rank());
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (!child_started.load(std::memory_order_acquire) &&
           now_ns() < deadline)
      busy_spin_ns(10'000);
    joining.store(true, std::memory_order_release);
    child.join();
  });
  parent.join();
  EXPECT_TRUE(child_started.load());
  EXPECT_NE(child_rank.load(), joiner_rank.load());
}

TEST(JoinHandoff, QueuedHighClassThreadRunsBeforeALowClassJoinersChild) {
  // Two-class priority (§4.3), one worker, no ticks: a low-class parent
  // queues a low-class child, then a high-class thread, then joins the
  // child. The high-class thread must run first; a take would have run the
  // child inline in the low-class parent's place.
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::None;
  o.scheduler = SchedulerKind::Priority;
  Runtime rt(o);
  std::atomic<int> seq{0}, high_at{-1}, child_at{-1};
  ThreadAttrs low;
  low.priority = 1;
  ThreadAttrs high;
  high.priority = 0;
  Thread parent = rt.spawn(
      [&] {
        Thread child = rt.spawn([&] { child_at.store(seq.fetch_add(1)); }, low);
        Thread h = rt.spawn([&] { high_at.store(seq.fetch_add(1)); }, high);
        child.join();
        h.join();
      },
      low);
  parent.join();
  EXPECT_EQ(high_at.load(), 0);
  EXPECT_EQ(child_at.load(), 1);
}

TEST(InlineJoin, TeamMemberThatYieldedInItsBarrierIsJoinedThroughTheQueue) {
  // cholesky_yield's inner team, one worker: rank 0 yields before its
  // share, so the member runs first, arrives and yields in the spin-yield
  // barrier. At the join it is the newest thread of the queue again, but it
  // has run: the join leaves it queued, parks, and is woken when it ends.
  Runtime rt(one_worker());
  std::atomic<int> shares{0};
  rt.spawn([&] {
      apps::TeamOptions to;
      to.width = 2;
      to.wait = apps::TeamWait::kSpinYield;
      apps::team_parallel(to, [&](int rank) {
        if (rank == 0) this_thread::yield();  // the member runs first
        shares.fetch_add(1);
      });
    })
      .join();
  EXPECT_EQ(shares.load(), 2);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.yields, 2u);  // rank 0's, and the member's in the barrier
  EXPECT_EQ(s.blocks, 1u);  // the join parked
  EXPECT_EQ(s.dispatches, 5u);  // joiner 3, member 2: nothing ran inline
  EXPECT_EQ(s.ults_live, 0);
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

// A joiner that holds a lock the child needs: inlined, the child's wait
// would be its joiner's own, a self-deadlock of the joiner. Refused, the
// child parks on the lock and the detector sees the 2-cycle child -> joiner
// and breaks the child, its youngest member, so the joiner goes on.
TEST(InlineJoin, RefusedWhileTheJoinerHoldsALock) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.remediation = true;
  std::atomic<int> cycle_len{0};
  std::atomic<std::uint32_t> victim{0};
  o.watchdog_callback = [&](const WatchdogReport& r) {
    if (r.kind == WatchdogReport::Kind::kDeadlock &&
        r.remediation == RemediationKind::kDeadlockBreak) {
      cycle_len.store(r.cycle_len, std::memory_order_release);
      victim.store(r.victim, std::memory_order_release);
    }
  };
  Runtime rt(o);
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Mutex m;
  Probe p;
  std::atomic<std::uint32_t> child_id{0};
  std::atomic<bool> went_on{false};
  ThreadStatus child;
  Thread joiner = rt.spawn(
      [&] {
        p.joiner = current_stack();
        m.lock();
        Thread c = rt.spawn(
            [&] {
              p.mark();
              child_id.store(detail::current_ult_or_null()->trace_id);
              m.lock();
              m.unlock();
            },
            sy);
        child = c.join_status();
        went_on.store(true);
        m.unlock();
      },
      sy);
  EXPECT_EQ(joiner.join_status().fault.kind, FaultKind::kNone);
  EXPECT_TRUE(went_on.load()) << "the joiner never got past its join";
  EXPECT_FALSE(p.inlined());
  EXPECT_EQ(child.fault.kind, FaultKind::kDeadlock);
  EXPECT_EQ(cycle_len.load(), 2);
  EXPECT_EQ(victim.load(), child_id.load());
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.deadlock_cycles, 1u);
  EXPECT_EQ(s.self_deadlocks, 0u);
  EXPECT_EQ(s.remediations_deadlock_break, 1u);
  EXPECT_EQ(s.abandoned_locks, 0u);
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
  std::uint64_t wall_ns = 0;
  {
    RuntimeOptions o = one_worker();
    o.trace.enabled = true;
    o.trace.ring_capacity = 1u << 12;
    Runtime rt(o);
    const std::int64_t start = now_ns();
    Thread j = rt.spawn([&] {
      joiner_id = detail::current_ult_or_null()->trace_id;
      Thread c = rt.spawn([] { busy_spin_ns(2'000'000); });
      child = c.join_status();
    });
    joiner = j.join_status();
    wall_ns = static_cast<std::uint64_t>(now_ns() - start);
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
  // The child's 2 ms spin is its run time, charged once: to the child, not
  // also to its joiner. Both ran within the wall time the main thread saw.
  EXPECT_GE(child.acct.run_ns, 2'000'000u);
  EXPECT_LE(joiner.acct.run_ns + child.acct.run_ns, wall_ns);
}

struct AcctSum {
  std::atomic<std::uint64_t> dispatches{0};
  std::atomic<std::uint64_t> delay_ns{0};
  std::atomic<std::uint64_t> blocked_ns{0};
  void add(const ThreadStatus& st) {
    dispatches.fetch_add(st.acct.dispatches);
    delay_ns.fetch_add(st.acct.sched_delay_ns);
    blocked_ns.fetch_add(st.acct.blocked_ns);
  }
};

/// Each child runs under the other technique than its parent's, which keeps
/// it from being run inline, so every join that finds its child unfinished
/// parks. With no timer, no thread is ever preempted.
long fib_acct(Runtime& rt, int n, AcctSum& sum,
              Preempt mine = Preempt::None) {
  if (n < 2) return n;
  long a = 0;
  ThreadAttrs other;
  other.preempt =
      mine == Preempt::None ? Preempt::SignalYield : Preempt::None;
  Thread t = rt.spawn(
      [&rt, &a, &sum, n, p = other.preempt] {
        a = fib_acct(rt, n - 1, sum, p);
      },
      other);
  const long b = fib_acct(rt, n - 2, sum, mine);
  sum.add(t.join_status());
  return a + b;
}

TEST(InlineJoin, RefusedChildrensJoinWakesReconcileExactly) {
  std::vector<trace::EventView> evs;
  AcctSum sum;
  {
    RuntimeOptions o;
    o.num_workers = 1;
    o.trace.enabled = true;
    o.trace.ring_capacity = 1u << 16;
    Runtime rt(o);
    long r = 0;
    Thread root = rt.spawn([&] { r = fib_acct(rt, 10, sum); });
    sum.add(root.join_status());
    EXPECT_EQ(r, kFib[10]);
    const metrics::Snapshot st = rt.metrics_snapshot();
    ASSERT_EQ(st.trace_dropped, 0u);
    // Exact reconciliation: every dispatch consumed one ready stamp into the
    // delay histogram.
    EXPECT_EQ(st.sched_delay_ns.count(), sum.dispatches.load());
    EXPECT_EQ(st.sched_delay_ns.sum_ns, sum.delay_ns.load());
    EXPECT_GT(sum.blocked_ns.load(), 0u);  // joiners' parks were closed
    evs = trace::Collector::instance().snapshot_events();
  }
  // Walk the log: every dispatch has a ready event since its last dispatch,
  // and every join wake names an exited ULT as its waker.
  std::map<std::uint32_t, bool> ready, exited;
  std::size_t blocks = 0, join_wakes = 0;
  for (const trace::EventView& e : evs) {
    switch (e.type) {
      case trace::EventType::kUltWake:
        ready[e.ult] = true;
        if (e.arg1 == static_cast<std::uint64_t>(prof::WaitKind::kJoin)) {
          ++join_wakes;
          EXPECT_TRUE(exited[static_cast<std::uint32_t>(e.arg0)])
              << "join wake of ULT " << e.ult << " names a live waker";
        }
        break;
      case trace::EventType::kUltYield:
        ready[e.ult] = true;
        break;
      case trace::EventType::kUltBlock:
        ++blocks;
        break;
      case trace::EventType::kUltExit:
        exited[e.ult] = true;
        break;
      case trace::EventType::kUltDispatch:
        EXPECT_TRUE(ready[e.ult]) << "dispatch of ULT " << e.ult
                                  << " with no prior ready event";
        ready[e.ult] = false;
        break;
      default:
        break;
    }
  }
  // Every park in this tree is a join, and each was woken by its child.
  EXPECT_EQ(join_wakes, blocks);
  EXPECT_GT(blocks, 0u);
}

// ---------------------------------------------------------------------------
// The scheduler hooks, on queues no worker picks from
// ---------------------------------------------------------------------------

class TakeForJoin : public ::testing::Test {
 protected:
  TakeForJoin() : rt_(options()) {
    w_[0].rank = 0;
    w_[1].rank = 1;
  }
  static RuntimeOptions options() {
    RuntimeOptions o;
    o.num_workers = 2;
    o.watchdog = false;
    return o;
  }
  Runtime rt_;  ///< sizes the schedulers under test (init)
  Worker w_[2];
  ThreadCtl a_, b_, c_;
};

TEST_F(TakeForJoin, WorkStealingTakesOnlyTheBackOfTheOwnQueue) {
  WorkStealingScheduler s;
  s.init(rt_);
  s.enqueue(&a_, &w_[0], EnqueueKind::kSpawn);
  s.enqueue(&b_, &w_[0], EnqueueKind::kSpawn);
  s.enqueue(&c_, &w_[1], EnqueueKind::kSpawn);
  EXPECT_FALSE(s.take_for_join(w_[0], &a_));  // not the back
  EXPECT_FALSE(s.take_for_join(w_[0], &c_));  // another worker's queue
  EXPECT_TRUE(s.take_for_join(w_[0], &b_));
  EXPECT_EQ(s.queue_depth(0), 1);
  EXPECT_FALSE(s.take_for_join(w_[0], &b_));  // already out
  EXPECT_TRUE(s.take_for_join(w_[0], &a_));   // the back now
  EXPECT_TRUE(s.take_for_join(w_[1], &c_));
  EXPECT_FALSE(s.has_work());
}

TEST_F(TakeForJoin, PriorityTakesOnlyWhenJoinerAndChildAreHighClass) {
  PriorityScheduler s;
  s.init(rt_);
  ThreadCtl high_joiner, low_joiner;
  high_joiner.priority = 0;
  low_joiner.priority = 1;
  a_.priority = 0;
  b_.priority = 1;
  s.enqueue(&a_, &w_[0], EnqueueKind::kSpawn);
  s.enqueue(&b_, &w_[0], EnqueueKind::kSpawn);
  w_[0].current_ult.store(&high_joiner);
  EXPECT_FALSE(s.take_for_join(w_[0], &b_));  // low child, high joiner
  w_[0].current_ult.store(&low_joiner);
  EXPECT_FALSE(s.take_for_join(w_[0], &a_));  // high child, low joiner
  EXPECT_FALSE(s.take_for_join(w_[0], &b_));  // low child, low joiner
  w_[0].current_ult.store(&high_joiner);
  EXPECT_TRUE(s.take_for_join(w_[0], &a_));   // back of the high class
  w_[0].current_ult.store(nullptr);
  EXPECT_EQ(s.pick(w_[0]), &b_);
  EXPECT_FALSE(s.has_work());
}

TEST_F(TakeForJoin, DispatchedChildIsRefusedInPlace) {
  // A child that ran and was queued again (a yield here; a KLT-switch
  // preemption also binds it to its parked KLT) has frames on its own stack.
  WorkStealingScheduler s;
  s.init(rt_);
  s.enqueue(&a_, &w_[0], EnqueueKind::kSpawn);
  s.enqueue(&b_, &w_[0], EnqueueKind::kYield);
  b_.dispatched = true;
  EXPECT_FALSE(s.take_for_join(w_[0], &b_));
  EXPECT_EQ(s.queue_depth(0), 2);
  EXPECT_EQ(s.pick(w_[0]), &a_);  // order untouched
  EXPECT_EQ(s.pick(w_[0]), &b_);
}

TEST_F(TakeForJoin, PackingNeverTakes) {
  PackingScheduler s;
  s.init(rt_);
  a_.home_pool = 0;
  s.enqueue(&a_, &w_[0], EnqueueKind::kSpawn);
  EXPECT_FALSE(s.take_for_join(w_[0], &a_));
  EXPECT_EQ(s.pick(w_[0]), &a_);
}

}  // namespace
}  // namespace lpt
