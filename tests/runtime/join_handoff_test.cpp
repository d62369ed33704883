// Join handoff (DESIGN.md, "Join handoff"): a ULT that joins a child still
// waiting at the back of its own worker's queue runs that child next, and
// the finished child hands the worker straight back to its lone joiner. The
// tests pin the rule (what is taken and what never is), the depth-first
// stack footprint it buys, that the one-slot Worker::run_next never strands
// a thread (shutdown, packing, forced KLT replacement), and that a handoff
// leaves the same causal trace as a queued wake.
#include <gtest/gtest.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <map>
#include <vector>

#include "common/time.hpp"
#include "common/trace.hpp"
#include "prof/prof.hpp"
#include "runtime/lpt.hpp"
#include "runtime/signals.hpp"

namespace lpt {
namespace {

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

bool wait_until(const std::atomic<bool>& flag, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (!flag.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    usleep(1000);
  }
  return true;
}

// ---------------------------------------------------------------------------
// The depth-first walk
// ---------------------------------------------------------------------------

TEST(JoinHandoff, OneWorkerFibTreeKeepsOnlyItsDepthOfStacksLive) {
  // Breadth-first (every join parks, the worker runs the oldest queued
  // ULT) kept 2,243 stacks live at once for this tree; a depth-first walk
  // needs about one per level.
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  long r = 0;
  rt.spawn([&] { r = fib(rt, 18); }).join();
  EXPECT_EQ(r, kFib[18]);
  EXPECT_LE(rt.metrics_snapshot().stacks_cached, 36u);
}

TEST(JoinHandoff, StolenSubtreesStillJoin) {
  // Two workers: idle ones steal subtrees from the front while the owner
  // walks its own depth first; every join still completes exactly.
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
  std::uint64_t steals = 0;
  for (const auto& w : rt.metrics_snapshot().workers) steals += w.steals;
  EXPECT_GT(steals, 0u);
}

// ---------------------------------------------------------------------------
// What is never taken
// ---------------------------------------------------------------------------

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
  // child next and handed the worker back to the low-class parent.
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

TEST(JoinHandoff, PriorityHighClassTreeWalksDepthFirst) {
  // Within the high class the priority scheduler takes like work stealing.
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  Runtime rt(o);
  long r = 0;
  rt.spawn([&] { r = fib(rt, 18); }).join();
  EXPECT_EQ(r, kFib[18]);
  EXPECT_LE(rt.metrics_snapshot().stacks_cached, 36u);
}

// ---------------------------------------------------------------------------
// Worker::run_next never strands a thread
// ---------------------------------------------------------------------------

TEST(JoinHandoff, ShutdownRightAfterHandoffs) {
  // A worker leaves its loop only with an empty slot, so a handoff left in
  // one would hang the shutdown here instead of vanishing.
  for (int i = 0; i < 20; ++i) {
    RuntimeOptions o;
    o.num_workers = 1 + i % 2;
    Runtime rt(o);
    long r = 0;
    rt.spawn([&] { r = fib(rt, 10); }).join();
    EXPECT_EQ(r, kFib[10]);
  }
}

TEST(JoinHandoff, ParkingWorkerHandsItsSlotOn) {
  // A joiner on worker 1 takes its child into worker 1's slot just after
  // set_active_workers(1): worker 1 parks at the join, so it must pass the
  // child on rather than keep it until it is woken again.
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
  const int on_one = spin_rank[0].load() == 1 ? 0 : 1;  // spinner on worker 1

  std::atomic<bool> ready{false}, go{false};
  std::atomic<int> joiner_rank{-1}, child_rank{-1};
  ThreadAttrs a;
  a.home_pool = 1;
  // Another technique than the joiner's keeps the child from being run
  // inline (DESIGN.md, "Inline join"); with no timer it is never preempted.
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread joiner = rt.spawn(
      [&] {
        joiner_rank.store(this_thread::worker_rank());
        Thread child = rt.spawn(
            [&] { child_rank.store(this_thread::worker_rank()); }, sy);
        ready.store(true, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) busy_spin_ns(10'000);
        child.join();  // takes the child, then parks on a deactivated worker
      },
      a);
  release[on_one].store(true, std::memory_order_release);  // worker 1 -> joiner
  ASSERT_TRUE(wait_until(ready, 5'000'000'000));
  rt.set_active_workers(1);
  go.store(true, std::memory_order_release);
  release[1 - on_one].store(true, std::memory_order_release);  // frees worker 0
  const bool joined = joiner.join_for(std::chrono::seconds(5));
  EXPECT_TRUE(joined) << "the child stayed in the parked worker's slot";
  rt.set_active_workers(2);
  if (!joined) joiner.join();
  for (auto& t : spinners) t.join();
  EXPECT_EQ(joiner_rank.load(), 1);
  EXPECT_EQ(child_rank.load(), 0);
}

void expect_trees_survive_packing(SchedulerKind kind) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.scheduler = kind;
  Runtime rt(o);
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0}, trees{0};
  // Drivers loop fork/join trees while the main thread packs the runtime
  // onto one worker and back. A worker that parks with a handoff pending
  // re-enqueues it for the active one.
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
  // is a child its parent's join took. The watchdog replaces the host KLT;
  // the child ends on the orphaned KLT (no worker to hand back), so its
  // joiner is woken through the queue and finishes on the fresh host, where
  // further handoffs run as usual.
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
  EXPECT_GE(rt.metrics_snapshot().remediations_klt_replace, 1u);
}

// ---------------------------------------------------------------------------
// Causal trace: a handoff is a wake like any other
// ---------------------------------------------------------------------------

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
/// it from being run inline (DESIGN.md, "Inline join"), so every join takes
/// the handoff. With no timer, no thread is ever preempted.
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

TEST(JoinHandoff, HandoffEmitsTheWakeEdgeAndReadyStampOfAQueuedWake) {
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
    // Exact reconciliation, as for queued wakes: every dispatch (handoffs
    // included) consumed one ready stamp into the delay histogram.
    EXPECT_EQ(st.sched_delay_ns.count(), sum.dispatches.load());
    EXPECT_EQ(st.sched_delay_ns.sum_ns, sum.delay_ns.load());
    EXPECT_GT(sum.blocked_ns.load(), 0u);  // joiners' parks were closed
    evs = trace::Collector::instance().snapshot_events();
  }
  // Walk the log: every dispatch has a ready event since its last dispatch;
  // every join wake names an exited ULT as its waker; and on one worker a
  // handed-back joiner is the very next dispatch after its wake edge.
  std::map<std::uint32_t, bool> ready, exited;
  std::size_t blocks = 0, join_wakes = 0, handoffs = 0;
  std::uint32_t last_join_woken = 0;
  for (const trace::EventView& e : evs) {
    switch (e.type) {
      case trace::EventType::kUltWake:
        ready[e.ult] = true;
        if (e.arg1 == static_cast<std::uint64_t>(prof::WaitKind::kJoin)) {
          ++join_wakes;
          EXPECT_TRUE(exited[static_cast<std::uint32_t>(e.arg0)])
              << "join wake of ULT " << e.ult << " names a live waker";
          last_join_woken = e.ult;
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
        if (e.ult == last_join_woken) ++handoffs;
        last_join_woken = 0;
        break;
      default:
        break;
    }
  }
  // Every park in this tree is a join, and every join parked (the child
  // was always taken first, so it had not finished yet).
  EXPECT_EQ(join_wakes, blocks);
  EXPECT_GT(blocks, 0u);
  EXPECT_EQ(handoffs, join_wakes);
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

TEST_F(TakeForJoin, ChildBoundToAParkedKltIsRefusedInPlace) {
  // bound_klt is only compared with nullptr here, never followed.
  alignas(64) static char fake_klt;
  WorkStealingScheduler s;
  s.init(rt_);
  s.enqueue(&a_, &w_[0], EnqueueKind::kSpawn);
  s.enqueue(&b_, &w_[0], EnqueueKind::kPreempted);
  b_.bound_klt = reinterpret_cast<KltCtl*>(&fake_klt);
  EXPECT_FALSE(s.take_for_join(w_[0], &b_));
  EXPECT_EQ(s.queue_depth(0), 2);
  EXPECT_EQ(s.pick(w_[0]), &a_);  // order untouched
  EXPECT_EQ(s.pick(w_[0]), &b_);
  b_.bound_klt = nullptr;
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
