// Scheduler behaviour: work stealing, Algorithm 1 (packing), priority
// classes, and the thread-packing runtime API.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

TEST(WorkStealing, IdleWorkersStealQueuedThreads) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  // Pile every thread onto worker 0's queue; other workers must steal.
  std::atomic<int> done{0};
  std::set<int> ranks;
  Spinlock ranks_lock;
  std::vector<Thread> ts;
  for (int i = 0; i < 64; ++i) {
    ThreadAttrs attrs;
    attrs.home_pool = 0;
    ts.push_back(rt.spawn(
        [&] {
          busy_spin_ns(1'000'000);
          {
            SpinlockGuard g(ranks_lock);
            ranks.insert(this_thread::worker_rank());
          }
          done.fetch_add(1);
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(done.load(), 64);
  // On a 1-core host all 4 workers still timeshare; stealing should spread
  // execution across more than one worker rank.
  EXPECT_GT(ranks.size(), 1u);
}

TEST(WorkStealing, StealVictimSkipsSelfAndReachesEveryOther) {
  // Every steal attempt targets a remote queue: at 2 workers, drawing from
  // all n ranks would waste half of the attempts on the thief's own queue.
  Xoshiro256 rng(42);
  for (int n = 2; n <= 9; ++n) {
    for (int self = 0; self < n; ++self) {
      std::vector<int> hits(n, 0);
      for (int i = 0; i < 100 * n; ++i) {
        const int v = WorkStealingScheduler::steal_victim(self, n, rng);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, n);
        ASSERT_NE(v, self);
        ++hits[v];
      }
      for (int v = 0; v < n; ++v) {
        if (v == self) continue;
        EXPECT_GT(hits[v], 0) << "n=" << n << " self=" << self;
      }
    }
  }
}

TEST(PackingAlgorithm, PrivateBoundMatchesAlgorithmLine6) {
  // N_private = N_active * floor(N_total / N_active)
  EXPECT_EQ(PackingScheduler::private_bound(28, 28), 28);
  EXPECT_EQ(PackingScheduler::private_bound(28, 14), 28);
  EXPECT_EQ(PackingScheduler::private_bound(28, 5), 25);
  EXPECT_EQ(PackingScheduler::private_bound(28, 3), 27);
  EXPECT_EQ(PackingScheduler::private_bound(28, 1), 28);
  EXPECT_EQ(PackingScheduler::private_bound(8, 3), 6);
}

class PackingBoundProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PackingBoundProperty, BoundInvariants) {
  const int n_total = std::get<0>(GetParam());
  const int n_active = std::get<1>(GetParam());
  if (n_active > n_total) GTEST_SKIP();
  const int np = PackingScheduler::private_bound(n_total, n_active);
  // Invariants from Algorithm 1: N_private is a multiple of N_active, is at
  // most N_total, and shared pools number fewer than N_active... the paper's
  // claim is "always less than the number of workers": N_total - np < n_active.
  EXPECT_EQ(np % n_active, 0);
  EXPECT_LE(np, n_total);
  EXPECT_LT(n_total - np, n_active);
  EXPECT_GE(np, n_active);  // every active worker owns >= 1 private pool
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackingBoundProperty,
    ::testing::Combine(::testing::Values(4, 8, 12, 28, 56, 68),
                       ::testing::Values(1, 2, 3, 4, 5, 7, 13, 28)));

TEST(Packing, SetActiveWorkersParksAndResumes) {
  RuntimeOptions o;
  o.num_workers = 4;
  o.scheduler = SchedulerKind::Packing;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  Runtime rt(o);

  rt.set_active_workers(1);
  EXPECT_EQ(rt.active_workers(), 1);

  // All 8 preemptive threads must complete with only worker 0 active.
  std::atomic<int> done{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    attrs.home_pool = i % 4;
    ts.push_back(rt.spawn(
        [&] {
          busy_spin_ns(3'000'000);
          done.fetch_add(1);
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(done.load(), 8);

  rt.set_active_workers(4);
  EXPECT_EQ(rt.active_workers(), 4);
  Thread t = rt.spawn([] {});
  t.join();
}

TEST(Packing, ThreadsOnlyRunOnActiveWorkersWhilePacked) {
  RuntimeOptions o;
  o.num_workers = 4;
  o.scheduler = SchedulerKind::Packing;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  Runtime rt(o);
  rt.set_active_workers(2);
  // Give parked workers a moment to actually park.
  usleep(20'000);

  std::atomic<int> bad_rank{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    attrs.home_pool = i % 4;
    ts.push_back(rt.spawn(
        [&] {
          for (int k = 0; k < 20; ++k) {
            const int r = this_thread::worker_rank();
            if (r >= 2) bad_rank.fetch_add(1);
            this_thread::yield();
          }
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(bad_rank.load(), 0);
  rt.set_active_workers(4);
}

TEST(Priority, HighClassRunsBeforeLowClass) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  Runtime rt(o);

  std::vector<int> order;
  // Blocker occupies the single worker (nonpreemptive busy wait) while we
  // queue mixed-priority work behind it.
  std::atomic<bool> go{false};
  Thread blocker = rt.spawn([&] {
    while (!go.load()) { /* hold the worker */ }
  });
  usleep(10'000);  // let the blocker start
  ThreadAttrs low;
  low.priority = 1;
  ThreadAttrs high;
  high.priority = 0;
  Thread l1 = rt.spawn([&] { order.push_back(100); }, low);
  Thread h1 = rt.spawn([&] { order.push_back(1); }, high);
  Thread h2 = rt.spawn([&] { order.push_back(2); }, high);
  usleep(10'000);  // ensure all are enqueued before release
  go.store(true);
  blocker.join();
  l1.join();
  h1.join();
  h2.join();
  // Low-priority thread must come after all high-priority threads even
  // though it was enqueued first.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 100);
}

TEST(Priority, LowClassIsLifo) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  Runtime rt(o);
  std::vector<int> order;
  std::atomic<bool> go{false};
  // Hold the worker with a high-priority spinner so low threads queue up.
  Thread blocker = rt.spawn([&] {
    while (!go.load()) { /* nonpreemptive busy wait, blocks the worker */ }
  });
  usleep(10'000);  // let the blocker start
  ThreadAttrs low;
  low.priority = 1;
  low.home_pool = 0;
  Thread l1 = rt.spawn([&] { order.push_back(1); }, low);
  Thread l2 = rt.spawn([&] { order.push_back(2); }, low);
  Thread l3 = rt.spawn([&] { order.push_back(3); }, low);
  usleep(10'000);  // ensure all are enqueued before release
  go.store(true);
  blocker.join();
  l1.join();
  l2.join();
  l3.join();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));  // LIFO (§4.3 analysis queue)
}

TEST(Priority, AnalysisRunsOnlyWhenSimulationIdle) {
  // Mirror of the LAMMPS scenario: while high-priority "simulation" threads
  // keep arriving, the low-priority "analysis" thread only runs in the gap.
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  o.timer = TimerKind::ProcessChain;  // per-process timer as in §4.3
  o.interval_us = 1000;
  Runtime rt(o);

  std::atomic<int> sim_done{0};
  std::atomic<bool> analysis_ran{false};
  std::atomic<bool> sim_running_when_analysis_started{false};

  // Hold the worker with a high-priority spinner until every thread is
  // queued: otherwise the analysis thread may run before the external
  // thread has spawned the simulation threads.
  std::atomic<bool> go{false};
  Thread blocker = rt.spawn([&] {
    while (!go.load()) { /* nonpreemptive busy wait, blocks the worker */ }
  });
  ThreadAttrs analysis_attrs;
  analysis_attrs.priority = 1;
  analysis_attrs.preempt = Preempt::SignalYield;  // only analysis preemptive
  Thread analysis = rt.spawn(
      [&] {
        if (sim_done.load() < 3) sim_running_when_analysis_started.store(true);
        analysis_ran.store(true);
      },
      analysis_attrs);

  std::vector<Thread> sims;
  for (int i = 0; i < 3; ++i)
    sims.push_back(rt.spawn([&] {
      busy_spin_ns(2'000'000);
      sim_done.fetch_add(1);
    }));
  go.store(true);
  blocker.join();
  for (auto& t : sims) t.join();
  analysis.join();
  EXPECT_TRUE(analysis_ran.load());
  EXPECT_FALSE(sim_running_when_analysis_started.load());
}

TEST(CustomScheduler, FactoryOverridesBuiltin) {
  // A trivial global-FIFO scheduler through the factory hook.
  class GlobalFifo final : public Scheduler {
   public:
    void init(Runtime&) override {}
    ThreadCtl* pick(Worker&) override { return q_.pop_front(); }
    void enqueue(ThreadCtl* t, Worker*, EnqueueKind) override { q_.push_back(t); }
    bool has_work() const override { return !q_.empty(); }

   private:
    ThreadQueue q_;
  };

  RuntimeOptions o;
  o.num_workers = 2;
  o.scheduler_factory = [](Runtime&) -> std::unique_ptr<Scheduler> {
    return std::make_unique<GlobalFifo>();
  };
  Runtime rt(o);
  std::atomic<int> n{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 50; ++i) ts.push_back(rt.spawn([&] { n.fetch_add(1); }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(n.load(), 50);
}

}  // namespace
}  // namespace lpt
