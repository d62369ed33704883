#include "apps/linalg/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/spinlock.hpp"
#include "common/sys.hpp"
#include "common/time.hpp"

namespace lpt::apps {
namespace {

TEST(TeamParallel, EveryRankRunsExactlyOnce) {
  RuntimeOptions o;
  o.num_workers = 3;
  Runtime rt(o);
  Thread t = rt.spawn([&] {
    std::set<int> ranks;
    Spinlock lock;
    TeamOptions to;
    to.width = 5;
    team_parallel(to, [&](int rank) {
      SpinlockGuard g(lock);
      EXPECT_TRUE(ranks.insert(rank).second) << "rank ran twice";
    });
    EXPECT_EQ(ranks.size(), 5u);
    EXPECT_EQ(*ranks.begin(), 0);
    EXPECT_EQ(*ranks.rbegin(), 4);
  });
  t.join();
}

TEST(TeamParallel, WidthOneRunsInline) {
  Runtime rt{RuntimeOptions{}};
  Thread t = rt.spawn([&] {
    int calls = 0;
    TeamOptions to;
    to.width = 1;
    team_parallel(to, [&](int rank) {
      EXPECT_EQ(rank, 0);
      ++calls;
    });
    EXPECT_EQ(calls, 1);
  });
  t.join();
}

TEST(TeamParallel, BarrierHoldsBackEarlyFinishers) {
  // No member may observe the join complete before every member arrived.
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Thread t = rt.spawn([&] {
    std::atomic<int> arrived{0};
    TeamOptions to;
    to.width = 4;
    to.wait = TeamWait::kSpinYield;
    team_parallel(to, [&](int rank) {
      busy_spin_ns(rank * 1'000'000);  // staggered work
      arrived.fetch_add(1);
    });
    // team_parallel returned: every member must have arrived.
    EXPECT_EQ(arrived.load(), 4);
  });
  t.join();
}

TEST(TeamParallel, SpinBarrierWithPreemptiveMembersOnOneWorker) {
  // The faithful MKL mode: pure spin barrier is safe iff members are
  // preemptive — even with every member multiplexed onto a single worker.
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  Runtime rt(o);
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  Thread t = rt.spawn(
      [&] {
        TeamOptions to;
        to.width = 3;
        to.wait = TeamWait::kSpin;
        to.preempt = Preempt::KltSwitch;
        std::atomic<int> ran{0};
        team_parallel(to, [&](int) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 3);
      },
      attrs);
  t.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}

TEST(TeamParallel, NestedTeams) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Thread t = rt.spawn([&] {
    std::atomic<int> leaf{0};
    TeamOptions outer;
    outer.width = 2;
    team_parallel(outer, [&](int) {
      TeamOptions inner;
      inner.width = 3;
      team_parallel(inner, [&](int) { leaf.fetch_add(1); });
    });
    EXPECT_EQ(leaf.load(), 6);
  });
  t.join();
}

TEST(TeamParallel, BlockingWaitVariant) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Thread t = rt.spawn([&] {
    std::atomic<int> ran{0};
    TeamOptions to;
    to.width = 4;
    to.wait = TeamWait::kBlocking;
    team_parallel(to, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
  });
  t.join();
}

TEST(TeamParallel, FailedMemberSpawnsRunInTheCaller) {
  // With every new stack refused, members that cannot be spawned run in the
  // caller, and the barrier still releases under each wait policy.
  for (TeamWait wait : {TeamWait::kSpin, TeamWait::kSpinYield, TeamWait::kBlocking}) {
    RuntimeOptions o;
    o.num_workers = 2;
    Runtime rt(o);
    Thread t = rt.spawn([&] {
      ASSERT_TRUE(sys::configure_faults("mmap:every=1"));
      std::atomic<int> ran{0};
      TeamOptions to;
      to.width = 4;
      to.wait = wait;
      team_parallel(to, [&](int) { ran.fetch_add(1); });
      EXPECT_EQ(ran.load(), 4);
    });
    t.join();
    sys::reset_faults();
    EXPECT_GT(rt.metrics_snapshot().spawn_stack_failures, 0u);
  }
}

}  // namespace
}  // namespace lpt::apps
