#include <gtest/gtest.h>

#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

TEST(RuntimeStats, CountsScheduledThreads) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  std::vector<Thread> ts;
  for (int i = 0; i < 20; ++i) ts.push_back(rt.spawn([] {}));
  for (auto& t : ts) t.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  ASSERT_EQ(s.workers.size(), 2u);
  std::uint64_t dispatches = 0;
  for (const auto& w : s.workers) dispatches += w.dispatches;
  EXPECT_GE(dispatches, 20u);  // joins may add blocked/unblocked dispatches
  EXPECT_EQ(s.klts_created, 2u);
  EXPECT_EQ(s.klts_on_demand, 0u);
  EXPECT_EQ(s.active_workers, 2);
}

TEST(RuntimeStats, DistinguishesPreemptionTechniques) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  Runtime rt(o);
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  Thread a = rt.spawn([] { busy_spin_ns(15'000'000); }, sy);
  a.join();
  Thread b = rt.spawn([] { busy_spin_ns(15'000'000); }, ks);
  b.join();

  const metrics::Snapshot s = rt.metrics_snapshot();
  std::uint64_t total_sy = 0, total_ks = 0;
  for (const auto& w : s.workers) {
    total_sy += w.preempt_signal_yield;
    total_ks += w.preempt_klt_switch;
  }
  EXPECT_GT(total_sy, 0u);
  EXPECT_GT(total_ks, 0u);
  EXPECT_GT(s.klts_on_demand, 0u);  // KLT-switching had to create spares
  EXPECT_EQ(total_sy + total_ks, rt.total_preemptions());
}

TEST(RuntimeStats, ReflectsPacking) {
  RuntimeOptions o;
  o.num_workers = 3;
  o.scheduler = SchedulerKind::Packing;
  Runtime rt(o);
  rt.set_active_workers(1);
  // Give the to-be-parked workers a moment to reach their parking point.
  Thread t = rt.spawn([] { busy_spin_ns(5'000'000); });
  t.join();
  usleep(20'000);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.active_workers, 1);
  int parked = 0;
  for (const auto& w : s.workers) parked += w.parked ? 1 : 0;
  EXPECT_EQ(parked, 2);
  rt.set_active_workers(3);
}

TEST(RuntimeStats, StealsCountedUnderImbalance) {
  RuntimeOptions o;
  o.num_workers = 3;
  Runtime rt(o);
  std::vector<Thread> ts;
  for (int i = 0; i < 30; ++i) {
    ThreadAttrs attrs;
    attrs.home_pool = 0;  // pile everything on one queue
    ts.push_back(rt.spawn([] { busy_spin_ns(500'000); }, attrs));
  }
  for (auto& t : ts) t.join();
  const metrics::Snapshot s = rt.metrics_snapshot();
  std::uint64_t steals = 0;
  for (const auto& w : s.workers) steals += w.steals;
  EXPECT_GT(steals, 0u);
}

}  // namespace
}  // namespace lpt
