#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <set>
#include <vector>

#include "runtime/lpt.hpp"
#include "runtime/worker.hpp"

namespace lpt {
namespace {

TEST(RuntimeBasic, StartStopNoThreads) {
  RuntimeOptions opts;
  opts.num_workers = 2;
  Runtime rt(opts);
  EXPECT_EQ(rt.num_workers(), 2);
  EXPECT_EQ(rt.active_workers(), 2);
}

TEST(RuntimeBasic, CurrentPointsToActiveRuntime) {
  EXPECT_EQ(Runtime::current(), nullptr);
  {
    Runtime rt{RuntimeOptions{}};
    EXPECT_EQ(Runtime::current(), &rt);
  }
  EXPECT_EQ(Runtime::current(), nullptr);
}

TEST(RuntimeBasic, SpawnJoinSingle) {
  Runtime rt{RuntimeOptions{}};
  std::atomic<int> ran{0};
  Thread t = rt.spawn([&] { ran.store(1); });
  t.join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(t.joinable());
}

TEST(RuntimeBasic, SpawnJoinMany) {
  RuntimeOptions opts;
  opts.num_workers = 4;
  Runtime rt(opts);
  constexpr int kN = 200;
  std::atomic<int> sum{0};
  std::vector<Thread> ts;
  ts.reserve(kN);
  for (int i = 0; i < kN; ++i) ts.push_back(rt.spawn([&, i] { sum.fetch_add(i); }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(RuntimeBasic, HandleDestructorJoins) {
  Runtime rt{RuntimeOptions{}};
  std::atomic<bool> ran{false};
  { Thread t = rt.spawn([&] { ran.store(true); }); }
  EXPECT_TRUE(ran.load());
}

TEST(RuntimeBasic, DetachedThreadRuns) {
  Runtime rt{RuntimeOptions{}};
  FutexEvent done;
  rt.spawn_detached([&] { done.set(); });
  done.wait();
  SUCCEED();
}

TEST(RuntimeBasic, SpawnFromInsideUlt) {
  RuntimeOptions opts;
  opts.num_workers = 2;
  Runtime rt(opts);
  std::atomic<int> inner_ran{0};
  Thread outer = rt.spawn([&] {
    EXPECT_TRUE(this_thread::in_ult());
    std::vector<Thread> inner;
    for (int i = 0; i < 10; ++i)
      inner.push_back(Runtime::current()->spawn([&] { inner_ran.fetch_add(1); }));
    for (auto& t : inner) t.join();
  });
  outer.join();
  EXPECT_EQ(inner_ran.load(), 10);
}

TEST(RuntimeBasic, JoinFromUltBlocksCooperatively) {
  RuntimeOptions opts;
  opts.num_workers = 1;  // single worker forces cooperative interleaving
  Runtime rt(opts);
  std::vector<int> order;
  Thread a = rt.spawn([&] {
    Thread b = Runtime::current()->spawn([&] { order.push_back(1); });
    b.join();
    order.push_back(2);
  });
  a.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(RuntimeBasic, YieldInterleavesOnSingleWorker) {
  RuntimeOptions opts;
  opts.num_workers = 1;
  Runtime rt(opts);
  std::vector<int> trace;
  // Gate both ULTs until both are in the run queue: a could otherwise run
  // all its yields before the external thread spawns b. a waits for b's
  // spawn, b for a's release, so a's first push precedes b's.
  std::atomic<bool> b_spawned{false}, a_ready{false};
  Thread a = rt.spawn([&] {
    while (!b_spawned.load()) this_thread::yield();
    a_ready.store(true);
    trace.push_back(0);
    this_thread::yield();
    trace.push_back(2);
    this_thread::yield();
    trace.push_back(4);
  });
  Thread b = rt.spawn([&] {
    while (!a_ready.load()) this_thread::yield();
    trace.push_back(1);
    this_thread::yield();
    trace.push_back(3);
  });
  b_spawned.store(true);
  a.join();
  b.join();
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RuntimeBasic, YieldOutsideUltIsNoop) {
  this_thread::yield();  // must not crash without a runtime
  EXPECT_FALSE(this_thread::in_ult());
  EXPECT_EQ(this_thread::worker_rank(), -1);
}

TEST(RuntimeBasic, WorkerRankVisibleInsideUlt) {
  RuntimeOptions opts;
  opts.num_workers = 3;
  Runtime rt(opts);
  std::atomic<int> bad{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 30; ++i)
    ts.push_back(rt.spawn([&] {
      int r = this_thread::worker_rank();
      if (r < 0 || r >= 3) bad.fetch_add(1);
    }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(RuntimeBasic, SequentialRuntimesReuseProcess) {
  for (int round = 0; round < 3; ++round) {
    RuntimeOptions opts;
    opts.num_workers = 2;
    Runtime rt(opts);
    std::atomic<int> n{0};
    std::vector<Thread> ts;
    for (int i = 0; i < 20; ++i) ts.push_back(rt.spawn([&] { n.fetch_add(1); }));
    for (auto& t : ts) t.join();
    EXPECT_EQ(n.load(), 20);
  }
}

TEST(RuntimeBasic, ManyThreadsFewWorkersStress) {
  RuntimeOptions opts;
  opts.num_workers = 2;
  Runtime rt(opts);
  std::atomic<long> acc{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 500; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 10; ++k) {
        acc.fetch_add(1);
        this_thread::yield();
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(acc.load(), 5000);
}

TEST(RuntimeBasic, CustomStackSize) {
  Runtime rt{RuntimeOptions{}};
  ThreadAttrs attrs;
  attrs.stack_size = 1 << 20;
  std::atomic<bool> ok{false};
  Thread t = rt.spawn(
      [&] {
        // Use a deep-ish buffer that would overflow a tiny stack.
        volatile char buf[512 * 1024];
        buf[0] = 1;
        buf[sizeof(buf) - 1] = 1;
        ok.store(buf[0] == 1 && buf[sizeof(buf) - 1] == 1);
      },
      attrs);
  t.join();
  EXPECT_TRUE(ok.load());
}

TEST(RuntimeBasic, TotalKltsStartsAtWorkerCount) {
  RuntimeOptions opts;
  opts.num_workers = 3;
  Runtime rt(opts);
  EXPECT_EQ(rt.total_klts(), 3u);
}

TEST(RuntimeBasic, InitialSpareKltsCreated) {
  RuntimeOptions opts;
  opts.num_workers = 2;
  opts.initial_spare_klts = 2;
  Runtime rt(opts);
  EXPECT_EQ(rt.total_klts(), 4u);
  // Spares park in the pool and must shut down cleanly with the runtime.
}

// Spawn and finish counts live per worker (single writer) plus one
// external pair; the sums must match the spawns of every kind. ULT joiners
// and detached finishes recycle control blocks through the worker caches.
TEST(RuntimeBasic, SpawnCountsCoverWorkerAndExternalSpawns) {
  RuntimeOptions opts;
  opts.num_workers = 2;
  Runtime rt(opts);
  const std::uint64_t before = rt.metrics_snapshot().ults_spawned;
  constexpr int kRounds = 50, kKids = 8;
  std::atomic<int> ran{0};
  rt.spawn([&] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<Thread> kids;
        for (int i = 0; i < kKids; ++i)
          kids.push_back(Runtime::current()->spawn([&] { ran.fetch_add(1); }));
        Runtime::current()->spawn_detached([&] { ran.fetch_add(1); });
        for (auto& k : kids) k.join();
      }
    }).join();
  for (int i = 0; i < 20; ++i) rt.spawn([&] { ran.fetch_add(1); }).join();
  while (ran.load() < kRounds * (kKids + 1) + 20) this_thread::yield();
  // A detached ULT bumps `ran` while it runs; wait for its finalize too.
  for (int i = 0; i < 1000 && rt.metrics_snapshot().ults_live != 0; ++i) usleep(1000);
  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.ults_spawned - before,
            static_cast<std::uint64_t>(1 + kRounds * (kKids + 1) + 20));
  EXPECT_EQ(s.ults_live, 0);
}

// Trace ids come from per-worker blocks of one 32-bit cursor; 0 means
// "untraced" and must never be handed out, also where the cursor wraps.
TEST(TraceIds, BlocksSkipZeroAcrossTheWrap) {
  std::atomic<std::uint32_t> cursor{0xffffffffu - 3 * IdBlock::kSize / 2};
  IdBlock a, b;
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < 2 * IdBlock::kSize; ++i) {
    for (IdBlock* blk : {&a, &b}) {
      const std::uint32_t id = blk->take(cursor);
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
    const std::uint32_t one = IdBlock::take_one(cursor);
    EXPECT_NE(one, 0u);
    EXPECT_TRUE(seen.insert(one).second) << "duplicate id " << one;
  }
  EXPECT_LT(cursor.load(), 0x10000u) << "the cursor must have wrapped";
  // A cursor sitting on 0 hands out 1 first.
  std::atomic<std::uint32_t> zero{0};
  EXPECT_EQ(IdBlock::take_one(zero), 1u);
  IdBlock c;
  std::atomic<std::uint32_t> zero2{0};
  EXPECT_EQ(c.take(zero2), 1u);
}

}  // namespace
}  // namespace lpt
