#include "runtime/sync_extra.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

TEST(RwLock, ManyConcurrentReaders) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  RwLock rw;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([&] {
      rw.lock_shared();
      const int c = concurrent.fetch_add(1) + 1;
      int p = peak.load();
      while (c > p && !peak.compare_exchange_weak(p, c)) {
      }
      busy_spin_ns(2'000'000);
      concurrent.fetch_sub(1);
      rw.unlock_shared();
    }));
  for (auto& t : ts) t.join();
  EXPECT_GT(peak.load(), 1) << "readers never overlapped";
}

TEST(RwLock, WriterExcludesEveryone) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  RwLock rw;
  int shared_value = 0;
  std::atomic<bool> violation{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 500; ++k) {
        rw.lock();
        const int before = ++shared_value;
        this_thread::yield();  // invite interleaving
        if (shared_value != before) violation.store(true);
        rw.unlock();
      }
    }));
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 500; ++k) {
        rw.lock_shared();
        const int a = shared_value;
        this_thread::yield();
        if (shared_value < a) violation.store(true);  // never decreases
        rw.unlock_shared();
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(shared_value, 2000);
}

TEST(RwLock, WriterNotStarvedByReaders) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  RwLock rw;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> stop{false};
  std::vector<Thread> readers;
  for (int i = 0; i < 3; ++i)
    readers.push_back(rt.spawn([&] {
      while (!stop.load(std::memory_order_acquire)) {
        rw.lock_shared();
        this_thread::yield();
        rw.unlock_shared();
      }
    }));
  Thread writer = rt.spawn([&] {
    rw.lock();  // must get in despite the reader storm (writer preference)
    writer_done.store(true);
    rw.unlock();
  });
  const std::int64_t deadline = now_ns() + 10'000'000'000ll;
  while (!writer_done.load() && now_ns() < deadline) usleep(1000);
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(writer_done.load()) << "writer starved";
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

TEST(Semaphore, BoundsConcurrency) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<bool> violation{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([&] {
      sem.acquire();
      if (inside.fetch_add(1) + 1 > 2) violation.store(true);
      busy_spin_ns(1'000'000);
      inside.fetch_sub(1);
      sem.release();
    }));
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
}

TEST(Semaphore, TryAcquireNeverBlocks) {
  Runtime rt{RuntimeOptions{}};
  Semaphore sem(1);
  Thread t = rt.spawn([&] {
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
    sem.release();
  });
  t.join();
}

TEST(Semaphore, BatchReleaseWakesMultipleWaiters) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Semaphore sem(0);
  std::atomic<int> through{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 3; ++i)
    ts.push_back(rt.spawn([&] {
      sem.acquire();
      through.fetch_add(1);
    }));
  Thread releaser = rt.spawn([&] {
    for (int i = 0; i < 10; ++i) this_thread::yield();  // let them queue
    sem.release(3);
  });
  for (auto& t : ts) t.join();
  releaser.join();
  EXPECT_EQ(through.load(), 3);
}

// ---------------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------------

TEST(Semaphore, TryAcquireForTimesOutOnEmpty) {
  Runtime rt{RuntimeOptions{}};
  Semaphore sem(0);
  Thread t = rt.spawn([&] {
    const std::int64_t start = now_ns();
    EXPECT_FALSE(sem.try_acquire_for(std::chrono::milliseconds(20)));
    EXPECT_GE(now_ns() - start, 15'000'000);
    EXPECT_FALSE(sem.try_acquire_for(std::chrono::nanoseconds(0)));
  });
  t.join();
}

TEST(Semaphore, TryAcquireForWinsWhenReleased) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Semaphore sem(0);
  std::atomic<bool> waiting{false};
  Thread waiter = rt.spawn([&] {
    waiting.store(true, std::memory_order_release);
    EXPECT_TRUE(sem.try_acquire_for(std::chrono::seconds(10)));
  });
  Thread releaser = rt.spawn([&] {
    while (!waiting.load(std::memory_order_acquire)) this_thread::yield();
    sem.release();
  });
  waiter.join();
  releaser.join();
}

// Expiry racing release() (docs/robustness.md "Timed blocking"): many timed
// waiters whose timeouts land near the release instants. A unit is either
// handed to a waiter that then reports success or stays in the count —
// never handed to a waiter that reports a timeout. Two workers, once
// nonpreemptive and once under signal-yield with a 100 µs timer.
TEST(Semaphore, TryAcquireForExpiryRacesRelease) {
  constexpr std::int64_t kTimeoutNs = 2'000'000;
  for (Preempt p : {Preempt::None, Preempt::SignalYield}) {
    SCOPED_TRACE(p == Preempt::None ? "none" : "signal-yield");
    RuntimeOptions o;
    o.num_workers = 2;
    ThreadAttrs attrs;
    attrs.preempt = p;
    if (p != Preempt::None) {
      o.timer = TimerKind::PerWorkerAligned;
      o.interval_us = 100;
    }
    Runtime rt(o);
    constexpr int kWaiters = 8;
    for (int round = 0; round < 30; ++round) {
      Semaphore sem(0);
      std::atomic<int> acquired{0};
      int released = 0;
      const std::int64_t start = now_ns();
      std::vector<Thread> ts;
      for (int i = 0; i < kWaiters; ++i)
        ts.push_back(rt.spawn(
            [&] {
              if (sem.try_acquire_for(std::chrono::nanoseconds(kTimeoutNs)))
                acquired.fetch_add(1, std::memory_order_relaxed);
            },
            attrs));
      Thread releaser = rt.spawn(
          [&] {
            // Single and batched releases straddling the deadlines.
            const std::int64_t at =
                start + kTimeoutNs - 500'000 + (round % 5) * 500'000;
            while (now_ns() < at) this_thread::yield();
            for (int k = 0; k < kWaiters / 2; ++k) {
              const int n = 1 + (k & 1);
              sem.release(n);
              released += n;
              busy_spin_ns(150'000);
            }
          },
          attrs);
      releaser.join();
      for (auto& t : ts) t.join();
      int left = 0;
      while (sem.try_acquire()) ++left;
      EXPECT_EQ(acquired.load() + left, released);
    }
  }
}

TEST(Latch, ReleasesUltAndExternalWaiters) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Latch latch(3);
  std::atomic<int> released{0};
  std::vector<Thread> waiters;
  for (int i = 0; i < 2; ++i)
    waiters.push_back(rt.spawn([&] {
      latch.wait();
      released.fetch_add(1);
    }));
  std::thread external([&] {
    latch.wait();  // external kernel thread path (futex)
    released.fetch_add(1);
  });
  EXPECT_FALSE(latch.try_wait());
  for (int i = 0; i < 3; ++i) rt.spawn([&] { latch.count_down(); }).join();
  for (auto& t : waiters) t.join();
  external.join();
  EXPECT_EQ(released.load(), 3);
  EXPECT_TRUE(latch.try_wait());
}

TEST(Latch, WaitAfterFiredReturnsImmediately) {
  Runtime rt{RuntimeOptions{}};
  Latch latch(1);
  latch.count_down();
  Thread t = rt.spawn([&] { latch.wait(); });
  t.join();
  latch.wait();  // external, already fired
  SUCCEED();
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

TEST(WaitGroup, WaitsForAllWork) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  WaitGroup wg;
  std::atomic<int> done_count{0};
  wg.add(16);
  for (int i = 0; i < 16; ++i)
    rt.spawn_detached([&] {
      busy_spin_ns(500'000);
      done_count.fetch_add(1);
      wg.done();
    });
  wg.wait();  // external-thread path
  EXPECT_EQ(done_count.load(), 16);
}

TEST(WaitGroup, UltWaiterAndReuse) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  WaitGroup wg;
  for (int round = 0; round < 3; ++round) {
    wg.add(4);
    std::atomic<int> n{0};
    for (int i = 0; i < 4; ++i)
      rt.spawn_detached([&] {
        n.fetch_add(1);
        wg.done();
      });
    Thread waiter = rt.spawn([&] {
      wg.wait();
      EXPECT_EQ(n.load(), 4);
    });
    waiter.join();
  }
}

TEST(SyncExtra, PrimitivesUnderPreemption) {
  // All extended primitives used by preemptive threads simultaneously.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 400;
  Runtime rt(o);
  RwLock rw;
  Semaphore sem(3);
  WaitGroup wg;
  long protected_value = 0;
  constexpr int kThreads = 6;
  wg.add(kThreads);
  std::vector<Thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = (i % 2 == 0) ? Preempt::SignalYield : Preempt::KltSwitch;
    ts.push_back(rt.spawn(
        [&] {
          for (int k = 0; k < 300; ++k) {
            sem.acquire();
            rw.lock();
            ++protected_value;
            rw.unlock();
            sem.release();
          }
          wg.done();
        },
        attrs));
  }
  wg.wait();
  for (auto& t : ts) t.join();
  EXPECT_EQ(protected_value, kThreads * 300L);
}

}  // namespace
}  // namespace lpt
