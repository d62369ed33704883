#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

TEST(Mutex, ProtectsCounterAcrossWorkers) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Mutex m;
  long counter = 0;
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 1000; ++k) {
        m.lock();
        ++counter;
        m.unlock();
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 8000);
}

TEST(Mutex, BlockedWaiterResumesOnUnlock) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  Mutex m;
  std::vector<int> order;
  Thread a = rt.spawn([&] {
    m.lock();
    order.push_back(1);
    this_thread::yield();  // let b hit the lock and block
    order.push_back(2);
    m.unlock();
  });
  Thread b = rt.spawn([&] {
    m.lock();
    order.push_back(3);
    m.unlock();
  });
  a.join();
  b.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Mutex, TryLockReflectsState) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  Thread t = rt.spawn([&] {
    EXPECT_TRUE(m.try_lock());
    EXPECT_FALSE(m.try_lock());
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
  t.join();
}

TEST(Mutex, FairHandoffFifo) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  Mutex m;
  std::vector<int> order;
  Thread holder = rt.spawn([&] {
    m.lock();
    for (int i = 0; i < 4; ++i) this_thread::yield();  // queue up waiters
    m.unlock();
  });
  std::vector<Thread> waiters;
  for (int i = 0; i < 3; ++i)
    waiters.push_back(rt.spawn([&, i] {
      m.lock();
      order.push_back(i);
      m.unlock();
    }));
  holder.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Mutex, UnlockerRelocksAheadOfWokenWaiter) {
  // unlock() wakes the head waiter without handing it the lock, so an
  // unlocker that relocks at once keeps running instead of parking behind a
  // waiter that has not run yet (the lock convoy).
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  Mutex m;
  std::atomic<bool> b_started{false}, b_locked{false};
  bool relocked_first = false;
  Thread a = rt.spawn([&] {
    m.lock();
    // b parks on m: its one suspension point after the store is the lock.
    while (!b_started.load()) this_thread::yield();
    m.unlock();
    m.lock();
    relocked_first = !b_locked.load();
    m.unlock();
  });
  Thread b = rt.spawn([&] {
    b_started.store(true);
    m.lock();
    b_locked.store(true);
    m.unlock();
  });
  a.join();
  b.join();
  EXPECT_TRUE(relocked_first);
  EXPECT_TRUE(b_locked.load());
}

TEST(Mutex, LockerBehindWokenLowPriorityWaiterLetsItRun) {
  // One worker, priority scheduler: a runnable priority-0 thread always runs
  // before a priority-1 one. h's unlock wakes the priority-1 waiter w; then
  // p (priority 0) calls lock() before w has run. p must park behind w, so
  // w runs once the high class is idle and both finish. A p that kept
  // retrying until w had run would keep the high class busy forever.
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  Runtime rt(o);
  ThreadAttrs high, low;
  high.priority = 0;
  low.priority = 1;
  Mutex m;
  std::atomic<bool> w_started{false};
  std::atomic<int> done{0};
  Thread h = rt.spawn(
      [&] {
        m.lock();
        // Sleeping idles the high class: w runs and parks on m (no timer,
        // so nothing preempts it between the store and the lock).
        while (!w_started.load())
          this_thread::sleep_for(std::chrono::milliseconds(1));
        this_thread::sleep_for(std::chrono::milliseconds(1));
        m.unlock();
        Thread p = rt.spawn(
            [&] {
              m.lock();
              m.unlock();
              done.fetch_add(1);
            },
            high);
        p.join();
      },
      high);
  Thread w = rt.spawn(
      [&] {
        w_started.store(true);
        m.lock();
        m.unlock();
        done.fetch_add(1);
      },
      low);
  // A hung runtime cannot be torn down (~Thread would wait forever).
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (done.load() < 2) {
    if (now_ns() > deadline) {
      std::fprintf(stderr, "FATAL: p or w still blocked after 10 s\n");
      std::fflush(stderr);
      std::_Exit(1);
    }
    usleep(1000);
  }
  h.join();
  w.join();
  EXPECT_EQ(done.load(), 2);
}

TEST(Mutex, StarvingWaiterIsHandedTheLock) {
  // Two ULTs relock in a tight loop for 300 ms. A third ULT's lock() must
  // still return promptly: it may win a race, and once it has waited ~1 ms
  // it asks for direct handoff.
  RuntimeOptions o;
  o.num_workers = 3;
  Runtime rt(o);
  Mutex m;
  long counter = 0;  // guarded by m
  std::atomic<long> issued{0};
  std::atomic<int> running{0};
  const auto hammer = [&] {
    running.fetch_add(1);
    long n = 0;
    const std::int64_t end = now_ns() + 300'000'000;
    while (now_ns() < end) {
      m.lock();
      ++counter;
      m.unlock();
      ++n;
    }
    issued.fetch_add(n);
  };
  Thread h1 = rt.spawn(hammer);
  Thread h2 = rt.spawn(hammer);
  std::int64_t waited = -1;
  Thread starving = rt.spawn([&] {
    while (running.load() < 2) this_thread::yield();
    const std::int64_t start = now_ns();
    m.lock();
    waited = now_ns() - start;
    ++counter;
    m.unlock();
    issued.fetch_add(1);
  });
  starving.join();
  h1.join();
  h2.join();
  EXPECT_GE(waited, 0);
  EXPECT_LT(waited, 50'000'000);
  EXPECT_EQ(counter, issued.load());
}

TEST(Mutex, LongParkedWaiterIsHandedTheLockDirectly) {
  // One worker, so the order is deterministic. b has waited over 1 ms when
  // a's unlock wakes it; a relocks first, b loses, asks for handoff and
  // parks again. a's next unlock hands b the lock, and a's relock then
  // parks behind b instead of barging in.
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  Mutex m;
  std::atomic<bool> b_started{false};
  std::vector<int> order;  // guarded by m
  Thread a = rt.spawn([&] {
    m.lock();
    while (!b_started.load()) this_thread::yield();  // b parks on m
    busy_spin_ns(2'000'000);
    m.unlock();
    m.lock();
    this_thread::yield();  // b runs, loses, and parks asking for handoff
    m.unlock();
    m.lock();
    order.push_back(1);
    m.unlock();
  });
  Thread b = rt.spawn([&] {
    b_started.store(true);
    m.lock();
    order.push_back(2);
    m.unlock();
  });
  a.join();
  b.join();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Mutex, TimedWaiterThatLosesTheRaceHonoursDeadline) {
  // Two timed waiters share one deadline. The holder unlocks while both are
  // parked, which wakes the head waiter w, then relocks before w can run: a
  // spinner occupies the other worker across the unlock/relock, so w is
  // runnable but has no worker. w loses the race, parks again and must time
  // out on its original deadline — together with w2, which was never woken
  // — without ever owning the lock. w2 is the yardstick because a stall of
  // the host delays both expiries alike. Once the spinner leaves, its idle
  // worker drives timed-wait expiry.
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  constexpr std::int64_t kTimeout = 50'000'000;
  const auto blocks = [&rt] { return rt.metrics_snapshot().blocks; };
  std::atomic<bool> held{false}, parked{false}, spinning{false};
  std::atomic<bool> relocked{false};
  std::atomic<int> done{0};
  std::atomic<std::int64_t> deadline{0};
  bool got = true, got2 = true, owned_after = true;
  std::int64_t late = -1, late2 = -1;
  Thread holder = rt.spawn([&] {
    m.lock();
    held.store(true);
    // Only the two waiters ever park in this runtime.
    while (blocks() < 2) this_thread::yield();
    parked.store(true);
    while (!spinning.load()) this_thread::yield();
    m.unlock();  // wakes w onto this worker's queue ...
    m.lock();    // ... and relocks before it can run
    relocked.store(true);
    while (done.load() < 2) this_thread::yield();
    m.unlock();
  });
  Thread w = rt.spawn([&] {
    while (!held.load()) this_thread::yield();
    deadline.store(now_ns() + kTimeout);
    got = m.try_lock_for(std::chrono::nanoseconds(kTimeout));
    late = now_ns() - deadline.load();
    owned_after = m.held_by_caller();
    if (got) m.unlock();
    done.fetch_add(1);
  });
  Thread w2 = rt.spawn([&] {
    while (blocks() < 1) this_thread::yield();  // w is the head waiter
    got2 = m.try_lock_for(std::chrono::nanoseconds(deadline.load() - now_ns()));
    late2 = now_ns() - deadline.load();
    if (got2) m.unlock();
    done.fetch_add(1);
  });
  Thread spinner = rt.spawn([&] {
    while (!parked.load()) this_thread::yield();
    spinning.store(true);
    while (!relocked.load()) {
    }
  });
  holder.join();
  w.join();
  w2.join();
  spinner.join();
  EXPECT_FALSE(got);
  EXPECT_FALSE(got2);
  EXPECT_FALSE(owned_after);
  EXPECT_GE(late, 0) << "returned before the deadline";
  EXPECT_LE(late, late2 + 2'000'000)
      << "returned more than 2 ms after a waiter with the same deadline";
  // w parked twice (before the unlock, and again after losing the race),
  // w2 once.
  EXPECT_EQ(blocks(), 3u);
}

TEST(CondVar, WaitReleasesAndReacquiresMutex) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> consumed{false};
  Thread consumer = rt.spawn([&] {
    m.lock();
    while (!ready) cv.wait(m);
    consumed.store(true);
    m.unlock();
  });
  Thread producer = rt.spawn([&] {
    for (int i = 0; i < 3; ++i) this_thread::yield();
    m.lock();
    ready = true;
    m.unlock();
    cv.notify_one();
  });
  consumer.join();
  producer.join();
  EXPECT_TRUE(consumed.load());
}

TEST(CondVar, NotifyAllWakesEveryWaiter) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  bool go = false;
  std::atomic<int> woke{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 5; ++i)
    ts.push_back(rt.spawn([&] {
      m.lock();
      while (!go) cv.wait(m);
      m.unlock();
      woke.fetch_add(1);
    }));
  Thread waker = rt.spawn([&] {
    for (int i = 0; i < 10; ++i) this_thread::yield();
    m.lock();
    go = true;
    m.unlock();
    cv.notify_all();
  });
  for (auto& t : ts) t.join();
  waker.join();
  EXPECT_EQ(woke.load(), 5);
}

TEST(CondVar, NotifyWithoutWaitersIsNoop) {
  Runtime rt{RuntimeOptions{}};
  CondVar cv;
  Thread t = rt.spawn([&] {
    cv.notify_one();
    cv.notify_all();
  });
  t.join();
  SUCCEED();
}

TEST(Barrier, SynchronizesPhases) {
  RuntimeOptions o;
  o.num_workers = 3;
  Runtime rt(o);
  constexpr int kParties = 6;
  constexpr int kPhases = 10;
  Barrier bar(kParties);
  std::atomic<int> phase_counts[kPhases] = {};
  std::atomic<bool> violation{false};
  std::vector<Thread> ts;
  for (int p = 0; p < kParties; ++p)
    ts.push_back(rt.spawn([&] {
      for (int ph = 0; ph < kPhases; ++ph) {
        phase_counts[ph].fetch_add(1);
        bar.arrive_and_wait();
        // After the barrier, every participant must have arrived at ph.
        if (phase_counts[ph].load() != kParties) violation.store(true);
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Runtime rt{RuntimeOptions{}};
  Barrier bar(1);
  Thread t = rt.spawn([&] {
    for (int i = 0; i < 100; ++i) bar.arrive_and_wait();
  });
  t.join();
  SUCCEED();
}

TEST(BusyFlag, YieldingWaitWorksOnNonpreemptiveThreads) {
  RuntimeOptions o;
  o.num_workers = 1;  // forces cooperative interleaving
  Runtime rt(o);
  BusyFlag flag;
  std::atomic<bool> passed{false};
  Thread waiter = rt.spawn([&] {
    flag.wait(BusyFlag::WaitMode::kSpinWithYield);
    passed.store(true);
  });
  Thread setter = rt.spawn([&] { flag.set(); });
  waiter.join();
  setter.join();
  EXPECT_TRUE(passed.load());
}

TEST(BusyFlag, PureSpinWaitNeedsPreemption) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  Runtime rt(o);
  BusyFlag flag;
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  Thread waiter = rt.spawn([&] { flag.wait(BusyFlag::WaitMode::kSpin); }, attrs);
  Thread setter = rt.spawn([&] { flag.set(); }, attrs);
  waiter.join();
  setter.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}


// ---------------------------------------------------------------------------
// Timed waits (self-healing PR: timed-wait registry, ~1 ms granularity)
// ---------------------------------------------------------------------------

TEST(TimedSync, TryLockForTimesOutThenSucceeds) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  Thread holder = rt.spawn([&] {
    m.lock();
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
    m.unlock();
  });
  Thread contender = rt.spawn([&] {
    while (!held.load(std::memory_order_acquire)) this_thread::yield();
    const std::int64_t start = now_ns();
    EXPECT_FALSE(m.try_lock_for(std::chrono::milliseconds(20)));
    EXPECT_GE(now_ns() - start, 15'000'000) << "returned before the timeout";
    release.store(true, std::memory_order_release);
    EXPECT_TRUE(m.try_lock_for(std::chrono::seconds(10)));
    m.unlock();
  });
  holder.join();
  contender.join();
}

TEST(TimedSync, TryLockForZeroTimeoutIsTryLock) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  Thread t = rt.spawn([&] {
    EXPECT_TRUE(m.try_lock_for(std::chrono::nanoseconds(0)));
    EXPECT_FALSE(m.try_lock_for(std::chrono::nanoseconds(0)));
    m.unlock();
  });
  t.join();
}

TEST(TimedSync, CondVarWaitForTimesOutHoldingMutex) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  CondVar cv;
  Thread t = rt.spawn([&] {
    m.lock();
    const std::int64_t start = now_ns();
    EXPECT_FALSE(cv.wait_for(m, std::chrono::milliseconds(20)));
    EXPECT_GE(now_ns() - start, 15'000'000);
    // m is re-held after a timed-out wait: mutating shared state is legal.
    m.unlock();
  });
  t.join();
}

TEST(TimedSync, CondVarWaitForWinsWhenNotified) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  std::atomic<bool> waiting{false};
  bool ready = false;
  Thread waiter = rt.spawn([&] {
    m.lock();
    waiting.store(true, std::memory_order_release);
    bool ok = true;
    while (!ready && ok) ok = cv.wait_for(m, std::chrono::seconds(10));
    EXPECT_TRUE(ok);
    EXPECT_TRUE(ready);
    m.unlock();
  });
  Thread notifier = rt.spawn([&] {
    while (!waiting.load(std::memory_order_acquire)) this_thread::yield();
    m.lock();
    ready = true;
    m.unlock();
    cv.notify_one();
  });
  waiter.join();
  notifier.join();
}

TEST(TimedSync, SleepForReleasesWorkerAndWakes) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  std::atomic<std::uint64_t> other_work{0};
  std::atomic<bool> stop{false};
  // On the single worker, a sleeping ULT must not block its sibling.
  Thread bg = rt.spawn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      other_work.fetch_add(1, std::memory_order_relaxed);
      this_thread::yield();
    }
  });
  Thread sleeper = rt.spawn([&] {
    const std::int64_t start = now_ns();
    this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_GE(now_ns() - start, 25'000'000);
  });
  sleeper.join();
  EXPECT_GT(other_work.load(std::memory_order_relaxed), 0u);
  stop.store(true, std::memory_order_release);
  bg.join();
}

TEST(TimedSync, SleepForOutsideUltFallsBackToNanosleep) {
  const std::int64_t start = now_ns();
  this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(now_ns() - start, 10'000'000);
}

TEST(TimedSync, JoinForTimesOutThenJoins) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  std::atomic<bool> release{false};
  Thread worker = rt.spawn([&] {
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
  });
  // ULT-context join_for.
  Thread joiner = rt.spawn([&] {
    EXPECT_FALSE(worker.join_for(std::chrono::milliseconds(20)));
    EXPECT_TRUE(worker.joinable()) << "timed-out join must keep the handle";
    release.store(true, std::memory_order_release);
    EXPECT_TRUE(worker.join_for(std::chrono::seconds(30)));
    EXPECT_FALSE(worker.joinable());
  });
  joiner.join();
}

TEST(TimedSync, JoinForFromExternalThread) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  std::atomic<bool> release{false};
  Thread worker = rt.spawn([&] {
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
  });
  // The test body runs on an external (non-ULT) kernel thread.
  EXPECT_FALSE(worker.join_for(std::chrono::milliseconds(20)));
  EXPECT_TRUE(worker.joinable());
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(worker.join_for(std::chrono::seconds(30)));
  EXPECT_FALSE(worker.joinable());
}

TEST(TimedSync, TryLockForByOwnerFailsFast) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  Thread t = rt.spawn([&] {
    m.lock();
    const std::int64_t start = now_ns();
    // The owner cannot get the mutex by waiting for itself: false at once,
    // not after the full timeout.
    EXPECT_FALSE(m.try_lock_for(std::chrono::seconds(1)));
    EXPECT_LT(now_ns() - start, 100'000'000);
    EXPECT_TRUE(m.held_by_caller());
    m.unlock();
  });
  t.join();
}

// ---------------------------------------------------------------------------
// Timed-wait expiry racing the normal wake (docs/robustness.md "Timed
// blocking"): many timed waiters whose timeouts land near the release
// instants. Whichever side removes a waiter from its queue owns the wake, so
// a timed-out waiter never also owns a handoff and no wake is delivered
// twice. Two workers, once nonpreemptive and once under signal-yield with a
// 100 µs timer.
// ---------------------------------------------------------------------------

constexpr std::int64_t kRaceTimeoutNs = 2'000'000;

RuntimeOptions race_options(Preempt p) {
  RuntimeOptions o;
  o.num_workers = 2;
  if (p != Preempt::None) {
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = 100;
  }
  return o;
}

ThreadAttrs race_attrs(Preempt p) {
  ThreadAttrs a;
  a.preempt = p;
  return a;
}

/// Yield until the absolute instant `at` (now_ns clock).
void yield_until(std::int64_t at) {
  while (now_ns() < at) this_thread::yield();
}

TEST(ExpiryRace, MutexTryLockForVsHandoff) {
  for (Preempt p : {Preempt::None, Preempt::SignalYield}) {
    SCOPED_TRACE(p == Preempt::None ? "none" : "signal-yield");
    Runtime rt(race_options(p));
    constexpr int kWaiters = 8;
    for (int round = 0; round < 30; ++round) {
      Mutex m;
      long counter = 0;  // guarded by m
      std::atomic<int> wins{0};
      std::atomic<bool> held{false};
      const std::int64_t start = now_ns();
      Thread holder = rt.spawn(
          [&] {
            m.lock();
            held.store(true, std::memory_order_release);
            // Unlock somewhere in [timeout - 0.5 ms, timeout + 1.5 ms]
            // (expiry lands up to ~1 ms after the deadline).
            yield_until(start + kRaceTimeoutNs - 500'000 +
                        (round % 5) * 500'000);
            m.unlock();
          },
          race_attrs(p));
      std::vector<Thread> ts;
      for (int i = 0; i < kWaiters; ++i)
        ts.push_back(rt.spawn(
            [&] {
              while (!held.load(std::memory_order_acquire))
                this_thread::yield();
              if (m.try_lock_for(std::chrono::nanoseconds(kRaceTimeoutNs))) {
                ++counter;
                wins.fetch_add(1, std::memory_order_relaxed);
                busy_spin_ns(60'000);  // spread the handoff chain
                m.unlock();
              }
            },
            race_attrs(p)));
      holder.join();
      for (auto& t : ts) t.join();
      EXPECT_EQ(counter, wins.load());
      // No handoff was stranded on a timed-out waiter: the mutex is free.
      rt.spawn([&] {
          EXPECT_TRUE(m.try_lock());
          m.unlock();
        }).join();
    }
  }
}

TEST(ExpiryRace, CondVarWaitForVsNotify) {
  for (Preempt p : {Preempt::None, Preempt::SignalYield}) {
    SCOPED_TRACE(p == Preempt::None ? "none" : "signal-yield");
    Runtime rt(race_options(p));
    constexpr int kWaiters = 6;
    for (int round = 0; round < 30; ++round) {
      Mutex m;
      CondVar cv;
      int ready = 0;     // guarded by m
      int sent = 0;      // notifies issued, guarded by m
      int received = 0;  // waiters woken by a notify, guarded by m
      const std::int64_t start = now_ns();
      std::vector<Thread> ts;
      for (int i = 0; i < kWaiters; ++i)
        ts.push_back(rt.spawn(
            [&] {
              m.lock();
              ++ready;
              if (cv.wait_for(m, std::chrono::nanoseconds(kRaceTimeoutNs))) {
                // Each notify wakes at most one waiter.
                EXPECT_LT(received, sent);
                ++received;
              }
              m.unlock();
            },
            race_attrs(p)));
      Thread notifier = rt.spawn(
          [&] {
            for (;;) {
              m.lock();
              const bool all = ready == kWaiters;
              m.unlock();
              if (all) break;
              this_thread::yield();
            }
            yield_until(start + kRaceTimeoutNs - 500'000 +
                        (round % 5) * 500'000);
            for (int k = 0; k < kWaiters; ++k) {
              m.lock();
              ++sent;
              m.unlock();
              cv.notify_one();
              busy_spin_ns(150'000);
            }
          },
          race_attrs(p));
      notifier.join();
      for (auto& t : ts) t.join();
      EXPECT_LE(received, sent);
    }
  }
}

TEST(ExpiryRace, JoinForVsExit) {
  for (Preempt p : {Preempt::None, Preempt::SignalYield}) {
    SCOPED_TRACE(p == Preempt::None ? "none" : "signal-yield");
    Runtime rt(race_options(p));
    constexpr int kPairs = 4;
    for (int round = 0; round < 30; ++round) {
      const std::int64_t start = now_ns();
      std::atomic<int> finished{0};
      std::vector<Thread> targets;
      for (int i = 0; i < kPairs; ++i)
        targets.push_back(rt.spawn(
            [&, i] {
              // Exit somewhere around the joiners' timeout.
              yield_until(start + kRaceTimeoutNs - 500'000 +
                          ((round + i) % 5) * 500'000);
              finished.fetch_add(1, std::memory_order_release);
            },
            race_attrs(p)));
      std::atomic<int> joined{0};
      std::vector<Thread> joiners;
      for (int i = 0; i < kPairs; ++i)
        joiners.push_back(rt.spawn(
            [&, i] {
              if (targets[i].join_for(
                      std::chrono::nanoseconds(kRaceTimeoutNs))) {
                EXPECT_FALSE(targets[i].joinable());
                joined.fetch_add(1, std::memory_order_relaxed);
              } else {
                EXPECT_TRUE(targets[i].joinable())
                    << "a timed-out join must keep the handle";
              }
            },
            race_attrs(p)));
      for (auto& j : joiners) j.join();
      EXPECT_LE(joined.load(), finished.load(std::memory_order_acquire));
      for (auto& t : targets) t.join();  // the rest, from outside
      EXPECT_EQ(finished.load(), kPairs);
    }
  }
}

TEST(Sync, MutexUnderPreemption) {
  // Locks + implicit preemption: the no-preempt guards inside the
  // primitives must prevent a preempted lock holder from wedging a worker.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 300;
  Runtime rt(o);
  Mutex m;
  long counter = 0;
  std::vector<Thread> ts;
  for (int i = 0; i < 6; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = (i % 2 == 0) ? Preempt::SignalYield : Preempt::KltSwitch;
    ts.push_back(rt.spawn(
        [&] {
          for (int k = 0; k < 2000; ++k) {
            m.lock();
            ++counter;
            m.unlock();
          }
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 12000);
}

}  // namespace
}  // namespace lpt
