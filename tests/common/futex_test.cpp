#include "common/futex.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace lpt {
namespace {

TEST(FutexEvent, SetBeforeWaitDoesNotBlock) {
  FutexEvent ev;
  ev.set();
  ev.wait();  // must return immediately
  EXPECT_TRUE(ev.is_set());
}

TEST(FutexEvent, WakesBlockedWaiter) {
  FutexEvent ev;
  std::atomic<bool> woke{false};
  std::thread t([&] {
    ev.wait();
    woke.store(true);
  });
  EXPECT_FALSE(woke.load());
  ev.set();
  t.join();
  EXPECT_TRUE(woke.load());
}

TEST(FutexEvent, WakesAllWaiters) {
  FutexEvent ev;
  std::atomic<int> woke{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.emplace_back([&] {
      ev.wait();
      woke.fetch_add(1);
    });
  ev.set();
  for (auto& t : ts) t.join();
  EXPECT_EQ(woke.load(), 4);
}

TEST(FutexEvent, ResetAllowsReuse) {
  FutexEvent ev;
  ev.set();
  ev.wait();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  std::thread t([&] { ev.wait(); });
  ev.set();
  t.join();
}

TEST(FutexGate, PostBeforeWaitBanksTicket) {
  FutexGate g;
  g.post();
  g.wait();  // consumes the banked ticket, no block
}

TEST(FutexGate, EachPostReleasesExactlyOneWaiter) {
  FutexGate g;
  std::atomic<int> passed{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < 3; ++i)
    ts.emplace_back([&] {
      g.wait();
      passed.fetch_add(1);
    });
  // Release them one at a time.
  for (int i = 1; i <= 3; ++i) {
    g.post();
    while (passed.load() < i) std::this_thread::yield();
    EXPECT_EQ(passed.load(), i);
  }
  for (auto& t : ts) t.join();
}

TEST(FutexGate, WaitForTimesOutWithoutTicket) {
  FutexGate g;
  EXPECT_FALSE(g.wait_for(1'000'000));  // 1 ms, nobody posts
}

TEST(FutexGate, WaitForConsumesBankedTicket) {
  FutexGate g;
  g.post();
  EXPECT_TRUE(g.wait_for(1'000'000));
  EXPECT_FALSE(g.wait_for(1'000'000));  // ticket gone
}

TEST(FutexGate, WaitForWokenByConcurrentPost) {
  FutexGate g;
  std::thread poster([&] { g.post(); });
  // Generous timeout: the post must land well before 5 s.
  EXPECT_TRUE(g.wait_for(5'000'000'000));
  poster.join();
}

TEST(FutexGate, ManyTicketsManyWaiters) {
  FutexGate g;
  constexpr int kN = 8;
  std::atomic<int> passed{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < kN; ++i)
    ts.emplace_back([&] {
      g.wait();
      passed.fetch_add(1);
    });
  for (int i = 0; i < kN; ++i) g.post();
  for (auto& t : ts) t.join();
  EXPECT_EQ(passed.load(), kN);
}

TEST(EventCount, NotifyWithoutSleepersStaysOutOfTheKernel) {
  EventCount ec;
  const std::uint32_t k0 = ec.prepare_wait();
  ec.cancel_wait();
  ec.notify_one();  // nobody registered: the epoch does not move
  const std::uint32_t k1 = ec.prepare_wait();
  ec.cancel_wait();
  EXPECT_EQ(k0, k1);
  ec.notify_all();  // unconditional
  const std::uint32_t k2 = ec.prepare_wait();
  ec.cancel_wait();
  EXPECT_NE(k1, k2);
}

TEST(EventCount, NotifyBetweenPrepareAndWaitIsNotLost) {
  EventCount ec;
  const std::uint32_t key = ec.prepare_wait();
  ec.notify_one();  // sees the registration, moves the epoch
  ec.wait(key);     // returns at once
}

TEST(EventCount, WaitForReportsTimeoutAndNotify) {
  EventCount ec;
  EXPECT_FALSE(ec.wait_for(ec.prepare_wait(), 1'000'000));  // 1 ms, no notify
  std::atomic<bool> woke{false};
  const std::uint32_t key = ec.prepare_wait();
  std::thread notifier([&] {
    while (!woke.load()) ec.notify_one();
  });
  EXPECT_TRUE(ec.wait_for(key, 5'000'000'000));
  woke.store(true);
  notifier.join();
}

// Producers push to a locked queue and notify one sleeper; consumers
// register, re-check the queue, and only then wait — untimed, so a lost
// wakeup leaves a consumer asleep with work queued and the test hangs into
// the ctest timeout instead of passing slowly.
TEST(EventCount, NoLostWakeupsUnderProducerConsumerChurn) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kItems = 20'000;  // per producer
  EventCount ec;
  std::mutex mu;
  std::deque<int> q;
  auto push = [&](int v) {
    {
      std::lock_guard<std::mutex> g(mu);
      q.push_back(v);
    }
    ec.notify_one();
  };
  auto try_pop = [&](int* v) {
    std::lock_guard<std::mutex> g(mu);
    if (q.empty()) return false;
    *v = q.front();
    q.pop_front();
    return true;
  };

  std::atomic<long> consumed{0}, sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      for (;;) {
        int v;
        if (!try_pop(&v)) {
          const std::uint32_t key = ec.prepare_wait();
          if (!try_pop(&v)) {
            ec.wait(key);
            continue;
          }
          ec.cancel_wait();
        }
        if (v < 0) return;  // stop pill
        consumed.fetch_add(1);
        sum.fetch_add(v);
      }
    });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      for (int i = 1; i <= kItems; ++i) {
        push(i);
        if (i % 64 == 0) std::this_thread::yield();  // let consumers sleep
      }
    });
  for (auto& t : producers) t.join();
  for (int c = 0; c < kConsumers; ++c) push(-1);
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), static_cast<long>(kProducers) * kItems);
  EXPECT_EQ(sum.load(),
            static_cast<long>(kProducers) * kItems * (kItems + 1) / 2);
}

}  // namespace
}  // namespace lpt
