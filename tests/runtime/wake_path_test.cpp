// The steady-state spawn -> run -> exit -> join path (DESIGN.md, "Idle/wake
// protocol"): idle workers napping on the runtime's EventCount are woken by
// the next enqueue, the stack cache keeps every stack while ULTs are live and
// trims only an idle runtime, and external joiners sleep on the done word
// with the finisher waking them only when one announced itself.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

// A nap that misses its wake still ends after 1 ms, so a lost wake shows up
// only as spawn-to-run latency near that bound, not as a hang.
TEST(IdleWake, SpawnAfterNapRunsFarBelowNapBound) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  constexpr int kRounds = 200;
  std::vector<std::int64_t> lat_ns;
  lat_ns.reserve(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    usleep(2'500);  // > 2 ms: every worker has spun out and is napping
    std::atomic<std::int64_t> started{0};
    const std::int64_t t0 = now_ns();
    rt.spawn([&] { started.store(now_ns()); }).join();
    lat_ns.push_back(started.load() - t0);
  }
  std::sort(lat_ns.begin(), lat_ns.end());
  const std::int64_t p50 = lat_ns[kRounds / 2];
  // A lost wake on every spawn puts the median near 500 us (uniform over the
  // nap); a working wake is tens of microseconds.
  EXPECT_LT(p50, 200'000) << "median spawn-to-run " << p50 << " ns";
}

// Fork/join churn with far more than max_cached_stacks ULTs live at once:
// no stack may be unmapped while the tree runs, and the idle runtime then
// gives back the excess.
TEST(StackCache, ChurnNeverShedsAndIdleRuntimeTrims) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  const std::size_t cap = rt.options().max_cached_stacks;
  constexpr int kChildren = 160;  // live together, more than the cap
  ASSERT_LT(cap, static_cast<std::size_t>(kChildren));
  constexpr int kRounds = 20;
  const std::uint64_t shed_before = rt.stats().stacks_shed;
  std::uint64_t cached_at_end = 0, shed_at_end = 0;
  rt.spawn([&] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<bool> go{false};
        std::vector<Thread> kids;
        for (int i = 0; i < kChildren; ++i)
          kids.push_back(Runtime::current()->spawn([&] {
            while (!go.load()) this_thread::yield();
          }));
        go.store(true);
        for (auto& k : kids) k.join();
      }
      // The root is still live, so no trim can have run yet.
      cached_at_end = Runtime::current()->stack_pool().cached();
      shed_at_end = Runtime::current()->stack_pool().total_shed();
    }).join();
  EXPECT_EQ(shed_at_end, shed_before);
  EXPECT_GE(cached_at_end, static_cast<std::uint64_t>(kChildren));

  const std::int64_t give_up = now_ns() + 5'000'000'000LL;
  while (rt.stats().stacks_cached > cap && now_ns() < give_up) usleep(1'000);
  const Runtime::Stats st = rt.stats();
  EXPECT_LE(st.stacks_cached, cap);
  EXPECT_GT(st.stacks_cached, 0u);
  // Everything dropped came from the trim: the kids' stacks plus the root's.
  EXPECT_EQ(st.stacks_shed - shed_before, cached_at_end + 1 - st.stacks_cached);
}

// External joiners against the kRunning / kJoinerAsleep / kDone word: the
// ULT finishes before the joiner looks, after it went to sleep, or after a
// join_for timed out. Several joiners at once, many rounds.
TEST(ExternalJoin, EveryJoinerReturnsInAllThreeOrders) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  enum Case { kFinishFirst, kFinishWhileAsleep, kFinishAfterTimeout };
  constexpr int kPerCase = 2;
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> release{false};
    std::atomic<int> joined{0};
    std::atomic<int> bad_join_for{0};
    std::vector<std::thread> joiners;
    for (int c = 0; c < 3; ++c) {
      for (int k = 0; k < kPerCase; ++k) {
        joiners.emplace_back([&, c] {
          std::atomic<bool> body_done{false};
          Thread t = rt.spawn([&] {
            if (c != kFinishFirst)
              while (!release.load()) this_thread::yield();
            body_done.store(true);
          });
          switch (c) {
            case kFinishFirst:
              while (!body_done.load()) std::this_thread::yield();
              usleep(200);  // let the worker publish kDone
              t.join();
              break;
            case kFinishWhileAsleep:
              t.join();  // sleeps until the main thread releases
              break;
            case kFinishAfterTimeout: {
              const bool early = t.join_for(std::chrono::milliseconds(1));
              if (early != !t.joinable()) bad_join_for.fetch_add(1);
              if (!early) {
                // Leaves kJoinerAsleep behind; the finisher's wake then
                // finds nobody, and the next join must still return.
                while (!release.load()) std::this_thread::yield();
                const bool ok = t.join_for(std::chrono::seconds(30));
                if (!ok || t.joinable()) bad_join_for.fetch_add(1);
              }
              break;
            }
          }
          if (!t.joinable()) joined.fetch_add(1);
        });
      }
    }
    usleep(5'000);  // the kFinishWhileAsleep joiners reach their futex wait
    release.store(true);
    for (auto& j : joiners) j.join();
    EXPECT_EQ(joined.load(), 3 * kPerCase) << "round " << round;
    EXPECT_EQ(bad_join_for.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace lpt
