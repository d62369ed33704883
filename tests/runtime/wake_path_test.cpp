// The steady-state spawn -> run -> exit -> join path (DESIGN.md, "Idle/wake
// protocol" and "Spawn path"): idle workers napping on the runtime's
// EventCount are woken by the next enqueue, the stack cache keeps every stack
// while ULTs are live and trims only an idle runtime, reused stacks with
// sealed guards cost no syscall, sealed guards of dropped stacks are reused,
// and external joiners sleep on the done word with the finisher waking them
// only when one announced itself.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/sys.hpp"
#include "common/time.hpp"
#include "context/stack.hpp"
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

// With sealed guards, a reused stack needs no mprotect, and once the pool
// holds enough stacks no spawn maps one, wherever the stacks were released:
// after warm-up, spawn+join makes no mprotect and no mmap call at all.
TEST(SealedStacks, SteadyStateSpawnMakesNoGuardSyscall) {
  if (!Stack(16 * 1024).sealed())
    GTEST_SKIP() << "stacks are not sealed here (kernel or LPT_FAULT)";
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  // The warm-up burst leaves more stacks cached than the loop ever holds
  // live, and the pool maps none while it holds one.
  constexpr int kBurst = 64, kKids = 16, kRounds = 20'000 / kKids;
  sys::SiteCounters mprot0{}, mmap0{};
  std::atomic<int> ran{0};
  // One live root for the whole run, so the idle trim never fires.
  rt.spawn([&] {
      Runtime& r = *Runtime::current();
      std::atomic<bool> go{false};
      std::vector<Thread> kids;
      for (int i = 0; i < kBurst; ++i)
        kids.push_back(r.spawn([&] {
          while (!go.load()) this_thread::yield();
        }));
      go.store(true);
      kids.clear();  // joins
      mprot0 = sys::counters(sys::Site::kMprotect);
      mmap0 = sys::counters(sys::Site::kMmap);
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKids; ++i)
          kids.push_back(r.spawn([&] { ran.fetch_add(1); }));
        kids.clear();
      }
    }).join();
  EXPECT_EQ(ran.load(), kRounds * kKids);
  EXPECT_EQ(sys::counters(sys::Site::kMprotect).calls - mprot0.calls, 0u);
  EXPECT_EQ(sys::counters(sys::Site::kMmap).calls - mmap0.calls, 0u);
}

/// Lines of /proc/self/maps: one per mapping (VMA) of this process.
int maps_lines() {
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return -1;
  int n = 0;
  for (int c; (c = std::fgetc(f)) != EOF;)
    if (c == '\n') ++n;
  std::fclose(f);
  return n;
}

// A sealed guard can never be unmapped. Dropping a sealed stack parks its
// guard and the next fresh stack maps above it, so building and destroying
// runtimes does not pile up guard mappings.
TEST(SealedStacks, ParkedGuardsAreReused) {
  constexpr int kRuntimes = 100, kLive = 64;
  auto one_runtime = [] {
    RuntimeOptions o;
    o.num_workers = 2;
    Runtime rt(o);
    std::atomic<bool> go{false};
    std::vector<Thread> ts;
    for (int i = 0; i < kLive; ++i)
      ts.push_back(rt.spawn([&] {
        while (!go.load()) this_thread::yield();
      }));
    go.store(true);
    for (auto& t : ts) t.join();
  };
  one_runtime();  // first-runtime mappings: KLT stacks, trace/prof slabs
  const int start = maps_lines();
  ASSERT_GT(start, 0);
  int peak = start;
  for (int i = 0; i < kRuntimes; ++i) {
    one_runtime();
    peak = std::max(peak, maps_lines());
  }
  const int end = maps_lines();
  // One runtime's worth of stacks is ~70 guards; without parking the count
  // would grow by that much per runtime.
  EXPECT_LE(end, start + 16) << "start " << start << ", end " << end;
  EXPECT_LE(peak, start + 16) << "start " << start << ", peak " << peak;
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
