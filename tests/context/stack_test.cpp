#include "context/stack.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/sys.hpp"

namespace lpt {
namespace {

TEST(Stack, AllocatesUsableMemory) {
  Stack s(64 * 1024);
  ASSERT_TRUE(s.valid());
  ASSERT_GE(s.size(), 64u * 1024);
  // The whole usable area must be writable.
  std::memset(s.base(), 0xab, s.size());
  EXPECT_EQ(static_cast<unsigned char*>(s.base())[0], 0xab);
  EXPECT_EQ(static_cast<unsigned char*>(s.base())[s.size() - 1], 0xab);
}

TEST(Stack, SizeRoundedUpToPage) {
  Stack s(1000);
  EXPECT_GE(s.size(), 1000u);
  EXPECT_EQ(s.size() % 4096, 0u);
}

TEST(Stack, MoveTransfersOwnership) {
  Stack a(16 * 1024);
  void* base = a.base();
  Stack b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.base(), base);

  Stack c(16 * 1024);
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(c.base(), base);
}

TEST(Stack, GuardPageFaultsOnUnderflow) {
  Stack s(16 * 1024);
  auto* below = static_cast<volatile char*>(s.base()) - 1;
  EXPECT_DEATH({ *below = 1; }, "");
}

/// Why the kernel refuses to seal, for GTEST_SKIP messages.
std::string mseal_refusal() {
  void* p = ::mmap(nullptr, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return std::strerror(errno);
  const int rc = sys::mseal(p, 4096);
  const int err = errno;
  if (rc != 0) ::munmap(p, 4096);
  return rc == 0 ? "sealed on retry" : std::strerror(err);
}

TEST(Stack, SealedGuardCannotBeLifted) {
  Stack s(16 * 1024);
  ASSERT_TRUE(s.valid());
  if (!s.sealed()) GTEST_SKIP() << "mseal refused: " << mseal_refusal();
  errno = 0;
  EXPECT_NE(::mprotect(s.guard(), s.guard_size(), PROT_READ | PROT_WRITE), 0);
  EXPECT_EQ(errno, EPERM);
  errno = 0;
  EXPECT_NE(::munmap(s.guard(), s.guard_size()), 0);
  EXPECT_EQ(errno, EPERM);
  EXPECT_TRUE(s.reassert_guard());  // nothing to do for a sealed guard
}

TEST(Stack, DroppedSealedGuardIsReusedByTheNextStack) {
  void* guard = nullptr;
  {
    Stack s(64 * 1024);
    ASSERT_TRUE(s.valid());
    if (!s.sealed()) GTEST_SKIP() << "mseal refused: " << mseal_refusal();
    guard = s.guard();
  }
  // The most recently parked guard is tried first, and the range above it
  // was just unmapped.
  Stack t(32 * 1024);
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(t.sealed());
  EXPECT_EQ(t.guard(), guard);
  EXPECT_EQ(t.base(), static_cast<char*>(guard) + t.guard_size());
  std::memset(t.base(), 0xcd, t.size());
}

TEST(Stack, UnsealedStackWhenSealingFails) {
  ASSERT_TRUE(sys::configure_faults("mseal:every=1"));
  Stack s(16 * 1024);
  sys::reset_faults();
  ASSERT_TRUE(s.valid());
  EXPECT_FALSE(s.sealed());
  // Its guard is an ordinary PROT_NONE page: re-assertable, not parked.
  EXPECT_TRUE(s.reassert_guard());
  auto* below = static_cast<volatile char*>(s.base()) - 1;
  EXPECT_DEATH({ *below = 1; }, "");
}

// At vm.max_map_count, splitting the guard page off a fresh mapping fails
// with ENOMEM. That must come back as an invalid Stack, not an abort. Run in
// a child, which can exhaust its map count without harming the test process.
TEST(Stack, GuardSplitFailureReturnsInvalidStack) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Single pages of alternating protection never merge, so each one is a
    // map entry. Fill until mmap fails, then free one entry: the stack's
    // mmap gets it, and the guard split has none left.
    const std::size_t ps = 4096;
    std::vector<void*> pages;
    for (int i = 0;; ++i) {
      void* p = ::mmap(nullptr, ps, i % 2 == 0 ? PROT_READ : PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) break;
      pages.push_back(p);
      if (pages.size() > (1u << 21)) _exit(3);  // no map count limit here
    }
    ::munmap(pages.back(), ps);
    // Decline sealing, which also skips guards parked by earlier tests:
    // reusing one needs no split.
    sys::configure_faults("mseal:every=1");
    errno = 0;
    Stack s(64 * 1024);
    const int err = errno;
    if (s.valid()) _exit(2);
    _exit(err == ENOMEM ? 0 : 4);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died: the failed split aborted";
  if (WEXITSTATUS(status) == 3) GTEST_SKIP() << "no map count limit";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: stack came back valid, 4: errno was not ENOMEM";
}

TEST(StackPool, ReusesReleasedStacks) {
  StackPool pool(32 * 1024);
  Stack s1 = pool.acquire();
  void* base = s1.base();
  pool.release(std::move(s1));
  EXPECT_EQ(pool.cached(), 1u);
  Stack s2 = pool.acquire();
  EXPECT_EQ(s2.base(), base);
  EXPECT_EQ(pool.cached(), 0u);
}

TEST(StackPool, GrowsOnDemand) {
  StackPool pool(16 * 1024);
  Stack a = pool.acquire();
  Stack b = pool.acquire();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.base(), b.base());
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.cached(), 2u);
}

TEST(StackPool, CapBoundsFreeListAndCountsShed) {
  StackPool pool(16 * 1024, /*max_cached=*/2);
  Stack a = pool.acquire();
  Stack b = pool.acquire();
  Stack c = pool.acquire();
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // over the cap: unmapped, not cached
  EXPECT_EQ(pool.cached(), 2u);
  EXPECT_EQ(pool.total_shed(), 1u);
  EXPECT_EQ(pool.max_cached(), 2u);
}

TEST(StackPool, ShedAllEmptiesCache) {
  StackPool pool(16 * 1024, 8);
  Stack a = pool.acquire();
  Stack b = pool.acquire();  // distinct: acquired before either release
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.cached(), 2u);
  EXPECT_EQ(pool.shed_all(), 2u);
  EXPECT_EQ(pool.cached(), 0u);
  EXPECT_EQ(pool.total_shed(), 2u);
  // Still usable afterwards.
  Stack s = pool.acquire();
  EXPECT_TRUE(s.valid());
}

TEST(StackPool, TryAcquireReportsErrnoOnInjectedFailure) {
  StackPool pool(16 * 1024, 4);
  // Every mapping fails: even the shed-and-retry fallback cannot help, and
  // the caller gets an invalid stack plus the reason.
  ASSERT_TRUE(sys::configure_faults("mmap:every=1"));
  int err = 0;
  Stack s = pool.try_acquire(&err);
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(err, ENOMEM);
  sys::reset_faults();
  err = -1;
  Stack ok = pool.try_acquire(&err);
  EXPECT_TRUE(ok.valid());
}

// Shards: a worker's releases stay in its shard up to kShardCap, the oldest
// half spills to the shared list, an empty shard refills from it, and
// cached()/trim() see every stack wherever it sits.
TEST(StackPool, ShardsSpillRefillAndAreCoveredByTrim) {
  constexpr std::size_t kCap = StackPool::kShardCap;
  StackPool pool(16 * 1024, StackPool::kUncapped, false, /*shards=*/2);
  std::vector<Stack> live;
  for (std::size_t i = 0; i < kCap + 4; ++i) live.push_back(pool.acquire(0));
  for (Stack& s : live) pool.release(std::move(s), 0);
  live.clear();
  EXPECT_EQ(pool.cached(), kCap + 4);
  EXPECT_EQ(pool.total_shed(), 0u);

  // Worker 1's shard is empty: it refills from the spilled stacks.
  Stack s1 = pool.acquire(1);
  ASSERT_TRUE(s1.valid());
  EXPECT_EQ(pool.cached(), kCap + 3);
  pool.release(std::move(s1), 1);
  Stack ext = pool.acquire(StackPool::kShared);  // shared list only
  ASSERT_TRUE(ext.valid());
  pool.release(std::move(ext));
  EXPECT_EQ(pool.cached(), kCap + 4);

  EXPECT_EQ(pool.trim(3), kCap + 1);
  EXPECT_EQ(pool.cached(), 3u);
  EXPECT_EQ(pool.total_shed(), kCap + 1);
  EXPECT_EQ(pool.shed_all(), 3u);
  EXPECT_EQ(pool.cached(), 0u);
}

// A worker whose children finish on another worker finds its shard and the
// shared list empty: it takes half of the other shard instead of mapping.
TEST(StackPool, EmptyShardTakesFromAnotherBeforeMapping) {
  StackPool pool(16 * 1024, StackPool::kUncapped, false, /*shards=*/2);
  std::vector<Stack> live;
  std::vector<void*> bases;
  for (int i = 0; i < 4; ++i) {
    live.push_back(pool.acquire(0));
    bases.push_back(live.back().base());
  }
  for (Stack& s : live) pool.release(std::move(s), 1);
  live.clear();
  ASSERT_EQ(pool.cached(), 4u);

  Stack a = pool.acquire(0);  // two move from shard 1: one here, one cached
  Stack b = pool.acquire(0);  // from shard 0
  Stack c = pool.acquire(StackPool::kShared);  // one more from shard 1
  for (Stack* s : {&a, &b, &c})
    EXPECT_NE(std::find(bases.begin(), bases.end(), s->base()), bases.end())
        << "mapped a fresh stack while the pool held one";
  EXPECT_EQ(pool.cached(), 1u);
  EXPECT_EQ(pool.total_shed(), 0u);
}

// Four threads each own a shard and release to a random one, so stacks
// spill, refill and move between shards, while a fifth trims and reads
// cached(). No stack may be lost or handed out twice. Sealing is refused so
// every fresh stack is exactly one mmap call (no parked guards). Runs under
// TSan in scripts/check.sh: the pool never switches context.
TEST(StackPool, ConcurrentShardsConserveStacks) {
  ASSERT_TRUE(sys::configure_faults("mseal:every=1"));
  const std::uint64_t maps0 = sys::counters(sys::Site::kMmap).calls;
  constexpr int kThreads = 4, kOps = 3000, kHeld = 8;
  StackPool pool(16 * 1024, StackPool::kUncapped, false, kThreads);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread trimmer([&] {
    while (!stop.load()) {
      pool.trim(16);
      (void)pool.cached();
    }
  });
  std::vector<std::thread> ts;
  for (int r = 0; r < kThreads; ++r)
    ts.emplace_back([&, r] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<unsigned>(r + 1);
      std::vector<Stack> held;
      for (int i = 0; i < kOps; ++i) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        if (held.size() < kHeld && (x & 1) != 0) {
          held.push_back(pool.acquire(r));
          // A stack handed out twice would show the other owner's mark.
          auto* mark = static_cast<volatile int*>(held.back().base());
          if (*mark != 0 && *mark != r + 1) bad.fetch_add(1);
          *mark = r + 1;
        } else if (!held.empty()) {
          *static_cast<volatile int*>(held.back().base()) = 0;
          pool.release(std::move(held.back()),
                       static_cast<int>((x >> 8) % kThreads));
          held.pop_back();
        }
      }
      for (Stack& s : held) {
        *static_cast<volatile int*>(s.base()) = 0;
        pool.release(std::move(s), r);
      }
    });
  for (auto& t : ts) t.join();
  stop.store(true);
  trimmer.join();
  const std::uint64_t mapped = sys::counters(sys::Site::kMmap).calls - maps0;
  sys::reset_faults();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pool.cached() + pool.total_shed(), mapped);
}

TEST(StackPool, ShardSpillRespectsTheSharedCap) {
  constexpr std::size_t kCap = StackPool::kShardCap;
  StackPool pool(16 * 1024, /*max_cached=*/2, false, /*shards=*/1);
  std::vector<Stack> live;
  for (std::size_t i = 0; i < kCap + 1; ++i) live.push_back(pool.acquire(0));
  for (Stack& s : live) pool.release(std::move(s), 0);
  // The spill of kShardBatch found room for 2 in the shared list.
  EXPECT_EQ(pool.total_shed(), StackPool::kShardBatch - 2);
  EXPECT_EQ(pool.cached(), kCap + 1 - (StackPool::kShardBatch - 2));
}

}  // namespace
}  // namespace lpt
