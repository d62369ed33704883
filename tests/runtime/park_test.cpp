// TSan-clean unit tests of the parking registry's slot protocol
// (runtime/park.hpp): versioned claim/free, the detector's seqlock-style
// scan with pinning, and owner add/remove bookkeeping — plus the
// non-switching WaitQueue operations (runtime/wait_queue.hpp) — all without
// a Runtime or fiber switches, so the ThreadSanitizer stage of
// scripts/check.sh can prove the lock-free parts race-free. Runs in the
// normal stage too.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/park.hpp"
#include "runtime/thread.hpp"
#include "runtime/wait_queue.hpp"

namespace lpt {
namespace {

struct ArmedRegistry {
  ArmedRegistry() { park::arm(/*deadlock_detection=*/true, false); }
  ~ArmedRegistry() { park::disarm(); }
};

TEST(Park, DisarmedRegistersNothing) {
  park::disarm();
  ThreadCtl tc;
  WaitQueue q;
  const std::uint32_t before = park::parked_count();
  park::park(&tc, 1, false, nullptr, nullptr, &q);
  EXPECT_EQ(tc.park_slot, 0u);
  EXPECT_EQ(park::parked_count(), before);
  park::unpark(&tc);  // must be a no-op
}

TEST(Park, ParkUnparkRoundTrip) {
  ArmedRegistry armed;
  ThreadCtl tc;
  tc.trace_id = 42;
  WaitQueue q;
  const std::uint32_t before = park::parked_count();
  q.lock().lock();
  q.push_back(&tc);
  park::park(&tc, 1, false, nullptr, nullptr, &q);
  q.lock().unlock();
  EXPECT_NE(tc.park_slot, 0u);
  EXPECT_EQ(park::parked_count(), before + 1);
  park::unpark(&tc);
  EXPECT_EQ(tc.park_slot, 0u);
  EXPECT_EQ(park::parked_count(), before);
}

TEST(Park, OwnerSlotsTrackAndOverflow) {
  ArmedRegistry armed;
  park::ResourceState* rs = park::acquire_resource(1, &armed, nullptr);
  ASSERT_NE(rs, nullptr);
  ThreadCtl owners[park::ResourceState::kMaxOwners + 1];
  for (auto& t : owners) park::add_owner(rs, &t);
  // The slab has kMaxOwners slots; the extra owner flips the overflow flag
  // instead of being inserted.
  EXPECT_TRUE(rs->owner_overflow.load(std::memory_order_relaxed));
  int tracked = 0;
  for (auto& t : owners) tracked += t.owned_tracked;
  EXPECT_EQ(tracked, park::ResourceState::kMaxOwners);
  for (auto& t : owners) park::remove_owner(rs, &t);
  for (auto& t : owners) EXPECT_EQ(t.owned_tracked, 0);
  for (auto& o : rs->owners)
    EXPECT_EQ(o.load(std::memory_order_relaxed), nullptr);
  // Tolerates null resources (slab exhaustion contract).
  park::add_owner(nullptr, &owners[0]);
  park::remove_owner(nullptr, &owners[0]);
  EXPECT_EQ(owners[0].owned_tracked, 0);
}

// The core TSan target: concurrent park/unpark churn against a detector-style
// scanner that seqlock-reads and pins occupied slots. Any protocol hole —
// torn payload reads, ABA reuse, pin/free races — shows up here.
TEST(Park, ConcurrentChurnVsScan) {
  ArmedRegistry armed;
  constexpr int kParkers = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};

  std::thread scanner([&] {
    std::uint64_t total = 0;
    while (!stop.load(std::memory_order_acquire)) total += park::debug_scan();
    (void)total;
  });

  std::vector<std::thread> parkers;
  for (int p = 0; p < kParkers; ++p) {
    parkers.emplace_back([p] {
      ThreadCtl tc;
      tc.trace_id = static_cast<std::uint32_t>(100 + p);
      WaitQueue q;
      park::ResourceState* rs =
          park::acquire_resource(1, &tc, nullptr);
      for (int i = 0; i < kIters; ++i) {
        park::add_owner(rs, &tc);
        q.lock().lock();
        q.push_back(&tc);
        park::park(&tc, 1, (i & 1) != 0, rs, nullptr, &q);
        q.lock().unlock();
        park::unpark(&tc);
        q.lock().lock();
        q.take_all();
        q.lock().unlock();
        park::remove_owner(rs, &tc);
      }
      EXPECT_EQ(tc.park_slot, 0u);
      EXPECT_EQ(tc.owned_tracked, 0);
    });
  }
  for (auto& t : parkers) t.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_EQ(park::parked_count(), 0u);
}

TEST(Park, SlotReuseKeepsCountExact) {
  ArmedRegistry armed;
  // Far more park/unpark cycles than slots: every park must reuse freed
  // slots (generation bumps) and the registered count must return to zero.
  ThreadCtl tc;
  WaitQueue q;
  for (int i = 0; i < 10'000; ++i) {
    q.lock().lock();
    q.push_back(&tc);
    park::park(&tc, 2, false, nullptr, nullptr, &q);
    q.lock().unlock();
    park::unpark(&tc);
    q.take_all();
  }
  EXPECT_EQ(park::parked_count(), 0u);
  EXPECT_EQ(park::slot_overflows(), 0u);
}

// ---------------------------------------------------------------------------
// WaitQueue: the intrusive FIFO operations (no parking, no Runtime)
// ---------------------------------------------------------------------------

/// Drain a chain returned by take()/pop_front() into a vector.
std::vector<ThreadCtl*> chain_of(ThreadCtl* t) {
  std::vector<ThreadCtl*> out;
  for (; t != nullptr; t = t->wq_next) out.push_back(t);
  return out;
}

TEST(WaitQueue, FifoOrder) {
  WaitQueue q;
  ThreadCtl t[4];
  for (auto& x : t) q.push_back(&x);
  for (auto& x : t) EXPECT_EQ(q.pop_front(), &x);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop_front(), nullptr);
  // The tail resets with the last pop: a refilled queue is FIFO again.
  q.push_back(&t[2]);
  q.push_back(&t[0]);
  EXPECT_EQ(chain_of(q.take_all()),
            (std::vector<ThreadCtl*>{&t[2], &t[0]}));
}

TEST(WaitQueue, RemoveFromMiddleKeepsOrder) {
  WaitQueue q;
  ThreadCtl t[5];
  for (auto& x : t) q.push_back(&x);
  EXPECT_TRUE(q.remove(&t[2]));
  EXPECT_FALSE(q.contains(&t[2]));
  EXPECT_EQ(t[2].wq, nullptr);
  EXPECT_TRUE(q.remove(&t[4]));  // the tail: later pushes must still link
  ThreadCtl extra;
  q.push_back(&extra);
  EXPECT_EQ(chain_of(q.take_all()),
            (std::vector<ThreadCtl*>{&t[0], &t[1], &t[3], &extra}));
}

TEST(WaitQueue, RemoveOfNonMemberReturnsFalse) {
  WaitQueue q;
  WaitQueue other;
  ThreadCtl a;
  ThreadCtl b;
  EXPECT_FALSE(q.remove(&a));  // empty queue
  q.push_back(&a);
  other.push_back(&b);
  EXPECT_FALSE(q.remove(&b));  // member of a different queue
  EXPECT_TRUE(other.contains(&b));
  EXPECT_TRUE(q.remove(&a));
  EXPECT_FALSE(q.remove(&a));  // already removed
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, TakeAllLeavesQueueEmpty) {
  WaitQueue q;
  ThreadCtl t[3];
  for (auto& x : t) q.push_back(&x);
  EXPECT_EQ(chain_of(q.take_all()),
            (std::vector<ThreadCtl*>{&t[0], &t[1], &t[2]}));
  EXPECT_TRUE(q.empty());
  for (auto& x : t) EXPECT_FALSE(q.contains(&x));
  EXPECT_EQ(q.take_all(), nullptr);
}

TEST(WaitQueue, TakeNPopsAPrefix) {
  WaitQueue q;
  ThreadCtl t[3];
  for (auto& x : t) q.push_back(&x);
  EXPECT_EQ(chain_of(q.take(2)), (std::vector<ThreadCtl*>{&t[0], &t[1]}));
  EXPECT_TRUE(q.contains(&t[2]));
  EXPECT_EQ(chain_of(q.take(5)), (std::vector<ThreadCtl*>{&t[2]}));
  EXPECT_EQ(q.take(1), nullptr);
}

TEST(WaitQueue, MembershipClearedOnPop) {
  WaitQueue q;
  ThreadCtl a;
  ThreadCtl b;
  q.push_back(&a);
  q.push_back(&b);
  EXPECT_TRUE(q.contains(&a));
  EXPECT_EQ(q.pop_front(), &a);
  EXPECT_FALSE(q.contains(&a));
  EXPECT_EQ(a.wq, nullptr);
  EXPECT_EQ(a.wq_next, nullptr);  // a popped thread is a chain of one
  EXPECT_TRUE(q.contains(&b));
}

TEST(WaitQueue, SiblingSharesTheLock) {
  WaitQueue first;
  WaitQueue second(first);
  EXPECT_EQ(&first.lock(), &second.lock());
  WaitQueue alone;
  EXPECT_NE(&alone.lock(), &first.lock());
}

}  // namespace
}  // namespace lpt
