// TSan-clean unit tests of the parking registry's lists (runtime/park.hpp):
// link/unlink, the settle routine shared by timed-wait expiry and the
// deadlock break, the held-set/holder-slot symmetry, and the disarmed
// policy — plus the non-switching WaitQueue operations
// (runtime/wait_queue.hpp) — all on plain std::threads without a Runtime
// or fiber switches, so the ThreadSanitizer stage of scripts/check.sh can
// prove the locking protocol race-free. Runs in the normal stage too.
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

/// A stand-in for Mutex/RwLock: the registry only calls back into it.
struct FakeLock : park::Ownable {
  bool abandon(ThreadCtl*, bool) override { return false; }
  std::uint8_t kind() const override { return 1; }
};

/// Park `t` on `q` the way WaitQueue::wait does: join the queue, then link
/// under the queue's lock.
void park_on(ThreadCtl* t, WaitQueue& q, park::List& list,
             std::int64_t deadline, const park::Edge& edge = {}) {
  SpinlockGuard g(q.lock());
  q.push_back(t);
  t->wait_result = WaitResult::kWoken;
  park::link(t, list, &q, 1, deadline, edge);
}

std::vector<ThreadCtl*> linked(park::List& list) {
  SpinlockGuard g(list.lock);
  std::vector<ThreadCtl*> out;
  for (ThreadCtl* t = list.head; t != nullptr; t = t->parking.next)
    out.push_back(t);
  return out;
}

TEST(Park, DisarmedRegistersNothing) {
  park::disarm();
  EXPECT_FALSE(park::links(0)) << "an untimed wait stays off the lists";
  EXPECT_TRUE(park::links(12345)) << "timed waits are linked for expiry";
  ThreadCtl t;
  FakeLock lock;
  EXPECT_FALSE(park::hold(t.parking, &lock));
  std::atomic<ThreadCtl*> slots[2] = {};
  EXPECT_FALSE(park::record(&lock, slots, 2, &t));
  EXPECT_EQ(slots[0].load(), nullptr);
  EXPECT_EQ(t.parking.n_held, 0);
  park::unlink(&t);  // never linked: a no-op

  ArmedRegistry armed;
  EXPECT_TRUE(park::links(0));
}

TEST(Park, ParkUnparkRoundTrip) {
  park::List list;
  WaitQueue q;
  ThreadCtl t[3];
  for (auto& x : t) park_on(&x, q, list, 0);
  EXPECT_EQ(list.count.load(), 3u);
  EXPECT_EQ(linked(list), (std::vector<ThreadCtl*>{&t[2], &t[1], &t[0]}));
  q.take_all();
  park::unlink(&t[1]);  // the middle entry
  EXPECT_EQ(t[1].parking.list, nullptr);
  EXPECT_EQ(linked(list), (std::vector<ThreadCtl*>{&t[2], &t[0]}));
  park::unlink(&t[1]);  // already unlinked: a no-op
  park::unlink(&t[2]);  // the head
  park::unlink(&t[0]);
  EXPECT_EQ(list.head, nullptr);
  EXPECT_EQ(list.count.load(), 0u);
}

TEST(Park, SettleRemovesRecordsAndUnlinks) {
  park::List list;
  WaitQueue q;
  ThreadCtl timed;
  ThreadCtl victim;
  park_on(&timed, q, list, 1);
  park_on(&victim, q, list, 0);
  {
    SpinlockGuard g(list.lock);
    EXPECT_TRUE(park::settle(&timed, WaitResult::kTimedOut));
    EXPECT_TRUE(park::settle(&victim, WaitResult::kBroken));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(list.head, nullptr);
  EXPECT_EQ(list.count.load(), 0u);
  EXPECT_EQ(timed.wait_result, WaitResult::kTimedOut);
  EXPECT_FALSE(timed.cancel_requested.load());
  EXPECT_EQ(victim.wait_result, WaitResult::kBroken);
  EXPECT_EQ(victim.cancel_fault, FaultKind::kDeadlock);
  EXPECT_TRUE(victim.cancel_requested.load());
  park::unlink(&victim);  // its own unlink after the wake is a no-op
}

TEST(Park, SettleLosesToTheNormalWakerAndToABusyQueue) {
  park::List list;
  WaitQueue q;
  ThreadCtl t;
  park_on(&t, q, list, 1);
  {
    SpinlockGuard g(q.lock());  // a waker is inside the primitive
    SpinlockGuard l(list.lock);
    EXPECT_FALSE(park::settle(&t, WaitResult::kTimedOut));
  }
  {
    SpinlockGuard g(q.lock());
    EXPECT_EQ(q.pop_front(), &t);  // the normal waker wins
  }
  {
    SpinlockGuard l(list.lock);
    EXPECT_FALSE(park::settle(&t, WaitResult::kTimedOut));
  }
  EXPECT_EQ(t.wait_result, WaitResult::kWoken);
  EXPECT_EQ(t.parking.list, &list) << "the waiter unlinks itself";
  park::unlink(&t);
  EXPECT_EQ(list.count.load(), 0u);
}

// Holder slots and held sets stay symmetric when either side is full: a
// thread is in a lock's slots exactly when the lock is in its set.
TEST(Park, OwnerSlotsTrackAndOverflow) {
  ArmedRegistry armed;
  FakeLock lock;
  std::atomic<ThreadCtl*> slots[park::kMaxReaders] = {};
  ThreadCtl readers[park::kMaxReaders + 1];
  for (auto& r : readers) park::record(&lock, slots, park::kMaxReaders, &r);
  int recorded = 0;
  for (auto& r : readers) recorded += r.parking.n_held;
  EXPECT_EQ(recorded, park::kMaxReaders) << "slots full: the extra reader "
                                            "must not hold the lock either";
  EXPECT_EQ(readers[park::kMaxReaders].parking.n_held, 0);
  EXPECT_FALSE(park::unrecord(&lock, slots, park::kMaxReaders,
                              &readers[park::kMaxReaders]));
  for (int i = 0; i < park::kMaxReaders; ++i)
    EXPECT_TRUE(park::unrecord(&lock, slots, park::kMaxReaders, &readers[i]));
  for (auto& r : readers) EXPECT_EQ(r.parking.n_held, 0);

  // The other side: a thread whose held set is full takes no slot.
  ThreadCtl busy;
  FakeLock others[park::kMaxHeld];
  for (auto& o : others) EXPECT_TRUE(park::hold(busy.parking, &o));
  EXPECT_FALSE(park::record(&lock, slots, park::kMaxReaders, &busy));
  for (auto& s : slots) EXPECT_EQ(s.load(), nullptr);
  park::drop(busy.parking, &others[3]);
  EXPECT_TRUE(park::record(&lock, slots, park::kMaxReaders, &busy));
  EXPECT_EQ(busy.parking.n_held, park::kMaxHeld);
  EXPECT_TRUE(park::unrecord(&lock, slots, park::kMaxReaders, &busy));
  for (auto& o : others) park::drop(busy.parking, &o);
  EXPECT_EQ(busy.parking.n_held, 0);
}

// The core TSan target: std::threads park on their own queues, link onto two
// shared lists, and race their own "normal wake" against a scanner that
// snapshots every entry (including the holder edge) and settles the timed
// ones, exactly like the expiry scan and the deadlock break. Whoever removes
// a parker from its queue owns its wake; a settled parker's unlink must be a
// no-op and every list must drain to zero.
TEST(Park, ConcurrentChurnVsScan) {
  ArmedRegistry armed;
  constexpr int kParkers = 4;
  constexpr int kIters = 2000;
  park::List lists[2];
  std::atomic<bool> stop{false};
  struct Parker {
    ThreadCtl t;
    WaitQueue q;
    std::atomic<ThreadCtl*> holder{nullptr};
    std::atomic<bool> settled{false};  ///< the scanner's "wake"
  };
  Parker parkers[kParkers];

  std::thread scanner([&] {
    std::uint64_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (auto& list : lists) {
        std::vector<ThreadCtl*> woken;
        {
          SpinlockGuard g(list.lock);
          for (ThreadCtl* t = list.head; t != nullptr;) {
            ThreadCtl* const after = t->parking.next;
            const park::Edge& e = t->parking.edge;
            for (int k = 0; k < e.n_holders; ++k)
              seen += e.holders[k].load(std::memory_order_relaxed) != nullptr;
            if (t->parking.deadline != 0 &&
                park::settle(t, WaitResult::kTimedOut))
              woken.push_back(t);
            t = after;
          }
        }
        for (ThreadCtl* t : woken) {
          for (auto& p : parkers)
            if (&p.t == t) p.settled.store(true, std::memory_order_release);
        }
      }
    }
    (void)seen;
  });

  std::vector<std::thread> threads;
  for (int p = 0; p < kParkers; ++p) {
    threads.emplace_back([&, p] {
      Parker& me = parkers[p];
      for (int i = 0; i < kIters; ++i) {
        me.holder.store(&me.t, std::memory_order_relaxed);
        park_on(&me.t, me.q, lists[(p + i) & 1], (i & 1) != 0 ? 1 : 0,
                park::Edge{&me.holder, 1, nullptr});
        if ((i & 1) != 0) std::this_thread::yield();  // let the scanner in
        bool removed;
        {
          SpinlockGuard g(me.q.lock());
          removed = me.q.remove(&me.t);
        }
        if (!removed) {
          while (!me.settled.load(std::memory_order_acquire)) {
          }
          me.settled.store(false, std::memory_order_relaxed);
          EXPECT_EQ(me.t.wait_result, WaitResult::kTimedOut);
          EXPECT_EQ(me.t.parking.list, nullptr);
        }
        park::unlink(&me.t);
        me.holder.store(nullptr, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  for (auto& list : lists) {
    EXPECT_EQ(list.head, nullptr);
    EXPECT_EQ(list.count.load(), 0u);
  }
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
