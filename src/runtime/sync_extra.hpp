// Additional ULT-aware synchronization primitives: reader-writer lock,
// counting semaphore, one-shot latch, and a Go-style wait group. Like the
// core primitives (sync.hpp) they block cooperatively — the worker keeps
// executing other threads — and guard their internal spinlocks against
// preemption (§3.5.3).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/futex.hpp"
#include "runtime/park.hpp"
#include "runtime/wait_queue.hpp"

namespace lpt {

struct ThreadCtl;

/// Writer-preferring reader-writer lock for ULTs.
class RwLock : park::Ownable {
 public:
  void lock_shared();
  void unlock_shared();
  void lock();
  void unlock();

 private:
  /// lock()/lock_shared() body.
  void acquire(bool exclusive, void* site);
  /// After a release (guard held; releases it): hand the lock to the first
  /// waiting writer once no reader remains, else — with no writer active
  /// or waiting — to every waiting reader. `waker` names the causal waker.
  void grant(std::uint32_t waker);
  /// park::Ownable: `dead` ended while recorded as a holder. A dead writer
  /// clears the writer slot and, when `release`, force-unlocks with normal
  /// handoff semantics; a dead reader drops its share. Returns whether a
  /// release/handoff happened.
  bool abandon(ThreadCtl* dead, bool release) override;
  std::uint8_t kind() const override;

  WaitQueue writers_q_;              ///< owns the guard
  WaitQueue readers_q_{writers_q_};  ///< shares writers_q_'s guard
  int readers_ = 0;        ///< active readers
  bool writer_ = false;    ///< active writer
  /// The deadlock detector's owner record, written under the guard and read
  /// without it. [0] is the writing ULT while writer_ (address-compared
  /// only; abandon() clears it before the owner can be freed), maintained
  /// unconditionally: it powers the synchronous write-after-write
  /// self-deadlock check. [1..] record up to park::kMaxReaders readers while
  /// the registry is armed (park::record: slot and held set, or neither).
  std::atomic<ThreadCtl*> holders_[park::kMaxHolders] = {};
};

/// Counting semaphore for ULTs.
class Semaphore {
 public:
  explicit Semaphore(int initial) : count_(initial) {}
  /// Decrement, blocking cooperatively while the count is zero.
  void acquire();
  /// Try to decrement without blocking.
  bool try_acquire();
  /// Blocking try_acquire with a timeout (~1 ms granularity, timed-wait
  /// registry) and a cancellation point. False on timeout, true when a unit
  /// was consumed (possibly handed off directly by release()).
  bool try_acquire_for(std::chrono::nanoseconds timeout);
  /// Increment and release one waiter if any.
  void release(int n = 1);

 private:
  /// acquire()/try_acquire_for() body; `deadline` as for WaitQueue::wait.
  bool take(ThreadCtl* self, void* site, std::int64_t deadline);

  WaitQueue q_;
  int count_;
};

/// One-shot latch: count_down() `count` times releases every waiter.
/// wait() is also callable from external (non-ULT) kernel threads.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}
  void count_down(int n = 1);
  void wait();
  bool try_wait() const { return done_.load(std::memory_order_acquire) != 0; }

 private:
  WaitQueue q_;
  int remaining_;
  std::atomic<std::uint32_t> done_{0};  // futex word for external waiters
};

/// Go-style wait group: add() work, done() it, wait() for the count to hit
/// zero. wait() is callable from ULTs and external threads; add() must not
/// race with the count reaching zero (the usual wait-group contract).
class WaitGroup {
 public:
  void add(int n = 1);
  void done();
  void wait();

 private:
  WaitQueue q_;
  int count_ = 0;
  std::atomic<std::uint32_t> zero_epoch_{0};  // futex word, bumped at zero
};

}  // namespace lpt
