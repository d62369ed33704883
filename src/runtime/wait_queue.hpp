// The one wait path behind every blocking primitive (Mutex, CondVar,
// Barrier, RwLock, Semaphore, Latch, WaitGroup, join and sleep).
//
// A WaitQueue owns the primitive's spinlock and an intrusive FIFO of parked
// ULTs threaded through ThreadCtl (wq_next, plus wq = the queue the thread
// is on, so membership is O(1) and parking never allocates). wait() runs the
// whole park sequence once: enqueue, the parking-registry link (park.hpp;
// it also arms timed-wait expiry), the wait record's tag, the suspend, and the
// unwinding of all of it at wake. Primitives keep only their own state machine: they decide
// under lock() whether to wait, and whom to pop and wake on release.
//
// Every wakeup — a notify, a lock handoff, a join, a timed-wait expiry, a
// deadlock break — removes the waiter under lock() and then calls wake().
// Whoever removes a waiter owns its requeue, so a thread is never woken
// twice and a timeout never coexists with a handed-off lock or unit.
#pragma once

#include <cstdint>

#include "common/spinlock.hpp"
#include "runtime/park.hpp"

namespace lpt {

struct ThreadCtl;
class Mutex;

namespace prof {
enum class WaitKind : std::uint8_t;
}

/// How a wait ended. The waker that removes the waiter records it (in
/// ThreadCtl::wait_result) under the queue's lock.
enum class WaitResult : std::uint8_t {
  kWoken,     ///< a notify/handoff/join woke it
  kTimedOut,  ///< the timed-wait expiry scan woke it (or a pending cancel)
  kBroken,    ///< the deadlock breaker cancelled it out of the wait
};

class WaitQueue {
 public:
  WaitQueue() = default;
  /// A second queue under `sibling`'s lock (RwLock keeps readers and
  /// writers in separate FIFOs under one guard).
  explicit WaitQueue(WaitQueue& sibling) : lock_(sibling.lock_) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// The primitive's guard. Held under NoPreemptGuard, like every spinlock.
  Spinlock& lock() { return *lock_; }

  /// Park `self` (the calling ULT, preemption masked, lock() held) until a
  /// waker removes it. lock() is released by the scheduler after the
  /// context save, then `release_after` (CondVar's user mutex) if non-null.
  /// `deadline` (absolute now_ns(); 0 = untimed) makes it a timed wait.
  /// `edge` names the owner edge for the deadlock detector. `front` parks
  /// at the head of the queue instead of the tail (a Mutex waiter that was
  /// woken, lost the lock and waits again keeps its place).
  /// On kBroken the cancellation point has already run (it returns only
  /// under an outer NoPreemptGuard); the caller retries or gives up.
  WaitResult wait(ThreadCtl* self, prof::WaitKind kind, void* site,
                  std::int64_t deadline, const park::Edge& edge,
                  Mutex* release_after, bool front = false);

  // All of the following require lock() held.
  bool empty() const { return head_ == nullptr; }
  bool contains(const ThreadCtl* t) const;
  void push_back(ThreadCtl* t);
  void push_front(ThreadCtl* t);
  /// Pop up to `n` waiters (all of them for n < 0) in FIFO order as a chain
  /// linked through wq_next (nullptr when empty); each popped thread's
  /// membership is cleared.
  ThreadCtl* take(int n);
  // An empty queue costs one load (uncontended unlock/notify paths).
  ThreadCtl* pop_front() { return empty() ? nullptr : take(1); }
  ThreadCtl* take_all() { return empty() ? nullptr : take(-1); }
  /// Unlink `t` from anywhere in the queue; false when it is not a member.
  bool remove(ThreadCtl* t);

  /// Runtime::kWakerFromTls: the wake edge names the calling ULT.
  static constexpr std::uint32_t kWakerFromTls = 0xffffffffu;
  /// Make every thread of a chain returned by take() (or one unlinked by
  /// remove()) runnable; nullptr is a no-op. Call without lock(). `waker`
  /// is the trace id of the causal waker (0 = timer / runtime).
  static void wake(ThreadCtl* chain, std::uint32_t waker = kWakerFromTls) {
    if (chain != nullptr) wake_chain(chain, waker);
  }

  /// Synchronous self-deadlock (relocking what `self` already holds, a
  /// 1-cycle): when `owned_by_self` and the parking registry is armed,
  /// release lock(), mark `self` a kDeadlock victim and run the
  /// cancellation point (no return unless under an outer NoPreemptGuard,
  /// which keeps the historical hang). Returns whether it fired — the
  /// caller then retries its acquire. Called with lock() held.
  bool self_deadlock(ThreadCtl* self, bool owned_by_self,
                     prof::WaitKind kind);

 private:
  static void wake_chain(ThreadCtl* chain, std::uint32_t waker);

  Spinlock own_;
  Spinlock* lock_ = &own_;
  ThreadCtl* head_ = nullptr;
  ThreadCtl* tail_ = nullptr;
};

}  // namespace lpt
