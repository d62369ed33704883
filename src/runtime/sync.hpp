// ULT-aware synchronization primitives. A blocked ULT suspends to its
// worker's scheduler (so the core keeps doing useful work) instead of
// blocking the kernel thread — one of the "lightweight synchronization
// primitives" benefits the paper attributes to M:N threads (§3.3).
//
// All primitives may only be used from ULT context. Internal spinlocks are
// held under NoPreemptGuard so a preemption can never strand a lock (§3.5.3).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "runtime/park.hpp"
#include "runtime/wait_queue.hpp"

namespace lpt {

struct ThreadCtl;

namespace prof {
struct LockStats;
}

/// Mutual exclusion on one atomic state word. Uncontended lock, try_lock and
/// unlock are one CAS each; the WaitQueue guard is taken only on contention,
/// whether or not the lock profiler is armed. A contender spins briefly
/// while the owner runs on a core, then parks. unlock() wakes the head
/// waiter without giving it the lock, so the releaser or a spinner may take
/// it first (barging); other callers park behind the woken waiter until it
/// has run. The woken waiter competes again and, if it loses, parks again
/// at the head. A waiter that has waited >= 1 ms asks for the lock,
/// and the next unlock hands it over directly, which bounds starvation.
class Mutex : park::Ownable {
 public:
  void lock();
  bool try_lock();
  /// Blocking try_lock with a timeout (~1 ms granularity, timed-wait
  /// registry) and a cancellation point. False on timeout, and at once when
  /// the caller already owns the mutex; on true the caller owns the mutex.
  /// A timed waiter woken by an unlock competes like any other; one that
  /// loses waits again until its deadline, and one handed the lock by a
  /// starvation handoff owns it and reports success even if late.
  bool try_lock_for(std::chrono::nanoseconds timeout);
  void unlock();

  /// True when the calling ULT currently owns this mutex. Powers the compat
  /// layer's EDEADLK check; meaningful only from ULT context (false outside).
  /// Owner identity is tracked unconditionally (one pointer store per
  /// acquire), independent of the parking registry's arming.
  bool held_by_caller() const;

 private:
  /// Take the lock for `self` if the word is free, whether or not threads
  /// are parked on it (one CAS); take() then records the owner. With
  /// `defer`, it leaves a free word to a woken waiter (yields_to_woken).
  bool try_grab(ThreadCtl* self, bool defer);
  /// State `s` has a woken waiter that has not run yet (kWoken), and the
  /// caller must let it take the lock first — unless the caller is the
  /// releaser, whose relock at once is the point of barging.
  bool yields_to_woken(std::uint32_t s, const ThreadCtl* self) const;
  /// Spin a bounded number of pauses while the owner runs on some worker;
  /// true once try_grab() took the lock. Preemptible: no guard is held.
  bool spin(ThreadCtl* self);
  /// lock()/try_lock_for() contended body; `deadline` as for WaitQueue::wait.
  bool acquire(ThreadCtl* self, void* site, std::int64_t deadline);
  /// Record `t` as the owner of the held lock: owner_, plus t's held set
  /// while the parking registry is armed. `t` is the caller, or a parked
  /// waiter being handed the lock (guard held).
  void take(ThreadCtl* t);
  /// Release with waiters (guard held; releases it): free the word and wake
  /// the head waiter, or hand the lock to it when it asked (kHandoff).
  /// `releaser` (null outside a ULT) may retake the word ahead of the woken
  /// waiter; `waker` names the causal waker of the wake edge.
  void release(ThreadCtl* releaser, std::uint32_t waker);

  /// park::Ownable: `dead` ended while recorded as owner. Clears owner_ and,
  /// when `release_lock`, force-unlocks as unlock() would.
  /// Returns whether a release happened.
  bool abandon(ThreadCtl* dead, bool release_lock) override;
  std::uint8_t kind() const override;

  WaitQueue q_;  ///< guard + waiters
  /// kLocked | kWaiters | kHandoff | kWoken (sync.cpp). kLocked is set by a
  /// CAS from a free word; the other bits change only under the guard.
  std::atomic<std::uint32_t> state_{0};
  /// The thread whose unlock set kWoken (written under the guard; compared
  /// by address only).
  std::atomic<ThreadCtl*> releaser_{nullptr};
  /// Owning ULT while locked (compared by address only — never dereferenced
  /// after the owner may have died; abandon() clears it first). Written by
  /// the owner right after it takes the word and cleared right before it
  /// frees it, or under the guard on a handoff; relaxed-atomic because it
  /// doubles as the deadlock detector's owner record, which the detector
  /// reads without the guard.
  std::atomic<ThreadCtl*> owner_{nullptr};
  /// Contention-profile slot (docs/observability.md "Profiling"): attached
  /// by the first caller that gets the lock while the lock profiler is
  /// armed; null forever otherwise. Points into the collector's never-freed
  /// slab, so the pointer stays valid even when this Mutex outlives the
  /// Runtime that profiled it.
  std::atomic<prof::LockStats*> prof_{nullptr};
};

/// Condition variable over lpt::Mutex.
class CondVar {
 public:
  /// Atomically release `m` and block; re-acquires `m` before returning.
  void wait(Mutex& m);
  /// wait() with a timeout (~1 ms granularity) and a cancellation point.
  /// Returns false when the wait timed out before a notify; `m` is held on
  /// either return. A nonpositive timeout returns false without releasing
  /// `m`. Spurious-wakeup-free (direct handoff), so no predicate loop is
  /// required just for this primitive — callers still need one when the
  /// predicate can be consumed by another woken waiter.
  bool wait_for(Mutex& m, std::chrono::nanoseconds timeout);
  void notify_one();
  void notify_all();

 private:
  /// wait()/wait_for() body; `deadline` as for WaitQueue::wait. False on
  /// timeout; `m` is re-held on return.
  bool block(Mutex& m, void* site, std::int64_t deadline);

  WaitQueue q_;
};

/// Cooperative barrier for a fixed number of ULT participants.
class Barrier {
 public:
  explicit Barrier(int parties);
  /// Blocks until all parties arrive; the last arriver releases the rest.
  void arrive_and_wait();

 private:
  WaitQueue q_;
  const int parties_;
  int arrived_ = 0;
};

/// A memory flag with *busy-wait* semantics — the synchronization pattern of
/// OpenMP-parallel Intel MKL that deadlocks on nonpreemptive M:N threads
/// (§4.1). `WaitMode` selects the paper's three behaviours:
///   kSpin           pure busy loop: needs implicit preemption to be safe
///   kSpinWithYield  the "reverse-engineered MKL" hack: explicit yield in
///                   the loop, works on nonpreemptive threads
class BusyFlag {
 public:
  enum class WaitMode { kSpin, kSpinWithYield };

  void set() { flag_.store(1, std::memory_order_release); }
  void clear() { flag_.store(0, std::memory_order_release); }
  bool is_set() const { return flag_.load(std::memory_order_acquire) != 0; }

  /// Busy-wait until set. With kSpin, progress relies on the caller being
  /// implicitly preemptible (or on spare cores).
  void wait(WaitMode mode) const;

 private:
  std::atomic<std::uint32_t> flag_{0};
};

}  // namespace lpt
