#include "runtime/sync.hpp"

#include "common/assert.hpp"
#include "common/cpu.hpp"
#include "common/time.hpp"
#include "prof/prof.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/park.hpp"

namespace lpt {

namespace {

// ---- lock-contention profiling helpers (all called under the Mutex's
// guard unless noted; every one is a no-op with a null `ls`) ----

/// Lazily attach the Mutex's LockStats slot. Caller holds the guard, so the
/// plain member is race-free; slab exhaustion leaves the mutex unprofiled.
prof::LockStats* lock_stats(prof::LockStats*& slot) {
  if (slot == nullptr) slot = prof::Collector::instance().acquire_lock_stats();
  return slot;
}

void lock_note_acquire(prof::LockStats* ls) {
  if (ls != nullptr) ls->acquires.fetch_add(1, std::memory_order_relaxed);
}

/// The caller (or, on a direct handoff, the woken waiter) owns the lock from
/// this instant. A handed-off waiter's hold time includes its wakeup latency
/// — it *is* holding the lock while it waits to run, which is exactly what a
/// contention profile should show.
void lock_note_owned(prof::LockStats* ls) {
  if (ls != nullptr) ls->hold_start_ns = trace::now_ns();
}

/// The caller is about to park behind `owner`. The contention chain check
/// (the pathology ULT-aware locks target: waiting behind a holder that is
/// itself off-CPU) compares the opaque owner pointer against every worker's
/// current ULT — pointer compares only, the holder may be finalizing
/// concurrently.
void lock_note_contended(prof::LockStats* ls, Runtime* rt, void* site,
                         const ThreadCtl* owner) {
  if (ls == nullptr) return;
  ls->contended.fetch_add(1, std::memory_order_relaxed);
  std::uintptr_t none = 0;
  ls->site.compare_exchange_strong(
      none, reinterpret_cast<std::uintptr_t>(site), std::memory_order_relaxed);
  if (owner == nullptr || rt == nullptr) return;
  for (int r = 0; r < rt->num_workers(); ++r) {
    if (rt->worker(r).current_ult.load(std::memory_order_acquire) == owner)
      return;  // the holder is on a core; normal contention
  }
  ls->chains.fetch_add(1, std::memory_order_relaxed);
}

/// A parked waiter woke as the new owner (direct handoff already stamped
/// hold_start_ns under the guard in unlock); record its wait time.
/// Called WITHOUT the guard — touches only atomics/histograms.
void lock_note_waited(prof::LockStats* ls, const ThreadCtl* self,
                      std::int64_t wait_start, void* site) {
  if (ls == nullptr || wait_start == 0) return;
  const std::int64_t ns = trace::now_ns() - wait_start;
  ls->wait_ns.record(ns);
  LPT_TRACE_EVENT(trace::EventType::kLockContended, self->trace_id,
                  static_cast<std::uint64_t>(ns < 0 ? 0 : ns),
                  static_cast<std::uint64_t>(
                      reinterpret_cast<std::uintptr_t>(site)));
}

/// The owner is releasing: close its hold interval.
void lock_note_release(prof::LockStats* ls) {
  if (ls == nullptr || ls->hold_start_ns == 0) return;
  ls->hold_ns.record(trace::now_ns() - ls->hold_start_ns);
  ls->hold_start_ns = 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

void Mutex::lock() {
  ThreadCtl* self = detail::require_ult("lpt::Mutex::lock outside ULT context");
  acquire(self, __builtin_return_address(0), 0);
}

bool Mutex::try_lock_for(std::chrono::nanoseconds timeout) {
  ThreadCtl* self =
      detail::require_ult("lpt::Mutex::try_lock_for outside ULT context");
  if (timeout.count() > 0)
    return acquire(self, __builtin_return_address(0),
                   now_ns() + timeout.count());
  detail::cancel_point(self);
  return try_lock();
}

bool Mutex::acquire(ThreadCtl* self, void* site, std::int64_t deadline) {
  detail::cancel_point(self);  // before acquisition: nothing held yet
  detail::begin_no_preempt(self);
  for (;;) {
    q_.lock().lock();
    prof::LockStats* ls = prof::locks_on() ? lock_stats(prof_) : nullptr;
    if (!locked_) {
      lock_note_acquire(ls);
      take(self, ls);
      q_.lock().unlock();
      detail::end_no_preempt(self);
      return true;
    }
    ThreadCtl* const owner = owner_.load(std::memory_order_relaxed);
    if (deadline != 0 && owner == self) {
      // A timed relock by the owner would park behind itself until the
      // timeout (and timed waits are invisible to the deadlock detector).
      q_.lock().unlock();
      detail::end_no_preempt(self);
      return false;
    }
    lock_note_acquire(ls);
    if (deadline == 0 &&
        q_.self_deadlock(self, owner == self, prof::WaitKind::kMutex))
      continue;
    lock_note_contended(ls, self->rt, site, owner);
    const std::int64_t wait_start = ls != nullptr ? trace::now_ns() : 0;
    // Direct handoff: unlock() keeps `locked_` set and wakes us as the
    // owner. A timed waiter that loses the race to unlock() owns the mutex
    // and reports success even if late.
    const WaitResult r = q_.wait(self, prof::WaitKind::kMutex, site,
                                 deadline, park::Edge{&owner_, 1, nullptr},
                                 nullptr);
    if (r == WaitResult::kBroken) continue;  // not the owner: retry
    if (r == WaitResult::kWoken) lock_note_waited(ls, self, wait_start, site);
    detail::end_no_preempt(self);  // cancellation point
    return r == WaitResult::kWoken;
  }
}

void Mutex::take(ThreadCtl* t, prof::LockStats* ls) {
  locked_ = true;
  owner_.store(t, std::memory_order_relaxed);
  park::hold(t->parking, this);
  lock_note_owned(ls);
}

bool Mutex::try_lock() {
  ThreadCtl* self =
      detail::require_ult("lpt::Mutex::try_lock outside ULT context");
  detail::begin_no_preempt(self);
  q_.lock().lock();
  const bool got = !locked_;
  if (got) {
    prof::LockStats* ls = prof::locks_on() ? lock_stats(prof_) : nullptr;
    lock_note_acquire(ls);
    take(self, ls);
  }
  q_.lock().unlock();
  detail::end_no_preempt(self);
  return got;
}

void Mutex::unlock() {
  // Callable from ULT context and from the scheduler (condvar-wait release),
  // so owner bookkeeping uses owner_ — not the calling context.
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  LPT_CHECK_MSG(locked_, "unlock of unowned lpt::Mutex");
  ThreadCtl* const owner = owner_.load(std::memory_order_relaxed);
  if (owner != nullptr) park::drop(owner->parking, this);
  release(Runtime::kWakerFromTls);
  detail::end_no_preempt(self);
}

void Mutex::release(std::uint32_t waker) {
  prof::LockStats* ls = prof::locks_on() ? prof_ : nullptr;
  lock_note_release(ls);
  ThreadCtl* next = q_.pop_front();
  // Ownership transfers before the wake, so edges never dangle; `locked_`
  // stays set across a handoff.
  if (next == nullptr) {
    owner_.store(nullptr, std::memory_order_relaxed);
    locked_ = false;
  } else {
    take(next, ls);
  }
  q_.lock().unlock();
  WaitQueue::wake(next, waker);
}

bool Mutex::held_by_caller() const {
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) return false;
  auto* m = const_cast<Mutex*>(this);
  detail::begin_no_preempt(self);
  m->q_.lock().lock();
  const bool held = locked_ && owner_.load(std::memory_order_relaxed) == self;
  m->q_.lock().unlock();
  detail::end_no_preempt(self);
  return held;
}

bool Mutex::abandon(ThreadCtl* dead, bool release_lock) {
  // Finalize-context hook: `dead` ended while recorded as this mutex's
  // owner. Always clear owner_ (a later ThreadCtl at the same address must
  // not read as the holder); force-unlock with handoff only when asked.
  q_.lock().lock();
  const bool held = locked_ && owner_.load(std::memory_order_relaxed) == dead;
  if (held) owner_.store(nullptr, std::memory_order_relaxed);
  if (!held || !release_lock) {
    q_.lock().unlock();
    return false;
  }
  // Causally the dead owner freed the lock, not the watchdog thread running
  // this hook — attribute the wake edge to it so trace_critical_path can
  // walk a survivor's chain back into the broken cycle.
  release(dead->trace_id);
  return true;
}

std::uint8_t Mutex::kind() const {
  return static_cast<std::uint8_t>(prof::WaitKind::kMutex);
}

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

void CondVar::wait(Mutex& m) { block(m, __builtin_return_address(0), 0); }

bool CondVar::wait_for(Mutex& m, std::chrono::nanoseconds timeout) {
  if (timeout.count() <= 0) {  // immediate timeout, m stays held
    detail::require_ult("lpt::CondVar::wait_for outside ULT context");
    return false;
  }
  return block(m, __builtin_return_address(0), now_ns() + timeout.count());
}

bool CondVar::block(Mutex& m, void* site, std::int64_t deadline) {
  ThreadCtl* self = detail::require_ult("lpt::CondVar wait outside ULT context");
  detail::begin_no_preempt(self);
  q_.lock().lock();
  // No owner edge: a condvar waiter can never be a cycle member (it waits on
  // a notify, not on a thread). The scheduler releases the queue lock and
  // *then* m after our context is saved, so a signaler can neither miss us
  // nor wake us before we are suspended.
  const WaitResult r =
      q_.wait(self, prof::WaitKind::kCondVar, site, deadline, {}, &m);
  // Cancellation point — fires while m is NOT held, so a cancelled waiter
  // never strands the user mutex.
  detail::end_no_preempt(self);
  m.lock();
  return r != WaitResult::kTimedOut;
}

void CondVar::notify_one() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  ThreadCtl* t = q_.pop_front();
  q_.lock().unlock();
  WaitQueue::wake(t);
  detail::end_no_preempt(self);
}

void CondVar::notify_all() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  ThreadCtl* ts = q_.take_all();
  q_.lock().unlock();
  WaitQueue::wake(ts);
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

Barrier::Barrier(int parties) : parties_(parties) { LPT_CHECK(parties >= 1); }

void Barrier::arrive_and_wait() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::require_ult("lpt::Barrier outside ULT context");
  detail::begin_no_preempt(self);
  q_.lock().lock();
  if (++arrived_ < parties_) {
    q_.wait(self, prof::WaitKind::kBarrier, site, 0, {}, nullptr);
  } else {
    arrived_ = 0;  // the last arriver releases the phase
    ThreadCtl* ts = q_.take_all();
    q_.lock().unlock();
    WaitQueue::wake(ts);
  }
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// BusyFlag
// ---------------------------------------------------------------------------

void BusyFlag::wait(WaitMode mode) const {
  void* const site = __builtin_return_address(0);
  if (is_set()) return;
  // BusyFlag never parks — the wait burns a core by design (§4.1). It is
  // still wait time, so the profiler attributes the spin interval to the
  // callsite like a blocking primitive would (kBusyFlag entries in the wait
  // table are on-CPU spins, not suspensions).
  const std::int64_t t0 = prof::offcpu_on() ? trace::now_ns() : 0;
  while (!is_set()) {
    if (mode == WaitMode::kSpinWithYield) {
      this_thread::yield();
    } else {
      for (int i = 0; i < 64; ++i) cpu_pause();
    }
  }
  if (t0 != 0)
    prof::record_wait(prof::WaitKind::kBusyFlag,
                      reinterpret_cast<std::uintptr_t>(site),
                      trace::now_ns() - t0);
}

}  // namespace lpt
