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

// Mutex::state_ bits.
constexpr std::uint32_t kLocked = 1u << 0;   ///< held
constexpr std::uint32_t kWaiters = 1u << 1;  ///< q_ may be non-empty
/// A starving waiter asked for the lock: the next unlock hands it to the
/// head waiter instead of freeing the word (set only while kLocked).
constexpr std::uint32_t kHandoff = 1u << 2;
/// An unlock woke a waiter that has not run yet: until it has, a free word
/// is left to it, to the releaser and to spinners; others park behind it.
constexpr std::uint32_t kWoken = 1u << 3;

/// Pauses a contender spends on the word while the owner runs before it
/// parks: long enough for a short critical section to end, far shorter than
/// the park/wake round trip it saves.
constexpr int kSpinPauses = 64;
/// A waiter parked this long (since its first park) asks for direct handoff:
/// far above a normal contended wait (microseconds), so only a waiter that
/// keeps losing to barging pays the handoff convoy.
constexpr std::int64_t kStarveNs = 1'000'000;

/// True when `owner` is some worker's running ULT — pointer compares only,
/// the holder may be finalizing concurrently.
bool owner_running(Runtime* rt, const ThreadCtl* owner) {
  if (owner == nullptr || rt == nullptr) return false;
  for (int r = 0; r < rt->num_workers(); ++r) {
    if (rt->worker(r).current_ult.load(std::memory_order_acquire) == owner)
      return true;
  }
  return false;
}

// ---- lock-contention profiling (docs/observability.md "Profiling"): the
// acquisition path is the same armed or not; this only records ----

/// Lock-profile one finished lock()/try_lock_for()/try_lock() call. A caller
/// that got the lock attaches the Mutex's stats slot on its first armed call
/// (the lock word orders owners, so no two attach) and opens the hold
/// interval; a caller that did not uses the slot only once attached. A call
/// that parked counts as contended, as a chain when its first park was
/// behind an owner that was off-CPU (the pathology ULT-aware locks target),
/// and records its lock wait: the sum of its own parks' wait records.
void profile_call(std::atomic<prof::LockStats*>& slot, bool got,
                  void* site = nullptr, bool parked = false, bool chain = false,
                  std::uint64_t waited_ns = 0) {
  prof::LockStats* ls = slot.load(std::memory_order_acquire);
  if (ls == nullptr && got) {
    ls = prof::Collector::instance().acquire_lock_stats();
    slot.store(ls, std::memory_order_release);
  }
  if (ls == nullptr) return;
  ls->acquires.fetch_add(1, std::memory_order_relaxed);
  if (got) ls->hold_start_ns = trace::now_ns();
  if (!parked) return;
  ls->contended.fetch_add(1, std::memory_order_relaxed);
  if (chain) ls->chains.fetch_add(1, std::memory_order_relaxed);
  std::uintptr_t none = 0;
  ls->site.compare_exchange_strong(
      none, reinterpret_cast<std::uintptr_t>(site), std::memory_order_relaxed);
  ls->wait_ns.record(static_cast<std::int64_t>(waited_ns));
}

}  // namespace

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

void Mutex::lock() {
  ThreadCtl* self = detail::require_ult("lpt::Mutex::lock outside ULT context");
  detail::cancel_point(self);  // before acquisition: nothing held yet
  if (!try_grab(self, true))
    acquire(self, __builtin_return_address(0), 0);
  else if (prof::locks_on())
    profile_call(prof_, true);
}

bool Mutex::try_lock_for(std::chrono::nanoseconds timeout) {
  ThreadCtl* self =
      detail::require_ult("lpt::Mutex::try_lock_for outside ULT context");
  detail::cancel_point(self);
  if (timeout.count() <= 0) return try_lock();
  if (!try_grab(self, true))
    return acquire(self, __builtin_return_address(0),
                   now_ns() + timeout.count());
  if (prof::locks_on()) profile_call(prof_, true);
  return true;
}

bool Mutex::try_grab(ThreadCtl* self, bool defer) {
  std::uint32_t s = state_.load(std::memory_order_relaxed);
  while ((s & kLocked) == 0) {
    if (defer && yields_to_woken(s, self)) return false;
    if (state_.compare_exchange_weak(s, s | kLocked, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      take(self);
      return true;
    }
  }
  return false;
}

bool Mutex::yields_to_woken(std::uint32_t s, const ThreadCtl* self) const {
  return (s & kWoken) != 0 && releaser_.load(std::memory_order_relaxed) != self;
}

bool Mutex::spin(ThreadCtl* self) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (!owner_running(self->rt, owner_.load(std::memory_order_relaxed)))
      return false;
    cpu_pause();
    if (try_grab(self, false)) return true;
  }
  return false;
}

bool Mutex::acquire(ThreadCtl* self, void* site, std::int64_t deadline) {
  const std::uint64_t blocked_before = self->acct.blocked_ns;
  std::int64_t parked_at = 0;  // clock at the first park (starvation policy)
  bool chain = false;          // ... and its owner was off-CPU then
  auto done = [&](bool got) {
    if (prof::locks_on())
      profile_call(prof_, got, site, parked_at != 0, chain,
                   self->acct.blocked_ns - blocked_before);
    return got;
  };
  for (;;) {
    if (owner_.load(std::memory_order_relaxed) != self && spin(self))
      return done(true);
    detail::begin_no_preempt(self);
    q_.lock().lock();
    // Take the word if it is free and not left to a woken waiter. Otherwise
    // announce a waiter (and, once starving on a held word, ask for handoff)
    // in a CAS that a fast-path unlock races: that unlock either sees the
    // bits and takes the guard, or frees the word first and we take it on
    // the next round.
    const bool starving =
        parked_at != 0 && trace::now_ns() - parked_at >= kStarveNs;
    bool got = false;
    for (std::uint32_t s = state_.load(std::memory_order_relaxed);;) {
      if ((s & kLocked) == 0 && !yields_to_woken(s, self)) {
        got = state_.compare_exchange_weak(s, s | kLocked,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed);
        if (got) break;
        continue;
      }
      const std::uint32_t bits =
          kWaiters | (starving && (s & kLocked) != 0 ? kHandoff : 0u);
      if (state_.compare_exchange_weak(s, s | bits,
                                       std::memory_order_relaxed))
        break;
    }
    if (got) {
      take(self);
      q_.lock().unlock();
      detail::end_no_preempt(self);
      return done(true);
    }
    ThreadCtl* const owner = owner_.load(std::memory_order_relaxed);
    if (deadline != 0 && (owner == self || now_ns() >= deadline)) {
      // A timed relock by the owner would park behind itself until the
      // timeout (and timed waits are invisible to the deadlock detector).
      // A stale kWaiters only sends the next unlock through the guard.
      q_.lock().unlock();
      detail::end_no_preempt(self);
      return done(false);
    }
    if (deadline == 0 &&
        q_.self_deadlock(self, owner == self, prof::WaitKind::kMutex)) {
      detail::end_no_preempt(self);
      continue;
    }
    // A waiter that was woken and lost the lock waits again at the head;
    // a newcomer waits at the tail, behind any woken waiter too.
    const bool again = parked_at != 0;
    if (!again) {
      parked_at = trace::now_ns();
      chain = prof::locks_on() && owner != nullptr &&
              !owner_running(self->rt, owner);
    }
    const WaitResult r = q_.wait(self, prof::WaitKind::kMutex, site, deadline,
                                 park::Edge{&owner_, 1, nullptr}, nullptr,
                                 /*front=*/again);
    if (r == WaitResult::kWoken) {
      if (owner_.load(std::memory_order_relaxed) == self) {  // handed over
        detail::end_no_preempt(self);  // cancellation point
        return done(true);
      }
      // Woken to compete. This thread has run, so it clears kWoken, and it
      // takes a free word in the same guarded section: threads that parked
      // behind it while the word was free rely on that.
      q_.lock().lock();
      state_.fetch_and(~kWoken, std::memory_order_relaxed);
      const bool won = try_grab(self, false);
      q_.lock().unlock();
      detail::end_no_preempt(self);  // cancellation point
      if (won) return done(true);
      continue;  // the word is held: spin on its owner, or park again
    }
    detail::end_no_preempt(self);  // cancellation point
    if (r == WaitResult::kTimedOut) return done(false);
    // Broken out of the wait: compete again.
  }
}

void Mutex::take(ThreadCtl* t) {
  owner_.store(t, std::memory_order_relaxed);
  park::hold(t->parking, this);
}

bool Mutex::try_lock() {
  ThreadCtl* self =
      detail::require_ult("lpt::Mutex::try_lock outside ULT context");
  const bool got = try_grab(self, false);
  if (got && prof::locks_on()) profile_call(prof_, true);
  return got;
}

void Mutex::unlock() {
  // Callable from ULT context and from the scheduler (condvar-wait release),
  // so owner bookkeeping uses owner_ — not the calling context.
  ThreadCtl* const owner = owner_.load(std::memory_order_relaxed);
  if (prof::locks_on()) {  // close the owner's hold interval
    prof::LockStats* ls = prof_.load(std::memory_order_relaxed);
    if (ls != nullptr && ls->hold_start_ns != 0) {
      ls->hold_ns.record(trace::now_ns() - ls->hold_start_ns);
      ls->hold_start_ns = 0;
    }
  }
  if (owner != nullptr) park::drop(owner->parking, this);
  owner_.store(nullptr, std::memory_order_relaxed);
  std::uint32_t s = kLocked;
  if (state_.compare_exchange_strong(s, 0, std::memory_order_release,
                                     std::memory_order_relaxed))
    return;
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  LPT_CHECK_MSG((state_.load(std::memory_order_relaxed) & kLocked) != 0,
                "unlock of unowned lpt::Mutex");
  release(self, Runtime::kWakerFromTls);
  detail::end_no_preempt(self);
}

void Mutex::release(ThreadCtl* releaser, std::uint32_t waker) {
  // The word is locked and the guard is held, so nobody else writes it:
  // plain stores suffice.
  const std::uint32_t s = state_.load(std::memory_order_relaxed);
  ThreadCtl* next = q_.pop_front();
  const std::uint32_t kept = (q_.empty() ? 0 : kWaiters) | (s & kWoken);
  if (next != nullptr && (s & kHandoff) != 0) {
    // Starvation handoff: ownership transfers before the wake, so edges
    // never dangle, and the word stays locked.
    take(next);
    state_.store(kLocked | kept, std::memory_order_relaxed);
  } else if (next != nullptr) {
    releaser_.store(releaser, std::memory_order_relaxed);
    state_.store(kept | kWoken, std::memory_order_release);
  } else {
    state_.store(kept, std::memory_order_release);
  }
  q_.lock().unlock();
  WaitQueue::wake(next, waker);
}

bool Mutex::held_by_caller() const {
  // owner_ equals the caller only between the caller's own take() and
  // unlock() (or a handoff made while it was parked), so no guard is needed.
  ThreadCtl* self = detail::current_ult_or_null();
  return self != nullptr && owner_.load(std::memory_order_relaxed) == self;
}

bool Mutex::abandon(ThreadCtl* dead, bool release_lock) {
  // Finalize-context hook: `dead` ended while recorded as this mutex's
  // owner. Always clear owner_ (a later ThreadCtl at the same address must
  // not read as the holder); force-unlock only when asked.
  q_.lock().lock();
  const bool held = (state_.load(std::memory_order_relaxed) & kLocked) != 0 &&
                    owner_.load(std::memory_order_relaxed) == dead;
  if (held) owner_.store(nullptr, std::memory_order_relaxed);
  if (!held || !release_lock) {
    q_.lock().unlock();
    return false;
  }
  // Causally the dead owner freed the lock, not the service thread running
  // this hook — attribute the wake edge to it so trace_critical_path can
  // walk a survivor's chain back into the broken cycle.
  release(nullptr, dead->trace_id);
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
