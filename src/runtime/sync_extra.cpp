#include "runtime/sync_extra.hpp"

#include <climits>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "runtime/internal.hpp"
#include "runtime/park.hpp"
#include "prof/prof.hpp"

namespace lpt {

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

void RwLock::lock_shared() { acquire(false, __builtin_return_address(0)); }

void RwLock::lock() { acquire(true, __builtin_return_address(0)); }

void RwLock::acquire(bool exclusive, void* site) {
  ThreadCtl* self = detail::require_ult(
      exclusive ? "RwLock::lock outside ULT context"
                : "RwLock::lock_shared outside ULT context");
  detail::begin_no_preempt(self);
  for (;;) {
    writers_q_.lock().lock();
    // Writer preference: readers queue behind any waiting writer.
    if (exclusive ? !writer_ && readers_ == 0
                  : !writer_ && writers_q_.empty()) {
      if (exclusive) {
        writer_ = true;
        holders_[0].store(self, std::memory_order_relaxed);
        park::hold(self->parking, this);
      } else {
        ++readers_;
        park::record(this, holders_ + 1, park::kMaxReaders, self);
      }
      writers_q_.lock().unlock();
      break;
    }
    // Write-then-read/write self-deadlock: a 1-cycle caught synchronously,
    // like Mutex::lock. (Read-then-write upgrades are left to the periodic
    // detector: self shows up in its own holder slots, closing the cycle.)
    if (writers_q_.self_deadlock(
            self, holders_[0].load(std::memory_order_relaxed) == self,
            prof::WaitKind::kRwLock))
      continue;
    // Direct handoff: the releaser set writer_/holders_[0] or incremented
    // readers_ on our behalf. Broken out by the deadlock breaker: retry.
    WaitQueue& q = exclusive ? writers_q_ : readers_q_;
    if (q.wait(self, prof::WaitKind::kRwLock, site, 0,
               park::Edge{holders_, park::kMaxHolders, nullptr},
               nullptr) != WaitResult::kBroken)
      break;
  }
  detail::end_no_preempt(self);
}

void RwLock::unlock_shared() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  writers_q_.lock().lock();
  LPT_CHECK_MSG(readers_ > 0, "unlock_shared without shared lock");
  --readers_;
  if (self != nullptr)
    park::unrecord(this, holders_ + 1, park::kMaxReaders, self);
  grant(Runtime::kWakerFromTls);
  detail::end_no_preempt(self);
}

void RwLock::unlock() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  writers_q_.lock().lock();
  LPT_CHECK_MSG(writer_, "RwLock::unlock without write lock");
  ThreadCtl* const owner = holders_[0].load(std::memory_order_relaxed);
  if (owner != nullptr) park::drop(owner->parking, this);
  writer_ = false;
  holders_[0].store(nullptr, std::memory_order_relaxed);
  grant(Runtime::kWakerFromTls);
  detail::end_no_preempt(self);
}

void RwLock::grant(std::uint32_t waker) {
  ThreadCtl* next = nullptr;
  if (!writer_ && readers_ == 0) next = writers_q_.pop_front();
  if (next != nullptr) {
    writer_ = true;
    holders_[0].store(next, std::memory_order_relaxed);
    park::hold(next->parking, this);
  } else if (!writer_ && writers_q_.empty()) {
    next = readers_q_.take_all();
    // Every handed-off reader is recorded before its wake (edges never
    // dangle), as far as the reader slots reach.
    for (ThreadCtl* r = next; r != nullptr; r = r->wq_next) {
      ++readers_;
      park::record(this, holders_ + 1, park::kMaxReaders, r);
    }
  }
  writers_q_.lock().unlock();
  WaitQueue::wake(next, waker);
}

bool RwLock::abandon(ThreadCtl* dead, bool release) {
  // Finalize context. A dead writer always loses its slot (the address is
  // about to dangle). A dead reader was recorded in a reader slot, so it
  // held a share; readers past the slots were never recorded and are never
  // released here — an over-full rwlock under-releases.
  writers_q_.lock().lock();
  const bool dead_writer =
      writer_ && holders_[0].load(std::memory_order_relaxed) == dead;
  if (dead_writer) holders_[0].store(nullptr, std::memory_order_relaxed);
  const bool dead_reader =
      !dead_writer &&
      park::unrecord(this, holders_ + 1, park::kMaxReaders, dead);
  if (!(dead_writer || dead_reader) || !release) {
    writers_q_.lock().unlock();
    return false;
  }
  if (dead_writer)
    writer_ = false;
  else
    --readers_;
  grant(dead->trace_id);
  return true;
}

std::uint8_t RwLock::kind() const {
  return static_cast<std::uint8_t>(prof::WaitKind::kRwLock);
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

void Semaphore::acquire() {
  take(detail::require_ult("Semaphore::acquire outside ULT context"),
       __builtin_return_address(0), 0);
}

bool Semaphore::try_acquire() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  const bool got = count_ > 0;
  if (got) --count_;
  q_.lock().unlock();
  detail::end_no_preempt(self);
  return got;
}

bool Semaphore::try_acquire_for(std::chrono::nanoseconds timeout) {
  ThreadCtl* self =
      detail::require_ult("Semaphore::try_acquire_for outside ULT context");
  detail::cancel_point(self);
  if (timeout.count() <= 0) return try_acquire();
  return take(self, __builtin_return_address(0), now_ns() + timeout.count());
}

bool Semaphore::take(ThreadCtl* self, void* site, std::int64_t deadline) {
  detail::begin_no_preempt(self);
  q_.lock().lock();
  bool got = count_ > 0;
  if (got) {
    --count_;
    q_.lock().unlock();
  } else {
    // No owner edge: semaphore units have no owner, so a semaphore waiter
    // can never be a cycle member. Direct handoff: a woken waiter was
    // handed a unit by release().
    got = q_.wait(self, prof::WaitKind::kSemaphore, site, deadline, {},
                  nullptr) == WaitResult::kWoken;
  }
  detail::end_no_preempt(self);  // cancellation point
  return got;
}

void Semaphore::release(int n) {
  LPT_CHECK(n >= 1);
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  ThreadCtl* woken = q_.take(n);
  for (ThreadCtl* t = woken; t != nullptr; t = t->wq_next) --n;
  count_ += n;
  q_.lock().unlock();
  WaitQueue::wake(woken);
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------------

void Latch::count_down(int n) {
  LPT_CHECK(n >= 1);
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  LPT_CHECK_MSG(remaining_ >= n, "Latch::count_down below zero");
  remaining_ -= n;
  const bool fired = remaining_ == 0;
  ThreadCtl* woken = nullptr;
  if (fired) {
    woken = q_.take_all();
    done_.store(1, std::memory_order_release);
  }
  q_.lock().unlock();
  if (fired) futex_wake(&done_, INT_MAX);
  WaitQueue::wake(woken);
  detail::end_no_preempt(self);
}

void Latch::wait() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) {
    // External kernel thread: futex on the done word.
    while (done_.load(std::memory_order_acquire) == 0) futex_wait(&done_, 0);
    return;
  }
  detail::begin_no_preempt(self);
  q_.lock().lock();
  // No owner edge: latches count down, nobody "holds" them.
  if (done_.load(std::memory_order_acquire) == 0)
    q_.wait(self, prof::WaitKind::kLatch, site, 0, {}, nullptr);
  else
    q_.lock().unlock();
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

void WaitGroup::add(int n) {
  SpinlockGuard g(q_.lock());
  count_ += n;
  LPT_CHECK_MSG(count_ >= 0, "WaitGroup count went negative");
}

void WaitGroup::done() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  q_.lock().lock();
  LPT_CHECK_MSG(count_ > 0, "WaitGroup::done without matching add");
  const bool fired = --count_ == 0;
  ThreadCtl* woken = nullptr;
  if (fired) {
    woken = q_.take_all();
    zero_epoch_.fetch_add(1, std::memory_order_release);
  }
  q_.lock().unlock();
  if (fired) futex_wake(&zero_epoch_, INT_MAX);
  WaitQueue::wake(woken);
  detail::end_no_preempt(self);
}

void WaitGroup::wait() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) {
    for (;;) {
      std::uint32_t epoch = zero_epoch_.load(std::memory_order_acquire);
      {
        SpinlockGuard g(q_.lock());
        if (count_ == 0) return;
      }
      futex_wait(&zero_epoch_, epoch);
    }
  }
  detail::begin_no_preempt(self);
  q_.lock().lock();
  // No owner edge: wait-group completions have no single owner.
  if (count_ != 0)
    q_.wait(self, prof::WaitKind::kWaitGroup, site, 0, {}, nullptr);
  else
    q_.lock().unlock();
  detail::end_no_preempt(self);
}

}  // namespace lpt
