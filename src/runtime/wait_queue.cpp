#include "runtime/wait_queue.hpp"

#include "runtime/internal.hpp"
#include "runtime/park.hpp"
#include "runtime/thread.hpp"

namespace lpt {

static_assert(WaitQueue::kWakerFromTls == Runtime::kWakerFromTls);

WaitResult WaitQueue::wait(ThreadCtl* self, prof::WaitKind kind, void* site,
                           std::int64_t deadline, const park::Edge& edge,
                           Mutex* release_after, bool front) {
  const bool timed = deadline != 0;
  if (front)
    push_front(self);
  else
    push_back(self);
  self->wait_result = WaitResult::kWoken;
  // Timed waits are always linked: the expiry scan walks the same lists as
  // the deadlock detector, and races the normal waker through settle() —
  // both remove the waiter under lock(), so exactly one side requeues it.
  if (park::links(deadline)) {
    park::link(self, worker_tls()->worker->park_list, this,
               static_cast<std::uint8_t>(kind), deadline, edge);
    if (timed) self->rt->arm_timed_wait(self, deadline);
  }
  // Tag the wait record that the kBlock post action opens and the wake
  // (Runtime::stamp_ready) closes; the tag also labels the kUltWake edge.
  self->prof_wait_kind = kind;
  self->prof_wait_site = reinterpret_cast<std::uintptr_t>(site);
  // The scheduler releases lock() (then release_after) only once our context
  // is saved, so a waker can neither miss us nor resume us half-saved.
  detail::suspend_block(self, lock_, release_after);
  park::unlink(self);
  const WaitResult r = self->wait_result;
  if (r == WaitResult::kBroken) {
    detail::end_no_preempt(self);  // cancellation point: usually no return
    detail::begin_no_preempt(self);
  }
  return r;
}

bool WaitQueue::contains(const ThreadCtl* t) const { return t->wq == this; }

void WaitQueue::push_back(ThreadCtl* t) {
  t->wq = this;
  t->wq_next = nullptr;
  if (tail_ != nullptr)
    tail_->wq_next = t;
  else
    head_ = t;
  tail_ = t;
}

void WaitQueue::push_front(ThreadCtl* t) {
  t->wq = this;
  t->wq_next = head_;
  if (head_ == nullptr) tail_ = t;
  head_ = t;
}

ThreadCtl* WaitQueue::take(int n) {
  ThreadCtl* const chain = head_;
  ThreadCtl* last = nullptr;
  for (; head_ != nullptr && n != 0; --n) {
    last = head_;
    last->wq = nullptr;
    head_ = last->wq_next;
  }
  if (last != nullptr) last->wq_next = nullptr;
  if (head_ == nullptr) tail_ = nullptr;
  return last != nullptr ? chain : nullptr;
}

bool WaitQueue::remove(ThreadCtl* t) {
  if (t->wq != this) return false;
  ThreadCtl** link = &head_;
  ThreadCtl* prev = nullptr;
  while (*link != t) {
    prev = *link;
    link = &prev->wq_next;
  }
  *link = t->wq_next;
  if (tail_ == t) tail_ = prev;
  t->wq = nullptr;
  t->wq_next = nullptr;
  return true;
}

void WaitQueue::wake_chain(ThreadCtl* chain, std::uint32_t waker) {
  Worker* hint = worker_tls()->worker;  // null on external/service threads
  while (chain != nullptr) {
    // Read the link first: once enqueued, the thread may run and wait again.
    ThreadCtl* const t = chain;
    chain = t->wq_next;
    t->store_state(ThreadState::kReady);
    // The causal choke point: ready stamp + kUltWake edge labelled with the
    // kind t parked under.
    t->rt->enqueue_ready(t, hint, EnqueueKind::kUnblock, waker);
  }
}

bool WaitQueue::self_deadlock(ThreadCtl* self, bool owned_by_self,
                              prof::WaitKind kind) {
  // Under an outer NoPreemptGuard the cancellation point cannot fire, so the
  // historical behaviour (a hang the watchdog can see) is kept; with the
  // registry disarmed the check is off entirely.
  if (!owned_by_self || !park::armed() || self->no_preempt_depth != 1)
    return false;
  lock_->unlock();
  self->cancel_fault = FaultKind::kDeadlock;
  self->cancel_requested.store(true, std::memory_order_release);
  self->rt->note_self_deadlock(self, static_cast<std::uint8_t>(kind));
  detail::end_no_preempt(self);  // cancellation point: does not return
  detail::begin_no_preempt(self);
  return true;
}

}  // namespace lpt
