#include "runtime/worker.hpp"

#include <csignal>
#include <cstring>
#include <ctime>

#include "common/assert.hpp"
#include "common/sys.hpp"
#include "common/time.hpp"
#include "runtime/fault.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/signals.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace lpt {

namespace {
// Initial-exec TLS: fs-relative access, valid inside signal handlers, no
// lazy allocation.
thread_local WorkerTls g_worker_tls __attribute__((tls_model("initial-exec")));
}  // namespace

__attribute__((noinline)) WorkerTls* worker_tls() {
  WorkerTls* p = &g_worker_tls;
  // Opaque to the optimizer so callers cannot cache the result across a
  // context switch that may move this ULT to another kernel thread.
  asm volatile("" : "+r"(p));
  return p;
}

namespace detail {

ThreadCtl* current_ult_or_null() {
  // Runs in *preemptible* ULT context: a signal-yield preemption can move
  // this ULT to another KLT between any two instructions, after which `tls`
  // still points at the previous host's block — whose fields now describe
  // that KLT's next tenant (or none), not us. Re-reading the TLS address
  // after the loads detects any migration: a match proves every load
  // executed against the KLT we are on right now (a round trip back to the
  // same KLT is benign — being resumed there means its block describes this
  // ULT again); a mismatch discards the loads and retries on the new host.
  // Identity comes from the hosting KLT (hosted_ult), not the worker: after
  // a forced KLT replacement (watchdog remediation) the worker's current_ult
  // moves on with the new host while this KLT still runs its old ULT.
  for (;;) {
    WorkerTls* tls = worker_tls();
    Worker* w = tls->worker;
    const bool in = tls->in_ult;
    ThreadCtl* t = tls->hosted_ult;
    if (worker_tls() == tls) return (w == nullptr || !in) ? nullptr : t;
  }
}

Worker* borrow_worker(ThreadCtl* self) {
  if (self == nullptr) return nullptr;
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  KltCtl* expect = tls->klt;
  if (w == nullptr || expect == nullptr) return nullptr;
  return w->host_token.compare_exchange_strong(expect, nullptr,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)
             ? w
             : nullptr;
}

void return_worker(Worker* w) {
  if (w != nullptr)
    w->host_token.store(worker_tls()->klt, std::memory_order_release);
}

namespace {

/// Claim the worker's scheduler-context ownership token for this KLT.
/// Returns false when the watchdog force-replaced this worker's host in the
/// meantime — the caller is orphaned and must not touch the worker again.
bool claim_host_token(WorkerTls* tls) {
  KltCtl* expect = tls->klt;
  return tls->worker->host_token.compare_exchange_strong(
      expect, nullptr, std::memory_order_acq_rel, std::memory_order_acquire);
}

/// Terminal landing for a ULT whose host KLT was orphaned by a forced
/// replacement: the scheduler context now runs elsewhere, so the thread is
/// finalized via klt_main's deferred hook (never before this stack is
/// abandoned) and the kernel thread exits through its native context —
/// the same retirement shape as a poisoned-KLT fault.
[[noreturn]] void orphan_terminate(ThreadCtl* self, bool finished) {
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  KltCtl* k = tls->klt;
  LPT_CHECK(w != nullptr && k != nullptr && self != nullptr);
  tls->in_ult = false;
  if (finished) {
    self->store_state(ThreadState::kFinished);
  } else {
    // An unfinished ULT stranded on an orphaned KLT is cancelled — it was
    // the wedged tenant the watchdog replaced the KLT to get away from
    // (docs/robustness.md "Self-healing").
    if (self->fault.kind == FaultKind::kNone)
      self->fault.kind = self->cancel_fault;
    self->store_state(ThreadState::kFailed);
    w->metrics.ult_faults.add(1);
    if (self->fault.kind == FaultKind::kCancelled ||
        self->fault.kind == FaultKind::kDeadlock) {
      w->metrics.ult_cancels.add(1);
      LPT_TRACE_EVENT(trace::EventType::kUltCancel, self->trace_id, 2);
    } else {
      LPT_TRACE_EVENT(trace::EventType::kUltFault, self->trace_id,
                      static_cast<std::uint64_t>(self->fault.kind),
                      self->fault.fault_addr);
    }
  }
  k->orphan_finalize = self;
  k->orphan_finished = finished;
  k->pending_wake = nullptr;
  k->pending_wake_in_handler = false;
  k->native_op = KltNativeOp::kExit;
  context_jump(k->native_ctx);
}

}  // namespace

void begin_no_preempt(ThreadCtl* self) {
  if (self != nullptr) self->no_preempt_depth = self->no_preempt_depth + 1;
}

void end_no_preempt(ThreadCtl* self) {
  if (self == nullptr) return;
  int d = self->no_preempt_depth - 1;
  self->no_preempt_depth = d;
  if (d == 0) {
    // Guard exit is a safe point: a cancel deferred by the guard (the
    // handler refuses to unwind a guard holder) lands here first.
    cancel_point(self);
    if (self->preempt_pending) {
      self->preempt_pending = false;
      // Turn the deferred preemption into a voluntary yield at this safe point.
      suspend_yield(self);
    }
  }
}

__attribute__((noinline)) void mark_in_ult() { worker_tls()->in_ult = true; }

/// Pin the calling ULT to its current KLT for a suspension prologue.
/// suspend_*() are entered from *preemptible* context (yield, end-of-guard
/// deferral, thread exit): without the pin, a signal-yield preemption landing
/// between the worker_tls() read and the context switch migrates the ULT to
/// another KLT, and the prologue's continuation would claim the previous
/// host's token and post onto its worker — two KLTs driving one scheduler
/// context. The depth counter lives on the ThreadCtl, so the increment
/// lands on the right object no matter which KLT executes it; once raised,
/// the handler defers and the KLT can no longer change under us.
void pin_to_klt(ThreadCtl* self) {
  self->no_preempt_depth = self->no_preempt_depth + 1;
}

/// Plain decrement — not end_no_preempt(): the suspension the caller just
/// completed already was the safe point, and a tick deferred while pinned
/// stays pending for the next one.
void unpin_from_klt(ThreadCtl* self) {
  self->no_preempt_depth = self->no_preempt_depth - 1;
}

__attribute__((noinline)) void suspend_yield(ThreadCtl* self) {
  LPT_CHECK(self != nullptr);
  pin_to_klt(self);
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  LPT_CHECK(w != nullptr);
  if (!claim_host_token(tls)) orphan_terminate(self, /*finished=*/false);
  // Order matters: clear in_ult before writing the post action so a signal
  // in between is a harmless no-op instead of a post-action clobber.
  tls->in_ult = false;
  w->post = PostAction{PostKind::kYield, self, nullptr, nullptr};
  context_switch(self->ctx, w->sched_ctx);
  mark_in_ult();
  unpin_from_klt(self);
}

__attribute__((noinline)) void suspend_block(ThreadCtl* self, Spinlock* sl,
                                             Mutex* m) {
  LPT_CHECK(self != nullptr);
  pin_to_klt(self);
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  LPT_CHECK(w != nullptr);
  if (!claim_host_token(tls)) {
    // Orphaned mid-block: the block itself stays valid — the thread is on a
    // WaitQueue others will wake through WaitQueue::wake. Save the context,
    // hand the guard releases to klt_main (they may only drop once the save
    // is complete — the usual enqueue-before-save race), and retire this
    // KLT. The thread resumes right here on whichever worker wakes it.
    KltCtl* k = tls->klt;
    tls->in_ult = false;
    self->store_state(ThreadState::kBlocked);
    k->orphan_release_lock = sl;
    k->orphan_release_mutex = m;
    k->pending_wake = nullptr;
    k->pending_wake_in_handler = false;
    k->native_op = KltNativeOp::kExit;
    context_switch(self->ctx, k->native_ctx);
    mark_in_ult();
    unpin_from_klt(self);
    return;
  }
  tls->in_ult = false;
  w->post = PostAction{PostKind::kBlock, self, sl, m};
  context_switch(self->ctx, w->sched_ctx);
  mark_in_ult();
  unpin_from_klt(self);
}

__attribute__((noinline)) void suspend_exit(ThreadCtl* self) {
  LPT_CHECK(self != nullptr);
  pin_to_klt(self);  // terminal: never unpinned, the ThreadCtl dies with it
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  LPT_CHECK(w != nullptr);
  if (!claim_host_token(tls)) orphan_terminate(self, /*finished=*/true);
  tls->in_ult = false;
  self->store_state(ThreadState::kFinished);
  w->post = PostAction{PostKind::kExit, self, nullptr, nullptr};
  context_jump(w->sched_ctx);
}

__attribute__((noinline)) void suspend_fail(ThreadCtl* self) {
  // Exception firewall landing: self->fault is already filled in by the
  // trampoline's catch block. Same shape as suspend_exit, but the thread
  // ends kFailed and its stack goes through quarantine, not straight back
  // to the pool — an unwound-through stack is intact, but treating every
  // failed ULT's stack identically keeps the release path single.
  LPT_CHECK(self != nullptr);
  pin_to_klt(self);  // terminal: never unpinned, the ThreadCtl dies with it
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  LPT_CHECK(w != nullptr);
  if (!claim_host_token(tls)) orphan_terminate(self, /*finished=*/false);
  tls->in_ult = false;
  self->store_state(ThreadState::kFailed);
  w->metrics.ult_faults.add(1);
  w->metrics.escaped_exceptions.add(1);
  LPT_TRACE_EVENT(trace::EventType::kUltFault, self->trace_id,
                  static_cast<std::uint64_t>(self->fault.kind),
                  self->fault.fault_addr);
  w->post = PostAction{PostKind::kFault, self, nullptr, nullptr};
  context_jump(w->sched_ctx);
}

__attribute__((noinline)) void suspend_cancel(ThreadCtl* self) {
  // Cooperative cancellation landing: same shape as suspend_fail, but the
  // failure record says kCancelled and the action is counted separately.
  // Like every containment path, the abandoned stack's destructors are
  // skipped; the stack itself goes through quarantine.
  LPT_CHECK(self != nullptr);
  pin_to_klt(self);  // terminal: never unpinned, the ThreadCtl dies with it
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  LPT_CHECK(w != nullptr);
  if (!claim_host_token(tls)) orphan_terminate(self, /*finished=*/false);
  tls->in_ult = false;
  // kCancelled unless a deadlock break marked this thread its victim.
  self->fault.kind = self->cancel_fault;
  self->store_state(ThreadState::kFailed);
  w->metrics.ult_faults.add(1);
  w->metrics.ult_cancels.add(1);
  LPT_TRACE_EVENT(trace::EventType::kUltCancel, self->trace_id);
  w->post = PostAction{PostKind::kFault, self, nullptr, nullptr};
  context_jump(w->sched_ctx);
}

void cancel_point(ThreadCtl* self) {
  if (self == nullptr) return;
  const bool own = self->cancel_requested.load(std::memory_order_relaxed);
  // A joiner running an inline chain looks at the chain's flags only when
  // a cancel was requested somewhere since it last looked.
  if (!own && (self->inline_top == nullptr ||
               self->rt->inline_cancel_epoch() == self->inline_epoch))
    return;
  if (self->no_preempt_depth > 0) return;  // guard exit will re-check
  if (own) suspend_cancel(self);
  self->inline_epoch = self->rt->inline_cancel_epoch();
  ThreadCtl* c = self->cancelled_inline_child();
  if (c == nullptr) return;
  // Cut back to c's join site (Runtime::run_inline), which ends c and every
  // child inlined inside it. Like any cancel, the abandoned frames'
  // destructors do not run.
  c->fault.kind = c->cancel_fault;
#if defined(__SANITIZE_ADDRESS__)
  // The cut-off frames never return: clear their shadow, which ASan's own
  // no-return hook does not do on a fiber stack.
  char here;
  ASAN_UNPOISON_MEMORY_REGION(&here, static_cast<char*>(c->ctx.sp) - &here);
#endif
  context_jump(c->ctx);
}

__attribute__((noinline)) void handler_signal_yield(Worker* w, ThreadCtl* t) {
  WorkerTls* tls = worker_tls();
  tls->in_ult = false;
  w->post = PostAction{PostKind::kPreemptSignalYield, t, nullptr, nullptr};
  // The signal frame stays live on t's stack across this switch; the signal
  // itself stays blocked on this KLT until the scheduler unblocks it.
  context_switch(t->ctx, w->sched_ctx);
  // Resumed — possibly on a different KLT (the function must be
  // KLT-independent, which is exactly signal-yield's restriction).
  mark_in_ult();
  // Returning unwinds the handler; sigreturn restores t's interrupted state.
}

__attribute__((noinline)) void handler_klt_switch(Runtime* rt, Worker* w,
                                                  ThreadCtl* t) {
  WorkerTls* tls = worker_tls();
  KltCtl* self = tls->klt;
  LPT_CHECK(self != nullptr);

  KltCtl* b = rt->klt_pool().try_pop(w->rank);
  if (b == nullptr) {
    // Graceful degradation (docs/robustness.md): while the creator cannot
    // make KLTs (pthread_create failing) or the max_klts cap is reached,
    // requesting again is pointless — count a degraded tick and let the
    // thread keep running until resources recover. All loads here are
    // atomics; the path stays async-signal-safe.
    if (rt->klt_creator().saturated() || rt->klt_cap_reached()) {
      w->metrics.klt_degraded_ticks.add(1);
      LPT_TRACE_EVENT(trace::EventType::kKltDegradedTick, t->trace_id);
      // The handler claimed the host token; the ULT keeps running here, so
      // hand ownership back.
      w->host_token.store(self, std::memory_order_release);
      return;
    }
    // No spare KLT: request one and return; this thread keeps running and
    // retries at the next timer tick (§3.1.2 — the handler must never wait
    // for pthread_create, which is not async-signal-safe and may hold locks
    // the interrupted thread owns).
    LPT_TRACE_EVENT(trace::EventType::kKltPoolMiss, t->trace_id);
    rt->klt_creator().request();
    w->host_token.store(self, std::memory_order_release);
    return;
  }
  LPT_TRACE_EVENT(trace::EventType::kKltPoolHit, t->trace_id,
                  static_cast<std::uint64_t>(b->trace_id >= 0 ? b->trace_id : 0));

  std::int64_t suspend_ns = 0;
  if (LPT_TRACE_ON()) {
    suspend_ns = trace::now_ns();
    trace::emit(trace::EventType::kKltSuspend, t->trace_id);
  }

  t->bound_klt = self;
  self->home_worker = w->rank;
  tls->in_ult = false;
  w->post = PostAction{PostKind::kPreemptKltSwitch, t, nullptr, nullptr};

  // Hand the worker role to b; it resumes w's scheduler context.
  b->action = KltAction::kBecomeWorker;
  b->assign_worker = w;
  w->current_klt.store(b, std::memory_order_release);
  w->current_tid.store(b->tid.load(std::memory_order_relaxed),
                       std::memory_order_release);
  b->gate.post();

  // Park this KLT *inside the handler*: t's KLT-local state stays frozen
  // with it until t is rescheduled (Fig 2).
  if (rt->options().klt_suspend == KltSuspend::Futex) {
    self->gate.wait();
  } else {
    sigset_t wait_mask;
    sigfillset(&wait_mask);
    sigdelset(&wait_mask, signals::resume_signo());
    while (self->sig_resume.exchange(0, std::memory_order_acquire) == 0)
      sigsuspend(&wait_mask);
  }

  // Resumed (Fig 3): this KLT now hosts whichever worker rescheduled t.
  WorkerTls* tls2 = worker_tls();
  Worker* w2 = self->assign_worker;
  tls2->worker = w2;
  tls2->hosted_ult = t;
  tls2->in_ult = true;
  t->bound_klt = nullptr;
  if (LPT_TRACE_ON() && suspend_ns != 0) {
    const std::int64_t trip = trace::now_ns() - suspend_ns;
    w2->hist_klt_trip.record(trip);
    trace::emit(trace::EventType::kKltResume, t->trace_id,
                static_cast<std::uint64_t>(trip));
  }
  // Return unwinds the handler; t continues on its original KLT.
}

void wake_bound_klt(Runtime* rt, KltCtl* k) {
  if (rt->options().klt_suspend == KltSuspend::Futex) {
    k->gate.post();
  } else {
    k->sig_resume.store(1, std::memory_order_release);
    pthread_kill(k->pthread, signals::resume_signo());
  }
}

}  // namespace detail

void Worker::scheduler_loop() {
  int idle_failures = 0;
  for (;;) {
    process_post_action();
    maybe_rearm_posix_timer();
    if (rt->shutting_down() && !rt->scheduler().has_work()) break;
    if (rank >= rt->active_workers() && !rt->shutting_down()) {
      park_for_packing();
      continue;
    }
    ThreadCtl* t = rt->scheduler().pick(*this);
    if (t == nullptr) {
      idle_backoff(idle_failures);
      continue;
    }
    idle_failures = 0;
    if (t->bound_klt != nullptr)
      run_resume_bound(t);
    else
      run(t);
  }

  if (posix_timer_armed) {
    timer_delete(posix_timer);
    posix_timer_armed = false;
  }

  // Return control to the hosting KLT's parking loop; it exits klt_main.
  KltCtl* k = worker_tls()->klt;
  k->native_op = KltNativeOp::kExit;
  context_switch(sched_ctx, k->native_ctx);
  LPT_CHECK_MSG(false, "worker scheduler context resumed after exit");
}

void Worker::run(ThreadCtl* t) {
  metrics.dispatches.inc();
  trace_dispatch(t);
  t->dispatched = true;
  t->store_state(ThreadState::kRunning);
  current_ult.store(t, std::memory_order_release);
  current_preempt.store(static_cast<std::uint8_t>(t->preempt),
                        std::memory_order_release);
  metrics.set_state(metrics::WorkerState::kRunningUlt);
  WorkerTls* tls = worker_tls();
  tls->hosted_ult = t;
  // Publish scheduler-context ownership to the hosting KLT; whoever next
  // re-enters sched_ctx (suspension, handler, or the watchdog's forced
  // replacement) claims it back by CAS.
  host_token.store(tls->klt, std::memory_order_release);
  context_switch(sched_ctx, t->ctx);
  // Back in scheduler context; the post action says why. process_post_action
  // re-marks the state (it must anyway, for the fresh-KLT handoff resume).
}

void Worker::run_resume_bound(ThreadCtl* t) {
  // Resume protocol (Fig 3): t must continue on its bound KLT x; this
  // worker's scheduler context is saved, x is woken *after* we are off the
  // scheduler stack (on our KLT's parking stack), and our KLT returns to the
  // pool.
  KltCtl* x = t->bound_klt;
  KltCtl* me = worker_tls()->klt;
  LPT_CHECK(x != nullptr && me != nullptr && x != me);

  metrics.dispatches.inc();
  trace_dispatch(t);
  t->store_state(ThreadState::kRunning);
  current_ult.store(t, std::memory_order_release);
  current_preempt.store(static_cast<std::uint8_t>(t->preempt),
                        std::memory_order_release);
  metrics.set_state(metrics::WorkerState::kRunningUlt);
  current_klt.store(x, std::memory_order_release);
  current_tid.store(x->tid.load(std::memory_order_relaxed),
                    std::memory_order_release);
  // The resumed thread runs on x until its next scheduling point; a POSIX
  // per-worker timer must follow it there or it would tick a parked KLT.
  maybe_rearm_posix_timer(x->tid.load(std::memory_order_relaxed));

  x->action = KltAction::kResumeUlt;
  x->assign_worker = this;
  // t resumes on x: x owns the scheduler context from here (see run()).
  host_token.store(x, std::memory_order_release);

  me->pending_wake = x;
  me->pending_wake_in_handler = true;
  me->native_op = KltNativeOp::kPark;
  context_switch(sched_ctx, me->native_ctx);
  // Scheduler context resumed later by whichever KLT hosts this worker next.
}

void Worker::trace_dispatch(ThreadCtl* t) {
  if (!LPT_TRACE_ON()) return;
  const std::int64_t now = trace::now_ns();
  // Consume the ready stamp left by Runtime::enqueue_ready at whichever
  // enqueue site made t runnable — this is the full ready→dispatch
  // scheduling delay, attributed to the dispatching pool (where the wait
  // ended, even for stolen threads).
  std::uint64_t delay = 0;
  if (t->acct.ready_ns != 0) {
    delay = static_cast<std::uint64_t>(now - t->acct.ready_ns);
    t->acct.ready_ns = 0;
    t->acct.sched_delay_ns += delay;
    hist_sched_delay.record(static_cast<std::int64_t>(delay));
  }
  if (t->last_preempt_ns != 0) {
    const std::int64_t resched = now - t->last_preempt_ns;
    t->last_preempt_ns = 0;
    hist_resched.record(resched);
  }
  if (t->acct.dispatches == 0 && t->acct.spawn_ns != 0) {
    t->acct.spawn_latency_ns = now - t->acct.spawn_ns;
    hist_spawn_latency.record(t->acct.spawn_latency_ns);
  }
  t->acct.run_start_ns = now;
  ++t->acct.dispatches;
  trace::emit(trace::EventType::kUltDispatch, t->trace_id, delay);
}

// Close the off-CPU boundary of a run episode: fold on-CPU time into the
// accounting and return the timestamp so callers can reuse it (0 when the
// tracer is off — accounting stays all-zero and the hot path clock-free).
static std::int64_t close_run_episode(ThreadCtl* t) {
  if (!LPT_TRACE_ON()) return 0;
  const std::int64_t now = trace::now_ns();
  if (t->acct.run_start_ns != 0) {
    t->acct.run_ns += static_cast<std::uint64_t>(now - t->acct.run_start_ns);
    t->acct.run_start_ns = 0;
  }
  return now;
}

void Worker::process_post_action() {
  // The scheduler context may have been resumed on a fresh KLT (KLT-switch
  // handoff), so re-mark the state here, not only after context_switch.
  metrics.set_state(metrics::WorkerState::kScheduling);
  PostAction a = post;
  post = PostAction{};
  if (a.kind == PostKind::kNone) return;

  auto clear_current = [&] {
    current_ult.store(nullptr, std::memory_order_release);
    current_preempt.store(static_cast<std::uint8_t>(Preempt::None),
                          std::memory_order_release);
  };

  switch (a.kind) {
    case PostKind::kNone:
      break;
    case PostKind::kYield:
      clear_current();
      metrics.yields.inc();
      close_run_episode(a.thread);
      LPT_TRACE_EVENT(trace::EventType::kUltYield, a.thread->trace_id);
      a.thread->store_state(ThreadState::kReady);
      rt->enqueue_ready(a.thread, this, EnqueueKind::kYield);
      break;
    case PostKind::kPreemptSignalYield: {
      clear_current();
      metrics.preempt_signal_yield.inc();
      a.thread->preemptions.fetch_add(1, std::memory_order_relaxed);
      const std::int64_t now = close_run_episode(a.thread);
      if (now != 0) {
        a.thread->last_preempt_ns = now;
        trace::emit(trace::EventType::kPreemptSignalYield, a.thread->trace_id);
      }
      a.thread->store_state(ThreadState::kReady);
      rt->enqueue_ready(a.thread, this, EnqueueKind::kPreempted);
      // The handler switched away with the preempt signal still blocked on
      // this KLT; re-enable it so further threads here can be preempted
      // while earlier ones are suspended mid-handler (§3.1.1).
      signals::unblock_preempt();
      break;
    }
    case PostKind::kPreemptKltSwitch: {
      clear_current();
      metrics.preempt_klt_switch.inc();
      a.thread->preemptions.fetch_add(1, std::memory_order_relaxed);
      const std::int64_t now = close_run_episode(a.thread);
      if (now != 0) {
        a.thread->last_preempt_ns = now;
        trace::emit(trace::EventType::kPreemptKltSwitch, a.thread->trace_id);
      }
      a.thread->store_state(ThreadState::kReady);
      // "as if it had called a yield function" (Fig 2c).
      rt->enqueue_ready(a.thread, this, EnqueueKind::kPreempted);
      break;
    }
    case PostKind::kBlock: {
      clear_current();
      metrics.blocks.inc();
      // Open the wait record that the wake closes (Runtime::stamp_ready).
      if (rt->times_waits_)
        a.thread->acct.block_start_ns =
            LPT_TRACE_ON() ? close_run_episode(a.thread) : trace::now_ns();
      LPT_TRACE_EVENT(trace::EventType::kUltBlock, a.thread->trace_id);
      a.thread->store_state(ThreadState::kBlocked);
      // Only now — with the context fully saved — may others see the thread.
      if (a.release_lock != nullptr) a.release_lock->unlock();
      if (a.release_mutex != nullptr) a.release_mutex->unlock();
      break;
    }
    case PostKind::kExit:
      clear_current();
      metrics.exits.inc();
      close_run_episode(a.thread);
      LPT_TRACE_EVENT(trace::EventType::kUltExit, a.thread->trace_id);
      rt->finalize_thread(a.thread, this);
      break;
    case PostKind::kFault:
      clear_current();
      close_run_episode(a.thread);
      rt->finalize_failed_thread(a.thread, this);
      // The SEGV/BUS containment jump skipped sigreturn (fault.hpp); when
      // the fault came from the exception firewall instead this is a cheap
      // no-op-shaped unblock of already-unblocked signals.
      fault::unblock_fault_signals();
      break;
  }
}

void Worker::idle_backoff(int& failures) {
  metrics.set_state(metrics::WorkerState::kIdle);
  ++failures;
  if (failures < 64) {
    for (int i = 0; i < 32; ++i) cpu_pause();
    return;
  }
  if (rt->scheduler().has_work() || rt->shutting_down()) {
    // Work exists that this worker failed to take (a packing pool it does
    // not own, a missed steal): pass the wake on to a sleeper that may own
    // it, since each enqueue wakes only one worker.
    rt->notify_work();
    return;
  }
  rt->idle_wait(*this);
}

void Worker::park_for_packing() {
  metrics.set_state(metrics::WorkerState::kParked);
  parked.store(true, std::memory_order_release);
  LPT_TRACE_EVENT(trace::EventType::kWorkerPark);
  while (rank >= rt->active_workers() && !rt->shutting_down()) {
    std::uint32_t v = wake_word.load(std::memory_order_acquire);
    if (rank < rt->active_workers() || rt->shutting_down()) break;
    futex_wait(&wake_word, v);
  }
  parked.store(false, std::memory_order_release);
  LPT_TRACE_EVENT(trace::EventType::kWorkerUnpark);
}

void Worker::maybe_rearm_posix_timer(pid_t tid) {
  if (rt->options().timer != TimerKind::PosixPerWorker) return;
  if (rt->shutting_down()) return;
  // Once degraded, ticks come from the service thread; retrying
  // timer_create on every reschedule would just repeat the failure.
  if (posix_timer_degraded.load(std::memory_order_relaxed)) return;
  if (tid == 0) tid = worker_tls()->klt->tid.load(std::memory_order_relaxed);
  if (posix_timer_armed && posix_timer_tid == tid) return;
  if (posix_timer_armed) {
    timer_delete(posix_timer);
    posix_timer_armed = false;
  }

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
  sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = signals::preempt_signo();
  sev.sigev_value.sival_int = -1;  // per-worker delivery: no forwarding
  sev.sigev_notify_thread_id = tid;

  const std::int64_t interval_ns = rt->options().interval_us * 1000;
  const int n = rt->num_workers();
  itimerspec its{};
  its.it_interval.tv_sec = interval_ns / 1'000'000'000;
  its.it_interval.tv_nsec = interval_ns % 1'000'000'000;
  // Timer alignment (§3.2.1): stagger first expirations across workers.
  const std::int64_t offset_ns = interval_ns * (rank + 1) / n;
  its.it_value.tv_sec = offset_ns / 1'000'000'000;
  its.it_value.tv_nsec = offset_ns % 1'000'000'000;

  // All retries happen here, before the next dispatch: leaving this function
  // neither armed nor degraded would hand the next ULT to an unpreemptible
  // worker, which is exactly what the fallback exists to prevent.
  for (int failures = 0; failures < kPosixTimerFailLimit;) {
    if (sys::timer_create(CLOCK_MONOTONIC, &sev, &posix_timer) != 0) {
      ++failures;
      ++posix_timer_failures;
      continue;
    }
    if (sys::timer_settime(posix_timer, 0, &its, nullptr) != 0) {
      timer_delete(posix_timer);
      ++failures;
      ++posix_timer_failures;
      continue;
    }
    posix_timer_armed = true;
    posix_timer_tid = tid;
    return;
  }
  note_posix_timer_failure();
}

void Worker::note_posix_timer_failure() {
  // Degrade (docs/robustness.md): preemption for this worker now rides the
  // runtime's service thread, which signals only degraded workers. Sticky
  // for the runtime's lifetime — the POSIX timer API failed repeatedly and
  // the fallback keeps preemption guarantees intact, just with more jitter.
  LPT_TRACE_EVENT(trace::EventType::kTimerFallback, 0,
                  static_cast<std::uint64_t>(rank));
  rt->enable_posix_timer_fallback(*this);
}

}  // namespace lpt
