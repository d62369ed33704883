#include "runtime/signals.hpp"

#include <pthread.h>
#include <ucontext.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "common/assert.hpp"
#include "common/sys.hpp"
#include "prof/prof.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/klt_pool.hpp"

namespace lpt::signals {

int preempt_signo() { return SIGRTMIN; }
int resume_signo() { return SIGRTMIN + 1; }
int prof_signo() { return SIGRTMIN + 2; }

namespace {

/// errno of the kernel thread running the caller. noinline for the reason
/// io_guard's accessors are: glibc's __errno_location() is attribute-const,
/// so the compiler reuses the address it returned before a context switch,
/// and a signal-yield thread resumes its handler on another kernel thread.
__attribute__((noinline)) void set_errno_here(int e) { errno = e; }

/// Capture an on-CPU sample of the interrupted ULT: PC + frame-pointer chain
/// out of the signal ucontext, bounded to the ULT's own stack. Runs inside
/// both the preemption handler (piggyback mode) and the dedicated sampling
/// handler (LPT_PROF_HZ mode); async-signal-safe throughout (prof::sample
/// only touches the caller-validated ring and bounds-checked stack memory).
void prof_sample_interrupted(WorkerTls* tls, ThreadCtl* t, void* uctx) {
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  if (uctx != nullptr) {
    const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  }
#endif
  const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(t->stack.base());
  const std::uintptr_t hi = lo + t->stack.size();
  const std::int16_t rank =
      tls->worker != nullptr ? static_cast<std::int16_t>(tls->worker->rank)
                             : static_cast<std::int16_t>(-1);
  prof::sample(tls->prof_ring, t->trace_id, rank,
               static_cast<std::uint8_t>(t->home_pool), pc, fp, lo, hi);
  LPT_TRACE_EVENT(trace::EventType::kProfSample, t->trace_id,
                  static_cast<std::uint64_t>(pc));
}

/// One eligible check used by forwarding: the worker is running a thread
/// that wants implicit preemption. Benign races: a stale positive costs one
/// wasted signal, a stale negative delays that worker one interval.
bool eligible(Runtime* rt, int rank) {
  Worker& w = rt->worker(rank);
  return !w.parked.load(std::memory_order_relaxed) &&
         w.current_preempt.load(std::memory_order_relaxed) !=
             static_cast<std::uint8_t>(Preempt::None);
}

/// Chain / one-to-all propagation (§3.2.2), run inside the handler *before*
/// any context switch so the chain never stalls behind a preempted thread.
void forward(Runtime* rt, int my_rank, int initiator) {
  const TimerKind tk = rt->options().timer;
  const int n = rt->num_workers();
  if (tk == TimerKind::ProcessOneToAll) {
    if (my_rank != initiator) return;  // only the initiator fans out
    for (int r = 0; r < n; ++r) {
      if (r == my_rank) continue;
      if (eligible(rt, r)) send_preempt(rt->worker(r), initiator);
    }
  } else if (tk == TimerKind::ProcessChain) {
    // Forward to at most one next eligible worker; stop before wrapping to
    // the initiator so each tick interrupts every eligible worker once.
    for (int step = 1; step < n; ++step) {
      const int r = (my_rank + step) % n;
      if (r == initiator) break;
      if (eligible(rt, r)) {
        send_preempt(rt->worker(r), initiator);
        break;
      }
    }
  }
}

void preempt_handler(int /*signo*/, siginfo_t* si, void* uctx) {
  const int saved_errno = errno;
  Runtime* rt = detail::runtime_instance();
  if (rt == nullptr) {
    errno = saved_errno;
    return;
  }

  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;

  const int initiator = si != nullptr ? si->si_value.sival_int : -1;
  if (w != nullptr && initiator >= 0) forward(rt, w->rank, initiator);

  if (w == nullptr || !tls->in_ult) {
    errno = saved_errno;
    return;
  }
  // Identity from the hosting KLT (WorkerTls::hosted_ult), not the worker:
  // after a forced KLT replacement w->current_ult is the *new* host's ULT.
  ThreadCtl* t = tls->hosted_ult;
  if (t == nullptr || t->preempt == Preempt::None) {
    errno = saved_errno;
    return;
  }
  // Tick effectiveness (common/metrics.hpp): this entry found a preemptible
  // ULT. handler_entries <= ticks_sent (coalesced signals, ticks landing in
  // scheduler context); the watchdog's stall check rides on the gap.
  w->metrics.handler_entries.add(1);
  // On-CPU sampler, piggyback mode: every tick that found a preemptible ULT
  // yields exactly one sample — before the guard-defer and cancel branches,
  // so deferred/cancelled entries still report where the ULT was running.
  // In piggyback mode the sampler's invocation count therefore reconciles
  // with handler_entries (tools/telemetry_check and prof_test assert it).
  if (prof::piggyback_on()) prof_sample_interrupted(tls, t, uctx);
  if (t->no_preempt_depth > 0) {
    t->preempt_pending = true;
    w->metrics.handler_deferred.add(1);
    LPT_TRACE_EVENT(trace::EventType::kHandlerDeferred, t->trace_id);
    errno = saved_errno;
    return;
  }

  // Claim scheduler-context ownership before touching it (worker.hpp
  // host_token). A failed claim means the watchdog force-replaced this KLT's
  // worker host: the ULT is orphaned here and will hit the orphan landing at
  // its next suspension — this tick does nothing.
  {
    KltCtl* expect = tls->klt;
    if (!w->host_token.compare_exchange_strong(expect, nullptr,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      errno = saved_errno;
      return;
    }
  }

  if (t->cancel_requested.load(std::memory_order_relaxed)) {
    // Directed cancel (docs/robustness.md "Self-healing"): this tick was (or
    // might as well have been) aimed at a ULT with a pending cancel request
    // that never reached a cancellation point. Unwind it through the
    // fault-isolation landing instead of rescheduling it: mark
    // Failed(kCancelled), abandon the interrupted frames (no sigreturn — the
    // kFault post action re-unblocks the signals), and let the post action
    // quarantine the stack and wake joiners. Same async-signal-safe recovery
    // as fault.cpp's handler, minus the classification.
    t->fault.kind = FaultKind::kCancelled;
    t->store_state(ThreadState::kFailed);
    w->metrics.ult_faults.add(1);
    w->metrics.ult_cancels.add(1);
    LPT_TRACE_EVENT(trace::EventType::kUltCancel, t->trace_id, 1);
    tls->in_ult = false;
    w->post = PostAction{PostKind::kFault, t, nullptr, nullptr};
    if (t->preempt == Preempt::KltSwitch) {
      // The interrupted thread may have KLT-dependent state frozen on this
      // kernel thread (§3.1.2): retire the poisoned KLT to a pool spare,
      // exactly like a contained fault under KLT-switching.
      KltCtl* self = tls->klt;
      KltCtl* b = self != nullptr ? rt->klt_pool().try_pop(w->rank) : nullptr;
      if (b != nullptr) {
        rt->note_klt_retired();
        LPT_TRACE_EVENT(trace::EventType::kKltRetired, t->trace_id,
                        static_cast<std::uint64_t>(self->trace_id >= 0
                                                       ? self->trace_id
                                                       : 0));
        b->action = KltAction::kBecomeWorker;
        b->assign_worker = w;
        // Unlike the fault handler (sigaltstack), this handler is running on
        // the cancelled ULT's own stack — and the kFault post action b will
        // execute scrubs that stack for quarantine. Defer b's wake to
        // klt_main (pending_wake), which posts it only after the jump below
        // has moved this KLT onto its native stack.
        self->pending_wake = b;
        self->pending_wake_in_handler = false;
        self->native_op = KltNativeOp::kExit;
        context_jump(self->native_ctx);  // klt_main wakes b, then returns
      }
      // No spare: keep hosting the worker here (the cancelled thread's
      // KLT-local damage, if any, is the app's stated risk) and request a
      // replacement like the fault path does.
      if (!rt->klt_creator().saturated() && !rt->klt_cap_reached())
        rt->klt_creator().request();
    }
    context_jump(w->sched_ctx);
  }

  // Timer-fire → handler-entry latency: the sender stamped the worker; all
  // operations here (exchange, histogram fetch_add, ring record) are
  // async-signal-safe.
  if (LPT_TRACE_ON()) {
    const std::int64_t now = trace::now_ns();
    const std::int64_t sent =
        w->preempt_sent_ns.exchange(0, std::memory_order_relaxed);
    std::uint64_t delivery = 0;
    if (sent != 0 && now > sent) {
      delivery = static_cast<std::uint64_t>(now - sent);
      w->hist_delivery.record(static_cast<std::int64_t>(delivery));
    }
    trace::emit(trace::EventType::kHandlerEnter, t->trace_id, delivery);
  }

  if (t->preempt == Preempt::SignalYield)
    detail::handler_signal_yield(w, t);
  else
    detail::handler_klt_switch(rt, w, t);

  // Possibly on another kernel thread now: a plain `errno =` would write
  // the one this handler entered on, under the ULT that runs there now.
  set_errno_here(saved_errno);
}

/// The resume signal only needs to interrupt sigsuspend; the wake token is
/// the KltCtl::sig_resume flag set by the waker.
void resume_handler(int /*signo*/) {}

/// LPT_PROF_HZ sampling handler: records a sample and returns — it never
/// switches contexts, so unlike the preemption path it also profiles
/// Preempt::None ULTs. Ticks landing outside ULT code (scheduler/idle) are
/// simply not counted; the reconciliation contract only covers ULT samples.
void prof_handler(int /*signo*/, siginfo_t* /*si*/, void* uctx) {
  const int saved_errno = errno;
  WorkerTls* tls = worker_tls();
  if (tls->worker != nullptr && tls->in_ult && tls->hosted_ult != nullptr)
    prof_sample_interrupted(tls, tls->hosted_ult, uctx);
  errno = saved_errno;
}

}  // namespace

void install_handlers() {
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &preempt_handler;
    sigemptyset(&sa.sa_mask);
    // SA_RESTART per §3.5.1; no SA_ONSTACK — the frame must live on the ULT
    // stack so it suspends and resumes with the thread.
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    LPT_CHECK(sigaction(preempt_signo(), &sa, nullptr) == 0);

    struct sigaction sr;
    std::memset(&sr, 0, sizeof(sr));
    sr.sa_handler = &resume_handler;
    sigemptyset(&sr.sa_mask);
    sr.sa_flags = SA_RESTART;
    LPT_CHECK(sigaction(resume_signo(), &sr, nullptr) == 0);

    struct sigaction sp;
    std::memset(&sp, 0, sizeof(sp));
    sp.sa_sigaction = &prof_handler;
    sigemptyset(&sp.sa_mask);
    // Keep the preempt signal blocked while sampling so a preemption cannot
    // context-switch away mid-sample on the same KLT.
    sigaddset(&sp.sa_mask, preempt_signo());
    sp.sa_flags = SA_SIGINFO | SA_RESTART;
    LPT_CHECK(sigaction(prof_signo(), &sp, nullptr) == 0);
    return true;
  }();
  (void)installed;
}

void block_runtime_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, preempt_signo());
  sigaddset(&set, resume_signo());
  sigaddset(&set, prof_signo());
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

void unblock_preempt() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, preempt_signo());
  sigaddset(&set, prof_signo());
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
}

void send_preempt(Worker& w, int initiator_rank) {
  // Shutdown gate: the destructor clears every worker's current_klt before
  // joining, but a racing sender may already hold a stale KltCtl*. Checking
  // shutting_down() *after* the load closes that window for every sender
  // that starts once shutdown is visible (timer threads and in-handler
  // chain forwards both come through here).
  KltCtl* k = w.current_klt.load(std::memory_order_acquire);
  if (k == nullptr || w.rt == nullptr || w.rt->shutting_down()) return;
  w.metrics.ticks_sent.add(1);
  // Stamp the send for delivery-latency accounting (overwritten by a newer
  // send before the handler consumes it — the handler then measures against
  // the most recent delivery attempt, which is the one it serves).
  if (LPT_TRACE_ON())
    w.preempt_sent_ns.store(trace::now_ns(), std::memory_order_relaxed);
  sigval v;
  v.sival_int = initiator_rank;
  // pthread_sigqueue is a thin rt_tgsigqueueinfo wrapper; safe from handlers.
  // Routed through sys for fault injection; a failed send (injected EAGAIN
  // for a full RT-signal queue, or a target mid-exit) just skips this tick —
  // preemption is periodic, the next interval retries.
  sys::pthread_sigqueue(k->pthread, preempt_signo(), v);
}

void send_prof_tick(Worker& w) {
  // Same stale-KltCtl shutdown gate as send_preempt.
  KltCtl* k = w.current_klt.load(std::memory_order_acquire);
  if (k == nullptr || w.rt == nullptr || w.rt->shutting_down()) return;
  sigval v;
  v.sival_int = -1;
  sys::pthread_sigqueue(k->pthread, prof_signo(), v);
}

}  // namespace lpt::signals
