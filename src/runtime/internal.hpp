// Cross-translation-unit internals of the runtime. Not installed; not part
// of the public API.
#pragma once

#include <atomic>

#include "common/assert.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sync.hpp"

namespace lpt::detail {

/// Process-global active runtime (anchor for the signal handler).
std::atomic<Runtime*>& runtime_slot();
inline Runtime* runtime_instance() {
  return runtime_slot().load(std::memory_order_acquire);
}

/// The ULT running on the calling KLT, or nullptr (scheduler/external).
ThreadCtl* current_ult_or_null();

/// current_ult_or_null() for ULT-only APIs: aborts with `what` elsewhere.
inline ThreadCtl* require_ult(const char* what) {
  ThreadCtl* self = current_ult_or_null();
  LPT_CHECK_MSG(self != nullptr, what);
  return self;
}

/// NoPreemptGuard internals, usable with an explicit ThreadCtl so the guard
/// survives a migration to another KLT (the depth lives in the ThreadCtl).
void begin_no_preempt(ThreadCtl* self);
void end_no_preempt(ThreadCtl* self);

/// Claim the worker's scheduler-context ownership token (Worker::host_token)
/// for the calling KLT. False when a forced replacement or a syscall
/// compensation gave the worker to another KLT: the caller is stranded and
/// must not touch the worker again. Async-signal-safe.
inline bool claim_host_token(WorkerTls* tls) {
  KltCtl* expect = tls->klt;
  return tls->worker->host_token.compare_exchange_strong(
      expect, nullptr, std::memory_order_acq_rel, std::memory_order_acquire);
}

/// Borrow the calling ULT's worker for its spawn caches (Worker, "spawn
/// caches") or an inline join's take: claims the worker's host token from
/// this KLT, which keeps a forced KLT replacement (the only other way onto
/// the worker while the ULT runs) out until return_worker. Call inside a
/// no-preempt guard. nullptr for external threads and for a ULT whose KLT
/// was orphaned; callers then take the shared paths.
Worker* borrow_worker(ThreadCtl* self);
/// Hand back a worker from borrow_worker (no-op for nullptr).
void return_worker(Worker* w);

// --- suspension primitives -------------------------------------------------
// All of these context switch to the worker's scheduler and are deliberately
// not inlined: after the switch the ULT may run on a *different* kernel
// thread, so every TLS access inside re-derives its address.

/// Voluntary yield of the current ULT.
void suspend_yield(ThreadCtl* self);

/// Block the current ULT. The scheduler unlocks `sl` (and then `m`, if
/// non-null) only after the thread's context is fully saved, closing the
/// enqueue-before-save race.
void suspend_block(ThreadCtl* self, Spinlock* sl, Mutex* m);

/// Terminate the current ULT (no save): finished when `end` is kNone, else
/// failed as `end` through record_failure (kException for the exception
/// firewall, with self->fault.what filled in; kCancelled for a cancel). The
/// scheduler recycles a finished thread's stack and quarantines a failed
/// one's, then wakes joiners. A cancel abandons the frames live on the
/// stack: their destructors do NOT run (docs/robustness.md).
[[noreturn]] void suspend_exit(ThreadCtl* self,
                               FaultKind end = FaultKind::kNone);

/// The one failure record: end `t` kFailed as `kind` — kCancelled stands for
/// any cancel and records t->cancel_fault — and count it on `m`: ult_faults,
/// plus ult_cancels, escaped_exceptions or stack_overflows by kind. Emits
/// kUltCancel with arg0 `cancel_site` (common/trace.hpp) or kUltFault.
/// Async-signal-safe: every counter it touches is an AtomicCounter.
void record_failure(ThreadCtl* t, FaultKind kind, metrics::WorkerMetrics& m,
                    std::uint64_t cancel_site = 0);

/// Leave a KLT whose worker moved on to another host (docs/robustness.md
/// "Self-healing"): save self's context, hand `a` to klt_main, which runs it
/// off the ULT stack, and release the KLT with `op` (kExit ends the kernel
/// thread, kPark returns it to the pool). Returns when a worker resumes
/// self — never after a kExit or kFault action: that thread has ended.
void leave_klt(ThreadCtl* self, PostAction a, KltNativeOp op);

/// Cancellation point: returns normally unless `self` has a pending cancel
/// request, in which case it does not return (suspend_exit), or a child
/// it runs inline has one, in which case it cuts back to that child's join
/// site (DESIGN.md, "Inline join"). Safe to call with nullptr (external
/// thread / scheduler context).
void cancel_point(ThreadCtl* self);

// --- preemption-handler bodies (called from the signal handler) ------------

/// Signal-yield (§3.1.1): switch to the scheduler from inside the handler.
void handler_signal_yield(Worker* w, ThreadCtl* t);

/// KLT-switching (§3.1.2): remap the worker to a pool KLT and park this one
/// inside the handler; returns without preempting when no KLT is available
/// (a creation request is posted and the thread retries at the next tick).
void handler_klt_switch(Runtime* rt, Worker* w, ThreadCtl* t);

/// End t, running on this KLT with w's host token claimed, from inside a
/// signal handler — a contained fault or a directed cancel: record the
/// failure and jump to w's scheduler, whose kFault post action quarantines
/// t's stack. Under KLT-switching (§3.1.2) t's KLT-local state died with it,
/// so a pool spare takes the worker over and this KLT exits.
[[noreturn]] void fail_in_handler(Runtime* rt, Worker* w, ThreadCtl* t,
                                  FaultKind kind);

/// Resume a KLT parked inside the handler (futex or sigsuspend, per options).
void wake_bound_klt(Runtime* rt, KltCtl* k);

/// Re-enter ULT mode after a resume (sets in_ult on the *current* KLT).
void mark_in_ult();

}  // namespace lpt::detail
