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

/// Terminate the current ULT (no save; the scheduler recycles the stack).
[[noreturn]] void suspend_exit(ThreadCtl* self);

/// Terminate the current ULT as Failed (exception firewall path; self->fault
/// must already be filled in). The scheduler quarantines the stack and wakes
/// joiners with the failure record.
[[noreturn]] void suspend_fail(ThreadCtl* self);

/// Terminate the current ULT as Failed(kCancelled) — the cooperative half of
/// cancellation. Same landing as suspend_fail (stack quarantined, joiners
/// woken with the failure record) but counted as a cancellation. Destructors
/// of frames live on the abandoned stack do NOT run (docs/robustness.md).
[[noreturn]] void suspend_cancel(ThreadCtl* self);

/// Cancellation point: returns normally unless `self` has a pending cancel
/// request, in which case it does not return (suspend_cancel), or a child
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

/// Resume a KLT parked inside the handler (futex or sigsuspend, per options).
void wake_bound_klt(Runtime* rt, KltCtl* k);

/// Re-enter ULT mode after a resume (sets in_ult on the *current* KLT).
void mark_in_ult();

}  // namespace lpt::detail
