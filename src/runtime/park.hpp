// Unified parking registry (docs/robustness.md, "Deadlock detection &
// recovery"). Every blocking primitive — Mutex, CondVar, RwLock, Semaphore,
// Barrier, Latch, WaitGroup, join, sleep and the timed waits — parks through
// WaitQueue::wait (wait_queue.hpp), the only caller of park()/unpark(): it
// declares a *waiter ULT → resource → owner ULT(s)* edge here at park time,
// naming the WaitQueue the waiter sits on, and clears it at wake. Its
// consumers are the watchdog-driven deadlock detector
// (Runtime::deadlock_poll, defined in park.cpp) and the abandoned-lock
// tracker (Runtime::note_owner_finished).
//
// Cost discipline matches prof/metrics: when disarmed (LPT_DEADLOCK=0) every
// entry point is one relaxed load + predicted branch — no atomics, no slab
// writes, so the yield/mutex fast paths stay untouched. When armed, a park
// claims one slot in a process-global never-freed slab with a versioned CAS
// and the waiter frees it at wake; the detector reads slots lock-free with a
// seqlock-style re-read and pins a slot (phase kPinned) only for the short
// window where it dereferences the waiter's WaitQueue.
//
// Slot state word: gen(30 bits) | phase(2 bits). Claim bumps the generation,
// so a detector snapshot taken against one occupancy can never be confused
// with a later tenant of the same slot (ABA-safe).
#pragma once

#include <atomic>
#include <cstdint>

namespace lpt {

struct ThreadCtl;
class WaitQueue;

namespace park {

/// Owner-tracking record for an ownable resource (Mutex, RwLock): who holds
/// it right now, readable lock-free by the deadlock detector and the
/// abandonment scan. Lives in a process-global never-freed slab, so the
/// pointer a primitive caches stays valid across Runtime lifetimes (same
/// contract as prof::LockStats).
struct ResourceState {
  static constexpr int kMaxOwners = 4;
  /// Current owners: the writer (or mutex holder) in any slot; RwLock
  /// readers CAS-insert into free slots. Cleared on release/handoff.
  std::atomic<ThreadCtl*> owners[kMaxOwners] = {};
  /// More simultaneous readers than slots: tracking is incomplete and
  /// abandonment detection degrades to best-effort for this resource.
  std::atomic<bool> owner_overflow{false};
  /// Published (release) once kind/primitive/on_abandon are written; the
  /// abandonment scan reads nothing else before it (acquire).
  std::atomic<bool> ready{false};
  std::uint8_t kind = 0;  ///< prof::WaitKind of the primitive
  void* primitive = nullptr;
  /// Abandonment hook, called from finalize context when an owner ULT ends
  /// while still recorded as holding this resource: must clear the
  /// primitive's own owner record and, when `release`, force-release the
  /// resource so parked siblings unwedge. Returns true when a release
  /// actually freed or handed off the resource.
  bool (*on_abandon)(void* primitive, ThreadCtl* dead, bool release) = nullptr;
};

namespace internal {
extern std::atomic<bool> g_armed;
}

/// True when the registry records edges (RuntimeOptions::deadlock_detection).
/// One relaxed load — the whole disarmed-cost story hangs on this.
inline bool armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// True when abandoned resources are force-released (LPT_ABANDON_RELEASE).
bool abandon_release_enabled();

/// Arm/disarm, called by the Runtime constructor/destructor. Arming resets
/// the detector's cycle memory (pending/reported hashes) so sequential
/// runtimes start clean; slots and resource records persist (never freed).
void arm(bool deadlock_detection, bool abandon_release);
void disarm();

/// Attach an owner-tracking record for `primitive`. Returns nullptr when
/// disarmed or the slab is exhausted (the primitive stays untracked — missed
/// detection, never false positives). Call under the primitive's guard.
ResourceState* acquire_resource(std::uint8_t kind, void* primitive,
                                bool (*on_abandon)(void*, ThreadCtl*, bool));

/// Record/clear `t` as an owner of `rs`. Both tolerate rs == nullptr (slab
/// exhaustion) and maintain t->owned_tracked — the per-ULT count that lets
/// a normally-exiting thread skip the abandonment scan in O(1). add_owner
/// sets owner_overflow instead of inserting when all slots are taken;
/// remove_owner decrements only when it actually cleared a slot, keeping the
/// two in agreement. Callers serialize per resource via the primitive's
/// guard (or the handoff discipline: a waker edits on behalf of a thread it
/// exclusively owns).
void add_owner(ResourceState* rs, ThreadCtl* t);
void remove_owner(ResourceState* rs, ThreadCtl* t);

/// add_owner() on a lazily attached record: while armed, attaches `*rs`
/// (acquire_resource) on first use, then records `t`. Call under the
/// primitive's guard; a no-op when disarmed (one relaxed load).
inline void add_owner(ResourceState*& rs, std::uint8_t kind, void* primitive,
                      bool (*on_abandon)(void*, ThreadCtl*, bool),
                      ThreadCtl* t) {
  if (!armed()) return;
  if (rs == nullptr) rs = acquire_resource(kind, primitive, on_abandon);
  add_owner(rs, t);
}

/// Declare "self is parked": called by WaitQueue::wait while holding
/// `queue`'s lock, after self joined `queue`, before suspend_block. The
/// detector follows res->owners (ownable resources) or `direct_owner`
/// (join: the joined thread) for the waits-for edge; both may be null
/// (CondVar & co. have no owner — such waits can never be cycle members).
/// `timed` waiters (timed acquires, join_for, sleep) are recorded but
/// excluded from cycle breaking: their waits self-resolve by timeout.
void park(ThreadCtl* self, std::uint8_t kind, bool timed, ResourceState* res,
          ThreadCtl* direct_owner, WaitQueue* queue);

/// Clear the edge; called by the waiter right after suspend_block returns
/// (before the primitive can be destroyed). Spins out a detector pin. No-op
/// when park() registered nothing or a deadlock break already freed the slot
/// on the victim's behalf.
void unpark(ThreadCtl* self);

// ----- introspection (tests, detector fast path) -----

/// Registered parked waiters right now.
std::uint32_t parked_count();
/// Parks that found no free slot (unregistered, counted, never an error).
std::uint64_t slot_overflows();

/// Test-only: one detector-style pass over the registry without a Runtime —
/// seqlock-read every occupied slot, pin it, re-check coherence, unpin.
/// Returns the number of coherently-read slots. Exercises the slot protocol
/// against concurrent park/unpark (TSan coverage in park_test.cpp).
std::uint32_t debug_scan();

}  // namespace park
}  // namespace lpt
