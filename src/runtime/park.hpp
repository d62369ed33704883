// Parking registry (docs/robustness.md, "Deadlock detection & recovery").
// Every blocking primitive — Mutex, CondVar, RwLock, Semaphore, Barrier,
// Latch, WaitGroup, join, sleep and the timed waits — parks through
// WaitQueue::wait (wait_queue.hpp), the only caller of link()/unlink().
//
// Each worker keeps one intrusive List of the ULTs that parked on it, under
// a worker-local spinlock. A waiter links itself while holding its queue's
// lock and unlinks itself after it resumes, so holding a list's lock keeps
// every linked waiter inside wait() — its queue and its primitive stay
// alive. Two consumers walk the lists: the timed-wait expiry scan
// (Runtime::expire_timers) and the deadlock detector (Runtime::deadlock_poll,
// in park.cpp). Both end a wait the same way, through settle(). Lock order
// is queue, then list: scanners only try-lock queues.
//
// Timed waits are always linked; every wait is linked while armed()
// (RuntimeOptions::deadlock_detection). Disarmed, an untimed park costs one
// relaxed load. Lock holders are recorded in the locks themselves (Mutex's
// owner, RwLock's writer and reader slots); each thread keeps the small set
// of tracked locks it holds, which the abandonment scan
// (Runtime::note_owner_finished) walks when the thread ends.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/spinlock.hpp"

namespace lpt {

struct ThreadCtl;
class WaitQueue;
enum class WaitResult : std::uint8_t;

namespace park {

namespace internal {
extern std::atomic<bool> g_armed;
}

/// True when every wait is linked (RuntimeOptions::deadlock_detection).
/// One relaxed load — the whole disarmed-cost story hangs on this.
inline bool armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// True when abandoned resources are force-released (LPT_ABANDON_RELEASE).
bool abandon_release_enabled();

/// Arm/disarm, called by the Runtime constructor/destructor. Arming resets
/// the detector's cycle memory so sequential runtimes start clean.
void arm(bool deadlock_detection, bool abandon_release);
void disarm();

/// A lock whose holders the registry tracks (Mutex, RwLock). The lock keeps
/// its holder slots itself; the abandonment scan calls back into it.
class Ownable {
 public:
  /// Finalize-context hook for a thread that ended while recorded as a
  /// holder: clear `dead` from the lock's slots and, when `release`,
  /// force-release so parked waiters unwedge. Returns whether a release
  /// freed or handed off the lock.
  virtual bool abandon(ThreadCtl* dead, bool release) = 0;
  /// prof::WaitKind of the lock, for reports and trace events.
  virtual std::uint8_t kind() const = 0;

 protected:
  ~Ownable() = default;
};

/// The waits-for edge a waiter declares: the holder slots of the lock it
/// waits for, or the thread it joins. Empty for waits on a notify or a
/// count (CondVar & co.): such waiters can never be cycle members.
struct Edge {
  const std::atomic<ThreadCtl*>* holders = nullptr;
  int n_holders = 0;
  ThreadCtl* joinee = nullptr;
};

/// Holder slots a lock can expose (RwLock: writer + kMaxReaders readers).
inline constexpr int kMaxReaders = 4;
inline constexpr int kMaxHolders = 1 + kMaxReaders;
/// Tracked locks one thread can be recorded as holding at once.
inline constexpr int kMaxHeld = 8;

struct List;

/// A thread's registry record (ThreadCtl::parking). The link fields are
/// written by the thread under its list's lock, or — by settle() — on its
/// behalf while the thread is parked; the held set is written by whoever
/// exclusively owns the thread under the lock being recorded.
struct Entry {
  List* list = nullptr;  ///< the list this thread is linked on; null = none
  ThreadCtl* prev = nullptr;
  ThreadCtl* next = nullptr;
  WaitQueue* queue = nullptr;  ///< the queue it waits on, while linked
  std::int64_t deadline = 0;   ///< absolute now_ns(); 0 = untimed
  Edge edge;
  std::uint8_t kind = 0;       ///< prof::WaitKind
  /// Tracked locks held. Invariant: a reader is in an RwLock's reader slots
  /// exactly when the lock is in its set; a Mutex owner or RwLock writer is
  /// in the set only while it is the lock's recorded holder. A full set
  /// records neither side, so detection may miss a cycle (or an abandoned
  /// lock) but never reports a false one.
  Ownable* held[kMaxHeld] = {};
  int n_held = 0;
};

/// One worker's parked ULTs.
struct List {
  Spinlock lock;
  ThreadCtl* head = nullptr;
  /// Linked entries; written under `lock`, read lock-free by stats.
  std::atomic<std::uint32_t> count{0};
};

/// Whether a wait with `deadline` (0 = untimed) is linked: timed waits
/// always (expiry walks the lists), every wait while armed().
inline bool links(std::int64_t deadline) { return deadline != 0 || armed(); }

/// Link `self` onto `list`: called by WaitQueue::wait with `queue`'s lock
/// held, after self joined `queue`, before suspend_block.
void link(ThreadCtl* self, List& list, WaitQueue* queue, std::uint8_t kind,
          std::int64_t deadline, const Edge& edge);
/// Unlink `self` after it resumed (before its primitive may die). No-op
/// when settle() already unlinked it.
void unlink(ThreadCtl* self);

/// End linked waiter `t`'s wait on behalf of a non-primitive waker (timed
/// expiry kTimedOut, deadlock break kBroken), with t's list lock held:
/// try-lock t's queue, remove t from it, record `r` (kBroken also marks a
/// kDeadlock cancel) and unlink t. False, with nothing changed, when the
/// queue lock is busy or a normal waker removed t first. On true the caller
/// owns t's wake (WaitQueue::wake) once it has dropped the list lock.
bool settle(ThreadCtl* t, WaitResult r);

/// Record `lock` in a thread's held set (ThreadCtl::parking); false when
/// disarmed or the set is full. Mutex owners and RwLock writers: the lock's
/// own slot is set regardless.
inline bool hold(Entry& en, Ownable* lock) {
  if (!armed() || en.n_held == kMaxHeld) return false;
  en.held[en.n_held++] = lock;
  return true;
}
/// Drop `lock` from a thread's held set (no-op when absent).
inline void drop(Entry& en, Ownable* lock) {
  for (int i = 0; i < en.n_held; ++i) {
    if (en.held[i] == lock) {
      en.held[i] = en.held[--en.n_held];
      return;
    }
  }
}

/// Record `t` in a free slot of `slots[0..n)` and `lock` in t's held set —
/// both or neither (RwLock readers). Call under the lock's guard.
bool record(Ownable* lock, std::atomic<ThreadCtl*>* slots, int n,
            ThreadCtl* t);
/// Undo record(): clear t's slot and drop `lock` from its held set. False
/// when t was not recorded. Call under the lock's guard.
bool unrecord(Ownable* lock, std::atomic<ThreadCtl*>* slots, int n,
              ThreadCtl* t);

}  // namespace park
}  // namespace lpt
