// Parking registry + the deadlock detector and abandonment scan built on it.
// Runtime::deadlock_poll / note_self_deadlock / note_owner_finished are
// defined here (not in runtime.cpp) so the whole deadlock subsystem lives in
// one translation unit next to the lists it walks.
#include "runtime/park.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/assert.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/thread.hpp"
#include "runtime/wait_queue.hpp"
#include "runtime/watchdog.hpp"
#include "runtime/worker.hpp"

namespace lpt::park {

namespace internal {
std::atomic<bool> g_armed{false};
}

namespace {

std::atomic<std::uint32_t> g_cycle_seq{0};
std::atomic<bool> g_abandon_release{false};

// Detector cycle memory. Single-threaded by construction: deadlock_poll runs
// only inside Watchdog::poll, which runs only on the runtime's service
// thread. Reset on arm() so sequential runtimes start clean.
std::unordered_set<std::uint64_t> g_pending;   ///< seen once, validated
std::unordered_set<std::uint64_t> g_reported;  ///< flagged (and maybe broken)

/// One linked waiter as the detector saw it under its list's lock. Owner
/// pointers are snapshotted for pointer comparison only — they are never
/// dereferenced (the owner may be finalizing).
struct ParkedEdge {
  List* list = nullptr;
  ThreadCtl* waiter = nullptr;
  std::uint32_t waiter_id = 0;
  std::uint8_t kind = 0;
  bool timed = false;
  ThreadCtl* owner_snap[kMaxHolders] = {};
  int owner_count = 0;
};

/// Unlink `t` from its list; that list's lock held.
void unlink_locked(ThreadCtl* t) {
  Entry& en = t->parking;
  List& list = *en.list;
  if (en.prev != nullptr)
    en.prev->parking.next = en.next;
  else
    list.head = en.next;
  if (en.next != nullptr) en.next->parking.prev = en.prev;
  en.list = nullptr;
  list.count.store(list.count.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
}

/// Snapshot every entry of `list` (its lock keeps each waiter, and so its
/// primitive's holder slots, alive while we read).
void snapshot_list(List& list, std::vector<ParkedEdge>& out) {
  SpinlockGuard g(list.lock);
  for (ThreadCtl* t = list.head; t != nullptr; t = t->parking.next) {
    const Entry& en = t->parking;
    ParkedEdge e;
    e.list = &list;
    e.waiter = t;
    e.waiter_id = t->trace_id;
    e.kind = en.kind;
    e.timed = en.deadline != 0;
    if (en.edge.joinee != nullptr) {
      e.owner_snap[e.owner_count++] = en.edge.joinee;
    } else {
      for (int k = 0; k < en.edge.n_holders; ++k) {
        ThreadCtl* o = en.edge.holders[k].load(std::memory_order_relaxed);
        if (o != nullptr) e.owner_snap[e.owner_count++] = o;
      }
    }
    out.push_back(e);
  }
}

/// Re-check under e's list lock that its waiter is still linked there (the
/// same thread: the trace id guards a recycled control block) and still on
/// its queue — the test that separates a genuinely parked thread from a
/// stale edge whose wakeup is in flight. With `brk`, settle it as a deadlock
/// victim instead; the caller then owns its wake.
bool recheck(const ParkedEdge& e, bool brk) {
  SpinlockGuard g(e.list->lock);
  ThreadCtl* t = e.list->head;
  while (t != nullptr && t != e.waiter) t = t->parking.next;
  if (t == nullptr || t->trace_id != e.waiter_id) return false;
  if (brk) return settle(t, WaitResult::kBroken);
  WaitQueue* q = t->parking.queue;
  if (!q->lock().try_lock()) return false;
  const bool parked = q->contains(t);
  q->lock().unlock();
  return parked;
}

/// Order-independent hash of the cycle's member trace ids.
std::uint64_t cycle_hash(const std::vector<ParkedEdge>& edges,
                         const std::vector<int>& cyc) {
  std::uint64_t ids[WatchdogReport::kMaxCycle * 4];
  std::size_t n = 0;
  for (int i : cyc)
    if (n < sizeof(ids) / sizeof(ids[0])) ids[n++] = edges[i].waiter_id;
  std::sort(ids, ids + n);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= ids[i] + 1;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

bool abandon_release_enabled() {
  return g_abandon_release.load(std::memory_order_relaxed);
}

void arm(bool deadlock_detection, bool abandon_release) {
  g_abandon_release.store(abandon_release, std::memory_order_relaxed);
  g_pending.clear();
  g_reported.clear();
  internal::g_armed.store(deadlock_detection, std::memory_order_release);
}

void disarm() { internal::g_armed.store(false, std::memory_order_release); }

void link(ThreadCtl* self, List& list, WaitQueue* queue, std::uint8_t kind,
          std::int64_t deadline, const Edge& edge) {
  Entry& en = self->parking;
  en.queue = queue;
  en.deadline = deadline;
  en.edge = edge;
  en.kind = kind;
  en.prev = nullptr;
  SpinlockGuard g(list.lock);
  en.list = &list;
  en.next = list.head;
  if (list.head != nullptr) list.head->parking.prev = self;
  list.head = self;
  list.count.store(list.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

void unlink(ThreadCtl* self) {
  List* list = self->parking.list;
  if (list == nullptr) return;  // never linked, or settle() unlinked us
  SpinlockGuard g(list->lock);
  unlink_locked(self);
}

bool settle(ThreadCtl* t, WaitResult r) {
  WaitQueue* q = t->parking.queue;
  if (!q->lock().try_lock()) return false;
  const bool removed = q->remove(t);
  if (removed) {
    t->wait_result = r;
    if (r == WaitResult::kBroken) {
      t->cancel_fault = FaultKind::kDeadlock;
      t->cancel_requested.store(true, std::memory_order_release);
    }
  }
  q->lock().unlock();
  if (removed) unlink_locked(t);
  return removed;
}

bool record(Ownable* lock, std::atomic<ThreadCtl*>* slots, int n,
            ThreadCtl* t) {
  for (int i = 0; i < n; ++i) {
    if (slots[i].load(std::memory_order_relaxed) != nullptr) continue;
    if (!hold(t->parking, lock)) return false;
    slots[i].store(t, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool unrecord(Ownable* lock, std::atomic<ThreadCtl*>* slots, int n,
              ThreadCtl* t) {
  for (int i = 0; i < n; ++i) {
    if (slots[i].load(std::memory_order_relaxed) != t) continue;
    slots[i].store(nullptr, std::memory_order_relaxed);
    drop(t->parking, lock);
    return true;
  }
  return false;
}

}  // namespace lpt::park

// ---------------------------------------------------------------------------
// Deadlock detector & abandonment scan (Runtime members; see runtime.hpp)
// ---------------------------------------------------------------------------

namespace lpt {

std::uint32_t Runtime::parked_count() const {
  std::uint32_t n = 0;
  for (const auto& w : workers_)
    n += w->park_list.count.load(std::memory_order_relaxed);
  return n;
}

void Runtime::deadlock_poll(Watchdog* wd, int* remediate_budget) {
  using park::ParkedEdge;
  if (!park::armed()) return;

  // 1. Snapshot every worker's list, one list lock at a time.
  std::vector<ParkedEdge> edges;
  if (parked_count() != 0)
    for (auto& w : workers_) park::snapshot_list(w->park_list, edges);
  if (edges.empty()) {
    park::g_pending.clear();
    return;
  }

  // 2. Waits-for graph: nodes are parked waiters, an edge runs to each owner
  // of the awaited resource that is itself parked (a running owner can make
  // progress — it is never a cycle member).
  const int n = static_cast<int>(edges.size());
  std::unordered_map<ThreadCtl*, int> node;
  node.reserve(edges.size());
  for (int i = 0; i < n; ++i) node.emplace(edges[i].waiter, i);
  std::vector<std::vector<int>> adj(edges.size());
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < edges[i].owner_count; ++k) {
      auto it = node.find(edges[i].owner_snap[k]);
      if (it != node.end()) adj[i].push_back(it->second);
    }
  }

  // 3. Colored DFS, collecting every distinct cycle.
  std::vector<std::vector<int>> cycles;
  std::vector<int> color(edges.size(), 0);  // 0 white, 1 on path, 2 done
  std::vector<std::pair<int, int>> stk;     // (node, next edge index)
  std::vector<int> path;
  for (int s0 = 0; s0 < n; ++s0) {
    if (color[s0] != 0) continue;
    stk.assign(1, {s0, 0});
    path.assign(1, s0);
    color[s0] = 1;
    while (!stk.empty()) {
      const int u = stk.back().first;
      if (stk.back().second < static_cast<int>(adj[u].size())) {
        const int v = adj[u][stk.back().second++];
        if (color[v] == 0) {
          color[v] = 1;
          stk.push_back({v, 0});
          path.push_back(v);
        } else if (color[v] == 1) {
          auto pos = std::find(path.begin(), path.end(), v);
          cycles.emplace_back(pos, path.end());
        }
      } else {
        color[u] = 2;
        stk.pop_back();
        path.pop_back();
      }
    }
  }

  // 4. Judge each cycle. A cycle is flagged only when (a) no member's wait
  // is timed (those self-resolve by timeout), (b) every member re-validates
  // as genuinely parked under its primitive's guard, and (c) the identical
  // member set was already validated on the previous poll — two passes plus
  // per-member validation make transient handoff races invisible, so a
  // healthy contended runtime can never flag.
  std::unordered_set<std::uint64_t> seen_now;
  for (const auto& cyc : cycles) {
    bool timed = false;
    for (int i : cyc) timed = timed || edges[i].timed;
    if (timed) continue;
    const std::uint64_t h = park::cycle_hash(edges, cyc);
    if (!seen_now.insert(h).second) continue;  // same cycle, another route
    if (park::g_reported.count(h) != 0) continue;
    bool valid = true;
    for (int i : cyc) {
      if (!park::recheck(edges[i], /*brk=*/false)) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      park::g_pending.erase(h);
      continue;
    }
    if (park::g_pending.insert(h).second) continue;  // first sighting: wait

    // Confirmed on a second consecutive poll. Break the youngest member
    // (highest trace id — deterministic, and the victim with the least
    // progress to lose) when remediation is armed and budget remains.
    const bool want_break = remediate_budget != nullptr;
    if (want_break && *remediate_budget <= 0) continue;  // retry next poll
    int victim = cyc[0];
    for (int i : cyc)
      if (edges[i].waiter_id > edges[victim].waiter_id) victim = i;
    bool broke = false;
    if (want_break) {
      broke = park::recheck(edges[victim], /*brk=*/true);
      if (!broke) {
        // The victim's park dissolved under us (the cycle is resolving) —
        // forget the cycle and re-detect from scratch if it persists.
        park::g_pending.erase(h);
        continue;
      }
      --*remediate_budget;
      note_remediation(RemediationKind::kDeadlockBreak, -1,
                       WatchdogReport::Kind::kDeadlock, false);
    }
    park::g_pending.erase(h);
    park::g_reported.insert(h);
    n_deadlock_cycles_.add(1);
    const std::uint32_t cid =
        park::g_cycle_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    WatchdogReport rep;
    rep.kind = WatchdogReport::Kind::kDeadlock;
    rep.worker = -1;
    for (int i : cyc) {
      const bool is_victim = broke && i == victim;
      LPT_TRACE_EVENT(trace::EventType::kDeadlock, edges[i].waiter_id, cid,
                      static_cast<std::uint64_t>(edges[i].kind) |
                          (is_victim ? trace::kDeadlockVictimFlag : 0u));
      if (rep.cycle_len < WatchdogReport::kMaxCycle) {
        rep.cycle[rep.cycle_len] = edges[i].waiter_id;
        rep.cycle_kinds[rep.cycle_len] = edges[i].kind;
        ++rep.cycle_len;
      }
    }
    rep.victim = broke ? edges[victim].waiter_id : 0;
    rep.remediation =
        broke ? RemediationKind::kDeadlockBreak : RemediationKind::kNone;
    wd->report(rep);
    // Wake the victim only now: whoever joins the cycle's survivors then
    // sees the break fully accounted.
    if (broke) WaitQueue::wake(edges[victim].waiter, /*waker=*/0);
  }

  // 5. Forget cycles that dissolved (a re-formed cycle is re-confirmed from
  // scratch, and a broken one stops occupying report memory).
  for (auto it = park::g_pending.begin(); it != park::g_pending.end();)
    it = seen_now.count(*it) != 0 ? std::next(it) : park::g_pending.erase(it);
  for (auto it = park::g_reported.begin(); it != park::g_reported.end();)
    it = seen_now.count(*it) != 0 ? std::next(it) : park::g_reported.erase(it);
}

void Runtime::note_self_deadlock(ThreadCtl* self, std::uint8_t kind) {
  // The caller (Mutex/RwLock lock fast path) already marked `self` for
  // cancellation with cancel_fault = kDeadlock; this is pure accounting: a
  // self-deadlock is a 1-cycle detected synchronously, no detector involved.
  n_deadlock_cycles_.add(1);
  n_self_deadlocks_.add(1);
  const std::uint32_t cid =
      park::g_cycle_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  LPT_TRACE_EVENT(trace::EventType::kDeadlock, self->trace_id, cid,
                  static_cast<std::uint64_t>(kind) |
                      trace::kDeadlockVictimFlag);
  WatchdogReport rep;
  rep.kind = WatchdogReport::Kind::kDeadlock;
  rep.worker = -1;
  rep.cycle_len = 1;
  rep.cycle[0] = self->trace_id;
  rep.cycle_kinds[0] = kind;
  rep.victim = self->trace_id;
  watchdog_.report(rep);
}

void Runtime::note_owner_finished(ThreadCtl* t) {
  // Every lock still in t's held set records t as a holder (park.hpp): each
  // is an abandoned lock. A thread that released everything skips this.
  park::Entry& en = t->parking;
  const bool release = park::abandon_release_enabled();
  while (en.n_held > 0) {
    park::Ownable* lock = en.held[--en.n_held];
    const std::uint8_t kind = lock->kind();
    n_abandoned_locks_.add(1);
    LPT_TRACE_EVENT(trace::EventType::kAbandonedLock, t->trace_id,
                    static_cast<std::uint64_t>(kind), release ? 1 : 0);
    const bool released = lock->abandon(t, release);
    if (released) n_abandoned_released_.add(1);
    WatchdogReport rep;
    rep.kind = WatchdogReport::Kind::kAbandonedLock;
    rep.worker = -1;
    rep.cycle_len = 1;
    rep.cycle[0] = t->trace_id;
    rep.cycle_kinds[0] = kind;
    // For this report kind `victim` doubles as the released flag (there is
    // no cancelled ULT to name).
    rep.victim = released ? 1 : 0;
    watchdog_.report(rep);
  }
}

}  // namespace lpt
