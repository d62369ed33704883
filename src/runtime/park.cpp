// Parking registry + the deadlock detector and abandonment scan built on it.
// Runtime::deadlock_poll / note_self_deadlock / note_owner_finished are
// defined here (not in runtime.cpp) so the whole deadlock subsystem lives in
// one translation unit next to the slot protocol it depends on.
#include "runtime/park.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/assert.hpp"
#include "common/cpu.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/thread.hpp"
#include "runtime/wait_queue.hpp"
#include "runtime/watchdog.hpp"

namespace lpt::park {

namespace internal {
std::atomic<bool> g_armed{false};
}

namespace {

constexpr std::uint32_t kSlotCap = 2048;
constexpr std::uint32_t kResourceCap = 1024;

// Slot state word: gen(30) | phase(2).
constexpr std::uint32_t kFree = 0;
constexpr std::uint32_t kWriting = 1;
constexpr std::uint32_t kOccupied = 2;
constexpr std::uint32_t kPinned = 3;

inline std::uint32_t phase_of(std::uint32_t st) { return st & 3u; }
inline std::uint32_t gen_of(std::uint32_t st) { return st >> 2; }
inline std::uint32_t make_state(std::uint32_t gen, std::uint32_t phase) {
  return (gen << 2) | phase;
}

/// One parked waiter. All payload fields are relaxed atomics: the detector
/// reads them lock-free under the seqlock-style state re-read (the
/// happens-before edge comes from the release store of kOccupied), and
/// relaxed atomics keep the protocol a non-race under TSan.
struct alignas(kCacheLineSize) Slot {
  std::atomic<std::uint32_t> state{0};
  std::atomic<ThreadCtl*> waiter{nullptr};
  std::atomic<std::uint32_t> waiter_id{0};
  std::atomic<std::uint8_t> kind{0};
  std::atomic<bool> timed{false};
  std::atomic<ResourceState*> res{nullptr};
  std::atomic<ThreadCtl*> direct_owner{nullptr};
  std::atomic<WaitQueue*> queue{nullptr};
};

Slot g_slots[kSlotCap];
ResourceState g_resources[kResourceCap];
std::atomic<std::uint32_t> g_res_next{0};
std::atomic<std::uint32_t> g_cursor{0};
std::atomic<std::uint32_t> g_high{0};     ///< scan bound: max slot index + 1
std::atomic<std::uint32_t> g_parked{0};
std::atomic<std::uint64_t> g_overflows{0};
std::atomic<std::uint32_t> g_cycle_seq{0};
std::atomic<bool> g_abandon_release{false};

// Detector cycle memory. Single-threaded by construction: deadlock_poll runs
// only inside Watchdog::poll, which is serialized by the watchdog's busy_
// try-lock. Reset on arm() so sequential runtimes start clean.
std::unordered_set<std::uint64_t> g_pending;   ///< seen once, validated
std::unordered_set<std::uint64_t> g_reported;  ///< flagged (and maybe broken)

/// A coherent snapshot of one occupied slot plus its owner edges.
struct ParkedEdge {
  std::uint32_t idx = 0;
  std::uint32_t gen = 0;
  ThreadCtl* waiter = nullptr;
  std::uint32_t waiter_id = 0;
  std::uint8_t kind = 0;
  bool timed = false;
  WaitQueue* queue = nullptr;
  ThreadCtl* owner_snap[ResourceState::kMaxOwners] = {};
  int owner_count = 0;
};

/// Seqlock read of slot i. False when the slot is not occupied or its tenant
/// changed mid-read. Owner pointers are snapshotted for pointer comparison
/// only — they are never dereferenced (the owner may be finalizing).
bool snapshot_slot(std::uint32_t i, ParkedEdge& e) {
  Slot& s = g_slots[i];
  const std::uint32_t st = s.state.load(std::memory_order_acquire);
  if (phase_of(st) != kOccupied) return false;
  e.idx = i;
  e.gen = gen_of(st);
  e.waiter = s.waiter.load(std::memory_order_relaxed);
  e.waiter_id = s.waiter_id.load(std::memory_order_relaxed);
  e.kind = s.kind.load(std::memory_order_relaxed);
  e.timed = s.timed.load(std::memory_order_relaxed);
  e.queue = s.queue.load(std::memory_order_relaxed);
  ResourceState* res = s.res.load(std::memory_order_relaxed);
  ThreadCtl* direct = s.direct_owner.load(std::memory_order_relaxed);
  if (s.state.load(std::memory_order_acquire) != st) return false;
  if (direct != nullptr) {
    e.owner_snap[e.owner_count++] = direct;
  } else if (res != nullptr) {
    for (const auto& o : res->owners) {
      ThreadCtl* t = o.load(std::memory_order_relaxed);
      if (t != nullptr && e.owner_count < ResourceState::kMaxOwners)
        e.owner_snap[e.owner_count++] = t;
    }
  }
  return e.waiter != nullptr;
}

enum class PinCheck { kValidate, kBreak };

/// Pin e's slot (the waiter's unpark spins while pinned, so its WaitQueue
/// cannot be destroyed under our hands), then check under the queue's lock
/// that the waiter is still on it with its context saved — the test that
/// separates a genuinely parked thread from a stale edge whose wakeup is in
/// flight. kBreak additionally cancels the waiter out of the wait with zero
/// side effects on failure: a victim that lost its park to a normal handoff
/// is simply left alone (no stranded lock, no double wake). Returns whether
/// the waiter was verified parked (and, for kBreak, removed from its queue;
/// the caller then owns its wake).
bool pin_and_check(const ParkedEdge& e, PinCheck mode) {
  Slot& s = g_slots[e.idx];
  const std::uint32_t occupied = make_state(e.gen, kOccupied);
  std::uint32_t expect = occupied;
  if (!s.state.compare_exchange_strong(expect, make_state(e.gen, kPinned),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
    return false;
  e.queue->lock().lock();
  const bool ok = e.queue->contains(e.waiter) &&
                  e.waiter->load_state() == ThreadState::kBlocked;
  if (ok && mode == PinCheck::kBreak) {
    e.queue->remove(e.waiter);
    e.waiter->cancel_fault = FaultKind::kDeadlock;
    e.waiter->wait_result = WaitResult::kBroken;
    e.waiter->cancel_requested.store(true, std::memory_order_release);
  }
  e.queue->lock().unlock();
  if (ok && mode == PinCheck::kBreak) {
    // Free the slot on the victim's behalf: it wakes with park_slot == 0 and
    // its own unpark is a no-op (these writes are published to the victim by
    // the caller's wake).
    e.waiter->park_slot = 0;
    s.state.store(make_state(e.gen, kFree), std::memory_order_release);
    g_parked.fetch_sub(1, std::memory_order_relaxed);
  } else {
    s.state.store(occupied, std::memory_order_release);  // unpin
  }
  return ok;
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

ResourceState* acquire_resource(std::uint8_t kind, void* primitive,
                                bool (*on_abandon)(void*, ThreadCtl*, bool)) {
  if (!armed()) return nullptr;
  std::uint32_t i = g_res_next.load(std::memory_order_relaxed);
  for (;;) {
    if (i >= kResourceCap) return nullptr;  // exhausted: untracked, not wrong
    if (g_res_next.compare_exchange_weak(i, i + 1,
                                         std::memory_order_relaxed))
      break;
  }
  ResourceState& rs = g_resources[i];
  rs.kind = kind;
  rs.primitive = primitive;
  rs.on_abandon = on_abandon;
  rs.ready.store(true, std::memory_order_release);
  return &rs;
}

void add_owner(ResourceState* rs, ThreadCtl* t) {
  if (rs == nullptr || t == nullptr) return;
  for (auto& o : rs->owners) {
    ThreadCtl* expect = nullptr;
    if (o.load(std::memory_order_relaxed) == nullptr &&
        o.compare_exchange_strong(expect, t, std::memory_order_relaxed)) {
      ++t->owned_tracked;
      return;
    }
  }
  rs->owner_overflow.store(true, std::memory_order_relaxed);
}

void remove_owner(ResourceState* rs, ThreadCtl* t) {
  if (rs == nullptr || t == nullptr) return;
  for (auto& o : rs->owners) {
    ThreadCtl* expect = t;
    if (o.load(std::memory_order_relaxed) == t &&
        o.compare_exchange_strong(expect, nullptr,
                                  std::memory_order_relaxed)) {
      --t->owned_tracked;
      return;
    }
  }
  // Not found: inserted during overflow, or acquired while disarmed.
}

void park(ThreadCtl* self, std::uint8_t kind, bool timed, ResourceState* res,
          ThreadCtl* direct_owner, WaitQueue* queue) {
  if (!armed()) return;
  const std::uint32_t start = g_cursor.fetch_add(1, std::memory_order_relaxed);
  for (std::uint32_t probe = 0; probe < kSlotCap; ++probe) {
    const std::uint32_t idx = (start + probe) % kSlotCap;
    Slot& s = g_slots[idx];
    std::uint32_t st = s.state.load(std::memory_order_relaxed);
    if (phase_of(st) != kFree) continue;
    const std::uint32_t next_gen = gen_of(st) + 1;
    if (!s.state.compare_exchange_strong(st, make_state(next_gen, kWriting),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed))
      continue;
    s.waiter.store(self, std::memory_order_relaxed);
    s.waiter_id.store(self->trace_id, std::memory_order_relaxed);
    s.kind.store(kind, std::memory_order_relaxed);
    s.timed.store(timed, std::memory_order_relaxed);
    s.res.store(res, std::memory_order_relaxed);
    s.direct_owner.store(direct_owner, std::memory_order_relaxed);
    s.queue.store(queue, std::memory_order_relaxed);
    s.state.store(make_state(next_gen, kOccupied), std::memory_order_release);
    self->park_slot = idx + 1;
    g_parked.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t hw = g_high.load(std::memory_order_relaxed);
    while (idx + 1 > hw &&
           !g_high.compare_exchange_weak(hw, idx + 1,
                                         std::memory_order_release)) {
    }
    return;
  }
  // Slab full: this wait goes unregistered (invisible to the detector).
  g_overflows.fetch_add(1, std::memory_order_relaxed);
}

void unpark(ThreadCtl* self) {
  const std::uint32_t ref = self->park_slot;
  if (ref == 0) return;  // unregistered park, or a break freed it for us
  self->park_slot = 0;
  Slot& s = g_slots[ref - 1];
  for (;;) {
    std::uint32_t st = s.state.load(std::memory_order_acquire);
    if (phase_of(st) == kPinned) {  // detector is dereferencing our payload
      cpu_pause();
      continue;
    }
    LPT_CHECK(phase_of(st) == kOccupied);
    if (s.state.compare_exchange_weak(st, make_state(gen_of(st), kFree),
                                      std::memory_order_release,
                                      std::memory_order_relaxed))
      break;
  }
  g_parked.fetch_sub(1, std::memory_order_relaxed);
}

std::uint32_t parked_count() {
  return g_parked.load(std::memory_order_relaxed);
}

std::uint64_t slot_overflows() {
  return g_overflows.load(std::memory_order_relaxed);
}

std::uint32_t debug_scan() {
  std::uint32_t coherent = 0;
  const std::uint32_t hw =
      std::min(g_high.load(std::memory_order_acquire), kSlotCap);
  for (std::uint32_t i = 0; i < hw; ++i) {
    Slot& s = g_slots[i];
    const std::uint32_t st = s.state.load(std::memory_order_acquire);
    if (phase_of(st) != kOccupied) continue;
    ThreadCtl* w = s.waiter.load(std::memory_order_relaxed);
    if (s.state.load(std::memory_order_acquire) != st) continue;
    std::uint32_t expect = st;
    if (!s.state.compare_exchange_strong(expect,
                                         make_state(gen_of(st), kPinned),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
      continue;
    if (w != nullptr && s.waiter.load(std::memory_order_relaxed) == w)
      ++coherent;
    s.state.store(st, std::memory_order_release);  // unpin
  }
  return coherent;
}

}  // namespace lpt::park

// ---------------------------------------------------------------------------
// Deadlock detector & abandonment scan (Runtime members; see runtime.hpp)
// ---------------------------------------------------------------------------

namespace lpt {

void Runtime::deadlock_poll(Watchdog* wd, int* remediate_budget) {
  using park::ParkedEdge;
  if (!park::armed()) return;
  if (park::g_parked.load(std::memory_order_relaxed) == 0) {
    park::g_pending.clear();
    return;
  }

  // 1. Snapshot every coherently-occupied slot (lock-free).
  const std::uint32_t hw =
      std::min(park::g_high.load(std::memory_order_acquire), park::kSlotCap);
  std::vector<ParkedEdge> edges;
  edges.reserve(64);
  for (std::uint32_t i = 0; i < hw; ++i) {
    ParkedEdge e;
    if (park::snapshot_slot(i, e)) edges.push_back(e);
  }
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
      if (!park::pin_and_check(edges[i], park::PinCheck::kValidate)) {
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
      broke = park::pin_and_check(edges[victim], park::PinCheck::kBreak);
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
  // O(1) for threads that released everything they took (the common case);
  // the slab scan runs only when tracked ownership is provably outstanding.
  if (t->owned_tracked <= 0) return;
  if (!park::armed()) {
    t->owned_tracked = 0;
    return;
  }
  const bool release = park::abandon_release_enabled();
  const std::uint32_t nres =
      std::min(park::g_res_next.load(std::memory_order_acquire),
               park::kResourceCap);
  for (std::uint32_t i = 0; i < nres; ++i) {
    park::ResourceState& rs = park::g_resources[i];
    if (!rs.ready.load(std::memory_order_acquire)) continue;
    bool held = false;
    for (auto& o : rs.owners) {
      ThreadCtl* expect = t;
      if (o.load(std::memory_order_relaxed) == t &&
          o.compare_exchange_strong(expect, nullptr,
                                    std::memory_order_relaxed))
        held = true;
    }
    if (!held) continue;
    n_abandoned_locks_.add(1);
    LPT_TRACE_EVENT(trace::EventType::kAbandonedLock, t->trace_id,
                    static_cast<std::uint64_t>(rs.kind), release ? 1 : 0);
    bool released = false;
    if (rs.on_abandon != nullptr)
      released = rs.on_abandon(rs.primitive, t, release);
    if (released) n_abandoned_released_.add(1);
    WatchdogReport rep;
    rep.kind = WatchdogReport::Kind::kAbandonedLock;
    rep.worker = -1;
    rep.cycle_len = 1;
    rep.cycle[0] = t->trace_id;
    rep.cycle_kinds[0] = rs.kind;
    // For this report kind `victim` doubles as the released flag (there is
    // no cancelled ULT to name).
    rep.victim = released ? 1 : 0;
    watchdog_.report(rep);
  }
  t->owned_tracked = 0;
}

}  // namespace lpt
