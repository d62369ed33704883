// Pluggable user-level schedulers (the "users can develop their own
// schedulers" capability of M:N threads, §2.1). The runtime ships the three
// schedulers the paper evaluates: work stealing (§4.1), thread packing
// (Algorithm 1, §4.2), and two-class priority (§4.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/spinlock.hpp"
#include "common/prng.hpp"
#include "runtime/thread.hpp"

namespace lpt {

class Runtime;
struct Worker;

/// Why a thread is being enqueued; schedulers may treat these differently
/// (e.g. the work-stealing scheduler pushes preempted threads to the local
/// FIFO exactly as the paper's modified BOLT scheduler does).
enum class EnqueueKind : std::uint8_t {
  kSpawn,      ///< newly created
  kYield,      ///< voluntarily yielded
  kPreempted,  ///< implicitly preempted by a timer signal
  kUnblock,    ///< released by a sync primitive / join
};

/// Scheduler interface. pick() runs in scheduler (worker) context; enqueue()
/// may run in scheduler context, in a ULT under a no-preempt guard, or on an
/// external thread — never inside a signal handler.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual void init(Runtime& rt) = 0;
  /// Next thread for this worker, or nullptr if none available.
  virtual ThreadCtl* pick(Worker& w) = 0;
  virtual void enqueue(ThreadCtl* t, Worker* hint, EnqueueKind kind) = 0;
  /// Best-effort "is any work queued" (used for idle backoff / shutdown).
  virtual bool has_work() const = 0;
  /// Ready threads currently queued for worker `rank` (the always-on
  /// run-queue-depth gauge and the watchdog's starvation check). Best-effort
  /// instantaneous value; the default keeps custom schedulers working — depth
  /// then reads 0 and runnable-starvation detection is effectively off.
  virtual std::int64_t queue_depth(int rank) const {
    (void)rank;
    return 0;
  }
  /// Inline join (DESIGN.md, "Inline join"): remove `t` when it is the
  /// newest thread of `w`'s own queue and was never dispatched, so the ULT
  /// running on `w`, which joins `t`, can run it on its own stack. Called
  /// from that ULT under a no-preempt guard with `w` borrowed. True means
  /// `t` is out of every queue and the caller owns it. The default never
  /// takes, which keeps custom schedulers and thread packing on the plain
  /// queued join.
  virtual bool take_for_join(Worker& w, ThreadCtl* t) {
    (void)w;
    (void)t;
    return false;
  }
};

/// Spinlock-protected deque of ready threads, shared building block.
///
/// depth() is a lock-free mirror of size() for the metrics/watchdog readers:
/// it is updated by a relaxed store while the spinlock is already held (so
/// the mirror is exact, not approximate) and costs the mutators ~1 store —
/// readers never touch the lock a signal-handler-adjacent path may contend.
class ThreadQueue {
 public:
  void push_back(ThreadCtl* t) {
    SpinlockGuard g(lock_);
    q_.push_back(t);
    depth_.store(static_cast<std::int32_t>(q_.size()),
                 std::memory_order_relaxed);
  }
  void push_front(ThreadCtl* t) {
    SpinlockGuard g(lock_);
    q_.push_front(t);
    depth_.store(static_cast<std::int32_t>(q_.size()),
                 std::memory_order_relaxed);
  }
  ThreadCtl* pop_front() {
    SpinlockGuard g(lock_);
    if (q_.empty()) return nullptr;
    ThreadCtl* t = q_.front();
    q_.pop_front();
    depth_.store(static_cast<std::int32_t>(q_.size()),
                 std::memory_order_relaxed);
    return t;
  }
  ThreadCtl* pop_back() {
    SpinlockGuard g(lock_);
    if (q_.empty()) return nullptr;
    ThreadCtl* t = q_.back();
    q_.pop_back();
    depth_.store(static_cast<std::int32_t>(q_.size()),
                 std::memory_order_relaxed);
    return t;
  }
  /// pop_back() only when `t` is the back and was never dispatched (a
  /// thread that ran has frames on its own stack; one bound to a parked KLT
  /// must resume there): false leaves the queue as it was. The dispatching
  /// worker set `dispatched` before any enqueue, so the queue lock orders it.
  bool pop_back_if(ThreadCtl* t) {
    SpinlockGuard g(lock_);
    if (q_.empty() || q_.back() != t || t->dispatched) return false;
    q_.pop_back();
    depth_.store(static_cast<std::int32_t>(q_.size()),
                 std::memory_order_relaxed);
    return true;
  }
  bool empty() const {
    SpinlockGuard g(lock_);
    return q_.empty();
  }
  std::size_t size() const {
    SpinlockGuard g(lock_);
    return q_.size();
  }
  std::int64_t depth() const { return depth_.load(std::memory_order_relaxed); }

 private:
  mutable Spinlock lock_;
  std::deque<ThreadCtl*> q_;
  std::atomic<std::int32_t> depth_{0};
};

/// BOLT-like default: each worker prioritizes its own FIFO queue and steals
/// from a random remote queue when empty (§4.1). Preempted threads go to the
/// *local* FIFO so every thread is rescheduled within a finite time. A join
/// takes its child from the back of the local queue (pop-back-if-equal).
class WorkStealingScheduler final : public Scheduler {
 public:
  void init(Runtime& rt) override;
  ThreadCtl* pick(Worker& w) override;
  void enqueue(ThreadCtl* t, Worker* hint, EnqueueKind kind) override;
  bool has_work() const override;
  std::int64_t queue_depth(int rank) const override;
  bool take_for_join(Worker& w, ThreadCtl* t) override;

  /// Steal victim for worker `self` among `n` > 1 workers: uniform over the
  /// n - 1 others, never `self`. Exposed for unit tests.
  static int steal_victim(int self, int n, Xoshiro256& rng) {
    const int v = static_cast<int>(rng.next_below(n - 1));
    return v < self ? v : v + 1;
  }

 private:
  Runtime* rt_ = nullptr;
  std::vector<std::unique_ptr<ThreadQueue>> queues_;  // one per worker
  std::vector<std::unique_ptr<Xoshiro256>> rngs_;     // one per worker
};

/// Algorithm 1 from the paper: N_total pools; each active worker first scans
/// its private pools (rank, rank+N_active, ... < N_private) and then the
/// shared pools (N_private .. N_total), slicing shared-pool threads
/// round-robin at the preemption interval.
class PackingScheduler final : public Scheduler {
 public:
  void init(Runtime& rt) override;
  ThreadCtl* pick(Worker& w) override;
  void enqueue(ThreadCtl* t, Worker* hint, EnqueueKind kind) override;
  bool has_work() const override;
  /// Pool `rank` only (shared pools beyond num_workers are not attributed
  /// to any worker's depth; they surface via has_work / steals instead).
  std::int64_t queue_depth(int rank) const override;

  /// Exposed for unit tests: the private-pool bound N_private given the
  /// current worker counts (line 6 of Algorithm 1).
  static int private_bound(int n_total, int n_active) {
    return n_active * (n_total / n_active);
  }

 private:
  Runtime* rt_ = nullptr;
  int n_total_ = 0;
  std::vector<std::unique_ptr<ThreadQueue>> pools_;
  std::vector<std::uint8_t> phase_;  // per-worker private/shared alternation
  std::vector<int> shared_next_;     // per-worker round-robin shared cursor
};

/// Two-class priority scheduler (§4.3): high-priority threads (priority 0,
/// e.g. simulation) in per-worker FIFOs scheduled before low-priority
/// threads (priority 1, e.g. in situ analysis) kept in per-worker LIFOs "in
/// order not to hurt data locality during preemption". A join takes its
/// child only when joiner and child are both high class: an inlined child
/// runs in its joiner's place, ahead of queued high-class work.
class PriorityScheduler final : public Scheduler {
 public:
  void init(Runtime& rt) override;
  ThreadCtl* pick(Worker& w) override;
  void enqueue(ThreadCtl* t, Worker* hint, EnqueueKind kind) override;
  bool has_work() const override;
  std::int64_t queue_depth(int rank) const override;  ///< high + low
  bool take_for_join(Worker& w, ThreadCtl* t) override;

 private:
  Runtime* rt_ = nullptr;
  std::vector<std::unique_ptr<ThreadQueue>> high_;  // FIFO per worker
  std::vector<std::unique_ptr<ThreadQueue>> low_;   // LIFO per worker
  std::vector<std::unique_ptr<Xoshiro256>> rngs_;
};

}  // namespace lpt
