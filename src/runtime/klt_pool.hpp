// Kernel-level thread (KLT) pool machinery for KLT-switching (paper §3.1.2,
// §3.3): parked spare KLTs, worker-local pools (§3.3.2), and the dedicated
// KLT-creator thread (pthread_create is not async-signal-safe, so the
// preemption handler can only *request* creation and must return).
#pragma once

#include <pthread.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/futex.hpp"
#include "common/metrics.hpp"
#include "common/spinlock.hpp"
#include "common/treiber_stack.hpp"
#include "context/context.hpp"
#include "runtime/worker.hpp"

namespace lpt {

class Runtime;

/// What a woken KLT should do. Written by the waker before posting the gate.
enum class KltAction : std::uint8_t {
  kNone,
  kBecomeWorker,  ///< switch from the native stack into assign_worker's scheduler
  kResumeUlt,     ///< return from the in-handler park; the bound ULT continues
  kExit,          ///< shutdown
};

/// What a KLT does on its native stack right after the scheduler context
/// releases it (set by scheduler code before switching back to native_ctx).
enum class KltNativeOp : std::uint8_t {
  kPark,  ///< optionally wake pending_wake, return self to the pool, wait
  kExit,  ///< leave klt_main
};

/// Control block of one kernel thread managed by the runtime. All worker
/// hosts and pool spares run the same klt_main loop.
struct KltCtl : TreiberNode {
  Runtime* rt = nullptr;
  pthread_t pthread{};
  std::atomic<pid_t> tid{0};

  /// Context of the parking loop on the KLT's own pthread stack.
  Context native_ctx;

  /// Park/wake gate (pool parking always; in-handler parking in Futex mode).
  FutexGate gate;
  /// Resume token for the Sigsuspend in-handler parking variant (§3.3.1).
  std::atomic<std::uint32_t> sig_resume{0};

  // -- assignment, written by the waker before waking --
  KltAction action = KltAction::kNone;
  Worker* assign_worker = nullptr;

  // -- native-stack postlude, written by scheduler code before release --
  KltNativeOp native_op = KltNativeOp::kPark;
  KltCtl* pending_wake = nullptr;  ///< KLT to wake once off the scheduler stack
  bool pending_wake_in_handler = false;  ///< use in-handler resume protocol

  /// Post action of a ULT stranded on this KLT after its worker moved on to
  /// another host (docs/robustness.md "Self-healing"), written by
  /// detail::leave_klt. klt_main runs it once the ULT's context is saved —
  /// the worker's post-action discipline, on the KLT's native stack.
  PostAction post;

  /// Preferred worker-local pool to return to (-1 = global only).
  int home_worker = -1;

  /// Spare KLTs (creator-made or initial spares) park themselves in the pool
  /// before their first wait; initial worker hosts do not.
  bool starts_parked = false;

  /// Trace ring id of this KLT (labels its export track); -1 when untraced.
  int trace_id = -1;

  /// sigaltstack buffer for the fault-isolation SIGSEGV/SIGBUS handler (the
  /// faulting ULT's own stack may be the unusable thing being reported).
  /// Registered by klt_main, freed after the pthread is joined.
  std::unique_ptr<char[]> alt_stack;
};

/// Global + worker-local pools of idle KLTs. try_pop/push are lock-free and
/// async-signal-safe (the preemption handler calls them).
///
/// Local pools are capped: an uncapped local pool strands idle KLTs where
/// other workers' handlers cannot see them, and the resulting re-creations
/// overshoot the paper's as-many-KLTs-as-threads worst case (§3.1.2).
/// Overflow goes to the global pool, which every worker reaches.
class KltPool {
 public:
  void configure(int num_workers, bool use_local_pools);

  /// Pop an idle KLT, preferring worker_rank's local pool. nullptr if empty.
  KltCtl* try_pop(int worker_rank);

  /// Return an idle KLT; goes to its home worker's local pool when local
  /// pools are enabled and below the cap, else to the global pool.
  void push(KltCtl* k);

  /// Drain everything (global + local) for shutdown. Not signal-safe.
  std::vector<KltCtl*> drain();

  bool local_pools_enabled() const { return use_local_; }

  /// Idle KLTs currently parked across global + local pools (the KLT-pool
  /// occupancy gauge). Async-signal-safe relaxed read; momentarily off by
  /// one around a concurrent push/pop.
  std::int64_t idle() const { return idle_.value(); }

 private:
  static constexpr int kLocalCap = 1;
  struct LocalPool {
    TreiberStack<KltCtl> stack;
    std::atomic<int> size{0};  // approximate under races; cap is soft
  };
  TreiberStack<KltCtl> global_;
  std::vector<std::unique_ptr<LocalPool>> local_;
  bool use_local_ = false;
  metrics::Gauge idle_;
};

/// Dedicated thread that creates KLTs on request. request() is
/// async-signal-safe (atomic increment + futex wake).
///
/// Degradation (docs/robustness.md): pthread_create failures are retried
/// with capped exponential backoff; once a request cannot be satisfied (or
/// the max_klts cap is hit) the creator marks itself saturated() so the
/// preemption handler defers ticks instead of queueing more requests, and it
/// keeps self-retrying in the background until creation succeeds again.
class KltCreator {
 public:
  void start(Runtime& rt);
  /// Joins the creator thread, then drains abandoned requests and resets
  /// pending/in-flight/saturation accounting so a runtime restarted in the
  /// same process starts clean.
  void stop();

  /// Ask for one more KLT; callable from the preemption handler. Requests
  /// are capped while creations are in flight: the requesting thread simply
  /// retries at its next tick (§3.1.2), so uncapped re-requests would only
  /// over-allocate KLTs beyond the paper's as-many-as-threads worst case.
  void request() {
    int cur = in_flight_.load(std::memory_order_relaxed);
    do {
      if (cur >= max_in_flight_) return;
    } while (!in_flight_.compare_exchange_weak(cur, cur + 1,
                                               std::memory_order_acq_rel));
    pending_.fetch_add(1, std::memory_order_relaxed);
    gate_.post();
  }

  /// True while KLT creation is failing (resource pressure) or capped.
  /// Async-signal-safe; the handler turns pool misses into degraded ticks
  /// while this holds.
  bool saturated() const { return exhausted_.load(std::memory_order_acquire); }

  std::uint64_t created() const { return created_.load(std::memory_order_relaxed); }
  /// pthread_create attempts that failed (injected or real), cumulative.
  std::uint64_t create_failures() const {
    return create_failures_.load(std::memory_order_relaxed);
  }
  std::uint32_t pending() const { return pending_.load(std::memory_order_relaxed); }
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

 private:
  static void* thread_main(void* arg);
  void loop();
  /// One creation with capped exponential backoff across kMaxAttempts.
  bool create_one_with_backoff();

  static constexpr int kMaxAttempts = 8;
  static constexpr std::int64_t kBackoffBaseNs = 50'000;        ///< 50 µs
  static constexpr std::int64_t kBackoffCapNs = 1'000'000;      ///< 1 ms
  static constexpr std::int64_t kSaturatedRetryNs = 2'000'000;  ///< 2 ms

  Runtime* rt_ = nullptr;
  pthread_t thread_{};
  std::atomic<std::uint32_t> pending_{0};
  std::atomic<int> in_flight_{0};
  int max_in_flight_ = 1;
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> create_failures_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<bool> stop_{false};
  FutexGate gate_;
  bool started_ = false;
};

}  // namespace lpt
