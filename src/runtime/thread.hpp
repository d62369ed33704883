// User-level thread control block and the public Thread handle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "context/context.hpp"
#include "context/stack.hpp"
#include "runtime/options.hpp"
#include "runtime/wait_queue.hpp"

namespace lpt {

class Runtime;
struct Worker;
struct KltCtl;

enum class ThreadState : std::uint32_t {
  kReady,    ///< in a pool, waiting to be scheduled
  kRunning,  ///< executing on some worker
  kBlocked,  ///< suspended on a sync primitive or join
  kFinished, ///< thread function returned
  kFailed,   ///< terminated by the fault-isolation subsystem
};

/// Why a ULT was terminated by fault isolation (docs/robustness.md).
enum class FaultKind : std::uint8_t {
  kNone = 0,        ///< completed normally
  kStackOverflow,   ///< faulted into its stack's guard page
  kSegv,            ///< other SIGSEGV, contained under isolate_faults
  kBus,             ///< SIGBUS, contained under isolate_faults
  kException,       ///< C++ exception escaped the thread function
  kCancelled,       ///< terminated by request_cancel() / deadline expiry
  kDeadlock,        ///< cancelled as a deadlock victim (cycle break or
                    ///< self-deadlock at lock())
};

const char* fault_kind_name(FaultKind k);

/// Failure record for a ULT terminated by fault isolation. Written before
/// the thread's completion flag is published, so joiners read it race-free.
struct FaultInfo {
  FaultKind kind = FaultKind::kNone;
  std::uintptr_t fault_addr = 0;    ///< si_addr for signal faults
  std::size_t stack_watermark = 0;  ///< bytes of stack used (page granularity)
  char what[64] = {};               ///< exception message (kException)
};

/// Per-ULT lifecycle accounting (docs/observability.md, "Causal tracing &
/// scheduling delay"). Stamped with trace::now_ns() at state transitions;
/// populated only while the tracer is armed (all zero otherwise, like the
/// tracer pass-through fields of metrics::Snapshot), except the wait record
/// (block_start_ns, blocked_ns), which the off-CPU and lock profilers arm
/// too. Every field follows the single-writer ownership-handoff discipline
/// of last_preempt_ns: only the thread's current owner (the enqueuing
/// waker, or the worker hosting it) touches them, with the scheduler
/// queue's lock ordering the handoffs.
struct UltAccounting {
  std::int64_t spawn_ns = 0;          ///< spawn_ctl timestamp
  std::int64_t ready_ns = 0;          ///< last enqueue stamp; 0 = consumed
  std::int64_t run_start_ns = 0;      ///< last dispatch stamp; 0 = off-CPU
  std::int64_t block_start_ns = 0;    ///< open wait record's stamp; 0 = none
  std::int64_t spawn_latency_ns = 0;  ///< spawn → first dispatch (one-shot)
  std::uint64_t sched_delay_ns = 0;   ///< cumulative ready → dispatch wait
  std::uint64_t run_ns = 0;           ///< cumulative on-CPU time
  std::uint64_t blocked_ns = 0;       ///< sum of closed wait records
  std::uint64_t dispatches = 0;       ///< times switched in (incl. resumes)
};

/// Completion report returned by Thread::join_status().
struct ThreadStatus {
  /// False when the handle was empty / already joined (no thread was waited
  /// on); the remaining fields are then meaningless.
  bool completed = false;
  FaultInfo fault;
  /// Lifecycle accounting copied out just before the control block is freed.
  /// Zero unless the runtime ran with tracing armed; blocked_ns also with
  /// the off-CPU or lock profiler armed.
  UltAccounting acct;
  /// Times the thread was implicitly preempted over its whole life.
  std::uint64_t preemptions = 0;
  bool failed() const { return fault.kind != FaultKind::kNone; }
};

/// Internal per-ULT control block. Owned by the Thread handle (joinable
/// threads) or by the runtime (detached threads, freed at exit).
struct ThreadCtl {
  Runtime* rt = nullptr;
  Context ctx;
  Stack stack;
  std::function<void()> fn;

  Preempt preempt = Preempt::None;
  int priority = 0;
  int home_pool = 0;

  std::atomic<std::uint32_t> state{static_cast<std::uint32_t>(ThreadState::kReady)};
  /// Set at the first dispatch (Worker::run), beside the state word that
  /// every dispatch writes. A thread never dispatched has no frames of its
  /// own yet, so its joiner may run it inline (DESIGN.md, "Inline join").
  /// Written by the dispatching worker before any later enqueue; read under
  /// the queue lock by a join's take (ThreadQueue::pop_back_if).
  bool dispatched = false;

  /// Completion word, doubling as the futex word of an external joiner:
  /// kRunning, kJoinerAsleep (still running, and an external joiner sleeps
  /// on the word) or kDone. The finisher exchanges in kDone and enters the
  /// kernel only when it took kJoinerAsleep out.
  static constexpr std::uint32_t kRunning = 0;
  static constexpr std::uint32_t kDone = 1;
  static constexpr std::uint32_t kJoinerAsleep = 2;
  std::atomic<std::uint32_t> done{kRunning};
  bool finished() const { return done.load(std::memory_order_acquire) == kDone; }
  WaitQueue joiners;  ///< ULTs blocked in join(); its lock orders `done`
  bool detached = false;

  /// KLT-switching: while this thread is suspended inside the preemption
  /// signal handler, the kernel thread it ran on is parked here and must be
  /// the one that resumes it (its KLT-local state is frozen mid-use, §3.1.2).
  KltCtl* bound_klt = nullptr;

  /// Number of times this thread was implicitly preempted (for tests/stats).
  std::atomic<std::uint64_t> preemptions{0};

  /// Small stable id for trace events (assigned at spawn; 0 = untraced).
  std::uint32_t trace_id = 0;
  /// Tracing: when this thread was last preempted (set by the post action,
  /// consumed at the next dispatch for the preempt→reschedule histogram).
  /// Only touched while the thread is owned by one worker, so unsynchronized.
  std::int64_t last_preempt_ns = 0;
  /// Causal lifecycle accounting (same ownership-handoff discipline; see
  /// UltAccounting). Stamped at every enqueue site, consumed at dispatch.
  UltAccounting acct;

  /// NoPreemptGuard nesting depth. Written only by the thread itself, read
  /// by the preemption handler on the same KLT while the thread runs.
  volatile int no_preempt_depth = 0;
  /// Set by the handler when preemption was deferred by the guard; the guard
  /// exit turns it into a voluntary yield.
  volatile bool preempt_pending = false;

  /// Failure record (fault isolation). Written by the fault handler or the
  /// exception firewall while the thread is current on one worker, published
  /// to joiners by the `done` store.
  FaultInfo fault;

  // ----- cancellation & deadlines (docs/robustness.md "Self-healing") -----

  /// Set by Thread::request_cancel(), deadline expiry, or the watchdog
  /// remediation ladder; consumed at cancellation points (yield, sync waits,
  /// sleep_for, timed waits) and by the preemption handler for a directed
  /// cancel tick. Never cleared once set.
  std::atomic<bool> cancel_requested{false};
  /// Absolute CLOCK_MONOTONIC deadline in ns; 0 = none. Armed at spawn from
  /// ThreadAttrs::deadline / RuntimeOptions::default_ult_deadline and scanned
  /// by the watchdog tick, expiring into request_cancel().
  std::int64_t deadline_ns = 0;
  /// FaultKind that suspend_cancel records when the pending cancel fires.
  /// Defaults to kCancelled; the deadlock breaker sets kDeadlock before
  /// waking its victim. Written only by whoever exclusively owns the thread
  /// (the canceller under the primitive's guard, consumed by the thread
  /// itself after wake).
  FaultKind cancel_fault = FaultKind::kCancelled;

  // ----- inline join (DESIGN.md, "Inline join") -----
  // Beside cancel_requested: cancellation points read both.

  /// On a joiner: the innermost child running inline on its stack (nullptr
  /// = none). On an inlined child: the next one out in the same chain
  /// (nullptr = the joiner's own frames). Written only by the joiner.
  ThreadCtl* inline_top = nullptr;
  ThreadCtl* inline_outer = nullptr;
  /// On a joiner: Runtime::inline_cancel_epoch() when its chain was last
  /// checked for cancel requests (detail::cancel_point).
  std::uint64_t inline_epoch = 0;

  // ----- wait queue membership (wait_queue.hpp) -----

  /// The queue this thread is parked on (nullptr = none) and its successor
  /// there. Written under that queue's lock, or by whoever exclusively owns
  /// the thread after removing it (a wake chain reuses wq_next).
  WaitQueue* wq = nullptr;
  ThreadCtl* wq_next = nullptr;
  /// How the last wait ended: the waker that removed this thread from its
  /// queue writes it under the queue's lock (park::settle: kTimedOut for the
  /// expiry scan, kBroken for the deadlock breaker); WaitQueue::wait
  /// consumes it.
  WaitResult wait_result = WaitResult::kWoken;

  // ----- off-CPU wait attribution (docs/observability.md "Profiling") -----

  /// What this thread parks on, tagged by WaitQueue::wait just before
  /// suspend_block(); the wake (Runtime::stamp_ready) files the wait record
  /// under it. Written by the parking owner before the waker can see it.
  prof::WaitKind prof_wait_kind = prof::WaitKind::kNone;
  std::uintptr_t prof_wait_site = 0;   ///< caller PC of the blocking primitive

  // ----- parking registry (park.hpp; docs/robustness.md "Deadlock") -----

  /// This thread's link on a worker's parked list while it waits, and the
  /// tracked locks it holds (park::Entry documents who writes what). Last:
  /// touched only on the park path and by lock bookkeeping.
  park::Entry parking;

  /// The outermost child of this joiner's inline chain with a cancel
  /// request, or nullptr. Read by the joiner itself, or by the expiry scan
  /// while the joiner is parked.
  ThreadCtl* cancelled_inline_child() const {
    ThreadCtl* found = nullptr;
    for (ThreadCtl* c = inline_top; c != nullptr; c = c->inline_outer)
      if (c->cancel_requested.load(std::memory_order_acquire)) found = c;
    return found;
  }
  /// A cancel request for this thread or for a child it runs inline.
  bool cancel_pending() const {
    return cancel_requested.load(std::memory_order_acquire) ||
           cancelled_inline_child() != nullptr;
  }

  ThreadState load_state() const {
    return static_cast<ThreadState>(state.load(std::memory_order_acquire));
  }
  void store_state(ThreadState s) {
    state.store(static_cast<std::uint32_t>(s), std::memory_order_release);
  }
};

/// Move-only handle to a spawned ULT. Joins on destruction if still
/// joinable (std::jthread-style), so a dropped handle cannot leak a running
/// thread.
class Thread {
 public:
  Thread() = default;
  explicit Thread(ThreadCtl* ctl) : ctl_(ctl) {}
  ~Thread();
  Thread(Thread&& o) noexcept : ctl_(o.ctl_) { o.ctl_ = nullptr; }
  Thread& operator=(Thread&& o) noexcept;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  bool joinable() const { return ctl_ != nullptr; }

  /// Wait for completion. Callable from a ULT (blocks cooperatively) or from
  /// any external kernel thread (blocks on a futex). Joining an empty or
  /// already-joined handle is a benign no-op — double-join is defined
  /// behavior, unlike std::thread (see runtime_edge_test.cpp).
  void join();

  /// join() that also reports how the thread ended: status.completed is true
  /// when a real thread was joined, and status.fault carries the failure
  /// record when fault isolation terminated it (stack overflow, contained
  /// SEGV/BUS, escaped exception).
  ThreadStatus join_status();

  /// Times the thread was implicitly preempted so far.
  std::uint64_t preemptions() const;

  /// Request asynchronous cancellation. The target observes it at its next
  /// cancellation point (yield, sync wait, sleep_for, timed wait) and ends as
  /// Failed(kCancelled); a target that never reaches one is unwound by a
  /// directed preemption tick through the fault-isolation path (its stack is
  /// quarantined; destructors on the abandoned stack do NOT run — same caveat
  /// as SEGV containment). No-op on an empty handle or a finished thread;
  /// returns false in those cases.
  bool request_cancel();

  /// join() bounded by a relative timeout. Returns true when the thread
  /// completed and was joined (handle becomes empty); false on timeout (the
  /// handle stays joinable). Callable from a ULT or an external thread.
  bool join_for(std::chrono::nanoseconds timeout);

 private:
  ThreadCtl* ctl_ = nullptr;
};

}  // namespace lpt
