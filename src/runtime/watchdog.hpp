// Preemption-starvation watchdog + background metrics publisher
// (docs/observability.md, "Metrics & watchdog").
//
// The paper's value proposition is a *bounded* time-to-preemption; the
// watchdog is the component that checks the bound instead of assuming it.
// It periodically inspects each worker's always-on counters
// (common/metrics.hpp) and flags three pathologies:
//
//   kRunnableStarvation  a worker has queued runnable ULTs but has not
//                        dispatched anything for watchdog_runnable_ns —
//                        work is sitting behind a frozen worker.
//   kWorkerStall         preemption ticks keep arriving at a worker running
//                        a preemptible ULT, but the handler never fires:
//                        blocked signal mask, a stuck NoPreemptGuard, or a
//                        lost timer.
//   kQuantumOverrun      a preemptible ULT has monopolized its worker for
//                        watchdog_quantum_factor quanta — preemption is
//                        firing but not bounding runtime.
//   kFaultStorm          fault isolation terminated watchdog_fault_storm or
//                        more ULTs on one worker within a single poll period
//                        — containment is masking a systemic failure (bad
//                        workload, corrupted shared state) rather than an
//                        isolated bug.
//   kSyscallBlocked      the worker's hosted ULT has sat inside an annotated
//                        blocking syscall (lpt::io::blocking_region) past
//                        syscall_grace_ns. Not a stall: the wedge is
//                        *declared*, so instead of the force-replace ladder
//                        the wedge sentinel activates a compensating spare
//                        KLT and the old host is reabsorbed when the syscall
//                        returns (docs/robustness.md).
//
// Detection is a pure function over counter *progress* (evaluate_worker):
// no per-dispatch timestamps, no hot-path clock reads, and no dereference
// of ThreadCtl pointers (which a concurrent join may delete). Each flag
// raises a counter, emits a trace event when tracing is armed, and invokes
// RuntimeOptions::watchdog_callback (default: a rate-limited stderr report).
//
// Driving: the runtime's service thread (runtime/timer.hpp) is the only
// caller of tick(). It wakes at least once per watchdog period, and also at
// every preemption tick, profiler tick and timed-wait deadline; each call
// accrues sampled time-in-state for WorkerMetrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/futex.hpp"
#include "common/metrics.hpp"

namespace lpt {

class Runtime;

/// Remediation action the self-healing ladder took (docs/robustness.md,
/// RuntimeOptions::remediation). Ordered by escalation severity.
enum class RemediationKind : std::uint8_t {
  kNone = 0,        ///< detection only (remediation off, or budget exhausted)
  kRetick = 1,      ///< directed preemption re-tick at an overrunning worker
  kCancel = 2,      ///< deadline expiry → cancel request + directed tick
  kKltReplace = 3,  ///< stalled worker's host KLT force-replaced
  kDeadlockBreak = 4,  ///< deadlock cycle victim cancelled out of its wait
};
const char* remediation_kind_name(RemediationKind k);

/// What the watchdog observed when it flagged. Carries only values (never a
/// ThreadCtl pointer: control blocks die concurrently with the watchdog).
struct WatchdogReport {
  enum class Kind : std::uint8_t {
    kRunnableStarvation = 0,
    kWorkerStall = 1,
    kQuantumOverrun = 2,
    kFaultStorm = 3,
    kSyscallBlocked = 4,
    kDeadlock = 5,       ///< waits-for cycle confirmed by the detector
    kAbandonedLock = 6,  ///< lock owner ended while still holding it
  };
  Kind kind;
  int worker = -1;
  std::int64_t age_ns = 0;  ///< how long the pathology has persisted
  std::int64_t queue_depth = 0;
  std::uint64_t ticks_without_handler = 0;  ///< kWorkerStall only
  /// Action the remediation ladder took for this episode (kNone when
  /// remediation is off, the budget ran out, or the action failed).
  RemediationKind remediation = RemediationKind::kNone;
  // kDeadlock / kAbandonedLock payload: the cycle members (trace ids and
  // prof::WaitKind of the awaited resource), truncated at kMaxCycle, and the
  // victim's trace id (0 when detection-only). For kAbandonedLock, cycle[0]
  // is the dead owner and cycle_kinds[0] the abandoned resource's kind.
  static constexpr int kMaxCycle = 8;
  std::uint32_t cycle[kMaxCycle] = {};
  std::uint8_t cycle_kinds[kMaxCycle] = {};
  int cycle_len = 0;
  std::uint32_t victim = 0;
};
const char* watchdog_kind_name(WatchdogReport::Kind k);

namespace watchdog_detail {

/// Thresholds, resolved once at start. Zero disables a check.
struct WatchdogLimits {
  std::int64_t runnable_ns = 0;
  std::int64_t quantum_ns = 0;   ///< 0 when no preemption timer is armed
  std::uint64_t stall_ticks = 0; ///< 0 when ticks_sent never advances
  std::uint64_t storm_faults = 0; ///< contained faults per poll period; 0 = off
  std::int64_t syscall_grace_ns = 0; ///< wedge-sentinel grace; 0 = off
};

/// One worker's observable facts at poll time, as seen by the watchdog.
struct WorkerObs {
  std::int64_t now_ns = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t ticks_sent = 0;
  std::uint64_t handler_entries = 0;
  std::int64_t queue_depth = 0;
  std::uint64_t ult_faults = 0;     ///< fault-isolation terminations, ever
  bool parked = false;              ///< packing-parked or not yet started
  bool preemptible_running = false; ///< current ULT has Preempt != None
  // Blocking-syscall state word (worker.hpp), read consistently at poll time.
  bool in_syscall = false;          ///< syscall_epoch was odd
  std::int64_t syscall_age_ns = 0;  ///< now - entry timestamp (valid if odd)
  std::uint64_t syscall_epoch = 0;  ///< the odd epoch observed
};

/// Persistent per-worker watch state between polls. `primed` defers judgment
/// until a baseline exists; the *_flagged latches make each pathology flag
/// once per episode (cleared when the counter in question moves again).
struct WorkerWatch {
  bool primed = false;
  std::uint64_t dispatches = 0;
  std::int64_t dispatch_change_ns = 0;  ///< when dispatches last moved
  std::uint64_t handler_entries = 0;
  std::uint64_t ticks_at_entry_change = 0;  ///< ticks_sent at that moment
  bool depth_zero = true;
  std::int64_t depth_nonzero_ns = 0;  ///< when depth last left zero
  std::uint64_t ult_faults = 0;     ///< fault count at the last poll
  bool starve_flagged = false;
  bool stall_flagged = false;
  bool overrun_flagged = false;
  bool storm_flagged = false;
  /// The epoch already flagged (and possibly compensated); one flag per
  /// region instance. 0 = none — real published epochs are odd, never 0.
  std::uint64_t syscall_epoch_flagged = 0;
};

inline constexpr unsigned kFlagRunnableStarvation = 1u << 0;
inline constexpr unsigned kFlagWorkerStall = 1u << 1;
inline constexpr unsigned kFlagQuantumOverrun = 1u << 2;
inline constexpr unsigned kFlagFaultStorm = 1u << 3;
inline constexpr unsigned kFlagSyscallBlocked = 1u << 4;

/// Pure detection core (unit-tested without a Runtime). Updates `watch` from
/// the observation and returns a bitmask of *newly entered* flag episodes.
unsigned evaluate_worker(const WorkerObs& obs, const WatchdogLimits& limits,
                         WorkerWatch& watch);

}  // namespace watchdog_detail

/// The runtime-facing watchdog. Runtime::Runtime calls start() before it
/// starts the service thread, which then drives tick().
class Watchdog {
 public:
  void start(Runtime& rt);

  /// Accrues time-in-state each call; runs the starvation poll at most once
  /// per watchdog period. Called only from the service thread.
  void tick(std::int64_t now);
  /// When the next poll is due; INT64_MAX when the watchdog is off.
  std::int64_t next_poll_ns() const { return next_poll_ns_; }

  std::uint64_t checks() const {
    return checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t flagged(WatchdogReport::Kind k) const {
    return flags_[static_cast<int>(k)].load(std::memory_order_relaxed);
  }

 private:
  /// Runtime::deadlock_poll (park.cpp) reports cycles through report() and
  /// consumes the remediation budget of the poll period it runs in.
  friend class Runtime;

  void poll(std::int64_t now);
  void report(const WatchdogReport& r);

  Runtime* rt_ = nullptr;  ///< null while the watchdog is off
  std::int64_t period_ns_ = 0;
  watchdog_detail::WatchdogLimits limits_;
  std::vector<watchdog_detail::WorkerWatch> watch_;
  std::int64_t last_accrue_ns_ = 0;
  std::int64_t next_poll_ns_ = std::numeric_limits<std::int64_t>::max();
  /// Default-sink rate limit, per flag kind: a starving runtime flags every
  /// period, but one noisy kind must not silence reports of the others.
  std::int64_t last_stderr_ns_[7] = {};
  /// Remediation ladder state: actions taken in the current poll period
  /// (capped at options().remediate_max_per_period) and the master switch,
  /// resolved at start().
  bool remediate_ = false;
  int remediate_budget_ = 0;
  /// Deadlock-detection cadence: run Runtime::deadlock_poll every
  /// deadlock_every_ watchdog polls (RuntimeOptions::deadlock_periods).
  int deadlock_every_ = 1;
  int deadlock_tick_ = 0;

  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> flags_[7] = {};
};

/// Background publisher: rewrites LPT_METRICS_FILE atomically (tmp + rename)
/// every period with a fresh snapshot, so an external scraper never reads a
/// torn file. Off unless a file is configured. Writes once immediately at
/// start and once more at stop so short-lived processes still leave a file.
class MetricsPublisher {
 public:
  ~MetricsPublisher() { stop(); }

  /// Publish options().metrics_file every options().metrics_period_ms.
  void start(Runtime& rt);
  void stop();
  bool running() const { return thread_.joinable(); }

 private:
  void publish_once();
  void thread_loop();

  Runtime* rt_ = nullptr;
  metrics::Format format_ = metrics::Format::kPrometheus;
  std::atomic<bool> stop_{false};
  FutexGate gate_;
  std::thread thread_;
};

}  // namespace lpt
