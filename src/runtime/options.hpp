// Configuration surface of the preemptive M:N runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/trace.hpp"
#include "prof/prof.hpp"

namespace lpt {

class Runtime;
class Scheduler;
struct WatchdogReport;

/// Per-thread preemption type (paper §3.4: all three coexist in one app).
enum class Preempt : std::uint8_t {
  None,         ///< traditional nonpreemptive ULT — cheapest, must yield
  SignalYield,  ///< §3.1.1 — handler context-switches; KLT-independent code only
  KltSwitch,    ///< §3.1.2 — whole KLT suspended; safe for KLT-dependent code
};

/// Preemption-timer strategy (paper §3.2).
enum class TimerKind : std::uint8_t {
  None,                   ///< no implicit preemption
  PerWorkerAligned,       ///< per-worker ticks, expirations staggered (§3.2.1)
  PerWorkerCreationTime,  ///< per-worker ticks, all in phase (the naive baseline)
  PosixPerWorker,         ///< real timer_create(SIGEV_THREAD_ID) per worker, aligned
  ProcessOneToAll,        ///< one process timer; initiator signals all eligible (§3.2.2)
  ProcessChain,           ///< one process timer; handlers forward one-by-one (§3.2.2)
};

/// How KLT-switching parks a kernel thread inside the signal handler (§3.3.1).
enum class KltSuspend : std::uint8_t {
  Futex,       ///< optimized: FUTEX_WAIT in handler / FUTEX_WAKE to resume
  Sigsuspend,  ///< portable baseline: sigsuspend + pthread_kill resume signal
};

/// Built-in scheduler selection; a custom factory overrides it.
enum class SchedulerKind : std::uint8_t {
  WorkStealing,  ///< BOLT-like default: per-worker FIFO + random stealing (§4.1)
  Packing,       ///< Algorithm 1: private/shared pools for thread packing (§4.2)
  Priority,      ///< two-class: high-prio FIFO before low-prio LIFO (§4.3)
};

struct RuntimeOptions {
  /// Number of workers ("N"). The paper creates one per core; on this host
  /// any value is legal (workers are kernel threads the OS time-slices).
  int num_workers = 4;

  TimerKind timer = TimerKind::None;
  /// Preemption interval. The paper sweeps 100 µs – 10 ms (Fig 6).
  std::int64_t interval_us = 10'000;

  SchedulerKind scheduler = SchedulerKind::WorkStealing;
  /// When set, overrides `scheduler`; called once during startup.
  std::function<std::unique_ptr<Scheduler>(Runtime&)> scheduler_factory;

  /// Default ULT stack size (overridable per thread).
  std::size_t stack_size = 256 * 1024;

  /// Default-sized stacks an idle runtime keeps cached. While ULTs are live
  /// every released stack is cached for reuse; once the runtime has had no
  /// live ULT and no spawn for 10 ms, an idle worker unmaps the excess
  /// (docs/robustness.md).
  std::size_t max_cached_stacks = 64;

  /// Upper bound on KLTs the runtime may ever create (worker hosts + spares);
  /// 0 = unlimited (the paper's as-many-KLTs-as-threads worst case, §3.1.2).
  /// When the cap is hit, KLT-switch preemptions degrade to deferred ticks
  /// (metrics::Snapshot::klt_degraded_ticks) instead of creating more kernel
  /// threads.
  /// Must be 0 or >= num_workers.
  int max_klts = 0;

  KltSuspend klt_suspend = KltSuspend::Futex;
  /// Worker-local KLT pools in front of the global pool (§3.3.2).
  bool worker_local_klt_pool = true;
  /// Number of spare KLTs created eagerly at startup (they park immediately);
  /// more are created on demand by the KLT creator.
  int initial_spare_klts = 0;

  /// Pin worker KLTs to cores round-robin (no-op beyond available cores).
  bool pin_workers = false;

  /// Scheduling tracer (docs/observability.md). Overridable via the
  /// LPT_TRACE / LPT_TRACE_FILE / LPT_TRACE_RING_CAP environment variables;
  /// when `trace.file` is set the runtime writes a Chrome trace_event JSON
  /// there at shutdown. Off by default: the hot path only pays one relaxed
  /// flag load per instrumented site.
  trace::TraceConfig trace;

  /// Continuous profiler (docs/observability.md, "Profiling"): on-CPU
  /// sampling piggybacked on preemption ticks, off-CPU wait attribution, and
  /// the lock-contention profiler. Overridable via LPT_PROF / LPT_PROF_HZ /
  /// LPT_PROF_OFFCPU / LPT_PROF_LOCKS / LPT_PROF_FILE / LPT_PROF_DEPTH /
  /// LPT_PROF_RING_CAP; when `prof.file` is set the runtime writes a
  /// folded-stack (or ".json") profile there at shutdown. Off by default:
  /// instrumented sites pay one relaxed flag load each.
  prof::ProfConfig prof;

  // ----- always-on metrics & watchdog (docs/observability.md) -----

  /// When non-empty (or LPT_METRICS_FILE is set), a background publisher
  /// thread atomically rewrites this file every metrics_period_ms with a
  /// fresh metrics snapshot — Prometheus text format, or JSON when the path
  /// ends in ".json". Off by default; the counters themselves are always on.
  std::string metrics_file;
  /// Publish period (LPT_METRICS_PERIOD_MS overrides).
  std::int64_t metrics_period_ms = 1000;

  /// Starvation watchdog (runtime/watchdog.hpp). On by default: it rides the
  /// runtime's service thread, which wakes at least once per
  /// watchdog_period_ms — cost is a handful of relaxed loads per worker per
  /// period, nothing on scheduling hot paths.
  bool watchdog = true;
  /// Poll period; detection latency is at most ~2 periods past a threshold.
  std::int64_t watchdog_period_ms = 100;
  /// Flag a worker with queued runnable ULTs that has not dispatched for
  /// this long (kRunnableStarvation).
  std::int64_t watchdog_runnable_ns = 250'000'000;
  /// Flag a worker whose preemption handler has not fired although this many
  /// ticks were sent at a preemptible ULT (kWorkerStall: blocked signal
  /// mask, stuck NoPreemptGuard, lost timer). 0 disables the check.
  int watchdog_stall_ticks = 8;
  /// Flag a preemptible ULT that has run without a scheduling event for this
  /// many preemption intervals (kQuantumOverrun). 0 disables; the check is
  /// automatically off when no preemption timer is armed.
  int watchdog_quantum_factor = 32;
  /// Called (from the watchdog's driver thread) once per flag episode. When
  /// unset, the watchdog prints a rate-limited report to stderr instead.
  std::function<void(const WatchdogReport&)> watchdog_callback;
  /// Flag a worker that terminated this many faulting ULTs within one
  /// watchdog period (kFaultStorm: an application bug is burning workers on
  /// crash-and-restart churn). 0 disables the check.
  int watchdog_fault_storm = 4;

  // ----- self-healing: remediation & deadlines (docs/robustness.md) -----

  /// Watchdog remediation ladder (LPT_REMEDIATE=1 enables). When on, the
  /// watchdog escalates from flagging to acting: a quantum overrun gets a
  /// directed re-tick, a stalled worker gets its KLT force-replaced from the
  /// KLT pool, and an overrunning ULT past its deadline is cancelled. Every
  /// action is counted (metrics::Snapshot::remediations_*,
  /// lpt_remediations_total), traced (kRemediation), and reported through
  /// watchdog_callback. Off by default: detection stays flag-only.
  bool remediation = false;
  /// Cap on remediation actions taken per watchdog poll period
  /// (LPT_REMEDIATE_MAX_PER_PERIOD overrides; must be >= 1). Bounds the blast
  /// radius of a misconfigured ladder.
  int remediate_max_per_period = 4;
  /// Default per-ULT deadline in ns, armed at spawn for every thread whose
  /// ThreadAttrs::deadline is zero; 0 = no default deadline. Expiry requests
  /// cancellation at the next watchdog tick.
  std::int64_t default_ult_deadline_ns = 0;

  // ----- deadlock detection & recovery (docs/robustness.md) -----

  /// Parking-registry deadlock detection (LPT_DEADLOCK=0 disables). When on,
  /// every blocking primitive registers waiter → resource → owner edges
  /// (runtime/park.hpp), the watchdog poll runs waits-for cycle detection,
  /// Mutex/RwLock catch self-deadlock synchronously at lock(), and abandoned
  /// locks (owner ended while holding) are flagged. Cycle *breaking* — the
  /// deadlock_break remediation cancelling the youngest member — is
  /// additionally gated on `remediation`, like the rest of the ladder.
  /// When off, registration short-circuits to one relaxed load per park:
  /// the yield/mutex fast paths are unchanged.
  bool deadlock_detection = true;
  /// Run the cycle detector every N watchdog polls (LPT_DEADLOCK_PERIODS
  /// overrides; must be >= 1). Detection latency is at most ~2·N watchdog
  /// periods: a cycle is confirmed on its second consecutive sighting.
  int deadlock_periods = 1;
  /// Force-release locks whose owner ended while holding them, handing off
  /// to the next waiter so siblings unwedge (LPT_ABANDON_RELEASE=1 enables).
  /// Off by default: the abandoned protectee's invariants may be broken, so
  /// the conservative default only flags (lpt_abandoned_locks_total,
  /// kAbandonedLock).
  bool abandon_release = false;

  // ----- blocking-syscall resilience (docs/robustness.md) -----

  /// Age past which a worker parked in an annotated blocking syscall
  /// (lpt::io::blocking_region) is considered wedged: the watchdog flags it
  /// kSyscallBlocked and — when syscall_compensate is on — activates a
  /// compensating KLT so the worker's run queue keeps draining
  /// (LPT_SYSCALL_GRACE_MS overrides; 0 disables the sentinel).
  std::int64_t syscall_grace_ns = 50'000'000;
  /// Activate compensating KLTs for syscall-wedged workers. On by default —
  /// unlike the remediation ladder this path is loss-free: the wedged ULT
  /// keeps running and its KLT is reabsorbed into the pool on return
  /// (LPT_SYSCALL_COMPENSATE=0 disables; detection stays flag-only).
  bool syscall_compensate = true;
  /// Cap on concurrently outstanding compensations (activated KLTs whose
  /// losers have not yet been reabsorbed). Bounds the extra kernel threads a
  /// storm of wedged syscalls can create on top of max_klts
  /// (LPT_SYSCALL_MAX_COMPENSATIONS overrides; must be >= 1).
  int syscall_max_compensations = 4;

  // ----- fault isolation (docs/robustness.md) -----

  /// Master switch for the fault-isolation subsystem (LPT_FAULT_ISOLATION=0
  /// disables). When on, the runtime installs sigaltstack-based SIGSEGV /
  /// SIGBUS handlers that terminate a ULT overflowing into its stack guard
  /// page with ThreadStatus Failed(kStackOverflow) instead of crashing the
  /// process, and ULT entry gets an exception firewall (escaped exceptions
  /// become Failed(kException)). Faults outside ULT context always chain to
  /// the previously-installed handler and crash normally. Forced off in
  /// sanitizer builds (sanitizers own the SEGV handler).
  bool fault_isolation = true;
  /// Also contain SIGSEGV/SIGBUS faults that are *not* stack overflows when
  /// they hit inside ULT context (LPT_ISOLATE_FAULTS=1). Off by default:
  /// a wild store may have corrupted shared state, so the conservative
  /// default only contains overflows, whose blast radius is provably the
  /// guard page.
  bool isolate_faults = false;
  /// madvise(MADV_DONTNEED) a cached stack's usable region every time the
  /// pool hands it out (LPT_STACK_SCRUB=1): per-tenant-accurate stack
  /// watermarks and no data leakage between ULTs, at the cost of re-faulting
  /// pages on reuse.
  bool stack_scrub = false;
};

/// Overlay environment knobs onto `o` and enforce invariants; called once by
/// the Runtime constructor. LPT_STACK_SIZE (bytes, optional K/M suffix) is
/// validated, page-rounded, and clamped to a sane minimum; malformed values
/// are reported to stderr and ignored. Also applies LPT_FAULT_ISOLATION,
/// LPT_ISOLATE_FAULTS, LPT_STACK_SCRUB, LPT_REMEDIATE, LPT_SYSCALL_COMPENSATE,
/// LPT_DEADLOCK, LPT_ABANDON_RELEASE, and the integer knobs
/// LPT_WATCHDOG_STARVATION_PERIODS / LPT_WATCHDOG_STALL_PERIODS /
/// LPT_REMEDIATE_MAX_PER_PERIOD / LPT_SYSCALL_GRACE_MS /
/// LPT_SYSCALL_MAX_COMPENSATIONS / LPT_DEADLOCK_PERIODS (validated like
/// LPT_STACK_SIZE).
///
/// Profiler knobs (docs/observability.md, "Profiling"):
///  * LPT_PROF=1 arms all three collectors (0/off force-disables);
///  * LPT_PROF_HZ=<n> switches the on-CPU sampler from tick-piggybacking to
///    an independent n-Hz-per-worker sampling signal; n outside
///    [prof::kMinHz, prof::kMaxHz] is rejected as nonsense;
///  * LPT_PROF_OFFCPU=0 / LPT_PROF_LOCKS=0 turn single collectors off;
///  * LPT_PROF_FILE=<path> sets the shutdown profile path and implies
///    LPT_PROF=1 (".json" = JSON report, anything else folded stacks);
///    plain LPT_PROF=1 with no file defaults to "lpt_profile.folded";
///  * LPT_PROF_DEPTH=<frames> bounds the stack walk (clamped to
///    [1, prof::kMaxFrames]);
///  * LPT_PROF_RING_CAP=<samples> sizes the per-OS-thread sample rings.
///
/// Tracer knobs (`trace`): LPT_TRACE is read by env_flag (common/env.hpp),
/// so "0", "off", "false" and "no" disable and an empty value counts as
/// unset; LPT_TRACE_FILE (Chrome trace) and LPT_TRACE_EVENTS_FILE (raw JSONL
/// event log) imply enabled; LPT_TRACE set to an on value with no file
/// defaults the file to "lpt_trace.json", so a plain `LPT_TRACE=1 ./bench`
/// always leaves a trace; LPT_TRACE_RING_CAP sizes the rings (at most
/// trace::kMaxRingCapacity).
///
/// Metrics publisher: LPT_METRICS_FILE sets `metrics_file` (the publisher
/// runs iff it is non-empty); LPT_METRICS_PERIOD_MS sets the period, at most
/// kMaxMetricsPeriodMs; a period that is not positive becomes 1000.
RuntimeOptions resolve_env_options(RuntimeOptions o);

/// Largest accepted LPT_METRICS_PERIOD_MS (one day).
inline constexpr long long kMaxMetricsPeriodMs = 86'400'000;

/// Smallest stack resolve_env_options will accept (LPT_STACK_SIZE below this
/// is raised to it): enough for the trampoline + a couple of frames.
inline constexpr std::size_t kMinStackSize = 16 * 1024;

/// Per-thread spawn attributes.
struct ThreadAttrs {
  Preempt preempt = Preempt::None;
  /// Scheduling class for SchedulerKind::Priority: 0 = high, 1 = low.
  int priority = 0;
  /// Home pool for SchedulerKind::Packing; -1 = assign round-robin.
  int home_pool = -1;
  /// 0 = use RuntimeOptions::stack_size.
  std::size_t stack_size = 0;
  /// Relative deadline in ns from spawn; 0 = use
  /// RuntimeOptions::default_ult_deadline_ns (which may itself be 0 = none).
  /// On expiry the watchdog tick requests cancellation (Failed(kCancelled)).
  std::int64_t deadline_ns = 0;
};

}  // namespace lpt
