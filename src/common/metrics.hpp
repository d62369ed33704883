// Always-on scheduler metrics (docs/observability.md, "Metrics & watchdog").
//
// The tracer (trace.hpp) is an opt-in event log for offline analysis; this
// subsystem is the complementary always-on layer: cheap aggregate counters
// and gauges a long-running process can scrape at any moment without arming
// anything. Design constraints, in order:
//
//  * hot-path cost — one relaxed store per instrumented site. Per-worker
//    counters written from scheduler context use Counter (a relaxed
//    load+store increment with no lock prefix; legal because each counter
//    has exactly one logical writer). Counters written from signal handlers
//    or foreign threads use AtomicCounter (relaxed fetch_add, still
//    async-signal-safe and wait-free).
//  * no clocks on the dispatch/steal/yield paths — time-in-state is
//    *sampled*: each worker publishes its instantaneous state as a relaxed
//    store at transitions, and the watchdog tick (runtime/watchdog.hpp)
//    attributes elapsed wall time to whichever state it observes.
//  * no allocation, no locks — everything here is plain atomics; Snapshot
//    (the read side) is the only allocating type and is never touched by
//    runtime threads.
//
// Exposure paths: Runtime::metrics_snapshot() (stable struct),
// Runtime::write_metrics() (Prometheus text format / JSON), and the optional
// background publisher (LPT_METRICS_FILE / LPT_METRICS_PERIOD_MS) that
// atomically rewrites a scrape file each period.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/trace.hpp"

namespace lpt::metrics {

/// Monotonic counter with exactly one logical writer (the owning worker's
/// scheduler context). The increment is a relaxed load+store pair — cheaper
/// than a locked RMW — which is race-free because concurrent writers do not
/// exist; signal handlers on the same thread never touch Counter instances
/// (they use AtomicCounter). Readers may observe any prior value (relaxed).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Monotonic counter safe for multiple writers, including signal handlers
/// (relaxed fetch_add is async-signal-safe and wait-free). Used for counters
/// written by the preemption handler, timer threads, or chain forwards.
class AtomicCounter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Signed up/down gauge (occupancy-style values). Async-signal-safe.
class Gauge {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Instantaneous worker state, published as a relaxed store at transitions
/// and sampled by the watchdog tick into time_in_state_ns. kScheduling also
/// covers the brief pick/post-action windows between ULT runs.
enum class WorkerState : std::uint8_t {
  kScheduling = 0,  ///< in the scheduler loop (pick / post-action)
  kRunningUlt = 1,  ///< executing ULT code
  kIdle = 2,        ///< no work found: backoff spin or futex nap
  kParked = 3,      ///< thread-packing park (rank >= active_workers)
};
inline constexpr int kWorkerStateCount = 4;
const char* worker_state_name(WorkerState s);

/// Plain copy of one worker's metric values at a point in time. Fields the
/// worker block cannot know (rank, queue depth, flags) are filled by
/// Runtime::metrics_snapshot().
struct WorkerSample {
  int rank = -1;
  std::uint64_t dispatches = 0;  ///< ULTs switched into (incl. resumes)
  std::uint64_t yields = 0;      ///< voluntary yields processed
  std::uint64_t blocks = 0;      ///< suspensions on sync primitives
  std::uint64_t exits = 0;       ///< ULT completions processed
  std::uint64_t steals = 0;      ///< threads taken from a remote queue
  std::uint64_t preempt_signal_yield = 0;
  std::uint64_t preempt_klt_switch = 0;
  std::uint64_t ticks_sent = 0;        ///< preemption signals sent at this worker
  std::uint64_t handler_entries = 0;   ///< handler hit a preemptible ULT
  std::uint64_t handler_deferred = 0;  ///< ... but a NoPreemptGuard deferred it
  std::uint64_t klt_degraded_ticks = 0;
  std::uint64_t ult_faults = 0;          ///< ULTs terminated by fault isolation
  std::uint64_t stack_overflows = 0;     ///< ... of which guard-page overflows
  std::uint64_t escaped_exceptions = 0;  ///< ... of which exception-firewall hits
  std::uint64_t ult_cancels = 0;         ///< ... of which cancel/deadline expiry
  std::uint64_t syscall_blocks = 0;      ///< annotated blocking-syscall regions
  std::int64_t queue_depth = 0;        ///< this worker's run-queue(s), now
  std::uint64_t time_in_state_ns[kWorkerStateCount] = {};
  std::uint8_t state = 0;              ///< WorkerState, instantaneous
  bool parked = false;
  bool posix_timer_fallback = false;
};

/// Per-worker metric block, embedded in Worker. Cache-line-aligned so two
/// workers' hot counters never share a line.
struct alignas(64) WorkerMetrics {
  // -- scheduler-context counters (single logical writer: the worker) --
  Counter dispatches;
  Counter yields;
  Counter blocks;
  Counter exits;
  Counter steals;
  Counter preempt_signal_yield;
  Counter preempt_klt_switch;

  // -- signal-handler / cross-thread counters --
  AtomicCounter ticks_sent;         ///< written by timer threads + chain forwards
  AtomicCounter handler_entries;    ///< written inside the preemption handler
  AtomicCounter handler_deferred;   ///< ditto (NoPreemptGuard defer path)
  AtomicCounter klt_degraded_ticks; ///< ditto (pool empty + creator saturated)
  // -- fault isolation (docs/robustness.md); written from the SIGSEGV/SIGBUS
  //    handler or the exception firewall, hence AtomicCounter --
  AtomicCounter ult_faults;         ///< all fault-isolation terminations
  AtomicCounter stack_overflows;    ///< guard-page overflows contained
  AtomicCounter escaped_exceptions; ///< exception-firewall terminations
  AtomicCounter ult_cancels;        ///< cancellation/deadline terminations
  // -- blocking-syscall resilience (docs/robustness.md); a wedged ULT on an
  //    old host and a fresh host's ULT can both enter regions for the same
  //    worker concurrently, hence AtomicCounter --
  AtomicCounter syscall_blocks;     ///< lpt::io::blocking_region entries

  /// Instantaneous state marker (relaxed store at transitions).
  std::atomic<std::uint8_t> state{
      static_cast<std::uint8_t>(WorkerState::kScheduling)};
  /// Sampled time-in-state accumulators; written only by the watchdog tick
  /// (single writer under its try-lock), read by snapshots. Zero when the
  /// watchdog is disabled — the states are markers, the tick is the clock.
  Counter time_in_state_ns[kWorkerStateCount];

  void set_state(WorkerState s) {
    state.store(static_cast<std::uint8_t>(s), std::memory_order_relaxed);
  }
  std::uint64_t preemptions() const {
    return preempt_signal_yield.value() + preempt_klt_switch.value();
  }
  /// Copy every counter into a plain sample (each field an independent
  /// relaxed read; see the coherence note on Snapshot).
  WorkerSample sample() const;
};

/// Point-in-time view of the whole runtime. Per-worker samples plus totals
/// (finalize()) plus runtime-global gauges.
///
/// Coherence: every field is an independent relaxed read of a live counter;
/// the struct is NOT a consistent cut of the runtime. Monotonic counters
/// (dispatches, preemptions, steals, histogram buckets) never run backwards
/// between two snapshots, but sums across workers may disagree transiently
/// with per-thread views, and `parked` is an instantaneous flag. Quiesce the
/// runtime (join all ULTs) before asserting exact equalities.
struct Snapshot {
  std::int64_t taken_ns = 0;   ///< CLOCK_MONOTONIC at snapshot time
  std::int64_t uptime_ns = 0;  ///< since Runtime construction
  int num_workers = 0;
  int active_workers = 0;
  std::vector<WorkerSample> workers;

  // -- totals over workers (computed by finalize()) --
  std::uint64_t dispatches = 0;
  std::uint64_t yields = 0;
  std::uint64_t blocks = 0;
  std::uint64_t exits = 0;
  std::uint64_t steals = 0;
  std::uint64_t preempt_signal_yield = 0;
  std::uint64_t preempt_klt_switch = 0;
  std::uint64_t preemptions = 0;  ///< signal_yield + klt_switch
  std::uint64_t ticks_sent = 0;
  std::uint64_t handler_entries = 0;
  std::uint64_t handler_deferred = 0;
  std::uint64_t klt_degraded_ticks = 0;
  std::uint64_t ult_faults = 0;
  std::uint64_t stack_overflows = 0;
  std::uint64_t escaped_exceptions = 0;
  std::uint64_t ult_cancels = 0;
  std::uint64_t syscall_blocks = 0;
  std::int64_t run_queue_depth = 0;

  // -- runtime-global --
  std::uint64_t ults_spawned = 0;
  std::int64_t ults_live = 0;       ///< spawned minus finished
  std::uint64_t klts_created = 0;
  std::uint64_t klts_on_demand = 0;
  std::uint64_t klt_create_failures = 0;
  std::int64_t klt_pool_idle = 0;   ///< parked spare KLTs, now
  std::uint64_t stacks_cached = 0;  ///< StackPool free list, now
  std::uint64_t stacks_shed = 0;
  std::uint64_t spawn_stack_failures = 0;
  std::uint64_t posix_timer_fallbacks = 0;
  std::uint64_t faults_injected = 0;

  // -- fault isolation (docs/robustness.md) --
  std::uint64_t klts_retired = 0;        ///< poisoned KLTs exited after a fault
  std::uint64_t stacks_quarantined = 0;  ///< faulted stacks scrubbed+re-guarded
  std::uint64_t stack_near_overflows = 0;///< releases within a page of the guard
  std::uint64_t stack_watermark_max = 0; ///< deepest stack use seen, bytes
  std::uint64_t stack_size_bytes = 0;    ///< effective default ULT stack size

  // -- watchdog (runtime/watchdog.hpp) --
  std::uint64_t watchdog_checks = 0;
  std::uint64_t watchdog_runnable_starvation = 0;
  std::uint64_t watchdog_worker_stall = 0;
  std::uint64_t watchdog_quantum_overrun = 0;
  std::uint64_t watchdog_fault_storm = 0;
  std::uint64_t watchdog_syscall_blocked = 0;
  std::uint64_t watchdog_deadlock = 0;
  std::uint64_t watchdog_abandoned_lock = 0;

  // -- self-healing remediation ladder (docs/robustness.md) --
  std::uint64_t remediations_retick = 0;
  std::uint64_t remediations_cancel = 0;
  std::uint64_t remediations_klt_replace = 0;
  std::uint64_t remediations_deadlock_break = 0;

  // -- deadlock detection & recovery (docs/robustness.md). Identity with
  //    remediation on and budget available:
  //    deadlock_cycles == remediations_deadlock_break + self_deadlocks. --
  std::uint64_t deadlock_cycles = 0;     ///< distinct cycles confirmed
  std::uint64_t self_deadlocks = 0;      ///< 1-cycles caught at lock()
  std::uint64_t abandoned_locks = 0;     ///< owners that died holding a lock
  std::uint64_t abandoned_released = 0;  ///< ... force-released (LPT_ABANDON_RELEASE)
  std::int64_t parked_waiters = 0;       ///< registry-parked ULTs, now

  // -- blocking-syscall compensation (docs/robustness.md). Identity after
  //    quiescing: activated == reabsorbed + saturated. --
  std::uint64_t syscall_comp_activated = 0;   ///< sentinel committed to compensate
  std::uint64_t syscall_comp_reabsorbed = 0;  ///< losing hosts parked back to pool
  std::uint64_t syscall_comp_saturated = 0;   ///< commitments with no KLT available

  // -- tracer pass-through (zero when tracing is off) --
  bool trace_enabled = false;
  std::uint64_t trace_events = 0;   ///< committed across all rings
  std::uint64_t trace_dropped = 0;  ///< lost to ring overflow
  /// Log2 latency histograms merged across workers (ns); see
  /// trace::HistSnapshot::percentile_ns. Not exported by the writers below.
  trace::HistSnapshot preempt_delivery_ns;  ///< timer fire → handler entry
  trace::HistSnapshot preempt_resched_ns;   ///< preemption → re-dispatch
  trace::HistSnapshot klt_switch_trip_ns;   ///< KLT suspend → resume
  /// The pool_* vectors below, merged across pools.
  trace::HistSnapshot sched_delay_ns;       ///< ready → dispatch
  trace::HistSnapshot spawn_latency_ns;     ///< spawn → first dispatch
  // Per-pool scheduling-delay accounting (docs/observability.md, "Causal
  // tracing & scheduling delay"): index == worker rank == pool; a stolen ULT
  // is attributed to the pool that dispatched it. Like the counters above
  // these are tracer pass-through — empty vectors when tracing is off —
  // exported by write_prometheus as native histograms with `le` buckets
  // (lpt_sched_delay_ns / lpt_spawn_latency_ns). sum_ns is exact, so after
  // quiescing the merged totals reconcile with summed per-ULT
  // UltAccounting (tests/tools/trace_check relies on this).
  std::vector<trace::HistSnapshot> pool_sched_delay_ns;    ///< ready → dispatch
  std::vector<trace::HistSnapshot> pool_spawn_latency_ns;  ///< spawn → 1st disp.

  // -- profiler pass-through (docs/observability.md "Profiling"; all zero
  //    when profiling is off) --
  bool prof_enabled = false;
  std::uint64_t prof_sample_invocations = 0;  ///< sampling hook firings
  std::uint64_t prof_samples_recorded = 0;    ///< committed to sample rings
  std::uint64_t prof_samples_dropped = 0;     ///< lost (ring full / no ring)
  std::uint64_t prof_offcpu_waits = 0;        ///< blocked intervals recorded
  std::uint64_t prof_offcpu_ns = 0;           ///< total blocked time, ns
  std::uint64_t prof_lock_acquires = 0;       ///< profiled Mutex acquisitions
  std::uint64_t prof_lock_contended = 0;      ///< ... that had to park
  std::uint64_t prof_contention_chains = 0;   ///< ... behind a preempted holder

  /// Fill the totals from `workers`.
  void finalize();

  /// handler entries / ticks sent (0 when no ticks were sent). A low value
  /// means ticks land outside preemptible ULT code (idle workers, wrong
  /// phase); the paper's bounded time-to-preemption needs this near 1.
  double tick_effectiveness() const {
    return ticks_sent > 0
               ? static_cast<double>(handler_entries) /
                     static_cast<double>(ticks_sent)
               : 0.0;
  }
  /// actual switches / handler entries (0 when no entries). Below 1 when
  /// NoPreemptGuards defer or KLT-switch ticks degrade.
  double switch_rate() const {
    return handler_entries > 0
               ? static_cast<double>(preemptions) /
                     static_cast<double>(handler_entries)
               : 0.0;
  }
};

enum class Format : std::uint8_t { kPrometheus, kJson };

/// Prometheus text exposition format (one HELP/TYPE block per family,
/// per-worker series labelled {worker="r"}).
void write_prometheus(std::FILE* out, const Snapshot& s);
/// One JSON object: {"uptime_ns":..., "totals":{...}, "workers":[...], ...}.
void write_json(std::FILE* out, const Snapshot& s);

/// Background-publisher configuration (RuntimeOptions::metrics_file /
/// metrics_period_ms overridden by LPT_METRICS_FILE / LPT_METRICS_PERIOD_MS).
/// The publisher is enabled iff `file` is non-empty.
struct PublishConfig {
  std::string file;
  std::int64_t period_ms = 1000;
};
/// Largest accepted LPT_METRICS_PERIOD_MS (one day).
inline constexpr long long kMaxPeriodMs = 86'400'000;
PublishConfig resolve_publish_config(PublishConfig base);

/// Paths ending in ".json" publish JSON; everything else Prometheus text.
Format format_for_path(const std::string& path);

}  // namespace lpt::metrics
