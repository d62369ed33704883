// The preemptive M:N threading runtime — public entry point of the library.
//
//   lpt::RuntimeOptions opts;
//   opts.num_workers = 8;
//   opts.timer = lpt::TimerKind::PerWorkerAligned;
//   opts.interval_us = 1000;
//   lpt::Runtime rt(opts);
//   auto t = rt.spawn([]{ heavy_loop(); }, {.preempt = lpt::Preempt::KltSwitch});
//   t.join();
//
// One Runtime may be active per process at a time (the preemption signal
// handler needs a process-global anchor); sequential create/destroy is fine.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/futex.hpp"
#include "common/metrics.hpp"
#include "common/spinlock.hpp"
#include "context/stack.hpp"
#include "runtime/klt_pool.hpp"
#include "runtime/options.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/thread.hpp"
#include "runtime/watchdog.hpp"
#include "runtime/worker.hpp"

namespace lpt {

class PreemptionTimer;

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opts = {});
  /// All spawned threads must have been joined (or have finished, if
  /// detached) before destruction.
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a ULT. Callable from ULTs and from external kernel threads.
  ///
  /// Resource failure is recoverable (docs/robustness.md): when the stack
  /// cannot be mapped even after the StackPool sheds its cache and retries,
  /// the returned handle is empty (!joinable()) and spawn_errno() carries
  /// the reason (e.g. ENOMEM) for the calling thread.
  Thread spawn(std::function<void()> fn, ThreadAttrs attrs = {});
  /// Fire-and-forget variant; the runtime frees the control block at exit.
  /// Returns false (with spawn_errno() set) on recoverable spawn failure.
  bool spawn_detached(std::function<void()> fn, ThreadAttrs attrs = {});

  /// Thread packing (§4.2): workers with rank >= n park at their next
  /// scheduling point (a preemption point for preemptive threads); their
  /// queued threads are picked up by the remaining active workers.
  void set_active_workers(int n);
  int active_workers() const { return n_active_.load(std::memory_order_acquire); }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  Scheduler& scheduler() { return *sched_; }
  const RuntimeOptions& options() const { return opts_; }

  /// The process's active runtime, or nullptr.
  static Runtime* current();

  /// Sum of implicit preemptions across workers (both techniques).
  std::uint64_t total_preemptions() const;
  /// KLTs ever created (workers + pool spares); reaches M+N only in the
  /// paper's worst case where KLT-switching degenerates to 1:1 (§3.1.2).
  std::uint64_t total_klts() const;

  // ----- always-on metrics (docs/observability.md) -----

  /// Full metrics snapshot: per-worker counters + queue depths, totals,
  /// runtime-global gauges and, while tracing, the tracer's latency
  /// histograms. Always available (no tracing required). See
  /// metrics::Snapshot for its coherence contract.
  metrics::Snapshot metrics_snapshot() const;

  // Kept only for perfbench/, which still names Runtime::Stats and stats().
  using Stats = metrics::Snapshot;
  Stats stats() const { return metrics_snapshot(); }

  /// Write a snapshot to `out` in Prometheus text format or JSON. Returns
  /// false only when `out` is null.
  bool write_metrics(std::FILE* out, metrics::Format format) const;

  /// True when the background metrics publisher is rewriting a file
  /// (options().metrics_file / LPT_METRICS_FILE).
  bool metrics_publishing() const { return publisher_.running(); }

  /// Watchdog flag episodes observed so far, by kind.
  std::uint64_t watchdog_flags(WatchdogReport::Kind kind) const {
    return watchdog_.flagged(kind);
  }

  /// Remediation actions taken so far, by kind (kNone is not counted).
  std::uint64_t remediations(RemediationKind kind) const {
    const int i = static_cast<int>(kind) - 1;
    return i >= 0 && i < 4 ? n_remediations_[i].value() : 0;
  }

  // ----- tracing (docs/observability.md) -----

  /// True when this runtime was constructed with tracing armed (options or
  /// LPT_TRACE environment).
  bool trace_enabled() const { return trace_cfg_.enabled; }
  /// Effective export path after env overrides ("" = no file at shutdown).
  const std::string& trace_file() const { return trace_cfg_.file; }
  /// Export everything recorded so far as Chrome trace_event JSON (loadable
  /// in Perfetto / chrome://tracing). Callable any time; for a coherent
  /// picture, quiesce the workers first. False when disabled or empty.
  bool write_chrome_trace(const std::string& path) const;
  /// Compact text summary (event counts, drops, histogram percentiles).
  void print_trace_summary(std::FILE* out) const;

  // ----- continuous profiling (docs/observability.md, "Profiling") -----

  /// True when this runtime was constructed with profiling armed (options or
  /// LPT_PROF environment).
  bool prof_enabled() const { return opts_.prof.enabled; }
  /// Effective profiler configuration after env overrides.
  const prof::ProfConfig& prof_config() const { return opts_.prof; }
  /// Export everything profiled so far to `path`: folded stacks
  /// (flamegraph-ready), or JSON when the path ends in ".json". Callable any
  /// time; quiesce the workers first for a coherent picture. False when
  /// profiling is disabled or the write fails.
  bool write_profile(const std::string& path) const;

  // ----- internal API (runtime components; not for applications) -----

  Worker& worker(int rank) { return *workers_[rank]; }
  KltPool& klt_pool() { return klt_pool_; }
  KltCreator& klt_creator() { return klt_creator_; }
  StackPool& stack_pool() { return stack_pool_; }
  bool shutting_down() const { return shutdown_.load(std::memory_order_acquire); }

  /// Allocate + register a KltCtl and start its pthread (runs klt_main).
  /// `starts_parked` spares enter the KLT pool before their first wait.
  /// Returns nullptr when pthread_create fails or max_klts is reached; the
  /// caller (KLT creator) owns retry/degradation policy.
  KltCtl* create_klt(bool starts_parked = false);

  /// True when options().max_klts bounds creation and the bound is reached.
  /// Async-signal-safe (the preemption handler reads it on pool misses).
  bool klt_cap_reached() const {
    const int cap = opts_.max_klts;
    return cap > 0 &&
           n_klts_.load(std::memory_order_acquire) >= static_cast<unsigned>(cap);
  }

  /// Put the calling worker's preemption delivery on the monitor-thread
  /// fallback path after its POSIX per-worker timer failed repeatedly.
  /// Starts the fallback timer lazily; callable from scheduler context only.
  void enable_posix_timer_fallback();

  /// Drive the watchdog from a timer/monitor thread (runtime/watchdog.hpp).
  /// No-op when the watchdog is disabled; safe from concurrent drivers. Also
  /// the timed-wait/deadline expiry driver: expirations happen before the
  /// watchdog poll so a deadline-expired cancel is visible the same period.
  void watchdog_tick(std::int64_t now) {
    expire_timers(now);
    watchdog_.tick(now);
  }

  /// Central ready-transition choke point: stamp the ULT's lifecycle
  /// accounting (ready_ns; closing a blocked episode on kUnblock), emit the
  /// causal kUltWake trace event for kSpawn/kUnblock transitions, then
  /// scheduler-enqueue + notify_work. Every site that makes a ULT runnable
  /// (yield/preempt re-enqueue, sync wakeups, join publication, timed-wait
  /// expiry, spawn, syscall reabsorption) must route through here so that
  /// every kUltDispatch has a matching ready stamp (docs/observability.md,
  /// "Causal tracing & scheduling delay"). Never called from signal
  /// handlers: all accounting work is gated on the tracer and may touch the
  /// clock and (for ringless external threads) lazily acquire a trace ring.
  /// `waker` is the waking ULT's trace id for the wake edge; kWakerFromTls
  /// resolves it from the calling context (0 = external/timer thread).
  static constexpr std::uint32_t kWakerFromTls = 0xffffffffu;
  void enqueue_ready(ThreadCtl* t, Worker* hint, EnqueueKind kind,
                     std::uint32_t waker = kWakerFromTls);

  /// Wake one idle worker after an enqueue; no syscall when none sleeps.
  void notify_work() { idle_.notify_one(); }
  /// Idle worker: nap up to 1 ms unless work or shutdown shows up. Once w's
  /// naps have seen no live ULT and no spawn for 10 ms, trims the stack
  /// cache to max_cached_stacks.
  void idle_wait(Worker& w);

  /// Finalize a terminated thread: recycle its stack, wake joiners, free the
  /// control block if detached. Called by the scheduler after the exit switch
  /// with its worker `w` (whose spawn caches and handoff slot it then
  /// writes), or with nullptr from an orphaned KLT.
  void finalize_thread(ThreadCtl* t, Worker* w);

  /// Finalize a kFailed thread (fault isolation): sample the stack watermark
  /// into t->fault, quarantine the stack instead of pooling it directly, then
  /// wake joiners like finalize_thread. Called from the kFault post action.
  void finalize_failed_thread(ThreadCtl* t, Worker* w);

  /// Count a poisoned KLT retired by the fault handler. Async-signal-safe
  /// (called from the SIGSEGV handler before the KLT exits).
  void note_klt_retired() { n_klts_retired_.add(1); }

  // ----- self-healing: timed waits, deadlines, remediation -----
  // (docs/robustness.md "Self-healing")

  /// Make the expiry scan due by `wake_ns` for `t`, which WaitQueue::wait
  /// just linked as a timed waiter (or at once when t has a pending cancel).
  void arm_timed_wait(ThreadCtl* t, std::int64_t wake_ns) {
    lower_next_due(wake_ns);
    // Close the race with a concurrent cancel: if the flag was set before
    // t's entry became visible, the canceller's kick_timers may have fired
    // against a list without it. The list lock orders the two, so one side
    // is guaranteed to see the other's write.
    if (t->cancel_requested.load(std::memory_order_acquire))
      lower_next_due(0);
  }

  /// Expire due timed waits and deadlines: settle timed-out waiters on the
  /// workers' parked lists (WaitResult::kTimedOut) and turn expired
  /// deadlines into cancel requests plus a directed preemption tick. Cheap
  /// when nothing is due.
  void expire_timers(std::int64_t now);
  /// Fast-path wrapper for idle workers: one relaxed load when no timed wait
  /// or deadline is armed, so timed waits keep ~1 ms granularity even with
  /// TimerKind::None.
  void maybe_expire_timers();
  /// Make the registry due now: the next expiry scan (idle worker, monitor
  /// tick, or watchdog poll) wakes any timed wait whose thread has a pending
  /// cancel request, regardless of its nominal wake time. Called after
  /// setting ThreadCtl::cancel_requested on a possibly-blocked thread.
  void kick_timers() { lower_next_due(0); }

  /// Watchdog remediation (options().remediation): replace worker w's wedged
  /// host KLT with a pool spare / fresh KLT. The old KLT is orphaned via the
  /// host_token protocol (worker.hpp) and exits at the stranded ULT's next
  /// runtime entry. False when no replacement KLT could be found (graceful
  /// degradation) or ownership could not be claimed this period.
  bool force_replace_worker_klt(Worker& w);

  /// Wedge sentinel action (docs/robustness.md "Blocking-syscall
  /// resilience"): worker w's hosted ULT has sat inside an annotated
  /// blocking syscall (epoch `epoch`, odd) past syscall_grace_ns — activate
  /// a compensating KLT so w's runnable ULTs keep dispatching. Claims the
  /// host token from the wedged KLT, re-validates the epoch, and commits by
  /// publishing syscall_compensated_epoch before the new host; the losing
  /// KLT reabsorbs (re-enqueues its ULT, parks) when the syscall returns.
  /// Budgeted: at most options().syscall_max_compensations in flight; when
  /// no KLT is available the attempt counts as saturated degradation.
  /// False when nothing was activated (budget, raced exit, saturation).
  bool compensate_syscall_blocked_worker(Worker& w, std::uint64_t epoch);

  /// Count a reabsorbed compensation (klt_main, after re-enqueueing the ULT
  /// that returned from its wedged syscall).
  void note_syscall_reabsorbed() { n_syscall_comp_[1].add(1); }

  /// Count + trace one remediation action (watchdog.hpp). With `report`,
  /// also route a synthesized WatchdogReport through watchdog_callback (or a
  /// rate-limited stderr line) — used by actions taken outside a watchdog
  /// poll (deadline-driven cancels), whose flag report nobody else emits.
  void note_remediation(RemediationKind kind, int worker_rank,
                        WatchdogReport::Kind cause, bool report = false);

  // ----- deadlock detection & recovery (park.cpp; docs/robustness.md) -----

  /// ULTs linked on the workers' parked lists right now.
  std::uint32_t parked_count() const;
  /// One detector pass over the parking registry: snapshot the waits-for
  /// graph, DFS for cycles, confirm each over two consecutive passes, and —
  /// when `remediate_budget` is non-null with budget remaining — break each
  /// confirmed cycle by cancelling its youngest member. Called from
  /// Watchdog::poll every options().deadlock_periods polls; serialized by
  /// the watchdog's try-lock.
  void deadlock_poll(Watchdog* wd, int* remediate_budget);
  /// Account a self-deadlock caught synchronously at the lock fast path
  /// (a 1-cycle: counter, trace event, watchdog report). The caller already
  /// marked `self` for cancellation with cancel_fault = kDeadlock.
  void note_self_deadlock(ThreadCtl* self, std::uint8_t kind);
  /// Abandonment scan for a finishing/failed thread: flag (and optionally
  /// force-release) every tracked resource still recording `t` as owner.
  /// O(1) when t released everything it acquired. Called from the finalize
  /// paths before joiners are woken.
  void note_owner_finished(ThreadCtl* t);

 private:
  friend struct Worker;
  static void* klt_entry(void* arg);
  void klt_main(KltCtl* self);
  ThreadCtl* spawn_ctl(std::function<void()> fn, ThreadAttrs attrs, bool detached);
  /// Shared tail of finalize_thread/finalize_failed_thread: publish done,
  /// wake joiners, free detached control blocks. With a worker `w`, a thread
  /// a join took (ThreadCtl::join_taken) hands w straight back to its lone
  /// joiner through w->run_next (DESIGN.md, "Join handoff").
  void publish_done_and_wake(ThreadCtl* t, Worker* w);
  /// enqueue_ready's accounting half (ready stamp, blocked time, wake edge),
  /// for a thread made ready without a queue. Call only with tracing on.
  void stamp_ready(ThreadCtl* t, EnqueueKind kind, std::uint32_t waker);
  /// ULTs ever spawned and live right now, summed over the per-worker and
  /// external counters. Finishes are summed before spawns, so a racing
  /// spawn-and-finish reads as still live rather than as a negative count
  /// (which is clamped to 0 anyway).
  void ult_counts(std::uint64_t* spawned, std::int64_t* live) const;
  /// Deadline registry maintenance (self-healing). arm_ is called from
  /// spawn_ctl for threads with an effective deadline; disarm_ from the
  /// finalize paths, before the control block may be deleted.
  void arm_deadline(ThreadCtl* t, std::int64_t deadline_abs_ns);
  void disarm_deadline(ThreadCtl* t);
  /// Fold a new wake/deadline instant into next_due_ (CAS-min).
  void lower_next_due(std::int64_t when);

  RuntimeOptions opts_;
  trace::TraceConfig trace_cfg_;  ///< options.trace resolved against env
  std::int64_t start_ns_ = 0;     ///< construction time (uptime metric)
  /// Trace-id cursor: workers claim IdBlock::kSize ids at a time, external
  /// spawns one.
  std::atomic<std::uint32_t> next_ult_id_{0};
  /// Spawns and finishes not counted on a worker: external spawners and
  /// orphaned KLTs. The per-worker halves live in Worker.
  metrics::AtomicCounter ext_spawned_;
  metrics::AtomicCounter ext_finished_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<PreemptionTimer> timer_;
  /// Monitor-thread timer started lazily when a worker's POSIX timer
  /// degrades (signals only degraded workers); guarded by fallback_lock_.
  Spinlock fallback_lock_;
  std::unique_ptr<PreemptionTimer> fallback_timer_;

  KltPool klt_pool_;
  KltCreator klt_creator_;
  StackPool stack_pool_;

  mutable Spinlock klts_lock_;
  std::vector<std::unique_ptr<KltCtl>> klts_;  // registry; joined at shutdown
  /// Mirror of klts_.size() readable from the preemption handler (the
  /// registry lock is not signal-safe).
  std::atomic<unsigned> n_klts_{0};

  std::atomic<std::uint64_t> n_spawn_stack_fail_{0};
  std::atomic<std::uint64_t> n_timer_fallbacks_{0};

  // -- fault isolation (docs/robustness.md) --
  metrics::AtomicCounter n_klts_retired_;        ///< written from the handler
  std::atomic<std::uint64_t> n_stack_near_overflow_{0};
  std::atomic<std::uint64_t> stack_watermark_max_{0};  ///< CAS-max on release

  // -- self-healing: timed waits, deadlines, remediation --
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  Spinlock timed_lock_;  ///< guards the two deadline lists
  /// Threads with an armed deadline. Entries pin liveness: removed in
  /// finalize_* (disarm_deadline) before the control block can be deleted.
  std::vector<ThreadCtl*> deadline_armed_;
  /// Expired deadlines currently being processed outside timed_lock_; they
  /// pin liveness the same way (disarm_deadline spins until the scan drops
  /// its entry, so the control block cannot die under the scan's hands).
  std::vector<ThreadCtl*> deadline_busy_;
  /// Earliest pending timed wait or deadline; kNoDeadline when none is.
  std::atomic<std::int64_t> next_due_{kNoDeadline};
  metrics::AtomicCounter n_remediations_[4];  ///< indexed RemediationKind - 1
  /// Blocking-syscall compensation outcomes: [0] activated (sentinel
  /// committed), [1] reabsorbed (losing host parked back), [2] saturated
  /// (commitment with no KLT available). activated == reabsorbed + saturated
  /// after quiescing; activated - reabsorbed - saturated = in flight.
  metrics::AtomicCounter n_syscall_comp_[3];
  std::atomic<std::int64_t> last_remediation_stderr_ns_{0};

  // -- deadlock detection & abandoned locks (park.cpp) --
  metrics::AtomicCounter n_deadlock_cycles_;
  metrics::AtomicCounter n_self_deadlocks_;
  metrics::AtomicCounter n_abandoned_locks_;
  metrics::AtomicCounter n_abandoned_released_;

  /// Watchdog + metrics publisher (runtime/watchdog.hpp). Declared after
  /// workers_/sched_ and stopped before them in the destructor.
  Watchdog watchdog_;
  MetricsPublisher publisher_;

  /// LPT_PROF_HZ sampling pacer: a dedicated thread that delivers one
  /// profiler signal per worker at the configured rate, decoupling sampling
  /// density from the preemption interval. Not started in piggyback mode
  /// (sample_hz == 0, the default) — there the preemption ticks themselves
  /// drive the sampler for free. Stopped first in the destructor, alongside
  /// the preemption timer.
  class ProfTicker {
   public:
    ~ProfTicker() { stop(); }
    void start(Runtime& rt, int hz);
    void stop();

   private:
    void thread_loop();

    Runtime* rt_ = nullptr;
    std::int64_t period_ns_ = 0;
    std::atomic<bool> stop_{false};
    FutexGate gate_;
    std::thread thread_;
  };
  ProfTicker prof_ticker_;

  std::atomic<int> n_active_{0};
  std::atomic<bool> shutdown_{false};
  EventCount idle_;  ///< idle workers nap on it (DESIGN.md, idle/wake protocol)
  std::atomic<unsigned> spawn_rr_{0};  // round-robin hint for external spawns
};

/// Reason the calling thread's most recent spawn/spawn_detached returned an
/// empty handle (errno-style, e.g. ENOMEM for stack exhaustion); 0 when it
/// succeeded. Thread-local, so concurrent spawners do not race.
int spawn_errno();

namespace this_thread {

/// Cooperative yield (and a cancellation point); no-op when called outside a
/// ULT.
void yield();
/// True when the calling code runs inside a ULT.
bool in_ult();
/// Worker rank hosting the calling ULT, or -1 outside ULT context.
int worker_rank();
/// Timed sleep and cancellation point. Inside a ULT the worker is released
/// for the duration (timed-wait registry, ~1 ms granularity); outside it
/// falls back to nanosleep.
void sleep_for(std::chrono::nanoseconds d);

}  // namespace this_thread

/// Defers implicit preemption for the guarded scope; if a preemption signal
/// arrived meanwhile, the guard's destructor yields voluntarily. Use around
/// short critical sections whose locks the scheduler also takes (§3.5.3).
class NoPreemptGuard {
 public:
  NoPreemptGuard();
  ~NoPreemptGuard();
  NoPreemptGuard(const NoPreemptGuard&) = delete;
  NoPreemptGuard& operator=(const NoPreemptGuard&) = delete;
};

}  // namespace lpt
