// Worker: the schedulable entity of the M:N model. In signal-yield mode a
// worker is pinned to one KLT; with KLT-switching the worker is *virtual*
// and remaps across KLTs (paper Fig 1b).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cpu.hpp"
#include "common/futex.hpp"
#include "common/metrics.hpp"
#include "common/spinlock.hpp"
#include "common/trace.hpp"
#include "context/context.hpp"
#include "context/stack.hpp"
#include "runtime/options.hpp"
#include "runtime/park.hpp"

#include <ctime>

namespace lpt {

class Runtime;
struct ThreadCtl;
struct KltCtl;
class Mutex;

/// Trace ids without a shared write per spawn: a worker hands out ids from a
/// private block of kSize claimed from one shared cursor (external spawns
/// claim one id at a time). Ids are unique until the 32-bit cursor wraps;
/// 0 means "untraced" and is skipped, also across the wrap. Ids follow spawn
/// order among external spawns and among one worker's spawns.
struct IdBlock {
  static constexpr std::uint32_t kSize = 1024;
  std::uint32_t next = 0;
  std::uint32_t end = 0;

  std::uint32_t take(std::atomic<std::uint32_t>& cursor) {
    for (;;) {
      if (next == end) {
        next = cursor.fetch_add(kSize, std::memory_order_relaxed);
        end = next + kSize;
      }
      const std::uint32_t id = next++;
      if (id != 0) return id;
    }
  }
  static std::uint32_t take_one(std::atomic<std::uint32_t>& cursor) {
    for (;;) {
      const std::uint32_t id = cursor.fetch_add(1, std::memory_order_relaxed);
      if (id != 0) return id;
    }
  }
};

/// Deferred action a suspending context leaves for the scheduler. The
/// suspender must not be enqueued/finalized before its register state is
/// saved, so the *scheduler* performs the action right after the switch.
enum class PostKind : std::uint8_t {
  kNone,
  kYield,              ///< voluntary yield → re-enqueue
  kPreemptSignalYield, ///< handler switched away → re-enqueue as preempted
  kPreemptKltSwitch,   ///< handler parked the KLT → re-enqueue as preempted
  kBlock,              ///< suspended on a sync primitive; finalize locks
  kExit,               ///< thread function finished; recycle and wake joiners
  kFault,              ///< fault isolation abandoned the thread; quarantine
                       ///< its stack, mark kFailed, wake joiners
};

struct PostAction {
  PostKind kind = PostKind::kNone;
  ThreadCtl* thread = nullptr;
  Spinlock* release_lock = nullptr;  ///< unlocked after the context is saved
  Mutex* release_mutex = nullptr;    ///< ditto (condvar wait path)
};

struct alignas(kCacheLineSize) Worker {
  Runtime* rt = nullptr;
  int rank = -1;

  /// Scheduler context on a dedicated stack (it must migrate across KLTs
  /// under KLT-switching, so it cannot live on any pthread's native stack).
  Context sched_ctx;
  Stack sched_stack;

  /// Currently running ULT and a raced-but-safe copy of its preemption mode
  /// (timer threads read the mode without dereferencing the ULT).
  std::atomic<ThreadCtl*> current_ult{nullptr};
  std::atomic<std::uint8_t> current_preempt{
      static_cast<std::uint8_t>(Preempt::None)};

  /// Kernel thread currently hosting this worker, and its tid (targets for
  /// pthread_kill / SIGEV_THREAD_ID).
  std::atomic<KltCtl*> current_klt{nullptr};
  std::atomic<pid_t> current_tid{0};

  /// Ownership token for the scheduler context (docs/robustness.md
  /// "Self-healing"). While a ULT runs, holds the hosting KltCtl*; nullptr
  /// while the scheduler owns the context or a claim is in flight. Every
  /// path that re-enters sched_ctx from ULT context must claim the token
  /// with compare_exchange(my_klt -> nullptr); the watchdog's forced KLT
  /// replacement claims it the same way. A failed claim on the ULT side
  /// means this KLT was orphaned by a forced replacement — it must not touch
  /// the worker again (suspension primitives exit via orphan path, handlers
  /// return / chain).
  std::atomic<KltCtl*> host_token{nullptr};

  PostAction post;

  // -- blocking-syscall state word (docs/robustness.md, "Blocking-syscall
  // resilience"). Published by lpt::io::blocking_region, read by the
  // watchdog's wedge sentinel. --
  /// Odd while the hosted ULT sits inside an annotated blocking syscall.
  /// Each region entry increments even→odd, each exit odd→even, so one epoch
  /// value names one region instance: the sentinel compensates a given epoch
  /// at most once, and a stale age can never flag a newer region.
  std::atomic<std::uint64_t> syscall_epoch{0};
  /// Region entry timestamp; written before the epoch turns odd, valid only
  /// while it is odd.
  std::atomic<std::int64_t> syscall_enter_ns{0};
  /// Last (odd) epoch the sentinel activated a compensating KLT for. The
  /// region exit compares this against its own epoch to learn it lost its
  /// host token to a compensation and must take the reabsorption path.
  std::atomic<std::uint64_t> syscall_compensated_epoch{0};

  /// Futex word for thread-packing parking.
  std::atomic<std::uint32_t> wake_word{0};
  std::atomic<bool> parked{false};
  /// Idle stack trim (Runtime::idle_wait): start of this worker's current
  /// run of naps that saw no live ULT (0 = none), and the spawn count then.
  std::int64_t quiet_since_ns = 0;
  std::uint64_t quiet_mark = 0;

  /// POSIX per-worker timer (TimerKind::PosixPerWorker).
  timer_t posix_timer{};
  bool posix_timer_armed = false;
  pid_t posix_timer_tid = 0;

  // -- graceful degradation (docs/robustness.md) --
  /// Total timer_create/timer_settime failures observed by this worker.
  int posix_timer_failures = 0;
  /// This worker's preemption ticks come from the service thread instead of
  /// its (failed) POSIX timer. Read by the service thread to signal only
  /// degraded workers; sticky until shutdown.
  std::atomic<bool> posix_timer_degraded{false};
  /// Arm attempts per maybe_rearm_posix_timer() call before degrading. The
  /// retries happen in-call so a worker is armed or degraded before it
  /// dispatches — never silently unpreemptible.
  static constexpr int kPosixTimerFailLimit = 3;
  /// Degrade this worker to service-thread delivery (sticky).
  void note_posix_timer_failure();

  /// Always-on counters and the sampled state marker (common/metrics.hpp).
  /// Scheduler-context sites use the store-based Counter members; the
  /// preemption handler and timer threads write only the AtomicCounter ones.
  /// Runtime::metrics_snapshot() aggregates from here.
  metrics::WorkerMetrics metrics;

  // -- tracing (see docs/observability.md) --
  /// Timestamp of the last preemption signal sent at this worker (written by
  /// the timer/forwarding sender, consumed by the handler to compute the
  /// fire→handler-entry delivery latency). 0 = consumed / none.
  std::atomic<std::int64_t> preempt_sent_ns{0};
  /// Signal-safe log2 latency histograms, merged into metrics::Snapshot.
  trace::LatencyHistogram hist_delivery;   ///< signal send → handler entry
  trace::LatencyHistogram hist_resched;    ///< preemption → next dispatch
  trace::LatencyHistogram hist_klt_trip;   ///< KLT suspend → resume round trip
  /// Per-pool scheduling-delay accounting (pool == worker rank; a stolen ULT
  /// is attributed to the pool that *dispatched* it, which is where the wait
  /// ended). Recorded at dispatch while the tracer is armed; exported as
  /// native Prometheus histograms and merged into metrics::Snapshot.
  trace::LatencyHistogram hist_sched_delay;    ///< ready → dispatch
  trace::LatencyHistogram hist_spawn_latency;  ///< spawn → first dispatch

  // -- spawn caches (DESIGN.md, "Spawn path"). Written only by this
  // worker's scheduler context or by a ULT that borrowed the worker
  // (detail::borrow_worker), one at a time: single-writer, no locked RMW.
  // Other threads only read the counters. On a line of their own. --
  /// ULTs spawned from / finalized on this worker (summed with the external
  /// counters by Runtime::ult_counts).
  alignas(kCacheLineSize) metrics::Counter ults_spawned;
  metrics::Counter ults_finished;
  IdBlock trace_ids;
  /// Round-robin home pool of this worker's spawns (starts at its rank).
  std::uint32_t spawn_rr = 0;

  /// ULTs that parked while running on this worker (park.hpp). Last, on its
  /// own cache line: waiters that resume elsewhere unlink from here.
  alignas(kCacheLineSize) park::List park_list;

  /// Body of the scheduler context: pick/run loop until runtime shutdown.
  void scheduler_loop();

 private:
  void run(ThreadCtl* t);
  void run_resume_bound(ThreadCtl* t);  ///< KLT-switching resume protocol
  /// Dispatch trace event + preempt→reschedule histogram sample.
  void trace_dispatch(ThreadCtl* t);
  void process_post_action();
  void idle_backoff(int& failures);
  void park_for_packing();
  /// (Re)target the POSIX per-worker timer at `tid` (0 = current host KLT).
  void maybe_rearm_posix_timer(pid_t tid = 0);
};

/// Per-KLT runtime state. Accessed from the preemption signal handler, so it
/// lives in initial-exec TLS (async-signal-safe, no lazy allocation) and is
/// only reached through the non-inlined accessor below — a ULT may resume on
/// a different KLT after a switch, and the address must be re-derived.
struct WorkerTls {
  Worker* worker = nullptr;
  KltCtl* klt = nullptr;
  /// The ULT physically hosted on *this* KLT. Usually equal to
  /// worker->current_ult, but after a forced KLT replacement the worker's
  /// current_ult moves on with the new host while the orphaned KLT still
  /// carries its old ULT — identity must come from here, not the worker.
  ThreadCtl* hosted_ult = nullptr;
  /// True only while ULT code is running on this KLT (or a handler is about
  /// to return into it). The handler preempts nothing when false, which
  /// makes the scheduler's pre-switch window safe by construction.
  volatile bool in_ult = false;
  /// NoPreemptGuard nesting depth; handler defers preemption while > 0.
  volatile int no_preempt_depth = 0;
  volatile bool preempt_pending = false;
  /// This OS thread's trace ring (nullptr when tracing is off). Set once at
  /// thread startup; read from the signal handler via worker_tls().
  trace::Ring* trace_ring = nullptr;
  /// Collector::config_epoch() at the time trace_ring was acquired. External
  /// threads outlive Runtimes, and each configure() frees the old slab — the
  /// epoch check makes them re-acquire instead of writing through a dangling
  /// pointer (runtime-owned threads never see a reconfigure).
  std::uint64_t trace_ring_epoch = 0;
  /// This OS thread's on-CPU sample ring (nullptr when the profiler is off).
  /// Same lifecycle and signal-safety rules as trace_ring.
  prof::SampleRing* prof_ring = nullptr;
};

/// Never inlined: re-derives the TLS address every call.
WorkerTls* worker_tls();

}  // namespace lpt
