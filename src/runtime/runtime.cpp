#include "runtime/runtime.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <ctime>

#include "common/assert.hpp"
#include "common/cpu.hpp"
#include "common/sys.hpp"
#include "common/time.hpp"
#include "prof/prof.hpp"
#include "runtime/fault.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/park.hpp"
#include "runtime/signals.hpp"

namespace lpt {

namespace detail {

std::atomic<Runtime*>& runtime_slot() {
  static std::atomic<Runtime*> slot{nullptr};
  return slot;
}

thread_local int tl_spawn_errno = 0;

}  // namespace detail

int spawn_errno() { return detail::tl_spawn_errno; }

namespace {

/// Entry of every worker scheduler context (runs on the dedicated stack).
void scheduler_trampoline(void* arg) {
  static_cast<Worker*>(arg)->scheduler_loop();
  LPT_CHECK_MSG(false, "scheduler_loop returned");
}

/// Run t's function behind the exception firewall (docs/robustness.md): an
/// exception escaping it would std::terminate the whole process from a
/// context no handler owns, so it is recorded as t's failure instead,
/// symmetrical with fault containment. Unlike a SEGV, the stack unwinds
/// normally here — destructors of the ULT's frames do run. An escaped
/// exception leaves t->fault.kind == kException.
void run_firewalled(ThreadCtl* t) {
  try {
    t->fn();
  } catch (const std::exception& e) {
    t->fault.kind = FaultKind::kException;
    std::strncpy(t->fault.what, e.what(), sizeof(t->fault.what) - 1);
  } catch (...) {
    t->fault.kind = FaultKind::kException;
    std::strncpy(t->fault.what, "non-std exception",
                 sizeof(t->fault.what) - 1);
  }
}

/// Entry of every ULT context.
void thread_trampoline(void* arg) {
  auto* t = static_cast<ThreadCtl*>(arg);
  detail::mark_in_ult();
  run_firewalled(t);
  detail::suspend_exit(t, t->fault.kind);
}

/// Body of an inline join (Runtime::run_inline); a failure stays in
/// t->fault.
void inline_body(void* arg) { run_firewalled(static_cast<ThreadCtl*>(arg)); }

/// On-CPU time of a running thread up to `now` (tracing armed).
std::uint64_t on_cpu_ns(const ThreadCtl* t, std::int64_t now) {
  return t->acct.run_ns +
         (t->acct.run_start_ns != 0
              ? static_cast<std::uint64_t>(now - t->acct.run_start_ns)
              : 0);
}

}  // namespace

Runtime::Runtime(RuntimeOptions opts)
    : opts_(resolve_env_options(std::move(opts))),
      stack_pool_(opts_.stack_size, StackPool::kUncapped, opts_.stack_scrub,
                  opts_.num_workers) {
  LPT_CHECK(opts_.num_workers >= 1);
  LPT_CHECK(opts_.interval_us >= 1);
  LPT_CHECK_MSG(opts_.max_klts == 0 || opts_.max_klts >= opts_.num_workers,
                "max_klts must be 0 (unlimited) or >= num_workers");

  sys::load_env_faults();  // arm any LPT_FAULT schedule before resources move
  start_ns_ = now_ns();

  Runtime* expected = nullptr;
  LPT_CHECK_MSG(detail::runtime_slot().compare_exchange_strong(expected, this),
                "only one lpt::Runtime may be active per process");

  signals::install_handlers();
  fault::install(*this);

  // Arm the tracer before any runtime thread exists so every thread can
  // acquire its ring at startup (recording itself never allocates).
  if (opts_.trace.enabled) trace::Collector::instance().configure(opts_.trace);

  // Arm the profiler the same way: configure() (re)allocates every collector
  // structure and re-arms the recording gates before any worker KLT exists,
  // so the hot paths never allocate. A disabled config disarms the gates,
  // making a fresh runtime immune to a previous runtime's profile state.
  prof::Collector::instance().configure(opts_.prof);
  times_waits_ = opts_.trace.enabled || prof::offcpu_on() || prof::locks_on();

  // Arm the parking registry before any worker exists so every park is
  // registered from the first dispatch; resets the detector's cycle memory.
  park::arm(opts_.deadlock_detection, opts_.abandon_release);

  n_active_.store(opts_.num_workers, std::memory_order_release);

  for (int r = 0; r < opts_.num_workers; ++r) {
    auto w = std::make_unique<Worker>();
    w->rt = this;
    w->rank = r;
    w->spawn_rr = static_cast<std::uint32_t>(r);
    w->sched_stack = Stack(128 * 1024);
    LPT_CHECK_MSG(w->sched_stack.valid(),
                  "cannot map worker scheduler stack (construction is fatal; "
                  "per-spawn stacks degrade gracefully)");
    w->sched_ctx = make_context(w->sched_stack.base(), w->sched_stack.size(),
                                &scheduler_trampoline, w.get());
    workers_.push_back(std::move(w));
  }

  if (opts_.scheduler_factory) {
    sched_ = opts_.scheduler_factory(*this);
  } else {
    switch (opts_.scheduler) {
      case SchedulerKind::WorkStealing:
        sched_ = std::make_unique<WorkStealingScheduler>();
        break;
      case SchedulerKind::Packing:
        sched_ = std::make_unique<PackingScheduler>();
        break;
      case SchedulerKind::Priority:
        sched_ = std::make_unique<PriorityScheduler>();
        break;
    }
  }
  sched_->init(*this);

  klt_pool_.configure(opts_.num_workers, opts_.worker_local_klt_pool);
  klt_creator_.start(*this);

  // Launch one host KLT per worker. Hosts are mandatory, so transient
  // EAGAIN is ridden out with a short capped backoff; only persistent
  // failure aborts construction.
  for (int r = 0; r < opts_.num_workers; ++r) {
    KltCtl* k = nullptr;
    std::int64_t backoff_ns = 50'000;
    for (int attempt = 0; attempt < 16 && k == nullptr; ++attempt) {
      k = create_klt();
      if (k == nullptr) {
        const timespec ts{backoff_ns / 1'000'000'000, backoff_ns % 1'000'000'000};
        nanosleep(&ts, nullptr);
        backoff_ns = std::min<std::int64_t>(backoff_ns * 2, 2'000'000);
      }
    }
    LPT_CHECK_MSG(k != nullptr, "cannot create initial worker host KLTs");
    k->action = KltAction::kBecomeWorker;
    k->assign_worker = workers_[r].get();
    k->gate.post();
  }

  // Spares are an optimization: creation failure here is not fatal (the KLT
  // creator restocks on demand once resources recover).
  for (int i = 0; i < opts_.initial_spare_klts; ++i)
    create_klt(/*starts_parked=*/true);

  if (opts_.watchdog) watchdog_.start(*this);
  if (!opts_.metrics_file.empty()) publisher_.start(*this);
  service_.start(*this);
}

Runtime::~Runtime() {
  // The service thread reads worker metrics and scheduler queues; stop it
  // while both still exist.
  service_.stop();
  // Disarm the parking registry: all ULTs are joined by contract, so no slot
  // is occupied; primitives outliving this runtime just stop registering.
  park::disarm();
  klt_creator_.stop();

  shutdown_.store(true, std::memory_order_release);
  set_active_workers(num_workers());  // unpark packing-suspended workers
  idle_.notify_all();

  // Wake every parked spare with an exit assignment. Worker-host KLTs leave
  // through the scheduler's exit path and ignore the extra ticket.
  {
    SpinlockGuard g(klts_lock_);
    for (auto& k : klts_) {
      k->action = KltAction::kExit;
      k->gate.post();
    }
  }
  // Late preemption sends (an in-flight handler's chain forward, a kernel
  // timer that outlives its worker) must not pthread_sigqueue a KLT that is
  // already joined: send_preempt is gated on shutting_down(), and the
  // delivery targets are cleared here before any join below.
  for (auto& w : workers_) {
    w->current_klt.store(nullptr, std::memory_order_release);
    w->current_tid.store(0, std::memory_order_release);
  }
  {
    SpinlockGuard g(klts_lock_);
    for (auto& k : klts_) pthread_join(k->pthread, nullptr);
  }

  // Final metrics publish with fully quiesced counters, then stop.
  publisher_.stop();

  // All rings are quiescent now; flush the configured trace file and stop
  // recording (the collector keeps the data for late explicit exports).
  if (opts_.trace.enabled) {
    if (!opts_.trace.file.empty())
      trace::Collector::instance().write_chrome_json(opts_.trace.file);
    if (!opts_.trace.events_file.empty())
      trace::Collector::instance().write_events_jsonl(opts_.trace.events_file);
    trace::Collector::instance().disable();
  }

  // Same for the profile: everything is quiesced, flush the configured file
  // and disarm the gates. The collector keeps the data for late explicit
  // write_profile() calls on the Collector singleton (this Runtime is gone).
  if (opts_.prof.enabled) {
    if (!opts_.prof.file.empty())
      prof::Collector::instance().write_file(opts_.prof.file);
    prof::Collector::instance().disable();
  }

  fault::restore();
  detail::runtime_slot().store(nullptr, std::memory_order_release);
}

Runtime* Runtime::current() { return detail::runtime_instance(); }

KltCtl* Runtime::create_klt(bool starts_parked) {
  if (klt_cap_reached()) return nullptr;
  auto owned = std::make_unique<KltCtl>();
  owned->rt = this;
  owned->starts_parked = starts_parked;
  KltCtl* k = owned.get();
  // Register only after a successful create so the shutdown join list never
  // holds a KLT without a live pthread.
  if (sys::pthread_create(&k->pthread, nullptr, &Runtime::klt_entry, k) != 0)
    return nullptr;  // owned frees the control block
  {
    SpinlockGuard g(klts_lock_);
    klts_.push_back(std::move(owned));
  }
  n_klts_.fetch_add(1, std::memory_order_acq_rel);
  return k;
}

void* Runtime::klt_entry(void* arg) {
  auto* k = static_cast<KltCtl*>(arg);
  k->rt->klt_main(k);
  return nullptr;
}

void Runtime::klt_main(KltCtl* self) {
  self->tid.store(gettid_syscall(), std::memory_order_release);
  WorkerTls* tls = worker_tls();
  tls->klt = self;
  tls->trace_ring =
      trace::Collector::instance().acquire_ring(trace::TrackKind::kWorkerKlt, -1);
  tls->trace_ring_epoch = trace::Collector::instance().config_epoch();
  if (tls->trace_ring != nullptr) self->trace_id = tls->trace_ring->id();
  // Sample ring for the on-CPU profiler (null when profiling is off). Like
  // the trace ring, acquired once per KLT before any signal can sample here.
  tls->prof_ring = prof::Collector::instance().acquire_ring();
  fault::register_alt_stack(self);
  signals::block_runtime_signals();
  signals::unblock_preempt();

  if (self->starts_parked) klt_pool_.push(self);

  for (;;) {
    self->gate.wait();
    const KltAction a = self->action;
    self->action = KltAction::kNone;
    if (a == KltAction::kExit) return;
    LPT_CHECK(a == KltAction::kBecomeWorker);

    Worker* w = self->assign_worker;
    worker_tls()->worker = w;
    self->home_worker = w->rank;

    if (opts_.pin_workers) {
      const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
      if (ncpu > 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(w->rank % ncpu), &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      }
    }
    w->current_klt.store(self, std::memory_order_release);
    w->current_tid.store(self->tid.load(std::memory_order_relaxed),
                         std::memory_order_release);

    context_switch(self->native_ctx, w->sched_ctx);

    // Released by the scheduler (resume protocol or shutdown).
    KltCtl* peer = self->pending_wake;
    self->pending_wake = nullptr;
    const bool wake_in_handler = self->pending_wake_in_handler;
    self->pending_wake_in_handler = false;
    const KltNativeOp op = self->native_op;
    self->native_op = KltNativeOp::kPark;

    // A ULT stranded on this KLT (docs/robustness.md "Self-healing") left
    // its post action here, since its worker moved on to another host. Like
    // the worker's, it runs only now that the ULT's context is saved — on
    // the ULT stack it would publish the thread before the save completed.
    // No worker's store-based Counter is written: their one writer is the
    // worker's own scheduler.
    const PostAction post = self->post;
    self->post = PostAction{};
    switch (post.kind) {
      case PostKind::kBlock:  // stranded mid-block: drop the guards
        if (post.release_lock != nullptr) post.release_lock->unlock();
        if (post.release_mutex != nullptr) post.release_mutex->unlock();
        break;
      case PostKind::kExit:
        finalize_thread(post.thread, nullptr);
        break;
      case PostKind::kFault:
        finalize_failed_thread(post.thread, nullptr);
        break;
      case PostKind::kYield:
        // Blocking-syscall reabsorption (docs/robustness.md): the region
        // returned after the wedge sentinel gave its worker a fresh host.
        // Count first, so a join-then-assert test sees the reconciliation,
        // then re-enqueue; the kPark tail returns this KLT to the pool and
        // the kernel-thread population to baseline. The wake edge labels
        // this a syscall return (the region times its syscall itself).
        note_syscall_reabsorbed();
        post.thread->store_state(ThreadState::kReady);
        post.thread->prof_wait_kind = prof::WaitKind::kSyscall;
        enqueue_ready(post.thread, nullptr, EnqueueKind::kUnblock, /*waker=*/0);
        break;
      default:
        break;
    }

    if (peer != nullptr) {
      // The wake happens here — off the scheduler stack — so the woken side
      // can safely resume or re-enter that scheduler context.
      if (wake_in_handler)
        detail::wake_bound_klt(this, peer);
      else
        peer->gate.post();
    }
    if (op == KltNativeOp::kExit) return;

    worker_tls()->worker = nullptr;
    klt_pool_.push(self);
  }
}

ThreadCtl* Runtime::spawn_ctl(std::function<void()> fn, ThreadAttrs attrs,
                              bool detached) {
  // A spawning ULT stays on its worker for the whole call and borrows the
  // worker's spawn caches — stack shard, trace ids, counters — so a
  // steady-state spawn writes no line another worker writes and makes no
  // syscall (DESIGN.md, "Spawn path"). External threads take the shared
  // paths.
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  Worker* w = detail::borrow_worker(self);
  const int shard = w != nullptr ? w->rank : StackPool::kShared;

  // Acquire the stack first: its allocation is the recoverable failure mode
  // (docs/robustness.md) and nothing else here may be half-done when it
  // fails. Custom-size stacks get the same shed-and-retry the pool applies.
  int err = 0;
  Stack stack;
  if (attrs.stack_size == 0) {
    stack = stack_pool_.try_acquire(&err, shard);
  } else {
    stack = Stack(attrs.stack_size);
    if (!stack.valid()) {
      err = errno != 0 ? errno : ENOMEM;
      stack_pool_.shed_all();
      stack = Stack(attrs.stack_size);
      if (stack.valid()) err = 0;
    }
  }
  if (!stack.valid()) {
    detail::return_worker(w);
    detail::end_no_preempt(self);
    if (err == 0) err = ENOMEM;
    n_spawn_stack_fail_.fetch_add(1, std::memory_order_relaxed);
    LPT_TRACE_EVENT(trace::EventType::kStackAllocFail, 0,
                    static_cast<std::uint64_t>(err));
    detail::tl_spawn_errno = err;
    return nullptr;
  }

  auto* t = new ThreadCtl;
  const unsigned n = static_cast<unsigned>(num_workers());
  t->home_pool = attrs.home_pool;
  // Counted live before it is runnable, so the count never reads 0 while the
  // thread runs (the idle stack trim keys on it).
  if (w != nullptr) {
    t->trace_id = w->trace_ids.take(next_ult_id_);
    if (attrs.home_pool < 0) t->home_pool = static_cast<int>(w->spawn_rr++ % n);
    w->ults_spawned.inc();
  } else {
    t->trace_id = IdBlock::take_one(next_ult_id_);
    if (attrs.home_pool < 0)
      t->home_pool = static_cast<int>(
          spawn_rr_.fetch_add(1, std::memory_order_relaxed) % n);
    ext_spawned_.add(1);
  }
  detail::return_worker(w);
  detail::tl_spawn_errno = 0;

  t->rt = this;
  t->fn = std::move(fn);
  t->preempt = attrs.preempt;
  t->priority = attrs.priority;
  t->detached = detached;

  t->stack = std::move(stack);
  t->ctx = make_context(t->stack.base(), t->stack.size(), &thread_trampoline, t);

  // Arm the deadline before the thread becomes runnable so it cannot finish
  // (and be finalized) with a registration still pending.
  const std::int64_t deadline_rel =
      attrs.deadline_ns > 0 ? attrs.deadline_ns : opts_.default_ult_deadline_ns;
  if (deadline_rel > 0) arm_deadline(t, now_ns() + deadline_rel);

  Worker* hint = self != nullptr
                     ? worker_tls()->worker
                     : workers_[t->home_pool % num_workers()].get();
  enqueue_ready(t, hint, EnqueueKind::kSpawn,
                self != nullptr ? self->trace_id : 0);
  detail::end_no_preempt(self);
  return t;
}

Thread Runtime::spawn(std::function<void()> fn, ThreadAttrs attrs) {
  ThreadCtl* t = spawn_ctl(std::move(fn), attrs, /*detached=*/false);
  return t != nullptr ? Thread(t) : Thread();
}

bool Runtime::spawn_detached(std::function<void()> fn, ThreadAttrs attrs) {
  return spawn_ctl(std::move(fn), attrs, /*detached=*/true) != nullptr;
}

void Runtime::set_active_workers(int n) {
  LPT_CHECK(n >= 1 && n <= num_workers());
  n_active_.store(n, std::memory_order_release);
  for (auto& w : workers_) {
    w->wake_word.fetch_add(1, std::memory_order_acq_rel);
    futex_wake(&w->wake_word, INT_MAX);
  }
  idle_.notify_all();
}

std::uint64_t Runtime::total_preemptions() const {
  std::uint64_t sum = 0;
  for (const auto& w : workers_) sum += w->metrics.preemptions();
  return sum;
}

std::uint64_t Runtime::total_klts() const {
  SpinlockGuard g(const_cast<Spinlock&>(klts_lock_));
  return klts_.size();
}

metrics::Snapshot Runtime::metrics_snapshot() const {
  metrics::Snapshot s;
  s.taken_ns = now_ns();
  s.uptime_ns = s.taken_ns - start_ns_;
  s.num_workers = num_workers();
  s.active_workers = active_workers();
  for (const auto& w : workers_) {
    metrics::WorkerSample ws = w->metrics.sample();
    ws.rank = w->rank;
    ws.queue_depth = sched_->queue_depth(w->rank);
    ws.parked = w->parked.load(std::memory_order_relaxed);
    ws.posix_timer_fallback =
        w->posix_timer_degraded.load(std::memory_order_relaxed);
    s.workers.push_back(ws);
  }
  s.finalize();

  ult_counts(&s.ults_spawned, &s.ults_live);
  s.klts_created = total_klts();
  s.klts_on_demand = klt_creator_.created();
  s.klt_create_failures = klt_creator_.create_failures();
  s.klt_pool_idle = klt_pool_.idle();
  s.stacks_cached = stack_pool_.cached();
  s.stacks_shed = stack_pool_.total_shed();
  s.spawn_stack_failures = n_spawn_stack_fail_.load(std::memory_order_relaxed);
  s.posix_timer_fallbacks = n_timer_fallbacks_.load(std::memory_order_relaxed);
  s.faults_injected = sys::total_injected();

  s.klts_retired = n_klts_retired_.value();
  s.stacks_quarantined = stack_pool_.total_quarantined();
  s.stack_near_overflows =
      n_stack_near_overflow_.load(std::memory_order_relaxed);
  s.stack_watermark_max = stack_watermark_max_.load(std::memory_order_relaxed);
  s.stack_size_bytes = stack_pool_.stack_size();

  s.watchdog_checks = watchdog_.checks();
  s.watchdog_runnable_starvation =
      watchdog_.flagged(WatchdogReport::Kind::kRunnableStarvation);
  s.watchdog_worker_stall =
      watchdog_.flagged(WatchdogReport::Kind::kWorkerStall);
  s.watchdog_quantum_overrun =
      watchdog_.flagged(WatchdogReport::Kind::kQuantumOverrun);
  s.watchdog_fault_storm =
      watchdog_.flagged(WatchdogReport::Kind::kFaultStorm);
  s.watchdog_syscall_blocked =
      watchdog_.flagged(WatchdogReport::Kind::kSyscallBlocked);
  s.watchdog_deadlock = watchdog_.flagged(WatchdogReport::Kind::kDeadlock);
  s.watchdog_abandoned_lock =
      watchdog_.flagged(WatchdogReport::Kind::kAbandonedLock);

  s.remediations_retick = remediations(RemediationKind::kRetick);
  s.remediations_cancel = remediations(RemediationKind::kCancel);
  s.remediations_klt_replace = remediations(RemediationKind::kKltReplace);
  s.remediations_deadlock_break = remediations(RemediationKind::kDeadlockBreak);

  s.deadlock_cycles = n_deadlock_cycles_.value();
  s.self_deadlocks = n_self_deadlocks_.value();
  s.abandoned_locks = n_abandoned_locks_.value();
  s.abandoned_released = n_abandoned_released_.value();
  // Disarmed, only timed waits are linked; the gauge keeps its meaning of
  // waiters the deadlock detector sees.
  s.parked_waiters = park::armed() ? parked_count() : 0;

  s.syscall_comp_activated = n_syscall_comp_[0].value();
  s.syscall_comp_reabsorbed = n_syscall_comp_[1].value();
  s.syscall_comp_saturated = n_syscall_comp_[2].value();

  s.trace_enabled = opts_.trace.enabled;
  if (opts_.trace.enabled) {
    s.trace_events = trace::Collector::instance().total_events();
    s.trace_dropped = trace::Collector::instance().total_dropped();
    for (const auto& w : workers_) {
      s.preempt_delivery_ns.merge(w->hist_delivery.snapshot());
      s.preempt_resched_ns.merge(w->hist_resched.snapshot());
      s.klt_switch_trip_ns.merge(w->hist_klt_trip.snapshot());
      s.pool_sched_delay_ns.push_back(w->hist_sched_delay.snapshot());
      s.pool_spawn_latency_ns.push_back(w->hist_spawn_latency.snapshot());
      s.sched_delay_ns.merge(s.pool_sched_delay_ns.back());
      s.spawn_latency_ns.merge(s.pool_spawn_latency_ns.back());
    }
  }

  s.prof_enabled = opts_.prof.enabled;
  if (opts_.prof.enabled) {
    const prof::Totals pt = prof::Collector::instance().totals();
    s.prof_sample_invocations = pt.invocations;
    s.prof_samples_recorded = pt.recorded;
    s.prof_samples_dropped = pt.dropped;
    s.prof_offcpu_waits = pt.offcpu_waits;
    s.prof_offcpu_ns = pt.offcpu_total_ns;
    s.prof_lock_acquires = pt.lock_acquires;
    s.prof_lock_contended = pt.lock_contended;
    s.prof_contention_chains = pt.contention_chains;
  }
  return s;
}

bool Runtime::write_metrics(std::FILE* out, metrics::Format format) const {
  if (out == nullptr) return false;
  const metrics::Snapshot s = metrics_snapshot();
  if (format == metrics::Format::kJson)
    metrics::write_json(out, s);
  else
    metrics::write_prometheus(out, s);
  return true;
}

bool Runtime::write_profile(const std::string& path) const {
  if (!opts_.prof.enabled) return false;
  return prof::Collector::instance().write_file(path);
}

bool Runtime::write_chrome_trace(const std::string& path) const {
  if (!opts_.trace.enabled) return false;
  return trace::Collector::instance().write_chrome_json(path);
}

void Runtime::print_trace_summary(std::FILE* out) const {
  if (!opts_.trace.enabled) {
    std::fprintf(out, "trace summary: tracing disabled\n");
    return;
  }
  trace::Collector::instance().write_summary(out);
  const metrics::Snapshot s = metrics_snapshot();
  auto hist_line = [&](const char* name, const trace::HistSnapshot& h) {
    if (h.count() == 0) return;
    std::fprintf(out,
                 "  %-28s n=%-8llu p50=%8.0f ns  p90=%8.0f ns  p99=%8.0f ns\n",
                 name, static_cast<unsigned long long>(h.count()),
                 h.percentile_ns(50), h.percentile_ns(90), h.percentile_ns(99));
  };
  hist_line("preempt delivery", s.preempt_delivery_ns);
  hist_line("preempt -> reschedule", s.preempt_resched_ns);
  hist_line("klt suspend -> resume", s.klt_switch_trip_ns);
  hist_line("sched delay (all pools)", s.sched_delay_ns);
  hist_line("spawn latency (all pools)", s.spawn_latency_ns);
  // Per-pool ready→dispatch delay: the task-level tail signal the serving
  // arc consumes (docs/observability.md, "Causal tracing & scheduling
  // delay"). Printed per pool because steals make pool delays diverge.
  for (std::size_t r = 0; r < s.pool_sched_delay_ns.size(); ++r) {
    const trace::HistSnapshot& h = s.pool_sched_delay_ns[r];
    if (h.count() == 0) continue;
    std::fprintf(out,
                 "  pool %-2zu sched delay          n=%-8llu p50=%8.0f ns  "
                 "p99=%8.0f ns  p999=%8.0f ns\n",
                 r, static_cast<unsigned long long>(h.count()),
                 h.percentile_ns(50), h.percentile_ns(99),
                 h.percentile_ns(99.9));
  }

  // Degradation counters (docs/robustness.md): nonzero values mean the
  // latencies above were taken on a degraded runtime.
  metrics::write_degradation(out, s);
}

void Runtime::enable_posix_timer_fallback(Worker& w) {
  w.posix_timer_degraded.store(true, std::memory_order_release);
  if (shutting_down()) return;
  n_timer_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  service_.post();  // start ticking w on the aligned schedule
}

namespace {

/// Give a ringless OS thread (an application thread calling spawn(), the
/// service thread driving timed-wait expiry) a trace ring the first time it
/// makes a ULT runnable, so its kUltWake edges are recorded rather than
/// silently dropped. Scheduler/ULT contexts already hold a ring from
/// klt_main. Never reached from signal handlers (enqueue_ready's contract),
/// so the allocating acquire_ring is safe here.
void ensure_external_trace_ring() {
  WorkerTls* tls = worker_tls();
  trace::Collector& c = trace::Collector::instance();
  // Epoch check: an application thread outlives Runtimes, and each
  // Collector::configure() frees the previous slab — a pointer cached in a
  // prior epoch dangles and must be re-acquired, never written through.
  const std::uint64_t epoch = c.config_epoch();
  if (tls->trace_ring == nullptr || tls->trace_ring_epoch != epoch) {
    tls->trace_ring = c.acquire_ring(trace::TrackKind::kExternal, -1);
    tls->trace_ring_epoch = epoch;
  }
}

}  // namespace

void Runtime::stamp_ready(ThreadCtl* t, EnqueueKind kind,
                          std::uint32_t waker) {
  const bool traced = LPT_TRACE_ON();
  if (!traced && kind != EnqueueKind::kUnblock) return;
  const std::int64_t now = trace::now_ns();
  // Close the wait record opened by the kBlock post action. The waker
  // exclusively owns t between waiter-list removal and enqueue (same handoff
  // that makes store_state safe), so these are single-writer plain stores.
  if (kind == EnqueueKind::kUnblock && t->acct.block_start_ns != 0) {
    const std::int64_t ns =
        std::max<std::int64_t>(now - t->acct.block_start_ns, 0);
    t->acct.block_start_ns = 0;
    t->acct.blocked_ns += static_cast<std::uint64_t>(ns);
    if (prof::offcpu_on())
      prof::record_wait(t->prof_wait_kind, t->prof_wait_site, ns);
  }
  if (!traced) return;
  t->acct.ready_ns = now;
  // kYield/kPreempted re-ready a thread that never left the scheduler; the
  // ready stamp still feeds the dispatch delay, but there is no causal wake
  // edge to draw.
  if (kind != EnqueueKind::kSpawn && kind != EnqueueKind::kUnblock) return;
  std::uint64_t wait_kind;
  if (kind == EnqueueKind::kSpawn) {
    t->acct.spawn_ns = now;
    wait_kind = trace::kWakeArgSpawn;
  } else {
    wait_kind = static_cast<std::uint64_t>(t->prof_wait_kind);
  }
  ensure_external_trace_ring();
  if (waker == kWakerFromTls) {
    ThreadCtl* self = detail::current_ult_or_null();
    waker = self != nullptr ? self->trace_id : 0;
  }
  trace::emit(trace::EventType::kUltWake, t->trace_id, waker, wait_kind);
}

void Runtime::enqueue_ready(ThreadCtl* t, Worker* hint, EnqueueKind kind,
                            std::uint32_t waker) {
  if (times_waits_) stamp_ready(t, kind, waker);
  sched_->enqueue(t, hint, kind);
  notify_work();
}

namespace {
/// How long a runtime must stay idle before it trims its stack cache.
constexpr std::int64_t kTrimQuietNs = 10'000'000;
}  // namespace

void Runtime::ult_counts(std::uint64_t* spawned, std::int64_t* live) const {
  std::uint64_t finished = ext_finished_.value();
  for (const auto& w : workers_) finished += w->ults_finished.value();
  std::uint64_t s = ext_spawned_.value();
  for (const auto& w : workers_) s += w->ults_spawned.value();
  *spawned = s;
  *live = s > finished ? static_cast<std::int64_t>(s - finished) : 0;
}

void Runtime::idle_wait(Worker& w) {
  // Register as a sleeper first, then re-check: an enqueue that the re-check
  // misses sees the registration and wakes this nap (EventCount).
  const std::uint32_t key = idle_.prepare_wait();
  if (sched_->has_work() || shutting_down()) {
    idle_.cancel_wait();
    return;
  }
  // Bounded nap: timer signals, packing changes, and shutdown re-check the
  // loop conditions anyway.
  const bool notified = idle_.wait_for(key, 1'000'000 /* 1 ms */);

  // Stack trim: only a runtime that has stayed idle — no live ULT, nothing
  // spawned — across this worker's naps for kTrimQuietNs gives back stacks
  // beyond max_cached_stacks. Trimming in the gap between two fork/join
  // bursts would unmap stacks the next burst maps again.
  std::uint64_t spawned = 0;
  std::int64_t live = 0;
  if (!notified) ult_counts(&spawned, &live);  // a sum over the workers
  if (notified || live != 0 || sched_->has_work()) {
    w.quiet_since_ns = 0;
    return;
  }
  const std::int64_t now = now_ns();
  if (w.quiet_since_ns == 0 || spawned != w.quiet_mark) {
    w.quiet_since_ns = now;
    w.quiet_mark = spawned;
  } else if (now - w.quiet_since_ns >= kTrimQuietNs) {
    stack_pool_.trim(opts_.max_cached_stacks);
  }
}

// ---------------------------------------------------------------------------
// Self-healing: timed waits, deadlines, remediation (docs/robustness.md)
// ---------------------------------------------------------------------------

void Runtime::lower_next_due(std::int64_t when) {
  std::int64_t cur = next_due_.load(std::memory_order_relaxed);
  while (when < cur) {
    if (!next_due_.compare_exchange_weak(cur, when, std::memory_order_seq_cst))
      continue;
    // The service thread publishes its wake time before it reads
    // next_due_ (runtime/timer.hpp), so either it sees `when` or this load
    // sees a wake time that `when` must undercut.
    if (when < service_.wake_ns()) service_.post();
    return;
  }
}

void Runtime::expire_timers(std::int64_t now) {
  if (now < next_due_.load(std::memory_order_acquire)) return;
  // Start over from "nothing due" and only lower from here on: a wait
  // linked, or a deadline armed, behind the scan lowers next_due_ itself
  // (arm_timed_wait, arm_deadline), and that must not be overwritten.
  next_due_.store(ServiceThread::kNever, std::memory_order_release);

  // Due waits are settled in place under their list's lock: a linked waiter
  // cannot return from wait() while we hold it, so its queue stays alive,
  // and settle() only try-locks that queue (the order WaitQueue::wait uses
  // is queue, then list) — a busy queue is simply retried by the next scan.
  // Whoever removes the waiter from its queue owns its requeue; if a
  // notify/handoff got there first, settle() changes nothing.
  ThreadCtl* timed_out = nullptr;  // chain through wq_next, woken below
  std::int64_t next = ServiceThread::kNever;
  for (auto& w : workers_) {
    park::List& list = w->park_list;
    SpinlockGuard g(list.lock);
    for (ThreadCtl* t = list.head; t != nullptr;) {
      ThreadCtl* const after = t->parking.next;  // settle() unlinks t
      const std::int64_t wake_ns = t->parking.deadline;
      // A cancel request makes the wait due immediately: the thread must
      // reach its wakeup cancellation point, not serve out the timeout.
      const bool due =
          wake_ns != 0 &&
          (wake_ns <= now || t->cancel_pending());
      if (due && park::settle(t, WaitResult::kTimedOut)) {
        t->wq_next = timed_out;
        timed_out = t;
      } else if (wake_ns != 0) {
        // Due but not settled: its queue was busy, or a normal waker won
        // and the waiter has yet to unlink — either way, look again in a
        // millisecond (a waiter that is not dispatched yet stays linked).
        next = std::min(next, due ? now + 1'000'000 : wake_ns);
      }
      t = after;
    }
  }
  std::vector<ThreadCtl*> expired;
  {
    SpinlockGuard g(timed_lock_);
    for (std::size_t i = 0; i < deadline_armed_.size();) {
      ThreadCtl* t = deadline_armed_[i];
      if (t->deadline_ns <= now) {
        deadline_busy_.push_back(t);
        expired.push_back(t);
        deadline_armed_[i] = deadline_armed_.back();
        deadline_armed_.pop_back();
      } else {
        if (t->deadline_ns < next) next = t->deadline_ns;
        ++i;
      }
    }
  }
  lower_next_due(next);
  // Timed-wait expiry wake: waker 0 (the timer, not a ULT); the wake edge
  // keeps the primitive kind the waiter parked under (kSleep for sleep_for).
  WaitQueue::wake(timed_out, /*waker=*/0);

  // Deadline expiry always acts — the per-thread deadline is a spawn-time
  // contract, not part of the opt-in watchdog ladder (which gates only the
  // retick/klt_replace rungs).
  for (ThreadCtl* t : expired) {
    t->cancel_requested.store(true, std::memory_order_release);
    int rank = -1;
    for (auto& w : workers_) {
      // Pointer compare only: t may be running, blocked, or finishing.
      if (w->current_ult.load(std::memory_order_acquire) != t) continue;
      rank = w->rank;
      if (w->current_preempt.load(std::memory_order_relaxed) !=
          static_cast<std::uint8_t>(Preempt::None))
        signals::send_preempt(*w, -1);
      break;
    }
    note_remediation(RemediationKind::kCancel, rank,
                     WatchdogReport::Kind::kQuantumOverrun, /*report=*/true);
  }
  if (!expired.empty()) {
    // A victim blocked in a timed wait was not due in this scan's collection
    // pass; re-arm so the next scan wakes it into its cancellation point.
    lower_next_due(0);
    SpinlockGuard g(timed_lock_);
    for (ThreadCtl* t : expired) {
      for (std::size_t i = 0; i < deadline_busy_.size(); ++i) {
        if (deadline_busy_[i] == t) {
          deadline_busy_[i] = deadline_busy_.back();
          deadline_busy_.pop_back();
          break;
        }
      }
    }
  }
}

void Runtime::arm_deadline(ThreadCtl* t, std::int64_t deadline_abs_ns) {
  t->deadline_ns = deadline_abs_ns;
  {
    SpinlockGuard g(timed_lock_);
    deadline_armed_.push_back(t);
  }
  lower_next_due(deadline_abs_ns);
}

void Runtime::disarm_deadline(ThreadCtl* t) {
  if (t->deadline_ns == 0) return;  // never armed: stay off the lock
  for (;;) {
    bool busy = false;
    {
      SpinlockGuard g(timed_lock_);
      for (std::size_t i = 0; i < deadline_armed_.size(); ++i) {
        if (deadline_armed_[i] == t) {
          deadline_armed_[i] = deadline_armed_.back();
          deadline_armed_.pop_back();
          break;
        }
      }
      for (ThreadCtl* b : deadline_busy_)
        if (b == t) busy = true;
    }
    // A scan is still dereferencing t outside the lock; t must stay alive
    // until it drops the busy pin.
    if (!busy) return;
    cpu_pause();
  }
}

bool Runtime::force_replace_worker_klt(Worker& w) {
  return !shutting_down() && hand_off_worker(w, 0);
}

bool Runtime::compensate_syscall_blocked_worker(Worker& w,
                                                std::uint64_t epoch) {
  if (shutting_down() || !opts_.syscall_compensate) return false;
  if ((epoch & 1) == 0) return false;  // only published regions compensate

  // Budget: compensations in flight = activated - reabsorbed - saturated.
  // Beyond the cap the worker stays wedged-but-declared until a prior
  // compensation reconciles — bounded degradation, not an error. No
  // counters move here: nothing was committed.
  const std::uint64_t in_flight = n_syscall_comp_[0].value() -
                                  n_syscall_comp_[1].value() -
                                  n_syscall_comp_[2].value();
  if (in_flight >=
      static_cast<std::uint64_t>(opts_.syscall_max_compensations))
    return false;
  return hand_off_worker(w, epoch);
}

bool Runtime::hand_off_worker(Worker& w, std::uint64_t epoch) {
  KltCtl* old_host = w.current_klt.load(std::memory_order_acquire);
  if (old_host == nullptr) return false;

  // Claim the scheduler context exactly like a suspension primitive would.
  // Success means the tenant has NOT entered the scheduler: when it
  // eventually tries, its own claim fails and it leaves the stranded KLT
  // (detail::leave_klt). Failure means the scheduler owns the context (the
  // worker is not wedged in ULT code) or, for a compensation, the region's
  // exit won the race — nothing to hand off.
  KltCtl* expect = old_host;
  if (!w.host_token.compare_exchange_strong(expect, nullptr,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire))
    return false;

  // A compensation re-validates its epoch *after* owning the token: if the
  // region exited (or a newer one started) since the watchdog's read, it
  // would target a region that no longer exists — hand the token back.
  if (epoch != 0 && w.syscall_epoch.load(std::memory_order_acquire) != epoch) {
    w.host_token.store(old_host, std::memory_order_release);
    return false;
  }

  KltCtl* fresh = klt_pool_.try_pop(w.rank);
  if (fresh == nullptr) fresh = create_klt();
  if (fresh == nullptr) {
    // No KLT to hand the worker to: restore the token so the tenant keeps
    // running normally (a region exit sees itself still the owner) and ask
    // the creator to restock for the next poll's retry. A compensation was
    // committed, so it counts as saturated degradation — activated and
    // saturated move together and the reconciliation identity holds.
    w.host_token.store(old_host, std::memory_order_release);
    if (epoch != 0) {
      n_syscall_comp_[0].add(1);
      n_syscall_comp_[2].add(1);
    }
    if (!klt_creator_.saturated() && !klt_cap_reached())
      klt_creator_.request();
    return false;
  }

  if (epoch != 0) {
    // Commit. Order is load-bearing: the region exit decides "was I
    // compensated?" by compensated_epoch, and concludes "a replacement
    // committed" from current_klt — so compensated_epoch must be visible
    // before the new host is. The old host is NOT retired: it reabsorbs
    // into the KLT pool when its syscall returns.
    n_syscall_comp_[0].add(1);
    w.syscall_compensated_epoch.store(epoch, std::memory_order_release);
    LPT_TRACE_EVENT(trace::EventType::kSyscallCompensate, 0,
                    static_cast<std::uint64_t>(w.rank), epoch);
  } else {
    // The old host is poisoned from the runtime's perspective: it exits at
    // its tenant's next runtime entry and is joined at shutdown.
    note_klt_retired();
    LPT_TRACE_EVENT(trace::EventType::kKltRetired, 0, 0,
                    static_cast<std::uint64_t>(
                        old_host->trace_id >= 0 ? old_host->trace_id : 0));
  }

  // The stranded tenant must not be visible as this worker's current ULT —
  // the new host's scheduler context would otherwise report a thread it does
  // not run (and a directed cancel tick could unwind the wrong victim).
  w.current_ult.store(nullptr, std::memory_order_release);
  w.current_preempt.store(static_cast<std::uint8_t>(Preempt::None),
                          std::memory_order_release);
  fresh->action = KltAction::kBecomeWorker;
  fresh->assign_worker = &w;
  w.current_klt.store(fresh, std::memory_order_release);
  w.current_tid.store(fresh->tid.load(std::memory_order_relaxed),
                      std::memory_order_release);
  fresh->gate.post();
  return true;
}

void Runtime::note_remediation(RemediationKind kind, int worker_rank,
                               WatchdogReport::Kind cause, bool report) {
  const int i = static_cast<int>(kind) - 1;
  if (i < 0 || i >= 4) return;
  n_remediations_[i].add(1);
  LPT_TRACE_EVENT(trace::EventType::kRemediation, 0,
                  static_cast<std::uint64_t>(kind),
                  static_cast<std::uint64_t>(
                      worker_rank >= 0 ? worker_rank : 0));
  if (!report) return;  // the watchdog poll already reports this episode

  // Actions taken outside a watchdog poll (deadline-driven cancels) have no
  // other reporter; synthesize the report the poll would have produced.
  WatchdogReport rep;
  rep.kind = cause;
  rep.worker = worker_rank;
  rep.remediation = kind;
  if (opts_.watchdog_callback) {
    opts_.watchdog_callback(rep);
    return;
  }
  const std::int64_t now = now_ns();
  std::int64_t last = last_remediation_stderr_ns_.load(std::memory_order_relaxed);
  if (now - last < 1'000'000'000 ||
      !last_remediation_stderr_ns_.compare_exchange_strong(
          last, now, std::memory_order_relaxed))
    return;
  std::fprintf(stderr, "[lpt watchdog] remediation %s: worker %d (%s)\n",
               remediation_kind_name(kind), worker_rank,
               watchdog_kind_name(cause));
}

namespace {

/// Page-rounded pool stack size, for "is this stack recyclable" checks.
std::size_t pooled_stack_size(const StackPool& pool) {
  const std::size_t page = 4096;
  return (pool.stack_size() + page - 1) / page * page;
}

}  // namespace

void Runtime::finalize_thread(ThreadCtl* t, Worker* w) {
  LPT_CHECK(t->load_state() == ThreadState::kFinished);
  disarm_deadline(t);
  note_owner_finished(t);  // abandoned-lock scan, before joiners can run
  t->fn = nullptr;  // release captures in scheduler context
  if (w != nullptr)
    w->ults_finished.inc();
  else
    ext_finished_.add(1);

  release_stack(t, w);
  publish_done_and_wake(t);
}

void Runtime::release_stack(ThreadCtl* t, Worker* w) {
  // Sizes are page-rounded, so compare against the rounded pool size.
  if (t->stack.size() == pooled_stack_size(stack_pool_)) {
    stack_pool_.release(std::move(t->stack),
                        w != nullptr ? w->rank : StackPool::kShared);
  } else {
    t->stack = Stack();
  }
}

void Runtime::finalize_failed_thread(ThreadCtl* t, Worker* w) {
  LPT_CHECK(t->load_state() == ThreadState::kFailed);
  // Children running inline on t's stack died with its frames.
  if (t->inline_top != nullptr)
    finalize_inline_chain(t, nullptr, t->fault.kind, w);
  disarm_deadline(t);
  note_owner_finished(t);  // abandoned-lock scan, before joiners can run
  t->fn = nullptr;
  if (w != nullptr)
    w->ults_finished.inc();
  else
    ext_finished_.add(1);

  if (t->stack.valid()) {
    // Sample how deep the thread actually got before it died (resident pages
    // via mincore) — published to joiners through FaultInfo and folded into
    // the runtime-wide high-water mark. A watermark within one page of the
    // guard means a near-overflow even when the fault was something else.
    const std::size_t wm = t->stack.watermark();
    t->fault.stack_watermark = wm;
    std::uint64_t seen = stack_watermark_max_.load(std::memory_order_relaxed);
    while (wm > seen && !stack_watermark_max_.compare_exchange_weak(
                            seen, wm, std::memory_order_relaxed))
      ;
    const std::size_t page = 4096;
    if (wm + page >= t->stack.size() &&
        t->fault.kind != FaultKind::kStackOverflow) {
      n_stack_near_overflow_.fetch_add(1, std::memory_order_relaxed);
      LPT_TRACE_EVENT(trace::EventType::kStackNearOverflow, t->trace_id,
                      static_cast<std::uint64_t>(wm));
    }

    // A failed thread's stack never goes straight back to the free list:
    // quarantine scrubs it and re-asserts the guard mapping (an overflow may
    // have been *through* a guard the kernel already reported once), shedding
    // the stack entirely if the guard cannot be re-established.
    if (t->stack.size() == pooled_stack_size(stack_pool_)) {
      stack_pool_.quarantine(std::move(t->stack));
    } else {
      t->stack = Stack();  // as in finalize_thread
    }
  }

  publish_done_and_wake(t);
}

void Runtime::run_inline(ThreadCtl* self, ThreadCtl* t, Worker* w,
                         std::uint64_t epoch) {
  t->store_state(ThreadState::kRunning);
  if (self->inline_top == nullptr) self->inline_epoch = epoch;
  t->inline_outer = self->inline_top;
  self->inline_top = t;
  // t never runs on its own stack: give it back now, so the next spawn
  // (likely t's own first child) reuses it.
  release_stack(t, w);
  detail::return_worker(w);

  // With the tracer armed the child's acct gets its inline run time, and
  // its joiner's loses it, so per-ULT run times still add up to the time
  // the workers ran ULTs.
  const bool traced = LPT_TRACE_ON();
  std::uint64_t host_before = 0;
  if (traced) {
    host_before = on_cpu_ns(self, trace::now_ns());
    t->acct.ready_ns = 0;  // consumed by this run, not by a dispatch
    trace::emit(trace::EventType::kUltInline, t->trace_id, self->trace_id);
  }

  // A plain call whose site t->ctx keeps, so that a cut-back
  // (detail::cancel_point) returns here too, at depth 0. The child runs
  // preemptibly, as on its own stack.
  self->no_preempt_depth = self->no_preempt_depth - 1;
  context_call(t->ctx, &inline_body, t);
  self->no_preempt_depth = self->no_preempt_depth + 1;

  w = detail::borrow_worker(self);
  // A cut-back to t abandoned every child inlined inside it.
  finalize_inline_chain(self, t, t->fault.kind, w);
  self->inline_top = t->inline_outer;
  t->inline_outer = nullptr;
  if (traced) {
    const std::int64_t now = trace::now_ns();
    t->acct.run_ns += on_cpu_ns(self, now) - host_before;
    self->acct.run_ns = host_before;
    self->acct.run_start_ns = now;
  }
  finalize_inlined(t, t->fault.kind, w);
  detail::return_worker(w);
}

void Runtime::finalize_inline_chain(ThreadCtl* self, ThreadCtl* stop,
                                    FaultKind kind, Worker* w) {
  while (self->inline_top != stop) {
    ThreadCtl* c = self->inline_top;
    self->inline_top = c->inline_outer;
    c->inline_outer = nullptr;
    finalize_inlined(c, kind, w);
  }
}

void Runtime::finalize_inlined(ThreadCtl* t, FaultKind kind, Worker* w) {
  if (kind == FaultKind::kNone)
    t->store_state(ThreadState::kFinished);
  else  // fault counters are atomic, so any worker's will do without one
    detail::record_failure(
        t, kind, (w != nullptr ? w : workers_.front().get())->metrics);
  if (w != nullptr) {
    w->metrics.exits.inc();
    w->ults_finished.inc();
  } else {
    ext_finished_.add(1);
  }
  // Nobody waits on t: its one handle's join is the one that ran it.
  t->done.store(ThreadCtl::kDone, std::memory_order_release);
}

void Runtime::publish_done_and_wake(ThreadCtl* t) {
  // Nothing may dereference t after the joiners lock that publishes kDone
  // is released: the handle owner frees the control block once it has read
  // kDone and passed through that lock (free_joined).
  const bool detached = t->detached;
  const std::uint32_t id = t->trace_id;
  ThreadCtl* joiners;
  std::uint32_t prev;
  {
    SpinlockGuard g(t->joiners.lock());
    prev = t->done.exchange(ThreadCtl::kDone, std::memory_order_acq_rel);
    joiners = t->joiners.take_all();
  }
  // Only a sleeping external joiner needs the kernel. Waking a possibly
  // already-freed futex word is benign: FUTEX_WAKE only looks the address
  // up; loops on the predicate absorb spurious wakes.
  if (prev == ThreadCtl::kJoinerAsleep) futex_wake(&t->done, INT_MAX);
  // The join wake edge names the finished thread as the waker explicitly:
  // this runs in scheduler context (post-exit), where no ULT is current.
  WaitQueue::wake(joiners, id);
  if (detached) delete t;
}

// ---------------------------------------------------------------------------
// Thread handle
// ---------------------------------------------------------------------------

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kStackOverflow: return "stack_overflow";
    case FaultKind::kSegv: return "segv";
    case FaultKind::kBus: return "bus";
    case FaultKind::kException: return "exception";
    case FaultKind::kCancelled: return "cancelled";
    case FaultKind::kDeadlock: return "deadlock";
  }
  return "?";
}

Thread::~Thread() {
  if (ctl_ != nullptr) join();
}

Thread& Thread::operator=(Thread&& o) noexcept {
  if (this != &o) {
    if (ctl_ != nullptr) join();
    ctl_ = o.ctl_;
    o.ctl_ = nullptr;
  }
  return *this;
}

std::uint64_t Thread::preemptions() const {
  LPT_CHECK(ctl_ != nullptr);
  return ctl_->preemptions.load(std::memory_order_relaxed);
}

bool Thread::request_cancel() {
  if (ctl_ == nullptr) return false;
  ThreadCtl* t = ctl_;
  if (t->finished()) return false;
  t->cancel_requested.store(true, std::memory_order_release);
  // A joiner running t inline sees the flag at its next cancellation point.
  if (t->rt != nullptr) t->rt->note_cancel_request();
  // If the target is running right now under a preemptive technique, a
  // directed tick unwinds it promptly even if it never reaches a cancellation
  // point. Under Preempt::None the request stays cooperative by design.
  if (t->preempt != Preempt::None && t->rt != nullptr) {
    for (int r = 0; r < t->rt->num_workers(); ++r) {
      Worker& w = t->rt->worker(r);
      if (w.current_ult.load(std::memory_order_acquire) != t) continue;
      signals::send_preempt(w, -1);
      break;
    }
  }
  // If the target is blocked in a timed wait (sleep_for, join_for, timed
  // acquires), make it due so the next expiry scan wakes it into the
  // cancellation point instead of letting it serve out the timeout.
  if (t->rt != nullptr) t->rt->kick_timers();
  return true;
}

namespace {

/// Current stack pointer of the calling frame.
inline std::uintptr_t stack_pointer() {
  std::uintptr_t sp;
  asm volatile("mov %%rsp, %0" : "=r"(sp));
  return sp;
}

/// Inline join's eligibility (DESIGN.md, "Inline join"), checked before the
/// take: t shares the joiner's preemption technique, has no deadline and no
/// cancel request, faults are not isolated, the joiner holds no tracked lock
/// (an inlined child's waits count as its joiner's, so a child waiting on a
/// lock its joiner holds would make the joiner the deadlock victim), and at
/// least half of the joiner's stack, and of t's own, is free below `sp`. All but the cancel flag are fixed at spawn. t may be running
/// elsewhere while they are read; the take then refuses it (it was
/// dispatched), so the answer goes unused.
bool inline_eligible(const ThreadCtl* self, const ThreadCtl* t,
                     std::uintptr_t sp) {
  const auto base = reinterpret_cast<std::uintptr_t>(self->stack.base());
  const std::uintptr_t free = sp > base ? sp - base : 0;
  return t->preempt == self->preempt && t->deadline_ns == 0 &&
         !t->cancel_requested.load(std::memory_order_acquire) &&
         !self->rt->options().isolate_faults && self->parking.n_held == 0 &&
         free >= self->stack.size() / 2 && free >= t->stack.size() / 2;
}

/// Inline join: when t is ready, eligible, and the newest thread in the
/// queue of self's worker, take it out and run it right here
/// (Runtime::run_inline); true means t has finished. Called under self's
/// no-preempt guard; borrowing the worker keeps a forced KLT replacement out
/// of the take.
bool join_inline(ThreadCtl* self, ThreadCtl* t) {
  if (t->load_state() != ThreadState::kReady) return false;
  Worker* w = detail::borrow_worker(self);
  if (w == nullptr) return false;
  Runtime* rt = w->rt;
  // Read before t's cancel flag: see Runtime::inline_cancel_epoch.
  const std::uint64_t epoch = rt->inline_cancel_epoch();
  if (inline_eligible(self, t, stack_pointer()) &&
      rt->scheduler().take_for_join(*w, t)) {
    rt->run_inline(self, t, w, epoch);
    return true;
  }
  detail::return_worker(w);
  return false;
}

/// One ULT join round: park `self` on t's joiners unless t is already done.
/// `deadline` as for WaitQueue::wait (0 = untimed); the join edge points at
/// t, so join cycles are visible to the deadlock detector. An untimed join
/// outside any NoPreemptGuard may run t inline instead.
WaitResult wait_joined(ThreadCtl* self, ThreadCtl* t, void* site,
                       std::int64_t deadline) {
  LPT_CHECK_MSG(self != t, "thread cannot join itself");
  WaitResult r = WaitResult::kWoken;
  const bool may_inline = deadline == 0 && self->no_preempt_depth == 0;
  detail::begin_no_preempt(self);
  if (!may_inline || !join_inline(self, t)) {
    t->joiners.lock().lock();
    if (!t->finished())
      r = t->joiners.wait(self, prof::WaitKind::kJoin, site, deadline,
                          park::Edge{nullptr, 0, t}, nullptr);
    else
      t->joiners.lock().unlock();
  }
  detail::end_no_preempt(self);  // cancellation point
  return r;
}

/// One external (non-ULT) join round: mark t's done word kJoinerAsleep so
/// the finisher knows to wake it, then sleep on it (at most timeout_ns when
/// > 0). Returns when the word may have changed; callers loop on finished().
void external_join_wait(ThreadCtl* t, std::int64_t timeout_ns) {
  std::uint32_t d = ThreadCtl::kRunning;
  if (!t->done.compare_exchange_strong(d, ThreadCtl::kJoinerAsleep,
                                       std::memory_order_acq_rel) &&
      d == ThreadCtl::kDone)
    return;
  if (timeout_ns > 0)
    futex_wait_timeout(&t->done, ThreadCtl::kJoinerAsleep, timeout_ns);
  else
    futex_wait(&t->done, ThreadCtl::kJoinerAsleep);
}

/// Wait until t has finished: a joining ULT (`self`) parks on t's joiners or
/// runs t inline, an external thread sleeps on t's done word.
void wait_finished(ThreadCtl* self, ThreadCtl* t, void* site) {
  while (!t->finished()) {
    if (self != nullptr)
      wait_joined(self, t, site, 0);
    else
      external_join_wait(t, 0);
  }
}

/// Free a joined control block. The finisher publishes kDone inside the
/// joiners lock; passing through that lock once means it has left the
/// critical section before the memory goes away. A joining ULT (`self`;
/// nullptr for an external thread) does this under its no-preempt guard:
/// a directed-tick cancel landing inside `delete` would abandon the malloc
/// arena lock with the frame, and every kernel thread on that arena would
/// then block for good. Callers clear their handle first, since the
/// guard's exit is a cancellation point.
void free_joined(ThreadCtl* self, ThreadCtl* t) {
  detail::begin_no_preempt(self);
  t->joiners.lock().lock();
  t->joiners.lock().unlock();
  delete t;
  detail::end_no_preempt(self);
}

}  // namespace

bool Thread::join_for(std::chrono::nanoseconds timeout) {
  void* const wait_site = __builtin_return_address(0);
  if (ctl_ == nullptr) return true;  // empty handle: trivially joined
  ThreadCtl* t = ctl_;
  const std::int64_t deadline =
      now_ns() + (timeout.count() > 0 ? timeout.count() : 0);

  ThreadCtl* self = detail::current_ult_or_null();
  while (!t->finished()) {
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) return false;
    if (self == nullptr) {
      external_join_wait(t, left);
    } else if (wait_joined(self, t, wait_site, deadline) ==
                   WaitResult::kTimedOut &&
               !t->finished()) {
      return false;
    }
  }

  ctl_ = nullptr;
  free_joined(self, t);
  return true;
}

ThreadStatus Thread::join_status() {
  void* const wait_site = __builtin_return_address(0);
  // Joining an empty or already-joined handle is a benign no-op (status
  // reads completed == false): spawn failure hands out empty handles, and
  // fault-handling code paths may join defensively.
  if (ctl_ == nullptr) return ThreadStatus{};
  ThreadCtl* t = ctl_;
  ThreadCtl* self = detail::current_ult_or_null();
  wait_finished(self, t, wait_site);

  // The done store published t->fault (release/acquire pair above) and the
  // final lifecycle accounting; copy both out before the control block goes
  // away.
  ThreadStatus st;
  st.completed = true;
  st.fault = t->fault;
  st.acct = t->acct;
  st.preemptions = t->preemptions.load(std::memory_order_relaxed);
  ctl_ = nullptr;
  free_joined(self, t);
  return st;
}

// join_status() minus the status: a join that runs its child inline keeps
// its frame live under the child's, so it stays small.
void Thread::join() {
  void* const wait_site = __builtin_return_address(0);
  if (ctl_ == nullptr) return;
  ThreadCtl* t = ctl_;
  ThreadCtl* self = detail::current_ult_or_null();
  wait_finished(self, t, wait_site);
  ctl_ = nullptr;
  free_joined(self, t);
}

// ---------------------------------------------------------------------------
// this_thread & NoPreemptGuard
// ---------------------------------------------------------------------------

namespace this_thread {

void yield() {
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) return;
  detail::cancel_point(self);
  detail::suspend_yield(self);
}

void sleep_for(std::chrono::nanoseconds d) {
  void* const wait_site = __builtin_return_address(0);
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) {
    if (d.count() <= 0) return;
    timespec ts;
    ts.tv_sec = static_cast<time_t>(d.count() / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(d.count() % 1'000'000'000);
    nanosleep(&ts, nullptr);
    return;
  }
  detail::cancel_point(self);
  if (d.count() <= 0) {
    detail::suspend_yield(self);
    return;
  }
  // A timed wait on a queue nobody else knows: only the expiry scan (or a
  // pending cancel) wakes it.
  const std::int64_t deadline = now_ns() + d.count();
  WaitQueue q;
  detail::begin_no_preempt(self);
  q.lock().lock();
  q.wait(self, prof::WaitKind::kSleep, wait_site, deadline, {}, nullptr);
  detail::end_no_preempt(self);  // cancellation point
}

bool in_ult() { return detail::current_ult_or_null() != nullptr; }

int worker_rank() {
  WorkerTls* tls = worker_tls();
  if (tls->worker == nullptr || !tls->in_ult) return -1;
  return tls->worker->rank;
}

}  // namespace this_thread

NoPreemptGuard::NoPreemptGuard() {
  detail::begin_no_preempt(detail::current_ult_or_null());
}

NoPreemptGuard::~NoPreemptGuard() {
  detail::end_no_preempt(detail::current_ult_or_null());
}

}  // namespace lpt
