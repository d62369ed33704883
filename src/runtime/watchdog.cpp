#include "runtime/watchdog.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/time.hpp"
#include "runtime/instrument.hpp"
#include "runtime/runtime.hpp"
#include "runtime/signals.hpp"

namespace lpt {

const char* watchdog_kind_name(WatchdogReport::Kind k) {
  switch (k) {
    case WatchdogReport::Kind::kRunnableStarvation:
      return "runnable_starvation";
    case WatchdogReport::Kind::kWorkerStall:
      return "worker_stall";
    case WatchdogReport::Kind::kQuantumOverrun:
      return "quantum_overrun";
    case WatchdogReport::Kind::kFaultStorm:
      return "fault_storm";
    case WatchdogReport::Kind::kSyscallBlocked:
      return "syscall_blocked";
    case WatchdogReport::Kind::kDeadlock:
      return "deadlock";
    case WatchdogReport::Kind::kAbandonedLock:
      return "abandoned_lock";
  }
  return "?";
}

const char* remediation_kind_name(RemediationKind k) {
  switch (k) {
    case RemediationKind::kNone: return "none";
    case RemediationKind::kRetick: return "retick";
    case RemediationKind::kCancel: return "cancel";
    case RemediationKind::kKltReplace: return "klt_replace";
    case RemediationKind::kDeadlockBreak: return "deadlock_break";
  }
  return "?";
}

namespace watchdog_detail {

unsigned evaluate_worker(const WorkerObs& obs, const WatchdogLimits& limits,
                         WorkerWatch& w) {
  if (!w.primed) {
    // First observation: establish baselines, judge nothing. Thresholds
    // therefore measure from watchdog start, never from runtime start.
    w.primed = true;
    w.dispatches = obs.dispatches;
    w.dispatch_change_ns = obs.now_ns;
    w.handler_entries = obs.handler_entries;
    w.ticks_at_entry_change = obs.ticks_sent;
    w.depth_zero = obs.queue_depth <= 0;
    w.depth_nonzero_ns = obs.now_ns;
    w.ult_faults = obs.ult_faults;
    return 0;
  }

  // Progress resets: any dispatch clears the starvation/overrun episodes,
  // any handler entry clears the stall episode (and re-baselines the tick
  // count the next stall is measured against).
  if (obs.dispatches != w.dispatches) {
    w.dispatches = obs.dispatches;
    w.dispatch_change_ns = obs.now_ns;
    w.starve_flagged = false;
    w.overrun_flagged = false;
  }
  if (obs.handler_entries != w.handler_entries) {
    w.handler_entries = obs.handler_entries;
    w.ticks_at_entry_change = obs.ticks_sent;
    w.stall_flagged = false;
  }
  if (obs.queue_depth > 0) {
    if (w.depth_zero) {
      w.depth_zero = false;
      w.depth_nonzero_ns = obs.now_ns;
    }
  } else {
    w.depth_zero = true;
    w.starve_flagged = false;
  }

  // "No dispatch since the previous poll" — 0 whenever the worker is
  // churning, so every check below is vacuous on a healthy worker.
  const std::int64_t frozen_ns = obs.now_ns - w.dispatch_change_ns;
  unsigned flags = 0;

  // (e) Declared blocking syscall (docs/robustness.md): the guard *told* us
  // this worker is wedged in the kernel, so starvation/stall/overrun below
  // are suppressed — they would misdiagnose the wedge and force-replace a
  // host that the reabsorption protocol handles loss-free. One flag per
  // region instance (epoch), raised once the grace period has run out.
  if (obs.in_syscall) {
    if (limits.syscall_grace_ns > 0 &&
        obs.syscall_age_ns >= limits.syscall_grace_ns &&
        obs.syscall_epoch != w.syscall_epoch_flagged) {
      w.syscall_epoch_flagged = obs.syscall_epoch;
      flags |= kFlagSyscallBlocked;
    }
  } else {
    w.syscall_epoch_flagged = 0;
  }

  // (a) Runnable starvation: queued work behind a frozen worker. The age is
  // capped by how long the queue has been non-empty, so work enqueued onto
  // an already-long-idle worker is not flagged before its own wait exceeds
  // the threshold.
  if (limits.runnable_ns > 0 && obs.queue_depth > 0 && !obs.parked &&
      !obs.in_syscall && !w.starve_flagged) {
    const std::int64_t age =
        std::min(frozen_ns, obs.now_ns - w.depth_nonzero_ns);
    if (age >= limits.runnable_ns) {
      w.starve_flagged = true;
      flags |= kFlagRunnableStarvation;
    }
  }

  // (b) Worker stall: ticks keep being sent at a preemptible ULT but the
  // handler never runs. Requires a frozen worker — a churning worker's
  // entries lag ticks legitimately (signals landing in scheduler context
  // are absorbed without an entry).
  if (limits.stall_ticks > 0 && obs.preemptible_running && !obs.parked &&
      !obs.in_syscall && frozen_ns > 0 && !w.stall_flagged) {
    const std::uint64_t unanswered = obs.ticks_sent - w.ticks_at_entry_change;
    if (unanswered >= limits.stall_ticks) {
      w.stall_flagged = true;
      flags |= kFlagWorkerStall;
    }
  }

  // (c) Quantum overrun: preemption fires (or should) yet one preemptible
  // ULT has held the worker far past its quantum.
  if (limits.quantum_ns > 0 && obs.preemptible_running && !obs.parked &&
      !obs.in_syscall && frozen_ns >= limits.quantum_ns &&
      !w.overrun_flagged) {
    w.overrun_flagged = true;
    flags |= kFlagQuantumOverrun;
  }

  // (d) Fault storm: fault isolation terminated storm_faults or more ULTs on
  // this worker within one poll period. Unlike the other checks this is a
  // *rate* judgment on a counter delta — containment keeps the process up,
  // the watchdog makes sure a systemic failure cannot hide behind it. The
  // episode latch clears on any fault-free poll.
  const std::uint64_t new_faults = obs.ult_faults - w.ult_faults;
  w.ult_faults = obs.ult_faults;
  if (new_faults == 0) {
    w.storm_flagged = false;
  } else if (limits.storm_faults > 0 && new_faults >= limits.storm_faults &&
             !w.storm_flagged) {
    w.storm_flagged = true;
    flags |= kFlagFaultStorm;
  }
  return flags;
}

}  // namespace watchdog_detail

void Watchdog::start(Runtime& rt) {
  using watchdog_detail::WorkerWatch;
  rt_ = &rt;
  const RuntimeOptions& o = rt.options();
  period_ns_ = o.watchdog_period_ms > 0 ? o.watchdog_period_ms * 1'000'000
                                        : 100'000'000;
  limits_.runnable_ns = o.watchdog_runnable_ns;
  // The tick-driven checks only make sense with a preemption timer armed;
  // under PosixPerWorker the kernel delivers directly and ticks_sent never
  // advances, which disables the stall check arithmetic on its own.
  const bool timer_armed = o.timer != TimerKind::None;
  limits_.quantum_ns = timer_armed && o.watchdog_quantum_factor > 0
                           ? o.watchdog_quantum_factor * o.interval_us * 1000
                           : 0;
  limits_.stall_ticks = timer_armed && o.watchdog_stall_ticks > 0
                            ? static_cast<std::uint64_t>(o.watchdog_stall_ticks)
                            : 0;
  limits_.storm_faults =
      o.watchdog_fault_storm > 0
          ? static_cast<std::uint64_t>(o.watchdog_fault_storm)
          : 0;
  // The wedge sentinel needs no timer: the guard publishes its own
  // timestamps. Detection stays armed even with compensation off, so the
  // flag still lands in metrics/reports as a diagnosis.
  limits_.syscall_grace_ns = o.syscall_grace_ns > 0 ? o.syscall_grace_ns : 0;
  watch_.assign(static_cast<std::size_t>(rt.num_workers()), WorkerWatch{});
  checks_.store(0, std::memory_order_relaxed);
  for (auto& f : flags_) f.store(0, std::memory_order_relaxed);
  last_accrue_ns_ = now_ns();
  next_poll_ns_ = last_accrue_ns_ + period_ns_;
  for (auto& t : last_stderr_ns_) t = 0;
  remediate_ = o.remediation;
  remediate_budget_ = 0;
  // Deadlock-detection cadence, in watchdog periods (LPT_DEADLOCK_PERIODS).
  deadlock_every_ = o.deadlock_periods > 0 ? o.deadlock_periods : 1;
  deadlock_tick_ = 0;
}

void Watchdog::tick(std::int64_t now) {
  if (rt_ == nullptr) return;

  // Sampled time-in-state: attribute the elapsed wall time to whichever
  // state each worker advertises right now. Resolution is the service
  // thread's cadence (at least once per watchdog period); hot paths pay
  // only the state-marker store.
  const std::int64_t delta = now - last_accrue_ns_;
  if (delta > 0) {
    last_accrue_ns_ = now;
    const int n = rt_->num_workers();
    for (int r = 0; r < n; ++r) {
      metrics::WorkerMetrics& m = rt_->worker(r).metrics;
      const std::uint8_t st = m.state.load(std::memory_order_relaxed);
      if (st < metrics::kWorkerStateCount)
        m.time_in_state_ns[st].inc(static_cast<std::uint64_t>(delta));
    }
  }

  if (now >= next_poll_ns_) {
    next_poll_ns_ = now + period_ns_;
    poll(now);
  }
}

void Watchdog::poll(std::int64_t now) {
  using namespace watchdog_detail;
  // Remediation ladder budget (docs/robustness.md): at most
  // remediate_max_per_period actions per poll, bounding the blast radius of
  // a misconfigured ladder.
  remediate_budget_ = remediate_ ? rt_->options().remediate_max_per_period : 0;
  const int n = rt_->num_workers();
  for (int r = 0; r < n; ++r) {
    Worker& w = rt_->worker(r);
    WorkerObs obs;
    obs.now_ns = now;
    obs.dispatches = w.metrics.dispatches.value();
    obs.ticks_sent = w.metrics.ticks_sent.value();
    obs.handler_entries = w.metrics.handler_entries.value();
    obs.queue_depth = rt_->scheduler().queue_depth(r);
    obs.ult_faults = w.metrics.ult_faults.value();
    // A worker with no host KLT yet (startup) is as unjudgeable as a
    // packing-parked one.
    obs.parked = w.parked.load(std::memory_order_relaxed) ||
                 w.current_klt.load(std::memory_order_acquire) == nullptr;
    obs.preemptible_running =
        w.current_preempt.load(std::memory_order_relaxed) !=
        static_cast<std::uint8_t>(Preempt::None);
    // Consistent (epoch, entry-timestamp) read: the timestamp is only valid
    // while the epoch is odd, so re-check the epoch after reading it.
    const std::uint64_t sys_epoch =
        w.syscall_epoch.load(std::memory_order_acquire);
    if ((sys_epoch & 1) != 0) {
      const std::int64_t enter =
          w.syscall_enter_ns.load(std::memory_order_relaxed);
      if (w.syscall_epoch.load(std::memory_order_acquire) == sys_epoch &&
          enter != 0) {
        obs.in_syscall = true;
        obs.syscall_age_ns = now - enter;
        obs.syscall_epoch = sys_epoch;
      }
    }

    WorkerWatch& watch = watch_[r];
    const unsigned flags = evaluate_worker(obs, limits_, watch);
    if (flags == 0) continue;

    const std::int64_t frozen_ns = now - watch.dispatch_change_ns;
    if (flags & kFlagRunnableStarvation) {
      WatchdogReport rep;
      rep.kind = WatchdogReport::Kind::kRunnableStarvation;
      rep.worker = r;
      rep.age_ns = std::min(frozen_ns, now - watch.depth_nonzero_ns);
      rep.queue_depth = obs.queue_depth;
      report(rep);
    }
    if (flags & kFlagWorkerStall) {
      WatchdogReport rep;
      rep.kind = WatchdogReport::Kind::kWorkerStall;
      rep.worker = r;
      rep.age_ns = frozen_ns;
      rep.queue_depth = obs.queue_depth;
      rep.ticks_without_handler = obs.ticks_sent - watch.ticks_at_entry_change;
      // Ladder rung 2: the handler is unreachable (blocked mask / lost
      // timer), so signals cannot help — force the worker onto a fresh host
      // KLT; the wedged tenant is orphaned and cancelled at its next runtime
      // entry. On failure the episode latch is cleared so the next poll
      // retries instead of waiting for progress that cannot happen.
      if (remediate_budget_ > 0) {
        --remediate_budget_;
        if (rt_->force_replace_worker_klt(w)) {
          rep.remediation = RemediationKind::kKltReplace;
          rt_->note_remediation(RemediationKind::kKltReplace, r, rep.kind);
        } else {
          watch.stall_flagged = false;
        }
      }
      report(rep);
    }
    if (flags & kFlagQuantumOverrun) {
      WatchdogReport rep;
      rep.kind = WatchdogReport::Kind::kQuantumOverrun;
      rep.worker = r;
      rep.age_ns = frozen_ns;
      rep.queue_depth = obs.queue_depth;
      // Ladder rung 1: the tick that should have bounded this quantum was
      // lost or coalesced — send a directed re-tick. The latch is cleared so
      // a still-frozen worker re-arms the check next period (budget-capped)
      // rather than overrunning silently forever.
      if (remediate_budget_ > 0) {
        --remediate_budget_;
        signals::send_preempt(w, -1);
        rep.remediation = RemediationKind::kRetick;
        rt_->note_remediation(RemediationKind::kRetick, r, rep.kind);
        watch.overrun_flagged = false;
      }
      report(rep);
    }
    if (flags & kFlagFaultStorm) {
      WatchdogReport rep;
      rep.kind = WatchdogReport::Kind::kFaultStorm;
      rep.worker = r;
      rep.age_ns = period_ns_;
      rep.queue_depth = obs.queue_depth;
      report(rep);
    }
    if (flags & kFlagSyscallBlocked) {
      WatchdogReport rep;
      rep.kind = WatchdogReport::Kind::kSyscallBlocked;
      rep.worker = r;
      rep.age_ns = obs.syscall_age_ns;
      rep.queue_depth = obs.queue_depth;
      // Compensation is budgeted inside the runtime (max concurrent
      // compensations), not against the remediation ladder budget — a
      // wedged syscall is declared, bounded degradation, not an escalation.
      // On failure (budget, lost race, no KLT) clear the epoch latch so the
      // next poll retries while the region is still wedged.
      if (rt_->options().syscall_compensate &&
          !rt_->compensate_syscall_blocked_worker(w, obs.syscall_epoch))
        watch.syscall_epoch_flagged = 0;
      report(rep);
    }
  }
  // Deadlock detection (docs/robustness.md): walk the parking registry's
  // waits-for graph every deadlock_every_ polls. Confirmed cycles are broken
  // inside deadlock_poll against the same per-period ladder budget
  // (RemediationKind::kDeadlockBreak); with remediation off the detector
  // still diagnoses (flag + trace + callback), it just cannot act.
  if (++deadlock_tick_ >= deadlock_every_) {
    deadlock_tick_ = 0;
    rt_->deadlock_poll(this, remediate_ ? &remediate_budget_ : nullptr);
  }
  checks_.fetch_add(1, std::memory_order_relaxed);
}

void Watchdog::report(const WatchdogReport& r) {
  flags_[static_cast<int>(r.kind)].fetch_add(1, std::memory_order_relaxed);
  LPT_TRACE_EVENT(trace::EventType::kWatchdogFlag, 0,
                  static_cast<std::uint64_t>(r.kind),
                  static_cast<std::uint64_t>(r.worker));
  if (rt_->options().watchdog_callback) {
    rt_->options().watchdog_callback(r);
    return;
  }
  // Default sink: one stderr line per second at most, rate-limited per flag
  // kind — a starving runtime flags every period and must not flood the
  // application's logs, but one noisy kind must not silence the others.
  const std::int64_t now = now_ns();
  std::int64_t& last = last_stderr_ns_[static_cast<int>(r.kind)];
  if (now - last < 1'000'000'000) return;
  last = now;
  if (r.kind == WatchdogReport::Kind::kDeadlock) {
    // Cycle members are ULT trace ids, not workers — name the full cycle.
    char cyc[WatchdogReport::kMaxCycle * 16];
    std::size_t off = 0;
    for (int i = 0; i < r.cycle_len && off + 16 < sizeof(cyc); ++i)
      off += static_cast<std::size_t>(std::snprintf(
          cyc + off, sizeof(cyc) - off, "%s%" PRIu32, i == 0 ? "" : " -> ",
          r.cycle[i]));
    cyc[off] = '\0';
    std::fprintf(stderr,
                 "[lpt watchdog] deadlock: cycle [%s] (%d ULTs), victim %" PRIu32
                 "%s%s\n",
                 cyc, r.cycle_len, r.victim,
                 r.remediation != RemediationKind::kNone ? ", remediated: " : "",
                 r.remediation != RemediationKind::kNone
                     ? remediation_kind_name(r.remediation)
                     : "");
    return;
  }
  if (r.kind == WatchdogReport::Kind::kAbandonedLock) {
    std::fprintf(stderr,
                 "[lpt watchdog] abandoned_lock: ULT %" PRIu32
                 " ended while holding a lock%s\n",
                 r.cycle_len > 0 ? r.cycle[0] : 0,
                 r.victim != 0 ? " (force-released)" : "");
    return;
  }
  std::fprintf(stderr,
               "[lpt watchdog] %s: worker %d stuck for %.0f ms "
               "(queue depth %" PRId64 ", %" PRIu64 " unanswered ticks%s%s)\n",
               watchdog_kind_name(r.kind), r.worker,
               static_cast<double>(r.age_ns) / 1e6, r.queue_depth,
               r.ticks_without_handler,
               r.remediation != RemediationKind::kNone ? ", remediated: " : "",
               r.remediation != RemediationKind::kNone
                   ? remediation_kind_name(r.remediation)
                   : "");
}

// ---------------------------------------------------------------------------
// MetricsPublisher
// ---------------------------------------------------------------------------

void MetricsPublisher::start(Runtime& rt) {
  rt_ = &rt;
  format_ = metrics::format_for_path(rt.options().metrics_file);
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { thread_loop(); });
}

void MetricsPublisher::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  gate_.post();
  thread_.join();
  // Final rewrite after the join: the destructor calls stop() once all ULT
  // work has quiesced, so the file left behind holds the run's final totals.
  publish_once();
}

void MetricsPublisher::publish_once() {
  // Atomic replacement: scrapers (and the check.sh smoke) must never read a
  // torn file, so write a sibling tmp file and rename over the target.
  const std::string& file = rt_->options().metrics_file;
  const std::string tmp = file + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  rt_->write_metrics(f, format_);
  std::fclose(f);
  std::rename(tmp.c_str(), file.c_str());

  // Continuous profiling: when the profiler is armed with an output file,
  // refresh it on the same cadence (write_profile is atomic the same way),
  // so a long-running process exposes a live profile next to its metrics.
  if (rt_->prof_enabled() && !rt_->prof_config().file.empty())
    rt_->write_profile(rt_->prof_config().file);
}

void MetricsPublisher::thread_loop() {
  signals::block_runtime_signals();
  const std::int64_t period_ns = rt_->options().metrics_period_ms * 1'000'000;
  publish_once();  // a scrape target exists as soon as the runtime does
  for (;;) {
    gate_.wait_for(period_ns);
    if (stop_.load(std::memory_order_acquire)) return;
    publish_once();
  }
}

}  // namespace lpt
