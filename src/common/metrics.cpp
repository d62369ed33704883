#include "common/metrics.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "common/env.hpp"

namespace lpt::metrics {

const char* worker_state_name(WorkerState s) {
  switch (s) {
    case WorkerState::kScheduling: return "scheduling";
    case WorkerState::kRunningUlt: return "running";
    case WorkerState::kIdle: return "idle";
    case WorkerState::kParked: return "parked";
  }
  return "?";
}

WorkerSample WorkerMetrics::sample() const {
  WorkerSample s;
  s.dispatches = dispatches.value();
  s.yields = yields.value();
  s.blocks = blocks.value();
  s.exits = exits.value();
  s.steals = steals.value();
  s.preempt_signal_yield = preempt_signal_yield.value();
  s.preempt_klt_switch = preempt_klt_switch.value();
  s.ticks_sent = ticks_sent.value();
  s.handler_entries = handler_entries.value();
  s.handler_deferred = handler_deferred.value();
  s.klt_degraded_ticks = klt_degraded_ticks.value();
  s.ult_faults = ult_faults.value();
  s.stack_overflows = stack_overflows.value();
  s.escaped_exceptions = escaped_exceptions.value();
  s.ult_cancels = ult_cancels.value();
  s.syscall_blocks = syscall_blocks.value();
  for (int i = 0; i < kWorkerStateCount; ++i)
    s.time_in_state_ns[i] = time_in_state_ns[i].value();
  s.state = state.load(std::memory_order_relaxed);
  return s;
}

void Snapshot::finalize() {
  dispatches = yields = blocks = exits = steals = 0;
  preempt_signal_yield = preempt_klt_switch = preemptions = 0;
  ticks_sent = handler_entries = handler_deferred = klt_degraded_ticks = 0;
  ult_faults = stack_overflows = escaped_exceptions = ult_cancels = 0;
  syscall_blocks = 0;
  run_queue_depth = 0;
  for (const WorkerSample& w : workers) {
    dispatches += w.dispatches;
    yields += w.yields;
    blocks += w.blocks;
    exits += w.exits;
    steals += w.steals;
    preempt_signal_yield += w.preempt_signal_yield;
    preempt_klt_switch += w.preempt_klt_switch;
    ticks_sent += w.ticks_sent;
    handler_entries += w.handler_entries;
    handler_deferred += w.handler_deferred;
    klt_degraded_ticks += w.klt_degraded_ticks;
    ult_faults += w.ult_faults;
    stack_overflows += w.stack_overflows;
    escaped_exceptions += w.escaped_exceptions;
    ult_cancels += w.ult_cancels;
    syscall_blocks += w.syscall_blocks;
    run_queue_depth += w.queue_depth;
  }
  preemptions = preempt_signal_yield + preempt_klt_switch;
}

namespace {

void prom_family(std::FILE* out, const char* name, const char* type,
                 const char* help) {
  std::fprintf(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
}

void prom_u64(std::FILE* out, const char* name, std::uint64_t v) {
  std::fprintf(out, "%s %" PRIu64 "\n", name, v);
}

void prom_i64(std::FILE* out, const char* name, std::int64_t v) {
  std::fprintf(out, "%s %" PRId64 "\n", name, v);
}

/// One per-worker series: `name{worker="r"} v`.
void prom_worker_u64(std::FILE* out, const char* name, int rank,
                     std::uint64_t v) {
  std::fprintf(out, "%s{worker=\"%d\"} %" PRIu64 "\n", name, rank, v);
}

/// One pool's log2 latency histogram as a native Prometheus histogram:
/// cumulative `_bucket{pool="r",le="..."}` series (one per log2 bucket up to
/// the highest non-empty one, then `+Inf`), plus exact `_sum` (seconds, from
/// HistSnapshot::sum_ns) and `_count`. Exact by construction — every bucket
/// is an exported integer and sum_ns is accumulated, not reconstructed — so
/// tests/tools/trace_check can reconcile these against per-ULT accounting.
void prom_histogram_pool(std::FILE* out, const char* name, int pool,
                         const trace::HistSnapshot& h) {
  std::uint64_t cum = 0;
  int top = -1;
  for (int b = 0; b < trace::HistSnapshot::kBuckets; ++b)
    if (h.buckets[b] != 0) top = b;
  for (int b = 0; b <= top; ++b) {
    cum += h.buckets[b];
    // Bucket 1 is a structural hole (values 0 and 1 both land in bucket 0,
    // which already spans [0, 2)): emitting it would duplicate le="2".
    if (b + 1 <= top && trace::HistSnapshot::bucket_ceil_ns(b + 1) ==
                            trace::HistSnapshot::bucket_ceil_ns(b))
      continue;
    std::fprintf(out, "%s_bucket{pool=\"%d\",le=\"%" PRId64 "\"} %" PRIu64 "\n",
                 name, pool, trace::HistSnapshot::bucket_ceil_ns(b), cum);
  }
  std::fprintf(out, "%s_bucket{pool=\"%d\",le=\"+Inf\"} %" PRIu64 "\n", name,
               pool, cum);
  // The family's unit is ns (the _ns suffix), so _sum is integral ns, not
  // Prometheus-conventional seconds — keeping every series an exact integer.
  std::fprintf(out, "%s_sum{pool=\"%d\"} %" PRIu64 "\n", name, pool, h.sum_ns);
  std::fprintf(out, "%s_count{pool=\"%d\"} %" PRIu64 "\n", name, pool, cum);
}

}  // namespace

void write_prometheus(std::FILE* out, const Snapshot& s) {
  prom_family(out, "lpt_uptime_seconds", "gauge",
              "Seconds since Runtime construction.");
  std::fprintf(out, "lpt_uptime_seconds %.3f\n",
               static_cast<double>(s.uptime_ns) / 1e9);

  prom_family(out, "lpt_workers", "gauge", "Configured worker count.");
  prom_i64(out, "lpt_workers", s.num_workers);
  prom_family(out, "lpt_active_workers", "gauge",
              "Workers not parked by thread packing.");
  prom_i64(out, "lpt_active_workers", s.active_workers);

  struct PerWorkerFamily {
    const char* name;
    const char* help;
    std::uint64_t WorkerSample::*field;
  };
  static const PerWorkerFamily kFamilies[] = {
      {"lpt_dispatches_total", "ULTs switched into by this worker.",
       &WorkerSample::dispatches},
      {"lpt_yields_total", "Voluntary yields processed.",
       &WorkerSample::yields},
      {"lpt_blocks_total", "ULT suspensions on sync primitives.",
       &WorkerSample::blocks},
      {"lpt_exits_total", "ULT completions processed.", &WorkerSample::exits},
      {"lpt_steals_total", "ULTs stolen from a remote run queue.",
       &WorkerSample::steals},
      {"lpt_preempt_ticks_sent_total",
       "Preemption signals sent toward this worker.",
       &WorkerSample::ticks_sent},
      {"lpt_preempt_handler_entries_total",
       "Preemption handler entries that found a preemptible ULT.",
       &WorkerSample::handler_entries},
      {"lpt_preempt_handler_deferred_total",
       "Handler entries deferred by a NoPreemptGuard.",
       &WorkerSample::handler_deferred},
      {"lpt_klt_degraded_ticks_total",
       "KLT-switch ticks degraded to deferred handling (pool exhausted).",
       &WorkerSample::klt_degraded_ticks},
      {"lpt_ult_faults_total",
       "ULTs terminated by fault isolation (overflow/segv/bus/exception).",
       &WorkerSample::ult_faults},
      {"lpt_stack_overflows_total",
       "Guard-page stack overflows contained by fault isolation.",
       &WorkerSample::stack_overflows},
      {"lpt_escaped_exceptions_total",
       "ULTs terminated by the exception firewall.",
       &WorkerSample::escaped_exceptions},
      {"lpt_ult_cancels_total",
       "ULTs terminated by request_cancel() or deadline expiry.",
       &WorkerSample::ult_cancels},
      {"lpt_syscall_blocks_total",
       "Annotated blocking-syscall regions entered (lpt::io).",
       &WorkerSample::syscall_blocks},
  };
  for (const PerWorkerFamily& f : kFamilies) {
    prom_family(out, f.name, "counter", f.help);
    for (const WorkerSample& w : s.workers)
      prom_worker_u64(out, f.name, w.rank, w.*(f.field));
  }

  prom_family(out, "lpt_preemptions_total",
              "counter", "Completed preemptions by mechanism.");
  for (const WorkerSample& w : s.workers) {
    std::fprintf(out,
                 "lpt_preemptions_total{worker=\"%d\",kind=\"signal_yield\"} "
                 "%" PRIu64 "\n",
                 w.rank, w.preempt_signal_yield);
    std::fprintf(out,
                 "lpt_preemptions_total{worker=\"%d\",kind=\"klt_switch\"} "
                 "%" PRIu64 "\n",
                 w.rank, w.preempt_klt_switch);
  }

  prom_family(out, "lpt_run_queue_depth", "gauge",
              "Runnable ULTs queued per worker at scrape time.");
  for (const WorkerSample& w : s.workers)
    std::fprintf(out, "lpt_run_queue_depth{worker=\"%d\"} %" PRId64 "\n",
                 w.rank, w.queue_depth);

  prom_family(out, "lpt_worker_time_in_state_seconds_total", "counter",
              "Sampled wall time per worker state (watchdog-tick resolution).");
  for (const WorkerSample& w : s.workers)
    for (int i = 0; i < kWorkerStateCount; ++i)
      std::fprintf(
          out,
          "lpt_worker_time_in_state_seconds_total{worker=\"%d\",state=\"%s\"} "
          "%.3f\n",
          w.rank, worker_state_name(static_cast<WorkerState>(i)),
          static_cast<double>(w.time_in_state_ns[i]) / 1e9);

  prom_family(out, "lpt_ults_spawned_total", "counter", "ULTs ever spawned.");
  prom_u64(out, "lpt_ults_spawned_total", s.ults_spawned);
  prom_family(out, "lpt_ults_live", "gauge",
              "ULTs spawned but not yet finished.");
  prom_i64(out, "lpt_ults_live", s.ults_live);

  prom_family(out, "lpt_klts_created_total", "counter",
              "Kernel-level threads ever created.");
  prom_u64(out, "lpt_klts_created_total", s.klts_created);
  prom_family(out, "lpt_klts_on_demand_total", "counter",
              "KLTs created on demand (pool miss).");
  prom_u64(out, "lpt_klts_on_demand_total", s.klts_on_demand);
  prom_family(out, "lpt_klt_create_failures_total", "counter",
              "KLT creation attempts that failed.");
  prom_u64(out, "lpt_klt_create_failures_total", s.klt_create_failures);
  prom_family(out, "lpt_klt_pool_idle", "gauge",
              "Parked spare KLTs available for KLT-switching.");
  prom_i64(out, "lpt_klt_pool_idle", s.klt_pool_idle);

  prom_family(out, "lpt_stack_pool_cached", "gauge",
              "ULT stacks cached in the stack pool.");
  prom_u64(out, "lpt_stack_pool_cached", s.stacks_cached);
  prom_family(out, "lpt_stacks_shed_total", "counter",
              "Cached stacks shed under memory pressure.");
  prom_u64(out, "lpt_stacks_shed_total", s.stacks_shed);
  prom_family(out, "lpt_spawn_stack_failures_total", "counter",
              "spawn() refusals after stack allocation failed.");
  prom_u64(out, "lpt_spawn_stack_failures_total", s.spawn_stack_failures);
  prom_family(out, "lpt_klts_retired_total", "counter",
              "Poisoned KLTs retired after a contained fault.");
  prom_u64(out, "lpt_klts_retired_total", s.klts_retired);
  prom_family(out, "lpt_stacks_quarantined_total", "counter",
              "Faulted ULT stacks scrubbed and re-guarded.");
  prom_u64(out, "lpt_stacks_quarantined_total", s.stacks_quarantined);
  prom_family(out, "lpt_stack_near_overflows_total", "counter",
              "Stack releases with a watermark within a page of the guard.");
  prom_u64(out, "lpt_stack_near_overflows_total", s.stack_near_overflows);
  prom_family(out, "lpt_stack_watermark_max_bytes", "gauge",
              "Deepest sampled ULT stack use since startup.");
  prom_u64(out, "lpt_stack_watermark_max_bytes", s.stack_watermark_max);
  prom_family(out, "lpt_stack_size_bytes", "gauge",
              "Effective default ULT stack size (after LPT_STACK_SIZE).");
  prom_u64(out, "lpt_stack_size_bytes", s.stack_size_bytes);

  prom_family(out, "lpt_posix_timer_fallbacks_total", "counter",
              "Per-worker POSIX timers degraded to monitor delivery.");
  prom_u64(out, "lpt_posix_timer_fallbacks_total", s.posix_timer_fallbacks);
  prom_family(out, "lpt_faults_injected_total", "counter",
              "Faults injected by the LPT_FAULT harness.");
  prom_u64(out, "lpt_faults_injected_total", s.faults_injected);

  prom_family(out, "lpt_watchdog_checks_total", "counter",
              "Watchdog poll passes completed.");
  prom_u64(out, "lpt_watchdog_checks_total", s.watchdog_checks);
  prom_family(out, "lpt_watchdog_flags_total", "counter",
              "Watchdog flag episodes by kind.");
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"runnable_starvation\"} %" PRIu64
               "\n",
               s.watchdog_runnable_starvation);
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"worker_stall\"} %" PRIu64 "\n",
               s.watchdog_worker_stall);
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"quantum_overrun\"} %" PRIu64
               "\n",
               s.watchdog_quantum_overrun);
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"fault_storm\"} %" PRIu64 "\n",
               s.watchdog_fault_storm);
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"syscall_blocked\"} %" PRIu64
               "\n",
               s.watchdog_syscall_blocked);
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"deadlock\"} %" PRIu64 "\n",
               s.watchdog_deadlock);
  std::fprintf(out,
               "lpt_watchdog_flags_total{kind=\"abandoned_lock\"} %" PRIu64
               "\n",
               s.watchdog_abandoned_lock);
  prom_family(out, "lpt_remediations_total", "counter",
              "Self-healing remediation actions taken, by kind.");
  std::fprintf(out, "lpt_remediations_total{kind=\"retick\"} %" PRIu64 "\n",
               s.remediations_retick);
  std::fprintf(out, "lpt_remediations_total{kind=\"cancel\"} %" PRIu64 "\n",
               s.remediations_cancel);
  std::fprintf(out,
               "lpt_remediations_total{kind=\"klt_replace\"} %" PRIu64 "\n",
               s.remediations_klt_replace);
  std::fprintf(out,
               "lpt_remediations_total{kind=\"deadlock_break\"} %" PRIu64 "\n",
               s.remediations_deadlock_break);
  prom_family(out, "lpt_deadlock_cycles_total", "counter",
              "Deadlock cycles confirmed by the detector "
              "(== deadlock_break remediations + self deadlocks "
              "when remediation is on).");
  prom_u64(out, "lpt_deadlock_cycles_total", s.deadlock_cycles);
  prom_family(out, "lpt_self_deadlocks_total", "counter",
              "Self-deadlocks caught synchronously at lock().");
  prom_u64(out, "lpt_self_deadlocks_total", s.self_deadlocks);
  prom_family(out, "lpt_abandoned_locks_total", "counter",
              "ULTs that ended while still holding a tracked lock.");
  prom_u64(out, "lpt_abandoned_locks_total", s.abandoned_locks);
  prom_family(out, "lpt_abandoned_released_total", "counter",
              "Abandoned locks force-released (LPT_ABANDON_RELEASE).");
  prom_u64(out, "lpt_abandoned_released_total", s.abandoned_released);
  prom_family(out, "lpt_parked_waiters", "gauge",
              "ULTs registered in the parking registry at scrape time.");
  prom_i64(out, "lpt_parked_waiters", s.parked_waiters);
  prom_family(out, "lpt_syscall_compensations_total", "counter",
              "Wedge-sentinel compensation outcomes "
              "(activated == reabsorbed + saturated after quiescing).");
  std::fprintf(out,
               "lpt_syscall_compensations_total{outcome=\"activated\"} %" PRIu64
               "\n",
               s.syscall_comp_activated);
  std::fprintf(
      out,
      "lpt_syscall_compensations_total{outcome=\"reabsorbed\"} %" PRIu64 "\n",
      s.syscall_comp_reabsorbed);
  std::fprintf(
      out,
      "lpt_syscall_compensations_total{outcome=\"saturated\"} %" PRIu64 "\n",
      s.syscall_comp_saturated);

  prom_family(out, "lpt_trace_events_total", "counter",
              "Events recorded by the tracer (0 when tracing is off).");
  prom_u64(out, "lpt_trace_events_total", s.trace_events);
  prom_family(out, "lpt_trace_dropped_total", "counter",
              "Events dropped by full trace rings.");
  prom_u64(out, "lpt_trace_dropped_total", s.trace_dropped);

  // Causal scheduling-delay histograms (tracer pass-through; absent when
  // tracing is off so scrapes stay small on untraced runs).
  if (!s.pool_sched_delay_ns.empty()) {
    prom_family(out, "lpt_sched_delay_ns", "histogram",
                "Ready to dispatch scheduling delay per pool, ns (log2 "
                "buckets; tracing only).");
    for (std::size_t r = 0; r < s.pool_sched_delay_ns.size(); ++r)
      prom_histogram_pool(out, "lpt_sched_delay_ns", static_cast<int>(r),
                          s.pool_sched_delay_ns[r]);
  }
  if (!s.pool_spawn_latency_ns.empty()) {
    prom_family(out, "lpt_spawn_latency_ns", "histogram",
                "Spawn to first dispatch latency per pool, ns (log2 buckets; "
                "tracing only).");
    for (std::size_t r = 0; r < s.pool_spawn_latency_ns.size(); ++r)
      prom_histogram_pool(out, "lpt_spawn_latency_ns", static_cast<int>(r),
                          s.pool_spawn_latency_ns[r]);
  }

  prom_family(out, "lpt_prof_enabled", "gauge",
              "1 when the continuous profiler is armed.");
  prom_i64(out, "lpt_prof_enabled", s.prof_enabled ? 1 : 0);
  prom_family(out, "lpt_prof_sample_invocations_total", "counter",
              "On-CPU sampling hook firings (0 when profiling is off).");
  prom_u64(out, "lpt_prof_sample_invocations_total",
           s.prof_sample_invocations);
  prom_family(out, "lpt_prof_samples_recorded_total", "counter",
              "On-CPU samples committed to the sample rings.");
  prom_u64(out, "lpt_prof_samples_recorded_total", s.prof_samples_recorded);
  prom_family(out, "lpt_prof_samples_dropped_total", "counter",
              "On-CPU samples dropped (ring full or no ring).");
  prom_u64(out, "lpt_prof_samples_dropped_total", s.prof_samples_dropped);
  prom_family(out, "lpt_prof_offcpu_waits_total", "counter",
              "Off-CPU wait intervals attributed to a wait site.");
  prom_u64(out, "lpt_prof_offcpu_waits_total", s.prof_offcpu_waits);
  prom_family(out, "lpt_prof_offcpu_seconds_total", "counter",
              "Total attributed off-CPU blocked time.");
  std::fprintf(out, "lpt_prof_offcpu_seconds_total %.6f\n",
               static_cast<double>(s.prof_offcpu_ns) / 1e9);
  prom_family(out, "lpt_prof_lock_acquires_total", "counter",
              "Acquire attempts on profiled mutexes.");
  prom_u64(out, "lpt_prof_lock_acquires_total", s.prof_lock_acquires);
  prom_family(out, "lpt_prof_lock_contended_total", "counter",
              "Profiled mutex acquires that had to park.");
  prom_u64(out, "lpt_prof_lock_contended_total", s.prof_lock_contended);
  prom_family(out, "lpt_prof_contention_chains_total", "counter",
              "Waiters parked behind a holder that was itself off-CPU.");
  prom_u64(out, "lpt_prof_contention_chains_total",
           s.prof_contention_chains);
}

void write_json(std::FILE* out, const Snapshot& s) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"taken_ns\": %" PRId64 ",\n", s.taken_ns);
  std::fprintf(out, "  \"uptime_ns\": %" PRId64 ",\n", s.uptime_ns);
  std::fprintf(out, "  \"num_workers\": %d,\n", s.num_workers);
  std::fprintf(out, "  \"active_workers\": %d,\n", s.active_workers);
  std::fprintf(out, "  \"totals\": {\n");
  std::fprintf(out, "    \"dispatches\": %" PRIu64 ",\n", s.dispatches);
  std::fprintf(out, "    \"yields\": %" PRIu64 ",\n", s.yields);
  std::fprintf(out, "    \"blocks\": %" PRIu64 ",\n", s.blocks);
  std::fprintf(out, "    \"exits\": %" PRIu64 ",\n", s.exits);
  std::fprintf(out, "    \"steals\": %" PRIu64 ",\n", s.steals);
  std::fprintf(out, "    \"preempt_signal_yield\": %" PRIu64 ",\n",
               s.preempt_signal_yield);
  std::fprintf(out, "    \"preempt_klt_switch\": %" PRIu64 ",\n",
               s.preempt_klt_switch);
  std::fprintf(out, "    \"preemptions\": %" PRIu64 ",\n", s.preemptions);
  std::fprintf(out, "    \"ticks_sent\": %" PRIu64 ",\n", s.ticks_sent);
  std::fprintf(out, "    \"handler_entries\": %" PRIu64 ",\n",
               s.handler_entries);
  std::fprintf(out, "    \"handler_deferred\": %" PRIu64 ",\n",
               s.handler_deferred);
  std::fprintf(out, "    \"klt_degraded_ticks\": %" PRIu64 ",\n",
               s.klt_degraded_ticks);
  std::fprintf(out, "    \"ult_faults\": %" PRIu64 ",\n", s.ult_faults);
  std::fprintf(out, "    \"stack_overflows\": %" PRIu64 ",\n",
               s.stack_overflows);
  std::fprintf(out, "    \"escaped_exceptions\": %" PRIu64 ",\n",
               s.escaped_exceptions);
  std::fprintf(out, "    \"ult_cancels\": %" PRIu64 ",\n", s.ult_cancels);
  std::fprintf(out, "    \"syscall_blocks\": %" PRIu64 ",\n",
               s.syscall_blocks);
  std::fprintf(out, "    \"tick_effectiveness\": %.6f,\n",
               s.tick_effectiveness());
  std::fprintf(out, "    \"switch_rate\": %.6f,\n", s.switch_rate());
  std::fprintf(out, "    \"run_queue_depth\": %" PRId64 "\n",
               s.run_queue_depth);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"ults\": {\"spawned\": %" PRIu64
                    ", \"live\": %" PRId64 "},\n",
               s.ults_spawned, s.ults_live);
  std::fprintf(out,
               "  \"klts\": {\"created\": %" PRIu64 ", \"on_demand\": %" PRIu64
               ", \"create_failures\": %" PRIu64 ", \"pool_idle\": %" PRId64
               "},\n",
               s.klts_created, s.klts_on_demand, s.klt_create_failures,
               s.klt_pool_idle);
  std::fprintf(out,
               "  \"stacks\": {\"cached\": %" PRIu64 ", \"shed\": %" PRIu64
               ", \"spawn_failures\": %" PRIu64 ", \"quarantined\": %" PRIu64
               ", \"near_overflows\": %" PRIu64 ", \"watermark_max\": %" PRIu64
               ", \"stack_size\": %" PRIu64 "},\n",
               s.stacks_cached, s.stacks_shed, s.spawn_stack_failures,
               s.stacks_quarantined, s.stack_near_overflows,
               s.stack_watermark_max, s.stack_size_bytes);
  std::fprintf(out, "  \"faults\": {\"klts_retired\": %" PRIu64 "},\n",
               s.klts_retired);
  std::fprintf(out,
               "  \"degradation\": {\"posix_timer_fallbacks\": %" PRIu64
               ", \"faults_injected\": %" PRIu64 "},\n",
               s.posix_timer_fallbacks, s.faults_injected);
  std::fprintf(out,
               "  \"watchdog\": {\"checks\": %" PRIu64
               ", \"runnable_starvation\": %" PRIu64
               ", \"worker_stall\": %" PRIu64 ", \"quantum_overrun\": %" PRIu64
               ", \"fault_storm\": %" PRIu64
               ", \"syscall_blocked\": %" PRIu64
               ", \"deadlock\": %" PRIu64
               ", \"abandoned_lock\": %" PRIu64 "},\n",
               s.watchdog_checks, s.watchdog_runnable_starvation,
               s.watchdog_worker_stall, s.watchdog_quantum_overrun,
               s.watchdog_fault_storm, s.watchdog_syscall_blocked,
               s.watchdog_deadlock, s.watchdog_abandoned_lock);
  std::fprintf(out,
               "  \"remediations\": {\"retick\": %" PRIu64
               ", \"cancel\": %" PRIu64 ", \"klt_replace\": %" PRIu64
               ", \"deadlock_break\": %" PRIu64 "},\n",
               s.remediations_retick, s.remediations_cancel,
               s.remediations_klt_replace, s.remediations_deadlock_break);
  std::fprintf(out,
               "  \"deadlock\": {\"cycles\": %" PRIu64
               ", \"self_deadlocks\": %" PRIu64
               ", \"abandoned_locks\": %" PRIu64
               ", \"abandoned_released\": %" PRIu64
               ", \"parked_waiters\": %" PRId64 "},\n",
               s.deadlock_cycles, s.self_deadlocks, s.abandoned_locks,
               s.abandoned_released, s.parked_waiters);
  std::fprintf(out,
               "  \"syscall\": {\"blocks\": %" PRIu64
               ", \"comp_activated\": %" PRIu64
               ", \"comp_reabsorbed\": %" PRIu64
               ", \"comp_saturated\": %" PRIu64 "},\n",
               s.syscall_blocks, s.syscall_comp_activated,
               s.syscall_comp_reabsorbed, s.syscall_comp_saturated);
  std::fprintf(out,
               "  \"trace\": {\"enabled\": %s, \"events\": %" PRIu64
               ", \"dropped\": %" PRIu64 "},\n",
               s.trace_enabled ? "true" : "false", s.trace_events,
               s.trace_dropped);
  auto json_pool_hists = [&](const char* key,
                             const std::vector<trace::HistSnapshot>& pools) {
    std::fprintf(out, "  \"%s\": [", key);
    for (std::size_t r = 0; r < pools.size(); ++r) {
      const trace::HistSnapshot& h = pools[r];
      std::fprintf(out,
                   "%s{\"pool\": %zu, \"count\": %" PRIu64
                   ", \"sum_ns\": %" PRIu64
                   ", \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f}",
                   r == 0 ? "" : ", ", r, h.count(), h.sum_ns,
                   h.percentile_ns(50), h.percentile_ns(99),
                   h.percentile_ns(99.9));
    }
    std::fprintf(out, "],\n");
  };
  json_pool_hists("sched_delay_ns", s.pool_sched_delay_ns);
  json_pool_hists("spawn_latency_ns", s.pool_spawn_latency_ns);
  std::fprintf(out,
               "  \"prof\": {\"enabled\": %s, \"sample_invocations\": %" PRIu64
               ", \"samples_recorded\": %" PRIu64
               ", \"samples_dropped\": %" PRIu64
               ", \"offcpu_waits\": %" PRIu64 ", \"offcpu_ns\": %" PRIu64
               ", \"lock_acquires\": %" PRIu64
               ", \"lock_contended\": %" PRIu64
               ", \"contention_chains\": %" PRIu64 "},\n",
               s.prof_enabled ? "true" : "false", s.prof_sample_invocations,
               s.prof_samples_recorded, s.prof_samples_dropped,
               s.prof_offcpu_waits, s.prof_offcpu_ns, s.prof_lock_acquires,
               s.prof_lock_contended, s.prof_contention_chains);
  std::fprintf(out, "  \"workers\": [\n");
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const WorkerSample& w = s.workers[i];
    std::fprintf(
        out,
        "    {\"rank\": %d, \"state\": \"%s\", \"parked\": %s, "
        "\"queue_depth\": %" PRId64 ", \"dispatches\": %" PRIu64
        ", \"yields\": %" PRIu64 ", \"blocks\": %" PRIu64
        ", \"exits\": %" PRIu64 ", \"steals\": %" PRIu64
        ", \"preempt_signal_yield\": %" PRIu64
        ", \"preempt_klt_switch\": %" PRIu64 ", \"ticks_sent\": %" PRIu64
        ", \"handler_entries\": %" PRIu64 ", \"handler_deferred\": %" PRIu64
        ", \"klt_degraded_ticks\": %" PRIu64
        ", \"posix_timer_fallback\": %s, \"time_in_state_ns\": "
        "{\"scheduling\": %" PRIu64 ", \"running\": %" PRIu64
        ", \"idle\": %" PRIu64 ", \"parked\": %" PRIu64 "}}%s\n",
        w.rank, worker_state_name(static_cast<WorkerState>(w.state)),
        w.parked ? "true" : "false", w.queue_depth, w.dispatches, w.yields,
        w.blocks, w.exits, w.steals, w.preempt_signal_yield,
        w.preempt_klt_switch, w.ticks_sent, w.handler_entries,
        w.handler_deferred, w.klt_degraded_ticks,
        w.posix_timer_fallback ? "true" : "false", w.time_in_state_ns[0],
        w.time_in_state_ns[1], w.time_in_state_ns[2], w.time_in_state_ns[3],
        i + 1 < s.workers.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

PublishConfig resolve_publish_config(PublishConfig base) {
  if (const char* f = std::getenv("LPT_METRICS_FILE"); f != nullptr)
    base.file = f;
  long long ms = base.period_ms;
  env_count("LPT_METRICS_PERIOD_MS", kMaxPeriodMs, &ms);
  base.period_ms = ms;
  if (base.period_ms <= 0) base.period_ms = 1000;
  return base;
}

Format format_for_path(const std::string& path) {
  static constexpr char kExt[] = ".json";
  static constexpr std::size_t kExtLen = sizeof(kExt) - 1;
  if (path.size() >= kExtLen &&
      path.compare(path.size() - kExtLen, kExtLen, kExt) == 0)
    return Format::kJson;
  return Format::kPrometheus;
}

}  // namespace lpt::metrics
