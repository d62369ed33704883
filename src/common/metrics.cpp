#include "common/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstring>

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

namespace {

constexpr const char* kCounter = "counter";
constexpr const char* kGauge = "gauge";

template <auto F>
Value read(const Snapshot& s) {
  return Value(s.*F);
}

template <auto W>
Value read_worker(const WorkerSample& w) {
  return Value(w.*W);
}

/// Snapshot::*T = the sum of WorkerSample::*W over the workers.
template <auto W, auto T>
void sum(Snapshot& s) {
  s.*T = 0;
  for (const WorkerSample& w : s.workers) s.*T += w.*W;
}

template <auto W, auto M>
void take(WorkerSample& w, const WorkerMetrics& m) {
  w.*W = (m.*M).value();
}

/// Reads of a counter every worker keeps: live in WorkerMetrics::*M,
/// sampled into WorkerSample::*W, summed into Snapshot::*T.
template <auto M, auto W, auto T>
constexpr Metric per_worker(Metric m) {
  m.total = read<T>;
  m.worker = read_worker<W>;
  m.sum = sum<W, T>;
  m.take = take<W, M>;
  return m;
}

void prom_family(std::FILE* out, const char* name, const char* type,
                 const char* help) {
  std::fprintf(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
}

/// One series: `name[{worker="r"[,label]}] value`; rank < 0 = no worker.
void prom_series(std::FILE* out, const Metric& m, int rank, Value v) {
  std::fputs(m.prom, out);
  if (rank >= 0)
    std::fprintf(out, "{worker=\"%d\"%s%s}", rank, m.label ? "," : "",
                 m.label ? m.label : "");
  else if (m.label != nullptr)
    std::fprintf(out, "{%s}", m.label);
  if (m.seconds > 0)
    std::fprintf(out, " %.*f\n", m.seconds, v.number() / 1e9);
  else if (v.kind == Value::Kind::kSigned)
    std::fprintf(out, " %" PRId64 "\n", v.i);
  else
    std::fprintf(out, " %" PRIu64 "\n", v.u);
}

void json_pair(std::FILE* out, const char* sep, const char* key, Value v) {
  std::fprintf(out, "%s\"%s\": ", sep, key);
  switch (v.kind) {
    case Value::Kind::kUnsigned: std::fprintf(out, "%" PRIu64, v.u); break;
    case Value::Kind::kSigned: std::fprintf(out, "%" PRId64, v.i); break;
    case Value::Kind::kBool: std::fputs(v.u ? "true" : "false", out); break;
    case Value::Kind::kRatio: std::fprintf(out, "%.6f", v.d); break;
  }
}

void prom_time_in_state(std::FILE* out, const Snapshot& s) {
  prom_family(out, "lpt_worker_time_in_state_seconds_total", kCounter,
              "Sampled wall time per worker state (watchdog-tick resolution).");
  for (const WorkerSample& w : s.workers)
    for (int i = 0; i < kWorkerStateCount; ++i)
      std::fprintf(
          out,
          "lpt_worker_time_in_state_seconds_total{worker=\"%d\",state=\"%s\"} "
          "%.3f\n",
          w.rank, worker_state_name(static_cast<WorkerState>(i)),
          static_cast<double>(w.time_in_state_ns[i]) / 1e9);
}

/// One family of per-pool log2 latency histograms as native Prometheus
/// histograms: cumulative `_bucket{pool="r",le="..."}` series (one per log2
/// bucket up to the highest non-empty one, then `+Inf`), plus exact `_sum`
/// and `_count`. Exact by construction — every bucket is an exported integer
/// and sum_ns is accumulated, not reconstructed — so tools/telemetry_check
/// can reconcile these against per-ULT accounting. Absent when tracing is
/// off (empty `pools`), so scrapes stay small on untraced runs.
void prom_pool_histograms(std::FILE* out, const char* name, const char* help,
                          const std::vector<trace::HistSnapshot>& pools) {
  if (pools.empty()) return;
  prom_family(out, name, "histogram", help);
  for (std::size_t pool = 0; pool < pools.size(); ++pool) {
    const trace::HistSnapshot& h = pools[pool];
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
      std::fprintf(out,
                   "%s_bucket{pool=\"%zu\",le=\"%" PRId64 "\"} %" PRIu64 "\n",
                   name, pool, trace::HistSnapshot::bucket_ceil_ns(b), cum);
    }
    std::fprintf(out, "%s_bucket{pool=\"%zu\",le=\"+Inf\"} %" PRIu64 "\n",
                 name, pool, cum);
    // The family's unit is ns (the _ns suffix), so _sum is integral ns, not
    // Prometheus-conventional seconds — keeping every series an exact integer.
    std::fprintf(out, "%s_sum{pool=\"%zu\"} %" PRIu64 "\n", name, pool,
                 h.sum_ns);
    std::fprintf(out, "%s_count{pool=\"%zu\"} %" PRIu64 "\n", name, pool, cum);
  }
}

void prom_histograms(std::FILE* out, const Snapshot& s) {
  prom_pool_histograms(out, "lpt_sched_delay_ns",
                       "Ready to dispatch scheduling delay per pool, ns (log2 "
                       "buckets; tracing only).",
                       s.pool_sched_delay_ns);
  prom_pool_histograms(out, "lpt_spawn_latency_ns",
                       "Spawn to first dispatch latency per pool, ns (log2 "
                       "buckets; tracing only).",
                       s.pool_spawn_latency_ns);
}

using S = Snapshot;
using W = WorkerSample;
using M = WorkerMetrics;

constexpr Metric kMetrics[] = {
    {.key = "taken_ns", .total = read<&S::taken_ns>},
    {.prom = "lpt_uptime_seconds", .type = kGauge,
     .help = "Seconds since Runtime construction.", .seconds = 3,
     .key = "uptime_ns", .total = read<&S::uptime_ns>},
    {.prom = "lpt_workers", .type = kGauge, .help = "Configured worker count.",
     .key = "num_workers", .total = read<&S::num_workers>},
    {.prom = "lpt_active_workers", .type = kGauge,
     .help = "Workers not parked by thread packing.", .key = "active_workers",
     .total = read<&S::active_workers>},

    // -- per-worker counters; JSON totals are the sums --
    per_worker<&M::dispatches, &W::dispatches, &S::dispatches>(
        {.prom = "lpt_dispatches_total", .type = kCounter,
         .help = "ULTs switched into by this worker.", .group = "totals",
         .key = "dispatches", .worker_key = "dispatches"}),
    per_worker<&M::yields, &W::yields, &S::yields>(
        {.prom = "lpt_yields_total", .type = kCounter,
         .help = "Voluntary yields processed.", .group = "totals",
         .key = "yields", .worker_key = "yields"}),
    per_worker<&M::blocks, &W::blocks, &S::blocks>(
        {.prom = "lpt_blocks_total", .type = kCounter,
         .help = "ULT suspensions on sync primitives.", .group = "totals",
         .key = "blocks", .worker_key = "blocks"}),
    per_worker<&M::exits, &W::exits, &S::exits>(
        {.prom = "lpt_exits_total", .type = kCounter,
         .help = "ULT completions processed.", .group = "totals",
         .key = "exits", .worker_key = "exits"}),
    per_worker<&M::steals, &W::steals, &S::steals>(
        {.prom = "lpt_steals_total", .type = kCounter,
         .help = "ULTs stolen from a remote run queue.", .group = "totals",
         .key = "steals", .worker_key = "steals"}),
    per_worker<&M::ticks_sent, &W::ticks_sent, &S::ticks_sent>(
        {.prom = "lpt_preempt_ticks_sent_total", .type = kCounter,
         .help = "Preemption signals sent toward this worker.",
         .group = "totals", .key = "ticks_sent", .worker_key = "ticks_sent"}),
    per_worker<&M::handler_entries, &W::handler_entries, &S::handler_entries>(
        {.prom = "lpt_preempt_handler_entries_total", .type = kCounter,
         .help = "Preemption handler entries that found a preemptible ULT.",
         .group = "totals", .key = "handler_entries",
         .worker_key = "handler_entries"}),
    per_worker<&M::handler_deferred, &W::handler_deferred,
               &S::handler_deferred>(
        {.prom = "lpt_preempt_handler_deferred_total", .type = kCounter,
         .help = "Handler entries deferred by a NoPreemptGuard.",
         .group = "totals", .key = "handler_deferred",
         .worker_key = "handler_deferred"}),
    per_worker<&M::klt_degraded_ticks, &W::klt_degraded_ticks,
               &S::klt_degraded_ticks>(
        {.prom = "lpt_klt_degraded_ticks_total", .type = kCounter,
         .help = "KLT-switch ticks degraded to deferred handling (pool "
                 "exhausted).",
         .group = "totals", .key = "klt_degraded_ticks",
         .worker_key = "klt_degraded_ticks", .summary = "klt degraded ticks",
         .summary_pos = 1}),
    per_worker<&M::ult_faults, &W::ult_faults, &S::ult_faults>(
        {.prom = "lpt_ult_faults_total", .type = kCounter,
         .help = "ULTs terminated by fault isolation "
                 "(overflow/segv/bus/exception).",
         .group = "totals", .key = "ult_faults",
         .summary = "ult faults contained", .summary_pos = 7}),
    per_worker<&M::stack_overflows, &W::stack_overflows, &S::stack_overflows>(
        {.prom = "lpt_stack_overflows_total", .type = kCounter,
         .help = "Guard-page stack overflows contained by fault isolation.",
         .group = "totals", .key = "stack_overflows",
         .summary = "stack overflows", .summary_pos = 8}),
    per_worker<&M::escaped_exceptions, &W::escaped_exceptions,
               &S::escaped_exceptions>(
        {.prom = "lpt_escaped_exceptions_total", .type = kCounter,
         .help = "ULTs terminated by the exception firewall.",
         .group = "totals", .key = "escaped_exceptions",
         .summary = "escaped exceptions", .summary_pos = 9}),
    per_worker<&M::ult_cancels, &W::ult_cancels, &S::ult_cancels>(
        {.prom = "lpt_ult_cancels_total", .type = kCounter,
         .help = "ULTs terminated by request_cancel() or deadline expiry.",
         .group = "totals", .key = "ult_cancels", .summary = "ult cancels",
         .summary_pos = 12}),
    per_worker<&M::syscall_blocks, &W::syscall_blocks, &S::syscall_blocks>(
        {.prom = "lpt_syscall_blocks_total", .type = kCounter,
         .help = "Annotated blocking-syscall regions entered (lpt::io).",
         .group = "totals", .key = "syscall_blocks"}),
    per_worker<&M::preempt_signal_yield, &W::preempt_signal_yield,
               &S::preempt_signal_yield>(
        {.prom = "lpt_preemptions_total", .type = kCounter,
         .help = "Completed preemptions by mechanism.",
         .label = "kind=\"signal_yield\"", .group = "totals",
         .key = "preempt_signal_yield", .worker_key = "preempt_signal_yield"}),
    per_worker<&M::preempt_klt_switch, &W::preempt_klt_switch,
               &S::preempt_klt_switch>(
        {.prom = "lpt_preemptions_total", .label = "kind=\"klt_switch\"",
         .group = "totals", .key = "preempt_klt_switch",
         .worker_key = "preempt_klt_switch"}),
    {.group = "totals", .key = "preemptions", .total = read<&S::preemptions>,
     .sum = [](Snapshot& s) {
       s.preemptions = s.preempt_signal_yield + s.preempt_klt_switch;
     }},
    {.prom = "lpt_run_queue_depth", .type = kGauge,
     .help = "Runnable ULTs queued per worker at scrape time.",
     .group = "totals", .key = "run_queue_depth", .worker_key = "queue_depth",
     .total = read<&S::run_queue_depth>,
     .worker = read_worker<&W::queue_depth>,
     .sum = sum<&W::queue_depth, &S::run_queue_depth>},
    {.worker_key = "parked", .worker = read_worker<&W::parked>},
    {.worker_key = "posix_timer_fallback",
     .worker = read_worker<&W::posix_timer_fallback>},
    {.group = "totals", .key = "tick_effectiveness",
     .total = [](const Snapshot& s) { return Value(s.tick_effectiveness()); }},
    {.group = "totals", .key = "switch_rate",
     .total = [](const Snapshot& s) { return Value(s.switch_rate()); }},
    {.series = prom_time_in_state},

    // -- runtime-global --
    {.prom = "lpt_ults_spawned_total", .type = kCounter,
     .help = "ULTs ever spawned.", .group = "ults", .key = "spawned",
     .total = read<&S::ults_spawned>},
    {.prom = "lpt_ults_live", .type = kGauge,
     .help = "ULTs spawned but not yet finished.", .group = "ults",
     .key = "live", .total = read<&S::ults_live>},
    {.prom = "lpt_klts_created_total", .type = kCounter,
     .help = "Kernel-level threads ever created.", .group = "klts",
     .key = "created", .total = read<&S::klts_created>},
    {.prom = "lpt_klts_on_demand_total", .type = kCounter,
     .help = "KLTs created on demand (pool miss).", .group = "klts",
     .key = "on_demand", .total = read<&S::klts_on_demand>},
    {.prom = "lpt_klt_create_failures_total", .type = kCounter,
     .help = "KLT creation attempts that failed.", .group = "klts",
     .key = "create_failures", .summary = "klt create failures",
     .summary_pos = 2, .total = read<&S::klt_create_failures>},
    {.prom = "lpt_klt_pool_idle", .type = kGauge,
     .help = "Parked spare KLTs available for KLT-switching.", .group = "klts",
     .key = "pool_idle", .total = read<&S::klt_pool_idle>},
    {.prom = "lpt_stack_pool_cached", .type = kGauge,
     .help = "ULT stacks cached in the stack pool.", .group = "stacks",
     .key = "cached", .total = read<&S::stacks_cached>},
    {.prom = "lpt_stacks_shed_total", .type = kCounter,
     .help = "Cached stacks shed under memory pressure.", .group = "stacks",
     .key = "shed", .summary = "stacks shed", .summary_pos = 5,
     .total = read<&S::stacks_shed>},
    {.prom = "lpt_spawn_stack_failures_total", .type = kCounter,
     .help = "spawn() refusals after stack allocation failed.",
     .group = "stacks", .key = "spawn_failures",
     .summary = "spawn stack failures", .summary_pos = 4,
     .total = read<&S::spawn_stack_failures>},
    {.prom = "lpt_klts_retired_total", .type = kCounter,
     .help = "Poisoned KLTs retired after a contained fault.",
     .group = "faults", .key = "klts_retired", .summary = "klts retired",
     .summary_pos = 10, .total = read<&S::klts_retired>},
    {.prom = "lpt_stacks_quarantined_total", .type = kCounter,
     .help = "Faulted ULT stacks scrubbed and re-guarded.", .group = "stacks",
     .key = "quarantined", .summary = "stacks quarantined",
     .summary_pos = 11, .total = read<&S::stacks_quarantined>},
    {.prom = "lpt_stack_near_overflows_total", .type = kCounter,
     .help = "Stack releases with a watermark within a page of the guard.",
     .group = "stacks", .key = "near_overflows",
     .total = read<&S::stack_near_overflows>},
    {.prom = "lpt_stack_watermark_max_bytes", .type = kGauge,
     .help = "Deepest sampled ULT stack use since startup.", .group = "stacks",
     .key = "watermark_max", .total = read<&S::stack_watermark_max>},
    {.prom = "lpt_stack_size_bytes", .type = kGauge,
     .help = "Effective default ULT stack size (after LPT_STACK_SIZE).",
     .group = "stacks", .key = "stack_size",
     .total = read<&S::stack_size_bytes>},
    {.prom = "lpt_posix_timer_fallbacks_total", .type = kCounter,
     .help = "Per-worker POSIX timers degraded to service-thread delivery.",
     .group = "degradation", .key = "posix_timer_fallbacks",
     .summary = "posix timer fallbacks", .summary_pos = 3,
     .total = read<&S::posix_timer_fallbacks>},
    {.prom = "lpt_faults_injected_total", .type = kCounter,
     .help = "Faults injected by the LPT_FAULT harness.",
     .group = "degradation", .key = "faults_injected",
     .summary = "faults injected", .summary_pos = 6,
     .total = read<&S::faults_injected>},
    {.prom = "lpt_watchdog_checks_total", .type = kCounter,
     .help = "Watchdog poll passes completed.", .group = "watchdog",
     .key = "checks", .total = read<&S::watchdog_checks>},
    {.prom = "lpt_watchdog_flags_total", .type = kCounter,
     .help = "Watchdog flag episodes by kind.",
     .label = "kind=\"runnable_starvation\"", .group = "watchdog",
     .key = "runnable_starvation",
     .total = read<&S::watchdog_runnable_starvation>},
    {.prom = "lpt_watchdog_flags_total", .label = "kind=\"worker_stall\"",
     .group = "watchdog", .key = "worker_stall",
     .total = read<&S::watchdog_worker_stall>},
    {.prom = "lpt_watchdog_flags_total", .label = "kind=\"quantum_overrun\"",
     .group = "watchdog", .key = "quantum_overrun",
     .total = read<&S::watchdog_quantum_overrun>},
    {.prom = "lpt_watchdog_flags_total", .label = "kind=\"fault_storm\"",
     .group = "watchdog", .key = "fault_storm",
     .total = read<&S::watchdog_fault_storm>},
    {.prom = "lpt_watchdog_flags_total", .label = "kind=\"syscall_blocked\"",
     .group = "watchdog", .key = "syscall_blocked",
     .total = read<&S::watchdog_syscall_blocked>},
    {.prom = "lpt_watchdog_flags_total", .label = "kind=\"deadlock\"",
     .group = "watchdog", .key = "deadlock",
     .total = read<&S::watchdog_deadlock>},
    {.prom = "lpt_watchdog_flags_total", .label = "kind=\"abandoned_lock\"",
     .group = "watchdog", .key = "abandoned_lock",
     .total = read<&S::watchdog_abandoned_lock>},
    {.prom = "lpt_remediations_total", .type = kCounter,
     .help = "Self-healing remediation actions taken, by kind.",
     .label = "kind=\"retick\"", .group = "remediations", .key = "retick",
     .summary = "remediations: retick", .summary_pos = 13,
     .total = read<&S::remediations_retick>},
    {.prom = "lpt_remediations_total", .label = "kind=\"cancel\"",
     .group = "remediations", .key = "cancel",
     .summary = "remediations: cancel", .summary_pos = 14,
     .total = read<&S::remediations_cancel>},
    {.prom = "lpt_remediations_total", .label = "kind=\"klt_replace\"",
     .group = "remediations", .key = "klt_replace",
     .summary = "remediations: klt replace", .summary_pos = 15,
     .total = read<&S::remediations_klt_replace>},
    {.prom = "lpt_remediations_total", .label = "kind=\"deadlock_break\"",
     .group = "remediations", .key = "deadlock_break",
     .summary = "remediations: deadlock break", .summary_pos = 16,
     .total = read<&S::remediations_deadlock_break>},
    {.prom = "lpt_deadlock_cycles_total", .type = kCounter,
     .help = "Deadlock cycles confirmed by the detector (== deadlock_break "
             "remediations + self deadlocks when remediation is on).",
     .group = "deadlock", .key = "cycles", .summary = "deadlock cycles",
     .summary_pos = 17, .total = read<&S::deadlock_cycles>},
    {.prom = "lpt_self_deadlocks_total", .type = kCounter,
     .help = "Self-deadlocks caught synchronously at lock().",
     .group = "deadlock", .key = "self_deadlocks",
     .total = read<&S::self_deadlocks>},
    {.prom = "lpt_abandoned_locks_total", .type = kCounter,
     .help = "ULTs that ended while still holding a tracked lock.",
     .group = "deadlock", .key = "abandoned_locks",
     .summary = "abandoned locks", .summary_pos = 18,
     .total = read<&S::abandoned_locks>},
    {.prom = "lpt_abandoned_released_total", .type = kCounter,
     .help = "Abandoned locks force-released (LPT_ABANDON_RELEASE).",
     .group = "deadlock", .key = "abandoned_released",
     .total = read<&S::abandoned_released>},
    {.prom = "lpt_parked_waiters", .type = kGauge,
     .help = "ULTs registered in the parking registry at scrape time.",
     .group = "deadlock", .key = "parked_waiters",
     .total = read<&S::parked_waiters>},
    {.group = "syscall", .key = "blocks", .total = read<&S::syscall_blocks>},
    {.prom = "lpt_syscall_compensations_total", .type = kCounter,
     .help = "Wedge-sentinel compensation outcomes (activated == reabsorbed "
             "+ saturated after quiescing).",
     .label = "outcome=\"activated\"", .group = "syscall",
     .key = "comp_activated", .summary = "syscall comp: activated",
     .summary_pos = 19, .total = read<&S::syscall_comp_activated>},
    {.prom = "lpt_syscall_compensations_total",
     .label = "outcome=\"reabsorbed\"", .group = "syscall",
     .key = "comp_reabsorbed", .summary = "syscall comp: reabsorbed",
     .summary_pos = 20, .total = read<&S::syscall_comp_reabsorbed>},
    {.prom = "lpt_syscall_compensations_total",
     .label = "outcome=\"saturated\"", .group = "syscall",
     .key = "comp_saturated", .summary = "syscall comp: saturated",
     .summary_pos = 21, .total = read<&S::syscall_comp_saturated>},
    {.group = "trace", .key = "enabled", .total = read<&S::trace_enabled>},
    {.prom = "lpt_trace_events_total", .type = kCounter,
     .help = "Events recorded by the tracer (0 when tracing is off).",
     .group = "trace", .key = "events", .total = read<&S::trace_events>},
    {.prom = "lpt_trace_dropped_total", .type = kCounter,
     .help = "Events dropped by full trace rings.", .group = "trace",
     .key = "dropped", .total = read<&S::trace_dropped>},
    {.series = prom_histograms},
    {.prom = "lpt_prof_enabled", .type = kGauge,
     .help = "1 when the continuous profiler is armed.", .group = "prof",
     .key = "enabled", .total = read<&S::prof_enabled>},
    {.prom = "lpt_prof_sample_invocations_total", .type = kCounter,
     .help = "On-CPU sampling hook firings (0 when profiling is off).",
     .group = "prof", .key = "sample_invocations",
     .total = read<&S::prof_sample_invocations>},
    {.prom = "lpt_prof_samples_recorded_total", .type = kCounter,
     .help = "On-CPU samples committed to the sample rings.", .group = "prof",
     .key = "samples_recorded", .total = read<&S::prof_samples_recorded>},
    {.prom = "lpt_prof_samples_dropped_total", .type = kCounter,
     .help = "On-CPU samples dropped (ring full or no ring).", .group = "prof",
     .key = "samples_dropped", .total = read<&S::prof_samples_dropped>},
    {.prom = "lpt_prof_offcpu_waits_total", .type = kCounter,
     .help = "Off-CPU wait intervals attributed to a wait site.",
     .group = "prof", .key = "offcpu_waits",
     .total = read<&S::prof_offcpu_waits>},
    {.prom = "lpt_prof_offcpu_seconds_total", .type = kCounter,
     .help = "Total attributed off-CPU blocked time.", .seconds = 6,
     .group = "prof", .key = "offcpu_ns", .total = read<&S::prof_offcpu_ns>},
    {.prom = "lpt_prof_lock_acquires_total", .type = kCounter,
     .help = "Acquire attempts on profiled mutexes.", .group = "prof",
     .key = "lock_acquires", .total = read<&S::prof_lock_acquires>},
    {.prom = "lpt_prof_lock_contended_total", .type = kCounter,
     .help = "Profiled mutex acquires that had to park.", .group = "prof",
     .key = "lock_contended", .total = read<&S::prof_lock_contended>},
    {.prom = "lpt_prof_contention_chains_total", .type = kCounter,
     .help = "Waiters parked behind a holder that was itself off-CPU.",
     .group = "prof", .key = "contention_chains",
     .total = read<&S::prof_contention_chains>},
};

bool same(const char* a, const char* b) {
  return a != nullptr && b != nullptr && std::strcmp(a, b) == 0;
}

}  // namespace

std::span<const Metric> metric_table() { return kMetrics; }

WorkerSample WorkerMetrics::sample() const {
  WorkerSample s;
  for (const Metric& m : kMetrics)
    if (m.take != nullptr) m.take(s, *this);
  for (int i = 0; i < kWorkerStateCount; ++i)
    s.time_in_state_ns[i] = time_in_state_ns[i].value();
  s.state = state.load(std::memory_order_relaxed);
  return s;
}

void Snapshot::finalize() {
  for (const Metric& m : kMetrics)
    if (m.sum != nullptr) m.sum(*this);
}

void write_prometheus(std::FILE* out, const Snapshot& s) {
  const std::span<const Metric> rows = kMetrics;
  for (std::size_t i = 0; i < rows.size();) {
    const Metric& m = rows[i];
    if (m.series != nullptr) m.series(out, s);
    if (m.prom == nullptr) {
      ++i;
      continue;
    }
    // A family: the run of rows sharing m's name, one series per row (per
    // worker, worker-major, for per-worker rows).
    std::size_t end = i + 1;
    while (end < rows.size() && same(rows[end].prom, m.prom)) ++end;
    prom_family(out, m.prom, m.type, m.help);
    if (m.worker != nullptr) {
      for (const WorkerSample& w : s.workers)
        for (std::size_t k = i; k < end; ++k)
          prom_series(out, rows[k], w.rank, rows[k].worker(w));
    } else {
      for (std::size_t k = i; k < end; ++k)
        prom_series(out, rows[k], -1, rows[k].total(s));
    }
    i = end;
  }
}

void write_json(std::FILE* out, const Snapshot& s) {
  const std::span<const Metric> rows = kMetrics;
  std::fprintf(out, "{\n");
  for (const Metric& m : rows) {
    if (m.key == nullptr || m.group != nullptr) continue;
    json_pair(out, "  ", m.key, m.total(s));
    std::fprintf(out, ",\n");
  }
  // One object per group, at the group's first row.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const char* group = rows[i].group;
    if (group == nullptr ||
        std::any_of(rows.begin(), rows.begin() + i,
                    [&](const Metric& m) { return same(m.group, group); }))
      continue;
    std::fprintf(out, "  \"%s\": {", group);
    const char* sep = "";
    for (std::size_t k = i; k < rows.size(); ++k) {
      if (!same(rows[k].group, group)) continue;
      json_pair(out, sep, rows[k].key, rows[k].total(s));
      sep = ", ";
    }
    std::fprintf(out, "},\n");
  }
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
  std::fprintf(out, "  \"workers\": [\n");
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const WorkerSample& w = s.workers[i];
    std::fprintf(out, "    {\"rank\": %d, \"state\": \"%s\"", w.rank,
                 worker_state_name(static_cast<WorkerState>(w.state)));
    for (const Metric& m : rows)
      if (m.worker_key != nullptr)
        json_pair(out, ", ", m.worker_key, m.worker(w));
    std::fprintf(out,
                 ", \"time_in_state_ns\": {\"scheduling\": %" PRIu64
                 ", \"running\": %" PRIu64 ", \"idle\": %" PRIu64
                 ", \"parked\": %" PRIu64 "}}%s\n",
                 w.time_in_state_ns[0], w.time_in_state_ns[1],
                 w.time_in_state_ns[2], w.time_in_state_ns[3],
                 i + 1 < s.workers.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

void write_degradation(std::FILE* out, const Snapshot& s) {
  bool header = false;
  for (int pos = 1;; ++pos) {
    const Metric* m = std::find_if(
        std::begin(kMetrics), std::end(kMetrics),
        [pos](const Metric& r) { return r.summary_pos == pos; });
    if (m == std::end(kMetrics)) return;
    const Value v = m->total(s);
    if (v.u == 0) continue;
    if (!header) std::fprintf(out, "degradation:\n");
    header = true;
    std::fprintf(out, "  %-28s %llu\n", m->summary,
                 static_cast<unsigned long long>(v.u));
  }
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
