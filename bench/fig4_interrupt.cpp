// Figure 4 reproduction: average time for an OS timer interruption vs the
// number of workers, 1 ms interval, for the four timer strategies.
//
// Paper anchors (Skylake): ~1-2 µs flat for per-worker (aligned); linear
// growth to ~100 µs at ~100 workers for per-worker (creation-time);
// per-process (one-to-all) linear but below creation-time; per-process
// (chain) flat, slightly above aligned.
//
// Next to the simulation, a companion section runs the REAL runtime with the
// tracer armed and reports the measured timer-fire -> handler-entry latency
// per strategy (docs/observability.md). This host has one core, so absolute
// values are noisy and worker counts are kept tiny; the simulated section is
// the faithful reproduction.
#include <cstdio>

#include <atomic>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"
#include "sim/timers.hpp"

using namespace lpt;
using namespace lpt::sim;

namespace {

volatile std::uint64_t g_sink;

/// Run a traced real runtime with `workers` busy signal-yield ULTs for
/// ~100 ms and return the run's metrics snapshot (preemption-delivery and
/// scheduling histograms plus tick-effectiveness counters).
metrics::Snapshot real_delivery(TimerKind timer, int workers) {
  RuntimeOptions o;
  o.num_workers = workers;
  o.timer = timer;
  o.interval_us = 1000;
  o.trace.enabled = true;
  Runtime rt(o);
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  std::atomic<bool> stop{false};
  std::vector<Thread> ts;
  for (int i = 0; i < workers; ++i)
    ts.push_back(rt.spawn(
        [&] {
          while (!stop.load(std::memory_order_relaxed))
            g_sink = busy_work_iters(20'000);
        },
        attrs));
  const std::int64_t deadline = now_ns() + 100'000'000;
  while (now_ns() < deadline) {
    timespec req{0, 5'000'000};
    nanosleep(&req, nullptr);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : ts) t.join();
  return rt.metrics_snapshot();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("fig4_interrupt");

  std::printf("=== Figure 4: average timer interruption time (us) ===\n");
  std::printf("Simulated %s cost model, 1 ms interval, all workers "
              "preemptive, 1000 ticks averaged.\n\n",
              CostModel::skylake().name.c_str());

  const CostModel cm = CostModel::skylake();
  const Time interval = 1'000'000;
  const int ticks = 1000;
  const int worker_counts[] = {1, 2, 4, 8, 16, 28, 56, 84, 100, 112};

  Table table({"# workers", "per-worker (creation)", "per-worker (aligned)",
               "per-process (one-to-all)", "per-process (chain)"});
  for (int n : worker_counts) {
    auto cell = [&](TimerStrategy s) {
      Stats st = measure_interruption_time(cm, s, n, interval, ticks);
      return Table::fmt("%8.2f +- %.2f", st.mean() / 1000.0,
                        st.stddev() / 1000.0);
    };
    table.add_row({Table::fmt("%d", n),
                   cell(TimerStrategy::kPerWorkerCreationTime),
                   cell(TimerStrategy::kPerWorkerAligned),
                   cell(TimerStrategy::kProcessOneToAll),
                   cell(TimerStrategy::kProcessChain)});
  }
  table.print();

  // Qualitative checks against the paper's shape.
  auto mean_at = [&](TimerStrategy s, int n) {
    return measure_interruption_time(cm, s, n, interval, ticks).mean();
  };
  const double naive100 = mean_at(TimerStrategy::kPerWorkerCreationTime, 100);
  const double naive1 = mean_at(TimerStrategy::kPerWorkerCreationTime, 1);
  const double aligned100 = mean_at(TimerStrategy::kPerWorkerAligned, 100);
  const double aligned1 = mean_at(TimerStrategy::kPerWorkerAligned, 1);
  const double chain100 = mean_at(TimerStrategy::kProcessChain, 100);
  const double o2a100 = mean_at(TimerStrategy::kProcessOneToAll, 100);

  std::printf("\nShape checks vs paper:\n");
  std::printf("  [%s] creation-time grows ~linearly (x%0.1f at 100 workers; "
              "paper: ~100 us => ~50x)\n",
              naive100 > 20 * naive1 ? "OK" : "MISMATCH", naive100 / naive1);
  std::printf("  [%s] aligned stays flat (%.2f us at 1 -> %.2f us at 100)\n",
              aligned100 < 1.5 * aligned1 ? "OK" : "MISMATCH",
              aligned1 / 1000.0, aligned100 / 1000.0);
  std::printf("  [%s] chain flat and slightly above aligned (%.2f vs %.2f us)\n",
              (chain100 > aligned100 && chain100 < 3 * aligned100) ? "OK"
                                                                   : "MISMATCH",
              chain100 / 1000.0, aligned100 / 1000.0);
  std::printf("  [%s] one-to-all grows but stays below creation-time "
              "(%.1f vs %.1f us at 100)\n",
              (o2a100 > 5 * aligned100 && o2a100 < naive100) ? "OK" : "MISMATCH",
              o2a100 / 1000.0, naive100 / 1000.0);
  json.set("sim.creation_time.us_at_100", naive100 / 1000.0);
  json.set("sim.aligned.us_at_100", aligned100 / 1000.0);
  json.set("sim.one_to_all.us_at_100", o2a100 / 1000.0);
  json.set("sim.chain.us_at_100", chain100 / 1000.0);

  std::printf("\n--- Real lpt runtime on this host: tracer-measured delivery "
              "latency (timer fire -> handler entry) ---\n");
  std::printf("1 ms interval, busy signal-yield ULTs, ~100 ms per cell; "
              "1-core container => small counts only.\n\n");
  struct RealRow {
    const char* name;
    const char* key;
    TimerKind kind;
  };
  const RealRow rows[] = {
      {"per-worker (aligned)", "aligned", TimerKind::PerWorkerAligned},
      {"per-worker (creation)", "creation_time", TimerKind::PerWorkerCreationTime},
      {"per-process (one-to-all)", "one_to_all", TimerKind::ProcessOneToAll},
      {"per-process (chain)", "chain", TimerKind::ProcessChain},
  };
  Table real_table({"strategy", "workers", "preemptions", "delivery p50 (us)",
                    "p99 (us)", "delay p50/p99/p999 (us)", "eff (%)"});
  for (const RealRow& row : rows) {
    for (int workers : {1, 2}) {
      const metrics::Snapshot r = real_delivery(row.kind, workers);
      const trace::HistSnapshot& h = r.preempt_delivery_ns;
      real_table.add_row(
          {row.name, Table::fmt("%d", workers),
           Table::fmt("%llu", static_cast<unsigned long long>(h.count())),
           Table::fmt("%7.1f", h.percentile_ns(50.0) / 1000.0),
           Table::fmt("%7.1f", h.percentile_ns(99.0) / 1000.0),
           Table::fmt("%.0f/%.0f/%.0f",
                      r.sched_delay_ns.percentile_ns(50.0) / 1000.0,
                      r.sched_delay_ns.percentile_ns(99.0) / 1000.0,
                      r.sched_delay_ns.percentile_ns(99.9) / 1000.0),
           Table::fmt("%5.0f", 100.0 * r.tick_effectiveness())});
      const std::string key =
          std::string("real.") + row.key + ".w" + std::to_string(workers);
      json.set_hist(key + ".delivery", h);
      json.set_sched_hists(key, r.sched_delay_ns, r.spawn_latency_ns);
      json.set_tick_effectiveness(key + ".ticks", r);
    }
  }
  real_table.print();
  std::printf("\n\"eff\" = handler entries / ticks sent from the always-on "
              "metrics (docs/observability.md): the fraction of ticks that "
              "landed on preemptible ULT code. \"delay\" = the causal "
              "accounting's ready->dispatch scheduling delay over every "
              "dispatch in the cell.\n");

  json.write(bench::json_path_from_args(argc, argv));
  return 0;
}
