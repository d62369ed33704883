// Figure 7 reproduction: Cholesky decomposition performance (GFLOPS) vs the
// number of tiles (tile size 1000 x 1000), nested parallelism (outer tasks
// with dependences, inner 8-thread "MKL" teams with busy-wait barriers), on
// the 56-core Skylake cost model.
//
// Paper anchors: BOLT preemptive beats IOMP in almost all cases (up to
// ~27%); larger preemption intervals beat shorter ones (cache misses); the
// reverse-engineered nonpreemptive BOLT is on par with preemptive BOLT;
// IOMP (flat) is clearly worst at small tile counts; naive nonpreemptive
// BOLT (no yield hack) deadlocks.
// Alongside the simulated figure, a real-runtime section factors an actual
// SPD matrix with apps::tiled_cholesky on this host — the workload the
// continuous profiler (docs/observability.md, "Profiling") is demonstrated
// on: run with LPT_PROF=1 (+ LPT_PROF_FILE/LPT_METRICS_FILE) and the
// shutdown profile reconciles with the dispatch metrics, which the check.sh
// prof smoke gates through tools/telemetry_check.
#include <cstdio>

#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "apps/linalg/blas.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "sim/workloads/cholesky_dag.hpp"

using namespace lpt;
using namespace lpt::sim;

int main(int argc, char** argv) {
  std::printf("=== Figure 7: Cholesky decomposition (GFLOPS) ===\n");
  std::printf("Simulated 56-core Skylake, tile 1000x1000, outer=inner=8.\n\n");

  const CostModel cm = CostModel::skylake();
  bench::JsonReport json("fig7_cholesky");
  const int tile_counts[] = {8, 12, 16, 20, 24};

  Table table({"# tiles", "BOLT nonpre. (rev-eng)", "BOLT pre. 10ms",
               "BOLT pre. 1ms", "IOMP", "IOMP (flat)"});

  double sum_pre10 = 0, sum_iomp = 0, sum_rev = 0, sum_pre1 = 0, sum_flat = 0,
         sum_flat_small = 0, sum_pre10_small = 0;
  for (int T : tile_counts) {
    CholeskyConfig cfg;
    cfg.tiles = T;

    auto gf = [&](CholeskyRuntime r, Time interval) {
      CholeskyConfig c = cfg;
      c.interval = interval;
      return run_cholesky(cm, c, r).gflops;
    };
    const double rev = gf(CholeskyRuntime::kBoltNonpreemptiveYield, 0);
    const double pre10 = gf(CholeskyRuntime::kBoltPreemptive, 10'000'000);
    const double pre1 = gf(CholeskyRuntime::kBoltPreemptive, 1'000'000);
    const double iomp = gf(CholeskyRuntime::kIompNested, 0);
    const double flat = gf(CholeskyRuntime::kIompFlat, 0);
    const std::string tkey = "gflops.t" + std::to_string(T);
    json.set(tkey + ".bolt_nonpre_rev", rev);
    json.set(tkey + ".bolt_pre_10ms", pre10);
    json.set(tkey + ".bolt_pre_1ms", pre1);
    json.set(tkey + ".iomp", iomp);
    json.set(tkey + ".iomp_flat", flat);
    sum_rev += rev;
    sum_pre10 += pre10;
    sum_pre1 += pre1;
    sum_iomp += iomp;
    sum_flat += flat;
    if (T == 8) {
      sum_flat_small = flat;
      sum_pre10_small = pre10;
    }
    table.add_row({Table::fmt("%dx%d", T, T), Table::fmt("%7.0f", rev),
                   Table::fmt("%7.0f", pre10), Table::fmt("%7.0f", pre1),
                   Table::fmt("%7.0f", iomp), Table::fmt("%7.0f", flat)});
  }
  table.print();

  // The deadlock demonstration (§4.1): "OpenMP-parallel Intel MKL ...
  // assumes implicit preemption during thread synchronization by having
  // threads busy-loop on a memory flag, which causes a deadlock when running
  // on nonpreemptive M:N threads." The deterministic form: as many
  // concurrent MKL calls as cores — every worker ends up holding a spinning
  // team master while all helper chunks sit queued.
  const bool naive_dl = mkl_saturation_deadlocks(cm, 56, 56, 8, false);
  const bool preempt_dl = mkl_saturation_deadlocks(cm, 56, 56, 8, true);
  std::printf("\nDeadlock demonstration (56 concurrent 8-way MKL-style calls "
              "on 56 workers):\n  nonpreemptive M:N: %s | preemptive "
              "(KLT-switching): %s\n",
              naive_dl ? "DEADLOCK" : "completed",
              preempt_dl ? "DEADLOCK" : "completed");

  std::printf("\nShape checks vs paper:\n");
  std::printf("  [%s] busy-wait MKL barriers wedge nonpreemptive M:N threads; "
              "preemption resolves it\n",
              (naive_dl && !preempt_dl) ? "OK" : "MISMATCH");
  std::printf("  [%s] BOLT preemptive (10ms) >= IOMP overall (avg %+0.1f%%; "
              "paper: up to +27%%)\n",
              sum_pre10 > sum_iomp ? "OK" : "MISMATCH",
              (sum_pre10 / sum_iomp - 1) * 100);
  std::printf("  [%s] larger interval >= shorter interval (10ms %+0.1f%% vs "
              "1ms)\n",
              sum_pre10 >= sum_pre1 * 0.995 ? "OK" : "MISMATCH",
              (sum_pre10 / sum_pre1 - 1) * 100);
  std::printf("  [%s] reverse-engineered nonpreemptive on par with "
              "preemptive (%+0.1f%%)\n",
              sum_rev > 0.95 * sum_pre10 ? "OK" : "MISMATCH",
              (sum_rev / sum_pre10 - 1) * 100);
  std::printf("  [%s] IOMP (flat) worst at small tile counts "
              "(8x8: %.0f vs %.0f GFLOPS)\n",
              sum_flat_small < sum_pre10_small ? "OK" : "MISMATCH",
              sum_flat_small, sum_pre10_small);
  std::printf("  [%s] peak around ~1500 GFLOPS at 24x24 (got %.0f)\n",
              sum_pre10 / 5 > 500 ? "OK" : "MISMATCH", sum_pre10 / 5);
  json.set("deadlock.nonpreemptive", static_cast<std::uint64_t>(naive_dl));
  json.set("deadlock.preemptive", static_cast<std::uint64_t>(preempt_dl));

  // --- Real runtime: actual tiled Cholesky on this host --------------------
  // Small enough to finish in well under a second, big enough for the
  // preemption timer (and, when armed, the piggyback sampler) to observe the
  // tile tasks. LPT_PROF / LPT_PROF_FILE / LPT_METRICS_FILE resolve from the
  // environment, so `LPT_PROF=1 fig7_cholesky` leaves a validated profile.
  std::printf("\n=== Real runtime: tiled Cholesky (SignalYield tasks) ===\n");
  {
    RuntimeOptions o = resolve_env_options(RuntimeOptions{});
    o.num_workers = 4;
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = 1000;
    Runtime rt(o);

    apps::TiledCholeskyOptions copts;
    copts.tiles = 8;
    copts.tile_n = 64;
    copts.inner_width = 2;  // inner teams add the busy-wait sync the paper
    copts.inner_wait = apps::TeamWait::kSpinYield;  // profiles as kBusyFlag
    copts.preempt = Preempt::SignalYield;
    const int n = copts.tiles * copts.tile_n;
    std::vector<double> a(static_cast<std::size_t>(n) * n);
    apps::make_spd(n, a.data(), n, /*seed=*/7);

    const std::int64_t t0 = now_ns();
    const bool ok = apps::tiled_cholesky(rt, copts, a.data(), n);
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    const double gflops =
        static_cast<double>(n) * n * n / 3.0 / 1e9 / (secs > 0 ? secs : 1);
    std::printf("  n=%d (%dx%d tiles of %d): %s in %.3f s (%.2f GFLOPS)\n", n,
                copts.tiles, copts.tiles, copts.tile_n,
                ok ? "factored" : "FAILED", secs, gflops);
    json.set("real.ok", static_cast<std::uint64_t>(ok));
    json.set("real.gflops", gflops);

    const metrics::Snapshot ms = rt.metrics_snapshot();
    json.set("real.dispatches", ms.dispatches);
    if (rt.prof_enabled()) {
      // The reconciliation the profiler guarantees (and telemetry_check
      // enforces on the exported file): every sampler invocation is recorded
      // or a counted drop, and piggyback invocations ride exactly the
      // preemption handler entries the dispatch metrics already count.
      const bool reconciles =
          ms.prof_sample_invocations ==
              ms.prof_samples_recorded + ms.prof_samples_dropped &&
          (rt.prof_config().sample_hz > 0 ||
           ms.prof_sample_invocations == ms.handler_entries);
      std::printf("  profiler: %llu samples (%llu dropped), %llu off-CPU "
                  "waits, %llu lock acquires — reconciliation %s\n",
                  static_cast<unsigned long long>(ms.prof_samples_recorded),
                  static_cast<unsigned long long>(ms.prof_samples_dropped),
                  static_cast<unsigned long long>(ms.prof_offcpu_waits),
                  static_cast<unsigned long long>(ms.prof_lock_acquires),
                  reconciles ? "OK" : "MISMATCH");
      json.set("real.prof_samples", ms.prof_samples_recorded);
      json.set("real.prof_offcpu_waits", ms.prof_offcpu_waits);
      json.set("real.prof_reconciles", static_cast<std::uint64_t>(reconciles));
    } else {
      std::printf("  profiler off (set LPT_PROF=1 for a folded profile of "
                  "this section)\n");
    }
  }

  json.write(bench::json_path_from_args(argc, argv));
  return 0;
}
