// Blocking-syscall compensation on the real runtime (docs/robustness.md):
// dispatch latency of ready ULTs while workers are wedged inside a blocking
// read, with the wedge sentinel on vs off.
//
// Two sections, each run both ways:
//   half-wedged: 1 of 2 workers blocks in the kernel. Spare capacity (the
//     idle worker plus work stealing) masks the wedge — dispatch stays fast
//     in both modes. This is the baseline that shows the sentinel is not
//     needed while capacity remains.
//   all-wedged: both workers block. With the sentinel off, ready ULTs wait
//     the full wedge duration (nothing can dispatch them). With it on, the
//     watchdog activates compensating KLTs once the grace expires and the
//     probes dispatch within a few sentinel periods.
//
// The absolute numbers depend on this machine; the reproducible part is the
// ordering (sentinel-on latency ~ grace + a few watchdog periods, sentinel-
// off latency ~ the wedge duration) and the half-wedged indifference.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/sys.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"

using namespace lpt;

namespace {

constexpr int kWorkers = 2;
constexpr int kProbes = 8;
constexpr int kTrials = 5;
constexpr std::int64_t kGraceNs = 10'000'000;     // 10 ms
constexpr int kWatchdogMs = 10;
constexpr std::int64_t kWedgeNs = 150'000'000;    // 150 ms

struct TrialResult {
  double dispatch_ms_max = 0;   ///< slowest probe's spawn-to-run latency
  std::uint64_t activated = 0;  ///< compensations this trial
};

/// One runtime lifetime: wedge `wedged` workers in a blocking pipe read,
/// then spawn ready probes and measure how long each waits to run.
TrialResult run_trial(bool sentinel, int wedged) {
  RuntimeOptions o;
  o.num_workers = kWorkers;
  o.timer = TimerKind::None;  // the sentinel needs only the watchdog
  o.watchdog_period_ms = kWatchdogMs;
  o.syscall_grace_ns = kGraceNs;
  o.syscall_compensate = sentinel;
  Runtime rt(o);

  std::vector<std::array<int, 2>> pipes(wedged);
  std::vector<Thread> readers;
  for (int i = 0; i < wedged; ++i) {
    if (sys::pipe2(pipes[i].data(), 0) != 0) std::abort();
    ThreadAttrs a;
    a.home_pool = i;  // one wedge per worker
    int fd = pipes[i][0];
    readers.push_back(rt.spawn(
        [fd] {
          char c = 0;
          (void)io::read(fd, &c, 1);
        },
        a));
  }
  // Both enter the annotated read before the clock starts.
  while (rt.metrics_snapshot().syscall_blocks <
         static_cast<std::uint64_t>(wedged))
    busy_spin_ns(100'000);

  std::vector<std::atomic<std::int64_t>> started(kProbes);
  for (auto& s : started) s.store(0, std::memory_order_relaxed);
  const std::int64_t t0 = now_ns();
  std::vector<Thread> probes;
  for (int i = 0; i < kProbes; ++i)
    probes.push_back(rt.spawn([&started, i] {
      started[i].store(now_ns(), std::memory_order_release);
    }));

  // Hold the wedge for its full duration, then release the readers.
  while (now_ns() - t0 < kWedgeNs) busy_spin_ns(1'000'000);
  for (auto& p : pipes)
    if (::write(p[1], "u", 1) != 1) std::abort();
  for (auto& t : readers) t.join();
  for (auto& t : probes) t.join();

  TrialResult r;
  for (auto& s : started) {
    const double ms = (s.load(std::memory_order_acquire) - t0) / 1e6;
    if (ms > r.dispatch_ms_max) r.dispatch_ms_max = ms;
  }
  r.activated = rt.metrics_snapshot().syscall_comp_activated;
  for (auto& p : pipes) {
    ::close(p[0]);
    ::close(p[1]);
  }
  return r;
}

struct Section {
  Stats dispatch_ms;       ///< per-trial max spawn-to-run latency
  std::uint64_t activated = 0;
};

Section run_section(bool sentinel, int wedged) {
  Section s;
  for (int t = 0; t < kTrials; ++t) {
    const TrialResult r = run_trial(sentinel, wedged);
    s.dispatch_ms.add(r.dispatch_ms_max);
    s.activated += r.activated;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("syscall_comp");
  std::printf("=== Wedged-worker dispatch latency: wedge sentinel on vs off ===\n");
  std::printf("(%d workers, %d ready probes, wedge %lld ms, grace %lld ms, "
              "watchdog %d ms, %d trials)\n\n",
              kWorkers, kProbes, (long long)(kWedgeNs / 1'000'000),
              (long long)(kGraceNs / 1'000'000), kWatchdogMs, kTrials);

  const Section half_on = run_section(true, 1);
  const Section half_off = run_section(false, 1);
  const Section all_on = run_section(true, kWorkers);
  const Section all_off = run_section(false, kWorkers);

  Table table({"scenario", "sentinel", "dispatch max (median over trials)",
               "compensations"});
  const struct {
    const char* name;
    const char* mode;
    const Section* s;
  } rows[] = {{"half-wedged", "on", &half_on},
              {"half-wedged", "off", &half_off},
              {"all-wedged", "on", &all_on},
              {"all-wedged", "off", &all_off}};
  for (const auto& row : rows)
    table.add_row({row.name, row.mode,
                   Table::fmt("%8.2f ms", row.s->dispatch_ms.median()),
                   Table::fmt("%llu", (unsigned long long)row.s->activated)});
  table.print();

  // The sentinel's rescue bound: grace, then up to a couple of watchdog
  // polls to flag + activate. "Within 3 sentinel periods past the grace" is
  // the acceptance shape for the all-wedged rescue.
  const double bound_ms = (kGraceNs / 1e6) + 3.0 * kWatchdogMs;
  const double wedge_ms = kWedgeNs / 1e6;
  std::printf("\nShape checks (tolerant: this is a noisy shared container):\n");
  std::printf("  [%s] all-wedged + sentinel: probes dispatch within the "
              "rescue bound (%.2f ms <= %.0f ms)\n",
              all_on.dispatch_ms.median() <= bound_ms ? "OK" : "NOISY",
              all_on.dispatch_ms.median(), bound_ms);
  std::printf("  [%s] all-wedged without it: probes wait out the wedge "
              "(%.2f ms, wedge %.0f ms)\n",
              all_off.dispatch_ms.median() >= 0.8 * wedge_ms ? "OK" : "NOISY",
              all_off.dispatch_ms.median(), wedge_ms);
  std::printf("  [%s] half-wedged: spare capacity masks the wedge in both "
              "modes (on %.2f ms, off %.2f ms)\n",
              (half_on.dispatch_ms.median() <= bound_ms &&
               half_off.dispatch_ms.median() <= bound_ms)
                  ? "OK"
                  : "NOISY",
              half_on.dispatch_ms.median(), half_off.dispatch_ms.median());
  std::printf("  [%s] the sentinel did the rescuing (all-wedged "
              "compensations on=%llu, off=%llu)\n",
              all_on.activated > 0 && all_off.activated == 0 ? "OK" : "NOISY",
              (unsigned long long)all_on.activated,
              (unsigned long long)all_off.activated);

  json.set("config.workers", std::uint64_t(kWorkers));
  json.set("config.wedge_ms", wedge_ms);
  json.set("config.grace_ms", kGraceNs / 1e6);
  json.set("config.watchdog_ms", std::uint64_t(kWatchdogMs));
  json.set_stats("half_wedged.on.dispatch_ms", half_on.dispatch_ms);
  json.set_stats("half_wedged.off.dispatch_ms", half_off.dispatch_ms);
  json.set_stats("all_wedged.on.dispatch_ms", all_on.dispatch_ms);
  json.set_stats("all_wedged.off.dispatch_ms", all_off.dispatch_ms);
  json.set("all_wedged.on.compensations", all_on.activated);
  json.set("all_wedged.off.compensations", all_off.activated);
  json.set("all_wedged.on.latency_over_sentinel_period",
           all_on.dispatch_ms.median() / kWatchdogMs);
  json.set("all_wedged.off.latency_over_sentinel_period",
           all_off.dispatch_ms.median() / kWatchdogMs);
  json.write(bench::json_path_from_args(argc, argv));
  return 0;
}
