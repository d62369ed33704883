// Continuous-profiling demo: run a mixed workload with all three collectors
// armed (on-CPU sampling piggybacked on preemption ticks, off-CPU wait
// attribution, lock-contention profiling) and print the three views a
// profile consumer cares about: the top on-CPU ULTs, the hottest wait
// sites, and the most-contended locks. See docs/observability.md,
// "Profiling".
//
//   ./prof_viz [out.folded]         (default: prof_viz.folded)
//
// The folded file written at shutdown is flamegraph-ready:
//   grep -v '^#' prof_viz.folded | flamegraph.pl > prof.svg
// A .json argument switches to the full JSON report instead.
#include <dlfcn.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "prof/prof.hpp"
#include "runtime/lpt.hpp"
#include "runtime/sync.hpp"

using namespace lpt;

namespace {

volatile std::uint64_t g_sink;

std::string sym(std::uintptr_t pc) {
  if (pc == 0) return "?";
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr)
    return info.dli_sname;
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%zx", static_cast<std::size_t>(pc));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  o.prof.enabled = true;
  o.prof.file = argc > 1 ? argv[1] : "prof_viz.folded";

  std::printf("Running a mixed workload with the profiler armed...\n");
  {
    Runtime rt(o);

    Mutex hot;  // deliberately contended, held across a sleep once
    ThreadAttrs sy;
    sy.preempt = Preempt::SignalYield;
    std::vector<Thread> ts;

    // Compute-bound ULTs: these dominate the on-CPU samples.
    for (int i = 0; i < 3; ++i)
      ts.push_back(rt.spawn([] { g_sink = busy_work_iters(20'000'000); }, sy));

    // A holder that sleeps while holding: every waiter parked behind it is a
    // contention *chain* (blocked on an off-CPU holder).
    ts.push_back(rt.spawn([&hot] {
      hot.lock();
      this_thread::sleep_for(std::chrono::milliseconds(20));
      hot.unlock();
    }));

    // Lock-churning ULTs: contended acquires + off-CPU mutex waits.
    for (int i = 0; i < 4; ++i)
      ts.push_back(rt.spawn([&hot] {
        for (int k = 0; k < 50; ++k) {
          hot.lock();
          g_sink = busy_work_iters(5'000);
          hot.unlock();
          this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }));

    for (auto& t : ts) t.join();

    const prof::Collector& c = prof::Collector::instance();
    const prof::Totals totals = c.totals();
    std::printf("\nOn-CPU sampler (%s mode): %llu invocations = "
                "%llu recorded + %llu dropped\n",
                totals.sample_hz > 0 ? "hz" : "piggyback",
                static_cast<unsigned long long>(totals.invocations),
                static_cast<unsigned long long>(totals.recorded),
                static_cast<unsigned long long>(totals.dropped));

    std::printf("\nTop on-CPU ULTs (by samples):\n");
    const std::vector<prof::UltProfile> ults = c.oncpu_by_ult();
    for (std::size_t i = 0; i < ults.size() && i < 5; ++i)
      std::printf("  ult%-5u pool %u  %6llu samples  (%.1f%%)\n", ults[i].ult,
                  ults[i].pool,
                  static_cast<unsigned long long>(ults[i].samples),
                  totals.recorded ? 100.0 * static_cast<double>(ults[i].samples)
                                        / static_cast<double>(totals.recorded)
                                  : 0.0);

    std::printf("\nHottest wait sites (off-CPU time by callsite):\n");
    std::vector<prof::WaitSiteProfile> sites = c.offcpu_sites();
    std::sort(sites.begin(), sites.end(),
              [](const auto& a, const auto& b) {
                return a.total_ns > b.total_ns;
              });
    for (std::size_t i = 0; i < sites.size() && i < 5; ++i)
      std::printf("  %-9s %-28s %6llu waits  %8.2f ms total  p99 %.1f us\n",
                  prof::wait_kind_name(sites[i].kind),
                  sym(sites[i].site).c_str(),
                  static_cast<unsigned long long>(sites[i].count),
                  static_cast<double>(sites[i].total_ns) / 1e6,
                  sites[i].blocked_ns.percentile_ns(99.0) / 1e3);

    std::printf("\nMost-contended locks:\n");
    const std::vector<prof::LockProfile> locks = c.lock_profiles();
    for (std::size_t i = 0; i < locks.size() && i < 5; ++i)
      std::printf("  lock%-3d at %-28s %5llu acquires, %5llu contended, "
                  "%llu chains, hold p99 %.1f us, wait p99 %.1f us\n",
                  locks[i].id, sym(locks[i].site).c_str(),
                  static_cast<unsigned long long>(locks[i].acquires),
                  static_cast<unsigned long long>(locks[i].contended),
                  static_cast<unsigned long long>(locks[i].chains),
                  locks[i].hold_ns.percentile_ns(99.0) / 1e3,
                  locks[i].wait_ns.percentile_ns(99.0) / 1e3);
    if (totals.contention_chains > 0)
      std::printf("  (%llu waits parked behind an OFF-CPU holder — the "
                  "classic lock-holder-preempted pathology)\n",
                  static_cast<unsigned long long>(totals.contention_chains));
  }  // ~Runtime writes the profile

  std::printf("\nProfile written to %s", o.prof.file.c_str());
  std::printf("\n  validate:   build/tools/telemetry_check --profile %s",
              o.prof.file.c_str());
  std::printf("\n  flamegraph: grep -v '^#' %s | flamegraph.pl > prof.svg\n",
              o.prof.file.c_str());
  std::printf("(every view above is also exported by LPT_PROF=1 + "
              "LPT_PROF_FILE in any binary — no code changes needed)\n");
  return 0;
}
