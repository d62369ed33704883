// Tracing demo: run a small mixed workload with the scheduling tracer armed,
// write the Chrome-trace JSON, and print the text summary.
//
//   ./trace_viz [out.json]          (default: trace_viz.json)
//
// Open the JSON in https://ui.perfetto.dev (or chrome://tracing): one track
// per worker showing ULT run spans, instant markers for preemptions and
// steals, plus tracks for the monitor timer, the KLT creator, and every KLT
// that parked under KLT-switching. See docs/observability.md.
#include <cstdio>

#include <atomic>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

using namespace lpt;

namespace {
volatile std::uint64_t g_sink;

/// fib(n) as a fork/join tree spawned and joined from ULTs: each join runs
/// its unstarted child next, and the child's exit hands the worker back to
/// the joiner (DESIGN.md, "Join handoff").
long fib_tree(Runtime& rt, int n) {
  if (n < 2) return n;
  long a = 0;
  Thread t = rt.spawn([&rt, &a, n] { a = fib_tree(rt, n - 1); });
  const long b = fib_tree(rt, n - 2);
  t.join();
  return a + b;
}
}  // namespace

int main(int argc, char** argv) {
  std::string out = argc > 1 ? argv[1] : "trace_viz.json";

  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  o.trace.enabled = true;
  o.trace.file = out;  // exported automatically at runtime shutdown

  std::printf("Running a mixed workload with tracing on...\n");
  bool traced = false;
  {
    Runtime rt(o);
    traced = rt.trace_enabled();  // env LPT_TRACE=0/off can force it off
    out = rt.trace_file();        // ...and LPT_TRACE_FILE can redirect it

    // A few cooperative threads that yield in a loop.
    std::vector<Thread> coop;
    for (int i = 0; i < 3; ++i)
      coop.push_back(rt.spawn([] {
        for (int k = 0; k < 200; ++k) {
          g_sink = busy_work_iters(2'000);
          this_thread::yield();
        }
      }));

    // Compute-bound preemptive threads, one per technique (§3.1).
    ThreadAttrs sy;
    sy.preempt = Preempt::SignalYield;
    Thread t_sy = rt.spawn([] { g_sink = busy_work_iters(30'000'000); }, sy);

    ThreadAttrs ks;
    ks.preempt = Preempt::KltSwitch;
    Thread t_ks = rt.spawn([] { g_sink = busy_work_iters(30'000'000); }, ks);

    // Blocking threads exercising the sync primitives, so the trace carries
    // ult_wake causal edges (Perfetto draws them as waker→dispatch arrows)
    // and blocked-on-{mutex,condvar,semaphore} critical-path segments.
    Mutex m;
    CondVar cv;
    Semaphore sem(0);
    bool cv_go = false;
    std::vector<Thread> sync_ts;
    sync_ts.push_back(rt.spawn([&] {
      m.lock();
      while (!cv_go) cv.wait(m);
      m.unlock();
    }));
    sync_ts.push_back(rt.spawn([&] { sem.acquire(); }));
    for (int i = 0; i < 2; ++i)
      sync_ts.push_back(rt.spawn([&] {
        for (int k = 0; k < 50; ++k) {
          m.lock();
          g_sink = busy_work_iters(1'000);
          m.unlock();
          this_thread::yield();
        }
      }));
    sync_ts.push_back(rt.spawn([&] {
      g_sink = busy_work_iters(200'000);  // let the waiters park first
      m.lock();
      cv_go = true;
      cv.notify_one();
      m.unlock();
      sem.release();
    }));

    // Nested fork/join: every join in the tree comes from a ULT, so the
    // trace carries join handoffs in both directions.
    long fib12 = 0;
    Thread tree = rt.spawn([&] { fib12 = fib_tree(rt, 12); });

    for (auto& t : coop) t.join();
    t_sy.join();
    t_ks.join();
    for (auto& t : sync_ts) t.join();
    tree.join();
    std::printf("fib(12) fork/join tree: %ld\n", fib12);

    const metrics::Snapshot st = rt.metrics_snapshot();
    std::printf("\n%llu events recorded (%llu dropped), "
                "%llu preemptions observed.\n",
                static_cast<unsigned long long>(st.trace_events),
                static_cast<unsigned long long>(st.trace_dropped),
                static_cast<unsigned long long>(rt.total_preemptions()));
    rt.print_trace_summary(stdout);

    // The always-on metrics need no tracing: the same run, seen as the
    // counters a production scrape would export (docs/observability.md).
    std::printf("\nAlways-on metrics (no tracer required):\n");
    std::printf("  dispatches %llu, yields %llu, steals %llu, "
                "queue depth now %lld\n",
                static_cast<unsigned long long>(st.dispatches),
                static_cast<unsigned long long>(st.yields),
                static_cast<unsigned long long>(st.steals),
                static_cast<long long>(st.run_queue_depth));
    std::printf("  preemption pipeline: %llu ticks -> %llu handler entries "
                "(%.0f%% effective) -> %llu switches\n",
                static_cast<unsigned long long>(st.ticks_sent),
                static_cast<unsigned long long>(st.handler_entries),
                100.0 * st.tick_effectiveness(),
                static_cast<unsigned long long>(st.preemptions));
    std::printf("  watchdog: %llu checks, %llu flags\n",
                static_cast<unsigned long long>(st.watchdog_checks),
                static_cast<unsigned long long>(st.watchdog_runnable_starvation +
                                                st.watchdog_worker_stall +
                                                st.watchdog_quantum_overrun));
    std::printf("  (export with LPT_METRICS_FILE=<path> — Prometheus text, "
                "or JSON for .json paths)\n");
  }  // ~Runtime writes the Chrome trace

  if (traced && !out.empty())
    std::printf("\nTrace written to %s — load it at https://ui.perfetto.dev\n"
                "(set LPT_TRACE_EVENTS_FILE=<path> for the raw JSONL event "
                "log: the input of tools/trace_critical_path)\n",
                out.c_str());
  else
    std::printf("\nTracing was disabled (LPT_TRACE=0); no file written.\n");
  return 0;
}
