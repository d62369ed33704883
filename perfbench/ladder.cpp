// Per-layer cost ladder: each row times the benchmark's own calls into one
// layer's public functions, in a runtime of its own, so a row's figure does
// not depend on the workload measured beside it. Rows run bottom-up: raw
// context switch, yield, spawn/join, mutex/condvar/barrier, one preemption
// tick under signal-yield and under KLT-switching, and the single-threaded
// tile kernel. Batch-timed rows report the median of kBatches batches.
#include <atomic>
#include <thread>

#include "apps/linalg/blas.hpp"
#include "common/prng.hpp"
#include "context/context.hpp"
#include "context/stack.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kBatches = 5;

/// Median over kBatches of (batch time / ops) in ns.
template <typename Body>
double batch_ns(int ops, Body&& body) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    body(ops);
    per_op.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(per_op);
}

/// Run `body` in one ULT of a fresh runtime and wait for it.
template <typename Body>
void in_ult(lpt::RuntimeOptions o, Body&& body) {
  lpt::Runtime rt(o);
  lpt::Thread t = rt.spawn([&] { body(rt); });
  t.join();
}

struct PingPong {
  lpt::Context main_ctx, ult_ctx;
};

void pingpong_entry(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  for (;;) lpt::context_switch(pp->ult_ctx, pp->main_ctx);
}

double context_switch_ns() {
  lpt::Stack stack(64 * 1024);
  PingPong pp;
  pp.ult_ctx = lpt::make_context(stack.base(), stack.size(), pingpong_entry, &pp);
  // One round trip is two switches.
  return batch_ns(200'000, [&](int n) {
           for (int i = 0; i < n; ++i) lpt::context_switch(pp.main_ctx, pp.ult_ctx);
         }) / 2;
}

lpt::RuntimeOptions opts(int workers) {
  return Workload::base_options(workers, /*traced=*/false);
}

/// Spin until `stop`, for the preemption rows.
void spin_until(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
  }
}

/// One preemptible spinner alone on one worker for `ms`: every tick
/// preempts it and the scheduler re-dispatches it at once, so the tracer's
/// resched / KLT round-trip histograms hold the pure cost of one preemption.
lpt::Runtime::Stats lone_spinner(lpt::Preempt kind, int ms) {
  lpt::RuntimeOptions o = Workload::base_options(1, /*traced=*/true);
  o.timer = lpt::TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  o.initial_spare_klts = 1;
  lpt::Runtime rt(o);
  std::atomic<bool> stop{false};
  lpt::ThreadAttrs a;
  a.preempt = kind;
  lpt::Thread t = rt.spawn([&] { spin_until(stop); }, a);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true);
  t.join();
  return rt.stats();
}

}  // namespace

std::vector<Metric> run_ladder(std::uint64_t seed, double* gemm_gflops) {
  std::vector<Metric> out;
  out.push_back({"context.switch_ns", context_switch_ns(), "ns"});

  // Yield with nothing else runnable, and spawn+join from a ULT (one worker).
  in_ult(opts(1), [&](lpt::Runtime& rt) {
    out.push_back({"sched.yield_ns", batch_ns(100'000, [](int n) {
                     for (int i = 0; i < n; ++i) lpt::this_thread::yield();
                   }), "ns"});
    out.push_back({"runtime.spawn_join_ns", batch_ns(20'000, [&](int n) {
                     for (int i = 0; i < n; ++i) rt.spawn([] {}).join();
                   }), "ns"});
    lpt::Mutex m;
    out.push_back({"sync.mutex_uncontended_ns", batch_ns(200'000, [&](int n) {
                     for (int i = 0; i < n; ++i) {
                       m.lock();
                       m.unlock();
                     }
                   }), "ns"});
  });

  // Spawn and join from an external thread with the default worker count
  // (the path whose wall time far exceeds its CPU time).
  {
    lpt::Runtime rt(opts(4));
    std::vector<double> spawn_ns, join_us;
    for (int i = 0; i < 4000; ++i) {
      const std::int64_t t0 = now_ns();
      lpt::Thread t = rt.spawn([] {});
      const std::int64_t t1 = now_ns();
      t.join();
      const std::int64_t t2 = now_ns();
      spawn_ns.push_back(static_cast<double>(t1 - t0));
      join_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
    out.push_back({"runtime.spawn_call_ns_p50", median(spawn_ns), "ns"});
    out.push_back({"runtime.join_wait_us_p50", median(join_us), "us"});
  }

  // Two ULTs on two workers contending on one mutex: every lock() call
  // timed, so p50 is the fast path and p99 the park/handoff slow path.
  {
    lpt::Runtime rt(opts(2));
    lpt::Mutex m;
    std::uint64_t shared = 0;
    std::atomic<std::uint64_t> sink{0};
    std::vector<double> lock_ns[2];
    const lpt::metrics::Snapshot before = rt.metrics_snapshot();
    std::vector<lpt::Thread> ts;
    for (int u = 0; u < 2; ++u)
      ts.push_back(rt.spawn([&, u] {
        lpt::Xoshiro256 rng(mix64(seed ^ u));
        std::uint64_t local = 0;
        for (int i = 0; i < 20'000; ++i) {
          const std::int64_t t0 = now_ns();
          m.lock();
          lock_ns[u].push_back(static_cast<double>(now_ns() - t0));
          shared += lpt::busy_work_iters(rng.next_below(32)) & 1;
          m.unlock();
          local += lpt::busy_work_iters(rng.next_below(64));
        }
        sink.fetch_add(local);
      }));
    for (auto& t : ts) t.join();
    const lpt::metrics::Snapshot after = rt.metrics_snapshot();
    lock_ns[0].insert(lock_ns[0].end(), lock_ns[1].begin(), lock_ns[1].end());
    out.push_back({"sync.mutex_lock_ns_p50", quantile(lock_ns[0], 0.5), "ns"});
    out.push_back({"sync.mutex_lock_ns_p99", quantile(lock_ns[0], 0.99), "ns"});
    out.push_back({"sync.blocked_ratio",
                   static_cast<double>(after.blocks - before.blocks) /
                       static_cast<double>(lock_ns[0].size()),
                   "ratio"});
  }

  // CondVar ping-pong between two ULTs on two workers; each wait() timed.
  {
    lpt::Runtime rt(opts(2));
    lpt::Mutex m;
    lpt::CondVar cv;
    int turn = 0;
    std::vector<double> wait_us;
    std::vector<lpt::Thread> ts;
    for (int u = 0; u < 2; ++u)
      ts.push_back(rt.spawn([&, u] {
        for (int i = 0; i < 5'000; ++i) {
          m.lock();
          while (turn != u) {
            const std::int64_t t0 = now_ns();
            cv.wait(m);
            if (u == 0) wait_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
          }
          turn = 1 - u;
          cv.notify_one();
          m.unlock();
        }
      }));
    for (auto& t : ts) t.join();
    out.push_back({"sync.condvar_wait_us_p50", median(wait_us), "us"});
  }

  // Four ULTs on four workers crossing one Barrier.
  {
    lpt::Runtime rt(opts(4));
    lpt::Barrier bar(4);
    std::vector<double> wait_us[4];
    std::vector<lpt::Thread> ts;
    for (int u = 0; u < 4; ++u)
      ts.push_back(rt.spawn([&, u] {
        for (int i = 0; i < 5'000; ++i) {
          const std::int64_t t0 = now_ns();
          bar.arrive_and_wait();
          wait_us[u].push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
      }));
    for (auto& t : ts) t.join();
    for (int u = 1; u < 4; ++u) wait_us[0].insert(wait_us[0].end(), wait_us[u].begin(), wait_us[u].end());
    out.push_back({"sync.barrier_wait_us_p50", median(wait_us[0]), "us"});
  }

  // One preemption tick, signal-yield then KLT-switching.
  {
    const lpt::Runtime::Stats sy = lone_spinner(lpt::Preempt::SignalYield, 150);
    out.push_back({"preempt.resched_us_p50", sy.preempt_resched_ns.percentile_ns(50) / 1e3, "us"});
    const lpt::Runtime::Stats ks = lone_spinner(lpt::Preempt::KltSwitch, 150);
    out.push_back({"preempt.klt_trip_us_p50", ks.klt_switch_trip_ns.percentile_ns(50) / 1e3, "us"});
  }

  // Single-threaded tile-sized GEMM, outside the runtime: the kernel rate
  // apps.parallel_eff divides by.
  {
    constexpr int b = 128;
    std::vector<double> a(b * b), bm(b * b), c(b * b);
    lpt::Xoshiro256 rng(mix64(seed ^ 0x9e));
    for (auto* v : {&a, &bm, &c})
      for (double& x : *v) x = rng.next_double() - 0.5;
    const double ns = batch_ns(10, [&](int n) {
      for (int i = 0; i < n; ++i)
        lpt::apps::dgemm_nt_minus(b, b, b, a.data(), b, bm.data(), b, c.data(), b);
    });
    *gemm_gflops = 2.0 * b * b * b / ns;
    out.push_back({"apps.gemm_gflops", *gemm_gflops, "GFLOP/s"});
  }
  return out;
}

}  // namespace perfbench
