// Microbenchmarks of the threading primitives (google-benchmark): the
// "about one hundred cycles" context switch (§2.1), fork/join, yield, and
// synchronization costs on this host's real runtime; plus the Cholesky tile
// kernels the threads run, per compiled variant.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "apps/linalg/blas.hpp"
#include "common/prng.hpp"
#include "context/context.hpp"
#include "context/stack.hpp"
#include "runtime/lpt.hpp"

namespace {

using namespace lpt;

// --- raw user-level context switch ---------------------------------------

struct PingPongCtx {
  Context main_ctx;
  Context ult_ctx;
  bool stop = false;
};

void pingpong_entry(void* arg) {
  auto* pp = static_cast<PingPongCtx*>(arg);
  for (;;) context_switch(pp->ult_ctx, pp->main_ctx);
}

void BM_ContextSwitchRoundTrip(benchmark::State& state) {
  Stack stack(64 * 1024);
  PingPongCtx pp;
  pp.ult_ctx = make_context(stack.base(), stack.size(), pingpong_entry, &pp);
  for (auto _ : state) {
    context_switch(pp.main_ctx, pp.ult_ctx);  // in + out = 2 switches
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ContextSwitchRoundTrip);

// --- runtime operations ----------------------------------------------------

void BM_SpawnJoin(benchmark::State& state) {
  Runtime rt{RuntimeOptions{}};
  for (auto _ : state) {
    Thread t = rt.spawn([] {});
    t.join();
  }
}
BENCHMARK(BM_SpawnJoin);

void BM_SpawnJoinBatch64(benchmark::State& state) {
  Runtime rt{RuntimeOptions{}};
  for (auto _ : state) {
    std::vector<Thread> ts;
    ts.reserve(64);
    for (int i = 0; i < 64; ++i) ts.push_back(rt.spawn([] {}));
    for (auto& t : ts) t.join();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpawnJoinBatch64);

/// Run the benchmark's timed loop inside a ULT (the operations under test
/// are only legal in ULT context).
template <typename Body>
void run_in_ult(benchmark::State& state, Body&& body, int workers = 1) {
  RuntimeOptions o;
  o.num_workers = workers;
  Runtime rt(o);
  Thread t = rt.spawn([&] { body(state, rt); });
  t.join();
}

void BM_YieldEmptyQueue(benchmark::State& state) {
  // Yield with nothing else runnable: a scheduler round trip (2 switches +
  // pool traffic).
  run_in_ult(state, [](benchmark::State& s, Runtime&) {
    for (auto _ : s) this_thread::yield();
  });
}
BENCHMARK(BM_YieldEmptyQueue);

void BM_YieldPingPong(benchmark::State& state) {
  // Two ULTs alternating on one worker: the §2.1 "costs only about one
  // hundred cycles" path, through the full scheduler.
  run_in_ult(state, [](benchmark::State& s, Runtime& rt) {
    std::atomic<bool> stop{false};
    Thread peer = rt.spawn([&] {
      while (!stop.load(std::memory_order_relaxed)) this_thread::yield();
    });
    for (auto _ : s) this_thread::yield();
    stop.store(true);
    peer.join();
  });
}
BENCHMARK(BM_YieldPingPong);

void BM_MutexLockUnlockUncontended(benchmark::State& state) {
  run_in_ult(state, [](benchmark::State& s, Runtime&) {
    Mutex m;
    for (auto _ : s) {
      m.lock();
      m.unlock();
    }
  });
}
BENCHMARK(BM_MutexLockUnlockUncontended);

void BM_SpawnJoinFromUlt(benchmark::State& state) {
  run_in_ult(state, [](benchmark::State& s, Runtime& rt) {
    for (auto _ : s) {
      Thread t = rt.spawn([] {});
      t.join();
    }
  });
}
BENCHMARK(BM_SpawnJoinFromUlt);

void BM_BarrierTwoParties(benchmark::State& state) {
  run_in_ult(
      state,
      [](benchmark::State& s, Runtime& rt) {
        // Two barriers per round so the termination flag is published
        // between them: the peer's post-round check is then synchronized
        // with the round in which the flag was set (a single barrier would
        // race the last-arriver's flag store against the waking check).
        Barrier bar(2);
        std::atomic<bool> stop{false};
        Thread peer = rt.spawn([&] {
          for (;;) {
            bar.arrive_and_wait();
            bar.arrive_and_wait();
            if (stop.load(std::memory_order_acquire)) break;
          }
        });
        for (auto _ : s) {
          bar.arrive_and_wait();
          bar.arrive_and_wait();
        }
        bar.arrive_and_wait();
        stop.store(true, std::memory_order_release);
        bar.arrive_and_wait();
        peer.join();
        s.SetItemsProcessed(s.iterations() * 2);  // two crossings per round
      },
      2);
}
BENCHMARK(BM_BarrierTwoParties);

// --- continuous-profiler overhead (docs/observability.md, "Profiling") ----

/// run_in_ult with explicit options and SignalYield ULTs, so the piggyback
/// sampler actually fires in the profiled variants.
template <typename Body>
void run_in_ult_opts(benchmark::State& state, RuntimeOptions o, Body&& body) {
  Runtime rt(o);
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  Thread t = rt.spawn([&] { body(state, rt); }, sy);
  t.join();
}

RuntimeOptions prof_bench_opts(bool prof_on) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  o.prof.enabled = prof_on;
  return o;
}

void BM_YieldPingPongProf(benchmark::State& state) {
  // Arg 0/1 = profiler off/on, otherwise identical (timer armed, SignalYield
  // ULTs): the pair is the sampler-overhead measurement the acceptance bar
  // in docs/observability.md quotes — piggyback sampling must stay in the
  // noise, since it adds work only to ticks that already interrupt the ULT.
  run_in_ult_opts(
      state, prof_bench_opts(state.range(0) != 0),
      [](benchmark::State& s, Runtime& rt) {
        std::atomic<bool> stop{false};
        ThreadAttrs sy;
        sy.preempt = Preempt::SignalYield;
        Thread peer = rt.spawn(
            [&] {
              while (!stop.load(std::memory_order_relaxed))
                this_thread::yield();
            },
            sy);
        for (auto _ : s) this_thread::yield();
        stop.store(true);
        peer.join();
      });
  state.SetLabel(state.range(0) != 0 ? "prof=piggyback" : "prof=off");
}
BENCHMARK(BM_YieldPingPongProf)->Arg(0)->Arg(1);

void BM_MutexLockUnlockProf(benchmark::State& state) {
  // Uncontended lock/unlock with the lock-contention profiler off/on: the
  // "on" delta is the full instrumentation cost on the fast path (gate load
  // + acquire/owner/hold-start notes); "off" must match the plain
  // BM_MutexLockUnlockUncontended above.
  run_in_ult_opts(state, prof_bench_opts(state.range(0) != 0),
                  [](benchmark::State& s, Runtime&) {
                    Mutex m;
                    for (auto _ : s) {
                      m.lock();
                      m.unlock();
                    }
                  });
  state.SetLabel(state.range(0) != 0 ? "prof=on" : "prof=off");
}
BENCHMARK(BM_MutexLockUnlockProf)->Arg(0)->Arg(1);

void BM_SpawnJoinProf(benchmark::State& state) {
  run_in_ult_opts(state, prof_bench_opts(state.range(0) != 0),
                  [](benchmark::State& s, Runtime& rt) {
                    for (auto _ : s) {
                      Thread t = rt.spawn([] {});
                      t.join();
                    }
                  });
  state.SetLabel(state.range(0) != 0 ? "prof=on" : "prof=off");
}
BENCHMARK(BM_SpawnJoinProf)->Arg(0)->Arg(1);

// --- causal-accounting overhead (docs/observability.md, "Causal tracing") --

void BM_YieldPingPongTraced(benchmark::State& state) {
  // Arg 0/1 = tracer off/on. "On" buys the full lifecycle accounting —
  // ready stamps at every enqueue, episode folding at every switch, the
  // per-pool scheduling-delay histogram at every dispatch — so the pair is
  // the accounting-overhead measurement: the yield path must stay within
  // noise of the untraced run (the off path pays one relaxed flag load).
  const bool traced = state.range(0) != 0;
  RuntimeOptions o;
  o.num_workers = 1;
  o.trace.enabled = traced;
  o.trace.ring_capacity = 1u << 12;  // drops are fine: histograms still record
  Runtime rt(o);
  Thread main_ult = rt.spawn([&] {
    std::atomic<bool> stop{false};
    Thread peer = rt.spawn([&] {
      while (!stop.load(std::memory_order_relaxed)) this_thread::yield();
    });
    for (auto _ : state) this_thread::yield();
    stop.store(true);
    peer.join();
  });
  main_ult.join();
  if (traced) {
    const metrics::Snapshot st = rt.metrics_snapshot();
    state.counters["sched_delay_p50_ns"] = st.sched_delay_ns.percentile_ns(50.0);
    state.counters["sched_delay_p99_ns"] = st.sched_delay_ns.percentile_ns(99.0);
    state.counters["sched_delay_p999_ns"] =
        st.sched_delay_ns.percentile_ns(99.9);
  }
  state.SetLabel(traced ? "trace=on" : "trace=off");
}
BENCHMARK(BM_YieldPingPongTraced)->Arg(0)->Arg(1);

void BM_SpawnJoinTraced(benchmark::State& state) {
  // Spawn→first-dispatch latency distribution, measured by the accounting
  // itself (one histogram record per ULT at its first dispatch).
  const bool traced = state.range(0) != 0;
  RuntimeOptions o;
  o.num_workers = 1;
  o.trace.enabled = traced;
  o.trace.ring_capacity = 1u << 12;
  Runtime rt(o);
  for (auto _ : state) {
    Thread t = rt.spawn([] {});
    t.join();
  }
  if (traced) {
    const metrics::Snapshot st = rt.metrics_snapshot();
    state.counters["spawn_latency_p50_ns"] =
        st.spawn_latency_ns.percentile_ns(50.0);
    state.counters["spawn_latency_p99_ns"] =
        st.spawn_latency_ns.percentile_ns(99.0);
    state.counters["spawn_latency_p999_ns"] =
        st.spawn_latency_ns.percentile_ns(99.9);
  }
  state.SetLabel(traced ? "trace=on" : "trace=off");
}
BENCHMARK(BM_SpawnJoinTraced)->Arg(0)->Arg(1);

// --- Cholesky tile kernels, one 128 x 128 tile per call -------------------
//
// Arg: 0 = baseline x86-64 variant, 1 = AVX2+FMA variant, 2 = AVX-512F
// variant (1 and 2 skip with an error on a CPU without their features).
// Single-threaded, outside the runtime. TRSM and POTRF work in place, so
// their input is restored outside the timed region.
//
// The plain rows time contiguous tiles (leading dimension 128). The
// `_lda768` rows take every operand as a tile of one 768 x 768 matrix, the
// layout apps::tiled_cholesky runs: each column step is then 6 KiB, so the
// columns of an unpacked operand map onto a few L1 sets and conflict.

enum class TileOp { kGemm, kSyrk, kTrsm, kPotrf };

void BM_TileKernel(benchmark::State& state, TileOp op, int ld) {
  const int variant = static_cast<int>(state.range(0));
  if (variant == 1 && !apps::detail::avx2_supported()) {
    state.SkipWithError("CPU lacks AVX2/FMA");
    return;
  }
  if (variant == 2 && !apps::detail::avx512_supported()) {
    state.SkipWithError("CPU lacks AVX-512F/AVX2/FMA");
    return;
  }
  const apps::detail::BlasKernels& k = variant == 2   ? apps::detail::kAvx512Kernels
                                       : variant == 1 ? apps::detail::kAvx2Kernels
                                                      : apps::detail::kBaselineKernels;
  constexpr int b = 128;
  // The operands L, A, B and C: with ld == b, four contiguous b x b blocks;
  // otherwise tiles (0,0), (1,0), (2,0) and (2,1) of one ld x ld matrix.
  const std::size_t tile_len = static_cast<std::size_t>(ld) * b;
  std::vector<double> mat(ld == b ? 4 * tile_len : tile_len * (ld / b));
  auto tile = [&](int slot, int i, int j) {
    return ld == b ? mat.data() + slot * tile_len : mat.data() + i * b + j * tile_len;
  };
  double* l = tile(0, 0, 0);
  double* a = tile(1, 1, 0);
  double* bm = tile(2, 2, 0);
  double* c = tile(3, 2, 1);
  Xoshiro256 rng(1);
  for (double& x : mat) x = rng.next_double() - 0.5;
  apps::make_spd(b, l, ld, 2);
  apps::dpotrf_lower(b, l, ld);  // a well-conditioned L for TRSM
  std::vector<double> a0(b * b);
  for (int j = 0; j < b; ++j) std::copy_n(a + j * ld, b, a0.data() + j * b);
  double flops = 0;
  for (auto _ : state) {
    switch (op) {
      case TileOp::kGemm:
        k.gemm(b, b, b, a, ld, bm, ld, c, ld);
        benchmark::DoNotOptimize(c);
        flops = 2.0 * b * b * b;
        break;
      case TileOp::kSyrk:
        k.syrk(b, b, a, ld, c, ld);
        benchmark::DoNotOptimize(c);
        flops = 1.0 * b * b * b;
        break;
      case TileOp::kTrsm:
        state.PauseTiming();
        for (int j = 0; j < b; ++j) std::copy_n(a0.data() + j * b, b, bm + j * ld);
        state.ResumeTiming();
        k.trsm(b, b, l, ld, bm, ld);
        benchmark::DoNotOptimize(bm);
        flops = 1.0 * b * b * b;
        break;
      case TileOp::kPotrf:
        state.PauseTiming();
        apps::make_spd(b, c, ld, 3);
        state.ResumeTiming();
        benchmark::DoNotOptimize(k.potrf(b, c, ld));
        flops = b * b * b / 3.0;
        break;
    }
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP"] = benchmark::Counter(
      flops / 1e9 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetLabel(k.name);
}
BENCHMARK_CAPTURE(BM_TileKernel, gemm, TileOp::kGemm, 128)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, syrk, TileOp::kSyrk, 128)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, trsm, TileOp::kTrsm, 128)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, potrf, TileOp::kPotrf, 128)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, gemm_lda768, TileOp::kGemm, 768)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, syrk_lda768, TileOp::kSyrk, 768)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, trsm_lda768, TileOp::kTrsm, 768)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_CAPTURE(BM_TileKernel, potrf_lda768, TileOp::kPotrf, 768)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): accept the same `--json <path>`
// flag as the other bench binaries by mapping it onto google-benchmark's
// native JSON reporter (--benchmark_out).
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string(argv[i]) == "--json") {
      out_flag = std::string("--benchmark_out=") + argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
