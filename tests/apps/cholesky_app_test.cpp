// Integration tests: the real tiled Cholesky on the real preemptive runtime,
// including the paper's deadlock scenario live (§4.1).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "apps/linalg/blas.hpp"
#include "common/sys.hpp"

namespace lpt::apps {
namespace {

std::vector<double> factor_and_diff(Runtime& rt, TiledCholeskyOptions opts,
                                    double* out_diff) {
  const int n = opts.tiles * opts.tile_n;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  make_spd(n, a.data(), n, 99);
  std::vector<double> ref = a;
  EXPECT_TRUE(cholesky_reference(n, ref.data(), n));
  EXPECT_TRUE(tiled_cholesky(rt, opts, a.data(), n));
  *out_diff = lower_max_diff(n, a.data(), n, ref.data(), n);
  return a;
}

TEST(TiledCholesky, MatchesReferenceSequentialTiles) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  TiledCholeskyOptions opts;
  opts.tiles = 3;
  opts.tile_n = 16;
  double diff = 1;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
}

TEST(TiledCholesky, MatchesReferenceManyTilesManyWorkers) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  TiledCholeskyOptions opts;
  opts.tiles = 6;
  opts.tile_n = 12;
  double diff = 1;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
}

TEST(TiledCholesky, InnerTeamsWithYieldingBarrier) {
  // The "reverse-engineered MKL" configuration: nonpreemptive threads,
  // inner teams that yield while spinning.
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  TiledCholeskyOptions opts;
  opts.tiles = 4;
  opts.tile_n = 16;
  opts.inner_width = 3;
  opts.inner_wait = TeamWait::kSpinYield;
  double diff = 1;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
}

TEST(TiledCholesky, InnerSpinBarrierWithPreemption) {
  // Faithful MKL spin barriers are safe when the threads are preemptive.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  Runtime rt(o);
  TiledCholeskyOptions opts;
  opts.tiles = 4;
  opts.tile_n = 16;
  opts.inner_width = 3;
  opts.inner_wait = TeamWait::kSpin;
  opts.preempt = Preempt::KltSwitch;
  double diff = 1;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
  EXPECT_GT(rt.total_preemptions(), 0u);
}

TEST(TiledCholesky, InnerSpinBarrierDeadlocksWithoutPreemption) {
  // The live §4.1 deadlock: 1 worker, spin barrier, nonpreemptive — run in a
  // child process and require that it does NOT complete.
  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    RuntimeOptions o;
    o.num_workers = 1;
    Runtime rt(o);
    TiledCholeskyOptions opts;
    opts.tiles = 3;  // >= 3 so GEMM tasks (the teamed kernel) exist
    opts.tile_n = 8;
    opts.inner_width = 2;
    opts.inner_wait = TeamWait::kSpin;  // pure busy-wait, no yield
    const int n = opts.tiles * opts.tile_n;
    std::vector<double> a(static_cast<std::size_t>(n) * n);
    make_spd(n, a.data(), n, 5);
    tiled_cholesky(rt, opts, a.data(), n);
    _exit(0);  // unreachable if the deadlock holds
  }
  int status = 0;
  pid_t r = 0;
  for (int waited_ms = 0; waited_ms < 2000; waited_ms += 10) {
    r = waitpid(pid, &status, WNOHANG);
    ASSERT_NE(r, -1);
    if (r == pid) break;
    usleep(10'000);
  }
  EXPECT_EQ(r, 0) << "spin-barrier Cholesky unexpectedly completed without "
                     "preemption";
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
}

TEST(TiledCholesky, BlockingTeamBarrierAlsoWorks)
{
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  TiledCholeskyOptions opts;
  opts.tiles = 3;
  opts.tile_n = 16;
  opts.inner_width = 2;
  opts.inner_wait = TeamWait::kBlocking;
  double diff = 1;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
}

TEST(TiledCholesky, ChainTasksRunAsContinuations) {
  // A finished task runs its most urgent newly ready dependent in its own
  // ULT rather than spawning it, so the 56 tasks of a 6 x 6 tiling take
  // fewer spawns. One worker keeps the count deterministic.
  TiledCholeskyOptions opts;
  opts.tiles = 6;
  opts.tile_n = 16;
  opts.inner_width = 1;
  double diff = 1;
  {
    RuntimeOptions o;
    o.num_workers = 1;
    Runtime rt(o);
    const std::uint64_t before = rt.metrics_snapshot().ults_spawned;
    factor_and_diff(rt, opts, &diff);
    EXPECT_LT(diff, 1e-9);
    EXPECT_LT(rt.metrics_snapshot().ults_spawned - before, 56u);
  }
  // Wider: continuations beside spawned tasks and inner teams on 4 workers.
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  opts.inner_width = 4;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
}

TEST(TiledCholesky, FinishesWhenSpawnsFail) {
  // Once the stack pool runs dry every spawn fails. A task or team member
  // whose spawn fails runs inline in the spawning ULT, so the factorization
  // still finishes, and correctly. Only one stack can ever be mapped: the
  // first task's. A fresh runtime caches no stack, and that task spawns its
  // successors while it still runs on its own, so their first spawn fails.
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  ASSERT_TRUE(sys::configure_faults("mmap:after=1,every=1"));
  TiledCholeskyOptions opts;
  opts.tiles = 6;
  opts.tile_n = 32;
  opts.inner_width = 4;
  double diff = 1;
  factor_and_diff(rt, opts, &diff);
  EXPECT_LT(diff, 1e-9);
  EXPECT_GT(rt.metrics_snapshot().spawn_stack_failures, 0u);
  sys::reset_faults();
}

}  // namespace
}  // namespace lpt::apps
