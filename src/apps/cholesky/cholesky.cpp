#include "apps/cholesky/cholesky.hpp"

#include <atomic>
#include <memory>
#include <utility>

#include "apps/linalg/blas.hpp"
#include "common/assert.hpp"

namespace lpt::apps {

namespace {

enum class Op : std::uint8_t { kPotrf, kTrsm, kSyrk, kGemm };

struct TileTask {
  Op op;
  int k = 0, m = 0, n = 0;
  std::atomic<int> deps{0};
  std::vector<int> dependents;
};

struct Factorization {
  Runtime* rt = nullptr;
  const TiledCholeskyOptions* opts = nullptr;
  double* a = nullptr;
  int lda = 0;

  std::vector<std::unique_ptr<TileTask>> tasks;
  std::vector<int> potrf_id, trsm_id, syrk_id, gemm_id;
  std::atomic<int> remaining{0};
  std::atomic<bool> failed{false};
  FutexEvent all_done;

  double* tile(int i, int j) const {
    return a + static_cast<std::size_t>(i) * opts->tile_n +
           static_cast<std::size_t>(j) * opts->tile_n * lda;
  }

  int add(Op op, int k, int m, int n) {
    auto t = std::make_unique<TileTask>();
    t->op = op;
    t->k = k;
    t->m = m;
    t->n = n;
    tasks.push_back(std::move(t));
    return static_cast<int>(tasks.size()) - 1;
  }

  void edge(int from, int to) {
    tasks[from]->dependents.push_back(to);
    tasks[to]->deps.fetch_add(1, std::memory_order_relaxed);
  }

  void build() {
    const int T = opts->tiles;
    potrf_id.assign(T, -1);
    trsm_id.assign(T * T, -1);
    syrk_id.assign(T * T, -1);
    gemm_id.assign(T * T * T, -1);
    for (int k = 0; k < T; ++k) {
      potrf_id[k] = add(Op::kPotrf, k, k, k);
      for (int m = k + 1; m < T; ++m) trsm_id[m * T + k] = add(Op::kTrsm, k, m, k);
      for (int m = k + 1; m < T; ++m) syrk_id[m * T + k] = add(Op::kSyrk, k, m, m);
      for (int m = k + 2; m < T; ++m)
        for (int n = k + 1; n < m; ++n)
          gemm_id[(m * T + n) * T + k] = add(Op::kGemm, k, m, n);
    }
    for (int k = 0; k < T; ++k) {
      if (k > 0) edge(syrk_id[k * T + (k - 1)], potrf_id[k]);
      for (int m = k + 1; m < T; ++m) {
        edge(potrf_id[k], trsm_id[m * T + k]);
        if (k > 0) edge(gemm_id[(m * T + k) * T + (k - 1)], trsm_id[m * T + k]);
        edge(trsm_id[m * T + k], syrk_id[m * T + k]);
        if (k > 0) edge(syrk_id[m * T + (k - 1)], syrk_id[m * T + k]);
        for (int n = k + 1; n < m; ++n) {
          edge(trsm_id[m * T + k], gemm_id[(m * T + n) * T + k]);
          edge(trsm_id[n * T + k], gemm_id[(m * T + n) * T + k]);
          if (k > 0)
            edge(gemm_id[(m * T + n) * T + (k - 1)], gemm_id[(m * T + n) * T + k]);
        }
      }
    }
    remaining.store(static_cast<int>(tasks.size()), std::memory_order_relaxed);
  }

  /// Execute one tile kernel, optionally over an inner MKL-like team that
  /// splits the row range and joins at a busy-wait barrier.
  void execute(TileTask& t) {
    const int b = opts->tile_n;
    switch (t.op) {
      case Op::kPotrf: {
        if (!dpotrf_lower(b, tile(t.k, t.k), lda)) failed.store(true);
        break;
      }
      case Op::kTrsm: {
        dtrsm_rltn(b, b, tile(t.k, t.k), lda, tile(t.m, t.k), lda);
        break;
      }
      case Op::kSyrk: {
        dsyrk_ln_minus(b, b, tile(t.m, t.k), lda, tile(t.m, t.m), lda);
        break;
      }
      case Op::kGemm: {
        // Split rows across the inner team (this is the parallel-heavy op).
        if (opts->inner_width > 1) {
          TeamOptions to;
          to.width = opts->inner_width;
          to.wait = opts->inner_wait;
          to.preempt = opts->preempt;
          const int rows = b, per = (rows + to.width - 1) / to.width;
          double* c = tile(t.m, t.n);
          const double* ta = tile(t.m, t.k);
          const double* tb = tile(t.n, t.k);
          team_parallel(to, [&](int rank) {
            const int r0 = rank * per;
            const int r1 = std::min(rows, r0 + per);
            if (r0 < r1)
              dgemm_nt_minus(r1 - r0, b, b, ta + r0, lda, tb, lda, c + r0, lda);
          });
        } else {
          dgemm_nt_minus(b, b, b, tile(t.m, t.k), lda, tile(t.n, t.k), lda,
                         tile(t.m, t.n), lda);
        }
        break;
      }
    }
  }

  /// False when the spawn failed (no stack could be had).
  bool spawn_task(int id) {
    ThreadAttrs attrs;
    attrs.preempt = opts->preempt;
    return rt->spawn_detached([this, id] { run_task(id); }, attrs);
  }

  /// Rank on the critical path, 0 the most urgent. Step k's serial chain is
  /// POTRF(k) -> TRSM(k+1,k) -> SYRK(k+1,k) -> POTRF(k+1), and the GEMMs
  /// into column k+1 feed step k+1's TRSMs; every other task ranks last.
  static int urgency(const TileTask& t) {
    switch (t.op) {
      case Op::kPotrf: return 0;
      case Op::kTrsm: return t.m == t.k + 1 ? 1 : 4;
      case Op::kSyrk: return t.m == t.k + 1 ? 2 : 4;
      case Op::kGemm: return t.n == t.k + 1 ? 3 : 4;
    }
    return 4;
  }

  /// Runs task `id`, then, in the same ULT, the most urgent of the
  /// dependents it made ready, and so on: a chain task starts as soon as
  /// its predecessor ends instead of queueing behind the spawned GEMMs.
  /// Every other newly ready dependent is spawned.
  void run_task(int id) {
    while (id >= 0) {
      TileTask& t = *tasks[id];
      execute(t);
      int next = -1;
      for (int dep : t.dependents) {
        if (tasks[dep]->deps.fetch_sub(1, std::memory_order_acq_rel) != 1) continue;
        if (next < 0 || urgency(*tasks[dep]) < urgency(*tasks[next])) std::swap(next, dep);
        // A task whose spawn fails would never count down `remaining`: run
        // it here instead.
        if (dep >= 0 && !spawn_task(dep)) run_task(dep);
      }
      // A held `next` is still counted in `remaining`, so this reaches zero
      // only when there is none: nothing touches `this` after the set, and
      // the caller may free it at once.
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) all_done.set();
      id = next;
    }
  }
};

}  // namespace

bool tiled_cholesky(Runtime& rt, const TiledCholeskyOptions& opts, double* a,
                    int lda) {
  LPT_CHECK(!this_thread::in_ult());
  LPT_CHECK(opts.tiles >= 1 && opts.tile_n >= 1);

  Factorization f;
  f.rt = &rt;
  f.opts = &opts;
  f.a = a;
  f.lda = lda;
  f.build();
  if (!f.spawn_task(f.potrf_id[0])) return false;
  f.all_done.wait();
  return !f.failed.load();
}

}  // namespace lpt::apps
