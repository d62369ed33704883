// Tiled Cholesky factorization on the lpt runtime — the real-computation
// counterpart of the paper's §4.1 evaluation. The matrix is partitioned into
// square tiles; POTRF/TRSM/SYRK/GEMM tile tasks are spawned as their data
// dependences resolve (the most urgent of those a task releases runs next in
// the releasing task's ULT), and each tile kernel optionally runs an inner
// MKL-like team whose end-of-call barrier busy-waits (see apps/linalg/team).
//
// On a nonpreemptive runtime with TeamWait::kSpin this can wedge exactly the
// way the paper describes; with preemptive team threads it cannot.
#pragma once

#include <vector>

#include "apps/linalg/team.hpp"
#include "runtime/lpt.hpp"

namespace lpt::apps {

struct TiledCholeskyOptions {
  int tiles = 4;      ///< T: matrix is (T*tile_n)^2
  int tile_n = 64;
  /// Inner team width for each tile kernel; 1 = no inner parallelism.
  int inner_width = 1;
  TeamWait inner_wait = TeamWait::kSpinYield;
  Preempt preempt = Preempt::None;  ///< preemption type of all task threads
};

/// Factor the SPD matrix `a` (n x n column-major, n = tiles*tile_n, lower
/// triangle used) in place on the current lpt runtime. Must be called from a
/// non-ULT (external) thread; returns when the factorization completes.
/// Returns false if the matrix is not positive definite, or if the first
/// task could not be spawned (the matrix is then untouched). Later tasks and
/// team members whose spawn fails run inline in the spawning ULT.
bool tiled_cholesky(Runtime& rt, const TiledCholeskyOptions& opts, double* a,
                    int lda);

}  // namespace lpt::apps
