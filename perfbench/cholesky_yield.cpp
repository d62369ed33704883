// cholesky_yield: the paper's headline application (§4.1, Fig 7) on the real
// runtime. apps::tiled_cholesky factors a seeded SPD matrix; its GEMM tile
// kernels run inner MKL-like teams as wide as the worker count, whose masters
// wait at a spin barrier. Most of the time is in the apps/linalg kernels;
// the rest is spawn, stealing and the team barrier.
//
// The teams use the paper's reverse-engineered MKL barrier (spin with an
// explicit yield) on nonpreemptive tasks, not the faithful kSpin barrier on
// preemptive tasks: on this runtime that variant does not finish. With
// Preempt::SignalYield the tasks are preempted inside malloc (spawn
// allocates), which corrupts glibc's per-thread cache ("malloc(): unaligned
// tcache chunk detected", SIGSEGV); with Preempt::KltSwitch a worker wedges
// with runnable ULTs queued within a few dozen factorizations (watchdog:
// runnable_starvation, 0 unanswered ticks). Switch back once both are fixed.
//
// Closed loop: one external thread issues one factorization at a time.
// Request = one factorization; work unit = GFLOP (n^3/3 per factorization).
#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/cholesky/cholesky.hpp"
#include "apps/linalg/blas.hpp"
#include "common/prng.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;
/// 768 x 768: small enough for a hundred factorizations per 3 s segment.
constexpr int kTiles = 6;
constexpr int kTileN = 128;
constexpr int kInnerWidth = 4;
constexpr int kRestoreUlts = 4;
/// Per segment: p90 needs ten samples beyond it.
constexpr std::size_t kMinRequests = 100;

class CholeskyYield final : public Workload {
 public:
  explicit CholeskyYield(std::uint64_t seed) : seed_(seed) {
    copts_.tiles = kTiles;
    copts_.tile_n = kTileN;
    copts_.inner_width = kInnerWidth;
    copts_.inner_wait = lpt::apps::TeamWait::kSpinYield;
    copts_.preempt = lpt::Preempt::None;
  }

  void setup(bool traced) override {
    rt_ = std::make_unique<lpt::Runtime>(base_options(kWorkers, traced));

    const std::size_t nn = static_cast<std::size_t>(kN) * kN;
    input_.assign(nn, 0.0);
    lpt::apps::make_spd(kN, input_.data(), kN, static_cast<unsigned>(mix64(seed_)));
    work_.assign(nn, 0.0);
    // y = A x for the residual check, against the untouched input.
    lpt::Xoshiro256 rng(mix64(seed_ ^ 0x5eed));
    x_.resize(kN);
    for (double& v : x_) v = rng.next_double() - 0.5;
    y_.assign(kN, 0.0);
    for (int j = 0; j < kN; ++j)
      for (int i = 0; i < kN; ++i) y_[i] += input_[i + static_cast<std::size_t>(j) * kN] * x_[j];

    // The first factorization in a process pays page faults and stack
    // mapping; warm-up keeps that out of the measured phase.
    Phase warm;
    request(nullptr, 0, 0, &warm);
  }

  Phase run(double seconds, Spans* spans) override {
    Phase p;
    p.before = rt_->metrics_snapshot();
    p.stats_before = rt_->stats();
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t hard_stop = start + static_cast<std::int64_t>(3 * seconds * 1e9);
    std::vector<double> fact_s;
    std::int64_t due = start;
    std::uint32_t req = 0;
    for (std::int64_t now = start;
         (now < deadline || fact_s.size() < kMinRequests) && now < hard_stop;
         now = now_ns()) {
      ++req;
      fact_s.push_back(request(spans, req, due, &p));
      due = now_ns();
    }
    const std::int64_t end = now_ns();
    p.seconds = static_cast<double>(end - start) / 1e9;
    const double gflop = static_cast<double>(kN) * kN * kN / 3.0 / 1e9;
    const double med = median(fact_s);
    p.work_per_s = med > 0 ? gflop / med : 0;
    p.after = rt_->metrics_snapshot();
    p.stats_after = rt_->stats();
    p.detail = {{"gflops", p.work_per_s, "GFLOP/s"},
                {"factorization_ms_p50", med * 1e3, "ms"},
                {"factorizations", static_cast<double>(fact_s.size()), "count"},
                {"matrix_n", kN, "count"}};
    return p;
  }

  void teardown() override { rt_.reset(); }

 private:
  static constexpr int kN = kTiles * kTileN;

  /// One request: restore the input with benchmark ULTs, factor it, check
  /// it. Returns the factorization time in seconds.
  double request(Spans* spans, std::uint32_t req, std::int64_t due, Phase* p) {
    SpanScope rs(spans, SpanName::kRequest, req, 0);
    const std::int64_t send = now_ns();
    if (due != 0) p->lag_us.push_back(static_cast<double>(send - due) / 1e3);

    std::atomic<std::int64_t> first_run{0};
    {
      std::vector<lpt::Thread> ts;
      for (int u = 0; u < kRestoreUlts; ++u) {
        SpanScope ss(spans, SpanName::kSpawn, req, rs.id());
        ts.push_back(rt_->spawn([&, u, parent = rs.id()] {
          std::int64_t zero = 0;
          first_run.compare_exchange_strong(zero, now_ns(), std::memory_order_relaxed);
          SpanScope s(spans, SpanName::kRestore, req, parent);
          const std::size_t cols = (kN + kRestoreUlts - 1) / kRestoreUlts;
          const std::size_t c0 = u * cols, c1 = std::min<std::size_t>(kN, c0 + cols);
          if (c0 < c1)
            std::memcpy(&work_[c0 * kN], &input_[c0 * kN], (c1 - c0) * kN * sizeof(double));
        }));
        if (!ts.back().joinable()) ++p->failed;
      }
      for (auto& t : ts) {
        SpanScope js(spans, SpanName::kJoin, req, rs.id());
        t.join();
      }
    }
    if (due != 0 && first_run.load() != 0)
      p->send_to_run_us.push_back(static_cast<double>(first_run.load() - send) / 1e3);

    const std::int64_t t0 = now_ns();
    bool ok;
    {
      SpanScope cs(spans, SpanName::kCholesky, req, rs.id());
      ok = lpt::apps::tiled_cholesky(*rt_, copts_, work_.data(), kN);
    }
    const std::int64_t t1 = now_ns();
    {
      SpanScope cs(spans, SpanName::kCheck, req, rs.id());
      ok = ok && residual() < 1e-9;
    }
    ++p->attempted;
    if (!ok) ++p->failed;
    const double secs = static_cast<double>(t1 - t0) / 1e9;
    p->latency_us.push_back(secs * 1e6);
    return secs;
  }

  /// max|A x - L (L^T x)| / max|A x|, with L the factored lower triangle.
  double residual() const {
    std::vector<double> z(kN, 0.0), w(kN, 0.0);
    for (int j = 0; j < kN; ++j) {
      const double* col = &work_[static_cast<std::size_t>(j) * kN];
      double s = 0;
      for (int i = j; i < kN; ++i) s += col[i] * x_[i];
      z[j] = s;
    }
    for (int j = 0; j < kN; ++j) {
      const double* col = &work_[static_cast<std::size_t>(j) * kN];
      for (int i = j; i < kN; ++i) w[i] += col[i] * z[j];
    }
    double err = 0, scale = 0;
    for (int i = 0; i < kN; ++i) {
      err = std::max(err, std::fabs(y_[i] - w[i]));
      scale = std::max(scale, std::fabs(y_[i]));
    }
    return scale > 0 ? err / scale : 1.0;
  }

  std::uint64_t seed_;
  lpt::apps::TiledCholeskyOptions copts_;
  std::vector<double> input_, work_, x_, y_;
  std::unique_ptr<lpt::Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_cholesky_yield(std::uint64_t seed) {
  return std::make_unique<CholeskyYield>(seed);
}

}  // namespace perfbench
