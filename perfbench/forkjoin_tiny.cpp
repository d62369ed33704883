// forkjoin_tiny: seeded irregular fork/join trees of near-empty ULTs. Each
// tree computes fib(kN) the classic fork/join way (spawn fib(n-1), recurse on
// fib(n-2) inline, join), but every node draws its own serial cutoff from a
// seeded hash, so tree shapes differ from tree to tree. All trees share one
// n: tree latency is then unimodal, whereas a mix of sizes puts p50 between
// the sizes' modes, where it jumps with the seed's exact mix. Preempt::None, no
// timer: the load is spawn, stack reuse, stealing, join wakeup and the idle
// nap -- the runtime, context and sched layers with no kernels and no ticks.
//
// Closed loop: one external caller spawns a tree's root and joins it before
// issuing the next. Request = one tree; work unit = one spawned ULT.
#include <cmath>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Two workers plus the caller leave one of the 4 cores free. At 4 workers
/// (5 threads on 4 cores, and every spawn wakes all napping workers) the
/// tree p90 spread from run to run was 0.34 (IQR over median, five seeds) on
/// a shared 4-vCPU host, against 0.05-0.06 at 2 workers, which run the trees
/// as fast: these trees barely scale past 2 workers.
constexpr int kWorkers = 2;
constexpr int kN = 17;
/// Spans are recorded for one tree in kSpanEvery (traced run only).
constexpr std::uint32_t kSpanEvery = 16;
/// Per segment: p90 needs ten samples beyond it.
constexpr std::size_t kMinRequests = 100;

struct NodeResult {
  std::uint64_t fib = 0;
  std::uint64_t tasks = 0;  ///< ULTs spawned for this subtree
};

std::uint64_t fib_serial(int n) { return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2); }

/// Binet's closed form, exact in double precision for the sizes used here.
std::uint64_t fib_closed(int n) {
  const double phi = (1 + std::sqrt(5.0)) / 2;
  return static_cast<std::uint64_t>(std::llround(std::pow(phi, n) / std::sqrt(5.0)));
}

class ForkJoinTiny final : public Workload {
 public:
  explicit ForkJoinTiny(std::uint64_t seed) : seed_(seed) {}

  void setup(bool traced) override {
    // Left to the OS, the caller sometimes shared a worker's core for the
    // whole process, which ran the trees ~20% faster or slower than on a
    // core of its own, depending on the process.
    pin_caller(kWorkers);
    rt_ = std::make_unique<lpt::Runtime>(base_options(kWorkers, traced));
    spawn_failures_.store(0);
    // Warm the stack cache and the workers' queues.
    Phase warm;
    for (std::uint32_t r = 1; r <= 4; ++r) tree(nullptr, r, 0, &warm);
  }

  Phase run(double seconds, Spans* spans) override {
    Phase p;
    p.before = rt_->metrics_snapshot();
    p.stats_before = rt_->stats();
    spawn_failures_.store(0);
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    WindowedRate rate(start, 500'000'000);
    std::uint64_t tasks = 0;
    std::int64_t due = start;
    for (std::uint32_t req = 1;
         now_ns() < deadline || p.latency_us.size() < kMinRequests; ++req) {
      const std::int64_t begin = now_ns();
      const std::uint64_t t = tree(req % kSpanEvery == 0 ? spans : nullptr, req, due, &p);
      due = now_ns();
      rate.add(begin, due, static_cast<double>(t));
      tasks += t;
    }
    const std::int64_t end = now_ns();
    p.failed += spawn_failures_.load();
    p.seconds = static_cast<double>(end - start) / 1e9;
    p.work_per_s = rate.median_rate(end);
    p.after = rt_->metrics_snapshot();
    p.stats_after = rt_->stats();
    p.detail = {{"tasks_per_s", p.work_per_s, "1/s"},
                {"tree_us_p50", quantile(p.latency_us, 0.5), "us"},
                {"tree_us_p99", quantile(p.latency_us, 0.99), "us"},
                {"trees", static_cast<double>(p.latency_us.size()), "count"},
                {"tasks_per_tree", static_cast<double>(tasks) /
                                       static_cast<double>(p.latency_us.size()), "count"}};
    return p;
  }

  void teardown() override { rt_.reset(); }

 private:
  /// One request: spawn the root from this external thread, join, check.
  /// Returns the number of ULTs the tree spawned.
  std::uint64_t tree(Spans* spans, std::uint32_t req, std::int64_t due, Phase* p) {
    const std::uint64_t h = mix64(seed_ ^ (static_cast<std::uint64_t>(req) << 20));
    const int n = kN;
    SpanScope rs(spans, SpanName::kRequest, req, 0);
    const std::int64_t send = now_ns();
    std::int64_t first_run = 0;
    NodeResult res;
    {
      SpanScope ss(spans, SpanName::kSpawn, req, rs.id());
      lpt::Thread root = rt_->spawn([&, parent = ss.id()] {
        first_run = now_ns();
        res = node(n, mix64(h), spans, req, parent);
      });
      if (!root.joinable()) spawn_failures_.fetch_add(1, std::memory_order_relaxed);
      SpanScope js(spans, SpanName::kJoin, req, rs.id());
      root.join();
    }
    const std::int64_t done = now_ns();
    ++p->attempted;
    if (res.fib != fib_closed(n)) ++p->failed;
    if (due != 0) {
      p->lag_us.push_back(static_cast<double>(send - due) / 1e3);
      p->latency_us.push_back(static_cast<double>(done - send) / 1e3);
      if (first_run != 0) p->send_to_run_us.push_back(static_cast<double>(first_run - send) / 1e3);
    }
    return res.tasks + 1;
  }

  NodeResult node(int n, std::uint64_t h, Spans* spans, std::uint32_t req,
                  std::uint32_t parent) {
    SpanScope ns(spans, SpanName::kNode, req, parent);
    const int cut = 2 + static_cast<int>(h % 4);
    if (n <= cut) return {fib_serial(n), 0};
    NodeResult right, left;
    lpt::Thread t;
    {
      SpanScope ss(spans, SpanName::kSpawn, req, ns.id());
      t = rt_->spawn([&, child_parent = ss.id()] {
        right = node(n - 1, mix64(h + 1), spans, req, child_parent);
      });
    }
    const bool spawned = t.joinable();
    if (!spawned) {
      spawn_failures_.fetch_add(1, std::memory_order_relaxed);
      right = node(n - 1, mix64(h + 1), spans, req, ns.id());
    }
    left = node(n - 2, mix64(h + 2), spans, req, ns.id());
    {
      SpanScope js(spans, SpanName::kJoin, req, ns.id());
      t.join();
    }
    return {left.fib + right.fib, left.tasks + right.tasks + (spawned ? 1 : 0)};
  }

  std::uint64_t seed_;
  std::atomic<std::uint64_t> spawn_failures_{0};
  std::unique_ptr<lpt::Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_forkjoin_tiny(std::uint64_t seed) {
  return std::make_unique<ForkJoinTiny>(seed);
}

}  // namespace perfbench
