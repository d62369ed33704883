// Shared pieces of the perfbench binary: sample statistics, the workload
// interface, runtime-counter deltas and the in-memory span recorder.
//
// Everything here lives outside the runtime: the benchmark only calls the
// public lpt API, times those calls itself, and reads the public counters of
// Runtime::metrics_snapshot() / Runtime::stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace perfbench {

using lpt::now_ns;

/// Nearest-rank quantile of `v`, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-window work accumulator: a phase's throughput is the median of its
/// full windows' rates, so one stall does not move the reported figure.
class WindowedRate {
 public:
  WindowedRate(std::int64_t start_ns, std::int64_t window_ns)
      : start_ns_(start_ns), window_ns_(window_ns) {}
  /// Credit `work` done over [from_ns, to_ns), spread evenly over the
  /// windows the interval overlaps.
  void add(std::int64_t from_ns, std::int64_t to_ns, double work);
  /// Median rate (work per second) over windows that ended before `end_ns`;
  /// falls back to the whole-phase mean when no window is complete.
  double median_rate(std::int64_t end_ns) const;

 private:
  std::int64_t start_ns_;
  std::int64_t window_ns_;
  std::vector<double> work_;
};

/// Layer-qualified span names; the prefix before '.' is the layer the
/// benchmark called into (runtime, sched, sync, apps) or the benchmark's own
/// code (harness, app).
enum class SpanName : std::uint16_t {
  kRequest,      ///< harness: one whole request
  kSpawn,        ///< runtime: Runtime::spawn / spawn_detached call
  kJoin,         ///< runtime: Thread::join call
  kYield,        ///< sched: this_thread::yield call
  kLock,         ///< sync: Mutex::lock call
  kUnlock,       ///< sync: Mutex::unlock call
  kCondWait,     ///< sync: CondVar::wait call
  kNotify,       ///< sync: CondVar::notify_one call
  kBarrier,      ///< sync: Barrier::arrive_and_wait call
  kCholesky,     ///< apps: apps::tiled_cholesky call
  kRestore,      ///< app: benchmark ULT copying the input matrix
  kCheck,        ///< harness: output check
  kNode,         ///< app: one fork/join tree node body
  kProbe,        ///< app: one probe ULT body
  kSleep,        ///< harness: generator waiting for the next arrival
  kCount,
};
const char* span_name(SpanName n);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 until the span ends
  std::uint32_t parent = 0; ///< enclosing span id, 0 = none
  std::uint32_t req = 0;    ///< request id (factorization/tree/message/probe)
  std::uint16_t name = 0;
  std::int16_t worker = -1; ///< worker rank at begin, -1 = external thread
};

/// Self time of one span name, summed over its spans.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Wait-free span recorder for the traced run. Slots are preallocated in one
/// shard per worker (plus one for external threads); a span reserves its slot
/// with one fetch_add on its shard, so a ULT that migrates or is preempted
/// mid-span still owns its slot. Spans past a shard's capacity are counted
/// as dropped. Nothing is written out until the run ends.
class Spans {
 public:
  Spans();
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Open a span; returns its id (0 when the shard is full).
  std::uint32_t begin(SpanName name, std::uint32_t req, std::uint32_t parent);
  void end(std::uint32_t id);

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;
  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals inside it.
  std::vector<SelfTime> self_times() const;
  /// One line per completed span: id,parent,req,name,worker,start_ns,end_ns
  /// (times relative to the first span). False when the file cannot be
  /// written.
  bool write_csv(const std::string& path) const;

 private:
  static constexpr int kShards = 9;
  static constexpr std::uint32_t kShardCap = 1u << 16;
  struct Shard {
    std::atomic<std::uint32_t> next{0};
    std::unique_ptr<Span[]> slots;
  };
  std::vector<const Span*> completed() const;
  Shard shards_[kShards];
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span; a null recorder makes it free apart from one branch.
class SpanScope {
 public:
  SpanScope(Spans* s, SpanName name, std::uint32_t req, std::uint32_t parent)
      : s_(s), id_(s != nullptr ? s->begin(name, req, parent) : 0) {}
  ~SpanScope() {
    if (id_ != 0) s_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Spans* s_;
  std::uint32_t id_;
};

/// Outcome of one measured phase of a workload.
struct Phase {
  double seconds = 0;     ///< wall time the phase measured
  double work_per_s = 0;  ///< the workload's unit of work per second
  std::vector<double> latency_us;      ///< one sample per request
  std::vector<double> lag_us;          ///< send time minus due time
  std::vector<double> send_to_run_us;  ///< send to first ULT instruction
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Runtime counters around the phase, and tracer histograms (traced
  /// runtimes only; cumulative since construction) at both ends.
  lpt::metrics::Snapshot before, after;
  lpt::Runtime::Stats stats_before, stats_after;
  /// Workload-specific figures under the names the docs use (gflops,
  /// tasks_per_s, ...), printed for humans.
  std::vector<Metric> detail;
};

/// One benchmark workload. setup() builds the runtime and the seeded inputs
/// and warms up; run() measures; teardown() stops background work and
/// destroys the runtime (one lpt::Runtime may be active per process).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(bool traced) = 0;
  virtual Phase run(double seconds, Spans* spans) = 0;
  virtual void teardown() = 0;
  /// Runtime options shared by setup() and the traced variant.
  static lpt::RuntimeOptions base_options(int workers, bool traced);
};

std::unique_ptr<Workload> make_cholesky_yield(std::uint64_t seed);
std::unique_ptr<Workload> make_forkjoin_tiny(std::uint64_t seed);
std::unique_ptr<Workload> make_sync_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_insitu_latency(std::uint64_t seed);

/// Per-layer cost ladder measured in dedicated runtimes (ladder.cpp).
/// Sets *gemm_gflops to the single-threaded tile kernel rate.
std::vector<Metric> run_ladder(std::uint64_t seed, double* gemm_gflops);

/// Restrict the calling thread to the allowed CPUs that no worker is pinned
/// to (workers take CPUs 0..workers-1); no-op when the workers take them all.
void pin_caller(int workers);

/// Delta of a cumulative tracer histogram.
lpt::trace::HistSnapshot hist_delta(const lpt::trace::HistSnapshot& after,
                                    const lpt::trace::HistSnapshot& before);

/// Cheap 64-bit mixer for seeded per-node decisions.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
