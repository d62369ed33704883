// insitu_latency: responsiveness under compute-bound background work, the
// paper's in situ case (§4.3, Fig 4) run on the real runtime. One
// low-priority Preempt::KltSwitch hog per worker loops on malloc/free, which
// makes it KLT-dependent code (glibc's per-thread arenas), the paper's case
// for KLT-switching. An external generator spawns tiny high-priority probe
// ULTs in an open loop with seeded Poisson arrivals. A probe gets a core only
// when a tick evicts a hog, so its latency, timed from the arrival's due
// time, measures tick delivery plus the KLT-switching path (klt_pool, futex
// suspend/resume). The hogs' iteration rate is the preemption cost users pay.
//
// Arrivals are Poisson, never periodic: periodic probes at a multiple of the
// tick interval alias against the tick and swing the median from run to run.
// Latency sample = one probe, due time to its first instruction; work unit =
// one hog iteration.
#include <cerrno>
#include <cstdlib>
#include <thread>

#include "common/prng.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

/// Workers plus the generator thread fill the 4 cores the benchmark targets.
constexpr int kWorkers = 3;
constexpr double kMeanGapNs = 1e6;  ///< 1 kHz Poisson arrivals
/// The generator sleeps until this long before a due time, then spins, so
/// its own wakeup latency stays out of the probe figures (it is reported as
/// generator lag instead).
constexpr std::int64_t kSpinNs = 100'000;
constexpr std::int64_t kWindowNs = 500'000'000;

struct alignas(64) HogCounter {
  std::atomic<std::uint64_t> iters{0};
};

void sleep_until(std::int64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1'000'000'000), static_cast<long>(t_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

class InsituLatency final : public Workload {
 public:
  explicit InsituLatency(std::uint64_t seed) : seed_(seed) {}

  void setup(bool traced) override {
    lpt::RuntimeOptions o = base_options(kWorkers, traced);
    o.scheduler = lpt::SchedulerKind::Priority;
    o.timer = lpt::TimerKind::PerWorkerAligned;
    o.interval_us = 1000;
    o.initial_spare_klts = kWorkers;
    rt_ = std::make_unique<lpt::Runtime>(o);
    stop_.store(false);
    lpt::ThreadAttrs hog_attrs;
    hog_attrs.preempt = lpt::Preempt::KltSwitch;
    hog_attrs.priority = 1;
    for (int h = 0; h < kWorkers; ++h) {
      counters_[h].iters.store(0);
      hogs_.push_back(rt_->spawn([this, h] { hog(h); }, hog_attrs));
    }
    // Let the KLT pool fill and every hog get preempted a few times.
    Phase warm;
    probes(0.2, nullptr, &warm, /*phase_id=*/0);
  }

  Phase run(double seconds, Spans* spans) override {
    Phase p;
    p.before = rt_->metrics_snapshot();
    p.stats_before = rt_->stats();
    probes(seconds, spans, &p, ++phase_id_);
    p.after = rt_->metrics_snapshot();
    p.stats_after = rt_->stats();
    return p;
  }

  void teardown() override {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : hogs_) t.join();
    hogs_.clear();
    rt_.reset();
  }

 private:
  void hog(int h) {
    lpt::Xoshiro256 rng(mix64(seed_ ^ (0x40ull + h)));
    std::size_t sizes[64];
    for (auto& s : sizes) s = 16 + rng.next_below(4096);
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      auto* p = static_cast<volatile unsigned char*>(std::malloc(sizes[i & 63]));
      p[0] = static_cast<unsigned char>(i);
      sink += p[0];
      std::free(const_cast<unsigned char*>(p));
      counters_[h].iters.store(i + 1, std::memory_order_relaxed);
    }
    sink_.fetch_add(sink, std::memory_order_relaxed);
  }

  std::uint64_t hog_total() const {
    std::uint64_t n = 0;
    for (const auto& c : counters_) n += c.iters.load(std::memory_order_relaxed);
    return n;
  }

  /// Open-loop generator on the calling (external) thread for `seconds`.
  void probes(double seconds, Spans* spans, Phase* p, std::uint64_t phase_id) {
    lpt::Xoshiro256 rng(mix64(seed_ ^ (phase_id << 32)));
    const std::int64_t start = now_ns();
    const std::int64_t end_due = start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::int64_t> due, sent;
    const std::size_t cap = static_cast<std::size_t>(seconds * 1e9 / kMeanGapNs * 2) + 64;
    due.reserve(cap);
    sent.reserve(cap);
    auto ran_ns = std::make_unique<std::atomic<std::int64_t>[]>(cap);
    auto ran_count = std::make_unique<std::atomic<std::uint32_t>[]>(cap);

    std::uint64_t hog_start[kWorkers];
    for (int h = 0; h < kWorkers; ++h) hog_start[h] = counters_[h].iters.load();
    std::vector<double> window_rates;
    std::int64_t win_t = start;
    std::uint64_t win_iters = hog_total();

    lpt::ThreadAttrs probe_attrs;
    probe_attrs.priority = 0;
    std::int64_t next = start + static_cast<std::int64_t>(rng.next_exponential(kMeanGapNs));
    while (next < end_due && due.size() < cap) {
      {
        SpanScope ws(spans, SpanName::kSleep, 0, 0);
        if (next - now_ns() > kSpinNs) sleep_until(next - kSpinNs);
        while (now_ns() < next) {
        }
      }
      const std::uint32_t i = static_cast<std::uint32_t>(due.size());
      const std::int64_t send = now_ns();
      due.push_back(next);
      sent.push_back(send);
      bool ok;
      {
        SpanScope ss(spans, SpanName::kSpawn, i + 1, 0);
        ok = rt_->spawn_detached(
            [&ran_ns, &ran_count, spans, i, parent = ss.id()] {
              ran_ns[i].store(now_ns(), std::memory_order_relaxed);
              SpanScope ps(spans, SpanName::kProbe, i + 1, parent);
              ran_count[i].fetch_add(1, std::memory_order_release);
            },
            probe_attrs);
      }
      if (!ok) ran_count[i].store(1000);  // never ran: fails the check below
      const std::int64_t now = now_ns();
      if (now - win_t >= kWindowNs) {
        const std::uint64_t it = hog_total();
        window_rates.push_back(static_cast<double>(it - win_iters) * 1e9 /
                               static_cast<double>(now - win_t));
        win_t = now;
        win_iters = it;
      }
      next += static_cast<std::int64_t>(rng.next_exponential(kMeanGapNs));
    }

    // Every probe must run exactly once; give stragglers up to a second.
    const std::int64_t wait_until = now_ns() + 1'000'000'000;
    auto all_ran = [&] {
      for (std::size_t i = 0; i < due.size(); ++i)
        if (ran_count[i].load(std::memory_order_acquire) == 0) return false;
      return true;
    };
    while (!all_ran() && now_ns() < wait_until) sleep_until(now_ns() + 100'000);
    // Detached probes that never ran would still reference ran_ns/ran_count;
    // a failed check below is then fatal anyway, so wait them out.
    while (!all_ran()) sleep_until(now_ns() + 1'000'000);

    const std::int64_t stop = now_ns();
    p->seconds = static_cast<double>(stop - start) / 1e9;
    bool hogs_progressed = true;
    for (int h = 0; h < kWorkers; ++h)
      hogs_progressed = hogs_progressed && counters_[h].iters.load() > hog_start[h];
    for (std::size_t i = 0; i < due.size(); ++i) {
      ++p->attempted;
      if (ran_count[i].load() != 1) {
        ++p->failed;
        continue;
      }
      const std::int64_t r = ran_ns[i].load(std::memory_order_relaxed);
      p->latency_us.push_back(static_cast<double>(r - due[i]) / 1e3);
      p->send_to_run_us.push_back(static_cast<double>(r - sent[i]) / 1e3);
      p->lag_us.push_back(static_cast<double>(sent[i] - due[i]) / 1e3);
    }
    ++p->attempted;
    if (!hogs_progressed) ++p->failed;
    p->work_per_s = window_rates.empty()
                        ? static_cast<double>(hog_total() - win_iters) / p->seconds
                        : median(window_rates);
    p->detail = {{"bg_iters_per_s", p->work_per_s, "1/s"},
                 {"probe_us_p50", quantile(p->latency_us, 0.5), "us"},
                 {"probe_us_p99", quantile(p->latency_us, 0.99), "us"},
                 {"probe_send_to_run_us_p50", quantile(p->send_to_run_us, 0.5), "us"},
                 {"generator_lag_us_p99", quantile(p->lag_us, 0.99), "us"},
                 {"probes", static_cast<double>(due.size()), "count"}};
  }

  std::uint64_t seed_;
  std::uint64_t phase_id_ = 0;
  std::unique_ptr<lpt::Runtime> rt_;
  std::vector<lpt::Thread> hogs_;
  std::atomic<bool> stop_{false};
  HogCounter counters_[kWorkers];
  std::atomic<std::uint64_t> sink_{0};
};

}  // namespace

std::unique_ptr<Workload> make_insitu_latency(std::uint64_t seed) {
  return std::make_unique<InsituLatency>(seed);
}

}  // namespace perfbench
