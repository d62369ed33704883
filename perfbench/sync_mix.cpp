// sync_mix: the one workload where the sync layer dominates. Each request
// (a "round") spawns a fixed set of eight ULTs that run a seeded operation
// mix through kPhases Barrier phases, with no timer:
//   * four lockers: uncontended sections on their private Mutex (the fast
//     path), sections on two hot shared Mutexes (park and direct-handoff
//     slow path), and explicit yields;
//   * two producers and two consumers passing messages through a bounded
//     Mutex + CondVar queue (the blocking path).
// Fast path and blocking path run side by side, so a fast-path gain that
// costs the slow path shows up in msg latency.
//
// Closed loop: one external caller issues a round and joins it before the
// next. Latency sample = one message, enqueue call to dequeue; work unit =
// one sync operation (critical section, yield, enqueue, dequeue, barrier
// arrival).
#include <array>

#include "common/prng.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kLockers = 4, kProducers = 2, kConsumers = 2;
constexpr int kUlts = kLockers + kProducers + kConsumers;
constexpr int kHot = 2;
constexpr int kPhases = 8;
constexpr int kLockOps = 256;  ///< per locker per phase
constexpr int kMsgs = 128;     ///< per phase, split evenly over producers/consumers
constexpr std::size_t kQueueCap = 8;
constexpr std::uint32_t kSpanEvery = 128;
/// Latency is sampled on one message in kLatencyEvery (ids are global).
constexpr std::uint32_t kLatencyEvery = 64;

struct Msg {
  std::int64_t enq_ns = 0;
  std::uint64_t payload = 0;
  std::uint32_t id = 0;
};

/// What one ULT of a round did; summed by the harness for the checks.
struct UltResult {
  std::uint64_t ops = 0;
  std::array<std::uint64_t, kHot> hot_issued{};
  std::uint64_t priv_issued = 0;
  std::uint64_t msgs = 0;
  std::uint64_t payload_sum = 0;
  std::uint64_t sink = 0;  ///< keeps the busy work observable
  std::vector<double> latency_us;
};

struct alignas(64) PrivateLock {
  lpt::Mutex m;
  std::uint64_t count = 0;
};

class SyncMix final : public Workload {
 public:
  explicit SyncMix(std::uint64_t seed) : seed_(seed) {}

  void setup(bool traced) override {
    rt_ = std::make_unique<lpt::Runtime>(base_options(kWorkers, traced));
    Phase warm;
    for (std::uint32_t r = 1; r <= 4; ++r) round(nullptr, r, 0, &warm);
  }

  Phase run(double seconds, Spans* spans) override {
    Phase p;
    p.before = rt_->metrics_snapshot();
    p.stats_before = rt_->stats();
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    WindowedRate rate(start, 500'000'000);
    std::uint64_t rounds = 0;
    std::int64_t due = start;
    for (std::uint32_t req = 1; now_ns() < deadline; ++req) {
      const std::int64_t begin = now_ns();
      const std::uint64_t o = round(req % kSpanEvery == 0 ? spans : nullptr, req, due, &p);
      due = now_ns();
      rate.add(begin, due, static_cast<double>(o));
      ++rounds;
    }
    const std::int64_t end = now_ns();
    p.seconds = static_cast<double>(end - start) / 1e9;
    p.work_per_s = rate.median_rate(end);
    p.after = rt_->metrics_snapshot();
    p.stats_after = rt_->stats();
    p.detail = {{"sync_ops_per_s", p.work_per_s, "1/s"},
                {"msg_us_p50", quantile(p.latency_us, 0.5), "us"},
                {"msg_us_p99", quantile(p.latency_us, 0.99), "us"},
                {"rounds", static_cast<double>(rounds), "count"},
                {"messages", static_cast<double>(p.latency_us.size()), "count"}};
    return p;
  }

  void teardown() override { rt_.reset(); }

 private:
  /// One request: spawn the eight ULTs, join them, check the counters.
  /// Returns the sync operations performed.
  std::uint64_t round(Spans* spans, std::uint32_t req, std::int64_t due, Phase* p) {
    SpanScope rs(spans, SpanName::kRequest, req, 0);
    std::array<std::uint64_t, kHot> hot_before{};
    for (int j = 0; j < kHot; ++j) hot_before[j] = hot_count_[j];
    std::array<std::uint64_t, kLockers> priv_before{};
    for (int i = 0; i < kLockers; ++i) priv_before[i] = priv_[i].count;

    std::array<UltResult, kUlts> res;
    std::atomic<std::int64_t> first_run{0};
    const std::int64_t send = now_ns();
    std::vector<lpt::Thread> ts;
    ts.reserve(kUlts);
    for (int u = 0; u < kUlts; ++u) {
      SpanScope ss(spans, SpanName::kSpawn, req, rs.id());
      ts.push_back(rt_->spawn([&, u, parent = ss.id()] {
        std::int64_t zero = 0;
        first_run.compare_exchange_strong(zero, now_ns(), std::memory_order_relaxed);
        lpt::Xoshiro256 rng(mix64(seed_ ^ (static_cast<std::uint64_t>(req) << 8) ^ u));
        Ctx c{spans, req, parent, &rng, &res[u]};
        for (int ph = 0; ph < kPhases; ++ph) {
          if (u < kLockers) {
            locker(c, u);
          } else if (u < kLockers + kProducers) {
            for (int m = 0; m < kMsgs / kProducers; ++m) produce(c);
          } else {
            for (int m = 0; m < kMsgs / kConsumers; ++m) consume(c);
          }
          SpanScope bs(c.spans, SpanName::kBarrier, req, parent);
          bar_.arrive_and_wait();
          ++c.r->ops;
        }
      }));
      if (!ts.back().joinable()) ++p->failed;
    }
    for (auto& t : ts) {
      SpanScope js(spans, SpanName::kJoin, req, rs.id());
      t.join();
    }

    // Checks: produced == consumed (count and payload), and every counter
    // equals the increments issued against it.
    UltResult sum;
    for (const auto& r : res) {
      sum.ops += r.ops;
      sink_ += r.sink;
      for (int j = 0; j < kHot; ++j) sum.hot_issued[j] += r.hot_issued[j];
    }
    std::uint64_t produced = 0, consumed = 0, psum = 0, csum = 0;
    for (int u = kLockers; u < kLockers + kProducers; ++u) {
      produced += res[u].msgs;
      psum += res[u].payload_sum;
    }
    bool ok = true;
    for (int u = kLockers + kProducers; u < kUlts; ++u) {
      consumed += res[u].msgs;
      csum += res[u].payload_sum;
      if (due != 0)
        p->latency_us.insert(p->latency_us.end(), res[u].latency_us.begin(),
                             res[u].latency_us.end());
    }
    ok = ok && produced == static_cast<std::uint64_t>(kMsgs) * kPhases && produced == consumed &&
         psum == csum;
    for (int j = 0; j < kHot; ++j) ok = ok && hot_count_[j] - hot_before[j] == sum.hot_issued[j];
    for (int i = 0; i < kLockers; ++i)
      ok = ok && priv_[i].count - priv_before[i] == res[i].priv_issued;
    ++p->attempted;
    if (!ok) ++p->failed;
    if (due != 0) {
      p->lag_us.push_back(static_cast<double>(send - due) / 1e3);
      if (first_run.load() != 0)
        p->send_to_run_us.push_back(static_cast<double>(first_run.load() - send) / 1e3);
    }
    return sum.ops;
  }

  struct Ctx {
    Spans* spans;
    std::uint32_t req;
    std::uint32_t parent;
    lpt::Xoshiro256* rng;
    UltResult* r;
  };

  void locker(Ctx& c, int u) {
    for (int k = 0; k < kLockOps; ++k) {
      const std::uint64_t draw = c.rng->next_below(100);
      if (draw < 60) {
        PrivateLock& pl = priv_[u];
        {
          SpanScope s(c.spans, SpanName::kLock, c.req, c.parent);
          pl.m.lock();
        }
        ++pl.count;
        SpanScope s(c.spans, SpanName::kUnlock, c.req, c.parent);
        pl.m.unlock();
        ++c.r->priv_issued;
      } else if (draw < 92) {
        const int j = static_cast<int>(c.rng->next_below(kHot));
        const std::uint64_t inner = c.rng->next_below(64);
        {
          SpanScope s(c.spans, SpanName::kLock, c.req, c.parent);
          hot_[j].lock();
        }
        ++hot_count_[j];
        c.r->sink += lpt::busy_work_iters(inner);
        SpanScope s(c.spans, SpanName::kUnlock, c.req, c.parent);
        hot_[j].unlock();
        ++c.r->hot_issued[j];
      } else {
        SpanScope s(c.spans, SpanName::kYield, c.req, c.parent);
        lpt::this_thread::yield();
      }
      ++c.r->ops;
      c.r->sink += lpt::busy_work_iters(c.rng->next_below(128));
    }
  }

  void produce(Ctx& c) {
    c.r->sink += lpt::busy_work_iters(c.rng->next_below(512));
    Msg m;
    m.payload = c.rng->next();
    m.id = next_msg_.fetch_add(1, std::memory_order_relaxed);
    m.enq_ns = now_ns();
    {
      SpanScope s(c.spans, SpanName::kLock, m.id, c.parent);
      qm_.lock();
    }
    while (q_size_ == kQueueCap) {
      SpanScope s(c.spans, SpanName::kCondWait, m.id, c.parent);
      not_full_.wait(qm_);
    }
    q_[(q_head_ + q_size_) % kQueueCap] = m;
    ++q_size_;
    {
      SpanScope s(c.spans, SpanName::kNotify, m.id, c.parent);
      not_empty_.notify_one();
    }
    qm_.unlock();
    ++c.r->msgs;
    ++c.r->ops;
    c.r->payload_sum += m.payload;
  }

  void consume(Ctx& c) {
    {
      SpanScope s(c.spans, SpanName::kLock, c.req, c.parent);
      qm_.lock();
    }
    while (q_size_ == 0) {
      SpanScope s(c.spans, SpanName::kCondWait, c.req, c.parent);
      not_empty_.wait(qm_);
    }
    const Msg m = q_[q_head_];
    q_head_ = (q_head_ + 1) % kQueueCap;
    --q_size_;
    const std::int64_t got = now_ns();
    {
      SpanScope s(c.spans, SpanName::kNotify, m.id, c.parent);
      not_full_.notify_one();
    }
    qm_.unlock();
    ++c.r->msgs;
    ++c.r->ops;
    c.r->payload_sum += m.payload;
    if (m.id % kLatencyEvery == 0)
      c.r->latency_us.push_back(static_cast<double>(got - m.enq_ns) / 1e3);
  }

  std::uint64_t seed_;
  std::unique_ptr<lpt::Runtime> rt_;
  lpt::Barrier bar_{kUlts};
  std::array<lpt::Mutex, kHot> hot_;
  std::array<std::uint64_t, kHot> hot_count_{};  ///< guarded by hot_[j]
  std::array<PrivateLock, kLockers> priv_;
  lpt::Mutex qm_;
  lpt::CondVar not_empty_, not_full_;
  std::array<Msg, kQueueCap> q_{};  ///< guarded by qm_
  std::size_t q_head_ = 0, q_size_ = 0;
  std::atomic<std::uint32_t> next_msg_{1};
  std::uint64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sync_mix(std::uint64_t seed) {
  return std::make_unique<SyncMix>(seed);
}

}  // namespace perfbench
