#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

void WindowedRate::add(std::int64_t from_ns, std::int64_t to_ns, double work) {
  from_ns = std::max(from_ns, start_ns_);
  to_ns = std::max(to_ns, from_ns + 1);
  const double per_ns = work / static_cast<double>(to_ns - from_ns);
  for (std::int64_t t = from_ns; t < to_ns;) {
    const auto w = static_cast<std::size_t>((t - start_ns_) / window_ns_);
    const std::int64_t w_end = start_ns_ + static_cast<std::int64_t>(w + 1) * window_ns_;
    const std::int64_t upto = std::min(to_ns, w_end);
    if (w >= work_.size()) work_.resize(w + 1, 0.0);
    work_[w] += per_ns * static_cast<double>(upto - t);
    t = upto;
  }
}

double WindowedRate::median_rate(std::int64_t end_ns) const {
  const auto full = static_cast<std::size_t>((end_ns - start_ns_) / window_ns_);
  std::vector<double> rates;
  for (std::size_t w = 0; w < full; ++w)
    rates.push_back(w < work_.size() ? work_[w] * 1e9 / static_cast<double>(window_ns_) : 0.0);
  if (!rates.empty()) return median(std::move(rates));
  double total = 0;
  for (double x : work_) total += x;
  const double secs = static_cast<double>(end_ns - start_ns_) / 1e9;
  return secs > 0 ? total / secs : 0;
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRequest: return "harness.request";
    case SpanName::kSpawn: return "runtime.spawn";
    case SpanName::kJoin: return "runtime.join";
    case SpanName::kYield: return "sched.yield";
    case SpanName::kLock: return "sync.lock";
    case SpanName::kUnlock: return "sync.unlock";
    case SpanName::kCondWait: return "sync.condvar_wait";
    case SpanName::kNotify: return "sync.notify";
    case SpanName::kBarrier: return "sync.barrier";
    case SpanName::kCholesky: return "apps.tiled_cholesky";
    case SpanName::kRestore: return "app.restore";
    case SpanName::kCheck: return "harness.check";
    case SpanName::kNode: return "app.node";
    case SpanName::kProbe: return "app.probe";
    case SpanName::kSleep: return "harness.sleep";
    case SpanName::kCount: break;
  }
  return "?";
}

Spans::Spans() {
  for (auto& s : shards_) s.slots = std::make_unique<Span[]>(kShardCap);
}

std::uint32_t Spans::begin(SpanName name, std::uint32_t req, std::uint32_t parent) {
  const int rank = lpt::this_thread::worker_rank();
  const int shard = (rank + 1) % kShards;
  const std::uint32_t idx = shards_[shard].next.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kShardCap) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span& s = shards_[shard].slots[idx];
  s.parent = parent;
  s.req = req;
  s.name = static_cast<std::uint16_t>(name);
  s.worker = static_cast<std::int16_t>(rank);
  s.start_ns = now_ns();
  return static_cast<std::uint32_t>(shard) * kShardCap + idx + 1;
}

void Spans::end(std::uint32_t id) {
  const std::uint32_t k = id - 1;
  shards_[k / kShardCap].slots[k % kShardCap].end_ns = now_ns();
}

std::uint64_t Spans::recorded() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_)
    n += std::min(s.next.load(std::memory_order_relaxed), kShardCap);
  return n;
}

std::uint64_t Spans::dropped() const { return dropped_.load(std::memory_order_relaxed); }

std::vector<const Span*> Spans::completed() const {
  std::vector<const Span*> out;
  for (const auto& s : shards_) {
    const std::uint32_t n = std::min(s.next.load(std::memory_order_acquire), kShardCap);
    for (std::uint32_t i = 0; i < n; ++i)
      if (s.slots[i].end_ns != 0) out.push_back(&s.slots[i]);
  }
  return out;
}

std::vector<SelfTime> Spans::self_times() const {
  // Children grouped by parent id; a span's self time is its interval minus
  // the merged union of its children's intervals clipped to it (children may
  // run in parallel with each other and with the parent).
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  const auto spans = completed();
  for (const Span* s : spans)
    if (s->parent != 0) kids[s->parent].emplace_back(s->start_ns, s->end_ns);

  std::vector<SelfTime> out(static_cast<std::size_t>(SpanName::kCount));
  for (std::size_t i = 0; i < out.size(); ++i) out[i].name = span_name(static_cast<SpanName>(i));
  for (const auto& sh : shards_) {
    const std::uint32_t n = std::min(sh.next.load(std::memory_order_acquire), kShardCap);
    const auto shard = static_cast<std::uint32_t>(&sh - shards_);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Span& s = sh.slots[i];
      if (s.end_ns == 0 || s.name >= out.size()) continue;
      const std::int64_t dur = s.end_ns - s.start_ns;
      std::int64_t covered = 0;
      auto it = kids.find(shard * kShardCap + i + 1);
      if (it != kids.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
      SelfTime& st = out[s.name];
      st.count += 1;
      st.total_ms += static_cast<double>(dur) / 1e6;
      st.self_ms += static_cast<double>(dur - covered) / 1e6;
    }
  }
  std::erase_if(out, [](const SelfTime& st) { return st.count == 0; });
  return out;
}

bool Spans::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto spans = completed();
  std::int64_t t0 = 0;
  for (const Span* s : spans)
    if (t0 == 0 || s->start_ns < t0) t0 = s->start_ns;
  std::fprintf(f, "id,parent,req,name,worker,start_ns,end_ns\n");
  for (const auto& sh : shards_) {
    const std::uint32_t n = std::min(sh.next.load(std::memory_order_acquire), kShardCap);
    const auto shard = static_cast<std::uint32_t>(&sh - shards_);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Span& s = sh.slots[i];
      if (s.end_ns == 0) continue;
      std::fprintf(f, "%u,%u,%u,%s,%d,%lld,%lld\n", shard * kShardCap + i + 1, s.parent,
                   s.req, span_name(static_cast<SpanName>(s.name)), s.worker,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
  }
  return std::fclose(f) == 0;
}

lpt::RuntimeOptions Workload::base_options(int workers, bool traced) {
  lpt::RuntimeOptions o;
  o.num_workers = workers;
  // Pinned workers (one per core, as in the paper) keep the OS from
  // migrating them between virtual CPUs, which otherwise dominates the
  // run-to-run spread of the fork/join and latency figures.
  o.pin_workers = true;
  o.trace.enabled = traced;
  // The tracer's histograms are what the traced run reads; a small event
  // ring keeps its memory bounded (drops are counted, histograms still fill).
  o.trace.ring_capacity = 1u << 12;
  return o;
}

void pin_caller(int workers) {
  cpu_set_t allowed, rest;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  CPU_ZERO(&rest);
  for (int c = workers; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) CPU_SET(c, &rest);
  if (CPU_COUNT(&rest) > 0) pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest);
}

lpt::trace::HistSnapshot hist_delta(const lpt::trace::HistSnapshot& after,
                                    const lpt::trace::HistSnapshot& before) {
  lpt::trace::HistSnapshot d;
  for (int b = 0; b < lpt::trace::HistSnapshot::kBuckets; ++b)
    d.buckets[b] = after.buckets[b] - std::min(after.buckets[b], before.buckets[b]);
  d.sum_ns = after.sum_ns - std::min(after.sum_ns, before.sum_ns);
  return d;
}

}  // namespace perfbench
