#include "prof/prof.hpp"

#include <dlfcn.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

namespace lpt::prof {

const char* wait_kind_name(WaitKind k) {
  switch (k) {
    case WaitKind::kNone: return "none";
    case WaitKind::kMutex: return "mutex";
    case WaitKind::kCondVar: return "condvar";
    case WaitKind::kBarrier: return "barrier";
    case WaitKind::kRwLock: return "rwlock";
    case WaitKind::kSemaphore: return "semaphore";
    case WaitKind::kLatch: return "latch";
    case WaitKind::kWaitGroup: return "waitgroup";
    case WaitKind::kJoin: return "join";
    case WaitKind::kSleep: return "sleep";
    case WaitKind::kBusyFlag: return "busyflag";
    case WaitKind::kSyscall: return "syscall";
    case WaitKind::kCount: break;
  }
  return "?";
}

Format pick_format(const std::string& path) {
  const std::size_t n = path.size();
  if (n >= 5 && path.compare(n - 5, 5, ".json") == 0) return Format::kJson;
  return Format::kFolded;
}

namespace {

/// Frame names land in the folded format, where ';' separates frames and ' '
/// separates the stack from its count — scrub both (plus control chars).
std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == ';' || c == ' ' || static_cast<unsigned char>(c) < 0x20) c = '_';
  return s;
}

/// Best-effort at export time (never on the record path): dladdr resolves
/// exported symbols; static functions fall back to raw addresses, which the
/// folded format accepts (document in docs/observability.md).
std::string symbolize(std::uint64_t pc) {
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(static_cast<std::uintptr_t>(pc)), &info) !=
          0 &&
      info.dli_sname != nullptr) {
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s+0x%" PRIx64, info.dli_sname,
                  pc - reinterpret_cast<std::uint64_t>(info.dli_saddr));
    return sanitize(buf);
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, pc);
  return buf;
}

void json_escape(std::FILE* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\')
      std::fprintf(out, "\\%c", c);
    else if (static_cast<unsigned char>(c) >= 0x20)
      std::fputc(c, out);
  }
}

}  // namespace

std::atomic<bool> g_oncpu{false};
std::atomic<bool> g_piggyback{false};
std::atomic<bool> g_offcpu{false};
std::atomic<bool> g_locks{false};

std::atomic<std::uint64_t> g_invocations{0};
std::atomic<std::uint64_t> g_noring_dropped{0};
std::atomic<std::uint64_t> g_offcpu_waits{0};
std::atomic<std::uint64_t> g_offcpu_ns{0};
std::atomic<std::uint64_t> g_offcpu_dropped{0};
std::atomic<std::uint32_t> g_depth{16};

void sample(SampleRing* ring, std::uint32_t ult, std::int16_t worker,
            std::uint8_t pool, std::uintptr_t pc, std::uintptr_t fp,
            std::uintptr_t stack_lo, std::uintptr_t stack_hi) {
  g_invocations.fetch_add(1, std::memory_order_relaxed);
  if (ring == nullptr) {
    g_noring_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Sample* s = ring->reserve();
  if (s == nullptr) return;  // the ring counted the drop
  s->ts_ns = trace::now_ns();
  s->ult = ult;
  s->worker = worker;
  s->pool = pool;
  const std::uint32_t max_depth = g_depth.load(std::memory_order_relaxed);
  std::uint32_t depth = 0;
  s->pc[depth++] = pc;
  // Frame-pointer walk, every step validated against the ULT's own stack so
  // a clobbered or absent chain terminates instead of faulting.
  std::uintptr_t f = fp;
  while (depth < max_depth) {
    if (f < stack_lo || f + 2 * sizeof(void*) > stack_hi || (f & 7) != 0) break;
    const std::uintptr_t ret =
        *reinterpret_cast<const std::uintptr_t*>(f + sizeof(void*));
    const std::uintptr_t next = *reinterpret_cast<const std::uintptr_t*>(f);
    if (ret < 4096) break;  // null / first-page garbage is not a return addr
    s->pc[depth++] = ret;
    if (next <= f) break;  // frames must move toward the stack base
    f = next;
  }
  s->depth1.store(static_cast<std::uint8_t>(depth + 1),
                  std::memory_order_release);
}

void record_wait(WaitKind kind, std::uintptr_t site, std::int64_t ns) {
  Collector& c = Collector::instance();
  Collector::WaitSiteSlot* sites = c.sites_.get();
  if (sites == nullptr) return;
  if (ns < 0) ns = 0;
  g_offcpu_waits.fetch_add(1, std::memory_order_relaxed);
  g_offcpu_ns.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
  const std::uint64_t key =
      static_cast<std::uint64_t>(site) |
      (static_cast<std::uint64_t>(kind) << 56);
  const std::uint32_t h = static_cast<std::uint32_t>(
      (key * 0x9E3779B97F4A7C15ull) >> 56);  // top 8 bits: kWaitSites == 256
  for (std::uint32_t probe = 0; probe < Collector::kWaitSites; ++probe) {
    Collector::WaitSiteSlot& s =
        sites[(h + probe) & (Collector::kWaitSites - 1)];
    std::uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0) {
      std::uint64_t expect = 0;
      if (s.key.compare_exchange_strong(expect, key,
                                        std::memory_order_acq_rel))
        k = key;
      else
        k = expect;
    }
    if (k == key) {
      s.count.fetch_add(1, std::memory_order_relaxed);
      s.total_ns.fetch_add(static_cast<std::uint64_t>(ns),
                           std::memory_order_relaxed);
      s.blocked_ns.record(ns);
      return;
    }
  }
  g_offcpu_dropped.fetch_add(1, std::memory_order_relaxed);
}

Collector& Collector::instance() {
  static Collector c;
  return c;
}

void Collector::configure(const ProfConfig& cfg) {
  std::lock_guard<std::mutex> lk(rings_lock_);
  // Disarm first so no recorder races the reset below (configure runs from
  // Runtime startup, before any worker exists, but be defensive).
  g_oncpu.store(false, std::memory_order_relaxed);
  g_piggyback.store(false, std::memory_order_relaxed);
  g_offcpu.store(false, std::memory_order_relaxed);
  g_locks.store(false, std::memory_order_relaxed);

  rings_.clear();
  cfg_ = cfg;
  depth_ = cfg.max_stack_depth < 1 ? 1
           : cfg.max_stack_depth > kMaxFrames ? kMaxFrames
                                              : cfg.max_stack_depth;
  g_depth.store(depth_, std::memory_order_relaxed);
  g_invocations.store(0, std::memory_order_relaxed);
  g_noring_dropped.store(0, std::memory_order_relaxed);
  g_offcpu_waits.store(0, std::memory_order_relaxed);
  g_offcpu_ns.store(0, std::memory_order_relaxed);
  g_offcpu_dropped.store(0, std::memory_order_relaxed);
  next_lock_.store(0, std::memory_order_relaxed);

  // The site table and lock slab are allocated once and never freed: user
  // Mutexes can outlive the Runtime that profiled them, and their stats
  // pointer must stay dereferenceable across sequential runtimes.
  if (cfg.enabled && cfg.offcpu && sites_ == nullptr)
    sites_.reset(new WaitSiteSlot[kWaitSites]);
  if (sites_ != nullptr) {
    for (std::uint32_t i = 0; i < kWaitSites; ++i) {
      sites_[i].key.store(0, std::memory_order_relaxed);
      sites_[i].count.store(0, std::memory_order_relaxed);
      sites_[i].total_ns.store(0, std::memory_order_relaxed);
      sites_[i].blocked_ns.reset();
    }
  }
  if (cfg.enabled && cfg.locks && locks_ == nullptr)
    locks_.reset(new LockStats[kMaxLocks]);
  if (locks_ != nullptr) {
    for (std::uint32_t i = 0; i < kMaxLocks; ++i) {
      locks_[i].acquires.store(0, std::memory_order_relaxed);
      locks_[i].contended.store(0, std::memory_order_relaxed);
      locks_[i].chains.store(0, std::memory_order_relaxed);
      locks_[i].hold_start_ns = 0;
      locks_[i].site.store(0, std::memory_order_relaxed);
      locks_[i].hold_ns.reset();
      locks_[i].wait_ns.reset();
    }
  }

  if (!cfg.enabled) return;
  g_offcpu.store(cfg.offcpu, std::memory_order_relaxed);
  g_locks.store(cfg.locks, std::memory_order_relaxed);
  g_piggyback.store(cfg.sample_hz == 0, std::memory_order_relaxed);
  g_oncpu.store(true, std::memory_order_release);
}

void Collector::disable() {
  g_oncpu.store(false, std::memory_order_relaxed);
  g_piggyback.store(false, std::memory_order_relaxed);
  g_offcpu.store(false, std::memory_order_relaxed);
  g_locks.store(false, std::memory_order_relaxed);
}

SampleRing* Collector::acquire_ring() {
  if (!oncpu_on()) return nullptr;
  std::lock_guard<std::mutex> lk(rings_lock_);
  auto block = std::make_unique<RingBlock>();
  const std::uint32_t cap = cfg_.ring_capacity < 64 ? 64 : cfg_.ring_capacity;
  block->slots.reset(new Sample[cap]);
  block->ring.init(block->slots.get(), cap);
  SampleRing* r = &block->ring;
  rings_.push_back(std::move(block));
  return r;
}

LockStats* Collector::acquire_lock_stats() {
  if (!locks_on() || locks_ == nullptr) return nullptr;
  const std::uint32_t idx = next_lock_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxLocks) return nullptr;  // slab exhausted: unprofiled mutex
  return &locks_[idx];
}

Totals Collector::totals() const {
  Totals t;
  t.enabled = cfg_.enabled;
  t.offcpu = cfg_.enabled && cfg_.offcpu;
  t.locks = cfg_.enabled && cfg_.locks;
  t.sample_hz = cfg_.sample_hz;
  t.invocations = g_invocations.load(std::memory_order_relaxed);
  t.dropped = g_noring_dropped.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(rings_lock_);
    for (const auto& b : rings_) {
      t.recorded += b->ring.recorded();
      t.dropped += b->ring.dropped();
    }
  }
  t.offcpu_waits = g_offcpu_waits.load(std::memory_order_relaxed);
  t.offcpu_total_ns = g_offcpu_ns.load(std::memory_order_relaxed);
  t.offcpu_dropped = g_offcpu_dropped.load(std::memory_order_relaxed);
  const std::uint32_t nlocks =
      std::min(next_lock_.load(std::memory_order_relaxed), kMaxLocks);
  for (std::uint32_t i = 0; locks_ != nullptr && i < nlocks; ++i) {
    t.lock_acquires += locks_[i].acquires.load(std::memory_order_relaxed);
    t.lock_contended += locks_[i].contended.load(std::memory_order_relaxed);
    t.contention_chains += locks_[i].chains.load(std::memory_order_relaxed);
  }
  return t;
}

std::vector<UltProfile> Collector::oncpu_by_ult() const {
  std::map<std::uint32_t, UltProfile> agg;
  std::lock_guard<std::mutex> lk(rings_lock_);
  for (const auto& b : rings_) {
    const std::uint32_t n = b->ring.fill();
    for (std::uint32_t i = 0; i < n; ++i) {
      const Sample& s = b->ring.at(i);
      if (s.depth1.load(std::memory_order_acquire) == 0) continue;
      UltProfile& u = agg[s.ult];
      u.ult = s.ult;
      u.pool = s.pool;
      ++u.samples;
    }
  }
  std::vector<UltProfile> out;
  out.reserve(agg.size());
  for (auto& kv : agg) out.push_back(kv.second);
  std::sort(out.begin(), out.end(), [](const UltProfile& a, const UltProfile& b) {
    return a.samples > b.samples;
  });
  return out;
}

std::vector<WorkerProfile> Collector::oncpu_by_worker() const {
  std::map<std::int16_t, std::uint64_t> agg;
  std::lock_guard<std::mutex> lk(rings_lock_);
  for (const auto& b : rings_) {
    const std::uint32_t n = b->ring.fill();
    for (std::uint32_t i = 0; i < n; ++i) {
      const Sample& s = b->ring.at(i);
      if (s.depth1.load(std::memory_order_acquire) == 0) continue;
      ++agg[s.worker];
    }
  }
  std::vector<WorkerProfile> out;
  out.reserve(agg.size());
  for (const auto& kv : agg) out.push_back({kv.first, kv.second});
  return out;
}

std::vector<WaitSiteProfile> Collector::offcpu_sites() const {
  std::vector<WaitSiteProfile> out;
  if (sites_ == nullptr) return out;
  for (std::uint32_t i = 0; i < kWaitSites; ++i) {
    const std::uint64_t key = sites_[i].key.load(std::memory_order_acquire);
    if (key == 0) continue;
    WaitSiteProfile p;
    p.kind = static_cast<WaitKind>(key >> 56);
    p.site = static_cast<std::uintptr_t>(key & ((1ull << 56) - 1));
    p.count = sites_[i].count.load(std::memory_order_relaxed);
    p.total_ns = sites_[i].total_ns.load(std::memory_order_relaxed);
    p.blocked_ns = sites_[i].blocked_ns.snapshot();
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const WaitSiteProfile& a, const WaitSiteProfile& b) {
              return a.total_ns > b.total_ns;
            });
  return out;
}

std::vector<LockProfile> Collector::lock_profiles() const {
  std::vector<LockProfile> out;
  if (locks_ == nullptr) return out;
  const std::uint32_t n =
      std::min(next_lock_.load(std::memory_order_relaxed), kMaxLocks);
  for (std::uint32_t i = 0; i < n; ++i) {
    LockProfile p;
    p.id = static_cast<int>(i);
    p.site = locks_[i].site.load(std::memory_order_relaxed);
    p.acquires = locks_[i].acquires.load(std::memory_order_relaxed);
    p.contended = locks_[i].contended.load(std::memory_order_relaxed);
    p.chains = locks_[i].chains.load(std::memory_order_relaxed);
    p.hold_ns = locks_[i].hold_ns.snapshot();
    p.wait_ns = locks_[i].wait_ns.snapshot();
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const LockProfile& a, const LockProfile& b) {
    return a.contended > b.contended;
  });
  return out;
}

namespace {

void write_header(std::FILE* out, const Totals& t, std::uint32_t depth) {
  std::fprintf(out, "# lpt profile v1\n");
  std::fprintf(out, "# mode: %s\n",
               !t.enabled ? "off"
               : t.sample_hz > 0 ? "hz"
                                 : "piggyback");
  std::fprintf(out, "# sample_hz: %d\n", t.sample_hz);
  std::fprintf(out, "# max_depth: %u\n", depth);
  std::fprintf(out, "# invocations: %" PRIu64 "\n", t.invocations);
  std::fprintf(out, "# recorded: %" PRIu64 "\n", t.recorded);
  std::fprintf(out, "# dropped: %" PRIu64 "\n", t.dropped);
  std::fprintf(out, "# offcpu_waits: %" PRIu64 "\n", t.offcpu_waits);
  std::fprintf(out, "# offcpu_dropped: %" PRIu64 "\n", t.offcpu_dropped);
  std::fprintf(out, "# lock_acquires: %" PRIu64 "\n", t.lock_acquires);
  std::fprintf(out, "# lock_contended: %" PRIu64 "\n", t.lock_contended);
  std::fprintf(out, "# contention_chains: %" PRIu64 "\n", t.contention_chains);
}

}  // namespace

void Collector::write_folded(std::FILE* out) const {
  write_header(out, totals(), depth_);
  // Aggregate identical stacks across all rings. Frames print
  // outermost-first so flamegraph tooling reads them bottom-up; the two
  // leading pseudo-frames attribute the stack to its ULT and pool.
  std::map<std::string, std::uint64_t> folded;
  std::map<std::uint64_t, std::string> syms;
  auto sym = [&](std::uint64_t pc) -> const std::string& {
    auto it = syms.find(pc);
    if (it == syms.end()) it = syms.emplace(pc, symbolize(pc)).first;
    return it->second;
  };
  {
    std::lock_guard<std::mutex> lk(rings_lock_);
    for (const auto& b : rings_) {
      const std::uint32_t n = b->ring.fill();
      for (std::uint32_t i = 0; i < n; ++i) {
        const Sample& s = b->ring.at(i);
        const std::uint8_t d1 = s.depth1.load(std::memory_order_acquire);
        if (d1 == 0) continue;
        const int depth = d1 - 1;
        char root[48];
        std::snprintf(root, sizeof root, "ult%u;p%u", s.ult,
                      static_cast<unsigned>(s.pool));
        std::string key = root;
        for (int f = depth - 1; f >= 0; --f) {
          key += ';';
          key += sym(s.pc[f]);
        }
        ++folded[key];
      }
    }
  }
  for (const auto& kv : folded)
    std::fprintf(out, "%s %" PRIu64 "\n", kv.first.c_str(), kv.second);
}

void Collector::write_json(std::FILE* out) const {
  const Totals t = totals();
  std::fprintf(out, "{\n  \"prof\": {\"enabled\": %s, \"mode\": \"%s\", "
                    "\"sample_hz\": %d, \"max_depth\": %u},\n",
               t.enabled ? "true" : "false",
               !t.enabled ? "off" : t.sample_hz > 0 ? "hz" : "piggyback",
               t.sample_hz, depth_);

  std::fprintf(out,
               "  \"oncpu\": {\"invocations\": %" PRIu64
               ", \"recorded\": %" PRIu64 ", \"dropped\": %" PRIu64
               ",\n    \"by_ult\": [",
               t.invocations, t.recorded, t.dropped);
  bool first = true;
  for (const UltProfile& u : oncpu_by_ult()) {
    std::fprintf(out, "%s\n      {\"ult\": %u, \"pool\": %u, \"samples\": %" PRIu64 "}",
                 first ? "" : ",", u.ult, static_cast<unsigned>(u.pool),
                 u.samples);
    first = false;
  }
  std::fprintf(out, "\n    ],\n    \"by_worker\": [");
  first = true;
  for (const WorkerProfile& w : oncpu_by_worker()) {
    std::fprintf(out, "%s\n      {\"worker\": %d, \"samples\": %" PRIu64 "}",
                 first ? "" : ",", static_cast<int>(w.worker), w.samples);
    first = false;
  }
  std::fprintf(out, "\n    ]\n  },\n");

  std::fprintf(out,
               "  \"offcpu\": {\"waits\": %" PRIu64 ", \"total_ns\": %" PRIu64
               ", \"dropped\": %" PRIu64 ",\n    \"sites\": [",
               t.offcpu_waits, t.offcpu_total_ns, t.offcpu_dropped);
  first = true;
  for (const WaitSiteProfile& s : offcpu_sites()) {
    std::fprintf(out,
                 "%s\n      {\"kind\": \"%s\", \"site\": \"", first ? "" : ",",
                 wait_kind_name(s.kind));
    json_escape(out, symbolize(s.site));
    std::fprintf(out,
                 "\", \"count\": %" PRIu64 ", \"total_ns\": %" PRIu64
                 ", \"p50_ns\": %.0f, \"p99_ns\": %.0f}",
                 s.count, s.total_ns, s.blocked_ns.percentile_ns(50.0),
                 s.blocked_ns.percentile_ns(99.0));
    first = false;
  }
  std::fprintf(out, "\n    ]\n  },\n");

  std::fprintf(out,
               "  \"locks\": {\"acquires\": %" PRIu64 ", \"contended\": %" PRIu64
               ", \"chains\": %" PRIu64 ",\n    \"table\": [",
               t.lock_acquires, t.lock_contended, t.contention_chains);
  first = true;
  for (const LockProfile& l : lock_profiles()) {
    std::fprintf(out, "%s\n      {\"id\": %d, \"site\": \"", first ? "" : ",",
                 l.id);
    json_escape(out, l.site != 0 ? symbolize(l.site) : "0x0");
    std::fprintf(out,
                 "\", \"acquires\": %" PRIu64 ", \"contended\": %" PRIu64
                 ", \"chains\": %" PRIu64
                 ", \"hold_p50_ns\": %.0f, \"hold_p99_ns\": %.0f"
                 ", \"wait_p50_ns\": %.0f, \"wait_p99_ns\": %.0f}",
                 l.acquires, l.contended, l.chains,
                 l.hold_ns.percentile_ns(50.0), l.hold_ns.percentile_ns(99.0),
                 l.wait_ns.percentile_ns(50.0), l.wait_ns.percentile_ns(99.0));
    first = false;
  }
  std::fprintf(out, "\n    ]\n  }\n}\n");
}

bool Collector::write_file(const std::string& path) const {
  if (path.empty()) return false;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  if (pick_format(path) == Format::kJson)
    write_json(f);
  else
    write_folded(f);
  const bool ok = std::fclose(f) == 0;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace lpt::prof
