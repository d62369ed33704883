#include "common/trace.hpp"

#include <algorithm>
#include <cinttypes>

namespace lpt::trace {

std::atomic<bool> g_enabled{false};

const char* event_name(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kUltDispatch: return "ult_dispatch";
    case EventType::kUltYield: return "ult_yield";
    case EventType::kUltBlock: return "ult_block";
    case EventType::kUltExit: return "ult_exit";
    case EventType::kPreemptSignalYield: return "preempt_signal_yield";
    case EventType::kPreemptKltSwitch: return "preempt_klt_switch";
    case EventType::kHandlerEnter: return "handler_enter";
    case EventType::kHandlerDeferred: return "handler_deferred";
    case EventType::kSteal: return "steal";
    case EventType::kWorkerPark: return "worker_park";
    case EventType::kWorkerUnpark: return "worker_unpark";
    case EventType::kKltSuspend: return "klt_suspend";
    case EventType::kKltResume: return "klt_resume";
    case EventType::kKltPoolHit: return "klt_pool_hit";
    case EventType::kKltPoolMiss: return "klt_pool_miss";
    case EventType::kKltCreated: return "klt_created";
    case EventType::kTimerFire: return "timer_fire";
    case EventType::kKltDegradedTick: return "klt_degraded_tick";
    case EventType::kTimerFallback: return "timer_fallback";
    case EventType::kStackAllocFail: return "stack_alloc_fail";
    case EventType::kWatchdogFlag: return "watchdog_flag";
    case EventType::kUltFault: return "ult_fault";
    case EventType::kKltRetired: return "klt_retired";
    case EventType::kStackNearOverflow: return "stack_near_overflow";
    case EventType::kUltCancel: return "ult_cancel";
    case EventType::kRemediation: return "remediation";
    case EventType::kProfSample: return "prof_sample";
    case EventType::kSyscallBlock: return "syscall_block";
    case EventType::kSyscallCompensate: return "syscall_compensate";
    case EventType::kSyscallReturn: return "syscall_return";
    case EventType::kUltWake: return "ult_wake";
    case EventType::kDeadlock: return "deadlock";
    case EventType::kAbandonedLock: return "abandoned_lock";
    case EventType::kUltInline: return "ult_inline";
    case EventType::kCount: break;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Histogram math
// ---------------------------------------------------------------------------

std::uint64_t HistSnapshot::count() const {
  std::uint64_t n = 0;
  for (std::uint64_t b : buckets) n += b;
  return n;
}

void HistSnapshot::merge(const HistSnapshot& o) {
  for (int i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
  sum_ns += o.sum_ns;
}

std::int64_t HistSnapshot::bucket_floor_ns(int b) {
  if (b <= 0) return 0;
  return static_cast<std::int64_t>(1) << (b - 1);
}

std::int64_t HistSnapshot::bucket_ceil_ns(int b) {
  if (b <= 0) return 2;  // bucket 0 = [0, 1] ns, exclusive bound 2
  if (b >= kBuckets - 1) return bucket_floor_ns(b) * 2;  // clamp top bucket
  return static_cast<std::int64_t>(1) << b;
}

double HistSnapshot::percentile_ns(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank in [0, n-1], nearest-rank with interpolation inside the bucket.
  const double target = p / 100.0 * static_cast<double>(n - 1);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += buckets[b];
    const double hi_rank = static_cast<double>(seen - 1);
    if (target <= hi_rank) {
      const double span = hi_rank - lo_rank;
      double frac = span > 0 ? (target - lo_rank) / span : 0.5;
      // target can fall in the rank gap between the previous bucket's last
      // sample and this bucket's first one; clamp instead of extrapolating
      // below the bucket floor (which would make percentiles non-monotone).
      if (frac < 0) frac = 0;
      const double lo = static_cast<double>(bucket_floor_ns(b));
      const double hi = static_cast<double>(bucket_ceil_ns(b));
      return lo + frac * (hi - lo);
    }
  }
  return static_cast<double>(bucket_ceil_ns(kBuckets - 1));
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

Collector& Collector::instance() {
  static Collector c;
  return c;
}

void Collector::configure(const TraceConfig& cfg) {
  std::lock_guard<std::mutex> g(rings_lock_);
  rings_.clear();
  cfg_ = cfg;
  next_track_id_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  g_enabled.store(cfg.enabled, std::memory_order_release);
}

void Collector::disable() { g_enabled.store(false, std::memory_order_release); }

Ring* Collector::acquire_ring(TrackKind kind, int id) {
  if (!enabled()) return nullptr;
  auto block = std::make_unique<RingBlock>();
  // Zero-initialized slots: type == kNone marks uncommitted.
  block->slots = std::make_unique<Event[]>(cfg_.ring_capacity);
  if (id < 0) id = next_track_id_.fetch_add(1, std::memory_order_relaxed);
  block->ring.init(block->slots.get(), cfg_.ring_capacity, kind, id);
  Ring* r = &block->ring;
  std::lock_guard<std::mutex> g(rings_lock_);
  rings_.push_back(std::move(block));
  return r;
}

std::uint64_t Collector::total_events() const {
  std::lock_guard<std::mutex> g(rings_lock_);
  std::uint64_t n = 0;
  for (const auto& b : rings_) n += b->ring.recorded();
  return n;
}

std::uint64_t Collector::total_dropped() const {
  std::lock_guard<std::mutex> g(rings_lock_);
  std::uint64_t n = 0;
  for (const auto& b : rings_) n += b->ring.dropped();
  return n;
}

namespace {

/// Flat view of one committed event plus its origin ring, for export sorting.
struct FlatEvent {
  std::int64_t ts_ns;
  std::uint64_t arg0;
  std::uint64_t arg1;
  std::uint32_t ult;
  std::int16_t worker;
  EventType type;
  TrackKind ring_kind;
  int ring_id;
};

/// Chrome trace_event "tid" assignment: workers get their rank; helper and
/// KLT tracks get ids above any plausible worker count.
constexpr int kTimerTid = 900;
constexpr int kCreatorTid = 901;
constexpr int kExternalTid = 902;
constexpr int kKltTidBase = 1000;

int track_tid(const FlatEvent& f) {
  switch (f.type) {
    // KLT-lifecycle events render on the owning KLT's own track so the
    // suspend→resume gap of each parked KLT is visible (Fig 2/3).
    case EventType::kKltSuspend:
    case EventType::kKltResume:
      return kKltTidBase + f.ring_id;
    case EventType::kKltCreated:
      return kCreatorTid;
    case EventType::kTimerFire:
      return kTimerTid;
    default:
      break;
  }
  if (f.worker >= 0) return f.worker;
  switch (f.ring_kind) {
    case TrackKind::kTimer: return kTimerTid;
    case TrackKind::kCreator: return kCreatorTid;
    case TrackKind::kExternal: return kExternalTid;
    case TrackKind::kWorkerKlt: return kKltTidBase + f.ring_id;
  }
  return kKltTidBase + f.ring_id;
}

/// Does this event terminate a ULT run-span opened by kUltDispatch?
bool closes_run_span(EventType t) {
  switch (t) {
    case EventType::kUltYield:
    case EventType::kUltBlock:
    case EventType::kUltExit:
    case EventType::kPreemptSignalYield:
    case EventType::kPreemptKltSwitch:
    case EventType::kUltFault:
      return true;
    default:
      return false;
  }
}

void write_meta(std::FILE* f, int tid, const char* name, bool* first) {
  std::fprintf(f,
               "%s\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
               *first ? "" : ",", tid, name);
  *first = false;
}

}  // namespace

bool Collector::write_chrome_json(const std::string& path) const {
  std::vector<FlatEvent> flat;
  {
    std::lock_guard<std::mutex> g(rings_lock_);
    for (const auto& b : rings_) {
      const Ring& r = b->ring;
      const std::uint32_t n = r.fill();
      for (std::uint32_t i = 0; i < n; ++i) {
        const Event& e = r.at(i);
        const auto ty = e.type.load(std::memory_order_acquire);
        if (ty == 0 || ty >= static_cast<std::uint16_t>(EventType::kCount))
          continue;  // uncommitted (record interrupted mid-write) — skip
        FlatEvent fe;
        fe.ts_ns = e.ts_ns;
        fe.arg0 = e.arg0;
        fe.arg1 = e.arg1;
        fe.ult = e.ult;
        fe.worker = e.worker;
        fe.type = static_cast<EventType>(ty);
        fe.ring_kind = r.kind();
        fe.ring_id = r.id();
        flat.push_back(fe);
      }
    }
  }
  if (flat.empty()) return false;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  std::sort(flat.begin(), flat.end(), [](const FlatEvent& a, const FlatEvent& b) {
    return a.ts_ns < b.ts_ns;
  });
  const std::int64_t t0 = flat.front().ts_ns;

  // Per-ULT dispatch index for flow-event binding: a kUltWake at ts T for
  // ULT u draws an arrow to u's first kUltDispatch at ts >= T.
  struct DispatchRef {
    std::int64_t ts_ns;
    int worker;
  };
  std::vector<std::pair<std::uint32_t, DispatchRef>> dispatches;
  for (const FlatEvent& fe : flat)
    if (fe.type == EventType::kUltDispatch && fe.ult != 0)
      dispatches.push_back({fe.ult, {fe.ts_ns, track_tid(fe)}});
  std::stable_sort(dispatches.begin(), dispatches.end(),
                   [](const auto& a, const auto& b) {
                     return a.first != b.first ? a.first < b.first
                                               : a.second.ts_ns < b.second.ts_ns;
                   });
  auto next_dispatch = [&](std::uint32_t ult,
                           std::int64_t ts) -> const DispatchRef* {
    auto it = std::lower_bound(
        dispatches.begin(), dispatches.end(), std::make_pair(ult, ts),
        [](const auto& d, const auto& key) {
          return d.first != key.first ? d.first < key.first
                                      : d.second.ts_ns < key.second;
        });
    if (it == dispatches.end() || it->first != ult) return nullptr;
    return &it->second;
  };

  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  std::fprintf(f,
               "%s\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"lpt runtime\"}}",
               first ? "" : ",");
  first = false;

  // Track-name metadata for every tid we are about to emit.
  std::vector<int> tids;
  for (const FlatEvent& fe : flat) tids.push_back(track_tid(fe));
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (int tid : tids) {
    char name[48];
    if (tid < kTimerTid)
      std::snprintf(name, sizeof(name), "worker %d", tid);
    else if (tid == kTimerTid)
      std::snprintf(name, sizeof(name), "preemption timer");
    else if (tid == kCreatorTid)
      std::snprintf(name, sizeof(name), "klt creator");
    else if (tid == kExternalTid)
      std::snprintf(name, sizeof(name), "external threads");
    else
      std::snprintf(name, sizeof(name), "klt %d", tid - kKltTidBase);
    write_meta(f, tid, name, &first);
  }

  // Pair dispatch → {yield, block, exit, preempt} into "X" complete events
  // per worker track; everything else becomes an instant event.
  struct OpenSpan {
    bool open = false;
    std::int64_t start_ns = 0;
    std::uint32_t ult = 0;
    std::uint64_t sched_delay_ns = 0;
  };
  std::vector<OpenSpan> open(256);

  auto emit_instant = [&](const FlatEvent& fe, int tid) {
    std::fprintf(f,
                 "%s\n  {\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"args\":{\"ult\":%" PRIu32
                 ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}}",
                 first ? "" : ",", event_name(fe.type), tid,
                 static_cast<double>(fe.ts_ns - t0) / 1000.0, fe.ult,
                 fe.arg0, fe.arg1);
    first = false;
  };

  // Causal wake→dispatch arrows as Chrome flow events: "s" on the waker's
  // track at wake time, "f" (bp:"e" = bind to the enclosing slice) on the
  // woken ULT's next dispatch. Perfetto draws these as arrows.
  std::uint64_t flow_id = 0;
  for (const FlatEvent& fe : flat) {
    if (fe.type != EventType::kUltWake) continue;
    const DispatchRef* d = next_dispatch(fe.ult, fe.ts_ns);
    if (d == nullptr) continue;  // woken but never dispatched before shutdown
    ++flow_id;
    std::fprintf(f,
                 "%s\n  {\"name\":\"wake\",\"cat\":\"wake\",\"ph\":\"s\","
                 "\"id\":%" PRIu64 ",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"args\":{\"ult\":%" PRIu32 ",\"waker\":%" PRIu64
                 ",\"kind\":%" PRIu64 "}}",
                 first ? "" : ",", flow_id, track_tid(fe),
                 static_cast<double>(fe.ts_ns - t0) / 1000.0, fe.ult, fe.arg0,
                 fe.arg1);
    first = false;
    std::fprintf(f,
                 "%s\n  {\"name\":\"wake\",\"cat\":\"wake\",\"ph\":\"f\","
                 "\"bp\":\"e\",\"id\":%" PRIu64 ",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f}",
                 ",", flow_id, d->worker,
                 static_cast<double>(d->ts_ns - t0) / 1000.0);
  }

  for (const FlatEvent& fe : flat) {
    const int tid = track_tid(fe);
    if (fe.type == EventType::kUltDispatch && fe.worker >= 0 &&
        fe.worker < static_cast<int>(open.size())) {
      OpenSpan& s = open[fe.worker];
      s.open = true;
      s.start_ns = fe.ts_ns;
      s.ult = fe.ult;
      s.sched_delay_ns = fe.arg0;
      continue;
    }
    // The ULT check keeps the end of a child run inline (DESIGN.md, "Inline
    // join") from closing its joiner's span.
    if (closes_run_span(fe.type) && fe.worker >= 0 &&
        fe.worker < static_cast<int>(open.size()) &&
        open[fe.worker].open && open[fe.worker].ult == fe.ult) {
      OpenSpan& s = open[fe.worker];
      s.open = false;
      std::fprintf(f,
                   "%s\n  {\"name\":\"ult %" PRIu32
                   "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"end\":\"%s\",\"sched_delay_ns\":%" PRIu64
                   "}}",
                   first ? "" : ",", s.ult, fe.worker,
                   static_cast<double>(s.start_ns - t0) / 1000.0,
                   static_cast<double>(fe.ts_ns - s.start_ns) / 1000.0,
                   event_name(fe.type), s.sched_delay_ns);
      first = false;
      // Preemption end-causes also carry latency info worth an instant mark.
      if (fe.type == EventType::kPreemptSignalYield ||
          fe.type == EventType::kPreemptKltSwitch)
        emit_instant(fe, tid);
      continue;
    }
    emit_instant(fe, tid);
  }

  // Close any span left open at shutdown as zero-length-terminated.
  for (std::size_t w = 0; w < open.size(); ++w) {
    if (!open[w].open) continue;
    std::fprintf(f,
                 "%s\n  {\"name\":\"ult %" PRIu32
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                 "\"dur\":0.001,\"args\":{\"end\":\"trace_end\"}}",
                 first ? "" : ",", open[w].ult, w,
                 static_cast<double>(open[w].start_ns - t0) / 1000.0);
    first = false;
  }

  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok;
}

std::vector<EventView> Collector::snapshot_events() const {
  std::vector<EventView> out;
  {
    std::lock_guard<std::mutex> g(rings_lock_);
    for (const auto& b : rings_) {
      const Ring& r = b->ring;
      const std::uint32_t n = r.fill();
      for (std::uint32_t i = 0; i < n; ++i) {
        const Event& e = r.at(i);
        const auto ty = e.type.load(std::memory_order_acquire);
        if (ty == 0 || ty >= static_cast<std::uint16_t>(EventType::kCount))
          continue;
        EventView v;
        v.ts_ns = e.ts_ns;
        v.arg0 = e.arg0;
        v.arg1 = e.arg1;
        v.ult = e.ult;
        v.worker = e.worker;
        v.type = static_cast<EventType>(ty);
        out.push_back(v);
      }
    }
  }
  // A dispatch consumes a ready stamp set strictly before it (the enqueue
  // happens-before the pop), but both can land in the same raw-clock ns; the
  // tie-break keeps causal order for consumers scanning in sequence.
  std::sort(out.begin(), out.end(), [](const EventView& a, const EventView& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    const int ra = a.type == EventType::kUltDispatch ? 1 : 0;
    const int rb = b.type == EventType::kUltDispatch ? 1 : 0;
    return ra < rb;
  });
  return out;
}

bool Collector::write_events_jsonl(const std::string& path) const {
  const std::vector<EventView> events = snapshot_events();
  if (events.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const EventView& e : events)
    std::fprintf(f,
                 "{\"ts\":%" PRId64 ",\"type\":\"%s\",\"ult\":%" PRIu32
                 ",\"worker\":%d,\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}\n",
                 e.ts_ns, event_name(e.type), e.ult,
                 static_cast<int>(e.worker), e.arg0, e.arg1);
  return std::fclose(f) == 0;
}

void Collector::write_summary(std::FILE* out) const {
  std::array<std::uint64_t, static_cast<std::size_t>(EventType::kCount)> by_type{};
  std::uint64_t total = 0, dropped = 0;
  std::size_t nrings = 0;
  {
    std::lock_guard<std::mutex> g(rings_lock_);
    nrings = rings_.size();
    for (const auto& b : rings_) {
      const Ring& r = b->ring;
      dropped += r.dropped();
      const std::uint32_t n = r.fill();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto ty = r.at(i).type.load(std::memory_order_acquire);
        if (ty == 0 || ty >= by_type.size()) continue;
        ++by_type[ty];
        ++total;
      }
    }
  }
  std::fprintf(out, "trace summary: %" PRIu64 " events in %zu rings, %" PRIu64
                    " dropped (ring overflow)\n",
               total, nrings, dropped);
  for (std::size_t t = 1; t < by_type.size(); ++t) {
    if (by_type[t] == 0) continue;
    std::fprintf(out, "  %-22s %10" PRIu64 "\n",
                 event_name(static_cast<EventType>(t)), by_type[t]);
  }

  // Top-10 slowest ready→dispatch delays (kUltDispatch arg0), the worst
  // scheduling-delay victims of the run.
  std::vector<EventView> slow;
  for (const EventView& e : snapshot_events())
    if (e.type == EventType::kUltDispatch && e.arg0 > 0) slow.push_back(e);
  if (!slow.empty()) {
    const std::size_t top = slow.size() < 10 ? slow.size() : 10;
    std::partial_sort(slow.begin(), slow.begin() + top, slow.end(),
                      [](const EventView& a, const EventView& b) {
                        return a.arg0 > b.arg0;
                      });
    std::fprintf(out, "top %zu slowest dispatches (ready -> dispatch):\n", top);
    for (std::size_t i = 0; i < top; ++i)
      std::fprintf(out,
                   "  ult %-6" PRIu32 " worker %-3d delay %10.1f us\n",
                   slow[i].ult, static_cast<int>(slow[i].worker),
                   static_cast<double>(slow[i].arg0) / 1000.0);
  }
}

}  // namespace lpt::trace
