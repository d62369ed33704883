// Signal-safe scheduling tracer (observability subsystem).
//
// Design constraints, in order:
//  * async-signal-safety — events are recorded from inside the preemption
//    signal handler (PreemptSignalYield / PreemptKltSwitch), so the record
//    path may not allocate, lock, or call anything non-reentrant;
//  * wait-freedom — one fixed-capacity ring per OS thread (worker-host KLTs,
//    pool KLTs, the service thread, the KLT creator). A thread only writes its
//    own ring, so the only concurrent writer is the thread's *own* signal
//    handler; slot reservation is a single relaxed fetch_add, which is atomic
//    with respect to a handler running on the same CPU;
//  * drop-and-count on overflow — rings never wrap, so the exporter can read
//    committed slots without tearing; overflow increments a counter instead;
//  * zero allocation after startup — all slots are carved out of one slab
//    allocated when tracing is configured.
//
// The recording macros live in runtime/instrument.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <ctime>

namespace lpt::trace {

/// Trace timestamps use CLOCK_MONOTONIC_RAW: immune to NTP slewing, vDSO-read
/// (async-signal-safe), and strictly comparable within one run.
inline std::int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC_RAW, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Scheduler-event taxonomy (docs/observability.md documents each one).
enum class EventType : std::uint16_t {
  kNone = 0,           ///< unwritten slot sentinel — never recorded
  kUltDispatch,        ///< worker switches into a ULT; arg0=ready→dispatch scheduling delay ns (0 = no ready stamp)
  kUltYield,           ///< voluntary yield re-enqueue (post action)
  kUltBlock,           ///< ULT suspended on a sync primitive / join
  kUltExit,            ///< ULT function returned
  kPreemptSignalYield, ///< §3.1.1 preemption accounted (post action)
  kPreemptKltSwitch,   ///< §3.1.2 preemption accounted (post action)
  kHandlerEnter,       ///< preemption handler hit a running ULT; arg0=delivery-latency ns (0 = unknown)
  kHandlerDeferred,    ///< handler deferred by a NoPreemptGuard
  kSteal,              ///< scheduler stole a thread; arg0=victim rank
  kWorkerPark,         ///< worker parked for thread packing
  kWorkerUnpark,       ///< worker resumed after packing
  kKltSuspend,         ///< KLT parked inside the handler (KLT-switching)
  kKltResume,          ///< bound KLT resumed; arg0=suspend→resume round trip ns
  kKltPoolHit,         ///< handler found a spare KLT in the pool
  kKltPoolMiss,        ///< pool empty; creation requested, preemption skipped
  kKltCreated,         ///< KLT creator built a spare
  kTimerFire,          ///< service thread issued a tick; arg0=target rank
  kKltDegradedTick,    ///< pool empty + creator saturated or KLT cap hit; tick deferred
  kTimerFallback,      ///< POSIX per-worker timer degraded to service-thread delivery; arg0=rank
  kStackAllocFail,     ///< spawn failed recoverably: stack mmap refused after shed+retry
  kWatchdogFlag,       ///< starvation watchdog flagged; arg0=WatchdogReport::Kind, arg1=rank
  kUltFault,           ///< fault isolation terminated a ULT; arg0=FaultKind, arg1=fault addr
  kKltRetired,         ///< poisoned KLT retired after a contained fault; arg1=KLT trace id
  kStackNearOverflow,  ///< released stack's watermark within a page of the guard; arg0=watermark bytes
  kUltCancel,          ///< ULT cancelled; arg0: 0=cancellation point, 1=directed tick, 2=stranded KLT
  kRemediation,        ///< watchdog remediation acted; arg0=RemediationKind, arg1=rank
  kProfSample,         ///< profiler captured an on-CPU sample; arg0=PC, arg1=frames
  kSyscallBlock,       ///< ULT entered an annotated blocking syscall; arg0=rank
  kSyscallCompensate,  ///< sentinel activated a compensating KLT; arg0=rank, arg1=epoch
  kSyscallReturn,      ///< blocking syscall returned; arg0=blocked ns, arg1=1 if reabsorbed
  kUltWake,            ///< ULT made runnable; ult=woken id, arg0=waker ULT id (0 = external/timer), arg1=prof::WaitKind it was parked under (kWakeArgSpawn for spawn)
  kDeadlock,           ///< deadlock cycle member; ult=member id, arg0=cycle id, arg1=prof::WaitKind awaited | kDeadlockVictimFlag if this member was cancelled
  kAbandonedLock,      ///< lock owner ended while holding; ult=owner id, arg0=prof::WaitKind of the lock, arg1=1 if force-released
  kUltInline,          ///< a joiner runs its never-dispatched child on its own stack; ult=child id, arg0=joiner id
  kCount,
};

/// kDeadlock arg1 bit marking the cycle member the breaker cancelled.
inline constexpr std::uint64_t kDeadlockVictimFlag = 0x100;

/// kUltWake arg1 value for the spawn edge (a fresh ULT was never parked, so
/// no prof::WaitKind applies; prof::WaitKind::kCount is < 100).
inline constexpr std::uint64_t kWakeArgSpawn = 100;

const char* event_name(EventType t);

/// One trace record. Slots are cache-line-sized so a handler-interrupted
/// mainline write and the handler's own write never share a line, and the
/// exporter never reads a partially shared line.
struct alignas(64) Event {
  std::int64_t ts_ns = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t ult = 0;     ///< ThreadCtl::trace_id, 0 = none
  std::int16_t worker = -1;  ///< worker rank at record time, -1 = none
  /// Written LAST with release order: the commit flag. kNone = slot not (yet)
  /// committed; the exporter skips such slots.
  std::atomic<std::uint16_t> type{0};
};
static_assert(sizeof(Event) == 64, "one slot per cache line");

/// Plain (copyable) view of one committed event — what snapshot_events()
/// returns and what the JSONL export serializes.
struct EventView {
  std::int64_t ts_ns = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t ult = 0;
  std::int16_t worker = -1;
  EventType type = EventType::kNone;
};

/// Which kind of OS thread owns a ring (selects the export track).
enum class TrackKind : std::uint8_t { kWorkerKlt, kTimer, kCreator, kExternal };

/// Fixed-capacity single-writer event ring. "Single writer" means one OS
/// thread plus signal handlers running *on that thread*; the fetch_add slot
/// reservation makes the nested-handler case safe (each write gets a private
/// slot, committed independently via the per-slot type flag).
class Ring {
 public:
  void init(Event* slots, std::uint32_t capacity, TrackKind kind, int id) {
    slots_ = slots;
    capacity_ = capacity;
    kind_ = kind;
    id_ = id;
    head_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Record one event. Wait-free and async-signal-safe. Returns false (and
  /// counts a drop) once the ring is full.
  bool record(EventType type, std::int64_t ts_ns, std::int16_t worker,
              std::uint32_t ult, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) {
    const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Event& e = slots_[idx];
    e.ts_ns = ts_ns;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.ult = ult;
    e.worker = worker;
    e.type.store(static_cast<std::uint16_t>(type), std::memory_order_release);
    return true;
  }

  /// Committed-slot upper bound (some below it may still be uncommitted; the
  /// reader checks each slot's type flag).
  std::uint32_t fill() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::uint32_t>(h < capacity_ ? h : capacity_);
  }
  std::uint64_t recorded() const {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return h < capacity_ ? h : capacity_;
  }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::uint32_t capacity() const { return capacity_; }
  const Event& at(std::uint32_t i) const { return slots_[i]; }
  TrackKind kind() const { return kind_; }
  int id() const { return id_; }

 private:
  Event* slots_ = nullptr;
  std::uint32_t capacity_ = 0;
  TrackKind kind_ = TrackKind::kWorkerKlt;
  int id_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// ---------------------------------------------------------------------------
// Fixed-bucket log2 latency histograms
// ---------------------------------------------------------------------------

/// Plain (non-atomic) histogram snapshot; embedded in metrics::Snapshot.
/// Bucket 0 holds [0, 1] ns; bucket b >= 1 holds [2^(b-1), 2^b) ns.
/// All values are nanoseconds — sum_ns is the *exact* sum of the recorded
/// samples (not reconstructed from bucket midpoints), so exporters can emit
/// a Prometheus-native histogram whose `_sum` reconciles exactly with
/// per-ULT accounting totals.
struct HistSnapshot {
  static constexpr int kBuckets = 64;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t sum_ns = 0;  ///< exact sum of recorded samples, ns

  std::uint64_t count() const;
  void merge(const HistSnapshot& o);
  /// Inclusive lower bound of bucket b in ns.
  static std::int64_t bucket_floor_ns(int b);
  /// Exclusive upper bound of bucket b in ns.
  static std::int64_t bucket_ceil_ns(int b);
  /// Linear interpolation inside the winning bucket; p in [0, 100].
  /// Returns 0 for an empty histogram.
  double percentile_ns(double p) const;
  double median_ns() const { return percentile_ns(50.0); }
};

/// Signal-safe accumulation side: relaxed fetch_add per sample.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = HistSnapshot::kBuckets;

  static int bucket_for(std::int64_t ns) {
    if (ns <= 1) return 0;
    // floor(log2(ns)) + 1, capped to the last bucket.
    int b = 64 - __builtin_clzll(static_cast<unsigned long long>(ns));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Async-signal-safe, wait-free. Also accumulates the exact ns sum so
  /// HistSnapshot::sum_ns reconciles with per-ULT totals (negative inputs
  /// clamp to 0, matching bucket_for).
  void record(std::int64_t ns) {
    buckets_[bucket_for(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns > 0 ? static_cast<std::uint64_t>(ns) : 0,
                      std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }

  HistSnapshot snapshot() const {
    HistSnapshot s;
    for (int i = 0; i < kBuckets; ++i)
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// ---------------------------------------------------------------------------
// Collector: ring registry, config, export
// ---------------------------------------------------------------------------

/// Largest accepted LPT_TRACE_RING_CAP (events per OS thread).
inline constexpr long long kMaxRingCapacity = 1ll << 24;

struct TraceConfig {
  bool enabled = false;
  std::uint32_t ring_capacity = 1u << 14;  ///< events per OS thread
  std::string file;  ///< Chrome-trace JSON written at runtime shutdown; "" = none
  /// Raw event log (one JSON object per line, sorted by timestamp) written at
  /// runtime shutdown; "" = none. The machine-readable input of
  /// tools/trace_critical_path and tools/telemetry_check.
  std::string events_file;
};

/// Process-wide collector (mirrors the one-active-Runtime-per-process rule).
/// configure() / acquire_ring() / export run in normal thread context; only
/// Ring::record and LatencyHistogram::record are signal-safe.
class Collector {
 public:
  static Collector& instance();

  /// (Re)arm tracing: drops data from any previous run, allocates the slab
  /// lazily per acquired ring. Called by Runtime startup.
  void configure(const TraceConfig& cfg);
  /// Stop recording (rings keep their data for late export).
  void disable();

  /// Bumped by every configure(). Long-lived external threads cache their
  /// ring pointer in TLS across Runtime lifetimes; comparing this epoch lets
  /// them detect that configure() freed the old slab and re-acquire instead
  /// of writing through a dangling pointer.
  std::uint64_t config_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  const TraceConfig& config() const { return cfg_; }

  /// Register the calling OS thread's ring. NOT signal-safe; call from
  /// thread-startup code. Returns nullptr when tracing is off.
  Ring* acquire_ring(TrackKind kind, int id);

  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;

  /// Write the whole trace as Chrome trace_event JSON ("traceEvents" array,
  /// one track per worker, per parked KLT, and for the timer/creator
  /// threads). Loadable in Perfetto / chrome://tracing. Returns false on I/O
  /// error or when no trace was collected.
  bool write_chrome_json(const std::string& path) const;

  /// Write every committed event as one flat JSON object per line
  /// ({"ts":..,"type":"..","ult":..,"worker":..,"arg0":..,"arg1":..}),
  /// sorted by timestamp — the analyzer/validator input format
  /// (docs/observability.md, "Causal tracing & scheduling delay").
  bool write_events_jsonl(const std::string& path) const;

  /// Copy of every committed event across all rings, sorted by timestamp
  /// (ties broken so wake/re-ready events sort before the dispatch that
  /// consumes them). For tests and in-process analysis.
  std::vector<EventView> snapshot_events() const;

  /// Human-readable per-event-type counts + drop accounting, plus the
  /// top-10 slowest ready→dispatch delays observed in the event log.
  void write_summary(std::FILE* out) const;

 private:
  struct RingBlock {
    std::unique_ptr<Event[]> slots;
    Ring ring;
  };

  mutable std::mutex rings_lock_;
  std::vector<std::unique_ptr<RingBlock>> rings_;
  TraceConfig cfg_;
  std::atomic<int> next_track_id_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

/// Global on/off flag read by every recording macro (relaxed: a few cycles).
extern std::atomic<bool> g_enabled;
inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace lpt::trace
