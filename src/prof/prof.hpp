// Continuous profiler (observability subsystem, third layer next to the
// tracer and the always-on metrics): answers *where time goes*.
//
// Three coordinated collectors, all off by default:
//  * on-CPU sampling — piggybacks on the preemption ticks that are
//    already delivered to every worker (zero extra signals at the default
//    rate; LPT_PROF_HZ arms an independent sampling signal instead). Each
//    sample captures the interrupted ULT's PC plus a bounded frame-pointer
//    stack walk into a per-OS-thread SPSC ring (same discipline as the
//    trace rings: fetch_add slot reservation, release-ordered commit flag,
//    drop-and-count on overflow, never wraps);
//  * off-CPU wait attribution — every parking site (Mutex, CondVar, Barrier,
//    RwLock, Semaphore, Latch, WaitGroup, join, sleep, timed waits) tags the
//    blocking ULT with a wait kind + callsite, and the wake records the
//    block→wake time into a fixed-capacity lock-free site table;
//  * lock contention — per-Mutex acquire/contended counts, hold-time and
//    wait-time log2 histograms (an acquisition's wait is the sum of its
//    parks' records), and a contention-chain counter (a waiter
//    parked behind a holder that is itself off-CPU — the pathology the
//    ULT-aware-lock literature targets).
//
// Signal-safety contract: sample() runs inside signal handlers and
// record_wait() on block/wake paths; neither allocates, locks, nor calls
// non-reentrant libc. Export and configuration are ordinary-thread-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.hpp"  // now_ns(), LatencyHistogram, HistSnapshot

namespace lpt::prof {

// ---------------------------------------------------------------------------
// Configuration (always compiled: RuntimeOptions embeds it)
// ---------------------------------------------------------------------------

/// Hard ceiling on captured frames per sample (sizes the ring slot).
inline constexpr std::uint32_t kMaxFrames = 28;
/// Accepted LPT_PROF_HZ range; rates outside are rejected as nonsense.
inline constexpr int kMinHz = 1;
inline constexpr int kMaxHz = 100'000;

struct ProfConfig {
  bool enabled = false;   ///< master switch (arms the on-CPU sampler)
  bool offcpu = true;     ///< collect off-CPU wait attribution (when enabled)
  bool locks = true;      ///< collect per-Mutex contention profiles (when enabled)
  /// 0 = piggyback on preemption ticks (no extra signals); N>0 = an
  /// independent sampling signal at N Hz per worker (works even with
  /// TimerKind::None). Validated to [kMinHz, kMaxHz].
  int sample_hz = 0;
  std::uint32_t max_stack_depth = 16;     ///< frames per sample, clamped to kMaxFrames
  std::uint32_t ring_capacity = 1u << 12; ///< samples per OS thread
  /// Profile written at runtime shutdown (and by the metrics publisher, each
  /// period): ".json" = JSON report, anything else = folded stacks. "" = none.
  std::string file;
};

/// What a blocked ULT is waiting on (off-CPU attribution dimension).
enum class WaitKind : std::uint8_t {
  kNone = 0,
  kMutex,
  kCondVar,
  kBarrier,
  kRwLock,
  kSemaphore,
  kLatch,
  kWaitGroup,
  kJoin,
  kSleep,
  kBusyFlag,
  kSyscall,
  kCount,
};

const char* wait_kind_name(WaitKind k);

/// One profile output format; pick_format() maps a path like the metrics
/// exporter does (".json" = kJson, everything else folded).
enum class Format { kFolded, kJson };
Format pick_format(const std::string& path);

// ---------------------------------------------------------------------------
// Snapshot types (always compiled so tests/tools build in both modes)
// ---------------------------------------------------------------------------

/// Aggregate totals; the reconciliation contract is
/// `invocations == recorded + dropped` and it is what tools/telemetry_check
/// verifies against the folded/JSON headers and the metrics counters.
struct Totals {
  bool enabled = false;
  bool offcpu = false;
  bool locks = false;
  int sample_hz = 0;
  std::uint64_t invocations = 0;  ///< sampler entries (handler hits of a ULT)
  std::uint64_t recorded = 0;     ///< samples committed to rings
  std::uint64_t dropped = 0;      ///< ring-full or no-ring drops
  std::uint64_t offcpu_waits = 0;
  std::uint64_t offcpu_total_ns = 0;
  std::uint64_t offcpu_dropped = 0;  ///< site-table-full drops
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t contention_chains = 0;
};

struct UltProfile {
  std::uint32_t ult = 0;
  std::uint8_t pool = 0;
  std::uint64_t samples = 0;
};

struct WorkerProfile {
  std::int16_t worker = -1;
  std::uint64_t samples = 0;
};

struct WaitSiteProfile {
  WaitKind kind = WaitKind::kNone;
  std::uintptr_t site = 0;  ///< caller PC of the blocking primitive
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  trace::HistSnapshot blocked_ns;
};

struct LockProfile {
  int id = 0;               ///< slab index, stable for the run
  std::uintptr_t site = 0;  ///< callsite of the first contended acquire
  std::uint64_t acquires = 0;
  std::uint64_t contended = 0;
  std::uint64_t chains = 0;  ///< waiters parked behind an off-CPU holder
  trace::HistSnapshot hold_ns;
  trace::HistSnapshot wait_ns;
};

// ---------------------------------------------------------------------------
// On-CPU sample ring (trace::Ring discipline, wider slots)
// ---------------------------------------------------------------------------

/// One captured sample. Slot commit is `depth1` (depth + 1, so an empty walk
/// still commits nonzero) written LAST with release order; 0 = uncommitted.
struct alignas(64) Sample {
  std::int64_t ts_ns = 0;
  std::uint64_t pc[kMaxFrames] = {};  ///< pc[0] = interrupted PC, then callers
  std::uint32_t ult = 0;
  std::int16_t worker = -1;
  std::uint8_t pool = 0;
  std::atomic<std::uint8_t> depth1{0};
};
static_assert(sizeof(Sample) == 256, "four cache lines per sample slot");

/// Fixed-capacity single-writer sample ring ("single writer" = one OS thread
/// plus signal handlers running on it; see trace::Ring).
class SampleRing {
 public:
  void init(Sample* slots, std::uint32_t capacity) {
    slots_ = slots;
    capacity_ = capacity;
    head_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Reserve one slot; returns nullptr (and counts a drop) once full.
  /// Wait-free, async-signal-safe.
  Sample* reserve() {
    const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return &slots_[idx];
  }

  std::uint32_t fill() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::uint32_t>(h < capacity_ ? h : capacity_);
  }
  std::uint64_t recorded() const {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return h < capacity_ ? h : capacity_;
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const Sample& at(std::uint32_t i) const { return slots_[i]; }
  std::uint32_t capacity() const { return capacity_; }

 private:
  Sample* slots_ = nullptr;
  std::uint32_t capacity_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// ---------------------------------------------------------------------------
// Lock-contention stats (one per profiled Mutex, slab-allocated)
// ---------------------------------------------------------------------------

struct LockStats {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> chains{0};
  /// Written only by the Mutex's current owner (as its acquisition call
  /// returns, and as it unlocks); the lock word orders owners, so a plain
  /// field is race-free.
  std::int64_t hold_start_ns = 0;
  std::atomic<std::uintptr_t> site{0};  ///< first contended-acquire callsite
  trace::LatencyHistogram hold_ns;
  trace::LatencyHistogram wait_ns;
};

// ---------------------------------------------------------------------------
// Hot-path gates (one relaxed load each)
// ---------------------------------------------------------------------------

extern std::atomic<bool> g_oncpu;      ///< sampler armed (any mode)
extern std::atomic<bool> g_piggyback;  ///< sample from the preemption handler
extern std::atomic<bool> g_offcpu;
extern std::atomic<bool> g_locks;

inline bool oncpu_on() { return g_oncpu.load(std::memory_order_relaxed); }
inline bool piggyback_on() {
  return g_piggyback.load(std::memory_order_relaxed);
}
inline bool offcpu_on() { return g_offcpu.load(std::memory_order_relaxed); }
inline bool locks_on() { return g_locks.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Recording entry points
// ---------------------------------------------------------------------------

/// Capture one on-CPU sample: `pc` + a bounded frame-pointer walk from `fp`
/// constrained to [stack_lo, stack_hi). Counts one invocation; a null ring or
/// a full ring counts a drop instead of recording (invocations stays ==
/// recorded + dropped). Async-signal-safe: no allocation, no locks, every
/// dereference bounds-checked against the ULT's own stack. Builds without
/// frame pointers (-fomit-frame-pointer) just yield short walks — the chain
/// fails validation and the walk stops early.
void sample(SampleRing* ring, std::uint32_t ult, std::int16_t worker,
            std::uint8_t pool, std::uintptr_t pc, std::uintptr_t fp,
            std::uintptr_t stack_lo, std::uintptr_t stack_hi);

/// Attribute one completed off-CPU wait to (kind, callsite). Lock-free
/// (CAS-keyed fixed table); table exhaustion drops and counts.
void record_wait(WaitKind kind, std::uintptr_t site, std::int64_t ns);

// ---------------------------------------------------------------------------
// Collector: configuration, ring/slab registry, export
// ---------------------------------------------------------------------------

/// Process-wide collector (one active Runtime per process, like the tracer).
class Collector {
 public:
  static Collector& instance();

  /// (Re)arm profiling: drops data from any previous run. Runtime startup
  /// only — never concurrent with recording.
  void configure(const ProfConfig& cfg);
  /// Stop recording; data stays readable for late export.
  void disable();

  const ProfConfig& config() const { return cfg_; }

  /// Register the calling OS thread's sample ring (thread-startup code only).
  /// Returns nullptr when the sampler is off.
  SampleRing* acquire_ring();

  /// Grab a LockStats slot for a Mutex; nullptr when the lock profiler is
  /// off or the slab is exhausted (that mutex simply goes unprofiled).
  LockStats* acquire_lock_stats();

  Totals totals() const;
  std::vector<UltProfile> oncpu_by_ult() const;
  std::vector<WorkerProfile> oncpu_by_worker() const;
  std::vector<WaitSiteProfile> offcpu_sites() const;
  std::vector<LockProfile> lock_profiles() const;

  /// Folded-stack export (flamegraph-ready after `grep -v '^#'`): header
  /// comments carry the reconciliation totals, then one
  /// `ult<id>;p<pool>;<frame>;...;<frame> <count>` line per distinct stack,
  /// frames outermost-first, symbolized via dladdr when possible.
  void write_folded(std::FILE* out) const;
  /// Full JSON report: oncpu (totals + by-ULT/by-worker), offcpu sites,
  /// lock table.
  void write_json(std::FILE* out) const;
  /// Write to `path` in the format pick_format() chooses, atomically
  /// (tmp + rename). Returns false on I/O error.
  bool write_file(const std::string& path) const;

  static constexpr std::uint32_t kWaitSites = 256;
  static constexpr std::uint32_t kMaxLocks = 512;

 private:
  struct RingBlock {
    std::unique_ptr<Sample[]> slots;
    SampleRing ring;
  };

  struct WaitSiteSlot {
    std::atomic<std::uint64_t> key{0};  ///< site | kind<<56; 0 = free
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    trace::LatencyHistogram blocked_ns;
  };

  friend void record_wait(WaitKind, std::uintptr_t, std::int64_t);

  mutable std::mutex rings_lock_;
  std::vector<std::unique_ptr<RingBlock>> rings_;
  ProfConfig cfg_;
  std::uint32_t depth_ = 16;  ///< effective max walk depth (clamped)

  std::unique_ptr<WaitSiteSlot[]> sites_;
  std::unique_ptr<LockStats[]> locks_;
  std::atomic<std::uint32_t> next_lock_{0};
};

// Global counters shared with the recording free functions (kept out of the
// Collector so the signal path needs no instance() call ordering guarantees).
extern std::atomic<std::uint64_t> g_invocations;
extern std::atomic<std::uint64_t> g_noring_dropped;
extern std::atomic<std::uint64_t> g_offcpu_waits;
extern std::atomic<std::uint64_t> g_offcpu_ns;
extern std::atomic<std::uint64_t> g_offcpu_dropped;
extern std::atomic<std::uint32_t> g_depth;  ///< effective max walk depth

}  // namespace lpt::prof
