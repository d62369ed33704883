// Stacks for user-level threads: mmap'd regions with an inaccessible guard
// page below the usable area, plus a pool so the fork/join fast path never
// touches mmap (M:N threads owe much of their speed to cheap thread creation,
// §1/§2.1).
//
// Robustness (docs/robustness.md): allocation goes through lpt::sys::mmap so
// failures — real ENOMEM or LPT_FAULT-injected — surface as an invalid Stack
// instead of an abort. Each guard page is sealed with mseal(2) once, when it
// is mapped, so neither the runtime nor a tenant can ever lift it: reuse
// needs no mprotect. A stack whose seal failed (older kernel, refused, or
// injected) keeps the re-assert-on-every-reuse path. The runtime's pool is
// uncapped, so it holds at most as many stacks as were ever live at once, and
// trims the excess only when it idles: fork/join churn never unmaps and
// re-maps stacks mid-run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cpu.hpp"
#include "common/spinlock.hpp"

namespace lpt {

/// One mmap'd stack. Movable, non-copyable; unmaps on destruction.
class Stack {
 public:
  Stack() = default;
  /// Maps usable_size rounded up to whole pages, plus one guard page below,
  /// and seals the guard. A guard parked by an earlier sealed stack is
  /// reused when the address range above it is free. On failure (mmap, or
  /// the guard split at vm.max_map_count) the object is left invalid
  /// (valid() == false) with errno set by the failed call — callers decide
  /// whether that is fatal.
  explicit Stack(std::size_t usable_size);
  ~Stack();
  Stack(Stack&& other) noexcept;
  Stack& operator=(Stack&& other) noexcept;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool valid() const { return base_ != nullptr; }
  /// Lowest usable address (just above the guard page).
  void* base() const { return base_; }
  std::size_t size() const { return size_; }
  /// Guard page (lowest page of the mapping, PROT_NONE).
  void* guard() const { return map_; }
  /// True when the guard page is sealed (mseal): its protection can never
  /// change again, so reassert_guard() has nothing to do.
  bool sealed() const { return sealed_; }
  std::size_t guard_size() const { return map_size_ - size_; }
  /// True when addr falls inside the guard page — the signature of a stack
  /// overflow. Async-signal-safe (plain loads).
  bool in_guard(std::uintptr_t addr) const {
    const std::uintptr_t g = reinterpret_cast<std::uintptr_t>(map_);
    return map_ != nullptr && addr >= g && addr - g < guard_size();
  }

  /// Re-apply PROT_NONE to an unsealed guard page (through the sys shim, so
  /// LPT_FAULT can exercise the failure path); true at once for a sealed one.
  /// Returns false with errno set on failure; callers must then drop the
  /// stack rather than hand it out.
  bool reassert_guard();
  /// Return the usable region's pages to the kernel (madvise MADV_DONTNEED).
  /// Best-effort: scrubbing is advisory and failure is ignored.
  void scrub();
  /// High-water mark of stack usage in bytes, at page granularity: distance
  /// from the top of the stack down to the lowest page the kernel has ever
  /// populated (mincore scan from the bottom). 0 when nothing was touched or
  /// the scan fails. Pool-reused stacks that were not scrubbed report the
  /// high-water mark across all their tenants.
  std::size_t watermark() const;

 private:
  /// Give the mapping back: all of it when unsealed; only the usable region
  /// when sealed, parking the guard for the next fresh stack.
  void unmap();

  void* map_ = nullptr;        // includes guard page
  std::size_t map_size_ = 0;
  void* base_ = nullptr;       // usable area
  std::size_t size_ = 0;
  bool sealed_ = false;
};

/// Thread-safe pool of equally sized stacks: an optional per-worker shard in
/// front of one shared free list. The shared list keeps at most `max_cached`
/// stacks; releases beyond the cap munmap immediately (counted in
/// total_shed()). With kUncapped the owner bounds the pool with trim().
///
/// Shards (DESIGN.md, "Spawn path"): shard r holds up to kShardCap stacks
/// for worker r, refilled from and spilled to the shared list kShardBatch at
/// a time. Only worker r's scheduler context and ULTs running on worker r
/// pass r, so a shard's lock and slots stay on its worker's core; cached(),
/// trim() and shed_all() lock every shard in turn and so cover them all.
/// When a caller's shard and the shared list are both empty, it takes from
/// another shard before mapping: the pool never grows while it holds a
/// stack.
class StackPool {
 public:
  static constexpr std::size_t kUncapped = static_cast<std::size_t>(-1);
  static constexpr std::size_t kShardCap = 32;
  static constexpr std::size_t kShardBatch = kShardCap / 2;
  /// Shard argument for callers not running on a worker: the shared list.
  static constexpr int kShared = -1;

  /// scrub_on_reuse: madvise the usable region back to the kernel every time
  /// a cached stack is handed out (LPT_STACK_SCRUB) — makes watermark()
  /// per-tenant accurate at the cost of re-faulting pages in.
  explicit StackPool(std::size_t stack_size, std::size_t max_cached = 64,
                     bool scrub_on_reuse = false, int shards = 0);

  /// Pop a cached stack (from `shard` first) or map a fresh one. May return
  /// an invalid Stack on allocation failure; prefer try_acquire for an
  /// errno-carrying variant.
  Stack acquire(int shard = kShared);

  /// acquire() with graceful degradation: on mmap failure the pool sheds its
  /// whole cache (returning address space) and retries once. On final
  /// failure returns an invalid Stack and stores the errno in *err.
  Stack try_acquire(int* err, int shard = kShared);

  /// Return a stack for reuse (must have been acquired from this pool).
  /// Dropped (munmap'd) instead of cached once the shared list is at
  /// capacity.
  void release(Stack&& s, int shard = kShared);

  /// Return the stack of a *faulted* ULT: always scrubs the usable region and
  /// re-asserts an unsealed guard before the stack can be reused, and drops
  /// it entirely if the guard cannot be re-protected. Counted in
  /// total_quarantined().
  void quarantine(Stack&& s);

  /// Drop cached stacks beyond `keep` (oldest first, after spilling every
  /// shard into the shared list); returns how many were freed. The runtime
  /// trims to max_cached_stacks when it idles.
  std::size_t trim(std::size_t keep);

  /// Drop every cached stack now; returns how many were freed. Used by the
  /// spawn path to claw back address space before retrying an allocation.
  std::size_t shed_all() { return trim(0); }

  std::size_t stack_size() const { return stack_size_; }
  std::size_t max_cached() const { return max_cached_; }
  /// Stacks cached in the shared list and every shard.
  std::size_t cached() const;
  /// Cumulative stacks dropped (cap overflow + trim/shed_all + failed
  /// re-protect).
  std::uint64_t total_shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Cumulative faulted stacks routed through quarantine().
  std::uint64_t total_quarantined() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineSize) Shard {
    Spinlock lock;
    std::size_t n = 0;  // slots [0, n) hold stacks, oldest first
    Stack slots[kShardCap];
  };

  /// Pop one stack from `shard` (refilling it from the shared list when
  /// empty) or from the shared list; invalid when both are empty.
  Stack pop(int shard);
  /// Append to the shared list, dropping past the cap. Caller holds lock_.
  void push_shared_locked(Stack&& s, std::vector<Stack>* drop);

  std::size_t stack_size_;
  std::size_t max_cached_;
  bool scrub_on_reuse_;
  int n_shards_;
  std::unique_ptr<Shard[]> shards_;
  mutable Spinlock lock_;
  std::vector<Stack> free_;  // shared list, guarded by lock_
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> quarantined_{0};
};

}  // namespace lpt
