#include "context/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/assert.hpp"
#include "common/sys.hpp"

namespace lpt {

namespace {
std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

constexpr int kStackProt = PROT_READ | PROT_WRITE;
constexpr int kStackFlags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK;

/// Guard pages of dropped sealed stacks. A sealed page can never be unmapped,
/// so instead of leaving it behind, the next fresh stack maps its usable
/// region straight above one. Process-wide (stacks outlive runtimes) and
/// never freed, so stacks destroyed during static destruction can still park.
struct ParkedGuards {
  Spinlock lock;
  std::vector<void*> guards;  // most recently parked at the back
};

ParkedGuards& parked() {
  static ParkedGuards* const g = new ParkedGuards;
  return *g;
}

/// Parked guards tried per fresh stack before mapping a new one.
constexpr std::size_t kParkedTries = 4;

}  // namespace

Stack::Stack(std::size_t usable_size) {
  const std::size_t ps = page_size();
  const std::size_t usable = (usable_size + ps - 1) / ps * ps;

  // Reuse a parked guard when the range above it is still free. The mseal
  // call re-seals an already sealed page (a no-op) and lets LPT_FAULT's
  // mseal site decline the reuse like it declines a fresh seal.
  ParkedGuards& pg = parked();
  std::size_t tries;
  {
    SpinlockGuard lk(pg.lock);
    tries = std::min(kParkedTries, pg.guards.size());  // each one at most once
  }
  for (std::size_t i = 0; i < tries; ++i) {
    void* g;
    {
      SpinlockGuard lk(pg.lock);
      if (pg.guards.empty()) break;
      g = pg.guards.back();
      pg.guards.pop_back();
    }
    void* want = static_cast<char*>(g) + ps;
    void* p = MAP_FAILED;
    int err = 0;
    if (sys::mseal(g, ps) == 0) {
      p = sys::mmap(want, usable, kStackProt, kStackFlags | MAP_FIXED_NOREPLACE,
                    -1, 0);
      err = errno;
    }
    if (p == want) {
      map_ = g;
      map_size_ = usable + ps;
      base_ = want;
      size_ = usable;
      sealed_ = true;
      return;
    }
    {
      // Not usable now: retry it after the others.
      SpinlockGuard lk(pg.lock);
      pg.guards.insert(pg.guards.begin(), g);
    }
    if (p != MAP_FAILED) {
      ::munmap(p, usable);  // placed elsewhere: NOREPLACE was not honoured
    } else if (err == 0) {
      break;  // sealing declined: map fresh, which asks again
    } else if (err != EEXIST) {
      errno = err;  // a real or injected mmap failure
      return;
    }
  }

  const std::size_t total = usable + ps;  // + guard page
  void* p = sys::mmap(nullptr, total, kStackProt, kStackFlags, -1, 0);
  if (p == MAP_FAILED) return;  // invalid; errno says why
  // Splitting the guard off adds a VMA, which fails with ENOMEM at
  // vm.max_map_count: give the mapping back and fail like mmap would.
  if (::mprotect(p, ps, PROT_NONE) != 0) {
    const int err = errno;
    ::munmap(p, total);
    errno = err;
    return;
  }
  map_ = p;
  map_size_ = total;
  base_ = static_cast<char*>(p) + ps;
  size_ = usable;
  sealed_ = sys::mseal(p, ps) == 0;
}

void Stack::unmap() {
  if (map_ == nullptr) return;
  if (!sealed_) {
    ::munmap(map_, map_size_);
    return;
  }
  ::munmap(base_, size_);
  SpinlockGuard lk(parked().lock);
  parked().guards.push_back(map_);
}

Stack::~Stack() { unmap(); }

Stack::Stack(Stack&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      sealed_(std::exchange(other.sealed_, false)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    sealed_ = std::exchange(other.sealed_, false);
  }
  return *this;
}

bool Stack::reassert_guard() {
  if (map_ == nullptr) return false;
  if (sealed_) return true;
  return sys::mprotect(map_, guard_size(), PROT_NONE) == 0;
}

void Stack::scrub() {
  if (base_ == nullptr) return;
  (void)::madvise(base_, size_, MADV_DONTNEED);
}

std::size_t Stack::watermark() const {
  if (base_ == nullptr) return 0;
  const std::size_t ps = page_size();
  const std::size_t npages = size_ / ps;
  unsigned char vec[256];
  // Scan upward from the bottom of the usable area; the first resident page
  // is the deepest the stack ever grew. Cost is one mincore per 256 pages
  // (1 MiB), and a typical run exits on the first chunk.
  for (std::size_t i = 0; i < npages; i += sizeof(vec)) {
    const std::size_t n = npages - i < sizeof(vec) ? npages - i : sizeof(vec);
    if (::mincore(static_cast<char*>(base_) + i * ps, n * ps, vec) != 0)
      return 0;
    for (std::size_t j = 0; j < n; ++j)
      if ((vec[j] & 1) != 0) return size_ - (i + j) * ps;
  }
  return 0;
}

StackPool::StackPool(std::size_t stack_size, std::size_t max_cached,
                     bool scrub_on_reuse, int shards)
    : stack_size_(stack_size),
      max_cached_(max_cached),
      scrub_on_reuse_(scrub_on_reuse),
      n_shards_(shards),
      shards_(shards > 0 ? new Shard[static_cast<std::size_t>(shards)]
                         : nullptr) {}

void StackPool::push_shared_locked(Stack&& s, std::vector<Stack>* drop) {
  if (free_.size() < max_cached_) {
    free_.push_back(std::move(s));
  } else {
    shed_.fetch_add(1, std::memory_order_relaxed);
    drop->push_back(std::move(s));
  }
}

Stack StackPool::pop(int shard) {
  const bool own = shard >= 0 && shard < n_shards_;
  if (own) {
    Shard& sh = shards_[shard];
    SpinlockGuard g(sh.lock);
    if (sh.n == 0) {
      SpinlockGuard gs(lock_);
      const std::size_t k = std::min(kShardBatch, free_.size());
      // The back of the shared list is its most recently used end; keep the
      // refilled stacks in that order so the hottest is popped first.
      std::move(free_.end() - static_cast<std::ptrdiff_t>(k), free_.end(),
                sh.slots);
      free_.resize(free_.size() - k);
      sh.n = k;
    }
    if (sh.n != 0) return std::move(sh.slots[--sh.n]);
  } else {
    SpinlockGuard g(lock_);
    if (!free_.empty()) {
      Stack s = std::move(free_.back());
      free_.pop_back();
      return s;
    }
  }
  // Nothing here or in the shared list: take from another worker's shard
  // (up to half of it, the rest into our own) before the caller maps a
  // fresh stack, so the pool does not grow while any stack is cached. One
  // shard lock at a time: two workers may be doing this to each other.
  for (int r = 0; r < n_shards_; ++r) {
    if (r == shard) continue;
    Stack got[kShardBatch];
    std::size_t k;
    {
      Shard& other = shards_[r];
      SpinlockGuard g(other.lock);
      if (other.n == 0) continue;
      k = own ? std::min(kShardBatch, (other.n + 1) / 2) : 1;
      std::move(other.slots + other.n - k, other.slots + other.n, got);
      other.n -= k;
    }
    if (k > 1) {
      // Our shard was empty just now and only we add to it: room for k - 1.
      Shard& sh = shards_[shard];
      SpinlockGuard g(sh.lock);
      std::move(got, got + k - 1, sh.slots + sh.n);
      sh.n += k - 1;
    }
    return std::move(got[k - 1]);
  }
  return Stack();
}

Stack StackPool::acquire(int shard) {
  for (;;) {
    Stack s = pop(shard);
    if (!s.valid()) break;
    // While the stack was live, anyone could have lifted an unsealed guard
    // with mprotect (a faulted tenant's stack goes through quarantine, not
    // here); never hand one out without PROT_NONE re-asserted below it. A
    // sealed guard cannot be lifted, and reassert_guard returns at once.
    if (!s.reassert_guard()) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      continue;  // dropped: s unmaps on the next iteration
    }
    if (scrub_on_reuse_) s.scrub();
    return s;
  }
  return Stack(stack_size_);
}

Stack StackPool::try_acquire(int* err, int shard) {
  Stack s = acquire(shard);
  if (s.valid()) return s;
  const int first_err = errno != 0 ? errno : ENOMEM;
  // Degrade: return every cached mapping to the kernel, then retry once.
  // (A cached stack of the right size would have been handed out above, so
  // reaching here means the cache held nothing useful — but a racing
  // release may have restocked it, and shedding also frees address space
  // held by other pools' churn.)
  shed_all();
  s = Stack(stack_size_);
  if (s.valid()) return s;
  if (err != nullptr) *err = errno != 0 ? errno : first_err;
  return s;
}

void StackPool::release(Stack&& s, int shard) {
  LPT_CHECK(s.valid());
  std::vector<Stack> drop;  // unmapped outside the locks
  if (shard >= 0 && shard < n_shards_) {
    Shard& sh = shards_[shard];
    SpinlockGuard g(sh.lock);
    if (sh.n == kShardCap) {
      // Spill the oldest half to the shared list.
      SpinlockGuard gs(lock_);
      for (std::size_t i = 0; i < kShardBatch; ++i)
        push_shared_locked(std::move(sh.slots[i]), &drop);
      std::move(sh.slots + kShardBatch, sh.slots + kShardCap, sh.slots);
      sh.n = kShardCap - kShardBatch;
    }
    sh.slots[sh.n++] = std::move(s);
    return;
  }
  SpinlockGuard g(lock_);
  push_shared_locked(std::move(s), &drop);
}

void StackPool::quarantine(Stack&& s) {
  LPT_CHECK(s.valid());
  // The faulting ULT's frames are garbage and the guard may have been the
  // fault target: return the pages to the kernel and re-protect an unsealed
  // guard before this stack can host another ULT. An unprotectable guard
  // means the mapping is not trustworthy — drop it.
  s.scrub();
  const bool guard_ok = s.reassert_guard();
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  Stack drop;  // unmapped outside the lock
  SpinlockGuard g(lock_);
  if (guard_ok && free_.size() < max_cached_) {
    free_.push_back(std::move(s));
    return;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  drop = std::move(s);
}

std::size_t StackPool::trim(std::size_t keep) {
  std::vector<Stack> drop;  // unmapped outside the locks
  for (int r = 0; r < n_shards_; ++r) {
    Shard& sh = shards_[r];
    SpinlockGuard g(sh.lock);
    SpinlockGuard gs(lock_);
    for (std::size_t i = 0; i < sh.n; ++i)
      push_shared_locked(std::move(sh.slots[i]), &drop);
    sh.n = 0;
  }
  SpinlockGuard g(lock_);
  if (free_.size() > keep) {
    // The back of the shared list is the most recently used end (LIFO
    // reuse); drop from the front.
    const auto cut = free_.end() - static_cast<std::ptrdiff_t>(keep);
    const std::size_t n = static_cast<std::size_t>(cut - free_.begin());
    drop.insert(drop.end(), std::make_move_iterator(free_.begin()),
                std::make_move_iterator(cut));
    free_.erase(free_.begin(), cut);
    shed_.fetch_add(n, std::memory_order_relaxed);
  }
  return drop.size();
}

std::size_t StackPool::cached() const {
  std::size_t n = 0;
  for (int r = 0; r < n_shards_; ++r) {
    SpinlockGuard g(shards_[r].lock);
    n += shards_[r].n;
  }
  SpinlockGuard g(lock_);
  return n + free_.size();
}

}  // namespace lpt
