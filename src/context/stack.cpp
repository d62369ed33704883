#include "context/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

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
}  // namespace

Stack::Stack(std::size_t usable_size) {
  const std::size_t ps = page_size();
  const std::size_t usable = (usable_size + ps - 1) / ps * ps;
  const std::size_t total = usable + ps;  // + guard page
  void* p = sys::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (p == MAP_FAILED) return;  // invalid; errno says why
  LPT_CHECK(::mprotect(p, ps, PROT_NONE) == 0);
  map_ = p;
  map_size_ = total;
  base_ = static_cast<char*>(p) + ps;
  size_ = usable;
}

Stack::~Stack() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

Stack::Stack(Stack&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

bool Stack::reassert_guard() {
  if (map_ == nullptr) return false;
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

Stack StackPool::acquire() {
  for (;;) {
    Stack s;
    {
      SpinlockGuard g(lock_);
      if (free_.empty()) break;
      s = std::move(free_.back());
      free_.pop_back();
    }
    // A faulted or buggy former tenant could have left the guard writable;
    // never hand out a cached stack without PROT_NONE re-asserted below it.
    if (!s.reassert_guard()) {
      SpinlockGuard g(lock_);
      ++shed_;  // dropped: s unmaps on scope exit
      continue;
    }
    if (scrub_on_reuse_) s.scrub();
    return s;
  }
  return Stack(stack_size_);
}

Stack StackPool::try_acquire(int* err) {
  Stack s = acquire();
  if (s.valid()) return s;
  const int first_err = errno != 0 ? errno : ENOMEM;
  // Degrade: return every cached mapping to the kernel, then retry once.
  // (A cached stack of the right size would have been handed out above, so
  // reaching here means the free list held nothing useful — but a racing
  // release may have restocked it, and shedding also frees address space
  // held by other pools' churn.)
  shed_all();
  s = Stack(stack_size_);
  if (s.valid()) return s;
  if (err != nullptr) *err = errno != 0 ? errno : first_err;
  return s;
}

void StackPool::release(Stack&& s) {
  LPT_CHECK(s.valid());
  Stack drop;  // unmapped outside the lock if the cache is full
  {
    SpinlockGuard g(lock_);
    if (free_.size() < max_cached_) {
      free_.push_back(std::move(s));
      return;
    }
    ++shed_;
    drop = std::move(s);
  }
}

void StackPool::quarantine(Stack&& s) {
  LPT_CHECK(s.valid());
  // The faulting ULT's frames are garbage and the guard may have been the
  // fault target: return the pages to the kernel and re-protect before this
  // stack can host another ULT. An unprotectable guard means the mapping is
  // not trustworthy — drop it.
  s.scrub();
  const bool guard_ok = s.reassert_guard();
  {
    SpinlockGuard g(lock_);
    ++quarantined_;
    if (guard_ok && free_.size() < max_cached_) {
      free_.push_back(std::move(s));
      return;
    }
    ++shed_;
  }
}

std::size_t StackPool::trim(std::size_t keep) {
  std::vector<Stack> drop;  // unmapped outside the lock
  {
    SpinlockGuard g(lock_);
    if (free_.size() <= keep) return 0;
    // The back of the free list is the most recently used end (LIFO reuse);
    // drop from the front.
    const auto cut = free_.end() - static_cast<std::ptrdiff_t>(keep);
    drop.assign(std::make_move_iterator(free_.begin()),
                std::make_move_iterator(cut));
    free_.erase(free_.begin(), cut);
    shed_ += drop.size();
  }
  return drop.size();
}

std::size_t StackPool::cached() const {
  SpinlockGuard g(lock_);
  return free_.size();
}

std::uint64_t StackPool::total_shed() const {
  SpinlockGuard g(lock_);
  return shed_;
}

std::uint64_t StackPool::total_quarantined() const {
  SpinlockGuard g(lock_);
  return quarantined_;
}

}  // namespace lpt
