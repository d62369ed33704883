// Blocking-syscall resilience (docs/robustness.md): guards and wrappers for
// syscalls that may block the hosting kernel thread for arbitrarily long.
//
// A preemption tick cannot rescue a worker wedged inside the kernel — the
// signal is only delivered when the syscall returns. `blocking_region`
// therefore *publishes* the wedge instead of preventing it: it pins the ULT
// to its current KLT (NoPreemptGuard semantics, so the host token cannot be
// claimed away by the preemption handler mid-syscall) and flips the worker's
// syscall-epoch word odd with an entry timestamp. The watchdog's wedge
// sentinel reads that word; once the region has been wedged past
// RuntimeOptions::syscall_grace_ns it activates a compensating spare KLT on
// the worker (the host-token CAS arbiter from forced replacement), so the
// worker's runnable ULTs keep dispatching while the old host sleeps in the
// kernel. When the syscall finally returns, the region exit notices its
// epoch was compensated and *reabsorbs*: the surviving KLT re-enqueues the
// ULT and parks itself back into the KLT pool — nothing is killed, and the
// kernel-thread population returns to baseline.
//
// `io::call()` adds the retry half: EINTR retries immediately, EAGAIN /
// EWOULDBLOCK retries with capped exponential backoff (cooperative sleep
// inside a ULT), all bounded by an optional relative deadline that turns
// exhaustion into errno = ETIMEDOUT. The named wrappers (io::read etc.)
// route through the sys:: shim, so the LPT_FAULT harness can storm them.
//
// Everything degrades to plain syscalls outside a runtime: constructed on a
// thread with no current ULT, the guard is inert and call() only keeps its
// retry/deadline behavior.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdint>
#include <utility>

namespace lpt {
struct ThreadCtl;
struct Worker;
}  // namespace lpt

namespace lpt::io {

/// RAII annotation for one potentially-blocking syscall. Pins the ULT to its
/// KLT and publishes the in-syscall state word for the wedge sentinel; the
/// destructor un-publishes and, when the sentinel compensated this region,
/// takes the reabsorption path (re-enqueue the ULT, park this KLT).
/// Nestable: only the outermost region on a worker publishes. Inert outside
/// ULT context.
class blocking_region {
 public:
  explicit blocking_region(void* site = nullptr);
  ~blocking_region();
  blocking_region(const blocking_region&) = delete;
  blocking_region& operator=(const blocking_region&) = delete;

 private:
  ThreadCtl* self_ = nullptr;   ///< nullptr = inert (no runtime)
  Worker* worker_ = nullptr;
  std::uint64_t epoch_ = 0;     ///< the odd epoch this region published
  bool published_ = false;      ///< false when nested inside another region
  /// Entry time (CLOCK_MONOTONIC) of an outermost region; 0 otherwise. The
  /// syscall's one timing: the kSyscallReturn event and the off-CPU record.
  std::int64_t enter_ns_ = 0;
  void* site_ = nullptr;        ///< caller PC, the off-CPU record's site
};

namespace detail {
/// errno of the kernel thread *currently* hosting the caller, read/written
/// through a non-inlined call. glibc declares __errno_location()
/// __attribute__((const)), so the optimizer may compute the errno address
/// once per function and reuse it — wrong in a ULT that migrates between
/// kernel threads at a suspension point (backoff sleep, reabsorption). Any
/// errno access that straddles a possible suspension must go through these.
int last_errno();
void set_errno(int err);
/// Relative → absolute CLOCK_MONOTONIC deadline; 0 stays 0 (no deadline).
std::int64_t call_deadline(std::int64_t rel_ns);
/// Decide whether to retry after `err` (EINTR/EAGAIN/EWOULDBLOCK): sleeps
/// the capped exponential backoff for EAGAIN, clamped to the remaining
/// deadline. Returns false when the deadline has expired (caller reports
/// ETIMEDOUT).
bool call_backoff(int err, std::int64_t deadline_abs, std::int64_t* backoff_ns);
}  // namespace detail

/// Run `fn` (a callable performing one syscall, returning a signed result
/// with -1/errno failure) inside a blocking_region, retrying EINTR
/// immediately and EAGAIN/EWOULDBLOCK with capped exponential backoff.
/// `deadline_ns` bounds the whole call including retries (relative, 0 =
/// unbounded); on expiry returns the last failure with errno = ETIMEDOUT.
template <typename Fn>
auto call(Fn&& fn, std::int64_t deadline_ns = 0, void* site = nullptr)
    -> decltype(fn()) {
  const std::int64_t deadline_abs = detail::call_deadline(deadline_ns);
  std::int64_t backoff_ns = 0;
  for (;;) {
    decltype(fn()) rc;
    int err = 0;
    {
      blocking_region region(site != nullptr
                                 ? site
                                 : __builtin_return_address(0));
      rc = fn();
      // Capture errno before the region destructor: errno is per-KLT, and
      // the destructor may suspend (reabsorption, deferred-tick yield) and
      // resume this ULT on a different kernel thread. The opaque accessor
      // defeats __errno_location() address caching across the loop's own
      // suspension points (see detail::last_errno).
      if (rc < 0) err = detail::last_errno();
    }
    if (rc >= 0) return rc;
    if (err != EINTR && err != EAGAIN && err != EWOULDBLOCK) {
      detail::set_errno(err);  // re-assert on whichever KLT hosts us now
      return rc;
    }
    if (!detail::call_backoff(err, deadline_abs, &backoff_ns)) {
      detail::set_errno(ETIMEDOUT);
      return rc;
    }
  }
}

/// errno as seen by the kernel thread currently hosting the caller. Use this
/// instead of reading `errno` directly after an io:: call made from ULT
/// context: the call may have migrated the ULT to a different kernel thread,
/// and a compiler that cached the errno address before the call (glibc's
/// __errno_location() is attribute-const) would read the *old* thread's
/// errno. Equivalent to plain errno outside a runtime.
int last_error();

// Named wrappers: the syscall through the sys:: fault-injection shim, inside
// a blocking_region, with call()'s retry/deadline policy. Signatures mirror
// the POSIX calls plus a trailing relative deadline (0 = unbounded).
ssize_t read(int fd, void* buf, std::size_t count, std::int64_t deadline_ns = 0);
ssize_t write(int fd, const void* buf, std::size_t count,
              std::int64_t deadline_ns = 0);
int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
           std::int64_t deadline_ns = 0);
int connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen,
            std::int64_t deadline_ns = 0);
int poll(struct pollfd* fds, nfds_t nfds, int timeout,
         std::int64_t deadline_ns = 0);

}  // namespace lpt::io
