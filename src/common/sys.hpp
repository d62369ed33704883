// Syscall shim + deterministic fault injection (docs/robustness.md).
//
// Every kernel resource the runtime acquires under preemption pressure —
// KLTs (pthread_create), POSIX timers (timer_create/timer_settime), ULT
// stacks (mmap, and mseal for their guard pages), and signal delivery
// (pthread_sigqueue) — goes through the wrappers below instead of calling
// libc directly, as do the blocking I/O calls behind `lpt::io`
// (read/write/pipe2/eventfd/poll/accept/connect). In
// production builds the wrappers are a single relaxed atomic increment on top
// of the raw call; with a fault plan armed (LPT_FAULT environment variable or
// configure_faults()) they deterministically inject failures so every
// degraded path in the runtime is testable in CI without exhausting real
// kernel resources.
//
// Signal-safety: the *check* path (maybe_fail) touches only atomics, so the
// wrappers stay as async-signal-safe as the calls they wrap — in particular
// sys::pthread_sigqueue is called from the preemption signal handler.
// Configuration (configure_faults / reset_faults / load_env_faults) is NOT
// signal-safe and must run in normal thread context.
#pragma once

#include <poll.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <string>

namespace lpt::sys {

/// Every instrumented acquisition site. Keep in sync with site_name().
enum class Site : int {
  kPthreadCreate = 0,
  kTimerCreate,
  kTimerSettime,
  kMmap,
  kPthreadSigqueue,
  kMprotect,
  kRead,
  kWrite,
  kPipe2,
  kEventfd,
  kPoll,
  kAccept,
  kConnect,
  kMseal,
  kCount,
};

const char* site_name(Site s);

/// Point-in-time per-site accounting (all monotonic).
struct SiteCounters {
  std::uint64_t calls = 0;     ///< wrapper invocations
  std::uint64_t injected = 0;  ///< failures injected by the fault plan
  std::uint64_t failed = 0;    ///< *real* failures reported by the kernel
};

// --- wrappers (same contracts as the wrapped calls) ------------------------

/// Returns an error number (pthread style) — injected or real.
int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                   void* (*start_routine)(void*), void* arg);

/// Returns -1 with errno set on failure (injected or real).
int timer_create(clockid_t clockid, struct sigevent* sevp, timer_t* timerid);

/// Returns -1 with errno set on failure (injected or real).
int timer_settime(timer_t timerid, int flags, const struct itimerspec* new_value,
                  struct itimerspec* old_value);

/// Returns MAP_FAILED with errno set on failure (injected or real).
void* mmap(void* addr, std::size_t length, int prot, int flags, int fd,
           off_t offset);

/// Returns an error number (pthread style). Async-signal-safe.
int pthread_sigqueue(pthread_t thread, int sig, const union sigval value);

/// Returns -1 with errno set on failure (injected or real). Used by the
/// stack pool to re-assert guard-page protection when it reuses a stack
/// whose guard is not sealed (docs/robustness.md, fault isolation).
int mprotect(void* addr, std::size_t len, int prot);

/// mseal(2) (Linux >= 6.10): seal [addr, addr+len) so its protection and
/// mapping can never change again. Returns -1 with errno set on failure
/// (injected, or real: ENOSYS on older kernels, EPERM/EINVAL where sealing
/// is refused). Used to seal each stack's guard page once, when it is mapped
/// (docs/robustness.md, fault isolation).
int mseal(void* addr, std::size_t len);

// Blocking-I/O sites used by lpt::io::call() (docs/robustness.md,
// "Blocking-syscall resilience"). All return -1 with errno set on failure
// (injected or real), matching the wrapped calls.

ssize_t read(int fd, void* buf, std::size_t count);
ssize_t write(int fd, const void* buf, std::size_t count);
int pipe2(int pipefd[2], int flags);
int eventfd(unsigned int initval, int flags);
int poll(struct pollfd* fds, nfds_t nfds, int timeout);
int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen);
int connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen);

// --- fault plan ------------------------------------------------------------
//
// Schedule syntax (the LPT_FAULT environment variable uses the same string):
//
//   spec    := clause (';' clause)*
//   clause  := site ':' kv (',' kv)*
//   site    := pthread_create | timer_create | timer_settime | mmap
//            | pthread_sigqueue | mprotect | read | write | pipe2
//            | eventfd | poll | accept | connect | mseal
//   kv      := nth=N      fail exactly the Nth eligible call (1-based)
//            | first=N    fail eligible calls 1..N
//            | every=N    fail every Nth eligible call
//            | prob=P     fail with probability P in [0,1] (deterministic
//                         splitmix64 stream; combine with seed=)
//            | seed=S     PRNG seed for prob= (default 1)
//            | after=N    skip the first N calls before counting eligibility
//                         (lets schedules spare runtime startup)
//            | max=N      stop after N injected failures at this site
//            | errno=E    failure code: EAGAIN|ENOMEM|EPERM|EINVAL|ENFILE
//                         |ENOSPC|EINTR|ENOSYS or a number (default: ENOMEM
//                         for mmap/mprotect, ENOSYS for mseal, EAGAIN
//                         elsewhere)
//
// Example: fail every pthread_create after the 8th with EAGAIN, and the 3rd
// mmap with ENOMEM:
//
//   LPT_FAULT='pthread_create:after=8,every=1;mmap:nth=3,errno=ENOMEM'

/// Parse and arm a fault plan (replaces any previous plan; counters are
/// preserved, but nth/first/after/max count calls and injections from the
/// moment the plan is armed — re-arming mid-run behaves like arming fresh).
/// Empty spec == reset_faults(). Returns false on a malformed spec (plan
/// unchanged) and, when non-null, fills *error with a message.
bool configure_faults(const std::string& spec, std::string* error = nullptr);

/// Disarm all fault plans and zero every counter.
void reset_faults();

/// Apply the LPT_FAULT environment variable (idempotent: first call wins).
/// Called by Runtime startup; safe to call with no variable set.
void load_env_faults();

SiteCounters counters(Site s);
/// Injected failures summed over all sites (Runtime::Stats::faults_injected).
std::uint64_t total_injected();

}  // namespace lpt::sys
