#include "runtime/io_guard.hpp"

#include <algorithm>
#include <chrono>

#include "common/cpu.hpp"
#include "common/sys.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "prof/prof.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/klt_pool.hpp"
#include "runtime/worker.hpp"

namespace lpt::io {

blocking_region::blocking_region(void* site) {
  self_ = lpt::detail::current_ult_or_null();
  if (self_ == nullptr) return;  // no runtime: inert, the syscall just runs

  // Pin the ULT to this KLT for the whole syscall: the preemption handler
  // defers while the guard depth is nonzero *before* it attempts the
  // host-token claim, so neither a tick nor a KLT-switch can move the ULT
  // while its register state is about to be parked inside the kernel. The
  // wedge sentinel is the only party allowed to take the token from us.
  lpt::detail::begin_no_preempt(self_);
  worker_ = worker_tls()->worker;
  site_ = site != nullptr ? site : __builtin_return_address(0);

  const std::uint64_t e =
      worker_->syscall_epoch.load(std::memory_order_relaxed);
  if ((e & 1) == 0) {
    // Outermost region on this worker: publish. The timestamp must be
    // visible before the epoch turns odd — the sentinel reads age only for
    // odd epochs — and must come from lpt::now_ns (CLOCK_MONOTONIC), the
    // clock the watchdog subtracts it from; trace::now_ns is a different
    // clock (MONOTONIC_RAW) with an arbitrary offset.
    enter_ns_ = now_ns();
    worker_->syscall_enter_ns.store(enter_ns_, std::memory_order_relaxed);
    std::uint64_t expect = e;
    if (worker_->syscall_epoch.compare_exchange_strong(
            expect, e + 1, std::memory_order_release,
            std::memory_order_relaxed)) {
      published_ = true;
      epoch_ = e + 1;
    }
  }
  // An odd epoch here means either a nested region or a fresh host's ULT
  // entering while the wedged old host still owns the published epoch; both
  // stay unpublished (pinned and counted, but invisible to the sentinel).
  worker_->metrics.syscall_blocks.add(1);
  LPT_TRACE_EVENT(trace::EventType::kSyscallBlock, self_->trace_id,
                  static_cast<std::uint64_t>(worker_->rank));
}

blocking_region::~blocking_region() {
  if (self_ == nullptr) return;
  bool reabsorb = false;
  if (published_) {
    // Only the publisher flips the epoch back even; no other publisher can
    // advance it while it is odd, so a plain store cannot clobber anything.
    worker_->syscall_epoch.store(epoch_ + 1, std::memory_order_release);
    WorkerTls* tls = worker_tls();
    KltCtl* const me = tls->klt;
    // Rendezvous with the sentinel. Three stable outcomes, all reached in a
    // bounded number of sentinel steps (it either restores the token or
    // commits by storing compensated_epoch before current_klt):
    //   * compensated_epoch == our epoch → a compensation committed; the
    //     worker moved on with a fresh host and we must reabsorb.
    //   * host_token == me → nobody took the worker; continue normally.
    //   * current_klt != me with no matching compensation → a *generic*
    //     forced replacement orphaned this KLT; continue — the next
    //     suspension point takes the normal orphan path.
    for (;;) {
      if (worker_->syscall_compensated_epoch.load(std::memory_order_acquire) ==
          epoch_) {
        reabsorb = true;
        break;
      }
      if (worker_->host_token.load(std::memory_order_acquire) == me) break;
      if (worker_->current_klt.load(std::memory_order_acquire) != me) {
        reabsorb = worker_->syscall_compensated_epoch.load(
                       std::memory_order_acquire) == epoch_;
        break;
      }
      cpu_pause();  // sentinel is mid-decision (token claimed, not committed)
    }
  }
  std::int64_t blocked_ns = 0;
  const bool offcpu = prof::offcpu_on();
  if ((LPT_TRACE_ON() || offcpu) && enter_ns_ != 0)
    blocked_ns = std::max<std::int64_t>(now_ns() - enter_ns_, 0);

  if (reabsorb) {
    // The sentinel gave this worker a fresh host while we slept in the
    // kernel. Same save-before-publish discipline as the orphan landings:
    // save our context, hand the re-enqueue to klt_main (it may only run
    // once we are off this stack), and park this KLT back into the pool.
    // The ULT resumes right here on whichever worker dispatches it next.
    WorkerTls* tls = worker_tls();
    KltCtl* k = tls->klt;
    tls->in_ult = false;
    k->reabsorb_enqueue = self_;
    k->pending_wake = nullptr;
    k->pending_wake_in_handler = false;
    k->native_op = KltNativeOp::kPark;
    context_switch(self_->ctx, k->native_ctx);
    lpt::detail::mark_in_ult();
  }

  LPT_TRACE_EVENT(trace::EventType::kSyscallReturn, self_->trace_id,
                  static_cast<std::uint64_t>(blocked_ns), reabsorb ? 1 : 0);
  if (offcpu && enter_ns_ != 0)
    prof::record_wait(prof::WaitKind::kSyscall,
                      reinterpret_cast<std::uintptr_t>(site_), blocked_ns);
  // Last: the guard exit is a cancel point and may convert a deferred tick
  // into a yield — both must happen on the (possibly new) hosting worker,
  // after the reabsorption switch, never before it.
  lpt::detail::end_no_preempt(self_);
}

namespace detail {

// noinline for the same reason worker_tls() is: errno is TLS, and glibc's
// __errno_location() carries attribute-const, inviting the optimizer to
// cache its result across calls. Inlined into a function whose ULT migrates
// between kernel threads (backoff sleep, reabsorption), that cached address
// points at the *previous* host's errno. The call boundary forces a fresh
// address computation on whichever kernel thread executes the access.
__attribute__((noinline)) int last_errno() { return errno; }

__attribute__((noinline)) void set_errno(int err) { errno = err; }

std::int64_t call_deadline(std::int64_t rel_ns) {
  return rel_ns > 0 ? now_ns() + rel_ns : 0;
}

bool call_backoff(int err, std::int64_t deadline_abs,
                  std::int64_t* backoff_ns) {
  if (deadline_abs != 0 && now_ns() >= deadline_abs) return false;
  if (err == EINTR) return true;  // retry immediately; no pacing needed
  // EAGAIN/EWOULDBLOCK: capped exponential backoff, 10 µs doubling to 1 ms,
  // clamped to the remaining deadline. sleep_for is cooperative inside a
  // ULT (the worker keeps scheduling) and nanosleep outside a runtime.
  constexpr std::int64_t kBackoffBaseNs = 10'000;
  constexpr std::int64_t kBackoffCapNs = 1'000'000;
  std::int64_t b = *backoff_ns == 0 ? kBackoffBaseNs : *backoff_ns * 2;
  if (b > kBackoffCapNs) b = kBackoffCapNs;
  *backoff_ns = b;
  if (deadline_abs != 0) {
    const std::int64_t remain = deadline_abs - now_ns();
    if (remain <= 0) return false;
    if (b > remain) b = remain;
  }
  lpt::this_thread::sleep_for(std::chrono::nanoseconds(b));
  return true;
}

}  // namespace detail

int last_error() { return detail::last_errno(); }

ssize_t read(int fd, void* buf, std::size_t count, std::int64_t deadline_ns) {
  return call([&] { return sys::read(fd, buf, count); }, deadline_ns,
              __builtin_return_address(0));
}

ssize_t write(int fd, const void* buf, std::size_t count,
              std::int64_t deadline_ns) {
  return call([&] { return sys::write(fd, buf, count); }, deadline_ns,
              __builtin_return_address(0));
}

int accept(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
           std::int64_t deadline_ns) {
  return call([&] { return sys::accept(sockfd, addr, addrlen); }, deadline_ns,
              __builtin_return_address(0));
}

int connect(int sockfd, const struct sockaddr* addr, socklen_t addrlen,
            std::int64_t deadline_ns) {
  return call([&] { return sys::connect(sockfd, addr, addrlen); }, deadline_ns,
              __builtin_return_address(0));
}

int poll(struct pollfd* fds, nfds_t nfds, int timeout,
         std::int64_t deadline_ns) {
  return call([&] { return sys::poll(fds, nfds, timeout); }, deadline_ns,
              __builtin_return_address(0));
}

}  // namespace lpt::io
