#include "runtime/fault.hpp"

#include <pthread.h>
#include <ucontext.h>

#include <atomic>
#include <csignal>
#include <cstring>

#include "common/assert.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/signals.hpp"

// Sanitizers install their own SIGSEGV handler (stack-use-after-return
// machinery, shadow-memory fault decoding) and must keep it; containment is
// compiled out so ASan/TSan builds crash-and-report like any other program.
// LPT_SANITIZE_BUILD comes from CMake's LPT_SANITIZE option; the feature
// macros catch builds sanitized through raw flags.
#if defined(LPT_SANITIZE_BUILD) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define LPT_FAULT_CONTAINMENT 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LPT_FAULT_CONTAINMENT 0
#else
#define LPT_FAULT_CONTAINMENT 1
#endif
#else
#define LPT_FAULT_CONTAINMENT 1
#endif

namespace lpt::fault {

namespace {

std::atomic<bool> g_installed{false};
struct sigaction g_prev_segv;
struct sigaction g_prev_bus;

#if LPT_FAULT_CONTAINMENT

/// Give the fault back to whoever handled it before the runtime: reinstall
/// the saved disposition and return from the handler, so the kernel re-raises
/// the fault at the same instruction with registers and si_addr intact — the
/// process dies loudly through the original handler or the default core
/// dump. SIG_IGN would re-fault forever, so it degrades to SIG_DFL.
void chain_to_previous(int signo) {
  struct sigaction prev = signo == SIGBUS ? g_prev_bus : g_prev_segv;
  if ((prev.sa_flags & SA_SIGINFO) == 0 && prev.sa_handler == SIG_IGN)
    prev.sa_handler = SIG_DFL;
  if (::sigaction(signo, &prev, nullptr) != 0) ::signal(signo, SIG_DFL);
}

/// The containment decision + recovery. Async-signal-safe throughout:
/// atomics, TLS via worker_tls(), lock-free pool pop, context jump.
void fault_handler(int signo, siginfo_t* si, void* uctx) {
  Runtime* rt = detail::runtime_instance();
  WorkerTls* tls = worker_tls();
  Worker* w = tls->worker;
  ThreadCtl* t = nullptr;
  // Identity from the hosting KLT, not the worker: after a forced KLT
  // replacement (watchdog remediation) w->current_ult belongs to the new
  // host while this KLT still runs its old ULT.
  if (rt != nullptr && w != nullptr && tls->in_ult) t = tls->hosted_ult;
  if (t == nullptr) {
    // Scheduler context, runtime helper thread, or an application kernel
    // thread: not recoverable — nothing owns the faulting frames.
    chain_to_previous(signo);
    return;
  }

  const std::uintptr_t addr =
      reinterpret_cast<std::uintptr_t>(si != nullptr ? si->si_addr : nullptr);
  bool overflow = t->stack.in_guard(addr);
#if defined(__x86_64__)
  if (!overflow && t->stack.valid()) {
    // Frame-skip heuristic: a frame larger than the one-page guard can step
    // clean over it. When the ULT's stack pointer has already descended into
    // (or below) the guard, a fault just under the mapping is an overflow.
    const auto* uc = static_cast<const ucontext_t*>(uctx);
    const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
    const auto gbase = reinterpret_cast<std::uintptr_t>(t->stack.guard());
    const auto gend = gbase + t->stack.guard_size();
    if (sp < gend && addr < gend && gbase - addr <= t->stack.size())
      overflow = true;
  }
#endif

  // A non-overflow fault is contained only on explicit opt-in: the wild
  // access may have corrupted state beyond the ULT. And a ULT inside a
  // NoPreemptGuard may hold scheduler-shared locks — abandoning it would
  // leave them locked, so that is not recoverable either (docs/robustness.md).
  const bool contain = overflow || rt->options().isolate_faults;
  if (!contain || t->no_preempt_depth > 0) {
    chain_to_previous(signo);
    return;
  }

  const FaultKind kind = overflow          ? FaultKind::kStackOverflow
                         : signo == SIGBUS ? FaultKind::kBus
                                           : FaultKind::kSegv;
  t->fault.fault_addr = addr;

  // Claim scheduler-context ownership before recovering through it
  // (worker.hpp host_token). A failed claim means the watchdog force-replaced
  // this KLT's worker host: the scheduler context runs elsewhere, so the
  // thread leaves the stranded KLT instead — klt_main finalizes it after the
  // switch and this kernel thread exits.
  if (!detail::claim_host_token(tls)) {
    detail::record_failure(t, kind, w->metrics);
    detail::leave_klt(t, PostAction{PostKind::kFault, t}, KltNativeOp::kExit);
  }

  // Recover via the signal-yield trick (§3.1.1), minus the context save: the
  // faulting frames are garbage, so jump straight into scheduler context and
  // let the kFault post action quarantine the stack and wake joiners. No
  // sigreturn happens, so the post action must also unblock the fault
  // signals (unblock_fault_signals, mirroring unblock_preempt()).
  detail::fail_in_handler(rt, w, t, kind);
}

#endif  // LPT_FAULT_CONTAINMENT

}  // namespace

bool available() {
#if LPT_FAULT_CONTAINMENT
  return g_installed.load(std::memory_order_acquire);
#else
  return false;
#endif
}

void install(Runtime& rt) {
#if LPT_FAULT_CONTAINMENT
  if (!rt.options().fault_isolation) return;
  if (g_installed.exchange(true, std::memory_order_acq_rel)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &fault_handler;
  sigemptyset(&sa.sa_mask);
  // Block the preemption signals while classifying: a timer tick nested in
  // the fault handler would try to preempt the already-dead ULT frame.
  sigaddset(&sa.sa_mask, SIGSEGV);
  sigaddset(&sa.sa_mask, SIGBUS);
  sigaddset(&sa.sa_mask, signals::preempt_signo());
  sigaddset(&sa.sa_mask, signals::resume_signo());
  // SA_ONSTACK: the faulting ULT's stack is the broken thing being reported
  // (a guard-page fault cannot push a signal frame there at all); each KLT
  // registers a sigaltstack in klt_main. Threads without one — application
  // KLTs — get the handler on their regular stack, where it only chains.
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  LPT_CHECK(::sigaction(SIGSEGV, &sa, &g_prev_segv) == 0);
  LPT_CHECK(::sigaction(SIGBUS, &sa, &g_prev_bus) == 0);
#else
  (void)rt;
#endif
}

void restore() {
#if LPT_FAULT_CONTAINMENT
  if (!g_installed.exchange(false, std::memory_order_acq_rel)) return;
  ::sigaction(SIGSEGV, &g_prev_segv, nullptr);
  ::sigaction(SIGBUS, &g_prev_bus, nullptr);
#endif
}

void register_alt_stack(KltCtl* k) {
#if LPT_FAULT_CONTAINMENT
  if (!g_installed.load(std::memory_order_acquire)) return;
  k->alt_stack.reset(new char[kAltStackSize]);
  stack_t ss;
  std::memset(&ss, 0, sizeof(ss));
  ss.ss_sp = k->alt_stack.get();
  ss.ss_size = kAltStackSize;
  LPT_CHECK(::sigaltstack(&ss, nullptr) == 0);
#else
  (void)k;
#endif
}

void unblock_fault_signals() {
  // The containment jump skipped sigreturn, so the faulting KLT still has
  // SIGSEGV (kernel-added) plus the handler's sa_mask blocked. Restore the
  // normal worker mask: fault signals and the preempt signal unblocked, the
  // resume signal kept blocked (klt_main's baseline).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGSEGV);
  sigaddset(&set, SIGBUS);
  sigaddset(&set, signals::preempt_signo());
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
}

}  // namespace lpt::fault
