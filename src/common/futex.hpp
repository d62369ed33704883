// Thin futex wrapper (Linux). All operations are async-signal-safe: they are
// plain syscalls on a 32-bit word, which is exactly why the paper's
// KLT-switching optimization (§3.3.1) replaces sigsuspend/pthread_kill with
// futexes — the suspend/resume pair must run inside a signal handler.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>

namespace lpt {

inline long futex(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val,
                  const timespec* timeout = nullptr) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val,
                   timeout, nullptr, 0);
}

/// Block while *addr == expected. Spurious wakeups possible; caller loops.
inline void futex_wait(std::atomic<std::uint32_t>* addr, std::uint32_t expected) {
  futex(addr, FUTEX_WAIT_PRIVATE, expected);
}

/// Block while *addr == expected, for at most timeout_ns. Spurious wakeups
/// and timeouts are indistinguishable to the caller; loop on the predicate.
inline void futex_wait_timeout(std::atomic<std::uint32_t>* addr,
                               std::uint32_t expected, std::int64_t timeout_ns) {
  timespec ts;
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  futex(addr, FUTEX_WAIT_PRIVATE, expected, &ts);
}

/// Wake up to `count` waiters. Returns number woken.
inline int futex_wake(std::atomic<std::uint32_t>* addr, int count = 1) {
  return static_cast<int>(futex(addr, FUTEX_WAKE_PRIVATE,
                                static_cast<std::uint32_t>(count)));
}

/// One-shot binary event on a futex word. set() is async-signal-safe.
class FutexEvent {
 public:
  void wait() {
    while (state_.load(std::memory_order_acquire) == 0) futex_wait(&state_, 0);
  }
  bool is_set() const { return state_.load(std::memory_order_acquire) != 0; }
  void set() {
    state_.store(1, std::memory_order_release);
    futex_wake(&state_, INT32_MAX);
  }
  void reset() { state_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint32_t> state_{0};
};

/// Counting gate: arrive() releases one pass of wait(). Both ends are
/// async-signal-safe. Used for parking kernel threads in the KLT pool.
class FutexGate {
 public:
  /// Block until a ticket is available, then consume it.
  void wait() {
    for (;;) {
      std::uint32_t c = tickets_.load(std::memory_order_acquire);
      while (c > 0) {
        if (tickets_.compare_exchange_weak(c, c - 1, std::memory_order_acq_rel))
          return;
      }
      futex_wait(&tickets_, 0);
    }
  }
  /// Like wait(), but gives up after ~timeout_ns. Returns true when a ticket
  /// was consumed, false on timeout (no ticket taken).
  bool wait_for(std::int64_t timeout_ns) {
    if (try_consume()) return true;
    futex_wait_timeout(&tickets_, 0, timeout_ns);
    return try_consume();
  }

  /// Release one waiter (or bank a ticket if none is waiting yet).
  void post() {
    tickets_.fetch_add(1, std::memory_order_acq_rel);
    futex_wake(&tickets_, 1);
  }

 private:
  bool try_consume() {
    std::uint32_t c = tickets_.load(std::memory_order_acquire);
    while (c > 0) {
      if (tickets_.compare_exchange_weak(c, c - 1, std::memory_order_acq_rel))
        return true;
    }
    return false;
  }

  std::atomic<std::uint32_t> tickets_{0};
};

/// Eventcount: a sleep/wake word whose notifier enters the kernel only when
/// a sleeper is registered. Sleeper protocol:
///
///   std::uint32_t key = ec.prepare_wait();  // register as a sleeper
///   if (condition()) ec.cancel_wait();      // re-check AFTER registering
///   else ec.wait(key);                      // or wait_for(key, timeout)
///
/// Notifier: make condition() true, then notify_one() / notify_all(). The
/// seq_cst fences on both sides (Dekker-style) guarantee that either the
/// sleeper's re-check sees the notifier's write or the notifier sees the
/// sleeper's registration; a notify between prepare_wait and the futex wait
/// moves the epoch, so that wait returns at once.
class EventCount {
 public:
  std::uint32_t prepare_wait() {
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_acquire);
  }
  /// The re-check after prepare_wait() found the condition true.
  void cancel_wait() { sleepers_.fetch_sub(1, std::memory_order_relaxed); }
  /// Sleep until a notify moves the epoch past `key`.
  void wait(std::uint32_t key) {
    while (epoch_.load(std::memory_order_acquire) == key)
      futex_wait(&epoch_, key);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// Sleep at most ~timeout_ns. Returns true when a notify moved the epoch,
  /// false when the nap ended without one (timeout or signal).
  bool wait_for(std::uint32_t key, std::int64_t timeout_ns) {
    futex_wait_timeout(&epoch_, key, timeout_ns);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return epoch_.load(std::memory_order_acquire) != key;
  }

  /// Wake one sleeper; a fence and a load, no syscall, when nobody sleeps.
  void notify_one() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    epoch_.fetch_add(1, std::memory_order_release);
    futex_wake(&epoch_, 1);
  }
  /// Wake every sleeper, unconditionally (shutdown, reconfiguration).
  void notify_all() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    futex_wake(&epoch_, INT32_MAX);
  }

 private:
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> sleepers_{0};
};

}  // namespace lpt
