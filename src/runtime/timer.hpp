// The runtime's service thread: the one clock behind preemption ticks (§3.2),
// the watchdog, timed-wait expiry and the LPT_PROF_HZ sampling pacer.
//
// Every Runtime starts exactly one, whatever its options, and it sleeps on a
// FutexGate until the earliest of:
//
//  * the next preemption tick. A tick signals the worker's *current* KLT,
//    which keeps delivery correct while KLT-switching remaps workers. The
//    schedule follows the paper's four delivery modes:
//      PerWorkerAligned       every worker ticks at `interval`, phases
//                             staggered by interval/N (§3.2.1 "timer
//                             alignment"): tick k goes to worker k % N at
//                             interval·(k+1)/N
//      PerWorkerCreationTime  every worker ticks at `interval`, all in phase
//                             (the naive baseline of Fig 4)
//      ProcessOneToAll        one tick per interval; the initiating worker's
//                             handler fans out to every eligible worker
//      ProcessChain           one tick per interval; handlers forward to at
//                             most one next eligible worker ("chained
//                             signals")
//    PosixPerWorker is the paper's literal mechanism: one timer_create(2) per
//    worker with SIGEV_THREAD_ID, armed by the worker itself
//    (Worker::maybe_rearm_posix_timer), so the kernel delivers its ticks.
//    When a worker's POSIX timer cannot be (re)created, the worker degrades
//    (docs/robustness.md) and this thread ticks it on the aligned schedule;
//    healthy workers keep their kernel timers;
//  * the watchdog's next poll (runtime/watchdog.hpp);
//  * the next LPT_PROF_HZ sampling tick (docs/observability.md, "Profiling");
//  * the earliest timed wait or ULT deadline (Runtime::next_due_). Arming one
//    earlier than the instant this thread sleeps toward posts the gate, so a
//    timed wait ends within ~1 ms of its deadline even beside a busy worker.
//
// Whenever it wakes it calls Runtime::watchdog_tick, which expires due timed
// waits and deadlines and drives the watchdog. Being the only caller, it
// needs no lock against a second driver.
//
// Two helpers keep their own threads. MetricsPublisher writes files and
// symbolizes profiles, which must never delay a tick; KltCreator is woken by
// signal handlers, and its pthread_create backoff must not stall delivery.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>

#include "common/futex.hpp"

namespace lpt {

class Runtime;

class ServiceThread {
 public:
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  ~ServiceThread() { stop(); }

  void start(Runtime& rt);
  void stop();

  /// Wake the thread now so it recomputes when to sleep until.
  void post() { gate_.post(); }
  /// The instant the thread sleeps toward, next_due_ aside (kNever: until
  /// posted). Published before it reads next_due_, so a due time lowered
  /// below this value must post() to be seen in time.
  std::int64_t wake_ns() const {
    return wake_ns_.load(std::memory_order_seq_cst);
  }

 private:
  void loop();

  Runtime* rt_ = nullptr;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> wake_ns_{kNever};
  FutexGate gate_;
  std::thread thread_;
};

}  // namespace lpt
