#include "runtime/timer.hpp"

#include <algorithm>

#include "common/time.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/runtime.hpp"
#include "runtime/signals.hpp"

namespace lpt {

namespace {

bool worker_started(Worker& w) {
  return w.current_klt.load(std::memory_order_acquire) != nullptr;
}

bool worker_eligible(Worker& w) {
  return worker_started(w) && !w.parked.load(std::memory_order_relaxed) &&
         w.current_preempt.load(std::memory_order_relaxed) !=
             static_cast<std::uint8_t>(Preempt::None);
}

void fire(Runtime& rt, int r, int initiator) {
  LPT_TRACE_EVENT(trace::EventType::kTimerFire, 0,
                  static_cast<std::uint64_t>(r));
  signals::send_preempt(rt.worker(r), initiator);
}

/// When preemption tick `tick` of `kind` is due, counting from t0.
std::int64_t tick_deadline(TimerKind kind, std::int64_t t0, std::uint64_t tick,
                           std::int64_t interval_ns, int n) {
  const auto k = static_cast<std::int64_t>(tick + 1);
  if (kind == TimerKind::PerWorkerAligned || kind == TimerKind::PosixPerWorker)
    return t0 + k * interval_ns / n;
  return t0 + k * interval_ns;
}

/// Deliver preemption tick `tick` on kind's schedule (see timer.hpp).
void deliver_tick(Runtime& rt, TimerKind kind, std::uint64_t tick) {
  const int n = rt.num_workers();
  switch (kind) {
    case TimerKind::PerWorkerAligned:
    case TimerKind::PosixPerWorker: {
      // Worker (tick % n) fires each interval/n: every worker sees the full
      // interval, phases staggered. Per-worker timers do not distinguish
      // preemptive workers — the shortcoming §3.2.1 calls out; keep that
      // fidelity. Under PosixPerWorker only degraded workers are ticked here.
      const int r = static_cast<int>(tick % static_cast<std::uint64_t>(n));
      Worker& w = rt.worker(r);
      if (kind == TimerKind::PosixPerWorker &&
          !w.posix_timer_degraded.load(std::memory_order_acquire))
        return;
      if (worker_started(w)) fire(rt, r, -1);
      return;
    }
    case TimerKind::PerWorkerCreationTime:
      // The naive baseline: all workers interrupted at the same instant.
      for (int r = 0; r < n; ++r)
        if (worker_started(rt.worker(r))) fire(rt, r, -1);
      return;
    case TimerKind::ProcessOneToAll:
    case TimerKind::ProcessChain:
      // One OS tick per interval; the first eligible worker initiates the
      // fan-out / chain in its handler. No eligible workers → no signals at
      // all (§3.2.2).
      for (int r = 0; r < n; ++r)
        if (worker_eligible(rt.worker(r))) {
          fire(rt, r, r);
          return;
        }
      return;
    case TimerKind::None:
      return;
  }
}

bool any_posix_timer_degraded(Runtime& rt) {
  for (int r = 0; r < rt.num_workers(); ++r)
    if (rt.worker(r).posix_timer_degraded.load(std::memory_order_acquire))
      return true;
  return false;
}

}  // namespace

void ServiceThread::start(Runtime& rt) {
  rt_ = &rt;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void ServiceThread::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  gate_.post();
  thread_.join();
}

void ServiceThread::loop() {
  signals::block_runtime_signals();
  worker_tls()->trace_ring =
      trace::Collector::instance().acquire_ring(trace::TrackKind::kTimer, -1);
  worker_tls()->trace_ring_epoch = trace::Collector::instance().config_epoch();
  Runtime& rt = *rt_;
  const RuntimeOptions& o = rt.options();
  const TimerKind kind = o.timer;
  const int n = rt.num_workers();
  const std::int64_t interval_ns = o.interval_us * 1000;
  const std::int64_t prof_period_ns =
      o.prof.enabled && o.prof.sample_hz > 0 ? 1'000'000'000 / o.prof.sample_hz
                                             : 0;
  // Under PosixPerWorker the schedule starts once the first worker degrades.
  bool ticking = kind != TimerKind::None && kind != TimerKind::PosixPerWorker;
  std::int64_t t0 = now_ns();
  std::uint64_t tick = 0;
  std::int64_t next_prof = prof_period_ns > 0 ? t0 + prof_period_ns : kNever;

  while (!stop_.load(std::memory_order_acquire)) {
    std::int64_t now = now_ns();
    if (!ticking && kind == TimerKind::PosixPerWorker &&
        any_posix_timer_degraded(rt)) {
      ticking = true;
      t0 = now;
    }
    if (ticking && now >= tick_deadline(kind, t0, tick, interval_ns, n))
      deliver_tick(rt, kind, tick++);
    if (now >= next_prof) {
      for (int r = 0; r < n; ++r) signals::send_prof_tick(rt.worker(r));
      next_prof = now + prof_period_ns;
    }
    rt.watchdog_tick(now);

    std::int64_t wake = std::min(next_prof, rt.watchdog_.next_poll_ns());
    if (ticking)
      wake = std::min(wake, tick_deadline(kind, t0, tick, interval_ns, n));
    // Publish the wake time, then read next_due_: a timed wait armed in
    // between either shows here or sees the published time and posts.
    wake_ns_.store(wake, std::memory_order_seq_cst);
    const std::int64_t due =
        std::min(wake, rt.next_due_.load(std::memory_order_seq_cst));
    now = now_ns();
    if (due == kNever)
      gate_.wait();
    else if (due > now)
      gate_.wait_for(due - now);
  }
}

}  // namespace lpt
