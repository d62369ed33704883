// Recording side of the scheduling tracer — the only header runtime .cpp
// files use to emit trace events. Every macro is gated on the global enabled
// flag (one relaxed load + predicted branch when tracing is off).
//
// Signal-safety contract: LPT_TRACE_EVENT and LPT_TRACE_HIST are callable
// from the preemption signal handler. They must stay free of allocation,
// locks, and non-reentrant libc (see docs/observability.md).
//
// Observability has two layers: this opt-in tracer (events + histograms for
// offline analysis) and the always-on metrics counters (common/metrics.hpp,
// embedded in Worker as `metrics`). Hot-path sites typically feed both — a
// relaxed counter store unconditionally, a trace event when armed.
#pragma once

#include "common/trace.hpp"
#include "runtime/worker.hpp"

namespace lpt::trace {

/// Record one event on the calling OS thread's ring. No-op for threads that
/// never acquired a ring (e.g. application threads calling spawn()).
/// Async-signal-safe.
inline void emit(EventType type, std::uint32_t ult = 0, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0) {
  WorkerTls* tls = worker_tls();
  Ring* r = tls->trace_ring;
  if (r == nullptr) return;
  const std::int16_t rank =
      tls->worker != nullptr ? static_cast<std::int16_t>(tls->worker->rank)
                             : static_cast<std::int16_t>(-1);
  r->record(type, now_ns(), rank, ult, arg0, arg1);
}

}  // namespace lpt::trace

/// True when tracing is armed; use to guard latency computations whose only
/// consumer is the tracer.
#define LPT_TRACE_ON() (::lpt::trace::enabled())

#define LPT_TRACE_EVENT(...)                            \
  do {                                                  \
    if (LPT_TRACE_ON()) ::lpt::trace::emit(__VA_ARGS__); \
  } while (0)

/// hist is a LatencyHistogram lvalue; ns a signed nanosecond latency.
#define LPT_TRACE_HIST(hist, ns)            \
  do {                                      \
    if (LPT_TRACE_ON()) (hist).record(ns);  \
  } while (0)
