// Runtime-side recording helpers for the continuous profiler
// (docs/observability.md, "Profiling") — the only header runtime .cpp files
// use to attribute off-CPU waits. WaitQueue::wait (every blocking primitive)
// and the annotated syscall regions bracket their suspension with
// offcpu_begin()/offcpu_end(); the begin tags the
// ThreadCtl with a wait kind + callsite, the end (running again, possibly on
// a different KLT) records the block→resume time. Both cost one relaxed
// flag load when profiling is off.
#pragma once

#include "prof/prof.hpp"
#include "runtime/instrument.hpp"
#include "runtime/thread.hpp"

namespace lpt::prof {

/// Tag `self` as about to park on `kind` at `site` (the caller PC of the
/// public primitive, from __builtin_return_address(0)). Call just before the
/// path that may suspend; cheap enough to call even when the fast path then
/// avoids blocking — only a matching offcpu_end() records anything.
inline void offcpu_begin(ThreadCtl* self, WaitKind kind, void* site) {
  if (self == nullptr) return;
  // The kind tag is written even when the profiler is off: the causal
  // tracer's kUltWake edges label the woken thread with what it was parked
  // under (docs/observability.md, "Causal tracing & scheduling delay"). Two
  // plain stores; the clock read stays profiler-gated.
  self->prof_wait_kind = kind;
  self->prof_wait_site = reinterpret_cast<std::uintptr_t>(site);
  if (offcpu_on()) self->prof_wait_start_ns = trace::now_ns();
}

/// Drop the tag without recording (the fast path did not block after all).
inline void offcpu_cancel(ThreadCtl* self) {
  if (self != nullptr) self->prof_wait_kind = WaitKind::kNone;
}

/// Record the completed wait tagged by offcpu_begin(). Call after
/// suspend_block() returns (the thread is running again); no-op when no tag
/// is pending or the collector is off.
inline void offcpu_end(ThreadCtl* self) {
  if (self == nullptr || self->prof_wait_kind == WaitKind::kNone) return;
  const WaitKind kind = self->prof_wait_kind;
  self->prof_wait_kind = WaitKind::kNone;
  if (!offcpu_on()) return;
  const std::int64_t ns = trace::now_ns() - self->prof_wait_start_ns;
  record_wait(kind, self->prof_wait_site, ns);
  LPT_TRACE_EVENT(trace::EventType::kOffcpuWait, self->trace_id,
                  static_cast<std::uint64_t>(ns < 0 ? 0 : ns),
                  static_cast<std::uint64_t>(kind));
}

}  // namespace lpt::prof
