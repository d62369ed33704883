// Environment overlay for RuntimeOptions (docs/robustness.md). Keep the
// parsing forgiving-but-loud: a malformed knob is reported to stderr and
// ignored rather than aborting startup, matching load_env_faults().
#include "runtime/options.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"

namespace lpt {

namespace {

/// Parse "262144", "256K", "1M" (case-insensitive suffix). Returns false on
/// anything else, including trailing junk and zero.
bool parse_size(const char* v, std::size_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v) return false;
  std::size_t mult = 1;
  if (*end == 'k' || *end == 'K') {
    mult = 1024;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    mult = 1024 * 1024;
    ++end;
  }
  if (*end != '\0' || x == 0 || x > (1ull << 40) / mult) return false;
  *out = static_cast<std::size_t>(x) * mult;
  return true;
}

}  // namespace

RuntimeOptions resolve_env_options(RuntimeOptions o) {
  if (const char* v = std::getenv("LPT_STACK_SIZE"); v != nullptr && v[0] != '\0') {
    std::size_t bytes = 0;
    if (!parse_size(v, &bytes)) {
      std::fprintf(stderr, "lpt: ignoring malformed LPT_STACK_SIZE='%s'\n", v);
    } else {
      o.stack_size = bytes;
    }
  }
  if (o.stack_size < kMinStackSize) o.stack_size = kMinStackSize;
  const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  o.stack_size = (o.stack_size + ps - 1) / ps * ps;

  o.fault_isolation = env_flag("LPT_FAULT_ISOLATION", o.fault_isolation);
  o.isolate_faults = env_flag("LPT_ISOLATE_FAULTS", o.isolate_faults);
  o.stack_scrub = env_flag("LPT_STACK_SCRUB", o.stack_scrub);

  o.remediation = env_flag("LPT_REMEDIATE", o.remediation);
  // Per-flag watchdog thresholds, expressed in watchdog poll periods so they
  // track watchdog_period_ms automatically. Starvation periods scale the
  // no-dispatch age threshold; stall periods set the unanswered-tick count.
  long long starvation_periods = 0;
  env_count("LPT_WATCHDOG_STARVATION_PERIODS", 1'000'000, &starvation_periods);
  if (starvation_periods > 0) {
    o.watchdog_runnable_ns = starvation_periods * o.watchdog_period_ms * 1'000'000;
  }
  long long stall_periods = 0;
  env_count("LPT_WATCHDOG_STALL_PERIODS", 1'000'000, &stall_periods);
  if (stall_periods > 0) o.watchdog_stall_ticks = static_cast<int>(stall_periods);
  long long max_per_period = 0;
  env_count("LPT_REMEDIATE_MAX_PER_PERIOD", 1'000'000, &max_per_period);
  if (max_per_period > 0) o.remediate_max_per_period = static_cast<int>(max_per_period);
  if (o.remediate_max_per_period < 1) o.remediate_max_per_period = 1;
  if (o.default_ult_deadline_ns < 0) o.default_ult_deadline_ns = 0;

  // ----- blocking-syscall resilience (docs/robustness.md) -----
  o.syscall_compensate = env_flag("LPT_SYSCALL_COMPENSATE", o.syscall_compensate);
  long long grace_ms = 0;
  env_count("LPT_SYSCALL_GRACE_MS", 1'000'000, &grace_ms);
  if (grace_ms > 0) o.syscall_grace_ns = grace_ms * 1'000'000;
  if (o.syscall_grace_ns < 0) o.syscall_grace_ns = 0;
  long long max_comp = 0;
  env_count("LPT_SYSCALL_MAX_COMPENSATIONS", 1'000'000, &max_comp);
  if (max_comp > 0) o.syscall_max_compensations = static_cast<int>(max_comp);
  if (o.syscall_max_compensations < 1) o.syscall_max_compensations = 1;

  // ----- deadlock detection & recovery (docs/robustness.md) -----
  o.deadlock_detection = env_flag("LPT_DEADLOCK", o.deadlock_detection);
  o.abandon_release = env_flag("LPT_ABANDON_RELEASE", o.abandon_release);
  long long deadlock_periods = 0;
  env_count("LPT_DEADLOCK_PERIODS", 1'000'000, &deadlock_periods);
  if (deadlock_periods > 0) o.deadlock_periods = static_cast<int>(deadlock_periods);
  if (o.deadlock_periods < 1) o.deadlock_periods = 1;

  // ----- continuous profiler (options.hpp lists every LPT_PROF* knob) -----
  if (const char* v = std::getenv("LPT_PROF"); v != nullptr)
    o.prof.enabled = env_flag("LPT_PROF", o.prof.enabled);
  if (const char* v = std::getenv("LPT_PROF_FILE"); v != nullptr && v[0] != '\0') {
    o.prof.file = v;
    o.prof.enabled = true;  // a requested output implies profiling, like LPT_TRACE_FILE
  }
  if (const char* v = std::getenv("LPT_PROF_HZ"); v != nullptr && v[0] != '\0') {
    long long hz = 0;
    if (!parse_count(v, prof::kMaxHz, &hz) || hz < prof::kMinHz) {
      std::fprintf(stderr, "lpt: ignoring nonsense LPT_PROF_HZ='%s' (want %d..%d)\n",
                   v, prof::kMinHz, prof::kMaxHz);
    } else {
      o.prof.sample_hz = static_cast<int>(hz);
    }
  }
  o.prof.offcpu = env_flag("LPT_PROF_OFFCPU", o.prof.offcpu);
  o.prof.locks = env_flag("LPT_PROF_LOCKS", o.prof.locks);
  long long depth = 0;
  env_count("LPT_PROF_DEPTH", 1'000'000, &depth);
  if (depth > 0) o.prof.max_stack_depth = static_cast<std::uint32_t>(depth);
  // Clamp rather than reject: a too-deep request still profiles, bounded.
  if (o.prof.max_stack_depth < 1) o.prof.max_stack_depth = 1;
  if (o.prof.max_stack_depth > prof::kMaxFrames)
    o.prof.max_stack_depth = prof::kMaxFrames;
  long long ring_cap = 0;
  env_count("LPT_PROF_RING_CAP", 1ll << 24, &ring_cap);
  if (ring_cap > 0) o.prof.ring_capacity = static_cast<std::uint32_t>(ring_cap);
  if (o.prof.sample_hz < 0 || o.prof.sample_hz > prof::kMaxHz)
    o.prof.sample_hz = 0;  // programmatic nonsense falls back to piggyback
  if (o.prof.enabled && o.prof.file.empty() &&
      std::getenv("LPT_PROF") != nullptr)
    o.prof.file = "lpt_profile.folded";  // plain LPT_PROF=1 leaves a profile
  return o;
}

}  // namespace lpt
