// Tier-1 tests of resolve_env_options (runtime/options.hpp), the one place
// the runtime reads its LPT_* knobs: the tracer's, the metrics publisher's,
// the deadlock registry's and the profiler's. Each knob keeps its parsing,
// default, bound and implication; malformed values are reported to stderr
// and ignored.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <string>
#include <utility>

#include "prof/prof.hpp"
#include "runtime/options.hpp"

namespace lpt {
namespace {

using trace::TraceConfig;

/// The tracer part of resolve_env_options, for options whose trace is `base`.
TraceConfig resolve_config(TraceConfig base) {
  RuntimeOptions o;
  o.trace = std::move(base);
  return resolve_env_options(std::move(o)).trace;
}

/// The metrics publisher's part of RuntimeOptions.
struct PublishConfig {
  std::string file;
  std::int64_t period_ms = 1000;
};

PublishConfig resolve_publish_config(PublishConfig base) {
  RuntimeOptions o;
  o.metrics_file = std::move(base.file);
  o.metrics_period_ms = base.period_ms;
  o = resolve_env_options(std::move(o));
  return {o.metrics_file, o.metrics_period_ms};
}

// ---------------------------------------------------------------------------
// Tracer knobs (LPT_TRACE*)
// ---------------------------------------------------------------------------

class TraceEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    unsetenv("LPT_TRACE");
    unsetenv("LPT_TRACE_FILE");
    unsetenv("LPT_TRACE_RING_CAP");
    unsetenv("LPT_TRACE_EVENTS_FILE");
  }
};

TEST_F(TraceEnvTest, NoEnvPassesBaseThrough) {
  TraceConfig base;
  base.enabled = true;
  base.file = "x.json";
  base.ring_capacity = 42;
  const TraceConfig r = resolve_config(base);
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.file, "x.json");
  EXPECT_EQ(r.ring_capacity, 42u);
}

TEST_F(TraceEnvTest, Lpt_TraceEnablesAndDefaultsFile) {
  setenv("LPT_TRACE", "1", 1);
  const TraceConfig r = resolve_config({});
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.file, "lpt_trace.json");
}

TEST_F(TraceEnvTest, Lpt_TraceZeroOverridesProgrammaticEnable) {
  setenv("LPT_TRACE", "0", 1);
  TraceConfig base;
  base.enabled = true;
  EXPECT_FALSE(resolve_config(base).enabled);
}

TEST_F(TraceEnvTest, Lpt_TraceOffWordsDisableAndEmptyIsUnset) {
  TraceConfig base;
  base.enabled = true;
  for (const char* off : {"0", "off", "false", "no"}) {
    setenv("LPT_TRACE", off, 1);
    const TraceConfig r = resolve_config(base);
    EXPECT_FALSE(r.enabled) << off;
    EXPECT_EQ(r.file, "") << off;
  }
  // Empty means unset: the programmatic setting stands and, as LPT_TRACE is
  // not an on value, no default file is chosen.
  setenv("LPT_TRACE", "", 1);
  const TraceConfig r = resolve_config(base);
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.file, "");
}

TEST_F(TraceEnvTest, Lpt_TraceFileImpliesEnabled) {
  setenv("LPT_TRACE_FILE", "/tmp/t.json", 1);
  const TraceConfig r = resolve_config({});
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.file, "/tmp/t.json");
}

TEST_F(TraceEnvTest, Lpt_TraceEventsFileImpliesEnabled) {
  setenv("LPT_TRACE_EVENTS_FILE", "/tmp/ev.jsonl", 1);
  const TraceConfig r = resolve_config({});
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.events_file, "/tmp/ev.jsonl");
}

TEST_F(TraceEnvTest, RingCapOverride) {
  setenv("LPT_TRACE", "1", 1);
  setenv("LPT_TRACE_RING_CAP", "512", 1);
  EXPECT_EQ(resolve_config({}).ring_capacity, 512u);
}

TEST_F(TraceEnvTest, RingCapRejectsJunkAndOutOfRange) {
  TraceConfig base;
  base.ring_capacity = 1024;
  for (const char* bad : {"4096junk", "4294967296", "0", "-8", "banana"}) {
    setenv("LPT_TRACE_RING_CAP", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(resolve_config(base).ring_capacity, 1024u) << bad;
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "lpt: ignoring malformed LPT_TRACE_RING_CAP"),
              std::string::npos)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Metrics publisher knobs (LPT_METRICS_*)
// ---------------------------------------------------------------------------

TEST(MetricsConfig, EnvOverridesPublishConfig) {
  unsetenv("LPT_METRICS_FILE");
  unsetenv("LPT_METRICS_PERIOD_MS");
  PublishConfig base;
  base.file = "from_options.prom";
  base.period_ms = 250;
  PublishConfig r = resolve_publish_config(base);
  EXPECT_EQ(r.file, "from_options.prom");
  EXPECT_EQ(r.period_ms, 250);

  setenv("LPT_METRICS_FILE", "/tmp/env.json", 1);
  setenv("LPT_METRICS_PERIOD_MS", "75", 1);
  r = resolve_publish_config(base);
  EXPECT_EQ(r.file, "/tmp/env.json");
  EXPECT_EQ(r.period_ms, 75);

  // Garbage or non-positive periods fall back to a sane default.
  setenv("LPT_METRICS_PERIOD_MS", "banana", 1);
  r = resolve_publish_config(base);
  EXPECT_EQ(r.period_ms, 250);
  setenv("LPT_METRICS_PERIOD_MS", "-5", 1);
  base.period_ms = 0;
  r = resolve_publish_config(base);
  EXPECT_EQ(r.period_ms, 1000);

  unsetenv("LPT_METRICS_FILE");
  unsetenv("LPT_METRICS_PERIOD_MS");
}

TEST(MetricsConfig, PeriodRejectsJunkAndOutOfRange) {
  PublishConfig base;
  base.period_ms = 250;
  for (const char* bad :
       {"75junk", "99999999999999999999", "86400001", "0", "-5"}) {
    setenv("LPT_METRICS_PERIOD_MS", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(resolve_publish_config(base).period_ms, 250) << bad;
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "lpt: ignoring malformed LPT_METRICS_PERIOD_MS"),
              std::string::npos)
        << bad;
  }
  unsetenv("LPT_METRICS_PERIOD_MS");
}

// ---------------------------------------------------------------------------
// Env knobs: LPT_DEADLOCK / LPT_ABANDON_RELEASE / LPT_DEADLOCK_PERIODS are
// validated reject-and-warn like every other option (malformed values are
// reported to stderr and ignored, never aborting startup).
// ---------------------------------------------------------------------------

TEST(DeadlockOptions, EnvKnobsValidatedRejectAndWarn) {
  ::setenv("LPT_DEADLOCK", "0", 1);
  ::setenv("LPT_ABANDON_RELEASE", "1", 1);
  ::setenv("LPT_DEADLOCK_PERIODS", "5", 1);
  RuntimeOptions o = resolve_env_options(RuntimeOptions{});
  EXPECT_FALSE(o.deadlock_detection);
  EXPECT_TRUE(o.abandon_release);
  EXPECT_EQ(o.deadlock_periods, 5);

  ::setenv("LPT_DEADLOCK", "on", 1);
  ::setenv("LPT_ABANDON_RELEASE", "off", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_TRUE(o.deadlock_detection);
  EXPECT_FALSE(o.abandon_release);

  // Malformed cadence values: warned about and ignored, default kept.
  for (const char* bad : {"banana", "0", "-3", "5x"}) {
    ::setenv("LPT_DEADLOCK_PERIODS", bad, 1);
    o = resolve_env_options(RuntimeOptions{});
    EXPECT_EQ(o.deadlock_periods, 1) << "LPT_DEADLOCK_PERIODS='" << bad << "'";
  }

  ::unsetenv("LPT_DEADLOCK");
  ::unsetenv("LPT_ABANDON_RELEASE");
  ::unsetenv("LPT_DEADLOCK_PERIODS");
}

// ---------------------------------------------------------------------------
// Profiler knobs (LPT_PROF*)
// ---------------------------------------------------------------------------

TEST(Prof, EnvKnobsResolve) {
  auto clear = [] {
    for (const char* k : {"LPT_PROF", "LPT_PROF_HZ", "LPT_PROF_OFFCPU",
                          "LPT_PROF_LOCKS", "LPT_PROF_FILE", "LPT_PROF_DEPTH",
                          "LPT_PROF_RING_CAP"})
      unsetenv(k);
  };
  clear();

  // Plain LPT_PROF=1: everything armed, piggyback mode, default file.
  setenv("LPT_PROF", "1", 1);
  RuntimeOptions o = resolve_env_options(RuntimeOptions{});
  EXPECT_TRUE(o.prof.enabled);
  EXPECT_TRUE(o.prof.offcpu);
  EXPECT_TRUE(o.prof.locks);
  EXPECT_EQ(o.prof.sample_hz, 0);
  EXPECT_EQ(o.prof.file, "lpt_profile.folded");

  // A file request implies profiling even without LPT_PROF.
  clear();
  setenv("LPT_PROF_FILE", "/tmp/p.json", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_TRUE(o.prof.enabled);
  EXPECT_EQ(o.prof.file, "/tmp/p.json");

  // Valid HZ arms the independent sampler; nonsense is rejected, not clamped.
  setenv("LPT_PROF_HZ", "250", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_EQ(o.prof.sample_hz, 250);
  setenv("LPT_PROF_HZ", "99999999", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_EQ(o.prof.sample_hz, 0);
  setenv("LPT_PROF_HZ", "bogus", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_EQ(o.prof.sample_hz, 0);

  // Collector opt-outs and the depth clamp.
  setenv("LPT_PROF", "1", 1);
  setenv("LPT_PROF_OFFCPU", "0", 1);
  setenv("LPT_PROF_LOCKS", "0", 1);
  setenv("LPT_PROF_DEPTH", "1000", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_TRUE(o.prof.enabled);
  EXPECT_FALSE(o.prof.offcpu);
  EXPECT_FALSE(o.prof.locks);
  EXPECT_EQ(o.prof.max_stack_depth, prof::kMaxFrames);

  // LPT_PROF=0 force-disables.
  clear();
  setenv("LPT_PROF", "0", 1);
  o = resolve_env_options(RuntimeOptions{});
  EXPECT_FALSE(o.prof.enabled);

  // An empty LPT_PROF counts as unset: profiling enabled in code keeps its
  // (empty) file instead of picking the default one.
  setenv("LPT_PROF", "", 1);
  RuntimeOptions coded;
  coded.prof.enabled = true;
  o = resolve_env_options(coded);
  EXPECT_TRUE(o.prof.enabled);
  EXPECT_EQ(o.prof.file, "");
  clear();
}

}  // namespace
}  // namespace lpt
