// Unit tests for the signal-safe tracer's data structures: ring overflow
// accounting, log2 histogram bucket math, env-var config resolution, and the
// Chrome-trace exporter (write + minimal structural parse-back). These tests
// never context-switch, so they also run under TSan (scripts/check.sh).
#include "common/trace.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace lpt::trace {
namespace {

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(TraceRing, RecordsUpToCapacityThenDropsAndCounts) {
  auto slots = std::make_unique<Event[]>(8);
  Ring r;
  r.init(slots.get(), 8, TrackKind::kWorkerKlt, 3);
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(r.id(), 3);
  EXPECT_EQ(r.kind(), TrackKind::kWorkerKlt);

  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(r.record(EventType::kUltYield, 1000 + i, /*worker=*/0,
                         /*ult=*/static_cast<std::uint32_t>(i)));
  EXPECT_EQ(r.recorded(), 8u);
  EXPECT_EQ(r.dropped(), 0u);

  // Ring full: every further record is dropped-and-counted, never wrapped.
  for (int i = 0; i < 5; ++i)
    EXPECT_FALSE(r.record(EventType::kUltYield, 2000 + i, 0, 99));
  EXPECT_EQ(r.recorded(), 8u);
  EXPECT_EQ(r.dropped(), 5u);
  EXPECT_EQ(r.fill(), 8u);

  // Slot contents survived (no wrap-around overwrite).
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Event& e = r.at(i);
    EXPECT_EQ(e.type.load(), static_cast<std::uint16_t>(EventType::kUltYield));
    EXPECT_EQ(e.ts_ns, 1000 + static_cast<std::int64_t>(i));
    EXPECT_EQ(e.ult, i);
  }
}

TEST(TraceRing, SlotIsOneCacheLine) {
  EXPECT_EQ(sizeof(Event), 64u);
  EXPECT_EQ(alignof(Event), 64u);
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(TraceHistogram, BucketForLog2Boundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_for(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_for(1), 0);
  EXPECT_EQ(LatencyHistogram::bucket_for(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_for(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_for(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_for(7), 3);
  EXPECT_EQ(LatencyHistogram::bucket_for(8), 4);
  EXPECT_EQ(LatencyHistogram::bucket_for(1023), 10);
  EXPECT_EQ(LatencyHistogram::bucket_for(1024), 11);
  // Huge values clamp into the last bucket instead of overflowing.
  EXPECT_EQ(LatencyHistogram::bucket_for(INT64_MAX),
            LatencyHistogram::kBuckets - 1);
}

TEST(TraceHistogram, BucketBoundsAreContiguous) {
  // Every value lands in a bucket whose [floor, ceil) contains it.
  for (std::int64_t ns : {0LL, 1LL, 2LL, 3LL, 100LL, 4096LL, 1'000'000LL}) {
    const int b = LatencyHistogram::bucket_for(ns);
    EXPECT_GE(ns, HistSnapshot::bucket_floor_ns(b)) << "ns=" << ns;
    EXPECT_LT(ns, HistSnapshot::bucket_ceil_ns(b)) << "ns=" << ns;
  }
  // Buckets tile the axis: ceil(b) == floor(b+1) for the log2 buckets.
  for (int b = 1; b + 1 < HistSnapshot::kBuckets - 1; ++b)
    EXPECT_EQ(HistSnapshot::bucket_ceil_ns(b), HistSnapshot::bucket_floor_ns(b + 1));
}

TEST(TraceHistogram, PercentileInterpolatesInsideBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(100);  // bucket [64, 128)
  EXPECT_EQ(h.count(), 1000u);
  const HistSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 1000u);
  for (double p : {1.0, 50.0, 99.0}) {
    EXPECT_GE(s.percentile_ns(p), 64.0);
    EXPECT_LE(s.percentile_ns(p), 128.0);
  }
  EXPECT_DOUBLE_EQ(HistSnapshot{}.percentile_ns(50.0), 0.0);  // empty
}

TEST(TraceHistogram, MedianSeparatesBimodalSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(1'000);       // ~2^10
  for (int i = 0; i < 10; ++i) h.record(1'000'000);   // ~2^20
  const HistSnapshot s = h.snapshot();
  EXPECT_LT(s.median_ns(), 3'000);
  EXPECT_GT(s.percentile_ns(95.0), 500'000);
}

TEST(TraceHistogram, PercentilesAreMonotoneAcrossRankGaps) {
  // Regression: when the target rank falls between the last sample of one
  // bucket and the first of the next, interpolation must clamp at the next
  // bucket's floor, not extrapolate below it. Shape that triggered it:
  // 72 + 100 samples in low buckets, 2 stragglers far above.
  HistSnapshot s;
  s.buckets[12] = 72;
  s.buckets[19] = 100;
  s.buckets[20] = 2;
  double prev = -1.0;
  for (double p = 0; p <= 100.0; p += 0.5) {
    const double v = s.percentile_ns(p);
    EXPECT_GE(v, prev) << "non-monotone at p=" << p;
    EXPECT_GE(v, static_cast<double>(HistSnapshot::bucket_floor_ns(12)));
    EXPECT_LE(v, static_cast<double>(HistSnapshot::bucket_ceil_ns(20)));
    prev = v;
  }
  // p99 specifically lands in the straggler bucket, at or above its floor.
  EXPECT_GE(s.percentile_ns(99.0),
            static_cast<double>(HistSnapshot::bucket_floor_ns(20)));
}

TEST(TraceHistogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 5; ++i) a.record(10);
  for (int i = 0; i < 7; ++i) b.record(10'000);
  HistSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  EXPECT_EQ(m.count(), 12u);
  EXPECT_EQ(m.buckets[LatencyHistogram::bucket_for(10)], 5u);
  EXPECT_EQ(m.buckets[LatencyHistogram::bucket_for(10'000)], 7u);
}

TEST(TraceHistogram, SumIsExactAndMerges) {
  // sum_ns is accumulated exactly (not reconstructed from log2 buckets): the
  // reconciliation contract of the causal-delay exporter and trace_check.
  LatencyHistogram a, b;
  a.record(3);
  a.record(5);
  a.record(-7);  // negative clamps to 0 in the sum, like bucket_for
  b.record(1'000'000);
  EXPECT_EQ(a.sum_ns(), 8u);
  EXPECT_EQ(b.sum_ns(), 1'000'000u);
  HistSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  EXPECT_EQ(m.sum_ns, 1'000'008u);
  EXPECT_EQ(m.count(), 4u);
  a.reset();
  EXPECT_EQ(a.sum_ns(), 0u);
  EXPECT_EQ(a.count(), 0u);
}

TEST(TraceHistogram, ConcurrentRecordKeepsExactTotals) {
  // The stamp/histogram write path must be clean under TSan: N threads
  // hammer one histogram; count and exact sum both reconcile after joining.
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(i % 1024);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t expect_sum = 0;
  for (int i = 0; i < kPerThread; ++i) expect_sum += i % 1024;
  EXPECT_EQ(h.sum_ns(), expect_sum * kThreads);
}

// ---------------------------------------------------------------------------
// Collector + exporter
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_char(const std::string& s, char c) {
  std::size_t n = 0;
  for (char x : s) n += (x == c);
  return n;
}

class TraceCollectorTest : public ::testing::Test {
 protected:
  void TearDown() override { Collector::instance().disable(); }
};

TEST_F(TraceCollectorTest, OverflowAccountingAcrossRings) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 16;
  Collector::instance().configure(cfg);
  Ring* r = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  ASSERT_NE(r, nullptr);
  for (int i = 0; i < 40; ++i)
    r->record(EventType::kUltYield, i, 0, 1);
  EXPECT_EQ(Collector::instance().total_events(), 16u);
  EXPECT_EQ(Collector::instance().total_dropped(), 24u);
}

TEST_F(TraceCollectorTest, AcquireRingReturnsNullWhenDisabled) {
  Collector::instance().disable();
  EXPECT_EQ(Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1),
            nullptr);
}

TEST_F(TraceCollectorTest, ChromeJsonExportIsStructurallyValid) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 128;
  Collector::instance().configure(cfg);

  // Worker ring: a dispatch->yield pair (becomes one "X" span), a dispatch->
  // preempt pair, and a steal instant.
  Ring* w = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  ASSERT_NE(w, nullptr);
  w->record(EventType::kUltDispatch, 1'000, 0, 1);
  w->record(EventType::kUltYield, 2'000, 0, 1);
  w->record(EventType::kSteal, 2'500, 0, 2, /*victim=*/1);
  w->record(EventType::kUltDispatch, 3'000, 0, 2, /*sched_delay=*/123);
  w->record(EventType::kPreemptSignalYield, 4'000, 0, 2);
  // Timer ring: one fire.
  Ring* t = Collector::instance().acquire_ring(TrackKind::kTimer, -1);
  ASSERT_NE(t, nullptr);
  t->record(EventType::kTimerFire, 1'500, -1, 0, /*target=*/0);

  const std::string path = ::testing::TempDir() + "lpt_trace_unit.json";
  ASSERT_TRUE(Collector::instance().write_chrome_json(path));
  const std::string json = slurp(path);
  std::remove(path.c_str());

  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);   // paired run span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);   // instant
  EXPECT_NE(json.find("preempt_signal_yield"), std::string::npos);
  EXPECT_NE(json.find("timer_fire"), std::string::npos);
  EXPECT_NE(json.find("steal"), std::string::npos);
  EXPECT_NE(json.find("\"sched_delay_ns\":123"), std::string::npos);

  // Structural sanity: balanced brackets, no trailing-comma array endings.
  EXPECT_EQ(count_char(json, '{'), count_char(json, '}'));
  EXPECT_EQ(count_char(json, '['), count_char(json, ']'));
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",\n]"), std::string::npos);
}

TEST_F(TraceCollectorTest, WakeEventsBecomeFlowEdges) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 64;
  Collector::instance().configure(cfg);
  Ring* w = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  ASSERT_NE(w, nullptr);
  // ULT 7 wakes ULT 9 (parked on a mutex) at t=1000; 9 dispatches at t=2000.
  w->record(EventType::kUltWake, 1'000, 0, /*ult=*/9, /*waker=*/7,
            /*kind=*/1);
  w->record(EventType::kUltDispatch, 2'000, 0, 9, /*delay=*/1'000);
  w->record(EventType::kUltExit, 3'000, 0, 9);
  // A wake whose target never dispatches must NOT emit a dangling flow pair.
  w->record(EventType::kUltWake, 2'500, 0, /*ult=*/42, /*waker=*/9, 1);

  const std::string path = ::testing::TempDir() + "lpt_trace_flow.json";
  ASSERT_TRUE(Collector::instance().write_chrome_json(path));
  const std::string json = slurp(path);
  std::remove(path.c_str());

  // One flow-start + one flow-finish, bound by a shared id.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"waker\":7"), std::string::npos);
  std::size_t starts = 0;
  for (std::size_t pos = json.find("\"ph\":\"s\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"s\"", pos + 1))
    ++starts;
  EXPECT_EQ(starts, 1u);  // the never-dispatched wake drew no arrow
}

TEST_F(TraceCollectorTest, SnapshotEventsSortsAndTieBreaks) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 64;
  Collector::instance().configure(cfg);
  Ring* a = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  Ring* b = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Cross-ring interleaving plus a same-timestamp wake/dispatch pair: the
  // dispatch must sort after the wake so causal scans see ready-then-run.
  b->record(EventType::kUltDispatch, 500, 1, 3, 0);
  a->record(EventType::kUltWake, 500, 0, 3, 1, 1);
  a->record(EventType::kUltYield, 100, 0, 1);
  const std::vector<EventView> evs = Collector::instance().snapshot_events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].type, EventType::kUltYield);
  EXPECT_EQ(evs[1].type, EventType::kUltWake);
  EXPECT_EQ(evs[2].type, EventType::kUltDispatch);
}

TEST_F(TraceCollectorTest, EventsJsonlExportRoundTrips) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 64;
  Collector::instance().configure(cfg);
  Ring* w = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  ASSERT_NE(w, nullptr);
  w->record(EventType::kUltWake, 1'000, 0, 9, 7, 8);
  w->record(EventType::kUltDispatch, 2'000, 0, 9, 1'000);

  const std::string path = ::testing::TempDir() + "lpt_trace_events.jsonl";
  ASSERT_TRUE(Collector::instance().write_events_jsonl(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());

  // One JSON object per line, every field machine-recoverable.
  EXPECT_EQ(count_char(text, '\n'), 2u);
  EXPECT_NE(text.find("\"type\":\"ult_wake\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"ult_dispatch\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(text.find("\"arg0\":7"), std::string::npos);
  EXPECT_NE(text.find("\"arg1\":8"), std::string::npos);
  EXPECT_NE(text.find("\"ult\":9"), std::string::npos);
}

TEST_F(TraceCollectorTest, ExportWithNoEventsReturnsFalse) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  Collector::instance().configure(cfg);
  EXPECT_FALSE(Collector::instance().write_chrome_json(
      ::testing::TempDir() + "lpt_trace_empty.json"));
}

TEST_F(TraceCollectorTest, UncommittedSlotsAreSkippedByExport) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  Collector::instance().configure(cfg);
  Ring* r = Collector::instance().acquire_ring(TrackKind::kWorkerKlt, -1);
  ASSERT_NE(r, nullptr);
  r->record(EventType::kUltYield, 100, 0, 1);
  r->record(EventType::kUltYield, 200, 0, 2);
  // Simulate a record interrupted before its commit store: un-commit slot 1
  // (a real interrupted write leaves the reserved slot's type at kNone).
  const_cast<Event&>(r->at(1)).type.store(0, std::memory_order_release);
  const std::string path = ::testing::TempDir() + "lpt_trace_skip.json";
  ASSERT_TRUE(Collector::instance().write_chrome_json(path));
  const std::string json = slurp(path);
  std::remove(path.c_str());
  // Only the committed slot exports; the torn slot is silently skipped.
  std::size_t n = 0;
  for (std::size_t pos = json.find("ult_yield"); pos != std::string::npos;
       pos = json.find("ult_yield", pos + 1))
    ++n;
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(json.find("\"none\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Env-var config resolution
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

}  // namespace
}  // namespace lpt::trace
