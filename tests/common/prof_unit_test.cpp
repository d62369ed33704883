// TSan-clean unit tests of the profiler's lock-free primitives on plain
// std::threads (no fiber switches, so the ThreadSanitizer stage of
// scripts/check.sh can run them): the SampleRing reserve/commit protocol
// under concurrent writers, the CAS-keyed wait-site table, the LockStats
// slab, and the folded/JSON writers over synthetic data (round-tripped
// through tools/telemetry.hpp).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "prof/prof.hpp"
#include "telemetry.hpp"

namespace lpt::prof {
namespace {

std::string tmp_path(const char* tag) {
  return "/tmp/lpt_prof_unit_" + std::to_string(::getpid()) + "_" + tag;
}

using telemetry::slurp;

ProfConfig armed(std::uint32_t ring_cap = 1u << 12) {
  ProfConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = ring_cap;
  return cfg;
}

TEST(ProfConfig, DefaultsAreOff) {
  const ProfConfig cfg;
  EXPECT_FALSE(cfg.enabled);
  EXPECT_EQ(cfg.sample_hz, 0);
  EXPECT_TRUE(cfg.offcpu);
  EXPECT_TRUE(cfg.locks);
}

TEST(ProfUnit, RingReconcilesUnderConcurrentWriters) {
  // Small rings force drops; the contract must hold regardless.
  Collector::instance().configure(armed(/*ring_cap=*/128));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      SampleRing* ring = Collector::instance().acquire_ring();
      ASSERT_NE(ring, nullptr);
      for (int i = 0; i < kPerThread; ++i)
        // fp/stack bounds of 0: the frame walk rejects immediately, leaving
        // a depth-1 sample of just the synthetic pc.
        sample(ring, /*ult=*/static_cast<std::uint32_t>(t), /*worker=*/
               static_cast<std::int16_t>(t), /*pool=*/0,
               /*pc=*/0x400000u + static_cast<std::uintptr_t>(t), /*fp=*/0,
               /*stack_lo=*/0, /*stack_hi=*/0);
    });
  for (auto& th : threads) th.join();

  const Totals t = Collector::instance().totals();
  EXPECT_EQ(t.invocations, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.invocations, t.recorded + t.dropped);
  EXPECT_GT(t.dropped, 0u);  // 500 > 128 per ring guarantees drops
  EXPECT_LE(t.recorded, static_cast<std::uint64_t>(kThreads) * 128u);

  // Every committed sample is visible to the writer, once.
  const std::string path = tmp_path("ring.folded");
  ASSERT_TRUE(Collector::instance().write_file(path));
  const telemetry::Profile p = telemetry::read_profile(slurp(path));
  std::remove(path.c_str());
  for (const std::string& e : p.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.samples(), t.recorded);
  for (int u = 0; u < kThreads; ++u)
    EXPECT_LE(p.samples(u), 128u);
  Collector::instance().disable();
}

TEST(ProfUnit, NullRingCountsNoRingDrops) {
  Collector::instance().configure(armed());
  sample(nullptr, 0, 0, 0, 0x1234, 0, 0, 0);
  const Totals t = Collector::instance().totals();
  EXPECT_EQ(t.invocations, 1u);
  EXPECT_EQ(t.recorded, 0u);
  EXPECT_EQ(t.dropped, 1u);
  Collector::instance().disable();
}

TEST(ProfUnit, WaitSiteTableCasUnderConcurrency) {
  Collector::instance().configure(armed());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        // 16 distinct callsites x 3 kinds: all racing threads funnel into
        // the same handful of CAS-claimed slots.
        const auto site = static_cast<std::uintptr_t>(0x1000 + (i % 16) * 8);
        const auto kind = static_cast<WaitKind>(1 + (t % 3));
        record_wait(kind, site, /*ns=*/1000);
      }
    });
  for (auto& th : threads) th.join();

  const Totals t = Collector::instance().totals();
  EXPECT_EQ(t.offcpu_waits, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.offcpu_dropped, 0u);  // 48 distinct keys << 256 slots
  EXPECT_EQ(t.offcpu_total_ns,
            static_cast<std::uint64_t>(kThreads * kPerThread) * 1000u);

  std::uint64_t site_sum = 0;
  for (const WaitSiteProfile& s : Collector::instance().offcpu_sites()) {
    EXPECT_NE(s.kind, WaitKind::kNone);
    site_sum += s.count;
  }
  EXPECT_EQ(site_sum, t.offcpu_waits);
  Collector::instance().disable();
}

TEST(ProfUnit, LockSlabExhaustsGracefully) {
  Collector::instance().configure(armed());
  std::vector<LockStats*> slots;
  for (std::uint32_t i = 0; i < Collector::kMaxLocks; ++i) {
    LockStats* ls = Collector::instance().acquire_lock_stats();
    ASSERT_NE(ls, nullptr) << "slot " << i;
    slots.push_back(ls);
  }
  // Distinct slots, then graceful exhaustion (unprofiled, not crashed).
  EXPECT_NE(slots[0], slots[1]);
  EXPECT_EQ(Collector::instance().acquire_lock_stats(), nullptr);

  // Reconfigure recycles the slab from zero.
  Collector::instance().configure(armed());
  LockStats* fresh = Collector::instance().acquire_lock_stats();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh, slots[0]);
  EXPECT_EQ(fresh->acquires.load(), 0u);
  Collector::instance().disable();
}

TEST(ProfUnit, JsonWriterValidOverSyntheticData) {
  Collector::instance().configure(armed());
  SampleRing* ring = Collector::instance().acquire_ring();
  ASSERT_NE(ring, nullptr);
  for (int i = 0; i < 10; ++i) sample(ring, 7, 0, 1, 0x5000, 0, 0, 0);
  record_wait(WaitKind::kMutex, 0x2000, 5000);
  record_wait(WaitKind::kSleep, 0x3000, 1'000'000);
  LockStats* ls = Collector::instance().acquire_lock_stats();
  ASSERT_NE(ls, nullptr);
  ls->acquires.store(10);
  ls->contended.store(3);
  ls->chains.store(1);
  ls->site.store(0x2000);
  ls->hold_ns.record(10'000);
  ls->wait_ns.record(5'000);

  const std::string path = tmp_path("synthetic.json");
  ASSERT_TRUE(Collector::instance().write_file(path));
  const telemetry::Profile j = telemetry::read_profile(slurp(path));
  std::remove(path.c_str());
  for (const std::string& e : j.errors) ADD_FAILURE() << e;
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.recorded, 10u);
  EXPECT_EQ(j.offcpu_waits, 2u);
  EXPECT_EQ(j.lock_acquires, 10u);
  EXPECT_EQ(j.lock_contended, 3u);
  Collector::instance().disable();
}

}  // namespace
}  // namespace lpt::prof
