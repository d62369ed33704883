// Unit tests of the syscall shim's fault-injection plans (common/sys.hpp).
// sys::mmap is the cheapest instrumented site, so most schedules are probed
// through it; one test exercises sys::pthread_create end to end.
#include "common/sys.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <sys/mman.h>

namespace lpt {
namespace {

class SysFault : public ::testing::Test {
 protected:
  void SetUp() override { sys::reset_faults(); }
  void TearDown() override { sys::reset_faults(); }

  // One sys::mmap probe; returns true when the mapping succeeded.
  static bool probe_mmap() {
    errno = 0;
    void* p = sys::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    munmap(p, 4096);
    return true;
  }
};

TEST_F(SysFault, OffByDefaultCountsCalls) {
  const std::uint64_t before = sys::counters(sys::Site::kMmap).calls;
  EXPECT_TRUE(probe_mmap());
  const sys::SiteCounters c = sys::counters(sys::Site::kMmap);
  EXPECT_EQ(c.calls, before + 1);
  EXPECT_EQ(c.injected, 0u);
}

TEST_F(SysFault, NthFailsExactlyThatCall) {
  ASSERT_TRUE(sys::configure_faults("mmap:nth=2"));
  EXPECT_TRUE(probe_mmap());
  EXPECT_FALSE(probe_mmap());
  EXPECT_EQ(errno, ENOMEM);  // mmap's default injected errno
  EXPECT_TRUE(probe_mmap());
  EXPECT_EQ(sys::counters(sys::Site::kMmap).injected, 1u);
}

TEST_F(SysFault, FirstNFailsLeadingCalls) {
  ASSERT_TRUE(sys::configure_faults("mmap:first=2"));
  EXPECT_FALSE(probe_mmap());
  EXPECT_FALSE(probe_mmap());
  EXPECT_TRUE(probe_mmap());
}

TEST_F(SysFault, EveryNFailsPeriodically) {
  ASSERT_TRUE(sys::configure_faults("mmap:every=3"));
  int failures = 0;
  for (int i = 0; i < 9; ++i)
    if (!probe_mmap()) ++failures;
  EXPECT_EQ(failures, 3);
}

TEST_F(SysFault, AfterSparesLeadingCalls) {
  ASSERT_TRUE(sys::configure_faults("mmap:after=2,first=1"));
  EXPECT_TRUE(probe_mmap());
  EXPECT_TRUE(probe_mmap());
  EXPECT_FALSE(probe_mmap());
  EXPECT_TRUE(probe_mmap());
}

TEST_F(SysFault, MaxCapsInjections) {
  ASSERT_TRUE(sys::configure_faults("mmap:every=1,max=2"));
  EXPECT_FALSE(probe_mmap());
  EXPECT_FALSE(probe_mmap());
  EXPECT_TRUE(probe_mmap());
  EXPECT_EQ(sys::counters(sys::Site::kMmap).injected, 2u);
}

TEST_F(SysFault, ProbExtremesAreDeterministic) {
  ASSERT_TRUE(sys::configure_faults("mmap:prob=1.0,seed=7"));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(probe_mmap());
  ASSERT_TRUE(sys::configure_faults("mmap:prob=0.0"));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(probe_mmap());
}

TEST_F(SysFault, ProbMidpointInjectsSome) {
  ASSERT_TRUE(sys::configure_faults("mmap:prob=0.5,seed=42"));
  int failures = 0;
  for (int i = 0; i < 64; ++i)
    if (!probe_mmap()) ++failures;
  // splitmix64 at p=0.5 over 64 draws: overwhelmingly within [8, 56].
  EXPECT_GT(failures, 8);
  EXPECT_LT(failures, 56);
}

TEST_F(SysFault, CustomErrnoByNameAndNumber) {
  ASSERT_TRUE(sys::configure_faults("mmap:first=1,errno=EPERM"));
  EXPECT_FALSE(probe_mmap());
  EXPECT_EQ(errno, EPERM);
  ASSERT_TRUE(sys::configure_faults("mmap:first=1,errno=12"));  // ENOMEM
  EXPECT_FALSE(probe_mmap());
  EXPECT_EQ(errno, ENOMEM);
}

TEST_F(SysFault, MultiClauseSpecArmsEachSite) {
  ASSERT_TRUE(
      sys::configure_faults("mmap:first=1;timer_create:first=1,errno=EAGAIN"));
  EXPECT_FALSE(probe_mmap());
  timer_t tid;
  sigevent sev{};
  sev.sigev_notify = SIGEV_NONE;
  errno = 0;
  EXPECT_EQ(sys::timer_create(CLOCK_MONOTONIC, &sev, &tid), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(sys::total_injected(), 2u);
}

TEST_F(SysFault, MalformedSpecRejectedPlanIntact) {
  ASSERT_TRUE(sys::configure_faults("mmap:first=1"));
  std::string error;
  EXPECT_FALSE(sys::configure_faults("mmap:bogus=1", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(sys::configure_faults("nosuchsite:first=1", &error));
  EXPECT_FALSE(sys::configure_faults("mmap:first=1,prob=0.5", &error));
  // The original plan must still be armed.
  EXPECT_FALSE(probe_mmap());
}

TEST_F(SysFault, EmptySpecDisarms) {
  ASSERT_TRUE(sys::configure_faults("mmap:every=1"));
  EXPECT_FALSE(probe_mmap());
  ASSERT_TRUE(sys::configure_faults(""));
  EXPECT_TRUE(probe_mmap());
}

TEST_F(SysFault, PthreadCreateInjectionSkipsRealCall) {
  ASSERT_TRUE(sys::configure_faults("pthread_create:first=1"));
  pthread_t t;
  // Injected failure returns before the kernel is asked: no thread to join.
  EXPECT_EQ(sys::pthread_create(
                &t, nullptr, [](void*) -> void* { return nullptr; }, nullptr),
            EAGAIN);
  sys::reset_faults();
  ASSERT_EQ(sys::pthread_create(
                &t, nullptr, [](void*) -> void* { return nullptr; }, nullptr),
            0);
  pthread_join(t, nullptr);
}

// The mseal site defaults to ENOSYS, as on a kernel without mseal(2), and an
// injected failure leaves the range unsealed.
TEST_F(SysFault, MsealInjectionDefaultsToEnosysAndSealsNothing) {
  void* p = ::mmap(nullptr, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  ASSERT_TRUE(sys::configure_faults("mseal:every=1"));
  errno = 0;
  EXPECT_EQ(sys::mseal(p, 4096), -1);
  EXPECT_EQ(errno, ENOSYS);
  EXPECT_EQ(sys::counters(sys::Site::kMseal).injected, 1u);
  EXPECT_EQ(::munmap(p, 4096), 0) << "an injected failure must not seal";
}

TEST_F(SysFault, SiteNamesRoundTrip) {
  for (int i = 0; i < static_cast<int>(sys::Site::kCount); ++i) {
    const auto s = static_cast<sys::Site>(i);
    const std::string spec = std::string(sys::site_name(s)) + ":first=1";
    EXPECT_TRUE(sys::configure_faults(spec)) << spec;
  }
}

TEST_F(SysFault, ResetZeroesCounters) {
  ASSERT_TRUE(sys::configure_faults("mmap:first=1"));
  EXPECT_FALSE(probe_mmap());
  sys::reset_faults();
  const sys::SiteCounters c = sys::counters(sys::Site::kMmap);
  EXPECT_EQ(c.calls, 0u);
  EXPECT_EQ(c.injected, 0u);
  EXPECT_EQ(sys::total_injected(), 0u);
}

}  // namespace
}  // namespace lpt
