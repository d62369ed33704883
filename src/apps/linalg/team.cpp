#include "apps/linalg/team.hpp"

#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace lpt::apps {

namespace {

struct TeamSync {
  std::atomic<int> remaining{0};
  BusyFlag done;
  Latch blocking;
  explicit TeamSync(int width) : blocking(width) { remaining.store(width); }

  /// Count one member in without waiting.
  void arrive(TeamWait wait) {
    if (wait == TeamWait::kBlocking)
      blocking.count_down();
    else if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      done.set();
  }

  void arrive_and_wait(TeamWait wait) {
    arrive(wait);
    if (wait == TeamWait::kBlocking)
      blocking.wait();
    else
      done.wait(wait == TeamWait::kSpin ? BusyFlag::WaitMode::kSpin
                                        : BusyFlag::WaitMode::kSpinWithYield);
  }
};

}  // namespace

void team_parallel(const TeamOptions& opts,
                   const std::function<void(int)>& body) {
  LPT_CHECK_MSG(this_thread::in_ult(), "team_parallel outside ULT context");
  LPT_CHECK(opts.width >= 1);
  Runtime* rt = Runtime::current();

  TeamSync sync(opts.width);
  std::vector<Thread> members;
  members.reserve(opts.width - 1);
  ThreadAttrs attrs;
  attrs.preempt = opts.preempt;
  for (int r = 1; r < opts.width; ++r) {
    Thread m = rt->spawn(
        [&, r] {
          body(r);
          sync.arrive_and_wait(opts.wait);
        },
        attrs);
    if (m.joinable()) {
      members.push_back(std::move(m));
      continue;
    }
    // The spawn failed: run this member's share here and arrive for it, or
    // the others would wait for it forever.
    body(r);
    sync.arrive(opts.wait);
  }
  body(0);
  sync.arrive_and_wait(opts.wait);
  for (auto& m : members) m.join();
}

}  // namespace lpt::apps
