// An "MKL-like" inner thread team: fork `width` ULTs for one kernel call and
// join them at a busy-wait barrier on a memory flag — the synchronization
// structure of OpenMP-parallel Intel MKL that the paper reverse-engineered
// (§4.1). The wait policy is configurable:
//   kSpin       faithful MKL behaviour: deadlocks on nonpreemptive M:N
//               threads unless the team threads are preemptive
//   kSpinYield  the paper's reverse-engineered variant (explicit yield)
//   kBlocking   cooperative barrier (a ULT-native team, for contrast)
#pragma once

#include <atomic>
#include <functional>

#include "runtime/lpt.hpp"

namespace lpt::apps {

enum class TeamWait { kSpin, kSpinYield, kBlocking };

struct TeamOptions {
  int width = 4;
  TeamWait wait = TeamWait::kSpinYield;
  Preempt preempt = Preempt::None;  ///< preemption type of team members
};

/// Run body(rank) on `width` ULTs (the caller becomes rank 0) and join at an
/// end-of-call barrier with the configured wait policy. A member whose spawn
/// fails runs in the caller, before rank 0. Must be called from ULT context.
void team_parallel(const TeamOptions& opts,
                   const std::function<void(int rank)>& body);

}  // namespace lpt::apps
