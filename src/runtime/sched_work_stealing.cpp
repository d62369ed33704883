#include "runtime/scheduler.hpp"

#include "common/assert.hpp"
#include "runtime/instrument.hpp"
#include "runtime/runtime.hpp"

namespace lpt {

void WorkStealingScheduler::init(Runtime& rt) {
  rt_ = &rt;
  queues_.clear();
  rngs_.clear();
  for (int i = 0; i < rt.num_workers(); ++i) {
    queues_.push_back(std::make_unique<ThreadQueue>());
    rngs_.push_back(std::make_unique<Xoshiro256>(0x5eed0000u + i));
  }
}

ThreadCtl* WorkStealingScheduler::pick(Worker& w) {
  if (ThreadCtl* t = queues_[w.rank]->pop_front()) return t;
  const int n = static_cast<int>(queues_.size());
  if (n == 1) return nullptr;
  // Steal from a randomly chosen remote queue when the local one is empty.
  Xoshiro256& rng = *rngs_[w.rank];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const int v = steal_victim(w.rank, n, rng);
    // Skip an empty victim on its lock-free depth mirror: locking it anyway
    // pulls the lock's line away from the owner, which pushes and pops there
    // on every spawn, wake and yield.
    if (queues_[v]->depth() == 0) continue;
    if (ThreadCtl* t = queues_[v]->pop_front()) {
      w.metrics.steals.inc();
      LPT_TRACE_EVENT(trace::EventType::kSteal, t->trace_id,
                      static_cast<std::uint64_t>(v));
      return t;
    }
  }
  return nullptr;
}

void WorkStealingScheduler::enqueue(ThreadCtl* t, Worker* hint, EnqueueKind kind) {
  (void)kind;  // preempted threads go to the local FIFO like yields (§4.1)
  const int q = hint != nullptr
                    ? hint->rank
                    : t->home_pool % static_cast<int>(queues_.size());
  queues_[q]->push_back(t);
}

bool WorkStealingScheduler::take_for_join(Worker& w, ThreadCtl* t) {
  return queues_[w.rank]->pop_back_if(t);
}

bool WorkStealingScheduler::has_work() const {
  for (const auto& q : queues_)
    if (!q->empty()) return true;
  return false;
}

std::int64_t WorkStealingScheduler::queue_depth(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(queues_.size())) return 0;
  return queues_[rank]->depth();
}

}  // namespace lpt
