// Two-class priority scheduler (§4.3, the LAMMPS in situ study): priority-0
// ("simulation") threads always run before priority-1 ("analysis") threads.
// Low-priority threads live in per-worker LIFO queues "in order not to hurt
// data locality during preemption" — a preempted analysis thread is the next
// one its worker resumes once no simulation work exists anywhere.
#include "runtime/scheduler.hpp"

#include "common/assert.hpp"
#include "runtime/instrument.hpp"
#include "runtime/runtime.hpp"

namespace lpt {

void PriorityScheduler::init(Runtime& rt) {
  rt_ = &rt;
  high_.clear();
  low_.clear();
  rngs_.clear();
  for (int i = 0; i < rt.num_workers(); ++i) {
    high_.push_back(std::make_unique<ThreadQueue>());
    low_.push_back(std::make_unique<ThreadQueue>());
    rngs_.push_back(std::make_unique<Xoshiro256>(0x91e0u + i));
  }
}

ThreadCtl* PriorityScheduler::pick(Worker& w) {
  const int n = static_cast<int>(high_.size());
  // High class first: local queue, then scan every remote queue — the paper
  // has the scheduler check whether *any* simulation threads exist before
  // considering analysis threads.
  if (ThreadCtl* t = high_[w.rank]->pop_front()) return t;
  for (int step = 1; step < n; ++step) {
    const int v = (w.rank + step) % n;
    if (ThreadCtl* t = high_[v]->pop_front()) {
      w.metrics.steals.inc();
      LPT_TRACE_EVENT(trace::EventType::kSteal, t->trace_id,
                      static_cast<std::uint64_t>(v));
      return t;
    }
  }
  // Low class: local LIFO, then steal.
  if (ThreadCtl* t = low_[w.rank]->pop_back()) return t;
  for (int step = 1; step < n; ++step) {
    const int v = (w.rank + step) % n;
    if (ThreadCtl* t = low_[v]->pop_back()) {
      w.metrics.steals.inc();
      LPT_TRACE_EVENT(trace::EventType::kSteal, t->trace_id,
                      static_cast<std::uint64_t>(v));
      return t;
    }
  }
  return nullptr;
}

void PriorityScheduler::enqueue(ThreadCtl* t, Worker* hint, EnqueueKind kind) {
  (void)kind;
  const int n = static_cast<int>(high_.size());
  const int q = hint != nullptr ? hint->rank : t->home_pool % n;
  if (t->priority <= 0)
    high_[q]->push_back(t);
  else
    low_[q]->push_back(t);  // popped from the back → LIFO
}

bool PriorityScheduler::take_for_join(Worker& w, ThreadCtl* t) {
  // High class only. A taken child runs inline in its joiner's place, so a
  // take with a low-class joiner or child would run low-class work ahead of
  // queued high-class work. The low class needs no take: its LIFO pick
  // already runs the newest child next, and the woken joiner after it, once
  // no high-class work exists anywhere.
  const ThreadCtl* joiner = w.current_ult.load(std::memory_order_relaxed);
  if (joiner == nullptr || joiner->priority > 0 || t->priority > 0)
    return false;
  return high_[w.rank]->pop_back_if(t);
}

bool PriorityScheduler::has_work() const {
  for (const auto& q : high_)
    if (!q->empty()) return true;
  for (const auto& q : low_)
    if (!q->empty()) return true;
  return false;
}

std::int64_t PriorityScheduler::queue_depth(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(high_.size())) return 0;
  return high_[rank]->depth() + low_[rank]->depth();
}

}  // namespace lpt
