// Offline critical-path analyzer for the causal event log
// (docs/observability.md, "Causal tracing & scheduling delay").
//
// Input: the raw JSONL event log written when LPT_TRACE_EVENTS_FILE is set
// (one {"ts":..,"type":"..","ult":..,"worker":..,"arg0":..,"arg1":..} object
// per line, sorted by timestamp). Starting from a chosen ULT's ult_exit —
// by default the last ULT to exit — the analyzer walks wake edges backward
// to reconstruct the longest run+wait chain that ended at that exit:
//
//   - run segments stay on the current ULT (dispatch -> yield/preempt/block),
//   - runnable-wait segments are the ready -> dispatch scheduling delays,
//   - a blocked segment (ult_block -> ult_wake) hops the chain to the waker
//     named by the wake edge: whatever the waker was doing up to the wake is
//     what the blocked thread was really waiting for,
//   - external wakes (waker 0: timer expiry, reabsorption, application
//     threads) and the spawn edge terminate the walk.
//
// Every segment is attributed to run / runnable-wait / blocked-on-{kind} /
// in-syscall, with per-category totals at the end — the "why was this thread
// late" answer assembled from causes, not symptoms.
//
// Usage: trace_critical_path <events.jsonl> [--ult N] [--max-hops N]
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "prof/prof.hpp"
#include "telemetry.hpp"

namespace {

using lpt::telemetry::Event;
using lpt::trace::EventType;

const char* wait_kind_name(std::uint64_t kind) {
  return lpt::prof::wait_kind_name(static_cast<lpt::prof::WaitKind>(kind));
}

/// The lifecycle subset of the log the walk needs. A cancelled ULT
/// (deadline, directed cancel, deadlock break) never emits ult_exit; its
/// cancellation ends its timeline all the same.
bool is_lifecycle(EventType t) {
  switch (t) {
    case EventType::kUltDispatch:
    case EventType::kUltYield:
    case EventType::kPreemptSignalYield:
    case EventType::kPreemptKltSwitch:
    case EventType::kUltBlock:
    case EventType::kUltWake:
    case EventType::kUltExit:
    case EventType::kUltCancel:
      return true;
    default:
      return false;
  }
}

/// One step of the reconstructed chain, in cause order.
struct Segment {
  std::uint64_t ult = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::string what;  // run | runnable-wait | blocked-on-<kind> | in-syscall
};

struct Timelines {
  // Per-ULT lifecycle events, each sorted by timestamp (input order).
  std::map<std::uint64_t, std::vector<Event>> per_ult;
};

/// One member of a detector-flagged deadlock cycle (a kDeadlock event).
struct CycleMember {
  std::uint64_t ult = 0;
  std::uint64_t wait_kind = 0;
  bool victim = false;
};

/// Walk one ULT backward from `upto`, prepending segments to `path` (which
/// is built cause-first by reversing at the end). Returns the waker to hop
/// to (and sets *hop_ts), or 0 when the chain terminates on this ULT.
std::uint64_t walk_back(const Timelines& tl, std::uint64_t ult,
                        std::int64_t upto, std::vector<Segment>* path,
                        std::int64_t* hop_ts) {
  auto it = tl.per_ult.find(ult);
  if (it == tl.per_ult.end()) return 0;
  const std::vector<Event>& evs = it->second;
  // Last event at or before `upto`.
  std::size_t i = evs.size();
  while (i > 0 && evs[i - 1].ts > upto) --i;
  std::int64_t seg_end = upto;
  while (i > 0) {
    const Event& e = evs[--i];
    switch (e.type) {
      case EventType::kUltDispatch:
        // dispatch -> seg_end was on-CPU; before it, the recorded
        // scheduling delay (arg0) was spent runnable in a pool.
        path->push_back({ult, e.ts, seg_end, "run"});
        if (e.arg0 != 0) {
          path->push_back(
              {ult, e.ts - static_cast<std::int64_t>(e.arg0), e.ts,
               "runnable-wait"});
          seg_end = e.ts - static_cast<std::int64_t>(e.arg0);
        } else {
          seg_end = e.ts;
        }
        break;
      case EventType::kUltYield:
      case EventType::kPreemptSignalYield:
      case EventType::kPreemptKltSwitch:
        // Re-ready on the same ULT: the gap up to the next dispatch is the
        // runnable-wait the dispatch's arg0 already covered; just move on.
        seg_end = e.ts;
        break;
      case EventType::kUltWake: {
        const std::uint64_t kind = e.arg1;
        if (kind == lpt::trace::kWakeArgSpawn) {  // birth of this ULT
          if (e.arg0 != 0) {
            *hop_ts = e.ts;
            return e.arg0;  // continue into the spawning ULT
          }
          return 0;  // spawned by an external thread: chain ends
        }
        // The blocked episode [ult_block, wake]; find the matching block.
        std::int64_t block_ts = e.ts;
        for (std::size_t j = i; j > 0; --j) {
          if (evs[j - 1].type == EventType::kUltBlock) {
            block_ts = evs[j - 1].ts;
            break;
          }
          if (evs[j - 1].type == EventType::kUltDispatch) break;  // malformed
        }
        path->push_back(
            {ult, block_ts, e.ts,
             kind == static_cast<std::uint64_t>(lpt::prof::WaitKind::kSyscall)
                 ? std::string("in-syscall")
                 : "blocked-on-" + std::string(wait_kind_name(kind))});
        if (e.arg0 != 0) {
          *hop_ts = e.ts;
          return e.arg0;  // hop to the waker: it is the cause from here back
        }
        seg_end = block_ts;
        break;
      }
      default:
        break;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* file = nullptr;
  std::uint64_t target = 0;
  int max_hops = 256;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ult") == 0 && i + 1 < argc)
      target = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--max-hops") == 0 && i + 1 < argc)
      max_hops = std::atoi(argv[++i]);
    else
      file = argv[i];
  }
  if (file == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <events-jsonl> [--ult N] [--max-hops N]\n",
                 argv[0]);
    return 2;
  }
  const std::string text = lpt::telemetry::slurp(file);
  if (text.empty()) {
    std::fprintf(stderr, "trace_critical_path: cannot read %s\n", file);
    return 2;
  }
  const lpt::telemetry::Events log = lpt::telemetry::read_events(text);
  for (const std::string& err : log.errors)
    std::fprintf(stderr, "trace_critical_path: %s: %s\n", file, err.c_str());
  if (!log.ok()) return 1;

  Timelines tl;
  std::map<std::uint64_t, std::int64_t> exits;            // ult -> exit ts
  std::map<std::uint64_t, std::vector<CycleMember>> cycles;  // cycle id -> members
  std::map<std::uint64_t, std::uint64_t> victim_cycle;    // victim ult -> cycle id
  for (const Event& e : log.events) {
    if (e.ult == 0) continue;
    if (e.type == EventType::kDeadlock) {
      CycleMember m;
      m.ult = e.ult;
      m.wait_kind = e.arg1 & ~lpt::trace::kDeadlockVictimFlag;
      m.victim = (e.arg1 & lpt::trace::kDeadlockVictimFlag) != 0;
      cycles[e.arg0].push_back(m);
      if (m.victim) victim_cycle[m.ult] = e.arg0;
      continue;
    }
    if (!is_lifecycle(e.type)) continue;
    tl.per_ult[e.ult].push_back(e);
    if (e.type == EventType::kUltExit || e.type == EventType::kUltCancel)
      exits[e.ult] = e.ts;
  }
  if (tl.per_ult.empty()) {
    std::fprintf(stderr, "trace_critical_path: no lifecycle events in %s\n", file);
    return 1;
  }
  if (target == 0) {
    // Default: the last ULT to exit — the one that bounded the run.
    std::int64_t best = INT64_MIN;
    for (const auto& kv : exits)
      if (kv.second > best) {
        best = kv.second;
        target = kv.first;
      }
    if (target == 0) {
      std::fprintf(stderr, "trace_critical_path: no ult_exit events; pass --ult\n");
      return 1;
    }
  }
  auto ex = exits.find(target);
  if (ex == exits.end()) {
    std::fprintf(stderr, "trace_critical_path: ULT %" PRIu64 " has no ult_exit\n",
                 target);
    return 1;
  }

  // Walk backward from the exit, hopping across wake edges.
  std::vector<Segment> path;  // effect-first; reversed below
  std::uint64_t ult = target;
  std::uint64_t chain_end = target;  // cause-side terminus of the walk
  std::int64_t upto = ex->second;
  int hops = 0;
  while (ult != 0 && hops++ < max_hops) {
    chain_end = ult;
    std::int64_t hop_ts = 0;
    ult = walk_back(tl, ult, upto, &path, &hop_ts);
    upto = hop_ts;
  }

  std::printf("critical path ending at ULT %" PRIu64 " exit (ts %" PRId64
              " ns), cause-first:\n",
              target, ex->second);
  std::printf("%12s %12s %6s  %s\n", "ts_ns", "dur_us", "ult", "segment");
  std::map<std::string, std::int64_t> totals;
  std::int64_t total = 0;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const std::int64_t dur = it->end - it->begin;
    std::printf("%12" PRId64 " %12.1f %6" PRIu64 "  %s\n", it->begin,
                static_cast<double>(dur) / 1e3, it->ult, it->what.c_str());
    totals[it->what] += dur;
    total += dur;
  }
  std::printf("\ntotals over %.1f us of critical path (%d hop%s):\n",
              static_cast<double>(total) / 1e3, hops - 1, hops == 2 ? "" : "s");
  for (const auto& kv : totals)
    std::printf("  %-24s %12.1f us  %5.1f%%\n", kv.first.c_str(),
                static_cast<double>(kv.second) / 1e3,
                total > 0 ? 100.0 * static_cast<double>(kv.second) /
                                static_cast<double>(total)
                          : 0.0);

  // If the cause-side end of the chain is a ULT the watchdog cancelled to
  // break a deadlock, the real root cause is the cycle itself — name every
  // member from the detector's kDeadlock events (docs/robustness.md).
  auto vc = victim_cycle.find(chain_end);
  if (vc != victim_cycle.end()) {
    const std::vector<CycleMember>& members = cycles[vc->second];
    std::printf(
        "\nchain ends at ULT %" PRIu64
        ", cancelled by the watchdog to break deadlock cycle %" PRIu64 ":\n",
        chain_end, vc->second);
    for (const CycleMember& m : members)
      std::printf("  ULT %-6" PRIu64 " blocked-on-%s%s\n", m.ult,
                  wait_kind_name(m.wait_kind), m.victim ? "  [victim]" : "");
  }
  return 0;
}
