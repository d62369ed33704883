// Self-healing soak driver (scripts/soak.sh): a sustained mixed workload —
// cooperative cancels, directed-tick cancels under both preemption
// techniques, per-spawn deadlines, timed waits, a KLT-switching fork/join
// tree with a subtree cancelled mid-run (join handoffs meeting ticks, bound
// KLTs and cancellation), and blocking-pipe readers
// that wedge their worker past the syscall grace (driving the wedge
// sentinel's compensate/reabsorb cycle every batch) — with the remediation
// ladder on, followed by leak checks no unit test can make: after Runtime
// destruction the process is back to its baseline kernel-thread count (no
// orphaned/pooled/compensating KLT survives shutdown), the compensation
// books reconcile exactly, the process's mapping count stays bounded (sealed
// stack guards can never be unmapped, so dropped ones must be parked and
// reused, not left behind) across the batches and across a series of fresh
// Runtimes built afterwards, each of which starts healthy and completes
// work. Exit 0 on success; a batch that breaks a contract exits 1 at once,
// naming the batch and the contract.
//
//   soak [seconds]   (default 60)
#include <dirent.h>
#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/sys.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace {

using namespace lpt;

int fail(const char* msg) {
  std::fprintf(stderr, "soak: FAIL: %s\n", msg);
  return 1;
}

/// A batch that breaks a contract leaves ULTs wedged (an unbroken cycle, a
/// blocked pipe reader), and unwinding through ~Thread would join them
/// forever. Report the batch and leave the process at once instead.
[[noreturn]] void batch_fail(std::uint64_t round, const char* what) {
  std::fprintf(stderr, "soak: FAIL: batch %llu: %s\n",
               static_cast<unsigned long long>(round), what);
  std::_Exit(1);
}

/// Kernel threads in this process right now (/proc/self/task entries).
int task_count() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(d))
    if (e->d_name[0] != '.') ++n;
  closedir(d);
  return n;
}

/// Mappings (VMAs) of this process right now — /proc/self/maps lines — not
/// counting kernel-thread stacks (an rw mapping of the default pthread stack
/// size, plus its guard page). Those are not ULT stacks, and the stacks of
/// KLTs retired during the soak stay mapped until the runtime's shutdown
/// joins them (ROADMAP).
int maps_lines() {
  std::size_t thread_stack = 0;
  pthread_attr_t attr;
  if (pthread_getattr_default_np(&attr) == 0) {
    pthread_attr_getstacksize(&attr, &thread_stack);
    pthread_attr_destroy(&attr);
  }
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return -1;
  int n = 0, thread_stacks = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++n;
    unsigned long lo = 0, hi = 0;
    char perms[8] = {};
    if (std::sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3 &&
        perms[0] == 'r' && perms[1] == 'w' && hi - lo == thread_stack)
      ++thread_stacks;
  }
  std::fclose(f);
  return n - 2 * thread_stacks;
}

/// Allowed growth of maps_lines() over its value after the first batch (or
/// the first fresh runtime): malloc arenas and cached ULT stacks settle
/// within it, while leaked guard pages would grow without end. Both are
/// bounded by one batch's peak, not by the run's length or the host's core
/// count: the runtime has 4 workers whatever the host, the stack pool holds
/// at most the ULTs that were live at once, and glibc makes a new arena only
/// when every existing one is attached to a live kernel thread, so arenas
/// stay below the KLTs live at once (each is a mapped part and a reserved
/// part). The soak prints the running peak every kMapsReportSeconds.
constexpr int kMapsSlack = 64;
constexpr long kMapsReportSeconds = 30;
/// Runtimes built and destroyed after the soak.
constexpr int kFreshRuntimes = 20;

/// Shared state of one batch's fork/join tree. `live` counts the ULTs
/// ks_fib spawned, from spawn to the end of their function. The cancelled
/// root is left out: a cancel can land after its last statement, so its
/// status cannot tell whether it ran one.
struct TreeState {
  std::atomic<int> live{0};
  std::atomic<bool> doomed_started{false};
};

/// fib(n) as a fork/join tree of KLT-switching ULTs: each join takes its
/// unstarted child and the child's exit hands the worker back (DESIGN.md,
/// "Join handoff"), while ticks preempt nodes onto bound KLTs. A child writes
/// its result to the heap, never to its parent's frame: a cancelled parent's
/// stack is abandoned and recycled while its children still run. Every
/// malloc and free of a node that may be cancelled runs under a
/// NoPreemptGuard: a directed-tick cancel inside one would abandon the
/// malloc arena lock (docs/robustness.md, "Cancellation").
long ks_fib(Runtime& rt, int n, const std::shared_ptr<TreeState>& st) {
  busy_spin_ns(50'000);  // long enough for ticks to land mid-tree
  if (n < 2) return n;
  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  std::shared_ptr<long> a;
  Thread t;
  {
    // Allocated, counted and spawned as one step.
    NoPreemptGuard g;
    a = std::make_shared<long>(0);
    st->live.fetch_add(1);
    t = rt.spawn(
        [&rt, a, st, n] {
          *a = ks_fib(rt, n - 1, st);
          st->live.fetch_sub(1);
        },
        ks);
  }
  const long b = ks_fib(rt, n - 2, st);
  t.join();
  NoPreemptGuard g;
  const long r = *a + b;
  a.reset();  // may free
  return r;
}

/// The batch's tree: a fib(7) subtree cancelled soon after it starts,
/// beside fib(6) joined in full. The cancelled node's outstanding children
/// finish unjoined (their handles died with its stack, like any cancelled
/// ULT's locals); the tree waits for them so no ULT outlives the batch.
/// Returns nullptr on success, else the broken contract.
const char* cancelled_tree(Runtime& rt) {
  auto st = std::make_shared<TreeState>();
  ThreadAttrs ks;
  ks.preempt = Preempt::KltSwitch;
  Thread doomed = rt.spawn(
      [&rt, st] {
        st->doomed_started.store(true, std::memory_order_release);
        (void)ks_fib(rt, 7, st);
      },
      ks);
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (!st->doomed_started.load(std::memory_order_acquire) &&
         now_ns() < deadline)
    this_thread::yield();
  busy_spin_ns(300'000);
  doomed.request_cancel();
  const long v = ks_fib(rt, 6, st);
  const ThreadStatus ds = doomed.join_status();
  while (st->live.load() != 0 && now_ns() < deadline) this_thread::yield();
  if (v != 8) return "fork/join tree computed a wrong fib(6)";
  if (ds.fault.kind != FaultKind::kCancelled &&
      ds.fault.kind != FaultKind::kNone)
    return "cancelled subtree failed with an unexpected fault";
  if (st->live.load() != 0)
    return "a cancelled subtree's children did not finish within 30 s";
  return nullptr;
}

/// One batch of mixed work; exits the process on any contract violation.
void run_batch(Runtime& rt, std::uint64_t round) {
  std::vector<Thread> joiners;

  // A KLT-switching fork/join tree with a subtree cancelled mid-run.
  ThreadAttrs tree_attrs;
  tree_attrs.preempt = Preempt::KltSwitch;
  std::atomic<const char*> tree_error{nullptr};
  Thread tree = rt.spawn(
      [&] { tree_error.store(cancelled_tree(rt)); }, tree_attrs);

  // Plain compute under both techniques — must finish untouched.
  for (Preempt p : {Preempt::SignalYield, Preempt::KltSwitch}) {
    ThreadAttrs a;
    a.preempt = p;
    joiners.push_back(rt.spawn([] { busy_spin_ns(200'000); }, a));
  }

  // A runaway with a tight deadline: the runtime must cancel it.
  ThreadAttrs dl;
  dl.preempt = round % 2 == 0 ? Preempt::SignalYield : Preempt::KltSwitch;
  dl.deadline_ns = 10'000'000;  // 10 ms
  Thread runaway = rt.spawn([] { for (;;) busy_spin_ns(100'000); }, dl);

  // A spinner cancelled by hand mid-flight.
  ThreadAttrs sy;
  sy.preempt = Preempt::SignalYield;
  std::atomic<bool> spinning{false};
  Thread victim = rt.spawn(
      [&] {
        spinning.store(true, std::memory_order_release);
        for (;;) busy_spin_ns(100'000);
      },
      sy);
  while (!spinning.load(std::memory_order_acquire)) busy_spin_ns(10'000);
  victim.request_cancel();

  // A blocking-pipe reader: wedges its worker inside io::read until the
  // batch's tail writes the byte. The wedge outlives syscall_grace_ns, so
  // the sentinel compensates (spare KLT keeps the worker dispatching) and
  // the reader's host reabsorbs on return — every batch is one full
  // activate/reabsorb cycle under live mixed load.
  int pipefd[2];
  if (sys::pipe2(pipefd, 0) != 0) batch_fail(round, "pipe2 failed");
  std::atomic<bool> pipe_ok{false};
  Thread reader = rt.spawn([&] {
    char c = 0;
    if (io::read(pipefd[0], &c, 1) == 1 && c == 'u')
      pipe_ok.store(true, std::memory_order_release);
  });

  // A nonblocking reader bounded by a deadline: exercises the EAGAIN
  // backoff loop ending in ETIMEDOUT (nothing is ever written to this end).
  int nbfd[2];
  if (sys::pipe2(nbfd, O_NONBLOCK) != 0) batch_fail(round, "pipe2 failed");
  std::atomic<bool> timed_ok{false};
  Thread timed_reader = rt.spawn([&] {
    char c = 0;
    // io::last_error(), not errno: the backoff sleeps inside io::read can
    // migrate this ULT to another kernel thread, and errno is per-KLT.
    if (io::read(nbfd[0], &c, 1, /*deadline_ns=*/5'000'000) == -1 &&
        io::last_error() == ETIMEDOUT)
      timed_ok.store(true, std::memory_order_release);
  });

  // Deadlock injection: a deliberate two-ULT mutex cycle the watchdog's
  // detector must flag and break. Fresh heap locks every round (they must
  // outlive the cancelled victim); abandon_release (set in main) force-frees
  // the victim's abandoned lock so the survivor always completes the batch.
  auto dm1 = std::make_shared<Mutex>();
  auto dm2 = std::make_shared<Mutex>();
  std::atomic<bool> da_holds{false}, db_holds{false};
  // The handshake spins are bounded: if the partner dies before setting its
  // flag (any unrelated remediation rung could cancel it), the survivor backs
  // out and finishes instead of spinning forever under ~Thread's join.
  const std::int64_t spin_deadline = now_ns() + 20'000'000'000LL;
  Thread da = rt.spawn([&, dm1, dm2] {
    dm1->lock();
    da_holds.store(true, std::memory_order_release);
    while (!db_holds.load(std::memory_order_acquire)) {
      if (now_ns() > spin_deadline) {
        dm1->unlock();
        return;
      }
      this_thread::yield();
    }
    dm2->lock();  // closes the cycle; one of the two dies here
    dm2->unlock();
    dm1->unlock();
  });
  Thread db = rt.spawn([&, dm1, dm2] {
    dm2->lock();
    db_holds.store(true, std::memory_order_release);
    while (!da_holds.load(std::memory_order_acquire)) {
      if (now_ns() > spin_deadline) {
        dm2->unlock();
        return;
      }
      this_thread::yield();
    }
    dm1->lock();
    dm1->unlock();
    dm2->unlock();
  });

  // Every fourth round, a self-deadlock: caught synchronously at lock(),
  // counted in the same identity the tail reconciles.
  const bool inject_self = round % 4 == 0;
  Thread selfdl;
  if (inject_self) {
    auto sm = std::make_shared<Mutex>();
    selfdl = rt.spawn([sm] {
      sm->lock();
      sm->lock();  // never returns: terminated as its own 1-cycle
    });
  }

  // Timed waits: a sleeper, and a pair racing a mutex with try_lock_for.
  joiners.push_back(
      rt.spawn([] { this_thread::sleep_for(std::chrono::milliseconds(2)); }));
  auto mu = std::make_shared<Mutex>();
  for (int i = 0; i < 2; ++i) {
    joiners.push_back(rt.spawn([mu] {
      if (mu->try_lock_for(std::chrono::milliseconds(50))) {
        busy_spin_ns(100'000);
        mu->unlock();
      }
    }));
  }

  for (Thread& t : joiners) {
    if (!t.join_for(std::chrono::seconds(30)))
      batch_fail(round, "a plain ULT did not finish within 30 s");
  }
  if (!tree.join_for(std::chrono::seconds(30)))
    batch_fail(round, "the fork/join tree did not finish within 30 s");
  if (const char* err = tree_error.load()) batch_fail(round, err);
  if (runaway.join_status().fault.kind != FaultKind::kCancelled)
    batch_fail(round, "deadline runaway not cancelled");
  if (victim.join_status().fault.kind != FaultKind::kCancelled)
    batch_fail(round, "hand-cancelled spinner not cancelled");

  // The injected cycle must have been broken, with a deterministic victim:
  // the breaker cancels the youngest cycle member, and db was spawned after
  // da. da's completion is the bounded proof — it holds dm1 and can only
  // acquire dm2 once db died and abandon_release freed it, so neither ULT
  // can finish while the cycle stands. (join_for consumes the handle on
  // success, so the survivor's clean exit is implied by join_for returning
  // true at all: a faulted da would still join, but then db's verdict below
  // would read kNone and fail the round.)
  if (!da.join_for(std::chrono::seconds(30)))
    batch_fail(round, "injected deadlock cycle not broken within 30 s");
  // db is already dead by the time da finished; this returns immediately.
  if (db.join_status().fault.kind != FaultKind::kDeadlock)
    batch_fail(round, "cycle victim is not the youngest member");
  if (inject_self) {
    // Caught synchronously at the recursive lock() — no watchdog cadence
    // involved, so an unbounded join_status is effectively immediate.
    if (selfdl.join_status().fault.kind != FaultKind::kDeadlock)
      batch_fail(round, "self-deadlock not caught at lock()");
  }

  // Unwedge the pipe reader (the joins above kept it blocked well past the
  // grace period) and settle both io threads.
  if (::write(pipefd[1], "u", 1) != 1) batch_fail(round, "unwedge write failed");
  if (!reader.join_for(std::chrono::seconds(30)) ||
      !timed_reader.join_for(std::chrono::seconds(30)))
    batch_fail(round, "an io reader did not finish within 30 s");
  ::close(pipefd[0]);
  ::close(pipefd[1]);
  ::close(nbfd[0]);
  ::close(nbfd[1]);
  if (!pipe_ok.load(std::memory_order_acquire))
    batch_fail(round, "blocking pipe reader lost its byte");
  if (!timed_ok.load(std::memory_order_acquire))
    batch_fail(round, "deadline-bounded read did not time out");
}

}  // namespace

int main(int argc, char** argv) {
  const long seconds = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 60;
  const int baseline = task_count();

  std::uint64_t rounds = 0;
  {
    RuntimeOptions o;
    o.num_workers = 4;
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = 2'000;
    o.watchdog_period_ms = 20;
    o.remediation = true;
    // Short grace so every batch's pipe reader outlives it and the wedge
    // sentinel gets continuous compensate/reabsorb exercise.
    o.syscall_grace_ns = 10'000'000;
    // Every batch injects a mutex cycle; force-release of the victim's
    // abandoned lock is what lets the surviving ULT finish the batch.
    o.abandon_release = true;
    // Disable the worker-stall rung: under this lock-churn load it false
    // positives and its klt_replace cancels an innocent batch ULT, breaking
    // the exact fault-kind contracts below. The stall ladder has dedicated
    // coverage in the remediation suite; this soak audits the deadlock
    // detector, the wedge sentinel, and shutdown hygiene.
    o.watchdog_stall_ticks = 1'000'000;
    Runtime rt(o);

    const std::int64_t start = now_ns();
    const std::int64_t end = start + seconds * 1'000'000'000LL;
    int maps_first = -1, maps_max = 0;
    long next_report = kMapsReportSeconds;
    while (now_ns() < end) {
      run_batch(rt, rounds);
      ++rounds;
      const int maps = maps_lines();
      if (maps_first < 0) maps_first = maps;
      maps_max = std::max(maps_max, maps);
      if (maps > maps_first + kMapsSlack)
        batch_fail(rounds - 1, "mapping count keeps growing (guard leak?)");
      if (now_ns() - start >= next_report * 1'000'000'000LL) {
        std::printf("soak: maps lines after %lds: max %d (+%d)\n",
                    next_report, maps_max, maps_max - maps_first);
        std::fflush(stdout);
        next_report += kMapsReportSeconds;
      }
    }
    std::printf("soak: maps lines: %d after the first batch, max %d\n",
                maps_first, maps_max);

    // The breaker's accounting lands on the watchdog thread after the victim
    // is already joinable, so the final round's break/cycle counters can lag
    // the join by a beat — give the watchdog a few periods to settle before
    // auditing them.
    usleep(200'000);

    const metrics::Snapshot s = rt.metrics_snapshot();
    std::printf(
        "soak: %llu rounds in %lds: ult_cancels=%llu retick=%llu "
        "cancel=%llu klt_replace=%llu klts_retired=%llu "
        "stacks_quarantined=%llu syscall_blocks=%llu "
        "comp=%llu/%llu/%llu (activated/reabsorbed/saturated)\n",
        static_cast<unsigned long long>(rounds), seconds,
        static_cast<unsigned long long>(s.ult_cancels),
        static_cast<unsigned long long>(s.remediations_retick),
        static_cast<unsigned long long>(s.remediations_cancel),
        static_cast<unsigned long long>(s.remediations_klt_replace),
        static_cast<unsigned long long>(s.klts_retired),
        static_cast<unsigned long long>(s.stacks_quarantined),
        static_cast<unsigned long long>(s.syscall_blocks),
        static_cast<unsigned long long>(s.syscall_comp_activated),
        static_cast<unsigned long long>(s.syscall_comp_reabsorbed),
        static_cast<unsigned long long>(s.syscall_comp_saturated));
    std::printf(
        "soak: deadlock: cycles=%llu breaks=%llu self=%llu "
        "abandoned=%llu released=%llu\n",
        static_cast<unsigned long long>(s.deadlock_cycles),
        static_cast<unsigned long long>(s.remediations_deadlock_break),
        static_cast<unsigned long long>(s.self_deadlocks),
        static_cast<unsigned long long>(s.abandoned_locks),
        static_cast<unsigned long long>(s.abandoned_released));
    if (s.ult_cancels < 2 * rounds) return fail("cancels did not keep up");
    if (s.remediations_cancel < rounds) return fail("deadline rung never ran");
    // Every batch blocked in at least two annotated syscalls; after all
    // joins the compensation books must reconcile exactly (a KLT activated
    // but never reabsorbed would be a leaked kernel thread).
    if (s.syscall_blocks < 2 * rounds) return fail("io guards never engaged");
    if (s.syscall_comp_activated !=
        s.syscall_comp_reabsorbed + s.syscall_comp_saturated)
      return fail("compensation books do not reconcile");
    if (s.syscall_comp_activated == 0)
      return fail("wedge sentinel never compensated a blocked reader");
    // Deadlock accounting (docs/robustness.md): every injected cycle was
    // broken (the batch already proved exactly one victim each), every
    // injected self-deadlock was caught, and the detector identity holds —
    // each flagged cycle is explained by exactly one break or one
    // synchronous self-deadlock, with no unexplained extras.
    if (s.remediations_deadlock_break < rounds)
      return fail("deadlock breaker missed an injected cycle");
    if (s.self_deadlocks < (rounds + 3) / 4)
      return fail("self-deadlock check missed an injected relock");
    if (s.deadlock_cycles != s.remediations_deadlock_break + s.self_deadlocks)
      return fail("deadlock cycles do not reconcile with breaks + selfs");
    // Every victim died holding a lock, and abandon_release freed each one.
    if (s.abandoned_locks < s.remediations_deadlock_break)
      return fail("cycle victims' abandoned locks went untracked");
    if (s.abandoned_released != s.abandoned_locks)
      return fail("abandon_release left a tracked lock wedged");
  }  // Runtime destructor: the clean-shutdown half of the check.

  // Every KLT — workers, pool spares, retired orphans, compensating hosts,
  // helper threads — must be gone: the kernel-thread count returns to the
  // pre-runtime baseline. Give exiting threads a moment to be reaped.
  for (int i = 0; i < 100 && task_count() > baseline; ++i) usleep(10'000);
  if (task_count() > baseline) return fail("kernel threads leaked shutdown");

  // Fresh runtimes in the same process start healthy, and building and
  // destroying them leaves no mappings behind: each one's dropped stacks
  // park their sealed guards for the next one's stacks.
  int maps_first = -1, maps_max = 0;
  for (int r = 0; r < kFreshRuntimes; ++r) {
    {
      Runtime rt{RuntimeOptions{}};
      std::atomic<int> n{0};
      std::vector<Thread> ts;
      for (int i = 0; i < 32; ++i)
        ts.push_back(
            rt.spawn([&] { n.fetch_add(1, std::memory_order_relaxed); }));
      for (Thread& t : ts) t.join();
      if (n.load() != 32) return fail("post-soak runtime lost work");
    }
    const int maps = maps_lines();
    if (maps_first < 0) maps_first = maps;
    maps_max = std::max(maps_max, maps);
  }
  std::printf("soak: maps lines over %d fresh runtimes: first %d, max %d\n",
              kFreshRuntimes, maps_first, maps_max);
  if (maps_max > maps_first + kMapsSlack)
    return fail("fresh runtimes leave mappings behind");

  std::printf("soak: PASS\n");
  return 0;
}
