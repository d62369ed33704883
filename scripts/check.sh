#!/usr/bin/env bash
# Repo gate: configure + build + tier-1 tests, the tracer's and the metrics
# subsystem's non-context-switching unit tests under ThreadSanitizer, the
# fault-injection and fault-isolation suites under AddressSanitizer, the
# spawn and stack-cache suites with every guard seal refused (the unsealed
# fallback, LPT_FAULT=mseal:every=1) and the stack pool's shard stress test
# under TSan, the self-healing remediation suite via its env knobs (LPT_REMEDIATE) and under
# LPT_FAULT-degraded KLT creation, an end-to-end smoke of the metrics
# publisher (bench run with LPT_METRICS_FILE set, output validated by the
# strict Prometheus parser in tests/tools/prom_check.cpp), an end-to-end
# smoke of the continuous profiler (LPT_PROF=1 run validated and
# metrics-cross-checked by tests/tools/prof_check.cpp), an end-to-end smoke
# of the causal tracer (mixed trace_viz workload with LPT_TRACE_EVENTS_FILE
# set, the event log cross-checked against the same run's metrics by
# tests/tools/trace_check.cpp), the blocking-syscall resilience suite
# (normal, plus its non-context-switching guard/detect halves under TSan),
# a short run of the self-healing soak (scripts/soak.sh), and a build and
# one-second traced run of the benchmark in perfbench/.
#
#   scripts/check.sh [build-dir]        (default: build)
#
# TSan scope: the runtime switches between fiber stacks with custom assembly,
# which TSan's happens-before machinery does not understand — full-suite TSan
# produces false positives on every context switch. The tracer's lock-free
# data structures (ring, histograms, exporter) never context-switch, so
# test_trace_unit runs TSan-clean and guards the tracer's concurrency logic.
#
# ASan scope: the fault-injection tests (docs/robustness.md) exercise every
# degraded resource path — pthread_create storms, timer_create fallback, mmap
# spawn refusal, shutdown of a degraded runtime. ASan catches the classic
# degradation bugs (double-free of a shed stack, use-after-free of an
# abandoned KLT request) that a plain run would miss. The fault-isolation
# suite also runs under ASan: SEGV-containment tests GTEST_SKIP themselves
# (ASan owns the SIGSEGV handler; fault::available() is false in sanitizer
# builds), while the exception firewall, join/compat plumbing, stack-pool
# quarantine, and the fault-storm watchdog still run fully instrumented.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Configure build dir $1 (extra cmake arguments follow). Ninja is asked for
# only when the dir is new: cmake refuses to switch the generator of an
# existing dir, e.g. one configured with Makefiles by a plain `cmake -B`.
configure() {
  local dir="$1"
  shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -S . -B "$dir" "$@" >/dev/null
  else
    cmake -S . -B "$dir" -G Ninja "$@" >/dev/null
  fi
}

echo "== [1/15] normal build =="
configure "$BUILD"
cmake --build "$BUILD" -j "$JOBS"

echo "== [2/15] tier-1 tests =="
ctest --test-dir "$BUILD" -L tier1 --output-on-failure

echo "== [3/15] tracer unit tests under TSan =="
configure "$BUILD-tsan" -DLPT_SANITIZE=thread
cmake --build "$BUILD-tsan" -j "$JOBS" --target test_trace_unit
"$BUILD-tsan/tests/test_trace_unit"

echo "== [4/15] metrics + watchdog + profiler unit tests under TSan =="
cmake --build "$BUILD-tsan" -j "$JOBS" --target test_metrics_unit test_prof_unit
"$BUILD-tsan/tests/test_metrics_unit"
# Profiler primitives (sample ring, wait-site CAS table, lock slab) never
# context-switch, so they run TSan-clean like the tracer's structures.
"$BUILD-tsan/tests/test_prof_unit"

echo "== [5/15] fault-injection tests under ASan =="
configure "$BUILD-asan" -DLPT_SANITIZE=address
cmake --build "$BUILD-asan" -j "$JOBS" --target test_sys test_fault
"$BUILD-asan/tests/test_sys"
"$BUILD-asan/tests/test_fault"

echo "== [6/15] fault-isolation tests (normal + ASan self-skip) =="
"$BUILD/tests/test_fault_isolation"
cmake --build "$BUILD-asan" -j "$JOBS" --target test_fault_isolation
"$BUILD-asan/tests/test_fault_isolation"

echo "== [7/15] stack pool: unsealed fallback + TSan shard stress =="
# Where the kernel refuses mseal(2), each stack keeps an ordinary PROT_NONE
# guard that every reuse re-asserts with mprotect (docs/robustness.md, fault
# isolation). Refusing every seal runs the spawn/reuse/trim paths that way;
# the tests that need sealed guards skip themselves. The pool's per-worker
# shards never switch context, so their stress test runs under TSan.
LPT_FAULT='mseal:every=1' "$BUILD/tests/test_runtime_basic"
LPT_FAULT='mseal:every=1' "$BUILD/tests/test_wake_path"
cmake --build "$BUILD-tsan" -j "$JOBS" --target test_context
"$BUILD-tsan/tests/test_context" --gtest_filter='StackPool.*'

echo "== [8/15] self-healing: remediation suite (LPT_REMEDIATE=1 + degraded) =="
# Env-path acceptance (docs/robustness.md, "Self-healing"): the wedged-worker
# and runaway workloads recover with remediation enabled via the environment.
# The off-by-default test is the one run that must NOT see the flag, so it is
# filtered out here (stage 2 already ran it clean).
LPT_REMEDIATE=1 "$BUILD/tests/test_remediation" \
  --gtest_filter='-Remediation.OffByDefaultOnlyFlags'
# Degraded self-healing: with spare-KLT creation failing after startup, the
# signal-yield directed-cancel and deadline rungs still heal (they need no
# fresh KLT); klt_replace fails soft and retries. One test per process:
# LPT_FAULT counting is arm-relative and cumulative within a process, and
# startup worker KLTs are mandatory — after=8 covers one runtime's startup,
# not a whole suite's.
LPT_FAULT='pthread_create:after=8,every=2' "$BUILD/tests/test_remediation" \
  --gtest_filter='Cancel.DirectedTickKillsSpinnerSignalYield'
LPT_FAULT='pthread_create:after=8,every=2' "$BUILD/tests/test_remediation" \
  --gtest_filter='Deadline.PerSpawnDeadlineCancelsRunaway'

echo "== [9/15] blocking-syscall resilience (normal + TSan guard/detect) =="
# Full suite normal (io::call retry/deadline semantics, the wedge sentinel's
# detection rung, compensation + reabsorption accounting under both
# preemption techniques). The IoCall.* and SyscallDetect.* suites never
# context-switch, so they also run under TSan to guard the epoch-word and
# rendezvous atomics (the Comp/Storm suites switch fibers — out of TSan
# scope, same reason as the full-suite exclusion above).
"$BUILD/tests/test_syscall_resilience"
cmake --build "$BUILD-tsan" -j "$JOBS" --target test_syscall_resilience
"$BUILD-tsan/tests/test_syscall_resilience" \
  --gtest_filter='IoCall.*:SyscallDetect.*'

echo "== [10/15] deadlock detection & recovery (normal + TSan park/wake unit tests) =="
# Full suite normal: self-deadlock at lock(), cycle detection/breaking under
# both preemption techniques, abandoned-lock tracking, healthy-soak zero
# false positives, no capacity limit on tracked locks or parked waiters, and
# the LPT_DEADLOCK* env-knob validation. The parking registry's per-worker
# lists (link/unlink churn against a scanner that snapshots and settles
# under the list lock, try-locking queues) never context-switch, so
# test_park also runs under TSan.
# So does the idle workers' EventCount: its lost-wakeup test uses plain
# std::threads and an untimed wait, so a lost wake hangs instead of passing.
"$BUILD/tests/test_deadlock"
cmake --build "$BUILD-tsan" -j "$JOBS" --target test_park test_common
"$BUILD-tsan/tests/test_park"
"$BUILD-tsan/tests/test_common" --gtest_filter='EventCount.*'

echo "== [11/15] metrics-publisher smoke (bench + prom_check) =="
cmake --build "$BUILD" -j "$JOBS" --target table1_preemption prom_check
METRICS_OUT="$(mktemp /tmp/lpt_check_metrics.XXXXXX.prom)"
LPT_METRICS_FILE="$METRICS_OUT" LPT_METRICS_PERIOD_MS=200 \
  "$BUILD/bench/table1_preemption" >/dev/null
"$BUILD/tests/prom_check" "$METRICS_OUT"
rm -f "$METRICS_OUT"

echo "== [12/15] continuous-profiling smoke (fig7 real section + prof_check) =="
# End-to-end LPT_PROF path: env config -> piggyback sampler + off-CPU/lock
# collectors -> shutdown export, validated by the strict folded parser and
# cross-checked against the same run's published metrics counters.
cmake --build "$BUILD" -j "$JOBS" --target fig7_cholesky prof_check
PROF_OUT="$(mktemp /tmp/lpt_check_prof.XXXXXX.folded)"
PROF_METRICS="$(mktemp /tmp/lpt_check_prof.XXXXXX.prom)"
LPT_PROF=1 LPT_PROF_FILE="$PROF_OUT" LPT_METRICS_FILE="$PROF_METRICS" \
  "$BUILD/bench/fig7_cholesky" >/dev/null
"$BUILD/tests/prof_check" "$PROF_OUT" "$PROF_METRICS"
rm -f "$PROF_OUT" "$PROF_METRICS"

echo "== [13/15] causal-trace smoke (trace_viz mixed workload + trace_check) =="
# End-to-end causal-observability path: env config -> wake-edge tracing +
# per-ULT accounting -> JSONL event log + Prometheus histograms, with the
# validator proving every dispatch resolves to a ready stamp, every wake edge
# names a real waker, and the summed delays reconcile exactly with the
# lpt_sched_delay_ns / lpt_spawn_latency_ns families. The ring is sized so
# nothing drops (exact reconciliation requires a complete log).
cmake --build "$BUILD" -j "$JOBS" --target trace_viz trace_check trace_critical_path
TRACE_EVENTS="$(mktemp /tmp/lpt_check_trace.XXXXXX.jsonl)"
TRACE_METRICS="$(mktemp /tmp/lpt_check_trace.XXXXXX.prom)"
TRACE_JSON="$(mktemp /tmp/lpt_check_trace.XXXXXX.json)"
LPT_TRACE_EVENTS_FILE="$TRACE_EVENTS" LPT_TRACE_RING_CAP=$((1<<18)) \
  LPT_METRICS_FILE="$TRACE_METRICS" \
  "$BUILD/examples/trace_viz" "$TRACE_JSON" >/dev/null
"$BUILD/tests/trace_check" "$TRACE_EVENTS" "$TRACE_METRICS"
# The analyzer must walk the same log without complaint.
"$BUILD/tools/trace_critical_path" "$TRACE_EVENTS" >/dev/null
rm -f "$TRACE_EVENTS" "$TRACE_METRICS" "$TRACE_JSON"

echo "== [14/15] self-healing soak (scripts/soak.sh, short) =="
SOAK_SECONDS=5 scripts/soak.sh "$BUILD"

echo "== [15/15] benchmark smoke (perfbench/run.py, traced sync_mix) =="
# perfbench/ builds the runtime from src/ itself and uses the runtime API on
# its own (the cost ladder's lone_spinner, the harness's snapshots), so an
# API change can break it while every stage above passes. The last line of
# output must be the result object with its output checks passed.
BENCH_OUT="$(python3 perfbench/run.py --workload sync_mix --seed 1 --seconds 1 --trace 1)"
printf '%s\n' "$BENCH_OUT" | tail -n 1 | python3 -c \
  'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r.get("correct") is True else 1)'

echo "== all checks passed =="
