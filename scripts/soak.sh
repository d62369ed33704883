#!/usr/bin/env bash
# Self-healing soak (docs/robustness.md, "Self-healing" and
# "Blocking-syscall resilience"): run the mixed cancel/deadline/timed-wait/
# blocking-pipe-reader workload in tests/tools/soak.cpp for SOAK_SECONDS
# (default 60) with the remediation ladder on and a short syscall grace, so
# every batch drives a full wedge-sentinel compensate/reabsorb cycle. Then
# verify the things only a long, whole-process run can: the compensation
# books reconcile exactly (activated == reabsorbed + saturated), shutdown of
# a runtime that has been cancelling, replacing, and compensating KLTs for a
# minute is clean (kernel-thread count returns to baseline — no leaked
# workers, pool spares, orphaned or compensating KLTs), and a fresh runtime
# in the same process still works.
#
#   scripts/soak.sh [build-dir]        (default: build)
#   SOAK_SECONDS=5 scripts/soak.sh     (short run, used by check.sh stage 14)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SECONDS_TO_RUN="${SOAK_SECONDS:-60}"

cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 2)" --target soak
# A broken batch exits at once with its reason; the timeout is the backstop
# for a hang no batch check bounds (each bounded wait in a batch is <= 30 s).
LIMIT=$((SECONDS_TO_RUN + 180))
status=0
timeout --kill-after=10 "$LIMIT" "$BUILD/tests/soak" "$SECONDS_TO_RUN" || status=$?
if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
  echo "soak: FAIL: no result after ${LIMIT}s (a batch hung)" >&2
fi
exit "$status"
