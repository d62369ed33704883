#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the runtime from ../src and the
perfbench binary in Release into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and passes its output through.
The last line of standard output is the binary's JSON result; the line
before it stamps the result with its context (source revision, nproc,
compiler, build type, seed). Exits nonzero when the build fails, the run
fails, or an output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cholesky_yield", "forkjoin_tiny", "sync_mix", "insitu_latency")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_revision():
    """git revision when the checkout is a repository, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("runtime sources (src/CMakeLists.txt) not found next to perfbench/")
        return None
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        try:
            subprocess.run(["ninja", "--version"], capture_output=True, check=True)
            cmd += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (cmd, ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]):
        r = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    cache = open(os.path.join(build_dir, "CMakeCache.txt")).read()
    build_type = ""
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        log(f"WARNING: non-Release build ({build_type or 'none'}); figures are not comparable")
    return os.path.join(build_dir, "perfbench"), build_type


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    built = build(build_dir)
    if built is None:
        return 2
    binary, build_type = built
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    # LPT_* variables would override the runtime options the workloads set
    # (tracer, profiler, stack size, ...), so the binary runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LPT_")}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                           env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    lines = r.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or r.returncode not in (0, 1):
        sys.stdout.write(r.stdout)
        log(f"perfbench exited with {r.returncode} without a result")
        return 3
    stamp = {"revision": source_revision(), "nproc": os.cpu_count(), "build_type": build_type,
             "seed": args.seed, "workload": args.workload, "trace": args.trace}
    print("\n".join(lines[:-1]))
    print("stamp: " + json.dumps(stamp))
    print(lines[-1], flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
