#!/usr/bin/env python3
"""Builds the repo benchmark and runs one workload.

Run from the root of the source tree:

    python3 perfbench/run.py --workload serve_hot_prefix --seed 1 \
        --seconds 40 --trace 0

It builds perfbench/ (which pulls in the repo's own CMake build) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the perfbench
binary, and prints the binary's report followed, on the last line, by one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end metrics; with --trace 1 they
are its per_layer metrics. The exit code is 0 when every check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within this many seconds of the build finishing.
RUN_LIMIT_S = 170.0
# The traced run's pool-width probe: seconds handed to `--mode=pool`.
POOL_PROBE_SECONDS = 3
# Thread-pool width of the measured runs. At the program's default width
# (one worker per hardware thread) integration and serving wait on every
# ParallelFor's slowest worker, and on a shared 4-core host integration
# read 32 to 94 examples/s in back-to-back runs; at width 1 successive
# calls within a run agree within a few percent. The default width is
# measured against width 1 by the traced run's pool probe (util.*).
MEASURED_POOL_WIDTH = 1


def bench_env(pool_width=None):
    """The binary's environment. The thread pool gets `pool_width`
    workers, or the program's default width (one per hardware thread) when
    it is None; a width inherited from the caller's shell is dropped, so
    the same command always measures the same pool."""
    env = dict(os.environ)
    env.pop("INFUSERKI_NUM_THREADS", None)
    if pool_width is not None:
        env["INFUSERKI_NUM_THREADS"] = str(pool_width)
    return env


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build_binary():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        log(f"perfbench: {ROOT} is not an infuserki source tree "
            "(no CMakeLists.txt and src/); nothing to build")
        sys.exit(2)
    build = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            sys.exit(done.returncode or 1)
    return build / "perfbench"


def provenance():
    """Commit and source digest; the checkout may not be a git repo."""
    info = {"git_sha": "none (not a git checkout)", "git_dirty": None}
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"], capture_output=True, text=True)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            info["git_dirty"] = bool(dirty.stdout.strip())
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    return info


def run_binary(binary, args, deadline, env):
    remaining = deadline - time.monotonic()
    if remaining <= 5:
        log("perfbench: no time left for", " ".join(args))
        sys.exit(1)
    done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, cwd=str(ROOT),
                          env=env, timeout=remaining)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {' '.join(args)} exited with {done.returncode}")
        sys.exit(done.returncode or 1)
    return lines[:-1], json.loads(lines[-1])


def pool_metrics(binary, workload, seed, deadline):
    """Serving, detection and integration throughput at the default pool
    width over a width-1 pool, and the default-width pool's own costs."""
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={POOL_PROBE_SECONDS}", "--mode=pool"]
    _, wide = run_binary(binary, args, deadline, bench_env())
    _, narrow = run_binary(binary, args, deadline, bench_env(1))
    return {
        "util.parallel_for_overhead_us": wide["parallel_for_overhead_us"],
        "util.pool_queue_wait_p99_us": wide["pool_queue_wait_p99_us"],
        "util.pool_speedup.serve":
            wide["tokens_per_s"] / narrow["tokens_per_s"],
        "util.pool_speedup.detect": wide["mcqs_per_s"] / narrow["mcqs_per_s"],
        "util.pool_speedup.integrate":
            wide["examples_per_s"] / narrow["examples_per_s"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build_binary()
    deadline = time.monotonic() + RUN_LIMIT_S
    report, result = run_binary(
        binary,
        [f"--workload={args.workload}", f"--seed={args.seed}",
         f"--seconds={args.seconds}", f"--trace={args.trace}"],
        deadline, bench_env(MEASURED_POOL_WIDTH))
    metrics = dict(result["metrics"])
    if args.trace:
        metrics.update(pool_metrics(binary, args.workload, args.seed,
                                    deadline))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("perfbench: the binary did not report", ", ".join(missing))
        return 3
    for line in report:
        print(line)
    prov = dict(result["provenance"], **provenance())
    print("perfbench: provenance " + json.dumps(prov, sort_keys=True))
    print("perfbench: checks " + json.dumps(result["checks"], sort_keys=True))
    for m in wanted:
        print(f"perfbench: metric {m['name']} = {metrics[m['name']]!r} "
              f"{m['unit']}")
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
