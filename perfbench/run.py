#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_r32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the repository libraries it links) into .bench_build/; later
calls rebuild only what changed. The workload's output is passed through:
a metadata line, then the result object as the last line. The exit code is
non-zero when the build fails, any operation failed, or the result does not
carry exactly the metrics BENCHMARK.json declares.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
TMP = BUILD / "tmp"
# Compiler and program temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=str(TMP))
RUN_TIMEOUT_S = 175

# Threads each workload may keep busy, at most nproc - 1 on a 4-vCPU host:
# the serving workloads run serial Sessions (the shared pool stays idle), the
# training flow uses two compute threads plus one data worker.
NB_THREADS = {"serve_r32": "1", "edge_r96_int8": "1", "train_boost": "2"}


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("run.py: no repository sources next to perfbench/")
    TMP.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=ENV)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--parallel", jobs],
                   check=True, stdout=sys.stderr, env=ENV)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def matches_declared(result, trace):
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(NB_THREADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own helper tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    if args.selftest:
        rc = subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
        if rc == 0:
            rc = subprocess.run(
                [sys.executable, "-m", "unittest", "-q", "test_steady"],
                cwd=ROOT / "perfbench" / "tests").returncode
        sys.exit(rc)

    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(ENV, NB_THREADS=NB_THREADS[args.workload])
    cmd = [str(BUILD / "nb_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: {args.workload} printed no result "
                 f"(exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"run.py: last line is not a result: {lines[-1]!r}")
    print("\n".join(lines), flush=True)
    print(f"run.py: {args.workload} took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    if proc.returncode != 0 or not matches_declared(result, args.trace):
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
