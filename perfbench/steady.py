#!/usr/bin/env python3
"""Steadiness runner: is every end-to-end metric repeatable within its bound?

    python3 perfbench/steady.py --repeats 10
    python3 perfbench/steady.py --repeats 5 --workloads serve_r32 --sets 2

Runs every workload `repeats` times per set through run.py, alternating
workloads (and sets) so host drift spreads over all of them, each run with
its own seed. For each workload and metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and flags a spread above the metric's bound from
BENCHMARK.json. setup_s is flagged too, though only its median is gated.
Ungated numbers from the meta line (the per-layer p99_ms, the host drift
witness host_ref_ms) are listed with their spread but never flagged.
With --sets 2 it also prints how far the second set's median moved from the
first's in the metric's worse direction: the A/A check a regression gate
makes between two commits. Exits non-zero when anything is flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it improved)."""
    a, b = statistics.median(first), statistics.median(second)
    if not a:
        return float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    for name, value in meta.get("ungated", {}).items():
        metrics["ungated." + name] = value
    if meta.get("host_ref_ms"):
        metrics["host_ref_ms"] = statistics.median(meta["host_ref_ms"])
    return metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--out", type=Path, help="write every run's metrics here")
    args = ap.parse_args()

    runs = {(w, s): [] for w in args.workloads for s in range(args.sets)}
    seed = args.seed
    for _ in range(args.repeats):
        for s in range(args.sets):
            for w in args.workloads:
                m = run_once(w, seed, args.seconds)
                runs[(w, s)].append(m)
                print(f"  {w} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in m.items()), flush=True)
                seed += 1
    if args.out:
        args.out.write_text(json.dumps(
            {f"{w}/{s}": r for (w, s), r in runs.items()}, indent=1))

    flagged = 0
    print(f"\n{'workload':15} {'metric':13} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for w in args.workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r[name] for r in runs[(w, s)]] for s in range(args.sets)]
            for s, values in enumerate(sets):
                q1, q2, q3 = quartiles(values)
                sp = spread(values)
                flag = sp > bound
                flagged += flag
                print(f"{w:15} {name:13} {s:>3} {q2:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {sp:>7.2%} {bound:>6.0%}"
                      f"{'  SPREAD > BOUND' if flag else ''}")
            if args.sets == 2:
                shift = worsening(sets[0], sets[1], metric["better"])
                flag = shift > bound
                flagged += flag
                print(f"{'':15} {name:13} A/A median worsened by {shift:.2%}"
                      f"{'  > BOUND' if flag else ''}")
        extras = sorted({k for r in runs[(w, 0)] for k in r
                         if k.startswith("ungated.") or k == "host_ref_ms"})
        for name in extras:
            for s in range(args.sets):
                values = [r[name] for r in runs[(w, s)]]
                q1, q2, q3 = quartiles(values)
                print(f"{w:15} {name:13} {s:>3} {q2:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {spread(values):>7.2%} {'-':>6}")
    print(f"\n{flagged} flag(s)")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
