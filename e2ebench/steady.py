"""Steadiness check: run one workload repeatedly and report the spread.

Usage, from the root of a checkout::

    python3 e2ebench/steady.py --workload offline_suite --runs 5 --seed 1

Runs the workload with seeds ``seed .. seed+runs-1`` and prints, for each
end-to-end metric, the median, the quartiles and the relative spread
(interquartile distance over the median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles) next to the metric's bound. It then runs the
first seed once more and checks that the work counts (gradient calls per
job, draws served per job) repeat exactly, and that the share of failed
operations is the same in every run. ``--trace-overhead`` also runs the
first seed traced and reports how much longer the same jobs took.

Exits non-zero if a run fails, a check fails, work counts differ, or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        for tag in ("work", "timing"):
            if line.startswith(tag + " "):
                out[tag] = json.loads(line[len(tag) + 1:])
    out["notes"] = [line for line in lines[:-1]
                    if line.startswith(("FAILED", "CHECK FAILED"))]
    return out


def common_prefix_equal(a, b) -> bool:
    """Work lists grow with run length; compare what both runs did."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            common_prefix_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        n = min(len(a), len(b))
        return n > 0 and a[:n] == b[:n]
    return a == b


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    ok = True
    runs = []
    for index in range(args.runs):
        out = run_once(args.workload, args.seed + index, seconds, 0)
        runs.append(out)
        values = " ".join(
            f"{name}={value['value']:.6g}"
            for name, value in out["metrics"].items())
        print(f"seed {args.seed + index}: attempted {out['attempted']} "
              f"failed {out['failed']} correct {out['correct']} {values}",
              flush=True)
        for note in out["notes"]:
            print("  " + note)
        ok &= out["correct"]

    print(f"\n{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        flag = ""
        if spread > metric["bound"]:
            flag = "  OVER BOUND"
            ok = False
        elif spread > metric["bound"] / 3:
            flag = "  over a third of the bound"
        print(f"{name:16} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{metric['bound']:6.2f}{flag}")

    shares = {(run["failed"], run["attempted"]) for run in runs}
    same_share = len({f / a for f, a in shares}) == 1
    print(f"\nfailed/attempted per run: {sorted(shares)} "
          f"({'same share' if same_share else 'SHARES DIFFER'})")
    ok &= same_share

    repeat = run_once(args.workload, args.seed, seconds, 0)
    repeats = common_prefix_equal(runs[0]["work"], repeat["work"])
    print(f"work counts of seed {args.seed} on a second run: "
          f"{'repeat exactly' if repeats else 'DIFFER'}")
    ok &= repeats

    if args.trace_overhead:
        traced = run_once(args.workload, args.seed, seconds, 1)
        plain, timed = runs[0]["timing"], traced["timing"]
        base = cost = 0.0
        for key in plain:
            n = min(len(plain[key]), len(timed.get(key, [])))
            base += sum(plain[key][:n])
            cost += sum(timed[key][:n])
        print(f"tracing overhead on the same jobs: "
              f"{100 * (cost / base - 1):+.1f}% ({cost:.2f}s traced vs "
              f"{base:.2f}s untraced)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
