"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload sweep --runs 10

Runs two sets of ``--runs`` runs each, alternating between the sets,
every run with its own seed and BENCHMARK.json's ``run_seconds``.  For
each set, and for both sets together, it prints every end-to-end
metric's median, quartiles (``statistics.quantiles(n=4)``) and spread
(the interquartile distance as a share of the median), and says whether the spread is within the
metric's bound in BENCHMARK.json and within a third of it (the margin
aimed for).  It then says whether the two sets' medians differ, in
either direction, by more than the bound, and whether the two sets
failed the same share of operations.  Exits non-zero if anything is out
of bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {' '.join(command)}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect output: {' '.join(command)}")
    return result


def summarize(results, metric: str):
    values = [r["metrics"][metric]["value"] for r in results]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]

    sets = [[], []]
    seed = args.first_seed
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            sets[s].append(one_run(args.workload, seed, seconds, 0))
            seed += 1

    ok = True
    for label, results in (("set 1", sets[0]), ("set 2", sets[1]), ("both sets", sets[0] + sets[1])):
        failed = [r["failed"] / r["attempted"] for r in results]
        print(f"{label}: {len(results)} runs of {args.workload}, "
              f"{seconds} s each, failed share {max(failed):.4f}")
        for m in spec["end_to_end"]:
            median, q1, q3, spread = summarize(results, m["name"])
            verdict = ("ok" if spread <= m["bound"] / 3 else
                       "WITHIN BOUND" if spread <= m["bound"] else "TOO WIDE")
            ok &= spread <= m["bound"]
            print(f"  {m['name']:<12} median {median:12.5g} {m['unit']:<4} "
                  f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:6.3f} "
                  f"(bound {m['bound']}) {verdict}")
    for m in spec["end_to_end"]:
        first = summarize(sets[0], m["name"])[0]
        second = summarize(sets[1], m["name"])[0]
        change = (second - first) / first
        agree = abs(change) <= m["bound"]
        ok &= agree
        print(f"  {m['name']:<12} set 2 vs set 1: {change:+.3f} "
              f"{'agree' if agree else 'DISAGREE'} (bound {m['bound']})")
    shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
    same = shares[0] == shares[1] and len(shares[0]) == 1
    ok &= same
    print(f"  failed share identical across runs: {'yes' if same else 'NO'}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
