#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs one workload once per seed (and, with --sets 2, the whole seed list a
second time), then prints for every end-to-end metric its median, first
and third quartiles, and spread: the distance between the quartiles as a
share of the median, computed with statistics.quantiles(values, n=4).
Each spread is shown against the metric's bound from BENCHMARK.json; with
two sets, so is the drift of the second set's median from the first's.

Run from the repository root:

    python3 perfbench/steady.py --workload cold-compile --seeds 1-10
    python3 perfbench/steady.py --workload warm-serve --seeds 1001-1010 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result: {lines[-1]}")
    return res["metrics"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 1,5,9")
    ap.add_argument("--sets", type=int, default=1, help="how many times to run the seed list")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    sets = []
    for s in range(args.sets):
        values = {m["name"]: [] for m in specs}
        for seed in seeds:
            metrics = run_once(args.workload, seed, bench["run_seconds"])
            for name in values:
                values[name].append(metrics[name]["value"])
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{m['name']}={metrics[m['name']]['value']:.6g}" for m in specs), file=sys.stderr)
        sets.append(values)

    print(f"{args.workload}: {len(seeds)} seeds x {args.sets} set(s), run_seconds {bench['run_seconds']}")
    print(f"{'metric':<26}{'unit':<12}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
    ok = True
    for m in specs:
        bound = m["bound"]
        for s, values in enumerate(sets):
            q1, med, q3, sp = spread(values[m["name"]])
            verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO NOISY")
            if m["name"] == "setup_s":
                verdict += " (not gated)"
            elif sp > bound:
                ok = False
            print(f"{m['name']:<26}{m['unit']:<12}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{sp:>9.2%}"
                  f"{bound:>8}  set {s + 1} {verdict}")
        if len(sets) > 1:
            first = statistics.median(sets[0][m["name"]])
            last = statistics.median(sets[-1][m["name"]])
            worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
            verdict = "ok" if worse <= bound else "REGRESSED"
            ok = ok and worse <= bound
            print(f"{'':<26}{'':<12} median drift set 1 -> {len(sets)}: {worse:+.2%} worse ({verdict})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
