"""Self-check of the benchmark's steadiness.

Usage::

    python3 bench/selfcheck.py

Runs ``run.py`` ``RUNS`` times per workload with a different seed each
time, in ``SETS`` sets, for the run length and every workload given in
``BENCHMARK.json``.  For every end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` of each set.  The check passes when every spread
stays within the metric's bound, when each later set's median is not
worse than the first set's by more than the bound, and when the share of
failed operations is the same in every set.  Exit code 0 means it passed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}  # workload -> per set: list of run results
    seed = FIRST_SEED
    for s in range(SETS):
        for w in workloads:
            results[w].append([])
        for _ in range(RUNS):
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                seed += 1
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed - 1}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      file=sys.stderr)

    ok = True
    for w in workloads:
        shares = {
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in results[w]
        }
        if len(shares) != 1 or not all(r["correct"] for runs in results[w] for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(shares)} or incorrect output")
        for name, meta in metrics.items():
            sets = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            bound = meta["bound"]
            verdicts = []
            for k, st in enumerate(sets):
                steady = st["spread"] <= bound
                change = (st["median"] - sets[0]["median"]) / sets[0]["median"]
                worse = change if meta["better"] == "lower" else -change
                agree = worse <= bound
                ok = ok and steady and agree
                verdicts.append(
                    f"set{k + 1} median={st['median']:.6g} q1={st['q1']:.6g} q3={st['q3']:.6g} "
                    f"spread={st['spread']:.4f}{'' if steady else ' (TOO WIDE)'} "
                    f"vs set1={change:+.4f}{'' if agree else ' (WORSE)'}"
                )
            print(f"{w} {name} [{meta['unit']}, bound {bound}]: " + "; ".join(verdicts))
    print("self-check", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
