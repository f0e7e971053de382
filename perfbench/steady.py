#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs, compared.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

It runs every workload of BENCHMARK.json ten times for set A (seeds 1-10)
and ten times for set B (seeds 101-110), one process at a time, alternating
A and B.  It then prints, per workload and end-to-end metric, each set's
median and quartiles (as ``statistics.quantiles(values, n=4)`` gives them),
the spread (q3 - q1) / median of each set, and the shift of set B's median
against set A's.  A metric agrees when both spreads and the size of the
shift lie within its ``bound`` in BENCHMARK.json; a workload agrees when,
in addition, the failed share of operations is the same in every run.  The
full results go to ``perfbench/out/steady.json``.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEEDS = {"A": 1, "B": 101}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s\n%s%s" % (" ".join(cmd), proc.stdout,
                                                   proc.stderr))
    return json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for label, seed0 in SEEDS.items():
                res = run_once(w, seed0 + i, bench["run_seconds"])
                results[w][label].append(res)
                print("run %d %s %s seed %d: %s" % (
                    i, w, label, seed0 + i,
                    "  ".join("%s=%.4g" % (k, v["value"])
                              for k, v in res["metrics"].items())), flush=True)

    ok = True
    table = []
    for w in workloads:
        shares = {r["failed"] / r["attempted"]
                  for label in "AB" for r in results[w][label]}
        if len(shares) != 1:
            ok = False
            print("%s: failed share differs between runs: %s" % (w, sorted(shares)))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = {label: summarize([r["metrics"][name]["value"]
                                      for r in results[w][label]])
                    for label in "AB"}
            a, b = sets["A"]["median"], sets["B"]["median"]
            shift = (b - a) / a
            agree = abs(shift) <= bound and max(
                sets["A"]["spread"], sets["B"]["spread"]) <= bound
            ok = ok and agree
            table.append((w, name, sets, shift, bound, agree))

    print("\n| workload | metric | set A median [q1, q3] | spread A | "
          "set B median [q1, q3] | spread B | B vs A | bound | agree |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, name, sets, shift, bound, agree in table:
        a, b = sets["A"], sets["B"]
        print("| %s | %s | %.4g [%.4g, %.4g] | %.1f%% | %.4g [%.4g, %.4g] | %.1f%% "
              "| %+.1f%% | %.0f%% | %s |" % (
                  w, name, a["median"], a["q1"], a["q3"], 100 * a["spread"],
                  b["median"], b["q1"], b["q3"], 100 * b["spread"],
                  100 * shift, 100 * bound, "yes" if agree else "NO"))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    print("\nsets agree within bounds: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
