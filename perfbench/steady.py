#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--seconds S]
                                [--workloads eval,compile,serve] [--trace]

Run from the root of the repository.  Each run gets its own seed
(seed-base, seed-base + 1, ...).  For every metric it prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread, (Q3 - Q1) / median.  An end-to-end metric whose spread exceeds a
third of its bound in BENCHMARK.json is marked "!", one that exceeds the
whole bound "!!" (setup_s is marked too, but its spread is not gated).
The suggested bound is three times the spread, rounded up
to the next 0.01.  It also checks that every run was correct, that the
share of failed ops is the same in every run, that sim_cycles is the
same in every run, and that each run prints exactly the metrics and
units BENCHMARK.json declares.  Exits 1 if any check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true",
                    help="per-layer metrics of traced runs (no bounds)")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trace = 1 if a.trace else 0
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if a.trace else "end_to_end"]}
    ok = True
    for wl in a.workloads.split(","):
        results = []
        for i in range(a.runs):
            r = run_once(bench["command"], wl, a.seed_base + i, a.seconds, trace)
            results.append(r)
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            if units != declared:
                print(f"{wl}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(units.items()) ^ set(declared.items()))}")
                ok = False
            vals = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in r["metrics"].items())
            print(f"{wl} seed {a.seed_base + i}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']} {vals}",
                  file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            print(f"{wl}: FAIL correct={[r['correct'] for r in results]} "
                  f"failed shares={sorted(shares)}")
            ok = False
        print(f"\n{wl}: {a.runs} runs of {a.seconds} s, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'suggest':>7}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark = "!!"
                elif spread > bound / 3:
                    mark = "!"
                if name != "setup_s" and mark == "!!":
                    ok = False
            suggest = math.ceil(300 * spread) / 100 if bound is not None else ""
            if name == "sim_cycles" and len(set(vals)) != 1:
                mark += " varies"
                ok = False
            print(f"  {name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{suggest:>7} {mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
