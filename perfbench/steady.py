#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py --runs N

Runs two interleaved sets (A, B) of N runs of every workload in
BENCHMARK.json, each run with its own seed (1 to 2N), exactly as
BENCHMARK.json's command runs them.  For every end-to-end metric x
workload it prints each set's median and quartiles, the spread
(quartile distance / median) of all 2N runs, how far apart the two
sets' medians are (the larger over the smaller, minus 1), and whether
the two sets agree within the metric's bound: the distance between the
medians within the bound, and each set's spread too, except for setup_s.
Drivers' and serve's set-up take 0.1 and 1 ms, short enough that one
sample sees the host's speed of that moment: serve's 15 samples in one
run moved between about 0.6 and 1.1 ms as host load changed, and its
spread over ten runs reached 48% while the two sets' medians stayed
5.5% apart.  So setup_s is held to its medians only.  Raw values go to
.bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    if res.returncode != 0 or not last.startswith("{"):
        sys.exit("steady: %s seed %d failed (exit %d)"
                 % (workload, seed, res.returncode))
    out = json.loads(last)
    if not out["correct"] or out["failed"]:
        sys.exit("steady: %s seed %d reported failures" % (workload, seed))
    return {k: v["value"] for k, v in out["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    raw = {}
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            # Interleave, alternating which set goes first.
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = 1 + 2 * i + (s == "B")
                sets[s].append(run_once(bench, w, seed))
                print("%s run %s%d done" % (w, s, i), file=sys.stderr,
                      flush=True)
        raw[w] = sets
        print("\n%s (%d runs per set)" % (w, args.runs))
        print("  %-12s %11s %11s %11s  %11s %11s %11s  %7s %7s %6s  %s"
              % ("metric", "A.q1", "A.med", "A.q3", "B.q1", "B.med", "B.q3",
                 "spread", "apart", "bound", "agree"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            qa1, qa3, sa = spread(a)
            qb1, qb3, sb = spread(b)
            _, _, s_all = spread(a + b)
            ma, mb = statistics.median(a), statistics.median(b)
            # Either set worse than the other, whichever way it goes.
            apart = max(ma / mb, mb / ma) - 1
            agree = apart <= bound and (name == "setup_s" or
                                        (sa <= bound and sb <= bound))
            ok = ok and agree
            print("  %-12s %11.5g %11.5g %11.5g  %11.5g %11.5g %11.5g  "
                  "%6.1f%% %6.1f%% %5.0f%%  %s"
                  % (name, qa1, ma, qa3, qb1, mb, qb3, 100 * s_all,
                     100 * apart, 100 * bound, "yes" if agree else "NO"))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
