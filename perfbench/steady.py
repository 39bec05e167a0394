#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload several times and report
each end-to-end metric's median, quartiles and spread beside its bound.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads serve-churn
    python3 perfbench/steady.py --runs 10 --sets 2        # do two sets agree?
    python3 perfbench/steady.py --runs 3 --trace          # + traced runs

Run i of a set uses seed --seed + i, so every run sees other inputs. The
spread is (q3 - q1) / median with statistics.quantiles(values, n=4); a
metric is steady when its spread stays under a third of its bound
(setup_s is exempt: only its median is bounded). With --sets 2 the runs of
the two sets are interleaved, and the second set's median may be worse
than the first's by at most the bound. With --trace each workload also
gets traced runs; their per-layer medians are printed, and the tracing
overhead is the traced ops_per_s median against the untraced one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("steady: %s seed %d failed:\n%s" % (workload, seed, out.stdout))
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        sys.exit("steady: %s seed %d is not correct:\n%s"
                 % (workload, seed, out.stdout))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse(metric, first, second):
    """Share by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    verdict = 0
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                sets[s].append(run(workload, args.seed + i, args.seconds, False))
        print("%s: %d runs x %d set(s), %s s each" % (
            workload, args.runs, args.sets, args.seconds))
        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        print("  failed share of attempted: %s" % sorted(shares))
        if len(shares) != 1:
            verdict = 1
        print("  %-18s %14s %14s %14s %8s %7s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "steady"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = []
            for rs in sets:
                values = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                exempt = name == "setup_s"
                ok = exempt or sp < metric["bound"] / 3
                if not ok:
                    verdict = 1
                print("  %-18s %14.6g %14.6g %14.6g %7.1f%% %6.0f%%  %s" % (
                    name, q1, med, q3, 100 * sp, 100 * metric["bound"],
                    "(median only)" if exempt else ("yes" if ok else "NO")))
            if args.sets == 2:
                w = worse(metric, medians[0], medians[1])
                ok = w <= metric["bound"]
                if not ok:
                    verdict = 1
                print("  %-18s second set worse by %+.1f%% (bound %.0f%%) %s" % (
                    "", 100 * w, 100 * metric["bound"], "ok" if ok else "NO"))
        if args.trace:
            traced = [run(workload, args.seed + i, args.seconds, True)
                      for i in range(args.runs)]
            print("  per-layer medians over %d traced runs:" % len(traced))
            for metric in spec["per_layer"]:
                values = [r["metrics"][metric["name"]]["value"] for r in traced]
                print("    %-36s %14.6g %s" % (
                    metric["name"], statistics.median(values), metric["unit"]))
            untraced = statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r in sets[0])
            traced_ops = statistics.median(
                r["metrics"]["bench.traced_ops_per_s"]["value"] for r in traced)
            print("  tracing overhead: ops_per_s %.6g untraced, %.6g traced "
                  "(%+.1f%%)" % (untraced, traced_ops,
                                 100 * (untraced - traced_ops) / untraced))
    sys.exit(verdict)


if __name__ == "__main__":
    main()
