#!/usr/bin/env python3
"""Record sets of benchmark runs and compare two sets.

    python3 slbench/compare.py record --out DIR [--seeds 1-10]
        [--workloads city_sim,refine_chain,keyed_windows] [--seconds 20]
    python3 slbench/compare.py diff DIR_A DIR_B

`record` runs slbench/run.py once per workload and seed (untraced) and
keeps each run's JSON result line in DIR/<workload>-<seed>.json.
`diff` prints, per workload and end-to-end metric, each set's median and
quartiles, the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles) and whether the
sets agree: each spread (except setup_s's) within the metric's bound in
BENCHMARK.json, the second median no worse than the first by more than
the bound, and the same share of failed operations. Exits 1 when any
pair disagrees. With one directory, `diff` only prints its statistics.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "slbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, proc.returncode), file=sys.stderr)
                return 1
            with open(os.path.join(args.out, "%s-%d.json" % (workload, seed)),
                      "w") as f:
                f.write(lines[-1] + "\n")
            result = json.loads(lines[-1])
            print("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in sorted(result["metrics"].items()))))
    return 0


def load_set(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).rsplit("-", 1)[0]
        with open(path) as f:
            runs.setdefault(workload, []).append(json.loads(f.read()))
    return runs


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(runs):
    return [r["failed"] / r["attempted"] for r in runs]


def diff(args):
    spec = load_spec()
    sets = [load_set(d) for d in args.dirs]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if any(name not in s for s in sets):
            continue
        print("== %s (%s runs)" % (name, "/".join(str(len(s[name])) for s in sets)))
        for s in sets:
            if not all(r["correct"] for r in s[name]):
                print("   a run reported correct=false")
                ok = False
        shares = [sorted(set(failed_share(s[name]))) for s in sets]
        if len(shares) == 2 and (len(shares[0]) != 1 or shares[0] != shares[1]):
            print("   failed-operation shares differ: %s" % shares)
            ok = False
        print("   %-24s %-36s %-36s %s" % ("metric", "set A median [q1, q3] spread",
                                          "set B median [q1, q3] spread", "verdict"))
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            cols, verdict = [], []
            meds = []
            for s in sets:
                med, q1, q3, spread = stats([r["metrics"][metric]["value"]
                                             for r in s[name]])
                meds.append(med)
                cols.append("%.5g [%.5g, %.5g] %.3f" % (med, q1, q3, spread))
                if metric != "setup_s" and spread > bound:
                    verdict.append("spread>%.2f" % bound)
                elif spread > bound / 3 and metric != "setup_s":
                    verdict.append("spread>bound/3")
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                if worse > bound:
                    verdict.append("median worse by %.1f%%" % (100 * worse))
            if any(v.startswith("spread>0") or v.startswith("median") for v in verdict):
                ok = False
            print("   %-24s %-36s %-36s %s" % (metric, cols[0],
                                              cols[1] if len(cols) > 1 else "",
                                              ", ".join(verdict) or "agree"))
    print("verdict: %s" % ("agree" if ok else "DISAGREE"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--workloads", default="")
    rec.add_argument("--seconds", type=float, default=0)
    dif = sub.add_parser("diff")
    dif.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    return record(args) if args.mode == "record" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
