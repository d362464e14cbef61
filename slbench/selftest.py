#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 slbench/selftest.py [--seconds 2] [--seed 1]

For every workload, runs the benchmark twice through run.py: once as is,
which must report correct=true, and once with --perturb 1, which shifts
one expected value inside the workload's independent check (a refined
temperature in refine_chain, one brute-forced join pair in
keyed_windows, the expected ingest count in city_sim) and must then
report correct=false. Exits 1 unless every pair behaves.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["city_sim", "refine_chain", "keyed_windows"]


def run(workload, seed, seconds, perturb):
    cmd = [sys.executable, os.path.join(ROOT, "slbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0", "--perturb", str(perturb)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stdout
    return json.loads(lines[-1]), proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for perturb, want in ((0, True), (1, False)):
            result, out = run(workload, args.seed, args.seconds, perturb)
            got = None if result is None else result["correct"]
            good = got is want
            ok &= good
            print("%-14s perturb=%d correct=%s (want %s) %s" % (
                workload, perturb, got, want, "ok" if good else "FAIL"))
            if perturb:
                lines = out.splitlines()
                for i, line in enumerate(lines):
                    if line.startswith("check failures"):
                        print("    " + " | ".join(l.strip() for l in lines[i:i + 2]))
    print("selftest: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
