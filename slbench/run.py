#!/usr/bin/env python3
"""Build and run the StreamLoader end-to-end benchmark.

    python3 slbench/run.py --workload <city_sim|refine_chain|keyed_windows> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a CMake project of its
own (slbench/CMakeLists.txt) compiled against src/; it is configured
and built, Release, under $CARGO_TARGET_DIR (default .bench_build)/slbench
before every run (an up-to-date tree rebuilds nothing). Build output goes
to stderr; the benchmark's own output, ending in one JSON result line,
goes to stdout. Traced runs write their spans to
<build dir>/spans/<workload>-<seed>.jsonl (see trace_summary.py).

Exits non-zero without a result line when the build fails, e.g. in a
directory that holds the benchmark but not the program's sources.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "slbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(out_dir, exist_ok=True)
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            return None
    cmd = ["cmake", "--build", out_dir, "--target", "slbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr):
        return None
    binary = os.path.join(out_dir, "slbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["city_sim", "refine_chain", "keyed_windows"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb", type=int, choices=[0, 1], default=0,
                        help="checker self-test: shift one expected value")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("slbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--perturb", str(args.perturb)]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
