#!/usr/bin/env python3
"""Summarise a traced benchmark run's span file into per-layer self time.

    python3 slbench/trace_summary.py SPANS.jsonl [--untraced RESULT.json ...]

SPANS.jsonl is what `run.py --trace 1` writes: a header line, the stored
spans (name, thread, id, parent, run, start/end ns) and one totals line
per span name (count, total and self time over every span, stored or
not). A span's self time is its duration minus the time its child spans
on the same thread cover.

Prints one row per span name: its module (the part of the name before
the first dot), call count, total and self time, self time per call and
the self-time share of the measured run (every span outside the
`replay.*` layer replays, which run after the measured phases). Rows are
checked against the stored spans: for names whose spans, and whose
children's spans, were all kept, the self time recomputed from parent
links must match the totals.

With --untraced, the median throughput_tps of those untraced result
lines (the JSON last lines of `run.py --trace 0` runs of the same
workload) is compared with the traced run's own throughput, and the
difference is reported as the tracing overhead.
"""

import argparse
import collections
import json
import statistics
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    parser.add_argument("--untraced", nargs="*", default=[])
    args = parser.parse_args()

    header, spans, totals = None, [], {}
    with open(args.spans) as f:
        for i, line in enumerate(f):
            rec = json.loads(line)
            if i == 0:
                header = rec
            elif "span" in rec:
                spans.append(rec)
            elif "totals" in rec:
                totals[rec["totals"]] = rec

    # Recompute self time from the stored spans where every span of a
    # name was stored.
    dur = {}
    child = collections.defaultdict(int)
    stored = collections.Counter()
    for s in spans:
        key = (s["tid"], s["id"])
        dur[key] = s["end_ns"] - s["start_ns"]
        stored[s["span"]] += 1
        if s["parent"] >= 0:
            child[(s["tid"], s["parent"])] += dur[key]
    self_stored = collections.defaultdict(int)
    child_names = collections.defaultdict(set)
    name_of = {(s["tid"], s["id"]): s["span"] for s in spans}
    for s in spans:
        key = (s["tid"], s["id"])
        self_stored[s["span"]] += dur[key] - child[key]
        if s["parent"] >= 0:
            child_names[name_of[(s["tid"], s["parent"])]].add(s["span"])

    def fully_stored(name):
        return stored[name] == totals[name]["count"] if name in totals else False

    measured = sum(t["self_ns"] for n, t in totals.items()
                   if not n.startswith("replay."))
    print("workload %s, seed %s, %s s" % (header["workload"], header["seed"],
                                         header["seconds"]))
    print("%-22s %-10s %10s %12s %12s %12s %8s %s" % (
        "span", "module", "count", "total_ms", "self_ms", "self_us/call",
        "share", "check"))
    mismatches = 0
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"]):
        check = ""
        if not all(fully_stored(c) for c in child_names[name]):
            check = "children not all stored"
        elif stored[name] == t["count"]:
            ok = abs(self_stored[name] - t["self_ns"]) <= max(1000, t["self_ns"] * 1e-6)
            check = "ok" if ok else "MISMATCH"
            mismatches += not ok
        else:
            check = "%d/%d stored" % (stored[name], t["count"])
        share = ("%7.2f%%" % (100.0 * t["self_ns"] / measured)
                 if not name.startswith("replay.") and measured else "   -    ")
        print("%-22s %-10s %10d %12.3f %12.3f %12.3f %8s %s" % (
            name, name.split(".")[0], t["count"], t["total_ns"] / 1e6,
            t["self_ns"] / 1e6, t["self_ns"] / 1e3 / max(1, t["count"]), share,
            check))

    if args.untraced:
        values = []
        for path in args.untraced:
            with open(path) as f:
                last = f.read().strip().splitlines()[-1]
            values.append(json.loads(last)["metrics"]["throughput_tps"]["value"])
        untraced = statistics.median(values)
        traced = header["traced_throughput_tps"]
        print("tracing overhead: traced %.6g tuples/s vs untraced median %.6g "
              "(%d runs): %.1f%% slower" % (traced, untraced, len(values),
                                           100.0 * (untraced - traced) / untraced))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
