#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json artifacts.

Every deterministic field must match exactly: rows, config, counters,
distributions, and span labels with their sim_us aggregates. Host-time
fields are ignored for the verdict and printed as before/after deltas
instead, so a refactor that claims bit-identical simulation output can be
checked in one command:

    $ python3 tools/perf_diff.py before/ after/

Spans are paired by label: a label on one side only is one difference
(marked wall-only when its sim_us is null), and a label on both sides is
compared field by field.

Host-time fields:
  * span `wall_us`;
  * counters sim.rss_bytes, sim.peak_rss_bytes, sim.bytes_per_node;
  * row keys listed in HOST_ROW_KEYS (wall clock, throughput, RSS deltas,
    google-benchmark timings).

Exit status: 0 = no deterministic difference, 1 = at least one difference
(each is printed), 2 = usage error.
"""

import argparse
import glob
import json
import os
import sys

HOST_COUNTERS = {"sim.rss_bytes", "sim.peak_rss_bytes", "sim.bytes_per_node"}
HOST_ROW_KEYS = {
    "wall_ms",
    "events_per_sec",
    "speedup_vs_reference",
    "real_ns_per_iter",
    "cpu_ns_per_iter",
    "items_per_second",
    "bytes_per_second",
    "iterations",
    "rss_delta_bytes_per_node",
}


def split_host_fields(doc):
    """Returns (deterministic part, {field path: host-time value})."""
    host = {}
    det = dict(doc)
    counters = dict(det.get("counters") or {})
    for name in sorted(HOST_COUNTERS & counters.keys()):
        host[f"counters.{name}"] = counters.pop(name)
    det["counters"] = counters

    rows = []
    for row in det.get("rows") or []:
        values = dict(row.get("values") or {})
        for key in sorted(HOST_ROW_KEYS & values.keys()):
            host[f"rows[{row.get('label')}].{key}"] = values.pop(key)
        rows.append({**row, "values": values})
    det["rows"] = rows

    spans = []
    for span in det.get("spans") or []:
        span = dict(span)
        wall = span.pop("wall_us", None)
        if isinstance(wall, dict) and "total" in wall:
            host[f"spans[{span.get('label')}].wall_us.total"] = wall["total"]
        spans.append(span)
    det["spans"] = spans
    return det, host


def span_differences(a, b):
    """Yields (path, a, b) per span label added, removed or changed."""
    before = {span.get("label"): span for span in a}
    after = {span.get("label"): span for span in b}
    for label in sorted(before.keys() | after.keys(), key=str):
        path = f"spans[{label}]"
        if label in before and label in after:
            yield from differences(before[label], after[label], path)
            continue
        span = before.get(label) or after.get(label)
        kind = "wall-only span" if span.get("sim_us") is None else "span with sim_us"
        yield path, kind if label in before else "<missing>", kind if label in after else "<missing>"


def differences(a, b, path=""):
    """Yields (path, a, b) for every leaf where the two documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys(), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                yield sub, a.get(key, "<missing>"), b.get(key, "<missing>")
            elif sub == "spans" and isinstance(a[key], list) and isinstance(b[key], list):
                yield from span_differences(a[key], b[key])
            else:
                yield from differences(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}[len]", len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            label = x.get("label") if isinstance(x, dict) else None
            yield from differences(x, y, f"{path}[{label if label is not None else i}]")
    elif a != b or type(a) is not type(b):
        yield path, a, b


def artifacts(directory):
    return {os.path.basename(p): p for p in glob.glob(os.path.join(directory, "BENCH_*.json"))}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="directory of baseline BENCH_*.json artifacts")
    parser.add_argument("after", help="directory of BENCH_*.json artifacts to check")
    args = parser.parse_args(argv)
    for d in (args.before, args.after):
        if not os.path.isdir(d):
            print(f"error: not a directory: {d}", file=sys.stderr)
            return 2

    before, after = artifacts(args.before), artifacts(args.after)
    if not before and not after:
        print("error: no BENCH_*.json artifacts in either directory", file=sys.stderr)
        return 2

    diffs = 0
    host_rows = []
    for name in sorted(before.keys() | after.keys()):
        if name not in before or name not in after:
            print(f"DIFF {name}: only in {'after' if name in after else 'before'}")
            diffs += 1
            continue
        with open(before[name]) as f:
            a_det, a_host = split_host_fields(json.load(f))
        with open(after[name]) as f:
            b_det, b_host = split_host_fields(json.load(f))
        for path, x, y in differences(a_det, b_det):
            print(f"DIFF {name}: {path}: {fmt(x)} -> {fmt(y)}")
            diffs += 1
        for field in sorted(a_host.keys() & b_host.keys()):
            x, y = a_host[field], b_host[field]
            if isinstance(x, (int, float)) and isinstance(y, (int, float)):
                ratio = f"{y / x:.3f}x" if x else "-"
                host_rows.append((name, field, fmt(x), fmt(y), ratio))

    if host_rows:
        print("\nhost-time fields (ignored for the verdict):")
        widths = [max(len(r[i]) for r in host_rows) for i in range(5)]
        for row in host_rows:
            print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())

    checked = len(before.keys() & after.keys())
    if diffs:
        print(f"\n{diffs} deterministic difference(s) across {checked} artifact(s)")
        return 1
    print(f"\n{checked} artifact(s): deterministic fields identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
