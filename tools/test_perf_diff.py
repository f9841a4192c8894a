#!/usr/bin/env python3
"""Self-test for tools/perf_diff.py (CTest `perf_diff_selftest`, label docs).

Feeds the tool pairs of synthetic artifacts: a pair that differs only in
host-time fields must pass; a pair that differs in one row value, in one
span's sim_us, or by one added span row must fail, naming exactly that.

    $ python3 tools/test_perf_diff.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_diff.py")

ARTIFACT = {
    "schema": "ici-bench-v1",
    "name": "exp99_synthetic",
    "seed": 42,
    "smoke": False,
    "config": {"nodes": 60, "shards": 1},
    "rows": [
        {"label": "r=1", "values": {"availability": 0.93, "copies": 17, "wall_ms": 12.5}},
        {"label": "r=2", "values": {"availability": 1.0, "copies": 29, "wall_ms": 14.0}},
    ],
    "counters": {"churn.down": 66, "sim.rss_bytes": 37994496},
    "distributions": {},
    "spans": [
        {
            "label": "disseminate/full_commit",
            "wall_us": {"count": 3, "total": 1500.0, "p50": 480.0, "p99": 600.0},
            "sim_us": {"count": 3, "total": 91000, "p50": 30000, "p99": 31000},
        },
        {
            "label": "verify/commit",
            "wall_us": None,
            "sim_us": {"count": 9, "total": 72000, "p50": 8000, "p99": 9000},
        },
        {
            "label": "verify/slice",
            "wall_us": {"count": 60, "total": 900.0, "p50": 14.0, "p99": 30.0},
            "sim_us": {"count": 60, "total": 240000, "p50": 4000, "p99": 5000},
        },
    ],
}


def run_pair(before, after):
    with tempfile.TemporaryDirectory() as root:
        dirs = []
        for tag, doc in (("before", before), ("after", after)):
            d = os.path.join(root, tag)
            os.mkdir(d)
            with open(os.path.join(d, "BENCH_exp99_synthetic.json"), "w") as f:
                json.dump(doc, f)
            dirs.append(d)
        proc = subprocess.run([sys.executable, TOOL, *dirs], capture_output=True, text=True)
        return proc.returncode, proc.stdout


def main():
    failures = []

    wall_only = copy.deepcopy(ARTIFACT)
    wall_only["rows"][0]["values"]["wall_ms"] = 99.0
    wall_only["counters"]["sim.rss_bytes"] = 1
    wall_only["spans"][0]["wall_us"]["total"] = 9000.0
    code, out = run_pair(ARTIFACT, wall_only)
    if code != 0:
        failures.append(f"wall-time-only pair exited {code}, want 0:\n{out}")

    row_changed = copy.deepcopy(ARTIFACT)
    row_changed["rows"][1]["values"]["copies"] = 30
    code, out = run_pair(ARTIFACT, row_changed)
    if code != 1 or "copies" not in out:
        failures.append(f"row-value pair exited {code}, want 1 naming the field:\n{out}")

    # One wall-only row added mid-list: one difference naming that row, not a
    # shifted comparison of every row after it.
    row_added = copy.deepcopy(ARTIFACT)
    row_added["spans"].insert(
        1,
        {
            "label": "pool",
            "wall_us": {"count": 40, "total": 300.0, "p50": 7.0, "p99": 12.0},
            "sim_us": None,
        },
    )
    code, out = run_pair(ARTIFACT, row_added)
    diff_lines = [line for line in out.splitlines() if line.startswith("DIFF ")]
    if code != 1 or len(diff_lines) != 1 or "spans[pool]" not in diff_lines[0] \
            or "wall-only" not in diff_lines[0]:
        failures.append(f"added-span pair exited {code}, want 1 with one wall-only line:\n{out}")

    sim_changed = copy.deepcopy(ARTIFACT)
    sim_changed["spans"][2]["sim_us"]["total"] = 240001
    code, out = run_pair(ARTIFACT, sim_changed)
    diff_lines = [line for line in out.splitlines() if line.startswith("DIFF ")]
    if code != 1 or len(diff_lines) != 1 or "spans[verify/slice].sim_us.total" not in out:
        failures.append(f"sim_us pair exited {code}, want 1 naming the field:\n{out}")

    for f in failures:
        print("FAIL:", f)
    print("perf_diff self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
