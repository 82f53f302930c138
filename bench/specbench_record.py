#!/usr/bin/env python3
"""Appends one entry to BENCH_specbench.json, the repo's performance record.

    for w in table1_8x8 radix1024_pdes cmp64_closed; do
      for t in 0 1; do
        python3 specbench/run.py --workload $w --seed 1 --seconds 25 --trace $t
      done
    done
    python3 bench/specbench_record.py

Reads the six seed-1 result records specbench wrote under
.bench_build/specbench/results/ and stores, per workload, the scored run's
stamp and end-to-end metrics and the traced run's stamp, per-layer metrics
and raw ledger tables (PDES worker runs, hook subtraction runs). Refuses a
record that is not correct or not from a Release build.

It then times 12 alternating pairs of
    build/bench/bench_table1_throughput --jobs 1 --metrics M
with and without --telemetry-epoch 50 (build/ must be a Release build)
and stores every wall time, the median sampled/unsampled ratio and the
ratios' interquartile range.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "specbench" / "results"
OUT = ROOT / "BENCH_specbench.json"
WORKLOADS = ("table1_8x8", "radix1024_pdes", "cmp64_closed")
SEED = 1
TELEMETRY_PAIRS = 12


def load(workload, trace):
    path = RESULTS / f"{workload}-seed{SEED}-trace{trace}.json"
    if not path.is_file():
        sys.exit(f"specbench_record: missing {path}")
    record = json.loads(path.read_text())
    if not record["result"]["correct"]:
        sys.exit(f"specbench_record: {path} is not correct")
    if record["stamp"]["build_type"] != "Release":
        sys.exit(f"specbench_record: {path} is not a Release build")
    return record


def telemetry_overhead():
    build = ROOT / "build"
    if "CMAKE_BUILD_TYPE:STRING=Release" not in \
            (build / "CMakeCache.txt").read_text():
        sys.exit("specbench_record: build/ is not a Release build")
    with tempfile.TemporaryDirectory() as scratch:
        off = [str(build / "bench" / "bench_table1_throughput"), "--jobs", "1",
               "--metrics", os.path.join(scratch, "m.json")]
        variants = {"off": off, "epoch50": off + ["--telemetry-epoch", "50"]}
        walls = {name: [] for name in variants}
        for pair in range(TELEMETRY_PAIRS):
            # Alternate which variant goes first so host drift hits both.
            for name in sorted(variants, reverse=pair % 2 == 1):
                start = time.perf_counter()
                subprocess.run(variants[name], check=True,
                               stdout=subprocess.DEVNULL)
                walls[name].append(time.perf_counter() - start)
    ratios = [on / base for on, base in zip(walls["epoch50"], walls["off"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"command": "bench_table1_throughput --jobs 1 --metrics M",
            "nproc": os.cpu_count(), "wall_s": walls,
            "median_ratio": statistics.median(ratios), "ratio_iqr": q3 - q1}


def main():
    entry = {"seed": SEED, "workloads": {}}
    for workload in WORKLOADS:
        scored = load(workload, 0)
        traced = load(workload, 1)
        entry["workloads"][workload] = {
            "correct": True,
            "stamp": scored["stamp"],
            "end_to_end": scored["result"]["metrics"],
            "traced_stamp": traced["stamp"],
            "per_layer": traced["result"]["metrics"],
            "ledger": traced["raw"]["ledger"],
        }
    entry["telemetry_overhead"] = telemetry_overhead()
    doc = json.loads(OUT.read_text()) if OUT.is_file() else {
        "format": "specnoc-specbench-record", "entries": []}
    doc["entries"].append(entry)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended entry {len(doc['entries'])} to {OUT}")


if __name__ == "__main__":
    main()
