#!/usr/bin/env python3
"""specbench driver: builds the benchmark from source, runs one workload and
prints one JSON result line.

    python3 specbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
specbench/ (Release) into .bench_build/specbench; later runs reuse it.

--trace 0 prints the end-to-end metrics (setup_s, sim_ns_per_s, wall_s,
peak_rss_mb); --trace 1 prints the per-layer ledger. Every cell's simulated
outputs are fingerprinted and compared with specbench/reference.json (or,
for a seed the reference does not cover, with fingerprints from an
independent execution path computed in the same run).

The last stdout line is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the full record (build stamp, host, per-pass data, ledger) is written to
.bench_build/specbench/results/.

    python3 specbench/run.py --record-reference --workload NAME --seeds 0-47
regenerates the reference fingerprints of NAME for the given seeds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "specbench"
BINARY = BUILD / "specbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("table1_8x8", "radix1024_pdes", "cmp64_closed")


def fail(message, code=2):
    print(f"specbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "noc" / "network.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", str(BUILD), "-j",
                    str(os.cpu_count() or 1)])


def run_build_step(command):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        fail(f"build step failed: {' '.join(command)}")


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, crosscheck, spans_out=None):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--crosscheck", "1" if crosscheck else "0"]
    if spans_out:
        command += ["--spans-out", str(spans_out)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        fail(f"specbench binary exited with {result.returncode}",
             result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("specbench binary printed no result")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def check_cells(cells, expected, problems):
    """Counts cells that failed or whose fingerprint differs from expected."""
    failed = 0
    for index, cell in enumerate(cells):
        want = expected.get(cell["name"]) if isinstance(expected, dict) \
            else (expected[index] if index < len(expected) else None)
        if not cell["ok"]:
            failed += 1
            problems.append(f"{cell['name']}: {cell.get('error', 'failed')}")
        elif cell["fingerprint"] != want:
            failed += 1
            problems.append(f"{cell['name']}: fingerprint "
                            f"{cell['fingerprint']} != reference {want}")
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_pass(samples):
    """Sum over cells of each cell's median across samples (a list of
    per-cell value lists): a typical pass that a host hiccup during part
    of the run does not move."""
    return sum(statistics.median(column) for column in zip(*samples))


def score(doc, expected):
    problems = []
    attempted = 0
    failed = 0
    for p in doc["passes"]:
        attempted += len(p["cells"])
        failed += check_cells(p["cells"], expected, problems)
    passes = doc["passes"]

    def cell_values(key):
        return [[c[key] for c in p["cells"]] for p in passes]

    run_s = median_pass(cell_values("run_s"))
    sim_ns = sum(c["sim_ns"] for c in passes[0]["cells"])
    metrics = {
        "setup_s": metric(median_pass(doc["setup_samples"]), "s"),
        "sim_ns_per_s": metric(sim_ns / run_s if run_s > 0 else 0.0, "ns/s"),
        "wall_s": metric(median_pass(cell_values("wall_s")), "s"),
        "peak_rss_mb": metric(doc["peak_rss_mb"], "MiB"),
    }
    return attempted, failed, metrics, problems


def ledger(doc, expected):
    problems = list(doc["problems"])
    attempted = doc["attempted"]
    # The untraced pass against the reference (the traced pass and the
    # worker-count runs were already compared with it by the binary).
    failed = doc["failed"] + check_cells(doc["passes"][0]["cells"], expected,
                                         problems)
    return attempted, failed, doc["metrics"], problems


def record_reference(args):
    build()
    reference = load_reference()
    table = reference.setdefault(args.workload, {})
    first, _, last = args.seeds.partition("-")
    for seed in range(int(first), int(last or first) + 1):
        doc = run_binary(args.workload, seed, 0, 0, crosscheck=False)
        cells = doc["passes"][0]["cells"]
        bad = [c["name"] for c in cells if not c["ok"]]
        if bad:
            fail(f"seed {seed}: cells failed: {bad}")
        table[str(seed)] = {c["name"]: c["fingerprint"] for c in cells}
        print(f"{args.workload} seed {seed}: {len(cells)} cells",
              file=sys.stderr)
    reference[args.workload] = dict(sorted(table.items(),
                                           key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=False)
                         + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--seeds", default="0-47")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.record_reference:
        record_reference(args)
        return

    stamp = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "started_unix_s": time.time(),
    }
    build()
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = run_binary(args.workload, args.seed, args.seconds, args.trace,
                     crosscheck=expected is None,
                     spans_out=results / f"{stem}.spans.jsonl"
                     if args.trace else None)
    stamp.update(doc["build"])
    if stamp["build_type"] != "Release":
        fail(f"refusing to record from a '{stamp['build_type']}' build", 3)
    if expected is None:
        expected = doc["crosscheck"]
        stamp["reference"] = "crosscheck"
    else:
        stamp["reference"] = "reference.json"

    attempted, failed, metrics, problems = \
        ledger(doc, expected) if args.trace else score(doc, expected)
    for problem in problems:
        print(f"specbench: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        {"stamp": stamp, "result": result, "problems": problems,
         "raw": doc}, indent=1) + "\n")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
