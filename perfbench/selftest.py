#!/usr/bin/env python3
"""Self-test of the benchmark: deterministic counts must repeat exactly.

    python3 perfbench/selftest.py

For each workload, makes three traced runs of one traced pass each: seed
1 twice, then seed 2.  Every run must pass its
correctness checks, and every per-layer count and ratio that does not
depend on time (calls, examined, found/true/free/unique ratios) must be
identical across the three runs.  The seed only changes the witness
relabelling in witness-verify, which must not change any of these counts.
Exits 1 on any difference or failed run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 900
TIMED_SUFFIXES = (".self_s", ".overhead_ratio")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1",
        ],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if not m["name"].endswith(TIMED_SUFFIXES)]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [traced_run(workload, seed) for seed in (1, 1, 2)]
        values = [{name: run["metrics"][name]["value"] for name in counts} for run in runs]
        differing = [name for name in counts if len({v[name] for v in values}) != 1]
        if differing:
            status = 1
            for name in differing:
                print(f"{workload}: {name} differs: {[v[name] for v in values]}")
        else:
            print(f"{workload}: {len(counts)} counts identical across runs and seeds")
            for name in ("oracle.search.examined", "oracle.canon.calls", "cycles.calls",
                         "cycles.found_ratio", "matching.size_test.calls"):
                print(f"  {name} = {values[0][name]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
