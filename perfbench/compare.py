#!/usr/bin/env python3
"""Compare two source trees with the same benchmark code.

    python3 perfbench/compare.py --parent ../parent-checkout [--change .]
        [--save runs.jsonl]
    python3 perfbench/compare.py --load runs.jsonl

Runs perfbench/run.py from this directory against <parent>/src and
<change>/src for every workload in PAIRS alternating pairs of
BENCHMARK.json's run_seconds each (pair i runs the parent first when i
is even, the change first when i is odd; both sides of a pair use seed
i + 1), then judges every end-to-end metric of every workload by the rule
in BENCHMARK.json's bounds:

* gain: at least PAIRS pairs were run, the change wins at least 9/10 of
  them (ties count for neither side) and the medians differ, in the
  better direction, by more than the parent's interquartile range;
* regression: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* unresolved: either side's interquartile range, as a share of its
  median, is wider than the bound, unless every change run reads better
  than every parent run;
* no regression: none of the above.

A workload where either side failed a correctness check is reported as
failed.  Exits 1 when any metric regressed or any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 900
PAIRS = 10


def run_once(src: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            "--src", str(src),
        ],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["env"] = next(
        (json.loads(line[4:]) for line in lines if line.startswith("env ")), None
    )
    return result


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list, change: list, better: str, bound: float) -> tuple[str, dict]:
    """Verdict for one metric from paired runs (parent[i] pairs change[i])."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = len(parent)
    worse_share = sign * (cm - pm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    gain = (
        pairs >= PAIRS
        and wins >= 0.9 * pairs
        and sign * (pm - cm) > (p3 - p1)
    )
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regression"
    elif gain:
        verdict = "gain"
    else:
        verdict = "no regression"
    stats = {
        "parent": [p1, pm, p3], "change": [c1, cm, c3],
        "wins": wins, "pairs": pairs, "worse_share": worse_share, "spread": spread,
    }
    return verdict, stats


def report(records: list, spec: dict) -> int:
    status = 0
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        rows = [r for r in records if r["workload"] == workload]
        parent = [r["parent"] for r in sorted(rows, key=lambda r: r["pair"])]
        change = [r["change"] for r in sorted(rows, key=lambda r: r["pair"])]
        if not all(run["correct"] for run in parent + change):
            print(f"{workload}: failed (a run did not pass its correctness checks)")
            status = 1
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict, st = judge(
                [r["metrics"][name]["value"] for r in parent],
                [r["metrics"][name]["value"] for r in change],
                metric["better"], metric["bound"],
            )
            if verdict == "regression":
                status = 1
            cells.append(
                f"{name} {verdict} (parent {st['parent'][1]:.4g} "
                f"[{st['parent'][0]:.4g}, {st['parent'][2]:.4g}], change "
                f"{st['change'][1]:.4g} [{st['change'][0]:.4g}, {st['change'][2]:.4g}], "
                f"wins {st['wins']}/{st['pairs']}, worse by {st['worse_share']:+.1%}, "
                f"bound {metric['bound']:.0%})"
            )
        print(f"{workload}: " + "; ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=HERE.parent)
    parser.add_argument("--save", type=Path, help="append the raw runs as JSON lines")
    parser.add_argument("--load", type=Path, help="judge saved runs instead of running")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

    if args.load:
        records = [
            json.loads(line)
            for line in args.load.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        return report(records, spec)
    if args.parent is None:
        parser.error("--parent is required unless --load is given")
    sides = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            record = {"workload": workload, "pair": pair, "seed": pair + 1}
            for side in order:
                record[side] = run_once(sides[side], workload, pair + 1, spec["run_seconds"])
            records.append(record)
            print(f"{workload} pair {pair + 1}/{PAIRS} done", file=sys.stderr)
            if args.save:
                with open(args.save, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    return report(records, spec)


if __name__ == "__main__":
    sys.exit(main())
