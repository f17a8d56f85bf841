#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 35 --trace 0

Imports genturan from the src/ directory next to perfbench/ (or --src)
and sets it up.  With --trace 0 the set-up is done SETUP_REPEATS times and
setup_s is the median; the workload's fixed items then run round-robin
for about --seconds (every item at least once), and wall_s is one pass at
the reference host speed.  With --trace 1 the run makes whole
passes that run each item untraced and traced.  Every output is checked;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones plus the tracing
overhead.
The exit code is 0 when every output was correct, 1 when some check
failed, 2 when the program could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is the median over this many set-ups in one process; the first
# meets cold file and bytecode caches, the median leaves it out
SETUP_REPEATS = 7
# modules a set-up imports, dropped from sys.modules before each repeat
SETUP_MODULES = ("genturan", "workloads", "checks")
# The host's speed drifts by up to half, in episodes of seconds to minutes
# (other tenants), for every process alike.  An untraced run therefore
# times a fixed reference loop, REFERENCE_LOOP iterations (about 5 ms),
# every REFERENCE_EVERY_S from a timer signal, and scales every timed piece
# of work by the host's speed around it (HostSampler.factor).  REFERENCE_S
# is the loop's time at the reference speed: its typical time on the
# development machine in a fast episode.
REFERENCE_LOOP = 60_000
REFERENCE_EVERY_S = 0.2
REFERENCE_NEAR_S = 1.0
REFERENCE_S = 0.005


def environment(seed: int, src: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(src.parent),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD commit of root's git checkout, read from .git without running
    git; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload_name: str, seed: int, clock=time.perf_counter):
    """Import genturan, make the workload's items and load the expected
    answers.  Returns (seconds taken by clock, items)."""
    for name in list(sys.modules):
        if name.split(".")[0] in SETUP_MODULES:
            del sys.modules[name]
    # earlier set-ups' modules and items are cyclic garbage; collect it
    # now so that the timed set-up does not pay for it
    gc.collect()
    start = clock()
    genturan = importlib.import_module("genturan")
    import workloads

    items = workloads.WORKLOADS[workload_name](genturan, seed, workloads.load_expected())
    return clock() - start, items


def run_item(item, tracer=None, clock=time.perf_counter) -> tuple[float, list]:
    """Run one item, traced when a tracer is given, and check its output.
    Returns the seconds its work took by clock and its mismatches."""
    if tracer is not None:
        tracer.install()
        tracer.begin_item(item.label)
    start = clock()
    # a crash in the program or in a check is a failed item, not a dead run
    try:
        out = item.work()
    except Exception as exc:
        out, crash = None, f"raised {type(exc).__name__}: {exc}"
    else:
        crash = None
    finally:
        elapsed = clock() - start
        if tracer is not None:
            tracer.end_item()
            tracer.uninstall()
    try:
        errors = [crash] if crash else item.check(out)
    except Exception as exc:
        errors = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, errors


def run_traced_pass(items, tracer, index: int) -> dict:
    """One traced pass: each item runs once untraced and once traced, which
    one first alternating from item to item and from pass to pass, so that
    both meet the same host speed and take the cold start equally often.
    Every run's work is timed alone, then checked."""
    walls = {False: 0.0, True: 0.0}
    times = []
    failures = []
    for k, item in enumerate(items):
        for traced in (False, True) if (k + index) % 2 == 0 else (True, False):
            elapsed, errors = run_item(item, tracer if traced else None)
            walls[traced] += elapsed
            times.append(elapsed)
            if errors:
                failures.append(f"{item.label}: " + "; ".join(errors))
    return {
        "wall": walls[True],
        "untraced_wall": walls[False],
        "times": times,
        "failures": failures,
    }


def run_traced_passes(items, seconds: float, tracer) -> list:
    """Traced passes, at least one, and another only while a pass of the
    mean length so far would end within seconds; whole passes, so that
    every per-pass count covers each item exactly once."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_traced_pass(items, tracer, len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def reference_loop() -> int:
    """Fixed pure-Python work, timed to read the host's speed."""
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return total


class HostSampler:
    """Times the reference loop every REFERENCE_EVERY_S from a SIGALRM
    handler while started, so that the samples also fall inside long items.
    clock() is a perf_counter that stands still while the handler runs,
    so work timed by it does not include the samples."""

    def __init__(self):
        self.samples = []  # (when, seconds) of each reference loop
        self.spent = 0.0  # seconds spent in the handler

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, began: float, ended: float) -> float:
        """The host factor of work done from began to ended: the mean of
        REFERENCE_S over each reference-loop time sampled within
        REFERENCE_NEAR_S of it, below 1 while the host runs slower than the
        reference speed.  The mean weighs a long item's episodes by their
        length."""
        return statistics.mean(
            REFERENCE_S / seconds for when, seconds in self.samples
            if began - REFERENCE_NEAR_S <= when <= ended + REFERENCE_NEAR_S
        )


def run_timed(items, seconds: float, sampler: HostSampler) -> tuple[list, list]:
    """Run the items round-robin, untraced: every item once, then on while
    the next item, taking as long as its last run, would end within
    seconds; so the last pass is usually partial and the run overruns
    seconds only when the first pass does.  Returns, per item, the list of
    (began, ended, seconds of work by the sampler's clock) of its runs, and
    the mismatches."""
    runs = [[] for _ in items]
    failures = []
    start = time.perf_counter()
    k = 0
    while k < len(items) or (
        time.perf_counter() - start + runs[k % len(items)][-1][2] <= seconds
    ):
        item = items[k % len(items)]
        began = time.perf_counter()
        elapsed, errors = run_item(item, clock=sampler.clock)
        runs[k % len(items)].append((began, time.perf_counter(), elapsed))
        if errors:
            failures.append(f"{item.label}: " + "; ".join(errors))
        k += 1
    return runs, failures


def percentile(values: list, q: int) -> float:
    """q-th percentile (1..99) by the inclusive method of statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src",
        help="directory holding the genturan package (default: ../src)",
    )
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "genturan" / "__init__.py").is_file():
        print(f"error: no genturan package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2

    sampler = HostSampler()
    if not args.trace:
        sampler.start()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        began = time.perf_counter()
        elapsed, items = set_up(args.workload, args.seed, sampler.clock)
        setups.append((began, time.perf_counter(), elapsed))
    if not args.trace:
        sampler.stop()
    loaded = Path(sys.modules["genturan"].__file__).resolve()
    if src not in loaded.parents:
        print(f"error: genturan was loaded from {loaded}, not {src}", file=sys.stderr)
        return 2

    env = environment(args.seed, src)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        passes = run_traced_passes(items, args.seconds, tracer)
        traced_wall = sum(p["wall"] for p in passes)
        untraced_wall = sum(p["untraced_wall"] for p in passes)
        metrics = tracer.metrics(len(passes))
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "env": env,
                    "workload": args.workload,
                    "passes": len(passes),
                    "untraced_wall_s": untraced_wall / len(passes),
                    "traced_wall_s": traced_wall / len(passes),
                    "layers": tracer.layer_totals(),
                    "edges": tracer.edge_totals(),
                    "items": tracer.items,
                },
                fh,
            )
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        times = [t for p in passes for t in p["times"]]
        failures = [f for p in passes for f in p["failures"]]
        done = f"{len(passes)} pass(es)"
    else:
        sampler.start()
        runs, failures = run_timed(items, args.seconds, sampler)
        sampler.stop()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # one pass, each item at the median of its runs
        raw_wall = sum(statistics.median(r[2] for r in item_runs) for item_runs in runs)
        wall = sum(
            statistics.median(
                seconds * sampler.factor(began, ended) for began, ended, seconds in item_runs
            )
            for item_runs in runs
        )
        setup = statistics.median(
            seconds * sampler.factor(began, ended) for began, ended, seconds in setups
        )
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        times = [r[2] for item_runs in runs for r in item_runs]
        done = f"{len(times) / len(items):.3g} passes"
        reference_ms = statistics.median(r[1] for r in sampler.samples) * 1000.0
        print(
            f"  wall time of one pass {raw_wall:.6g} s, median set-up "
            f"{statistics.median(r[2] for r in setups):.6g} s; reference loop "
            f"{reference_ms:.4g} ms (median of {len(sampler.samples)}; "
            f"{REFERENCE_S * 1000:.4g} ms at the reference speed)"
        )

    attempted = len(times)
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(
        f"workload {args.workload}: {done} of {len(items)} items; "
        f"failed_share {len(failures) / attempted:.4g} ({len(failures)}/{attempted})"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if not args.trace:
        times_ms = [t * 1000.0 for t in times]
        print(
            f"  item latency over {len(times_ms)} samples: p50 "
            f"{percentile(times_ms, 50):.6g} ms, p99 {percentile(times_ms, 99):.6g} ms"
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
