#!/usr/bin/env python3
"""Benchmark cohkit end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload check-coherent --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; cohkit is imported from ./src and is
never installed.  Each workload is a closed loop: one process and one
thread issue one operation at a time.  A run repeats whole rounds of the
same operations (see workloads.py) until --seconds of operation time
have passed, checks every output against perfbench/reference.py, and
reports times adjusted for the host's speed (see calibrate).  It prints
as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the environment and the unadjusted figures.  An operation that fails
with the fault its workload names (known_fault) is counted in `failed`;
any other exception or wrong output makes `correct` false and the exit
code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = wl.ROOT
SRC = ROOT / "src"

SETUP_REPEATS = 3  # set-up is timed this many times; the median is reported
MIN_SAMPLES = 100  # whole rounds until op_p90_ms has ten samples beyond it
CALIBRATION_TERMS = 400
REFERENCE_CALIBRATION_S = 1e-3


def calibrate() -> float:
    """Seconds the host takes now for a fixed sum of Fractions.

    The host is shared, and its speed swings by up to a factor of two in
    phases from seconds to minutes.  The loop is pure-Python rational
    arithmetic, the kind of work cohkit does, and uses nothing of cohkit,
    so a change to cohkit leaves it alone.  The garbage collector is held
    off, so that the loop never pays for an operation's garbage."""
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, CALIBRATION_TERMS + 1):
            total += Fraction(1, i)
        return perf_counter() - start
    finally:
        gc.enable()


def adjusted(seconds: float, before: float, after: float) -> float:
    """`seconds` scaled to a host on which calibrate() takes
    REFERENCE_CALIBRATION_S, judged by the calibrations either side."""
    return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2)


def timed_setup(workload: str, seed: int, workdir: str):
    """Import cohkit, build the inputs and run one operation; adjusted
    seconds.  The first operation in a process imports scipy.optimize and
    more, about 0.8 s of lazy set-up, so it belongs here and not among
    the timed operations.  It is one of the first label in sorted order,
    a cheap one in every workload; the rounds check its output."""
    before = calibrate()
    start = perf_counter()
    import cohkit  # noqa: F401
    import cohkit.cli  # noqa: F401

    ops = wl.WORKLOADS[workload](seed, workdir)
    first = min(ops, key=lambda op: op.label)
    try:
        first.run()
    except Exception as exc:
        if type(exc).__name__ != first.known_fault:
            raise
    seconds = perf_counter() - start
    return adjusted(seconds, before, calibrate()), ops


def setup_probe(args) -> int:
    """Child entry: time one set-up in a fresh interpreter."""
    workdir = tempfile.mkdtemp(dir=run_dir())
    try:
        seconds, _ops = timed_setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def run_dir() -> Path:
    path = ROOT / ".perfbench_run"
    path.mkdir(exist_ok=True)
    return path


def measure_setup(args, workdir: str):
    """Median set-up time over SETUP_REPEATS (one when traced, whose
    figures do not include set-up), and the operations."""
    repeats = 1 if args.trace else SETUP_REPEATS
    seconds, ops = timed_setup(args.workload, args.seed, workdir)
    times = [seconds]
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1", "--trace", "0"]
    for _ in range(repeats - 1):
        out = subprocess.run(command, capture_output=True, text=True, check=True,
                             env=wl.child_env(), cwd=str(ROOT), timeout=120)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), ops


class Outcome:
    """Operation times, raw and adjusted, and failure bookkeeping."""

    def __init__(self):
        self.samples = []  # adjusted seconds of the operations that succeeded
        self.raw_samples = []
        self.adjusted = 0.0  # adjusted seconds of all operations
        self.busy = 0.0  # seconds of all operations
        self.calibrations = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.known = set()
        self.raw = None  # unadjusted end-to-end figures

    def record(self, op, seconds, before, after, result, error):
        self.attempted += 1
        self.busy += seconds
        scaled = adjusted(seconds, before, after)
        self.adjusted += scaled
        self.calibrations.append(after)
        if error is not None:
            self.failed += 1
            name = type(error).__name__
            if op.known_fault == name:
                self.known.add(f"{op.label}: {name}")
            else:
                self.problems.append(f"{op.label}: raised {name}: {error}")
            return
        try:
            problems = op.check(result)
        except Exception as exc:  # unreadable output is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{op.label}: {'; '.join(problems)}")
            return
        self.samples.append(scaled)
        self.raw_samples.append(seconds)


def run_round(ops, outcome: Outcome, call=None) -> float:
    """One pass over the operations, each between two calibrations;
    returns its operation time."""
    start_busy = outcome.busy
    before = calibrate()
    for index, op in enumerate(ops):
        start = perf_counter()
        try:
            result = call(index, op) if call else op.run()
            error = None
        except Exception as exc:  # every failure is counted, none ends the run
            result, error = None, exc
        seconds = perf_counter() - start
        after = calibrate()
        outcome.record(op, seconds, before, after, result, error)
        before = after
    return outcome.busy - start_busy


def enough(outcome: Outcome, seconds: float) -> bool:
    return outcome.busy >= seconds and outcome.attempted >= MIN_SAMPLES


def quantiles(samples):
    """(median, 90th percentile) in ms; no success at all leaves correct
    false, and 0.0 keeps the line printable."""
    samples = samples or [0.0]
    deciles = statistics.quantiles(samples, n=10) if len(samples) > 1 else samples * 9
    return statistics.median(samples) * 1e3, deciles[8] * 1e3


def end_to_end(args, ops, setup_s):
    """Whole rounds until --seconds of operation time have passed and at
    least MIN_SAMPLES operations were attempted.  Every time is adjusted
    for the host's speed (see calibrate); the raw figures are printed on
    the line before the result."""
    outcome = Outcome()
    while not enough(outcome, args.seconds):
        run_round(ops, outcome)
    p50, p90 = quantiles(outcome.samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(outcome.samples) / outcome.adjusted, "ops/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_p50, raw_p90 = quantiles(outcome.raw_samples)
    outcome.raw = {
        "calibration_ms": statistics.median(outcome.calibrations) * 1e3,
        "ops_per_s": len(outcome.samples) / outcome.busy,
        "op_p50_ms": raw_p50,
        "op_p90_ms": raw_p90,
    }
    return outcome, metrics


def traced(args, ops):
    """A warm-up round, then traced and untraced rounds in turn.  Counts
    come from the first traced round, times are means over traced rounds,
    and the overhead compares traced rounds with the untraced ones."""
    metrics = tracing.import_times(str(ROOT), wl.child_env())
    outcome = Outcome()
    run_round(ops, outcome)
    untraced_times, traced_times, per_round = [], [], []
    first_spans = None
    while not traced_times or outcome.busy < args.seconds:
        spans, seconds = traced_round(ops, outcome)
        traced_times.append(seconds)
        per_round.append(tracing.layer_metrics(spans, len(ops)))
        if first_spans is None:
            first_spans = spans
        untraced_times.append(run_round(ops, outcome))
    for name, (value, unit) in per_round[0].items():
        if unit == "s":
            value = statistics.fmean(r[name][0] for r in per_round)
        metrics[name] = (value, unit)
    overhead = statistics.fmean(traced_times) - statistics.fmean(untraced_times)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100 * overhead / statistics.fmean(untraced_times), "%")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracing.dump_spans(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"),
                       first_spans, {"workload": args.workload, "seed": args.seed,
                                     "environment": environment()})
    return outcome, metrics


def traced_round(ops, outcome: Outcome):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seconds = run_round(ops, outcome, lambda i, op: tracer.op_span(i, op.run))
    finally:
        tracer.uninstall()
    return tracer.spans, seconds


def environment() -> dict:
    import cohkit.lp
    import cohkit.rationals

    kernel = getattr(cohkit.lp, "kernel_name", None)
    digest = hashlib.sha256()
    for path in sorted((SRC / "cohkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "rational_backend": getattr(cohkit.rationals, "BACKEND", "unknown"),
        "lp_kernel": kernel() if callable(kernel) else "unknown",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohkit" / "__init__.py").is_file():
        print(f"error: no cohkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    workdir = tempfile.mkdtemp(dir=run_dir())
    try:
        setup_s, ops = measure_setup(args, workdir)
        if args.trace:
            outcome, metrics = traced(args, ops)
        else:
            outcome, metrics = end_to_end(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in sorted(outcome.known):
        print(f"known fault: {line}", file=sys.stderr)
    for line in outcome.problems:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not outcome.problems
    info = {"environment": environment()}
    if outcome.raw is not None:
        info["unadjusted"] = outcome.raw
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
