"""Measurement loop, metrics and output of the benchmark; bench/run.py is the
entry point."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hsplab
from hsplab import BudgetExhausted, CapExceeded, PromiseViolation
from spans import Tracer, install, layer_metrics
from workloads import WORKLOADS, CliExit, WrongAnswer, max_solved

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hsplab; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description="hsplab benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fingerprint(seed: int) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dimension_cap": hsplab.dimension_cap(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def import_seconds() -> float:
    """Time to import hsplab in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


class Checker:
    """Checks each answer against its reference and against the operation's
    first answer and query count, across every loop of the run."""

    def __init__(self, ops, expected) -> None:
        self.ops = ops
        self.expected = expected
        self.first: dict[int, tuple] = {}

    def check(self, i: int, answer, queries) -> None:
        op = self.ops[i]
        if not op.matches(answer, self.expected[i]):
            raise WrongAnswer(f"{op.label}: answer {answer!r} disagrees with reference {self.expected[i]!r}")
        record = (answer, queries)
        if self.first.setdefault(i, record) != record:
            raise WrongAnswer(f"{op.label}: answer or query count differs from its first run")


@dataclass
class Loop:
    """Samples of one closed loop, accumulated over whole passes."""

    by_op: dict[int, list[float]] = field(default_factory=dict)  # latencies
    failures: Counter = field(default_factory=Counter)
    queries: dict[int, int | None] = field(default_factory=dict)
    attempted: int = 0
    pass_seconds: list[float] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [t for times in self.by_op.values() for t in times]

    @property
    def solves(self) -> int:
        return sum(len(times) for times in self.by_op.values())

    @property
    def elapsed(self) -> float:
        return sum(self.pass_seconds)

    @property
    def solves_per_s(self) -> float:
        """Operations a pass over the median pass time, so that a neighbour's
        burst of load slows one pass, not the figure."""
        return (self.solves / len(self.pass_seconds)) / statistics.median(self.pass_seconds)

    @property
    def queries_per_solve(self) -> float:
        counted = [q for q in self.queries.values() if q is not None]
        return sum(counted) / len(counted) if counted else float("nan")

    def run_pass(self, ops, checker: Checker, tracer=None) -> None:
        """Run every operation once, one at a time; with a tracer, each
        operation is a root span."""
        start = perf_counter()
        for i, op in enumerate(ops):
            self.attempted += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    answer, queries = op.run()
                else:
                    with tracer.operation(i):
                        answer, queries = op.run()
            except (BudgetExhausted, PromiseViolation, ValueError, CliExit) as exc:
                self.failures[failure_class(exc)] += 1
                continue
            self.by_op.setdefault(i, []).append(perf_counter() - t0)
            checker.check(i, answer, queries)
            self.queries.setdefault(i, queries)
        self.pass_seconds.append(perf_counter() - start)


def failure_class(exc) -> str:
    if isinstance(exc, CliExit):
        # the CLI reports a dimension-cap hit as a config error (exit 2)
        if exc.code == 1:
            return "BudgetExhausted/PromiseViolation (exit 1)"
        return "CapExceeded (exit 2)" if "exceeds cap" in exc.message else "ValueError/exit 2"
    for cls in (BudgetExhausted, PromiseViolation, CapExceeded):
        if isinstance(exc, cls):
            return cls.__name__
    return "ValueError/exit 2"


def declared(section: str, values: dict[str, float]) -> dict:
    """The metrics as the result line carries them, with units from
    BENCHMARK.json; a metric missing from either side is a bug here."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(units) != set(values):
        raise RuntimeError(f"{section} mismatch: {sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def tail(latencies: list[float], wanted: float) -> tuple[float, float, int]:
    """(percentile, latency, samples beyond): the workload's percentile, or
    the highest below it that still has at least ten samples beyond it."""
    lat = np.asarray(latencies)
    for q in sorted((p for p in PERCENTILES if p <= wanted), reverse=True):
        value = float(np.percentile(lat, q))
        beyond = int((lat > value).sum())
        if beyond >= 10 or q == PERCENTILES[0]:
            return q, value, beyond
    raise AssertionError("unreachable")


def end_to_end(workload, ops, checker, setup_times, seconds, seed, record) -> dict:
    loop = Loop()
    while not (loop.elapsed >= seconds and loop.solves >= workload.min_samples
               or loop.elapsed >= 4 * seconds):
        loop.run_pass(ops, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ladder = workload.ladder()

    latencies = loop.latencies
    q, tail_s, beyond = tail(latencies, workload.tail_percentile)
    failed = sum(loop.failures.values())
    metrics = declared("end_to_end", {
        "solves_per_s": loop.solves_per_s,
        "solve_p50_ms": statistics.median(latencies) * 1e3,
        "solve_tail_ms": tail_s * 1e3,
        "queries_per_solve": loop.queries_per_solve,
        "peak_rss_mb": peak_rss_mb,
        "max_size_solved": float(max_solved(ladder)),
        "setup_s": statistics.median(setup_times),
    })
    notes = {
        "solve_tail_ms": f"p{q:g} over {len(latencies)} samples, {beyond} beyond",
        "max_size_solved": f"ladder {workload.ladder_name}: "
        + ", ".join(f"{size} {outcome}" for size, outcome in ladder),
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times),
    }
    print(f"workload {workload.name}: {len(ops)} operations a pass, {len(loop.pass_seconds)} passes, "
          f"{len(latencies)} solves in {loop.elapsed:.2f} s")
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  {'fail_rate':<18} {failed / loop.attempted:>14.6g} ratio  "
          f"{failed} of {loop.attempted} attempted {dict(loop.failures)}")
    if workload.probe is not None:
        outcome = workload.probe(seed)
        print(f"  known defect: {outcome}")
        record["known_defect"] = outcome
    record.update(tail_percentile=q, tail_samples=len(latencies), tail_beyond=beyond,
                  failures=dict(loop.failures), pass_seconds=loop.pass_seconds,
                  ladder=ladder, setup_times=setup_times,
                  op_median_ms={ops[i].label: statistics.median(v) * 1e3 for i, v in loop.by_op.items()})
    return {
        "correct": True, "attempted": loop.attempted, "failed": failed,
        "metrics": metrics,
    }


def traced(workload, seed, seconds, record) -> dict:
    tracer = Tracer()
    tracer.anchor_here()
    uninstall = install(tracer)
    try:
        tracer.phase = "setup"
        ops = workload.setup(seed)
        tracer.phase = "reference"
        expected = [op.reference() for op in ops]
    finally:
        uninstall()
    checker = Checker(ops, expected)
    # alternate untraced and traced passes, so both see the same machine state
    plain, with_spans = Loop(), Loop()
    tracer.phase = "loop"
    while min(plain.elapsed, with_spans.elapsed) < seconds / 2:
        plain.run_pass(ops, checker)
        uninstall = install(tracer)
        try:
            with_spans.run_pass(ops, checker, tracer)
        finally:
            uninstall()
    if plain.queries != with_spans.queries or plain.queries_per_solve != with_spans.queries_per_solve:
        raise WrongAnswer("query counts differ between the untraced and the traced loop")

    values = layer_metrics(tracer, with_spans.attempted, len(ops), setups=1)
    values["trace.solves_per_s_untraced"] = plain.solves_per_s
    values["trace.solves_per_s_traced"] = with_spans.solves_per_s
    values["trace.slowdown"] = plain.solves_per_s / with_spans.solves_per_s
    metrics = declared("per_layer", values)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload.name}-seed{seed}.spans.jsonl.gz"
    tracer.dump(span_file)

    print(f"workload {workload.name} traced: {len(ops)} operations a pass; untraced {len(plain.pass_seconds)} "
          f"passes at {plain.solves_per_s:.4g}/s, traced {len(with_spans.pass_seconds)} passes at "
          f"{with_spans.solves_per_s:.4g}/s (slowdown {values['trace.slowdown']:.3f}x); answers and "
          f"queries_per_solve {plain.queries_per_solve:.6g} identical; {len(tracer.spans)} spans "
          f"written to {span_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    failures = plain.failures + with_spans.failures
    record.update(failures=dict(failures), queries_per_solve=plain.queries_per_solve)
    return {
        "correct": True,
        "attempted": plain.attempted + with_spans.attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    fp = fingerprint(args.seed)
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds, "fingerprint": fp}
    try:
        if args.trace:
            result = traced(workload, args.seed, args.seconds, record)
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t_import = import_seconds()
                t0 = perf_counter()
                ops = workload.setup(args.seed)
                setup_times.append(t_import + perf_counter() - t0)
            t0 = perf_counter()
            expected = [op.reference() for op in ops]
            print(f"references: {len(ops)} answers from the brute-force oracles in {perf_counter() - t0:.3f} s")
            result = end_to_end(workload, ops, Checker(ops, expected), setup_times, args.seconds, args.seed, record)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 3
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0
