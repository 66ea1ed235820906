"""Set-up, rounds and statistics for one benchmark run (see run.py)."""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import checks
import workloads
from tracer import Tracer

# set-ups before the warm-up; a trace-0 run sets up once more after every round,
# so that the set-up samples span the run like the rounds do
SETUPS_AT_START = 3
MAX_ERRORS_SHOWN = 20
# fresh matrices per size for the eigensolver's per-call time in traced runs
EIG_PROBES = ((4, 200), (8, 60), (16, 12))
END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "instance_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (tracer layer, what to report)
LAYER_METRICS = {
    "spectral.eig_calls": ("spectral.eig", "calls"),
    "spectral.eig_ms": ("spectral.eig", "ms"),
    "spectral.matrix_new_calls": ("spectral.matrix_new", "calls"),
    "spectral.matrix_new_ms": ("spectral.matrix_new", "ms"),
    "spectral.loewner_calls": ("spectral.loewner", "calls"),
    "spectral.loewner_ms": ("spectral.loewner", "ms"),
    "functions.constants_calls": ("functions.constants", "calls"),
    "functions.constants_ms": ("functions.constants", "ms"),
    "maps.apply_calls": ("maps.apply", "calls"),
    "maps.apply_ms": ("maps.apply", "ms"),
    "bounds.context_ms": ("bounds.context", "ms"),
    "bounds.chord_ms": ("bounds.chord", "ms"),
    "bounds.jensen_ms": ("bounds.jensen", "ms"),
    "bounds.ratio_ms": ("bounds.ratio", "ms"),
    "bounds.refined_ms": ("bounds.refined", "ms"),
    "bounds.power_chain_ms": ("bounds.power_chain", "ms"),
    "bounds.kantorovich_ms": ("bounds.kantorovich", "ms"),
    "perspectives.pair_ms": ("perspectives.pair", "ms"),
    "perspectives.perspective_ms": ("perspectives.perspective", "ms"),
    "perspectives.commutation_ms": ("perspectives.commutation", "ms"),
    "perspectives.entropy_ms": ("perspectives.entropy", "ms"),
    "perspectives.trace_ms": ("perspectives.trace", "ms"),
    "perspectives.floor_ms": ("perspectives.floor", "ms"),
    "verifier.generate_ms": ("verifier.generate", "ms"),
    "verifier.campaign_self_ms": ("verifier.campaign", "ms"),
    "cli.render_ms": ("cli.render", "ms"),
    "cli.csv_ms": ("cli.csv", "ms"),
    "cli.load_ms": ("cli.load", "ms"),
    "cli.main_self_ms": ("cli.main", "ms"),
}
UNITS = {"calls": "count/op", "ms": "ms/op"}


class Tally:
    """Operations attempted and failed over every round, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result: workloads.RoundResult) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += result.errors


def fresh_import():
    """Import opineq from source with its module bodies run again."""
    for name in [n for n in sys.modules if n == "opineq" or n.startswith("opineq.")]:
        del sys.modules[name]
    return importlib.import_module("opineq"), importlib.import_module("opineq.cli")


def set_up(name: str, seed: int, workdir: str):
    """A fresh import plus the workload's inputs, built in memory.

    Writing the input files is left out of the time: on a shared disk,
    writing the same 196 small files took from 13 to 166 ms, which says
    nothing about opineq.  The caller writes them for the one workload it keeps.
    """
    start = time.perf_counter()
    opineq, cli = fresh_import()
    workload = workloads.make_workload(name, opineq, cli, seed, workdir)
    return workload, time.perf_counter() - start


def timed_rounds(workload, budget: float, tally: Tally, timed_replays: bool = False, on_round=None):
    """Whole rounds until ``budget`` seconds have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget:
        if on_round is not None:
            on_round(len(rounds))
        result = workload.run_round(timed_replays)
        tally.add(result)
        rounds.append(result)
        if on_round is not None:
            on_round(None)
    return rounds


def unit_times(rounds) -> list[float]:
    """Time of each operation unit (cell or instance): its upper quartile over the rounds.

    On a shared host one thread runs at one steady speed most of the time and,
    in bursts of a few seconds, up to twice as fast.  How many bursts a run
    catches varies, so a unit's median over rounds jumps between the two
    speeds from run to run; its upper quartile stays with the steady one.
    """
    columns = [list(times) for times in zip(*(r.op_times for r in rounds))]
    if len(rounds) == 1:
        return [times[0] for times in columns]
    return [statistics.quantiles(times, n=4, method="inclusive")[2] for times in columns]


def end_to_end(workload, rounds, setup_s: float) -> dict:
    times = unit_times(rounds)
    sizes = workload.unit_sizes
    per_op_ms = [1000.0 * t / k for t, k in zip(times, sizes)]
    return {
        "setup_s": setup_s,
        "instances_per_s": sum(sizes) / sum(times),
        "instance_ms_p50": statistics.median(per_op_ms),
        "instance_ms_p90": statistics.quantiles(per_op_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def eig_probe(workload, seed: int, tally: Tally) -> dict:
    """Median microseconds per eigendecompose of a fresh matrix, by size."""
    oq = workload.oq
    rng = np.random.default_rng([seed, 3])
    out = {}
    for n, count in EIG_PROBES:
        times = []
        for _ in range(count):
            a = workloads.random_symmetric(rng, n, -3.0, 3.0)
            matrix = oq.SymmetricMatrix(a)
            start = time.perf_counter()
            dec = oq.eigendecompose(matrix)
            times.append(time.perf_counter() - start)
            tally.errors += checks.check_spectrum(a, dec.eigenvalues)
        out[f"spectral.eig_us_n{n}"] = 1e6 * statistics.median(times)
    return out


def traced(workload, seed: int, seconds: float, tally: Tally, results_dir: str) -> dict:
    """Untraced rounds, then traced rounds; per-layer figures per operation."""
    plain = timed_rounds(workload, seconds / 2.0, tally)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    snapshots = []

    def on_round(index):
        if index is None:
            snapshots.append(tracer.snapshot())
        else:
            tracer.reset_counts()
            tracer.keep_spans = index == 0

    traced_rounds = timed_rounds(workload, seconds / 2.0, tally, timed_replays=True, on_round=on_round)
    workload.tracer = None
    ops = workload.operations_per_round
    metrics = {}
    for metric, (layer, kind) in LAYER_METRICS.items():
        if kind == "calls":
            metrics[metric] = snapshots[-1][layer]["calls"] / ops
        else:
            metrics[metric] = statistics.median(1000.0 * s[layer]["self_s"] / ops for s in snapshots)
    metrics["bounds.skips"] = snapshots[-1]["skips"] / ops
    replays = [t for r in traced_rounds for t in r.replay_seconds]
    metrics["verifier.replay_us"] = 1e6 * statistics.median(replays) if replays else 0.0
    metrics.update(eig_probe(workload, seed, tally))
    plain_s = statistics.median(sum(r.op_times) for r in plain)
    traced_s = statistics.median(sum(r.op_times) for r in traced_rounds)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    tracer.write_spans(os.path.join(results_dir, f"spans-{workload.name}-seed{seed}.csv"))
    return metrics


def per_layer_units() -> dict:
    units = {metric: UNITS[kind] for metric, (_, kind) in LAYER_METRICS.items()}
    units["bounds.skips"] = "count/op"
    units["verifier.replay_us"] = "us"
    units.update({f"spectral.eig_us_n{n}": "us" for n, _ in EIG_PROBES})
    units["trace.overhead_pct"] = "%"
    return units


def run(name: str, seed: int, seconds: float, trace: bool, results_dir: str) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=results_dir)
    try:
        setup_times = []
        for _ in range(SETUPS_AT_START):
            workload, elapsed = set_up(name, seed, workdir)
            setup_times.append(elapsed)
        workload.write_inputs()
        tally = Tally()
        tally.add(workload.run_round())  # warm-up, checked but not timed
        if trace:
            values = traced(workload, seed, seconds, tally, results_dir)
            units = per_layer_units()
        else:
            def set_up_again(index):
                if index is None:  # after a round; the workload keeps its own modules
                    setup_times.append(set_up(name, seed, workdir)[1])

            set_up_again(None)
            rounds = timed_rounds(workload, seconds, tally, on_round=set_up_again)
            values = end_to_end(workload, rounds, statistics.median(setup_times))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "errors": tally.errors,
    }


def report(result: dict, args, results_dir: str) -> None:
    errors = result.pop("errors")
    for line in errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"... {len(errors) - MAX_ERRORS_SHOWN} more", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    line = json.dumps(result)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        handle.write(line + "\n")
    print(line)
