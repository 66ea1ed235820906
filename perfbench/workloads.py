"""The benchmark's workloads: their inputs, one round of operations, and checks.

A workload is a fixed list of operations built from the run's seed.  One
round runs every operation once and times each on its own; the checks in
``checks.py`` then look at that round's outputs.  An operation is one
campaign trial (the campaign workloads) or one checked instance
(``instance_check``).

Both campaign workloads split their trials into cells.  A cell fixes the
dimension, the map and the function and runs a campaign of a few trials
through the ``opineq fuzz`` path: ``run_campaign``, then ``render_json``
written to a file, then ``write_csv``.  Every seed gets the same cells, so two
seeds differ in the numbers drawn and not in the mix of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import checks

CAMPAIGN_MAPS = ("corner", "vecstate", "trace", "pinching")
CHECK_MAPS = ("corner", "trace", "identity", "vecstate")
# "kantorovich" runs the CLI's kantorovich subcommand, the power:-1 preset
CHECK_FUNCTIONS = ("power:3", "power:4", "kantorovich", "log", "exp", "tsallis_f:0.5", "tsallis_g:-0.5")
CHECK_DIMS = range(2, 9)
SPECTRUM_SAMPLES_PER_DIM = 2


@dataclass(frozen=True)
class Cell:
    dim: int
    map_tag: str
    function: str
    trials: int
    seed: int


def cell_seed(seed: int, index: int) -> int:
    return (seed << 20) | index


def lowdim_cells(seed: int, functions) -> list[Cell]:
    """Dims 2..4 x the four campaign maps x two functions in rotation, 12 trials each."""
    cells = []
    for dim in (2, 3, 4):
        for tag in CAMPAIGN_MAPS:
            for _ in range(2):
                index = len(cells)
                cells.append(Cell(dim, tag, functions[index % len(functions)], 12, cell_seed(seed, index)))
    return cells


def highdim_cells(seed: int, functions) -> list[Cell]:
    """Ten single-trial cells; dims 12..16 twice each, maps and functions in rotation."""
    return [
        Cell(12 + i % 5, CAMPAIGN_MAPS[i % 4], functions[i % len(functions)], 1, cell_seed(seed, i))
        for i in range(10)
    ]


def random_symmetric(rng: np.random.Generator, dim: int, lo: float, hi: float) -> np.ndarray:
    """Q diag(spectrum) Q^T with the spectrum uniform in (lo, hi), exactly symmetric."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    a = (q * rng.uniform(lo, hi, dim)) @ q.T
    return (a + a.T) / 2.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RoundResult:
    """What one round produced: per-operation times and the checks' verdict."""

    def __init__(self):
        self.op_times: list[float] = []  # one entry per timed unit (cell or instance)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.replay_seconds: list[float] = []


class Workload:
    name = ""

    def __init__(self, opineq, cli, seed: int, workdir: str):
        self.oq = opineq
        self.cli = cli
        self.workdir = workdir
        self.reference: dict = {}  # digests of the first round's outputs
        self.tracer = None  # set by a traced run; spans are recorded only inside operations
        self.input_files: list[tuple[str, str]] = []  # (path, text) for write_inputs

    def write_inputs(self) -> None:
        """Write the input files the operations read; set-up time leaves this out."""
        for path, text in self.input_files:
            with open(path, "w") as handle:
                handle.write(text)

    def run_operation(self, fn, *args):
        """(result or the exception raised, seconds) for one timed operation."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            result = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        return result, elapsed

    # -- shared checks -------------------------------------------------------
    def spectrum_errors(self, matrices) -> list[str]:
        errors = []
        for a in matrices:
            try:
                dec = self.oq.eigendecompose(self.oq.SymmetricMatrix(a))
            except Exception as exc:  # the program failing a check is a wrong answer
                errors.append(f"eigendecompose raised {type(exc).__name__}: {exc}")
                continue
            errors += checks.check_spectrum(a, dec.eigenvalues)
        return errors

    def worked_example_errors(self) -> list[str]:
        try:
            return self._worked_example_errors()
        except Exception as exc:  # the program failing a check is a wrong answer
            return [f"worked examples raised {type(exc).__name__}: {exc}"]

    def _worked_example_errors(self) -> list[str]:
        oq = self.oq
        cube = oq.SymmetricMatrix(checks.WORKED_EXAMPLES["cube_matrix"])
        state = oq.VectorState(np.full(3, 3.0**-0.5))
        ctx = oq.build_context(cube, state, oq.catalog_lookup("power", [3]), m=0.25, M=3.8)
        kant = oq.improved_kantorovich(
            oq.SymmetricMatrix(checks.WORKED_EXAMPLES["kantorovich_matrix"]),
            oq.NormalizedTrace(2), m=2.0, M=8.0,
        )
        phi_inv = kant.phi_inv.as_scalar()
        return checks.check_worked_examples({
            "cube_f_phi_A": ctx.f_phi_A.as_scalar(),
            "cube_phi_fA": ctx.phi_fA.as_scalar(),
            "classical_gap": kant.classical_rhs.as_scalar() - phi_inv,
            "improved_gap": kant.improved_rhs.as_scalar() - phi_inv,
        })

    def same_as_first(self, key, data: bytes) -> bool:
        return self.reference.setdefault(key, digest(data)) == digest(data)


class CampaignWorkload(Workload):
    """Campaign cells through run_campaign -> render_json -> write_csv."""

    def __init__(self, opineq, cli, seed, workdir, cells_for):
        super().__init__(opineq, cli, seed, workdir)
        functions = opineq.TrialSpec().function_set
        self.cells = cells_for(seed, functions)
        self.specs = [
            opineq.TrialSpec(seed=c.seed, dim_range=(c.dim, c.dim), trials=c.trials,
                             function_set=(c.function,), map_set=(c.map_tag,))
            for c in self.cells
        ]
        for spec in self.specs:
            spec.validate()
        rng = np.random.default_rng([seed, 2])
        dims = sorted({c.dim for c in self.cells})
        self.spectrum_sample = [
            random_symmetric(rng, d, -3.0, 3.0) for d in dims for _ in range(SPECTRUM_SAMPLES_PER_DIM)
        ]
        self.json_path = os.path.join(workdir, "report.json")
        self.csv_path = os.path.join(workdir, "rows.csv")

    @property
    def operations_per_round(self) -> int:
        return sum(c.trials for c in self.cells)

    @property
    def unit_sizes(self) -> list[int]:
        return [c.trials for c in self.cells]

    def run_cell(self, spec):
        report = self.oq.run_campaign(spec)
        text = self.cli.render_json(report.to_dict())
        with open(self.json_path, "w") as handle:
            handle.write(text + "\n")
        report.write_csv(self.csv_path)
        return report, text

    def run_round(self, timed_replays: bool = False) -> RoundResult:
        out = RoundResult()
        seen_labels = set()
        floor_matrices = []
        for index, (cell, spec) in enumerate(zip(self.cells, self.specs)):
            out.attempted += cell.trials
            result, elapsed = self.run_operation(self.run_cell, spec)
            out.op_times.append(elapsed)
            if isinstance(result, Exception):
                out.failed += cell.trials
                out.errors.append(f"cell {index}: {type(result).__name__}: {result}")
                continue
            report, text = result
            with open(self.csv_path, "rb") as handle:
                csv_bytes = handle.read()
            # fresh files each time: rewriting a file in place can trigger writeback
            os.remove(self.json_path)
            os.remove(self.csv_path)
            bad_trials, errors = self.check_report(index, report, text, csv_bytes, out, timed_replays)
            seen_labels.update(report.aggregates)
            floor_matrices += [
                np.array(f["inputs"]["rho"]).reshape(f["dim"], f["dim"])
                for f in report.failures if f["label"] in checks.FLOOR_LABELS
            ]
            out.failed += len(bad_trials)
            out.errors += errors
        out.errors += checks.check_coverage(seen_labels, self.oq.registered_inequalities())
        out.errors += self.spectrum_errors(self.spectrum_sample + floor_matrices)
        out.errors += self.worked_example_errors()
        return out

    def check_report(self, index, report, text, csv_bytes, out, timed_replays):
        """(trials whose output is wrong, error messages) for one cell's report."""
        errors = []
        whole_cell = set(range(report.spec.trials))
        if self.cli.parse_json(text) != report.to_dict():
            errors.append(f"cell {index}: parse_json(render_json(report)) != report.to_dict()")
        if not (self.same_as_first((index, "json"), text.encode())
                and self.same_as_first((index, "csv"), csv_bytes)):
            errors.append(f"cell {index}: report bytes differ from the first round")
        if errors:
            return whole_cell, errors
        bad = set()
        agg_errors = checks.check_campaign_aggregates(report.aggregates)
        if agg_errors:
            floors = checks.FLOOR_LABELS
            bad |= {row[1] for row in report.rows if not row[4] and row[0] not in floors}
            errors += [f"cell {index}: {e}" for e in agg_errors]
        for record in report.failures:
            try:
                problems = self.check_failure_record(record, out, timed_replays)
            except Exception as exc:  # a record the checks cannot read is a wrong answer
                problems = [f"{record.get('label')}: {type(exc).__name__}: {exc}"]
            if problems:
                bad.add(record.get("trial"))
                errors += [f"cell {index}: {p}" for p in problems]
        return bad, errors

    def check_failure_record(self, record, out, timed_replays) -> list[str]:
        problems = []
        if record["label"] in checks.FLOOR_LABELS:
            problems += checks.check_floor_record(record)
        start = time.perf_counter()
        replayed = self.oq.replay_failure(record)
        if timed_replays:
            out.replay_seconds.append(time.perf_counter() - start)
        if replayed != record["slack"]:
            problems.append(f"{record['label']}: replay gives {replayed!r}, recorded {record['slack']!r}")
        return problems


@dataclass(frozen=True)
class Instance:
    argv: tuple
    matrix: np.ndarray
    map_tag: str
    vector: np.ndarray | None
    function: str


class InstanceCheckWorkload(Workload):
    """One ``opineq check --json`` at a time on matrix files written before the rounds."""

    def __init__(self, opineq, cli, seed, workdir):
        super().__init__(opineq, cli, seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.instances = []
        index = 0
        for dim in CHECK_DIMS:
            for tag in CHECK_MAPS:
                for function in CHECK_FUNCTIONS:
                    self.instances.append(self._make_instance(rng, index, dim, tag, function))
                    index += 1

    def _make_instance(self, rng, index, dim, tag, function) -> Instance:
        m = 0.3 + 1.2 * rng.uniform()
        M = m + 0.5 + 2.5 * rng.uniform()
        a = random_symmetric(rng, dim, m, M)
        path = os.path.join(self.workdir, f"A{index}.json")
        self.input_files.append((path, json.dumps({"dim": dim, "data": a.reshape(-1).tolist()})))
        vector = None
        map_arg = tag
        if tag == "vecstate":
            vector = rng.standard_normal(dim)
            vector /= np.linalg.norm(vector)
            vec_path = os.path.join(self.workdir, f"v{index}.json")
            self.input_files.append((vec_path, json.dumps({"dim": dim, "data": vector.tolist()})))
            map_arg = f"vecstate:{vec_path}"
        if function == "kantorovich":
            argv = ["kantorovich", "--matrix", path, "--map", map_arg, "--json"]
            function = "power:-1"
        else:
            argv = ["check", "--matrix", path, "--map", map_arg, "--function", function, "--json"]
        if index % 2:  # every other instance names an interval wider than its spectrum
            argv += ["--m", repr(m), "--M", repr(M)]
        return Instance(tuple(argv), a, tag, vector, function)

    @property
    def operations_per_round(self) -> int:
        return len(self.instances)

    @property
    def unit_sizes(self) -> list[int]:
        return [1] * len(self.instances)

    def run_round(self, timed_replays: bool = False) -> RoundResult:
        out = RoundResult()
        outputs = []
        for inst in self.instances:
            out.attempted += 1
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code, elapsed = self.run_operation(self.cli.main, list(inst.argv))
            out.op_times.append(elapsed)
            outputs.append((inst, code, buffer.getvalue()))
        for index, (inst, code, text) in enumerate(outputs):
            try:
                errors = self.check_output(index, inst, code, text)
            except Exception as exc:  # output the checks cannot read is a wrong answer
                errors = [f"instance {index}: {type(exc).__name__}: {exc}"]
            if errors:
                out.failed += 1
                out.errors += errors
        out.errors += self.spectrum_errors(inst.matrix for inst in self.instances)
        out.errors += self.worked_example_errors()
        return out

    def check_output(self, index, inst, code, text) -> list[str]:
        if isinstance(code, Exception):
            return [f"instance {index}: {type(code).__name__}: {code}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"instance {index}: output is not JSON ({exc})"]
        errors = checks.check_instance_report(
            inst.matrix, inst.map_tag, inst.vector, inst.function, payload, code
        )
        if self.cli.render_json(payload) != text.rstrip("\n"):
            errors.append("render_json(parse_json(output)) differs from the output")
        if not self.same_as_first(index, text.encode()):
            errors.append("output bytes differ from the first round")
        return [f"instance {index} ({' '.join(inst.argv[:1])} {inst.function} "
                f"{inst.map_tag} dim {inst.matrix.shape[0]}): {e}" for e in errors]


def make_workload(name: str, opineq, cli, seed: int, workdir: str) -> Workload:
    if name == "campaign_lowdim":
        workload = CampaignWorkload(opineq, cli, seed, workdir, lowdim_cells)
    elif name == "campaign_highdim":
        workload = CampaignWorkload(opineq, cli, seed, workdir, highdim_cells)
    elif name == "instance_check":
        workload = InstanceCheckWorkload(opineq, cli, seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    workload.name = name
    return workload


WORKLOADS = ("campaign_lowdim", "campaign_highdim", "instance_check")
