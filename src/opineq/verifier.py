"""Seeded random instances and fuzz campaigns over every registered inequality.

Each trial derives its own SplitMix64 stream from (campaign seed, trial
index), draws one operator instance plus one sandwich pair and two density
operators, and evaluates every registered comparison whose preconditions
hold.  Slack is the signed minimum eigenvalue of RHS - LHS; slack below
-tolerance*(1+scale) counts as a failure and is stored with a full
reproducer record.  Trials are independent, so they could run in parallel
as long as the per-trial seeds come from ``derive_seed``; this
implementation runs them serially, which already makes reports
byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    ChainReport,
    InequalityReport,
    build_context,
    chord_bounds,
    improved_kantorovich,
    jensen_converse_bound,
    jensen_third_term,
    jensen_upper_bound,
    power_function_chain,
    ratio_sandwich,
    ratio_sandwich_min,
    refined_sandwich_chain,
)
from .errors import BadParameter, NonPositiveFunction, NotStrictlyConvex
from .functions import parse_function_spec
from .maps import (
    CongruenceMixture,
    NormalizedTrace,
    Pinching,
    VectorState,
    corner_map,
    identity_map,
)
from .perspectives import (
    DensityOperator,
    OperatorPair,
    map_commutation_bounds,
    perspective_bounds,
    quantum_tsallis_lower_bound,
    relative_entropy_bounds,
    tsallis_entropy_bounds,
    tsallis_trace_bounds,
    von_neumann_lower_bound,
)
from .rng import SplitMix64, derive_seed
from .spectral import SymmetricMatrix, eigendecompose, matrix_sqrt_inv_sqrt

__all__ = [
    "TrialSpec",
    "CampaignReport",
    "registered_inequalities",
    "random_orthogonal",
    "random_symmetric_with_spectrum",
    "random_density",
    "random_sandwich_pair",
    "run_campaign",
    "replay_failure",
]

DEFAULT_FUNCTIONS = (
    "power:3",
    "power:4",
    "power:-1",
    "log",
    "tsallis_f:0.5",
    "tsallis_f:-0.5",
    "exp",
)
DEFAULT_MAPS = ("corner", "vecstate", "trace", "pinching")
POWER_CHAIN_RS = (-2.0, -1.0, 0.5, 2.0, 3.0)
TSALLIS_PS = (0.5, -0.5, 1.0, -1.0)
DENSITY_EIGENVALUE_FLOOR = 1e-3
# Campaign size limits.  A trial at dim 32 takes seconds; a spec such as
# dims 2..10000 would run for hours, so it is rejected before the first trial.
MAX_DIM = 32
MAX_TRIALS = 10_000


@dataclass(frozen=True)
class TrialSpec:
    """Campaign parameters; identical specs produce identical reports."""

    seed: int = 42
    dim_range: tuple[int, int] = (2, 8)
    trials: int = 200
    function_set: tuple[str, ...] = DEFAULT_FUNCTIONS
    map_set: tuple[str, ...] = DEFAULT_MAPS
    tolerance: float = 1e-8

    def validate(self) -> None:
        if not 1 <= self.trials <= MAX_TRIALS:
            raise BadParameter(f"trials must be between 1 and {MAX_TRIALS}, got {self.trials}")
        lo, hi = self.dim_range
        if not 2 <= lo <= hi <= MAX_DIM:
            raise BadParameter(
                f"bad dimension range {self.dim_range!r}: need 2 <= lo <= hi <= {MAX_DIM}"
            )
        if self.tolerance <= 0.0:
            raise BadParameter("tolerance must be positive")
        if not self.function_set or not self.map_set:
            raise BadParameter("function and map sets must be nonempty")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dim_range": [self.dim_range[0], self.dim_range[1]],
            "trials": self.trials,
            "function_set": list(self.function_set),
            "map_set": list(self.map_set),
            "tolerance": self.tolerance,
        }


def registered_inequalities(spec: TrialSpec | None = None) -> tuple[str, ...]:
    """Labels the default campaign must exercise (registry for coverage checks)."""
    return (
        "chord_upper_image",
        "chord_lower_image",
        "chord_upper_jensen",
        "chord_lower_jensen",
        "jensen_upper",
        "jensen_converse",
        "ratio_lower",
        "ratio_upper",
        "ratio_min_lower",
        "ratio_min_upper",
        "refined_chain",
        *(f"power_chain[r={r:g}]" for r in POWER_CHAIN_RS),
        "improved_kantorovich",
        "kantorovich_improvement_psd",
        "perspective_lower",
        "perspective_upper",
        "map_commutation_lower",
        "map_commutation_upper",
        "tsallis_operator_lower",
        "tsallis_operator_upper",
        "relative_entropy_lower",
        "relative_entropy_upper",
        "tsallis_trace_lower",
        "tsallis_trace_upper",
        "tsallis_relative_upper",
        "quantum_tsallis_floor",
        "von_neumann_floor",
    )


def random_orthogonal(rng: SplitMix64, dim: int) -> np.ndarray:
    """Orthogonal matrix composed of one Givens rotation per index pair."""
    q = np.eye(dim)
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            col_i = q[:, i].copy()
            col_j = q[:, j].copy()
            q[:, i] = c * col_i - s * col_j
            q[:, j] = s * col_i + c * col_j
    return q


def random_symmetric_with_spectrum(seed: int, dim: int, m: float, M: float) -> SymmetricMatrix:
    """Symmetric matrix with spectrum drawn uniformly from [m, M].

    One draw in four (decided by the seeded stream) forces both interval
    endpoints into the spectrum so boundary behaviour gets exercised.
    """
    if dim < 2:
        raise BadParameter("dimension must be at least 2")
    if not m < M:
        raise BadParameter(f"need m < M, got m={m!r}, M={M!r}")
    rng = SplitMix64(seed)
    force_endpoints = rng.below(4) == 0
    lam = np.array([m + (M - m) * rng.uniform() for _ in range(dim)])
    if force_endpoints:
        lam[0] = m
        lam[-1] = M
    q = random_orthogonal(rng, dim)
    return SymmetricMatrix((q * lam) @ q.T)


def random_density(seed: int, dim: int) -> DensityOperator:
    """Random density operator with eigenvalues floored at 1e-3."""
    if dim < 2:
        raise BadParameter("dimension must be at least 2")
    rng = SplitMix64(seed)
    raw = np.array([0.05 + 0.95 * rng.uniform() for _ in range(dim)])
    weights = raw / raw.sum()
    floor = DENSITY_EIGENVALUE_FLOOR
    lam = floor + (1.0 - dim * floor) * weights
    q = random_orthogonal(rng, dim)
    return DensityOperator(SymmetricMatrix((q * lam) @ q.T))


def random_sandwich_pair(seed: int, dim: int, m: float, M: float) -> OperatorPair:
    """Pair (A, B) with B = A^{1/2} C A^{1/2} and Sp(C) drawn inside [m, M].

    The returned pair carries the exact spectral hull of the sandwiched
    matrix, which is contained in the requested [m, M] by construction.
    """
    if not (0.0 < m < M):
        raise BadParameter(f"need 0 < m < M, got m={m!r}, M={M!r}")
    base = random_symmetric_with_spectrum(derive_seed(seed, 1), dim, 0.5, 2.0)
    inner = random_symmetric_with_spectrum(derive_seed(seed, 2), dim, m, M)
    root, _ = matrix_sqrt_inv_sqrt(base)
    second = SymmetricMatrix(root.entries @ inner.entries @ root.entries)
    return OperatorPair(base, second)


def _make_map(tag: str, dim: int, rng: SplitMix64):
    if tag == "corner":
        out = max(1, dim - 1)
        return corner_map(dim, out), {"tag": "corner", "out_dim": out}
    if tag == "identity":
        return identity_map(dim), {"tag": "identity"}
    if tag == "vecstate":
        vec = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
        norm = float(np.linalg.norm(vec))
        while norm < 1e-3:
            vec = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
            norm = float(np.linalg.norm(vec))
        vec = vec / norm
        return VectorState(vec), {"tag": "vecstate", "vector": [float(v) for v in vec]}
    if tag == "trace":
        return NormalizedTrace(dim), {"tag": "trace"}
    if tag == "pinching":
        cut = 1 + rng.below(dim - 1)
        blocks = [list(range(cut)), list(range(cut, dim))]
        return Pinching(dim, blocks), {"tag": "pinching", "blocks": blocks}
    if tag == "mixture":
        factors = [random_orthogonal(rng, dim), random_orthogonal(rng, dim)]
        weights = [0.5, 0.5]
        info = {
            "tag": "mixture",
            "weights": weights,
            "factors": [[[float(x) for x in row] for row in f] for f in factors],
        }
        return CongruenceMixture(list(zip(weights, factors))), info
    raise BadParameter(f"unknown map tag {tag!r}")


def _map_from_info(info: dict, dim: int):
    tag = info["tag"]
    if tag == "corner":
        return corner_map(dim, info["out_dim"])
    if tag == "identity":
        return identity_map(dim)
    if tag == "vecstate":
        return VectorState(np.array(info["vector"]))
    if tag == "trace":
        return NormalizedTrace(dim)
    if tag == "pinching":
        return Pinching(dim, info["blocks"])
    if tag == "mixture":
        return CongruenceMixture(
            [(w, np.array(f)) for w, f in zip(info["weights"], info["factors"])]
        )
    raise BadParameter(f"unknown map tag {tag!r}")


def _matrix_data(matrix: SymmetricMatrix) -> list:
    return [float(x) for x in matrix.entries.reshape(-1)]


@dataclass
class _Collector:
    tolerance: float
    trial: int
    seed: int
    dim: int
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, label: str, slack: float, scale: float, inputs: dict) -> None:
        passed = slack >= -(self.tolerance * (1.0 + scale))
        self.rows.append([label, self.trial, self.dim, float(slack), bool(passed)])
        if not passed:
            self.failures.append(
                {
                    "label": label,
                    "trial": self.trial,
                    "seed": self.seed,
                    "dim": self.dim,
                    "slack": float(slack),
                    "inputs": inputs,
                }
            )

    def add_report(self, report: InequalityReport | ChainReport, inputs: dict, label=None) -> None:
        self.add(label or report.label, report.tightness, report.scale, inputs)

    def add_scalar(self, label: str, slack: float, magnitude: float, inputs: dict) -> None:
        self.add(label, slack, max(1.0, magnitude), inputs)


@dataclass
class CampaignReport:
    """Aggregated slack statistics plus full reproducers for every failure."""

    spec: TrialSpec
    rows: list
    aggregates: dict
    failures: list
    statistics: dict

    @property
    def total_failures(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "aggregates": self.aggregates,
            "rows": self.rows,
            "failures": self.failures,
            "statistics": self.statistics,
        }

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["inequality", "trial", "dim", "slack", "pass"])
            for label, trial, dim, slack, passed in self.rows:
                writer.writerow([label, trial, dim, format(slack, ".17g"), str(passed).lower()])


def _run_trial(spec: TrialSpec, index: int, stats: dict) -> _Collector:
    trial_seed = derive_seed(spec.seed, index)
    rng = SplitMix64(trial_seed)
    lo, hi = spec.dim_range
    dim = lo + rng.below(hi - lo + 1)
    fn_spec = spec.function_set[rng.below(len(spec.function_set))]
    map_tag = spec.map_set[rng.below(len(spec.map_set))]
    m = 0.3 + 1.2 * rng.uniform()
    M = m + 0.5 + 2.5 * rng.uniform()
    matrix_seed = rng.next_u64()
    matrix = random_symmetric_with_spectrum(matrix_seed, dim, m, M)
    phi, map_info = _make_map(map_tag, dim, rng)
    pair_m = 0.3 + 0.9 * rng.uniform()
    pair_M = pair_m + 0.4 + 1.6 * rng.uniform()
    pair_seed = rng.next_u64()
    p = TSALLIS_PS[rng.below(len(TSALLIS_PS))]
    rho_seed = rng.next_u64()
    sigma_seed = rng.next_u64()

    out = _Collector(spec.tolerance, index, trial_seed, dim)
    fn = parse_function_spec(fn_spec)

    cdj_inputs = {
        "kind": "cdj",
        "matrix": _matrix_data(matrix),
        "dim": dim,
        "map": map_info,
        "function": fn_spec,
        "m": m,
        "M": M,
    }
    ctx = build_context(matrix, phi, fn, m, M)
    for report in chord_bounds(ctx):
        out.add_report(report, cdj_inputs)
    out.add_report(jensen_upper_bound(ctx), cdj_inputs)
    out.add_report(jensen_converse_bound(ctx), cdj_inputs)
    third = jensen_third_term(ctx)
    third_dec = eigendecompose(third)
    stats["third_term_min"] = min(stats["third_term_min"], float(third_dec.eigenvalues[0]))
    stats["third_term_max"] = max(stats["third_term_max"], float(third_dec.eigenvalues[-1]))
    try:
        for report in ratio_sandwich(ctx):
            out.add_report(report, cdj_inputs)
        for report in ratio_sandwich_min(ctx):
            out.add_report(report, cdj_inputs)
    except NonPositiveFunction:
        pass
    try:
        out.add_report(refined_sandwich_chain(ctx), cdj_inputs)
    except (NonPositiveFunction, NotStrictlyConvex):
        pass

    for r in POWER_CHAIN_RS:
        chain_inputs = dict(cdj_inputs, kind="power_chain", r=r)
        out.add_report(power_function_chain(matrix, phi, r, m, M), chain_inputs)

    kant_inputs = dict(cdj_inputs, kind="kantorovich")
    kant = improved_kantorovich(matrix, phi, m, M)
    out.add_report(kant.inequality, kant_inputs)
    out.add_report(kant.improvement_psd, kant_inputs)
    improvement = kant.classical_rhs - kant.improved_rhs
    if improvement.min_eigenvalue() > 1e-12:
        stats["kantorovich_strict_improvements"] += 1

    pair = random_sandwich_pair(pair_seed, dim, pair_m, pair_M)
    pair_inputs = {
        "kind": "pair",
        "A": _matrix_data(pair.A),
        "B": _matrix_data(pair.B),
        "dim": dim,
        "map": map_info,
        "function": fn_spec,
        "p": p,
    }
    for report in perspective_bounds(pair, fn):
        out.add_report(report, pair_inputs)
    for report in map_commutation_bounds(pair, phi, fn):
        out.add_report(report, pair_inputs)
    for report in tsallis_entropy_bounds(pair, p):
        out.add_report(report, pair_inputs)
    for report in relative_entropy_bounds(pair):
        out.add_report(report, pair_inputs)

    rho = random_density(rho_seed, dim)
    sigma = random_density(sigma_seed, dim)
    relative_pair = OperatorPair(rho.rho, sigma.rho)
    p_pos = abs(p)
    trace_inputs = {
        "kind": "trace_bounds",
        "rho": _matrix_data(rho.rho),
        "sigma": _matrix_data(sigma.rho),
        "dim": dim,
        "p": p_pos,
        "m": relative_pair.m,
        "M": relative_pair.M,
    }
    bounds = tsallis_trace_bounds(rho, sigma, p_pos, relative_pair.m, relative_pair.M)
    for check in (bounds.lower_check, bounds.upper_check, bounds.relative_check):
        if check is not None:
            out.add_scalar(check.label, check.slack, max(abs(check.lhs), abs(check.rhs)), trace_inputs)

    floor_inputs = {"kind": "floor", "rho": _matrix_data(rho.rho), "dim": dim, "p": p_pos}
    tsallis_floor = quantum_tsallis_lower_bound(rho, p_pos)
    out.add_scalar(
        "quantum_tsallis_floor",
        tsallis_floor.slack,
        max(abs(tsallis_floor.entropy), abs(tsallis_floor.bound)),
        floor_inputs,
    )
    vn_floor = von_neumann_lower_bound(rho)
    out.add_scalar(
        "von_neumann_floor",
        vn_floor.slack,
        max(abs(vn_floor.entropy), abs(vn_floor.bound)),
        floor_inputs,
    )
    return out


def run_campaign(spec: TrialSpec) -> CampaignReport:
    """Run every registered inequality on ``spec.trials`` fresh random instances."""
    spec.validate()
    rows: list = []
    failures: list = []
    stats = {
        "third_term_min": float("inf"),
        "third_term_max": float("-inf"),
        "kantorovich_strict_improvements": 0,
    }
    for index in range(spec.trials):
        collector = _run_trial(spec, index, stats)
        rows.extend(collector.rows)
        failures.extend(collector.failures)

    aggregates: dict = {}
    for label, _trial, _dim, slack, passed in rows:
        agg = aggregates.setdefault(
            label,
            {
                "pass": 0,
                "fail": 0,
                "worst_slack": float("inf"),
                "tightest_slack": None,
                "mean_slack": 0.0,
            },
        )
        agg["pass" if passed else "fail"] += 1
        agg["worst_slack"] = min(agg["worst_slack"], slack)
        if passed:
            tight = agg["tightest_slack"]
            agg["tightest_slack"] = slack if tight is None else min(tight, slack)
        agg["mean_slack"] += slack
    for agg in aggregates.values():
        agg["mean_slack"] /= agg["pass"] + agg["fail"]

    seen = set(aggregates)
    missing = sorted(set(registered_inequalities(spec)) - seen)
    statistics = {
        "jensen_third_term_min_eig": stats["third_term_min"],
        "jensen_third_term_max_eig": stats["third_term_max"],
        "kantorovich_strict_improvements": stats["kantorovich_strict_improvements"],
        "coverage_missing": missing,
    }
    return CampaignReport(spec, rows, aggregates, failures, statistics)


def replay_failure(record: dict) -> float:
    """Re-run the single check a failure record describes; returns its slack.

    Replay is exact: the record carries the full inputs, so the recomputed
    slack equals the recorded one bit-for-bit.
    """
    inputs = record["inputs"]
    label = record["label"]
    kind = inputs["kind"]
    dim = inputs["dim"]
    if kind in ("cdj", "power_chain", "kantorovich"):
        matrix = SymmetricMatrix(np.array(inputs["matrix"]).reshape(dim, dim))
        phi = _map_from_info(inputs["map"], dim)
        if kind == "power_chain":
            chain = power_function_chain(matrix, phi, inputs["r"], inputs["m"], inputs["M"])
            return chain.tightness
        if kind == "kantorovich":
            kant = improved_kantorovich(matrix, phi, inputs["m"], inputs["M"])
            table = {
                "improved_kantorovich": kant.inequality,
                "kantorovich_improvement_psd": kant.improvement_psd,
            }
            return table[label].tightness
        fn = parse_function_spec(inputs["function"])
        ctx = build_context(matrix, phi, fn, inputs["m"], inputs["M"])
        reports = {r.label: r for r in chord_bounds(ctx)}
        reports["jensen_upper"] = jensen_upper_bound(ctx)
        reports["jensen_converse"] = jensen_converse_bound(ctx)
        if label.startswith("ratio_min"):
            reports.update({r.label: r for r in ratio_sandwich_min(ctx)})
        elif label.startswith("ratio"):
            reports.update({r.label: r for r in ratio_sandwich(ctx)})
        elif label == "refined_chain":
            reports["refined_chain"] = refined_sandwich_chain(ctx)
        return reports[label].tightness
    if kind == "pair":
        first = SymmetricMatrix(np.array(inputs["A"]).reshape(dim, dim))
        second = SymmetricMatrix(np.array(inputs["B"]).reshape(dim, dim))
        pair = OperatorPair(first, second)
        fn = parse_function_spec(inputs["function"])
        reports = {}
        if label.startswith("perspective"):
            reports.update({r.label: r for r in perspective_bounds(pair, fn)})
        elif label.startswith("map_commutation"):
            phi = _map_from_info(inputs["map"], dim)
            reports.update({r.label: r for r in map_commutation_bounds(pair, phi, fn)})
        elif label.startswith("tsallis_operator"):
            reports.update({r.label: r for r in tsallis_entropy_bounds(pair, inputs["p"])})
        else:
            reports.update({r.label: r for r in relative_entropy_bounds(pair)})
        return reports[label].tightness
    if kind == "trace_bounds":
        rho = DensityOperator(SymmetricMatrix(np.array(inputs["rho"]).reshape(dim, dim)))
        sigma = DensityOperator(SymmetricMatrix(np.array(inputs["sigma"]).reshape(dim, dim)))
        bounds = tsallis_trace_bounds(rho, sigma, inputs["p"], inputs["m"], inputs["M"])
        table = {
            "tsallis_trace_lower": bounds.lower_check,
            "tsallis_trace_upper": bounds.upper_check,
            "tsallis_relative_upper": bounds.relative_check,
        }
        return table[label].slack
    if kind == "floor":
        rho = DensityOperator(SymmetricMatrix(np.array(inputs["rho"]).reshape(dim, dim)))
        if label == "quantum_tsallis_floor":
            return quantum_tsallis_lower_bound(rho, inputs["p"]).slack
        return von_neumann_lower_bound(rho).slack
    raise BadParameter(f"unknown reproducer kind {kind!r}")
