"""Correctness checks made apart from the program.

Every function here recomputes what opineq reports with plain numpy
(``eigh``/``eigvalsh``) and formulas written out below, and returns a list of
error strings: empty when the output is right.  The workloads call them on
every round; ``perfbench/tests`` plants wrong answers to show each one fires.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# |lambda_opineq - lambda_eigvalsh| <= EIG_RTOL * spectral radius
EIG_RTOL = 1e-10
# matrices recomputed with eigh agree entrywise to MATRIX_RTOL * (1 + max|entry|)
MATRIX_RTOL = 1e-9
# alpha/beta agree with the grid extrema of f'' to DERIV2_RTOL * (1 + |value|)
DERIV2_RTOL = 1e-9
DERIV2_GRID = 20001
# the campaign's failure threshold: slack < -tolerance * (1 + max(1, magnitude))
CAMPAIGN_TOLERANCE = 1e-8
FLOOR_LABELS = ("quantum_tsallis_floor", "von_neumann_floor")

WORKED_EXAMPLES = {
    # 3x3 cube instance in the uniform vector state on [0.25, 3.8]
    "cube_matrix": [[1.0, 0.0, -1.0], [0.0, 3.0, 1.0], [-1.0, 1.0, 2.0]],
    "cube_f_phi_A": Fraction(8),
    "cube_phi_fA": Fraction(24),
    # 2x2 inverse instance under the normalized trace on [2, 8]
    "kantorovich_matrix": [[3.0, -2.0], [-2.0, 7.0]],
    "classical_gap": Fraction(5, 272),
    "improved_gap": Fraction(143, 8704),
}


def scalar_function(spec: str):
    """(f, f'') for a catalog spec, written out independently of opineq."""
    name, _, raw = spec.partition(":")
    if name == "power":
        r = float(raw)
        return (lambda t: np.power(t, r)), (lambda t: r * (r - 1.0) * np.power(t, r - 2.0))
    if name == "log":
        return np.log, (lambda t: -1.0 / np.square(t))
    if name == "exp":
        return np.exp, np.exp
    if name == "tsallis_f":
        p = float(raw)
        return (lambda t: (1.0 - np.power(t, p)) / p), (lambda t: (1.0 - p) * np.power(t, p - 2.0))
    if name == "tsallis_g":
        p = float(raw)
        return (lambda t: (t - np.power(t, 1.0 - p)) / p), (lambda t: (1.0 - p) * np.power(t, -p - 1.0))
    raise ValueError(f"no reference formula for {spec!r}")


def apply_map(tag: str, a: np.ndarray, vector: np.ndarray | None = None) -> np.ndarray:
    """The CLI's maps on a plain array: corner, trace, identity, vecstate."""
    if tag == "corner":
        return a[:-1, :-1]
    if tag == "trace":
        return np.array([[np.trace(a) / a.shape[0]]])
    if tag == "identity":
        return a
    if tag == "vecstate":
        return np.array([[vector @ a @ vector]])
    raise ValueError(f"unknown map {tag!r}")


def matrix_function(a: np.ndarray, fn) -> np.ndarray:
    lam, q = np.linalg.eigh(a)
    return (q * fn(lam)) @ q.T


def check_spectrum(matrix: np.ndarray, eigenvalues) -> list[str]:
    """Eigenvalues (ascending) reported for ``matrix`` against ``eigvalsh``."""
    ref = np.linalg.eigvalsh(matrix)
    got = np.asarray(eigenvalues, dtype=float)
    if got.shape != ref.shape:
        return [f"spectrum has shape {got.shape}, expected {ref.shape}"]
    radius = max(float(np.abs(ref).max()), np.finfo(float).tiny)
    err = float(np.abs(got - ref).max())
    if not err <= EIG_RTOL * radius:
        return [f"eigenvalues off by {err:.3e}, above {EIG_RTOL:g} * spectral radius {radius:.3e}"]
    return []


def _close(name: str, got: np.ndarray, ref: np.ndarray) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape}, expected {ref.shape}"]
    err = float(np.abs(got - ref).max())
    if not err <= MATRIX_RTOL * (1.0 + float(np.abs(ref).max())):
        return [f"{name}: off by {err:.3e} from the eigh recomputation"]
    return []


def check_deriv2_range(spec: str, m: float, M: float, alpha: float, beta: float) -> list[str]:
    """[alpha, beta] against the extrema of f'' on a dense grid over [m, M]."""
    _, f2 = scalar_function(spec)
    values = f2(np.linspace(m, M, DERIV2_GRID))
    step = float(np.abs(np.diff(values)).max())  # how far the grid can miss an extremum
    errors = []
    for name, got, ref in (("alpha", alpha, float(values.min())), ("beta", beta, float(values.max()))):
        if not abs(got - ref) <= DERIV2_RTOL * (1.0 + abs(ref)) + step:
            errors.append(f"{name} = {got!r}, grid gives {ref!r}")
    if not (alpha <= float(values.min()) + DERIV2_RTOL * (1.0 + abs(alpha))):
        errors.append(f"alpha = {alpha!r} is above f'' somewhere on [m, M]")
    if not (beta >= float(values.max()) - DERIV2_RTOL * (1.0 + abs(beta))):
        errors.append(f"beta = {beta!r} is below f'' somewhere on [m, M]")
    return errors


def check_instance_report(
    matrix: np.ndarray,
    map_tag: str,
    vector: np.ndarray | None,
    function_spec: str,
    payload: dict,
    exit_code: int,
) -> list[str]:
    """One ``opineq check --json`` report against an independent recomputation."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if payload.get("all_hold") is not True:
        errors.append("all_hold is not true")
    reports = {r["label"]: r for r in payload.get("reports", ())}
    if not reports or any(r.get("holds") is not True for r in reports.values()):
        errors.append("a report is missing or does not hold")
    fn, _ = scalar_function(function_spec)
    phi_a = apply_map(map_tag, matrix, vector)
    phi_fa = apply_map(map_tag, matrix_function(matrix, fn), vector)
    f_phi_a = matrix_function(phi_a, fn)
    try:
        errors += _close("Phi(f(A))", reports["chord_upper_image"]["lhs"], phi_fa)
        errors += _close("Phi(f(A))", reports["chord_lower_image"]["rhs"], phi_fa)
        errors += _close("f(Phi(A))", reports["chord_upper_jensen"]["lhs"], f_phi_a)
        errors += _close("f(Phi(A))", reports["chord_lower_jensen"]["rhs"], f_phi_a)
        errors += check_deriv2_range(
            function_spec, payload["m"], payload["M"], payload["alpha"], payload["beta"]
        )
    except KeyError as exc:
        errors.append(f"report lacks {exc}")
    return errors


def floor_value(label: str, eigenvalues: np.ndarray, p: float) -> tuple[float, float]:
    """(entropy, claimed floor) from the README formulas.

        S_p(rho) >= (1-p)(M^{p+1} - m^{p+1})(1-M)(1-m) / (2 m^{p+1} M^{p+1})
        S(rho)   >= (M-m)(1-M)(1-m) / (2mM)

    with m, M the extreme eigenvalues of rho (M capped at 1).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    m, M = float(lam.min()), min(float(lam.max()), 1.0)
    if label == "quantum_tsallis_floor":
        entropy = float((np.sum(lam ** (1.0 - p)) - 1.0) / p)
        bound = (1.0 - p) * (M ** (p + 1.0) - m ** (p + 1.0)) * (1.0 - M) * (1.0 - m) / (
            2.0 * m ** (p + 1.0) * M ** (p + 1.0)
        )
        return entropy, bound
    if label == "von_neumann_floor":
        return float(-np.sum(lam * np.log(lam))), (M - m) * (1.0 - M) * (1.0 - m) / (2.0 * m * M)
    raise ValueError(f"{label!r} is not a floor")


def check_floor_record(record: dict) -> list[str]:
    """A campaign failure record of a floor label is a real violation."""
    label = record["label"]
    inputs = record["inputs"]
    dim = inputs["dim"]
    rho = np.array(inputs["rho"], dtype=float).reshape(dim, dim)
    entropy, bound = floor_value(label, np.linalg.eigvalsh(rho), inputs["p"])
    slack = entropy - bound
    limit = CAMPAIGN_TOLERANCE * (1.0 + max(1.0, abs(entropy), abs(bound)))
    errors = []
    if not slack < -limit:
        errors.append(f"{label} trial {record['trial']}: recomputed slack {slack:.6e} is no violation")
    if not abs(slack - record["slack"]) <= 1e-9 * (1.0 + abs(bound)):
        errors.append(
            f"{label} trial {record['trial']}: recorded slack {record['slack']!r}, recomputed {slack!r}"
        )
    return errors


def check_campaign_aggregates(aggregates: dict) -> list[str]:
    """Only the two entropy floors may fail."""
    return [
        f"{label} failed {agg['fail']} time(s)"
        for label, agg in sorted(aggregates.items())
        if agg["fail"] and label not in FLOOR_LABELS
    ]


def check_coverage(seen, registered) -> list[str]:
    missing = sorted(set(registered) - set(seen))
    return [f"labels never exercised: {', '.join(missing)}"] if missing else []


def check_worked_examples(values: dict) -> list[str]:
    """Computed worked-example values against the paper's exact ones."""
    errors = []
    for key, tol in (("cube_f_phi_A", 1e-9), ("cube_phi_fA", 1e-9),
                     ("classical_gap", 1e-12), ("improved_gap", 1e-12)):
        exact = float(WORKED_EXAMPLES[key])
        if not abs(values[key] - exact) <= tol * max(1.0, abs(exact)):
            errors.append(f"{key} = {values[key]!r}, exact value {WORKED_EXAMPLES[key]}")
    gap_difference = values["classical_gap"] - values["improved_gap"]
    if not math.isclose(gap_difference, 1.0 / 512.0, rel_tol=1e-9):
        errors.append(f"gap difference {gap_difference!r} is not 1/512")
    return errors
