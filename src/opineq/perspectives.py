"""Operator perspectives, relative operator entropies and quantum entropies.

The non-commutative perspective P_f(A|B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}
inherits two-sided chord bounds from the scalar representation on the
sandwich interval, and commutes with unital positive maps up to computable
correction terms.  Specializing f to deformed logarithms gives bounds for
Tsallis/relative operator entropies; tracing against density operators
gives scalar bounds for quantum entropies.

Trace-functional results are evaluated as scalar formulas together with an
independent brute-force trace computed from full eigendecompositions, since
the plain trace is not a unital map and cannot reuse the map machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _claim
from .errors import (
    BadParameter,
    DegenerateInterval,
    NotPositiveDefinite,
    SandwichViolated,
    ShapeError,
    SpectrumNotEnclosed,
)
from .functions import (
    ScalarFunction,
    _check_positive_interval,
    _validate_entropy_order,
    catalog_lookup,
    second_derivative_range,
)
from .maps import PositiveUnitalMap
from .spectral import (
    SymmetricMatrix,
    _check_hull,
    _conjugated_power,
    _interval_or_hull,
    apply_scalar_function,
    eigendecompose,
    matrix_sqrt_inv_sqrt,
    strict_positivity_tolerance,
)

__all__ = [
    "OperatorPair",
    "DensityOperator",
    "ScalarCheck",
    "EntropyFloorCheck",
    "TsallisTraceBounds",
    "perspective",
    "perspective_chord",
    "sandwich_correction",
    "perspective_bounds",
    "tsallis_relative_operator_entropy",
    "relative_operator_entropy",
    "tsallis_entropy_bounds",
    "relative_entropy_bounds",
    "map_commutation_bounds",
    "von_neumann_entropy",
    "quantum_tsallis_entropy",
    "tsallis_relative_quantum_entropy",
    "tsallis_trace_bounds",
    "quantum_tsallis_lower_bound",
    "von_neumann_lower_bound",
]

class OperatorPair:
    """Strictly positive A paired with B under the sandwich m*A <= B <= M*A.

    m and M default to the exact spectral hull of A^{-1/2} B A^{-1/2}; user
    supplied values may widen the interval but must still enclose it and be
    finite (m <= 0 is allowed).
    """

    def __init__(self, first: SymmetricMatrix, second: SymmetricMatrix, m=None, M=None):
        self._settle(first, second, _sandwiched(first, second), m, M)

    def _settle(self, first: SymmetricMatrix, second: SymmetricMatrix, inner: SymmetricMatrix, m, M):
        """Check the sandwich condition on ``inner`` = first^{-1/2} second first^{-1/2}; keep the pair."""
        lo, hi = inner.min_eigenvalue(), inner.max_eigenvalue()
        psd_tol = 1e-10 * (1.0 + max(abs(lo), abs(hi)))
        if lo < -psd_tol:
            raise NotPositiveDefinite(
                f"B is not positive relative to A (sandwiched eigenvalue {lo:.6e})"
            )
        m, M = _interval_or_hull(lo, hi, m, M)
        tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        _check_hull(lo, hi, m, M, tol, SandwichViolated, "sandwiched spectrum")
        # past the hull check only m = -inf or M = inf is left to reject
        if math.isinf(m) or math.isinf(M):
            raise BadParameter(f"need finite m and M, got m={m!r}, M={M!r}")
        if m == M:
            raise DegenerateInterval("m == M in the sandwich condition")
        if m > M:
            raise BadParameter(f"need m < M, got m={m!r}, M={M!r}")
        self.A = first
        self.B = second
        self.root, self.inv_root = matrix_sqrt_inv_sqrt(first)
        self.inner = inner
        self.m = m
        self.M = M

    def conjugate(self, middle: SymmetricMatrix) -> SymmetricMatrix:
        """A^{1/2} X A^{1/2}."""
        return SymmetricMatrix(self.root.entries @ middle.entries @ self.root.entries)

    def natural_power(self, exponent: float) -> SymmetricMatrix:
        """A natural_p B through the cached sandwich decomposition."""
        return _conjugated_power(self.root, self.inner, exponent)

    def __repr__(self):
        return f"OperatorPair(dim={self.A.dim}, m={self.m:.6g}, M={self.M:.6g})"


def _sandwiched(first: SymmetricMatrix, second: SymmetricMatrix) -> SymmetricMatrix:
    """first^{-1/2} second first^{-1/2}, not yet solved: the matrix an ``OperatorPair`` checks."""
    if first.dim != second.dim:
        raise ShapeError(f"dimension mismatch: {first.dim} vs {second.dim}")
    _, inv_root = matrix_sqrt_inv_sqrt(first)
    return SymmetricMatrix(inv_root.entries @ second.entries @ inv_root.entries)


def _pair_on(first: SymmetricMatrix, second: SymmetricMatrix, inner, m=None, M=None) -> OperatorPair:
    """``OperatorPair(first, second, m, M)`` on ``inner``, its ``_sandwiched`` matrix, if built already.

    With ``inner`` ``None`` the pair builds it, as the constructor does.
    """
    pair = object.__new__(OperatorPair)
    pair._settle(first, second, _sandwiched(first, second) if inner is None else inner, m, M)
    return pair


def perspective(pair: OperatorPair, fn: ScalarFunction) -> SymmetricMatrix:
    """P_f(A|B) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}."""
    return pair.conjugate(apply_scalar_function(pair.inner, fn))


def perspective_chord(pair: OperatorPair, fn: ScalarFunction) -> SymmetricMatrix:
    """Chord analogue ((B - mA) f(M) + (MA - B) f(m)) / (M - m); linear in (A, B)."""
    m, M = pair.m, pair.M
    f_m = float(fn.eval(m))
    f_M = float(fn.eval(M))
    return (1.0 / (M - m)) * ((pair.B - m * pair.A) * f_M + (M * pair.A - pair.B) * f_m)


def sandwich_correction(pair: OperatorPair) -> SymmetricMatrix:
    """A natural_2 B + Mm A - (M+m) B; never positive on the sandwich."""
    m, M = pair.m, pair.M
    return pair.natural_power(2.0) + (M * m) * pair.A - (M + m) * pair.B


def perspective_bounds(pair: OperatorPair, fn: ScalarFunction):
    """Two-sided chord bounds for the perspective.

        (beta/2) corr <= P_f(A|B) - L_f(A|B) <= (alpha/2) corr

    where corr = A natural_2 B + Mm A - (M+m) B is <= 0 on the sandwich, so
    the alpha side really is the upper bound.
    """
    bounds = second_derivative_range(fn, pair.m, pair.M)
    diff = perspective(pair, fn) - perspective_chord(pair, fn)
    corr = sandwich_correction(pair)
    return (
        _claim("perspective_lower", (bounds.beta / 2.0) * corr, diff),
        _claim("perspective_upper", diff, (bounds.alpha / 2.0) * corr),
    )


def tsallis_relative_operator_entropy(pair: OperatorPair, p: float) -> SymmetricMatrix:
    """(A natural_p B - A) / p for p in [-1, 1] excluding 0."""
    p = _validate_entropy_order(p)
    _check_positive_interval(pair.m, pair.M)
    return (1.0 / p) * (pair.natural_power(p) - pair.A)


def relative_operator_entropy(pair: OperatorPair) -> SymmetricMatrix:
    """A^{1/2} log(A^{-1/2} B A^{-1/2}) A^{1/2}; the p -> 0 limit of the above."""
    _check_positive_interval(pair.m, pair.M)
    return perspective(pair, catalog_lookup("log"))


def _tsallis_chord(pair: OperatorPair, p: float) -> SymmetricMatrix:
    m, M = pair.m, pair.M
    coeff_a = M - m + M * m * (M ** (p - 1.0) - m ** (p - 1.0))
    coeff_b = M**p - m**p
    return (-1.0 / (p * (M - m))) * (coeff_a * pair.A - coeff_b * pair.B)


def _corrected_chord_claims(prefix: str, pair: OperatorPair, value, chord, low: float, high: float):
    """chord - low corr <= value <= chord - high corr, with corr the sandwich correction."""
    corr = sandwich_correction(pair)
    return (
        _claim(f"{prefix}_lower", chord - low * corr, value),
        _claim(f"{prefix}_upper", value, chord - high * corr),
    )


def tsallis_entropy_bounds(pair: OperatorPair, p: float):
    """Two-sided bounds for the Tsallis relative operator entropy.

        Lt - (1-p)/(2 M^{2-p}) corr <= T_p(A|B) <= Lt - (1-p)/(2 m^{2-p}) corr

    with Lt the entropy chord and corr the (non-positive) sandwich
    correction; the coefficients are the extreme values of the deformed
    logarithm's second derivative over [m, M], halved.
    """
    p = _validate_entropy_order(p)
    value = tsallis_relative_operator_entropy(pair, p)  # checks 0 < m
    m, M = pair.m, pair.M
    chord = _tsallis_chord(pair, p)
    low_coeff = (1.0 - p) / (2.0 * M ** (2.0 - p))
    high_coeff = (1.0 - p) / (2.0 * m ** (2.0 - p))
    return _corrected_chord_claims("tsallis_operator", pair, value, chord, low_coeff, high_coeff)


def relative_entropy_bounds(pair: OperatorPair):
    """Two-sided bounds for the relative operator entropy (the p -> 0 limit).

        Ls - corr/(2M^2) <= S(A|B) <= Ls - corr/(2m^2)

    with Ls = ((B - mA) log M + (MA - B) log m)/(M - m).
    """
    value = relative_operator_entropy(pair)  # checks 0 < m
    m, M = pair.m, pair.M
    chord = (1.0 / (M - m)) * (
        (pair.B - m * pair.A) * math.log(M) + (M * pair.A - pair.B) * math.log(m)
    )
    return _corrected_chord_claims(
        "relative_entropy", pair, value, chord, 1.0 / (2.0 * M**2), 1.0 / (2.0 * m**2)
    )


def map_commutation_bounds(pair: OperatorPair, phi: PositiveUnitalMap, fn: ScalarFunction):
    """How far a unital positive map commutes with the perspective.

        ((alpha-beta)/2) {(M+m) Phi(B) - Mm Phi(A)}
            + (1/2)(beta Phi(A) natural_2 Phi(B) - alpha Phi(A natural_2 B))
        <= P_f(Phi(A)|Phi(B)) - Phi(P_f(A|B)) <=   ... with alpha and beta swapped.
    """
    return _map_commutation_bounds(pair, phi, fn, None)


def _map_commutation_bounds(pair: OperatorPair, phi: PositiveUnitalMap, fn: ScalarFunction, image):
    """``map_commutation_bounds``, with ``image`` = (Phi(A), Phi(B), their ``_sandwiched`` matrix).

    A campaign builds ``image`` and solves its sandwiched matrix beforehand;
    with ``image`` ``None`` the images are built here.
    """
    bounds = second_derivative_range(fn, pair.m, pair.M)
    alpha, beta = bounds.alpha, bounds.beta
    phi_A, phi_B, inner = image or (phi.apply(pair.A), phi.apply(pair.B), None)
    image_pair = _pair_on(phi_A, phi_B, inner, m=pair.m, M=pair.M)
    middle = perspective(image_pair, fn) - phi.apply(perspective(pair, fn))
    nat2_image = image_pair.natural_power(2.0)
    nat2_preimage = phi.apply(pair.natural_power(2.0))
    base = (pair.M + pair.m) * phi_B - (pair.M * pair.m) * phi_A
    lower = ((alpha - beta) / 2.0) * base + 0.5 * (beta * nat2_image - alpha * nat2_preimage)
    upper = ((beta - alpha) / 2.0) * base + 0.5 * (alpha * nat2_image - beta * nat2_preimage)
    return (
        _claim("map_commutation_lower", lower, middle),
        _claim("map_commutation_upper", middle, upper),
    )


class DensityOperator:
    """Strictly positive symmetric matrix with unit trace.

    Spectral bounds 0 < m <= M <= 1 default to the exact hull and may be
    widened as long as they stay in (0, 1] and enclose the spectrum.
    """

    def __init__(self, rho: SymmetricMatrix, m=None, M=None):
        if not isinstance(rho, SymmetricMatrix):
            rho = SymmetricMatrix(rho)
        if abs(rho.trace - 1.0) > 1e-12:
            raise BadParameter(f"trace must be 1, got {rho.trace!r}")
        lo, hi = rho.min_eigenvalue(), rho.max_eigenvalue()
        if lo <= strict_positivity_tolerance(rho):
            raise NotPositiveDefinite(f"density operator must be strictly positive, min eig {lo:.6e}")
        # at unit trace, with every eigenvalue above that floor, none exceeds
        # 1 + 1e-12; the hull check below holds the spectrum inside a given M
        m, M = _interval_or_hull(lo, min(hi, 1.0), m, M)
        if not (0.0 < m <= M <= 1.0 + 1e-12):
            raise BadParameter(f"need 0 < m <= M <= 1, got m={m!r}, M={M!r}")
        _check_hull(lo, hi, m, M, 1e-12, SpectrumNotEnclosed, "spectrum")
        self.rho = rho
        self.m = m
        self.M = min(M, 1.0)

    @property
    def dim(self) -> int:
        return self.rho.dim

    def eigenvalues(self) -> np.ndarray:
        return eigendecompose(self.rho).eigenvalues

    def __repr__(self):
        return f"DensityOperator(dim={self.dim}, m={self.m:.6g}, M={self.M:.6g})"


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-tr(rho log rho); zero only for pure states, log(dim) when maximally mixed."""
    lam = rho.eigenvalues()
    return float(-np.sum(lam * np.log(lam)))


def quantum_tsallis_entropy(rho: DensityOperator, p: float) -> float:
    """tr(rho^{1-p} - rho)/p; tends to the von Neumann entropy as p -> 0."""
    p = _validate_entropy_order(p)
    lam = rho.eigenvalues()
    return float((np.sum(lam ** (1.0 - p)) - 1.0) / p)


def tsallis_relative_quantum_entropy(rho: DensityOperator, sigma: DensityOperator, p: float) -> float:
    """tr(rho - rho^{1-p} sigma^p)/p for density operators rho, sigma."""
    p = _validate_entropy_order(p)
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    dec_r = eigendecompose(rho.rho)
    dec_s = eigendecompose(sigma.rho)
    left = dec_r.recombine(dec_r.eigenvalues ** (1.0 - p))
    right = dec_s.recombine(dec_s.eigenvalues**p)
    cross = float(np.sum(left * right))  # tr(left @ right) for symmetric factors
    return (1.0 - cross) / p


@dataclass(frozen=True)
class ScalarCheck:
    """One scalar comparison lhs <= rhs with a scale-aware tolerance."""

    label: str
    lhs: float
    rhs: float
    tolerance: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tolerance

    tightness = slack  # the name matrix reports give their slack

    @property
    def scale(self) -> float:
        return max(1.0, abs(self.lhs), abs(self.rhs))


def _scalar_check(label: str, lhs: float, rhs: float, tol_rel: float = 1e-8) -> ScalarCheck:
    tol = tol_rel * (1.0 + max(abs(lhs), abs(rhs)))
    return ScalarCheck(label, float(lhs), float(rhs), tol)


@dataclass(frozen=True)
class TsallisTraceBounds:
    """Scalar bounds on tr(T_p(rho|sigma)) plus the relative-entropy consequence.

    ``trace_value`` is the independent brute-force trace of the Tsallis
    relative operator entropy; the bounds come from the closed-form scalar
    expressions in m, M and tr(rho (rho^{-1/2} sigma rho^{-1/2})^2).
    """

    trace_value: float
    lower: float
    upper: float
    lower_check: ScalarCheck
    upper_check: ScalarCheck
    relative_entropy: float | None = None
    relative_upper: float | None = None
    relative_check: ScalarCheck | None = None

    @property
    def holds(self) -> bool:
        ok = self.lower_check.holds and self.upper_check.holds
        if self.relative_check is not None:
            ok = ok and self.relative_check.holds
        return ok


def tsallis_trace_bounds(
    rho: DensityOperator,
    sigma: DensityOperator,
    p: float,
    m: float,
    M: float,
) -> TsallisTraceBounds:
    """Scalar bounds on tr(T_p(rho|sigma)) under m rho <= sigma <= M rho.

    For 0 < p <= 1 the known comparison D_p(rho|sigma) <= -tr(T_p(rho|sigma))
    turns the lower bound into an upper bound on the Tsallis relative
    entropy, which is checked as well (as a numeric consistency statement,
    not re-derived).
    """
    p = _validate_entropy_order(p)
    _check_positive_interval(m, M)
    pair = OperatorPair(rho.rho, sigma.rho, m=m, M=M)  # SandwichViolated if not enclosed
    return _tsallis_trace_bounds(rho, sigma, p, pair)


def _tsallis_trace_bounds(
    rho: DensityOperator, sigma: DensityOperator, p: float, pair: OperatorPair
) -> TsallisTraceBounds:
    """``tsallis_trace_bounds`` on the pair (rho, sigma) with the pair's m and M."""
    m, M = pair.m, pair.M
    tau = pair.natural_power(2.0).trace
    trace_value = (pair.natural_power(p).trace - 1.0) / p
    spread = M + m - M * m
    half = 0.5 * (1.0 - p)
    lower = half * ((M ** (p - 2.0) - m ** (p - 2.0)) * spread + (m ** (p - 2.0) - M ** (p - 2.0) * tau))
    upper = half * ((m ** (p - 2.0) - M ** (p - 2.0)) * spread + (M ** (p - 2.0) - m ** (p - 2.0) * tau))
    lower_check = _scalar_check("tsallis_trace_lower", lower, trace_value)
    upper_check = _scalar_check("tsallis_trace_upper", trace_value, upper)
    relative = relative_upper = relative_check = None
    if p > 0.0:
        relative = tsallis_relative_quantum_entropy(rho, sigma, p)
        relative_upper = half * (
            (m ** (p - 2.0) - M ** (p - 2.0)) * spread + (M ** (p - 2.0) * tau - m ** (p - 2.0))
        )
        relative_check = _scalar_check("tsallis_relative_upper", relative, relative_upper)
    return TsallisTraceBounds(
        trace_value=trace_value,
        lower=lower,
        upper=upper,
        lower_check=lower_check,
        upper_check=upper_check,
        relative_entropy=relative,
        relative_upper=relative_upper,
        relative_check=relative_check,
    )


@dataclass(frozen=True)
class EntropyFloorCheck:
    """Claimed entropy floor: entropy >= bound >= 0.

    The floor is evaluated from the closed-form expression in the spectral
    bounds; the entropy comes from the brute-force eigenvalue sum.  Both
    comparisons are reported, never assumed.
    """

    entropy: float
    bound: float
    floor_check: ScalarCheck
    nonneg_check: ScalarCheck

    @property
    def slack(self) -> float:
        return self.floor_check.slack

    @property
    def holds(self) -> bool:
        return self.floor_check.holds and self.nonneg_check.holds


def _floor_check(label: str, entropy: float, bound: float) -> EntropyFloorCheck:
    """The claims entropy >= bound (``label``) and bound >= 0 (``label`` + ``_nonneg``)."""
    return EntropyFloorCheck(
        entropy=entropy,
        bound=bound,
        floor_check=_scalar_check(label, bound, entropy, 1e-10),
        nonneg_check=_scalar_check(f"{label}_nonneg", 0.0, bound, 1e-10),
    )


def quantum_tsallis_lower_bound(rho: DensityOperator, p: float) -> EntropyFloorCheck:
    """Claimed floor for the quantum Tsallis entropy.

        S_p(rho) >= (1-p)(M^{p+1} - m^{p+1})(1-M)(1-m) / (2 m^{p+1} M^{p+1}) >= 0

    with 0 < m <= M <= 1 the stored spectral bounds of rho.
    """
    p = _validate_entropy_order(p)
    m, M = rho.m, rho.M
    bound = (1.0 - p) * (M ** (p + 1.0) - m ** (p + 1.0)) * (1.0 - M) * (1.0 - m) / (
        2.0 * m ** (p + 1.0) * M ** (p + 1.0)
    )
    return _floor_check("quantum_tsallis_floor", quantum_tsallis_entropy(rho, p), bound)


def von_neumann_lower_bound(rho: DensityOperator) -> EntropyFloorCheck:
    """Claimed floor for the von Neumann entropy (order -> 0 limit of the above).

        S(rho) >= (M - m)(1 - M)(1 - m) / (2 m M) >= 0
    """
    m, M = rho.m, rho.M
    bound = (M - m) * (1.0 - M) * (1.0 - m) / (2.0 * m * M)
    return _floor_check("von_neumann_floor", von_neumann_entropy(rho), bound)
