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

from .bounds import _Claims, _columns, _single
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
    _Stack,
    _check_hull,
    _congruence,
    _conjugated_power,
    _interval_or_hull,
    _sandwiched,
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
        return _congruence(self.root, middle.entries)

    def natural_power(self, exponent: float) -> SymmetricMatrix:
        """A natural_p B through the cached sandwich decomposition."""
        return _conjugated_power(self.root, self.inner, exponent)

    def __repr__(self):
        return f"OperatorPair(dim={self.A.dim}, m={self.m:.6g}, M={self.M:.6g})"


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


class _PairStack:
    """k instances' sandwich pairs of one size, with the map, function and order each instance's families read.

    Every pair family (perspective, map commutation, Tsallis and relative
    operator entropy) is written once, on this: a campaign evaluates it once
    for a chunk's trials of one size and one map image size, and the public
    functions on a stack of one pair.  Products (conjugations, natural
    powers, map images) are computed pair by pair, as for one pair, and
    stacked.  The scalars of each instance (m, M, the range of f'', f(m),
    f(M) and the entropy coefficients) are computed in Python, instance by
    instance, and enter the stacks only through + - * /.  So each matrix of
    a stack has the bits its pair's gives alone.  ``instances`` holds
    (pair, phi, fn, p, image) of each instance, ``image`` as in
    ``_map_commutation``; a family reads only its own.
    """

    def __init__(self, instances: tuple):
        self.instances = instances
        self.pairs = tuple(instance[0] for instance in instances)
        self.m, self.M = _columns([(pair.m, pair.M) for pair in self.pairs])
        self.A = _Stack.of([pair.A for pair in self.pairs])
        self.B = _Stack.of([pair.B for pair in self.pairs])
        self._squares = self._correction = None
        self._perspectives: dict = {}

    @classmethod
    def of(cls, pair: OperatorPair, phi=None, fn=None, p=None, image=None) -> "_PairStack":
        """The stack of one pair."""
        return cls(((pair, phi, fn, p, image),))

    def ranges(self) -> tuple:
        """(alpha, beta): the range of each instance's f'' on its [m, M], as factors."""
        bounds = [second_derivative_range(fn, pair.m, pair.M) for pair, _, fn, _, _ in self.instances]
        return _columns([(b.alpha, b.beta) for b in bounds])

    def squares(self) -> list:
        """A natural_2 B of each pair, computed once."""
        if self._squares is None:
            self._squares = [pair.natural_power(2.0) for pair in self.pairs]
        return self._squares

    def perspective(self, position: int) -> SymmetricMatrix:
        """P_f(A|B) of the pair at ``position`` with its instance's f, computed once."""
        if position not in self._perspectives:
            pair, _, fn, _, _ = self.instances[position]
            self._perspectives[position] = perspective(pair, fn)
        return self._perspectives[position]

    def chord(self, f_m, f_M) -> _Stack:
        """((B - mA) f(M) + (MA - B) f(m)) / (M - m), with f(m) and f(M) given per instance."""
        m, M = self.m, self.M
        return (1.0 / (M - m)) * ((self.B - m * self.A) * f_M + (M * self.A - self.B) * f_m)

    def correction(self) -> _Stack:
        """A natural_2 B + Mm A - (M+m) B of each pair, computed once."""
        if self._correction is None:
            m, M = self.m, self.M
            self._correction = _Stack.of(self.squares()) + (M * m) * self.A - (M + m) * self.B
        return self._correction

    def tsallis_entropies(self, orders: list) -> _Stack:
        """(A natural_p B - A) / p of each pair, with its instance's checked order p."""
        for pair in self.pairs:
            _check_positive_interval(pair.m, pair.M)
        powers = _Stack.of([pair.natural_power(order) for pair, order in zip(self.pairs, orders)])
        return (1.0 / _columns([(order,) for order in orders])[0]) * (powers - self.A)

    def relative_entropies(self) -> _Stack:
        """A^{1/2} log(A^{-1/2} B A^{-1/2}) A^{1/2} of each pair."""
        log = catalog_lookup("log")
        values = []
        for pair in self.pairs:
            _check_positive_interval(pair.m, pair.M)
            values.append(perspective(pair, log))
        return _Stack.of(values)


def perspective_chord(pair: OperatorPair, fn: ScalarFunction) -> SymmetricMatrix:
    """Chord analogue ((B - mA) f(M) + (MA - B) f(m)) / (M - m); linear in (A, B)."""
    stack = _PairStack.of(pair, fn=fn)
    return stack.chord(*_ends(stack)).matrix(0)


def _ends(stack: _PairStack) -> tuple:
    """(f(m), f(M)) of each instance's function, as factors."""
    return _columns([(float(fn.eval(pair.m)), float(fn.eval(pair.M))) for pair, _, fn, _, _ in stack.instances])


def sandwich_correction(pair: OperatorPair) -> SymmetricMatrix:
    """A natural_2 B + Mm A - (M+m) B; never positive on the sandwich."""
    return _PairStack.of(pair).correction().matrix(0)


def perspective_bounds(pair: OperatorPair, fn: ScalarFunction):
    """Two-sided chord bounds for the perspective.

        (beta/2) corr <= P_f(A|B) - L_f(A|B) <= (alpha/2) corr

    where corr = A natural_2 B + Mm A - (M+m) B is <= 0 on the sandwich, so
    the alpha side really is the upper bound.
    """
    return _single(_perspective(_PairStack.of(pair, fn=fn)))


def _perspective(pairs: _PairStack) -> tuple:
    alpha, beta = pairs.ranges()
    diff = _Stack.of([pairs.perspective(j) for j in range(len(pairs.pairs))]) - pairs.chord(*_ends(pairs))
    corr = pairs.correction()
    return (
        _Claims("perspective_lower", (beta / 2.0) * corr, diff),
        _Claims("perspective_upper", diff, (alpha / 2.0) * corr),
    )


def tsallis_relative_operator_entropy(pair: OperatorPair, p: float) -> SymmetricMatrix:
    """(A natural_p B - A) / p for p in [-1, 1] excluding 0."""
    p = _validate_entropy_order(p)
    return _PairStack.of(pair).tsallis_entropies([p]).matrix(0)


def relative_operator_entropy(pair: OperatorPair) -> SymmetricMatrix:
    """A^{1/2} log(A^{-1/2} B A^{-1/2}) A^{1/2}; the p -> 0 limit of the above."""
    return _PairStack.of(pair).relative_entropies().matrix(0)


def _corrected_chord_claims(prefix: str, pairs: _PairStack, value, chord, low, high) -> tuple:
    """chord - low corr <= value <= chord - high corr, with corr the sandwich correction."""
    corr = pairs.correction()
    return (
        _Claims(f"{prefix}_lower", chord - low * corr, value),
        _Claims(f"{prefix}_upper", value, chord - high * corr),
    )


def tsallis_entropy_bounds(pair: OperatorPair, p: float):
    """Two-sided bounds for the Tsallis relative operator entropy.

        Lt - (1-p)/(2 M^{2-p}) corr <= T_p(A|B) <= Lt - (1-p)/(2 m^{2-p}) corr

    with Lt the entropy chord and corr the (non-positive) sandwich
    correction; the coefficients are the extreme values of the deformed
    logarithm's second derivative over [m, M], halved.
    """
    return _single(_tsallis_operator(_PairStack.of(pair, p=p)))


def _tsallis_operator(pairs: _PairStack) -> tuple:
    orders = [_validate_entropy_order(instance[3]) for instance in pairs.instances]
    value = pairs.tsallis_entropies(orders)  # checks 0 < m
    p = _columns([(order,) for order in orders])[0]
    coeff_a, coeff_b, low, high = _columns([
        (
            M - m + M * m * (M ** (p - 1.0) - m ** (p - 1.0)),
            M**p - m**p,
            (1.0 - p) / (2.0 * M ** (2.0 - p)),
            (1.0 - p) / (2.0 * m ** (2.0 - p)),
        )
        for (m, M), p in zip(((pair.m, pair.M) for pair in pairs.pairs), orders)  # each instance's p
    ])
    chord = (-1.0 / (p * (pairs.M - pairs.m))) * (coeff_a * pairs.A - coeff_b * pairs.B)
    return _corrected_chord_claims("tsallis_operator", pairs, value, chord, low, high)


def relative_entropy_bounds(pair: OperatorPair):
    """Two-sided bounds for the relative operator entropy (the p -> 0 limit).

        Ls - corr/(2M^2) <= S(A|B) <= Ls - corr/(2m^2)

    with Ls = ((B - mA) log M + (MA - B) log m)/(M - m).
    """
    return _single(_relative_entropy(_PairStack.of(pair)))


def _relative_entropy(pairs: _PairStack) -> tuple:
    value = pairs.relative_entropies()  # checks 0 < m
    log_m, log_M = _columns([(math.log(pair.m), math.log(pair.M)) for pair in pairs.pairs])
    chord = pairs.chord(log_m, log_M)
    low, high = _columns([(1.0 / (2.0 * pair.M**2), 1.0 / (2.0 * pair.m**2)) for pair in pairs.pairs])
    return _corrected_chord_claims("relative_entropy", pairs, value, chord, low, high)


def map_commutation_bounds(pair: OperatorPair, phi: PositiveUnitalMap, fn: ScalarFunction):
    """How far a unital positive map commutes with the perspective.

        ((alpha-beta)/2) {(M+m) Phi(B) - Mm Phi(A)}
            + (1/2)(beta Phi(A) natural_2 Phi(B) - alpha Phi(A natural_2 B))
        <= P_f(Phi(A)|Phi(B)) - Phi(P_f(A|B)) <=   ... with alpha and beta swapped.
    """
    return _single(_map_commutation(_PairStack.of(pair, phi, fn)))


def _map_commutation(pairs: _PairStack) -> tuple:
    """``map_commutation_bounds`` on a stack whose maps' images have one size.

    An instance's ``image`` is (Phi(A), Phi(B), their ``_sandwiched``
    matrix): a campaign builds it and solves its sandwiched matrix
    beforehand.  Where it is ``None`` the images are built here.
    """
    alpha, beta = pairs.ranges()
    images, mapped = [], []
    for position, (pair, phi, fn, _, image) in enumerate(pairs.instances):
        phi_A, phi_B, inner = image or (phi.apply(pair.A), phi.apply(pair.B), None)
        image_pair = _pair_on(phi_A, phi_B, inner, m=pair.m, M=pair.M)
        images.append(image_pair)
        mapped.append((perspective(image_pair, fn), phi.apply(pairs.perspective(position))))
    middle = _Stack.of([p for p, _ in mapped]) - _Stack.of([q for _, q in mapped])
    nat2_image = _Stack.of([image_pair.natural_power(2.0) for image_pair in images])
    nat2_preimage = _Stack.of([instance[1].apply(square) for instance, square in zip(pairs.instances, pairs.squares())])
    phi_A, phi_B = _Stack.of([image.A for image in images]), _Stack.of([image.B for image in images])
    base = (pairs.M + pairs.m) * phi_B - (pairs.M * pairs.m) * phi_A
    lower = ((alpha - beta) / 2.0) * base + 0.5 * (beta * nat2_image - alpha * nat2_preimage)
    upper = ((beta - alpha) / 2.0) * base + 0.5 * (alpha * nat2_image - beta * nat2_preimage)
    return (
        _Claims("map_commutation_lower", lower, middle),
        _Claims("map_commutation_upper", middle, upper),
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
