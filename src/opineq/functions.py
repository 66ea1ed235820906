"""Scalar function catalog, chord lines and interval constants.

The chord through (m, f(m)) and (M, f(M)), the attainable range of f'' on
[m, M], and the extrema of the chord-to-function ratio are the scalar
ingredients of every operator bound in this package.  Catalog entries carry
a closed-form second derivative plus its monotonicity, so the interval
extrema are endpoint evaluations whenever possible and a grid search with
golden-section refinement otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadParameter,
    DomainViolation,
    NonPositiveFunction,
    UnknownFunction,
)

__all__ = [
    "Deriv2Shape",
    "ScalarFunction",
    "IntervalBounds",
    "ChordLine",
    "catalog_lookup",
    "parse_function_spec",
    "second_derivative_range",
    "chord_line",
    "K_constant",
    "k_constant",
    "kantorovich_power_constant",
]

_GRID_POINTS = 4097
_REFINE_BRACKETS = 3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PARAM_TOL = 1e-12


class Deriv2Shape(enum.Enum):
    """Monotonicity of f'' on the function's domain, where known."""

    NONDECREASING = "nondecreasing"
    NONINCREASING = "nonincreasing"
    CONSTANT = "constant"
    GENERAL = "general"


@dataclass(frozen=True)
class ScalarFunction:
    """Twice differentiable scalar function with metadata.

    ``eval`` and ``deriv2`` accept floats or numpy arrays.  ``domain`` is an
    open interval; shape metadata must be consistent with ``deriv2`` (checked
    in tests, relied on by ``second_derivative_range``).
    """

    name: str
    eval: Callable
    deriv2: Callable
    domain: tuple[float, float]
    deriv2_shape: Deriv2Shape


@dataclass(frozen=True)
class IntervalBounds:
    """Interval [m, M] with the range [alpha, beta] of f'' on it."""

    m: float
    M: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class ChordLine:
    """Affine interpolant of f through (m, f(m)) and (M, f(M))."""

    m: float
    M: float
    f_m: float
    f_M: float

    @property
    def slope(self) -> float:
        return (self.f_M - self.f_m) / (self.M - self.m)

    @property
    def intercept(self) -> float:
        return (self.M * self.f_m - self.m * self.f_M) / (self.M - self.m)

    def __call__(self, t):
        if isinstance(t, (int, float)):
            # endpoint values are exact by definition
            if t == self.m:
                return self.f_m
            if t == self.M:
                return self.f_M
            return ((self.M - t) * self.f_m + (t - self.m) * self.f_M) / (self.M - self.m)
        arr = np.asarray(t, dtype=float)
        return ((self.M - arr) * self.f_m + (arr - self.m) * self.f_M) / (self.M - self.m)


def _const_fn(value: float) -> Callable:
    def evaluate(t):
        return np.full_like(np.asarray(t, dtype=float), value)

    return evaluate


def _power_function(r: float) -> ScalarFunction:
    integral = abs(r - round(r)) < _PARAM_TOL and round(r) >= 0
    domain = (-math.inf, math.inf) if integral else (0.0, math.inf)
    if abs(r) < _PARAM_TOL or abs(r - 1.0) < _PARAM_TOL:
        deriv2 = _const_fn(0.0)
        shape = Deriv2Shape.CONSTANT
    elif abs(r - 2.0) < _PARAM_TOL:
        deriv2 = _const_fn(2.0)
        shape = Deriv2Shape.CONSTANT
    else:
        coeff = r * (r - 1.0)

        def deriv2(t, _c=coeff, _e=r - 2.0):
            return _c * np.power(np.asarray(t, dtype=float), _e)

        if integral:
            # r >= 3 on the whole line: t^{r-2} is monotone iff r-2 is odd
            shape = Deriv2Shape.NONDECREASING if (round(r) - 2) % 2 == 1 else Deriv2Shape.GENERAL
        else:
            # nonzero: r = 0, 1 and 2 returned a constant f'' above
            slope_sign = r * (r - 1.0) * (r - 2.0)
            shape = Deriv2Shape.NONDECREASING if slope_sign > 0 else Deriv2Shape.NONINCREASING

    def evaluate(t, _r=r):
        return np.power(np.asarray(t, dtype=float), _r)

    return ScalarFunction(f"power:{r:g}", evaluate, deriv2, domain, shape)


def _validate_entropy_order(p: float) -> float:
    p = float(p)
    if not (-1.0 <= p <= 1.0) or abs(p) < _PARAM_TOL:
        raise BadParameter(f"order parameter must lie in [-1, 1] and be nonzero, got {p!r}")
    return p


def _tsallis_deformed_log(p: float) -> ScalarFunction:
    p = _validate_entropy_order(p)

    def evaluate(t, _p=p):
        return (1.0 - np.power(np.asarray(t, dtype=float), _p)) / _p

    def deriv2(t, _p=p):
        return (1.0 - _p) * np.power(np.asarray(t, dtype=float), _p - 2.0)

    shape = Deriv2Shape.CONSTANT if abs(p - 1.0) < _PARAM_TOL else Deriv2Shape.NONINCREASING
    return ScalarFunction(f"tsallis_f:{p:g}", evaluate, deriv2, (0.0, math.inf), shape)


def _tsallis_entropy_kernel(p: float) -> ScalarFunction:
    p = _validate_entropy_order(p)

    def evaluate(t, _p=p):
        arr = np.asarray(t, dtype=float)
        return (arr - np.power(arr, 1.0 - _p)) / _p

    def deriv2(t, _p=p):
        return (1.0 - _p) * np.power(np.asarray(t, dtype=float), -(_p + 1.0))

    if abs(p - 1.0) < _PARAM_TOL or abs(p + 1.0) < _PARAM_TOL:
        shape = Deriv2Shape.CONSTANT
    else:
        shape = Deriv2Shape.NONINCREASING
    return ScalarFunction(f"tsallis_g:{p:g}", evaluate, deriv2, (0.0, math.inf), shape)


def _log() -> ScalarFunction:
    return ScalarFunction(
        "log",
        lambda t: np.log(np.asarray(t, dtype=float)),
        lambda t: -1.0 / np.square(np.asarray(t, dtype=float)),
        (0.0, math.inf),
        Deriv2Shape.NONDECREASING,
    )


def _exp() -> ScalarFunction:
    return ScalarFunction(
        "exp",
        lambda t: np.exp(np.asarray(t, dtype=float)),
        lambda t: np.exp(np.asarray(t, dtype=float)),
        (-math.inf, math.inf),
        Deriv2Shape.NONDECREASING,
    )


# name -> (number of parameters, builder taking them as arguments)
_CATALOG = {
    "power": (1, _power_function),
    "log": (0, _log),
    "exp": (0, _exp),
    "tsallis_f": (1, _tsallis_deformed_log),
    "tsallis_g": (1, _tsallis_entropy_kernel),
}


def catalog_lookup(name: str, params=()) -> ScalarFunction:
    """Look up a catalog function.

    Names: ``power`` (one exponent parameter), ``log``, ``exp``,
    ``tsallis_f`` (deformed logarithm (1 - t^p)/p) and ``tsallis_g``
    ((t - t^{1-p})/p), the latter two with one order parameter in
    [-1, 1] excluding 0.
    """
    if name not in _CATALOG:
        raise UnknownFunction(f"no catalog entry named {name!r}")
    count, build = _CATALOG[name]
    params = tuple(float(p) for p in params)
    if len(params) != count:
        raise BadParameter(f"{name} takes {count} parameter(s), got {len(params)}")
    if not all(math.isfinite(p) for p in params):
        raise BadParameter(f"{name} parameters must be finite, got {params!r}")
    return build(*params)


def parse_function_spec(spec: str) -> ScalarFunction:
    """Parse 'name' or 'name:p1,p2' into a catalog function."""
    name, _, raw = spec.partition(":")
    if raw:
        try:
            params = [float(chunk) for chunk in raw.split(",")]
        except ValueError as exc:
            raise BadParameter(f"bad parameter list in {spec!r}") from exc
    else:
        params = []
    return catalog_lookup(name.strip(), params)


def _check_positive_interval(m: float, M: float) -> None:
    """Raise ``BadParameter`` unless 0 < m < M < inf, as sandwich and Kantorovich constants need."""
    if not (0.0 < m < M < math.inf):
        raise BadParameter(f"need 0 < m < M < inf, got m={m!r}, M={M!r}")


def _check_interval(fn: ScalarFunction, m: float, M: float) -> None:
    """Raise ``BadParameter`` unless m < M, then ``DomainViolation`` unless [m, M] is inside fn's domain."""
    if not m < M:
        raise BadParameter(f"need m < M, got m={m!r}, M={M!r}")
    lo, hi = fn.domain
    if not (lo < m and M < hi):
        raise DomainViolation(f"[{m}, {M}] is not inside the domain {fn.domain} of {fn.name}")


def _golden_max(fn: Callable, a: float, b: float, width: float) -> float:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = fn(c)
    fd = fn(d)
    while (b - a) > width:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return max(fc, fd, fn(0.5 * (a + b)))


def _refined_extremum(vals: np.ndarray, scalar_fn: Callable, lo: float, hi: float, *, maximize: bool):
    """The extremum from a grid scan plus golden-section refinement of the best brackets.

    ``vals`` are the function's values on ``_grid(lo, hi)``, 4097 equispaced
    samples that locate candidate brackets; the best three local extrema
    (plus the endpoints, which the grid hits exactly) are refined with
    ``scalar_fn`` to an interval width of 1e-12 relative to the interval
    length.
    """
    work = vals if maximize else -vals
    interior = np.where(
        (work[1:-1] >= work[:-2]) & (work[1:-1] >= work[2:])
    )[0] + 1
    ranked = interior[np.argsort(-work[interior], kind="stable")][:_REFINE_BRACKETS]
    best = float(work[np.argmax(work)])
    oriented = scalar_fn if maximize else (lambda t: -scalar_fn(t))
    width = 1e-12 * max(1.0, hi - lo)
    ts = _grid(lo, hi)
    for idx in ranked:
        a = float(ts[max(idx - 1, 0)])
        b = float(ts[min(idx + 1, _GRID_POINTS - 1)])
        best = max(best, _golden_max(oriented, a, b, width))
    return best if maximize else -best


def _grid(lo: float, hi: float) -> np.ndarray:
    """The 4097 equispaced samples of [lo, hi] that ``_refined_extremum`` scans."""
    return np.linspace(lo, hi, _GRID_POINTS)


def second_derivative_range(fn: ScalarFunction, m: float, M: float) -> IntervalBounds:
    """Range [alpha, beta] of f'' on [m, M].

    Endpoint evaluations when the shape metadata says f'' is monotone or
    constant; otherwise grid minimization with golden-section refinement.
    A constant f'' takes the nonincreasing branch, where both ends give the
    same bits.  That branch also keeps alpha <= beta for a tsallis_f or
    tsallis_g order within ``_PARAM_TOL`` of a constant one: it is marked
    constant, but its f'' decreases slightly.
    """
    _check_interval(fn, m, M)
    shape = fn.deriv2_shape
    if shape is Deriv2Shape.NONDECREASING:
        return IntervalBounds(float(m), float(M), float(fn.deriv2(m)), float(fn.deriv2(M)))
    if shape in (Deriv2Shape.NONINCREASING, Deriv2Shape.CONSTANT):
        return IntervalBounds(float(m), float(M), float(fn.deriv2(M)), float(fn.deriv2(m)))
    scalar = lambda t: float(fn.deriv2(t))
    vals = np.asarray(fn.deriv2(_grid(m, M)), dtype=float)
    alpha = _refined_extremum(vals, scalar, m, M, maximize=False)
    beta = _refined_extremum(vals, scalar, m, M, maximize=True)
    return IntervalBounds(float(m), float(M), alpha, beta)


def chord_line(fn: ScalarFunction, m: float, M: float) -> ChordLine:
    """Chord of fn over [m, M]; exact at both endpoints."""
    _check_interval(fn, m, M)
    return ChordLine(float(m), float(M), float(fn.eval(m)), float(fn.eval(M)))


def _ratio_grid(fn: ScalarFunction, m: float, M: float) -> tuple:
    """(the chord, chord/f on the grid of [m, M]): what ``K_constant`` and ``k_constant`` scan.

    f is evaluated on the grid once, and must be positive there.
    """
    chord = chord_line(fn, m, M)
    ts = _grid(m, M)
    fs = np.asarray(fn.eval(ts), dtype=float)
    scale = float(np.abs(fs).max())
    if float(fs.min()) < 1e-13 * scale:
        raise NonPositiveFunction(f"{fn.name} is not strictly positive on [{m}, {M}]")
    return chord, chord(ts) / fs


def _ratio_extremum(fn: ScalarFunction, m: float, M: float, *, maximize: bool, grid=None) -> float:
    """The extremum of chord/f on [m, M], scanning ``grid`` (``_ratio_grid(fn, m, M)``, built here if ``None``)."""
    chord, ratio = _ratio_grid(fn, m, M) if grid is None else grid

    def scalar(t):
        return chord(t) / float(fn.eval(t))

    return _refined_extremum(ratio, scalar, m, M, maximize=maximize)


def K_constant(fn: ScalarFunction, m: float, M: float) -> float:
    """Maximum of chord(t)/f(t) on [m, M]; >= 1 when f is convex and positive."""
    return _ratio_extremum(fn, m, M, maximize=True)


def k_constant(fn: ScalarFunction, m: float, M: float) -> float:
    """Minimum of chord(t)/f(t) on [m, M]; <= 1 when f is convex and positive."""
    return _ratio_extremum(fn, m, M, maximize=False)


def kantorovich_power_constant(m: float, M: float, r: float) -> float:
    """Generalized Kantorovich constant for the power function t^r on [m, M].

        K(m, M, r) = (m M^r - M m^r) / ((r-1)(M-m))
                     * ((r-1)/r * (M^r - m^r) / (m M^r - M m^r))^r

    with the convention K(m, M, 0) = K(m, M, 1) = 1.  For r where t^r is
    convex this equals the maximum of chord/f; for r in (0, 1) it equals the
    minimum (the function is concave there).
    """
    _check_positive_interval(m, M)
    if not math.isfinite(r):
        raise BadParameter(f"power r must be finite, got {r!r}")
    if abs(r) < _PARAM_TOL or abs(r - 1.0) < _PARAM_TOL:
        return 1.0
    numer = m * M**r - M * m**r
    first = numer / ((r - 1.0) * (M - m))
    second = ((r - 1.0) / r) * (M**r - m**r) / numer
    return first * second**r
