"""Two-sided Jensen-type operator bounds for unital positive maps.

For twice differentiable f with alpha <= f'' <= beta on [m, M] enclosing
Sp(A), the chord through the interval endpoints plus a parabolic correction
bounds Phi(f(A)) and f(Phi(A)) from both sides without any convexity
assumption:

    Phi(f(A)) <= L(Phi(A)) - (alpha/2) * ((M+m) Phi(A) - Mm - Phi(A^2))
    Phi(f(A)) >= L(Phi(A)) - (beta/2)  * ((M+m) Phi(A) - Mm - Phi(A^2))
    f(Phi(A)) <= L(Phi(A)) - (alpha/2) * ((M+m) Phi(A) - Mm - Phi(A)^2)
    f(Phi(A)) >= L(Phi(A)) - (beta/2)  * ((M+m) Phi(A) - Mm - Phi(A)^2)

Combining opposite pairs gives additive two-sided comparisons between
Phi(f(A)) and f(Phi(A)); ratio versions with the extrema of L/f give
Kantorovich-type sandwiches, a refinement chain for strictly convex f,
power-function chains and an additive sharpening of the Kantorovich
inequality.

Each family is written once, on a ``_CdjStack`` of instances whose Phi(A)
have one size: a campaign evaluates it once for a chunk's trials, and the
public functions on a stack of one context, whose stacked comparisons
``_single`` turns into reports.  Each instance's matrices have the bits its
context gives alone (see ``_CdjStack``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInterval,
    NonPositiveConstant,
    NotPositiveDefinite,
    NotStrictlyConvex,
    SpectrumNotEnclosed,
)
from .functions import (
    ScalarFunction,
    _check_positive_interval,
    _ratio_extremum,
    _ratio_grid,
    catalog_lookup,
    chord_line,
    kantorovich_power_constant,
    second_derivative_range,
)
from .maps import PositiveUnitalMap
from .spectral import (
    LoewnerVerdict,
    SymmetricMatrix,
    _Stack,
    _check_hull,
    _checked_tolerance,
    _eigenvalues_many,
    _interval_or_hull,
    _loewner_tolerance,
    _loewner_verdict,
    apply_scalar_function,
    strict_positivity_tolerance,
)

__all__ = [
    "InequalityReport",
    "ChainReport",
    "CdjContext",
    "build_context",
    "chord_bounds",
    "jensen_upper_bound",
    "jensen_converse_bound",
    "jensen_third_term",
    "ratio_sandwich",
    "ratio_sandwich_min",
    "refined_sandwich_chain",
    "power_function_chain",
    "improved_kantorovich",
    "ImprovedKantorovich",
    "with_tolerance",
]


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one claimed comparison ``lhs <= rhs`` in the PSD order.

    ``tolerance`` is the tolerance the gap rhs - lhs is judged at.  The
    verdict is judged on first access, unless ``_judge`` judged it before,
    together with other reports; the bits are the same either way.
    """

    label: str
    lhs: SymmetricMatrix
    rhs: SymmetricMatrix
    tolerance: float

    @cached_property
    def verdict(self) -> LoewnerVerdict:
        gaps = _eigenvalues_many([(self.rhs - self.lhs).entries])[0]
        return _loewner_verdict(gaps, self.tolerance)

    @property
    def tightness(self) -> float:
        """Signed minimum eigenvalue of rhs - lhs; negative means violated."""
        return self.verdict.gap_min_eig

    @property
    def holds(self) -> bool:
        return self.verdict.holds_le

    @property
    def scale(self) -> float:
        return max(self.lhs.norm_max, self.rhs.norm_max)


def _claim(label: str, lhs: SymmetricMatrix, rhs: SymmetricMatrix, tol=None) -> InequalityReport:
    """The claim lhs <= rhs, judged as ``loewner_compare(lhs, rhs, tol)`` would judge it."""
    return InequalityReport(label, lhs, rhs, _loewner_tolerance(lhs, rhs, tol))


def with_tolerance(report: InequalityReport, tol: float) -> InequalityReport:
    """The same comparison, judged at a caller-chosen tolerance."""
    return replace(report, tolerance=_checked_tolerance(tol))


class _Claims:
    """The claim lhs <= rhs on each instance of two ``_Stack``s; ``_judge`` fills ``gaps`` and ``scales``.

    ``gaps`` are the ascending eigenvalues of each rhs - lhs, and ``scales``
    each instance's max(max|lhs|, max|rhs|), the ``scale`` of its report.
    """

    __slots__ = ("label", "lhs", "rhs", "gaps", "scales")

    def __init__(self, label: str, lhs: _Stack, rhs: _Stack):
        self.label = label
        self.lhs = lhs
        self.rhs = rhs
        self.gaps = None
        self.scales = None


class _Chain:
    """A chain of ``_Claims`` on a stack plus the prerequisites its proof leans on; see ``ChainReport``."""

    __slots__ = ("label", "links", "prerequisites")

    def __init__(self, label: str, links: tuple, prerequisites: tuple):
        self.label = label
        self.links = links
        self.prerequisites = prerequisites


def _parts(item) -> tuple:
    """The comparisons an item of a report list consists of."""
    if isinstance(item, ChainReport):
        return item.reports
    if isinstance(item, _Chain):
        return item.links + item.prerequisites
    return (item,)


def _judge(reports, *matrices) -> list:
    """Judge every pending comparison of ``reports`` in one batched solve.

    ``reports`` may mix ``InequalityReport``, ``ChainReport``, ``_Claims``
    and ``_Chain`` items with other checks, which are passed over.  The
    eigenvalues of ``matrices`` (eigenvalues-only, ascending) are solved in
    the same call and returned in order: an array for a ``SymmetricMatrix``,
    a list of them for a ``_Stack``.
    """
    pending = {}
    for item in reports:
        for report in _parts(item):
            if (isinstance(report, _Claims) and report.gaps is None) or (
                isinstance(report, InequalityReport) and "verdict" not in vars(report)
            ):
                pending[id(report)] = report
    arrays = []
    for report in pending.values():
        gap = report.rhs - report.lhs
        arrays.extend(gap.entries if isinstance(gap, _Stack) else (gap.entries,))
    for matrix in matrices:
        arrays.extend(matrix.entries if isinstance(matrix, _Stack) else (matrix.entries,))
    spectra = _eigenvalues_many(arrays)
    start = 0
    for report in pending.values():
        if isinstance(report, _Claims):
            end = start + len(report.lhs.entries)
            report.gaps = spectra[start:end]
            report.scales = np.maximum(report.lhs.norm_max(), report.rhs.norm_max()).tolist()
        else:
            end = start + 1
            # a frozen dataclass: fill the cached_property as its first access would
            object.__setattr__(report, "verdict", _loewner_verdict(spectra[start], report.tolerance))
        start = end
    solved = []
    for matrix in matrices:
        if isinstance(matrix, _Stack):
            solved.append(spectra[start:start + len(matrix.entries)])
            start += len(matrix.entries)
        else:
            solved.append(spectra[start])
            start += 1
    return solved


def _outcome(item, position: int) -> tuple[float, float]:
    """(tightness, scale) of a report, or of the instance at ``position`` of a stacked item.

    A stacked item gives the bits its instance's report gives alone: the
    least gap over its comparisons in their order, and the largest scale.
    """
    if not isinstance(item, (_Claims, _Chain)):
        return item.tightness, item.scale
    parts = _parts(item)
    return (min(float(claims.gaps[position][0]) for claims in parts),
            max(claims.scales[position] for claims in parts))


def _single(items) -> tuple:
    """The reports of the ``_Claims`` and ``_Chain`` items of a stack of one instance."""
    def report(claims: _Claims) -> InequalityReport:
        return _claim(claims.label, claims.lhs.matrix(0), claims.rhs.matrix(0))

    return tuple(
        report(item) if isinstance(item, _Claims)
        else ChainReport(item.label, tuple(map(report, item.links)), tuple(map(report, item.prerequisites)))
        for item in items
    )


@dataclass(frozen=True)
class ChainReport:
    """A chain of comparisons plus the prerequisites its proof leans on."""

    label: str
    links: tuple[InequalityReport, ...]
    prerequisites: tuple[InequalityReport, ...] = ()

    @property
    def reports(self) -> tuple[InequalityReport, ...]:
        return self.links + self.prerequisites

    @property
    def holds(self) -> bool:
        return all(r.holds for r in self.reports)

    @property
    def tightness(self) -> float:
        return min(r.tightness for r in self.reports)

    @property
    def scale(self) -> float:
        return max(r.scale for r in self.reports)


@dataclass(frozen=True)
class CdjContext:
    """One operator instance with everything the bounds need precomputed.

    ``with_function`` gives the same instance for another function.  The
    contexts of one instance share every term that does not depend on the
    function: Phi(A), Phi(A^2), Phi(A)^2, the identity, the affine part
    (M+m) Phi(A) - Mm of both correction terms and the corrections themselves.
    """

    matrix: SymmetricMatrix
    phi: PositiveUnitalMap
    fn: ScalarFunction
    m: float
    M: float
    alpha: float  # the range [alpha, beta] of f'' on [m, M]
    beta: float
    phi_A: SymmetricMatrix
    phi_A2: SymmetricMatrix
    phi_A_sq: SymmetricMatrix
    phi_fA: SymmetricMatrix
    f_phi_A: SymmetricMatrix
    # (M+m) Phi(A) - Mm - Phi(A^2); PSD because Phi((M-A)(A-m)) >= 0
    correction_image: SymmetricMatrix
    # (M+m) Phi(A) - Mm - Phi(A)^2 = (M - Phi(A))(Phi(A) - m); PSD
    correction_point: SymmetricMatrix
    _identity: SymmetricMatrix = field(repr=False)
    _affine: SymmetricMatrix = field(repr=False)

    @cached_property
    def _ratio_grid(self):
        """chord/f on the grid of [m, M], which K and k both scan; built on first use."""
        return _ratio_grid(self.fn, self.m, self.M)

    @cached_property
    def _big_k(self) -> float:
        """``K_constant`` of this context's function on [m, M], computed on first use."""
        return _ratio_extremum(self.fn, self.m, self.M, maximize=True, grid=self._ratio_grid)

    def with_function(self, fn: ScalarFunction) -> "CdjContext":
        """This instance with ``fn``; equal to ``build_context`` with ``fn``, bit for bit.

        The function-dependent memo of K is not carried over: ``replace`` builds a new instance.
        """
        bounds = second_derivative_range(fn, self.m, self.M)
        return replace(
            self,
            fn=fn,
            alpha=bounds.alpha,
            beta=bounds.beta,
            phi_fA=self.phi.apply(apply_scalar_function(self.matrix, fn)),
            f_phi_A=apply_scalar_function(self.phi_A, fn),
        )

    def chord_at_phi_A(self) -> SymmetricMatrix:
        return _CdjStack((self,)).chord_at_phi_A().matrix(0)


def _columns(rows) -> np.ndarray:
    """Per-instance scalars, one tuple of floats per instance, as ``(columns, k, 1, 1)`` factors."""
    return np.array(rows, dtype=float).T[:, :, None, None]


class _CdjStack:
    """The contexts of k instances whose Phi(A) have one size, their terms stacked.

    Every family of ``CdjContext`` is written once, on this: a campaign
    evaluates it once for a chunk's trials of one Phi(A) size, and the
    public functions on a stack of one context.  Each ``CdjContext`` term is
    a ``_Stack`` of the contexts' matrices, and m, M, alpha and beta are
    ``(k, 1, 1)`` factors.  A family's other scalars (the chord, K, k and the
    power constants) are computed instance by instance in Python, as for one
    context, and enter the stacks only through + - * /.  So every matrix of
    every term has the bits its context's gives alone: numpy's own power,
    exp and log never run on the scalars, and no product runs on a stack.
    ``with_function`` shares the function-independent terms and the
    correction-PSD prerequisites, as ``CdjContext.with_function`` does.
    """

    # the terms that do not depend on the function, stacked once
    _TERMS = ("phi_A", "phi_A2", "phi_A_sq", "correction_image", "correction_point", "_identity", "_affine")

    def __init__(self, contexts: tuple, shared: "_CdjStack | None" = None):
        self.contexts = contexts
        self.alpha, self.beta = _columns([(c.alpha, c.beta) for c in contexts])
        self.phi_fA = _Stack.of([c.phi_fA for c in contexts])
        self.f_phi_A = _Stack.of([c.f_phi_A for c in contexts])
        if shared is None:
            self.m, self.M = _columns([(c.m, c.M) for c in contexts])
            for name in self._TERMS:
                setattr(self, name, _Stack.of([getattr(c, name) for c in contexts]))
            self._psd = {}  # "image"/"point" -> the claim that that correction is PSD
        else:
            for name in ("m", "M", *self._TERMS, "_psd"):
                setattr(self, name, getattr(shared, name))

    def with_function(self, fn: ScalarFunction) -> "_CdjStack":
        return _CdjStack(tuple(c.with_function(fn) for c in self.contexts), self)

    def take(self, positions) -> "_CdjStack":
        """The stack of the contexts at ``positions``."""
        return _CdjStack(tuple(self.contexts[j] for j in positions))

    def column(self, value) -> np.ndarray:
        """``value(context)``, a float computed in Python, of each instance as a ``(k, 1, 1)`` factor."""
        return _columns([(value(c),) for c in self.contexts])[0]

    def chord_at_phi_A(self) -> _Stack:
        lines = [chord_line(c.fn, c.m, c.M) for c in self.contexts]
        slope, intercept = _columns([(line.slope, line.intercept) for line in lines])
        return slope * self.phi_A + intercept * self._identity

    def _correction_psd(self, which: str) -> _Claims:
        """The claim that the ``which`` ("image" or "point") correction is PSD."""
        if which not in self._psd:
            term = self.correction_image if which == "image" else self.correction_point
            self._psd[which] = _psd_prerequisite(f"{which}_correction_psd", term)
        return self._psd[which]


def _interval_for(matrix: SymmetricMatrix, m, M):
    lo, hi = matrix.min_eigenvalue(), matrix.max_eigenvalue()
    m, M = _interval_or_hull(lo, hi, m, M)
    tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
    _check_hull(lo, hi, m, M, tol, SpectrumNotEnclosed, "spectrum")
    if m == M:
        raise DegenerateInterval("m == M: the operator is a scalar; chord undefined")
    return m, M


def build_context(
    matrix: SymmetricMatrix,
    phi: PositiveUnitalMap,
    fn: ScalarFunction,
    m: float | None = None,
    M: float | None = None,
) -> CdjContext:
    """Assemble a context; [m, M] defaults to the exact spectral hull.

    User-supplied intervals may be wider than the hull (that changes alpha
    and beta); they must still enclose the spectrum.
    """
    return _build_context(matrix, phi, fn, m, M, None)


def _build_context(
    matrix: SymmetricMatrix, phi: PositiveUnitalMap, fn: ScalarFunction, m, M, phi_A
) -> CdjContext:
    """``build_context``, with ``phi_A`` = ``phi.apply(matrix)`` if built already, else ``None``.

    A campaign builds Phi(A) and solves it beforehand, beside the drawn A.
    """
    m, M = _interval_for(matrix, m, M)
    bounds = second_derivative_range(fn, m, M)
    if phi_A is None:
        phi_A = phi.apply(matrix)
    tol = 1e-12 * (1.0 + max(abs(m), abs(M)))
    # a unital positive map keeps Phi(A) inside [m, M]
    lo, hi = phi_A.min_eigenvalue(), phi_A.max_eigenvalue()
    _check_hull(lo, hi, m, M, tol, SpectrumNotEnclosed, "spectrum of Phi(A)")
    phi_A2 = phi.apply(matrix.squared())
    phi_A_sq = phi_A.squared()
    identity = SymmetricMatrix.identity(phi_A.dim)
    affine = (M + m) * phi_A - (M * m) * identity
    return CdjContext(
        matrix=matrix,
        phi=phi,
        fn=fn,
        m=bounds.m,
        M=bounds.M,
        alpha=bounds.alpha,
        beta=bounds.beta,
        phi_A=phi_A,
        phi_A2=phi_A2,
        phi_A_sq=phi_A_sq,
        phi_fA=phi.apply(apply_scalar_function(matrix, fn)),
        f_phi_A=apply_scalar_function(phi_A, fn),
        correction_image=affine - phi_A2,
        correction_point=affine - phi_A_sq,
        _identity=identity,
        _affine=affine,
    )


def chord_bounds(ctx: CdjContext):
    """The four chord-with-parabolic-correction comparisons.

    Reports are normalized so the claim is always lhs <= rhs.
    """
    return _single(_chord(_CdjStack((ctx,))))


def _chord(ctx: _CdjStack) -> tuple:
    chord = ctx.chord_at_phi_A()
    g_img = ctx.correction_image
    g_pt = ctx.correction_point
    alpha, beta = ctx.alpha, ctx.beta
    return (
        _Claims("chord_upper_image", ctx.phi_fA, chord - (alpha / 2.0) * g_img),
        _Claims("chord_lower_image", chord - (beta / 2.0) * g_img, ctx.phi_fA),
        _Claims("chord_upper_jensen", ctx.f_phi_A, chord - (alpha / 2.0) * g_pt),
        _Claims("chord_lower_jensen", chord - (beta / 2.0) * g_pt, ctx.f_phi_A),
    )


def _spread_term(ctx: _CdjStack) -> _Stack:
    return ((ctx.beta - ctx.alpha) / 2.0) * ctx._affine


def jensen_third_term(ctx: CdjContext) -> SymmetricMatrix:
    """(1/2)(alpha Phi(A)^2 - beta Phi(A^2)); its sign is not determined."""
    return _third_term(_CdjStack((ctx,))).matrix(0)


def _third_term(ctx: _CdjStack) -> _Stack:
    return 0.5 * (ctx.alpha * ctx.phi_A_sq - ctx.beta * ctx.phi_A2)


def jensen_upper_bound(ctx: CdjContext) -> InequalityReport:
    """f(Phi(A)) <= Phi(f(A)) + spread term + (1/2)(alpha Phi(A)^2 - beta Phi(A^2))."""
    return _single(_jensen_upper(_CdjStack((ctx,))))[0]


def _jensen_upper(ctx: _CdjStack) -> tuple:
    rhs = ctx.phi_fA + _spread_term(ctx) + _third_term(ctx)
    return (_Claims("jensen_upper", ctx.f_phi_A, rhs),)


def jensen_converse_bound(ctx: CdjContext) -> InequalityReport:
    """Phi(f(A)) <= f(Phi(A)) + spread term + (1/2)(alpha Phi(A^2) - beta Phi(A)^2)."""
    return _single(_jensen_converse(_CdjStack((ctx,))))[0]


def _jensen_converse(ctx: _CdjStack) -> tuple:
    rhs = ctx.f_phi_A + _spread_term(ctx) + 0.5 * (
        ctx.alpha * ctx.phi_A2 - ctx.beta * ctx.phi_A_sq
    )
    return (_Claims("jensen_converse", ctx.phi_fA, rhs),)


def _sandwich_terms(ctx: _CdjStack, const, half):
    """(1/c){Phi(f(A)) + h corr_image} and c Phi(f(A)) - h corr_point.

    With c = K and h = alpha/2 they bound f(Phi(A)) from below and above;
    with c = k and h = beta/2 they bound it from above and below.
    """
    return (
        (1.0 / const) * (ctx.phi_fA + half * ctx.correction_image),
        const * ctx.phi_fA - half * ctx.correction_point,
    )


def ratio_sandwich(ctx: CdjContext):
    """Kantorovich-type sandwich with K = max of chord/f; needs f > 0 on [m, M].

        (1/K) {Phi(f(A)) + (alpha/2) corr_image} <= f(Phi(A))
                                                 <= K Phi(f(A)) - (alpha/2) corr_point
    """
    return _single(_ratio(_CdjStack((ctx,)), ctx._big_k))


def _ratio(ctx: _CdjStack, big_k) -> tuple:
    lower, upper = _sandwich_terms(ctx, big_k, ctx.alpha / 2.0)
    return (
        _Claims("ratio_lower", lower, ctx.f_phi_A),
        _Claims("ratio_upper", ctx.f_phi_A, upper),
    )


def ratio_sandwich_min(ctx: CdjContext):
    """Companion sandwich with k = min of chord/f and the beta correction.

        k Phi(f(A)) - (beta/2) corr_point <= f(Phi(A))
                                          <= (1/k) {Phi(f(A)) + (beta/2) corr_image}
    """
    return _single(_ratio_min(_CdjStack((ctx,)), _small_k(ctx)))


def _small_k(ctx: CdjContext) -> float:
    """``k_constant`` of the context's function on [m, M], which must be positive."""
    small_k = _ratio_extremum(ctx.fn, ctx.m, ctx.M, maximize=False, grid=ctx._ratio_grid)
    if small_k <= 0.0:
        raise NonPositiveConstant(f"chord/function minimum {small_k!r} is not positive")
    return small_k


def _ratio_min(ctx: _CdjStack, small_k) -> tuple:
    upper, lower = _sandwich_terms(ctx, small_k, ctx.beta / 2.0)
    return (
        _Claims("ratio_min_lower", lower, ctx.f_phi_A),
        _Claims("ratio_min_upper", ctx.f_phi_A, upper),
    )


def _psd_prerequisite(label: str, term: _Stack) -> _Claims:
    return _Claims(label, 0.0 * term, term)


def _sandwich_chain(
    ctx: _CdjStack, label: str, prefix: str, const, half,
    *, closed: bool = True, reverse: bool = False,
) -> _Chain:
    """The chain of ``_sandwich_terms`` around f(Phi(A)) with its outer terms.

    Closed, five terms and both correction terms PSD as prerequisites:
        (1/c) Phi(f(A)) <= (1/c){Phi(f(A)) + h corr_image} <= f(Phi(A))
                        <= c Phi(f(A)) - h corr_point <= c Phi(f(A))
    Open, four terms ending in f(Phi(A)) <= Phi(f(A)), and only the image
    correction as a prerequisite.  ``reverse`` flips every link.  Links are
    labelled ``prefix`` plus their position.
    """
    lower, upper = _sandwich_terms(ctx, const, half)
    tail = [upper, const * ctx.phi_fA] if closed else [ctx.phi_fA]
    terms = [(1.0 / const) * ctx.phi_fA, lower, ctx.f_phi_A, *tail]
    pairs = [(b, a) if reverse else (a, b) for a, b in zip(terms, terms[1:])]
    links = tuple(_Claims(f"{prefix}{i}", a, b) for i, (a, b) in enumerate(pairs, 1))
    corrections = ("image", "point") if closed else ("image",)
    return _Chain(label, links, tuple(ctx._correction_psd(which) for which in corrections))


def refined_sandwich_chain(ctx: CdjContext) -> ChainReport:
    """Five-term refinement of the ratio sandwich for strictly convex f.

        (1/K) Phi(f(A)) <= (1/K){Phi(f(A)) + (alpha/2) corr_image}
                        <= f(Phi(A))
                        <= K Phi(f(A)) - (alpha/2) corr_point
                        <= K Phi(f(A))
    """
    return _single(_refined_chain(_CdjStack((ctx,)), _refined_k(ctx)))[0]


def _refined_k(ctx: CdjContext) -> float:
    """K of the refined chain, whose f must be strictly convex (alpha > 0)."""
    if ctx.alpha <= 0.0:
        raise NotStrictlyConvex(f"alpha = {ctx.alpha!r} is not positive")
    return ctx._big_k


def _refined_chain(ctx: _CdjStack, big_k) -> tuple:
    return (_sandwich_chain(ctx, "refined_chain", "refined_chain_link", big_k, ctx.alpha / 2.0),)


def power_function_chain(
    matrix: SymmetricMatrix,
    phi: PositiveUnitalMap,
    r: float,
    m: float | None = None,
    M: float | None = None,
) -> ChainReport:
    """Sandwich chain for f(t) = t^r with the closed-form power constant.

    Three regimes:
      * r < -1 or r > 2: full five-term chain with
        gamma = r(r-1) min(m^{r-2}, M^{r-2});
      * r in [-1, 0] or [1, 2]: four terms, the last step by operator
        convexity of t^r;
      * 0 < r < 1: directions reverse (t^r is operator concave) and the
        correction enters with coefficient -r(1-r)/(2 M^{2-r}), the maximal
        second derivative on the interval.
    """
    return _single(_power_chain(_CdjStack((_power_context(matrix, phi, r, m, M),)), r))[0]


def _power_context(matrix: SymmetricMatrix, phi: PositiveUnitalMap, r: float, m, M) -> CdjContext:
    """``build_context`` for t^r, once [m, M] is checked to satisfy 0 < m < M < inf.

    The positivity check runs first, so an infinite M is a ``BadParameter``
    rather than a failure of the second-derivative range.
    """
    m, M = _interval_for(matrix, m, M)
    _check_positive_interval(m, M)
    return build_context(matrix, phi, catalog_lookup("power", [r]), m, M)


def _power_chain(ctx: _CdjStack, r: float) -> tuple:
    """``power_function_chain`` on a stack whose function is t^r."""
    big_k = ctx.column(lambda c: kantorovich_power_constant(c.m, c.M, r))
    label = f"power_chain[r={r:g}]"
    if 0.0 < r < 1.0:
        # t^r is concave, so beta = r(r-1) M^{r-2} < 0 is the relevant
        # second-derivative bound and every comparison flips.
        half = ctx.column(lambda c: -(r * (1.0 - r) / (2.0 * c.M ** (2.0 - r))))
        return (_sandwich_chain(ctx, label, "power_link", big_k, half, closed=False, reverse=True),)
    gamma = ctx.column(lambda c: r * (r - 1.0) * min(c.m ** (r - 2.0), c.M ** (r - 2.0)))
    return (_sandwich_chain(ctx, label, "power_link", big_k, gamma / 2.0, closed=r < -1.0 or r > 2.0),)


@dataclass(frozen=True)
class ImprovedKantorovich:
    """Additive sharpening of the Kantorovich inequality.

        Phi(A^{-1}) <= (M+m)^2/(4Mm) Phi(A)^{-1}
                       - ((M+m) Phi(A) - Mm - Phi(A^2)) / M^3

    ``inequality`` is the sharpened comparison, ``improvement_psd`` certifies
    the subtracted term is PSD (so the sharpened bound sits below the
    classical one).
    """

    inequality: InequalityReport
    improvement_psd: InequalityReport
    phi_inv: SymmetricMatrix
    classical_rhs: SymmetricMatrix
    improved_rhs: SymmetricMatrix

    @property
    def holds(self) -> bool:
        return self.inequality.holds and self.improvement_psd.holds


def improved_kantorovich(
    matrix: SymmetricMatrix,
    phi: PositiveUnitalMap,
    m: float | None = None,
    M: float | None = None,
) -> ImprovedKantorovich:
    if matrix.min_eigenvalue() <= strict_positivity_tolerance(matrix):
        raise NotPositiveDefinite("the operator must be strictly positive")
    ctx = _power_context(matrix, phi, -1.0, m, M)
    *claims, classical_rhs, improved_rhs = _improved_kantorovich(_CdjStack((ctx,)))
    inequality, improvement_psd = _single(claims)
    return ImprovedKantorovich(
        inequality=inequality,
        improvement_psd=improvement_psd,
        phi_inv=ctx.phi_fA,
        classical_rhs=classical_rhs.matrix(0),
        improved_rhs=improved_rhs.matrix(0),
    )


def _improved_kantorovich(ctx: _CdjStack) -> tuple:
    """``improved_kantorovich`` on a stack whose function is t^{-1}.

    Returns the ``_Claims`` of ``ImprovedKantorovich``'s ``inequality`` and
    ``improvement_psd``, then the stacks of its ``classical_rhs`` and
    ``improved_rhs``.
    """
    improvement = ctx.column(lambda c: 1.0 / c.M**3) * ctx.correction_image
    classical_rhs = ctx.column(lambda c: (c.M + c.m) ** 2 / (4.0 * c.M * c.m)) * ctx.f_phi_A
    improved_rhs = classical_rhs - improvement
    return (
        _Claims("improved_kantorovich", ctx.phi_fA, improved_rhs),
        _psd_prerequisite("kantorovich_improvement_psd", improvement),
        classical_rhs,
        improved_rhs,
    )
