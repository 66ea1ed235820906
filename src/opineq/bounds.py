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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import (
    DegenerateInterval,
    NonPositiveConstant,
    NotPositiveDefinite,
    NotStrictlyConvex,
    SpectrumNotEnclosed,
)
from .functions import (
    K_constant,
    ScalarFunction,
    _check_positive_interval,
    catalog_lookup,
    chord_line,
    k_constant,
    kantorovich_power_constant,
    second_derivative_range,
)
from .maps import PositiveUnitalMap
from .spectral import (
    LoewnerVerdict,
    SymmetricMatrix,
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


def _judge(reports, *matrices) -> list:
    """Judge every pending comparison of ``reports`` in one batched solve.

    ``reports`` may mix ``InequalityReport`` and ``ChainReport`` items with
    other checks, which are passed over.  The eigenvalues of ``matrices``
    (eigenvalues-only, ascending) are solved in the same call and returned.
    """
    pending = {}
    for item in reports:
        for report in item.reports if isinstance(item, ChainReport) else (item,):
            if isinstance(report, InequalityReport) and "verdict" not in vars(report):
                pending[id(report)] = report
    spectra = _eigenvalues_many(
        [(r.rhs - r.lhs).entries for r in pending.values()] + [m.entries for m in matrices]
    )
    for report, gaps in zip(pending.values(), spectra):
        # a frozen dataclass: fill the cached_property as its first access would
        object.__setattr__(report, "verdict", _loewner_verdict(gaps, report.tolerance))
    return spectra[len(pending):]


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
    (M+m) Phi(A) - Mm of both correction terms, the corrections themselves
    and the verdicts that they are PSD.
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
    # "image"/"point" -> PSD verdict on that correction, judged on first use
    _psd: dict = field(repr=False, compare=False)

    @cached_property
    def _big_k(self) -> float:
        """``K_constant`` of this context's function on [m, M], computed on first use."""
        return K_constant(self.fn, self.m, self.M)

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
        chord = chord_line(self.fn, self.m, self.M)
        return chord.slope * self.phi_A + chord.intercept * self._identity

    def _correction_psd(self, which: str) -> "InequalityReport":
        """The verdict that the ``which`` ("image" or "point") correction is PSD."""
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
        _psd={},
    )


def chord_bounds(ctx: CdjContext):
    """The four chord-with-parabolic-correction comparisons.

    Reports are normalized so the claim is always lhs <= rhs.
    """
    chord = ctx.chord_at_phi_A()
    g_img = ctx.correction_image
    g_pt = ctx.correction_point
    alpha, beta = ctx.alpha, ctx.beta
    return (
        _claim("chord_upper_image", ctx.phi_fA, chord - (alpha / 2.0) * g_img),
        _claim("chord_lower_image", chord - (beta / 2.0) * g_img, ctx.phi_fA),
        _claim("chord_upper_jensen", ctx.f_phi_A, chord - (alpha / 2.0) * g_pt),
        _claim("chord_lower_jensen", chord - (beta / 2.0) * g_pt, ctx.f_phi_A),
    )


def _spread_term(ctx: CdjContext) -> SymmetricMatrix:
    return ((ctx.beta - ctx.alpha) / 2.0) * ctx._affine


def jensen_third_term(ctx: CdjContext) -> SymmetricMatrix:
    """(1/2)(alpha Phi(A)^2 - beta Phi(A^2)); its sign is not determined."""
    return 0.5 * (ctx.alpha * ctx.phi_A_sq - ctx.beta * ctx.phi_A2)


def jensen_upper_bound(ctx: CdjContext) -> InequalityReport:
    """f(Phi(A)) <= Phi(f(A)) + spread term + (1/2)(alpha Phi(A)^2 - beta Phi(A^2))."""
    rhs = ctx.phi_fA + _spread_term(ctx) + jensen_third_term(ctx)
    return _claim("jensen_upper", ctx.f_phi_A, rhs)


def jensen_converse_bound(ctx: CdjContext) -> InequalityReport:
    """Phi(f(A)) <= f(Phi(A)) + spread term + (1/2)(alpha Phi(A^2) - beta Phi(A)^2)."""
    rhs = ctx.f_phi_A + _spread_term(ctx) + 0.5 * (
        ctx.alpha * ctx.phi_A2 - ctx.beta * ctx.phi_A_sq
    )
    return _claim("jensen_converse", ctx.phi_fA, rhs)


def _sandwich_terms(ctx: CdjContext, const: float, half: float):
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
    lower, upper = _sandwich_terms(ctx, ctx._big_k, ctx.alpha / 2.0)
    return (
        _claim("ratio_lower", lower, ctx.f_phi_A),
        _claim("ratio_upper", ctx.f_phi_A, upper),
    )


def ratio_sandwich_min(ctx: CdjContext):
    """Companion sandwich with k = min of chord/f and the beta correction.

        k Phi(f(A)) - (beta/2) corr_point <= f(Phi(A))
                                          <= (1/k) {Phi(f(A)) + (beta/2) corr_image}
    """
    small_k = k_constant(ctx.fn, ctx.m, ctx.M)
    if small_k <= 0.0:
        raise NonPositiveConstant(f"chord/function minimum {small_k!r} is not positive")
    upper, lower = _sandwich_terms(ctx, small_k, ctx.beta / 2.0)
    return (
        _claim("ratio_min_lower", lower, ctx.f_phi_A),
        _claim("ratio_min_upper", ctx.f_phi_A, upper),
    )


def _psd_prerequisite(label: str, term: SymmetricMatrix) -> InequalityReport:
    return _claim(label, 0.0 * term, term)


def _sandwich_chain(
    ctx: CdjContext, label: str, prefix: str, const: float, half: float,
    *, closed: bool = True, reverse: bool = False,
) -> ChainReport:
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
    links = tuple(_claim(f"{prefix}{i}", a, b) for i, (a, b) in enumerate(pairs, 1))
    corrections = ("image", "point") if closed else ("image",)
    return ChainReport(label, links, tuple(ctx._correction_psd(which) for which in corrections))


def refined_sandwich_chain(ctx: CdjContext) -> ChainReport:
    """Five-term refinement of the ratio sandwich for strictly convex f.

        (1/K) Phi(f(A)) <= (1/K){Phi(f(A)) + (alpha/2) corr_image}
                        <= f(Phi(A))
                        <= K Phi(f(A)) - (alpha/2) corr_point
                        <= K Phi(f(A))
    """
    if ctx.alpha <= 0.0:
        raise NotStrictlyConvex(f"alpha = {ctx.alpha!r} is not positive")
    return _sandwich_chain(ctx, "refined_chain", "refined_chain_link", ctx._big_k, ctx.alpha / 2.0)


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
    return _power_chain(_power_context(matrix, phi, r, m, M), r)


def _power_context(matrix: SymmetricMatrix, phi: PositiveUnitalMap, r: float, m, M) -> CdjContext:
    """``build_context`` for t^r, once [m, M] is checked to satisfy 0 < m < M < inf.

    The positivity check runs first, so an infinite M is a ``BadParameter``
    rather than a failure of the second-derivative range.
    """
    m, M = _interval_for(matrix, m, M)
    _check_positive_interval(m, M)
    return build_context(matrix, phi, catalog_lookup("power", [r]), m, M)


def _power_chain(ctx: CdjContext, r: float) -> ChainReport:
    """``power_function_chain`` on a context whose function is t^r."""
    big_k = kantorovich_power_constant(ctx.m, ctx.M, r)
    label = f"power_chain[r={r:g}]"
    if 0.0 < r < 1.0:
        # t^r is concave, so beta = r(r-1) M^{r-2} < 0 is the relevant
        # second-derivative bound and every comparison flips.
        half = -(r * (1.0 - r) / (2.0 * ctx.M ** (2.0 - r)))
        return _sandwich_chain(ctx, label, "power_link", big_k, half, closed=False, reverse=True)
    gamma = r * (r - 1.0) * min(ctx.m ** (r - 2.0), ctx.M ** (r - 2.0))
    return _sandwich_chain(ctx, label, "power_link", big_k, gamma / 2.0, closed=r < -1.0 or r > 2.0)


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
    return _improved_kantorovich(_power_context(matrix, phi, -1.0, m, M))


def _improved_kantorovich(ctx: CdjContext) -> ImprovedKantorovich:
    """``improved_kantorovich`` on a context whose function is t^{-1}."""
    improvement = (1.0 / ctx.M**3) * ctx.correction_image
    classical_rhs = ((ctx.M + ctx.m) ** 2 / (4.0 * ctx.M * ctx.m)) * ctx.f_phi_A
    improved_rhs = classical_rhs - improvement
    return ImprovedKantorovich(
        inequality=_claim("improved_kantorovich", ctx.phi_fA, improved_rhs),
        improvement_psd=_psd_prerequisite("kantorovich_improvement_psd", improvement),
        phi_inv=ctx.phi_fA,
        classical_rhs=classical_rhs,
        improved_rhs=improved_rhs,
    )
