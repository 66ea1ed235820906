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

from dataclasses import dataclass, replace

from .errors import (
    BadParameter,
    DegenerateInterval,
    NonPositiveConstant,
    NotPositiveDefinite,
    NotStrictlyConvex,
    SpectrumNotEnclosed,
)
from .functions import (
    IntervalBounds,
    K_constant,
    ScalarFunction,
    catalog_lookup,
    chord_line,
    k_constant,
    kantorovich_power_constant,
    second_derivative_range,
)
from .maps import PositiveUnitalMap
from .spectral import (
    LoewnerRelation,
    LoewnerVerdict,
    SymmetricMatrix,
    _check_hull,
    apply_scalar_function,
    eigendecompose,
    loewner_compare,
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
    """Outcome of one claimed comparison ``lhs <= rhs`` in the PSD order."""

    label: str
    lhs: SymmetricMatrix
    rhs: SymmetricMatrix
    verdict: LoewnerVerdict

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
    return InequalityReport(label, lhs, rhs, loewner_compare(lhs, rhs, tol))


def with_tolerance(report: InequalityReport, tol: float) -> InequalityReport:
    """Re-judge an existing report at a caller-chosen tolerance."""
    return replace(report, verdict=loewner_compare(report.lhs, report.rhs, tol))


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
    """One operator instance with everything the bounds need precomputed."""

    matrix: SymmetricMatrix
    phi: PositiveUnitalMap
    fn: ScalarFunction
    bounds: IntervalBounds
    phi_A: SymmetricMatrix
    phi_A2: SymmetricMatrix
    phi_A_sq: SymmetricMatrix
    phi_fA: SymmetricMatrix
    f_phi_A: SymmetricMatrix

    @property
    def m(self) -> float:
        return self.bounds.m

    @property
    def M(self) -> float:
        return self.bounds.M

    @property
    def alpha(self) -> float:
        return self.bounds.alpha

    @property
    def beta(self) -> float:
        return self.bounds.beta

    def chord_at_phi_A(self) -> SymmetricMatrix:
        chord = chord_line(self.fn, self.m, self.M)
        ident = SymmetricMatrix.identity(self.phi_A.dim)
        return chord.slope * self.phi_A + chord.intercept * ident

    def correction_image(self) -> SymmetricMatrix:
        """(M+m) Phi(A) - Mm - Phi(A^2); PSD because Phi((M-A)(A-m)) >= 0."""
        ident = SymmetricMatrix.identity(self.phi_A.dim)
        return (self.M + self.m) * self.phi_A - (self.M * self.m) * ident - self.phi_A2

    def correction_point(self) -> SymmetricMatrix:
        """(M+m) Phi(A) - Mm - Phi(A)^2 = (M - Phi(A))(Phi(A) - m); PSD."""
        ident = SymmetricMatrix.identity(self.phi_A.dim)
        return (self.M + self.m) * self.phi_A - (self.M * self.m) * ident - self.phi_A_sq


def _interval_for(matrix: SymmetricMatrix, m, M, *, positive=False):
    dec = eigendecompose(matrix)
    lo = float(dec.eigenvalues[0])
    hi = float(dec.eigenvalues[-1])
    if m is None:
        m = lo
    if M is None:
        M = hi
    m, M = float(m), float(M)
    tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
    _check_hull(lo, hi, m, M, tol, SpectrumNotEnclosed, "spectrum")
    if m == M:
        raise DegenerateInterval("m == M: the operator is a scalar; chord undefined")
    if positive and m <= 0.0:
        raise BadParameter(f"need 0 < m, got m={m!r}")
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
    m, M = _interval_for(matrix, m, M)
    bounds = second_derivative_range(fn, m, M)
    phi_A = phi.apply(matrix)
    dec = eigendecompose(phi_A)
    tol = 1e-12 * (1.0 + max(abs(m), abs(M)))
    # a unital positive map keeps Phi(A) inside [m, M]
    _check_hull(
        float(dec.eigenvalues[0]), float(dec.eigenvalues[-1]), m, M, tol,
        SpectrumNotEnclosed, "spectrum of Phi(A)",
    )
    return CdjContext(
        matrix=matrix,
        phi=phi,
        fn=fn,
        bounds=bounds,
        phi_A=phi_A,
        phi_A2=phi.apply(matrix.squared()),
        phi_A_sq=phi_A.squared(),
        phi_fA=phi.apply(apply_scalar_function(matrix, fn)),
        f_phi_A=apply_scalar_function(phi_A, fn),
    )


def chord_bounds(ctx: CdjContext):
    """The four chord-with-parabolic-correction comparisons.

    Reports are normalized so the claim is always lhs <= rhs.
    """
    chord = ctx.chord_at_phi_A()
    g_img = ctx.correction_image()
    g_pt = ctx.correction_point()
    alpha, beta = ctx.alpha, ctx.beta
    return (
        _claim("chord_upper_image", ctx.phi_fA, chord - (alpha / 2.0) * g_img),
        _claim("chord_lower_image", chord - (beta / 2.0) * g_img, ctx.phi_fA),
        _claim("chord_upper_jensen", ctx.f_phi_A, chord - (alpha / 2.0) * g_pt),
        _claim("chord_lower_jensen", chord - (beta / 2.0) * g_pt, ctx.f_phi_A),
    )


def _spread_term(ctx: CdjContext) -> SymmetricMatrix:
    ident = SymmetricMatrix.identity(ctx.phi_A.dim)
    base = (ctx.M + ctx.m) * ctx.phi_A - (ctx.M * ctx.m) * ident
    return ((ctx.beta - ctx.alpha) / 2.0) * base


def jensen_third_term(ctx: CdjContext) -> SymmetricMatrix:
    """(1/2)(alpha Phi(A)^2 - beta Phi(A^2)); its sign is not determined."""
    return 0.5 * (ctx.alpha * ctx.phi_A_sq - ctx.beta * ctx.phi_A2)


def jensen_upper_bound(ctx: CdjContext) -> InequalityReport:
    """f(Phi(A)) <= Phi(f(A)) + spread term + (1/2)(alpha Phi(A)^2 - beta Phi(A^2))."""
    rhs = ctx.phi_fA + _spread_term(ctx) + 0.5 * (
        ctx.alpha * ctx.phi_A_sq - ctx.beta * ctx.phi_A2
    )
    return _claim("jensen_upper", ctx.f_phi_A, rhs)


def jensen_converse_bound(ctx: CdjContext) -> InequalityReport:
    """Phi(f(A)) <= f(Phi(A)) + spread term + (1/2)(alpha Phi(A^2) - beta Phi(A)^2)."""
    rhs = ctx.f_phi_A + _spread_term(ctx) + 0.5 * (
        ctx.alpha * ctx.phi_A2 - ctx.beta * ctx.phi_A_sq
    )
    return _claim("jensen_converse", ctx.phi_fA, rhs)


def ratio_sandwich(ctx: CdjContext):
    """Kantorovich-type sandwich with K = max of chord/f; needs f > 0 on [m, M].

        (1/K) {Phi(f(A)) + (alpha/2) corr_image} <= f(Phi(A))
                                                 <= K Phi(f(A)) - (alpha/2) corr_point
    """
    big_k = K_constant(ctx.fn, ctx.m, ctx.M)
    alpha = ctx.alpha
    lower = (1.0 / big_k) * (ctx.phi_fA + (alpha / 2.0) * ctx.correction_image())
    upper = big_k * ctx.phi_fA - (alpha / 2.0) * ctx.correction_point()
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
    beta = ctx.beta
    lower = small_k * ctx.phi_fA - (beta / 2.0) * ctx.correction_point()
    upper = (1.0 / small_k) * (ctx.phi_fA + (beta / 2.0) * ctx.correction_image())
    return (
        _claim("ratio_min_lower", lower, ctx.f_phi_A),
        _claim("ratio_min_upper", ctx.f_phi_A, upper),
    )


def _psd_prerequisite(label: str, term: SymmetricMatrix) -> InequalityReport:
    zero = SymmetricMatrix(term.entries * 0.0)
    return _claim(label, zero, term)


def refined_sandwich_chain(ctx: CdjContext) -> ChainReport:
    """Five-term refinement of the ratio sandwich for strictly convex f.

        (1/K) Phi(f(A)) <= (1/K){Phi(f(A)) + (alpha/2) corr_image}
                        <= f(Phi(A))
                        <= K Phi(f(A)) - (alpha/2) corr_point
                        <= K Phi(f(A))
    """
    if ctx.alpha <= 0.0:
        raise NotStrictlyConvex(f"alpha = {ctx.alpha!r} is not positive")
    big_k = K_constant(ctx.fn, ctx.m, ctx.M)
    g_img = ctx.correction_image()
    g_pt = ctx.correction_point()
    t1 = (1.0 / big_k) * ctx.phi_fA
    t2 = (1.0 / big_k) * (ctx.phi_fA + (ctx.alpha / 2.0) * g_img)
    t3 = ctx.f_phi_A
    t4 = big_k * ctx.phi_fA - (ctx.alpha / 2.0) * g_pt
    t5 = big_k * ctx.phi_fA
    links = (
        _claim("refined_chain_link1", t1, t2),
        _claim("refined_chain_link2", t2, t3),
        _claim("refined_chain_link3", t3, t4),
        _claim("refined_chain_link4", t4, t5),
    )
    prereqs = (
        _psd_prerequisite("image_correction_psd", g_img),
        _psd_prerequisite("point_correction_psd", g_pt),
    )
    return ChainReport("refined_chain", links, prereqs)


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
    m, M = _interval_for(matrix, m, M, positive=True)
    ctx = build_context(matrix, phi, catalog_lookup("power", [r]), m, M)
    phi_Ar, phi_A_r = ctx.phi_fA, ctx.f_phi_A
    g_img, g_pt = ctx.correction_image(), ctx.correction_point()
    big_k = kantorovich_power_constant(m, M, r)
    label = f"power_chain[r={r:g}]"
    prereqs = [_psd_prerequisite("image_correction_psd", g_img)]
    if r < -1.0 or r > 2.0:
        gamma = r * (r - 1.0) * min(m ** (r - 2.0), M ** (r - 2.0))
        t1 = (1.0 / big_k) * phi_Ar
        t2 = (1.0 / big_k) * (phi_Ar + (gamma / 2.0) * g_img)
        t4 = big_k * phi_Ar - (gamma / 2.0) * g_pt
        t5 = big_k * phi_Ar
        links = (
            _claim("power_link1", t1, t2),
            _claim("power_link2", t2, phi_A_r),
            _claim("power_link3", phi_A_r, t4),
            _claim("power_link4", t4, t5),
        )
        prereqs.append(_psd_prerequisite("point_correction_psd", g_pt))
    elif -1.0 <= r <= 0.0 or 1.0 <= r <= 2.0:
        gamma = r * (r - 1.0) * min(m ** (r - 2.0), M ** (r - 2.0))
        t1 = (1.0 / big_k) * phi_Ar
        t2 = (1.0 / big_k) * (phi_Ar + (gamma / 2.0) * g_img)
        links = (
            _claim("power_link1", t1, t2),
            _claim("power_link2", t2, phi_A_r),
            _claim("power_link3", phi_A_r, phi_Ar),
        )
    else:
        # 0 < r < 1: t^r is concave, so beta = r(r-1) M^{r-2} < 0 is the
        # relevant second-derivative bound and every comparison flips.
        coeff = r * (1.0 - r) / (2.0 * M ** (2.0 - r))
        t1 = (1.0 / big_k) * phi_Ar
        t2 = (1.0 / big_k) * (phi_Ar - coeff * g_img)
        links = (
            _claim("power_link1", t2, t1),
            _claim("power_link2", phi_A_r, t2),
            _claim("power_link3", phi_Ar, phi_A_r),
        )
    return ChainReport(label, links, tuple(prereqs))


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
    dec = eigendecompose(matrix)
    if float(dec.eigenvalues[0]) <= strict_positivity_tolerance(matrix):
        raise NotPositiveDefinite("the operator must be strictly positive")
    m, M = _interval_for(matrix, m, M, positive=True)
    ctx = build_context(matrix, phi, catalog_lookup("power", [-1.0]), m, M)
    improvement = (1.0 / M**3) * ctx.correction_image()
    classical_rhs = ((M + m) ** 2 / (4.0 * M * m)) * ctx.f_phi_A
    improved_rhs = classical_rhs - improvement
    return ImprovedKantorovich(
        inequality=_claim("improved_kantorovich", ctx.phi_fA, improved_rhs),
        improvement_psd=_psd_prerequisite("kantorovich_improvement_psd", improvement),
        phi_inv=ctx.phi_fA,
        classical_rhs=classical_rhs,
        improved_rhs=improved_rhs,
    )
