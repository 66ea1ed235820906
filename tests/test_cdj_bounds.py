import math

import numpy as np
import pytest

from opineq import (
    BadParameter,
    DegenerateInterval,
    LoewnerRelation,
    NormalizedTrace,
    NotPositiveDefinite,
    NotStrictlyConvex,
    SpectrumNotEnclosed,
    SplitMix64,
    SymmetricMatrix,
    VectorState,
    apply_scalar_function,
    build_context,
    catalog_lookup,
    chord_bounds,
    corner_map,
    derive_seed,
    identity_map,
    improved_kantorovich,
    jensen_converse_bound,
    jensen_upper_bound,
    loewner_compare,
    power_function_chain,
    random_symmetric_with_spectrum,
    ratio_sandwich,
    ratio_sandwich_min,
    refined_sandwich_chain,
)
from opineq.verifier import _make_map

COUNTEREXAMPLE = SymmetricMatrix([[4.0, 1.0, -1.0], [1.0, 2.0, 1.0], [-1.0, 1.0, 2.0]])
CUBE_MATRIX = SymmetricMatrix([[1.0, 0.0, -1.0], [0.0, 3.0, 1.0], [-1.0, 1.0, 2.0]])
KANTOROVICH_MATRIX = SymmetricMatrix([[3.0, -2.0], [-2.0, 7.0]])
UNIFORM_STATE = VectorState(np.ones(3) / np.sqrt(3.0))


def cube_context():
    return build_context(CUBE_MATRIX, UNIFORM_STATE, catalog_lookup("power", [3]), m=0.25, M=3.8)


class TestBuildContext:
    def test_cube_reference_values(self):
        ctx = cube_context()
        assert ctx.phi_A.as_scalar() == pytest.approx(2.0, abs=1e-12)
        assert ctx.f_phi_A.as_scalar() == pytest.approx(8.0, abs=1e-9)
        assert ctx.phi_fA.as_scalar() == pytest.approx(24.0, abs=1e-9)
        assert ctx.phi_A2.as_scalar() == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert ctx.alpha == pytest.approx(1.5, abs=1e-12)
        assert ctx.beta == pytest.approx(22.8, abs=1e-12)

    def test_scalar_operator_rejected(self):
        with pytest.raises(DegenerateInterval):
            build_context(SymmetricMatrix.identity(2), identity_map(2), catalog_lookup("power", [2]))

    def test_identity_map_squares_agree(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), identity_map(2), catalog_lookup("power", [2])
        )
        assert np.allclose(ctx.phi_A2.entries, np.diag([1.0, 4.0]))
        assert np.allclose(ctx.phi_A_sq.entries, np.diag([1.0, 4.0]))

    def test_interval_must_enclose_spectrum(self):
        with pytest.raises(SpectrumNotEnclosed):
            build_context(
                SymmetricMatrix.diagonal([1.0, 2.0]), identity_map(2),
                catalog_lookup("power", [2]), m=1.5, M=3.0,
            )

    @pytest.mark.parametrize("m, M", [(math.nan, None), (None, math.nan)])
    def test_nan_interval_end_is_rejected(self, m, M):
        with pytest.raises(SpectrumNotEnclosed):
            build_context(
                SymmetricMatrix.diagonal([1.0, 2.0]), identity_map(2),
                catalog_lookup("power", [2]), m=m, M=M,
            )


class TestChordBounds:
    def test_affine_function_gives_equalities(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [1])
        )
        for report in chord_bounds(ctx):
            assert report.verdict.relation is LoewnerRelation.EQUAL

    def test_cube_reference_all_hold(self):
        for report in chord_bounds(cube_context()):
            assert report.holds, report.label

    def test_square_with_identity_map_is_algebraic_identity(self):
        # L(A) - (M-A)(A-m) equals A^2 entry for entry when f'' is constant 2
        matrix = SymmetricMatrix([[1.3, 0.4], [0.4, 2.2]])
        ctx = build_context(matrix, identity_map(2), catalog_lookup("power", [2]))
        for report in chord_bounds(ctx):
            assert report.verdict.relation is LoewnerRelation.EQUAL, report.label


class TestJensenBounds:
    def test_cube_reference_values(self):
        ctx = cube_context()
        upper = jensen_upper_bound(ctx)
        converse = jensen_converse_bound(ctx)
        # recompute from the context pieces
        spread = ((ctx.beta - ctx.alpha) / 2.0) * ((ctx.M + ctx.m) * 2.0 - ctx.M * ctx.m)
        expected_upper = 24.0 + spread + 0.5 * (ctx.alpha * 4.0 - ctx.beta * 20.0 / 3.0)
        expected_converse = 8.0 + spread + 0.5 * (ctx.alpha * 20.0 / 3.0 - ctx.beta * 4.0)
        assert upper.rhs.as_scalar() == pytest.approx(expected_upper, rel=1e-12)
        assert converse.rhs.as_scalar() == pytest.approx(expected_converse, rel=1e-12)
        assert upper.rhs.as_scalar() == pytest.approx(27.14, abs=0.01)
        assert converse.rhs.as_scalar() == pytest.approx(43.54, abs=0.01)
        assert upper.holds and converse.holds

    def test_affine_function_equalities(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 3.0]), NormalizedTrace(2), catalog_lookup("power", [1])
        )
        assert jensen_upper_bound(ctx).verdict.relation is LoewnerRelation.EQUAL
        assert jensen_converse_bound(ctx).verdict.relation is LoewnerRelation.EQUAL

    def test_quadratic_collapses_to_equality(self):
        # alpha == beta == 2: both comparisons are identities
        matrix = SymmetricMatrix([[2.0, 0.7, 0.0], [0.7, 1.1, -0.3], [0.0, -0.3, 3.0]])
        ctx = build_context(matrix, corner_map(3, 2), catalog_lookup("power", [2]))
        for report in (jensen_upper_bound(ctx), jensen_converse_bound(ctx)):
            scale = 1.0 + report.scale
            assert abs(report.tightness) <= 1e-10 * scale
            assert abs(report.verdict.gap_max_eig) <= 1e-10 * scale

    def test_quartic_counterexample_still_bounded(self):
        ctx = build_context(COUNTEREXAMPLE, corner_map(3, 2), catalog_lookup("power", [4]))
        plain = loewner_compare(ctx.f_phi_A, ctx.phi_fA)
        assert plain.relation is LoewnerRelation.INCOMPARABLE
        assert jensen_upper_bound(ctx).holds
        assert jensen_converse_bound(ctx).holds

    def test_random_suite_small(self):
        specs = ["power:3", "power:4", "power:-1", "log", "tsallis_f:0.5", "tsallis_f:-0.5", "exp"]
        maps = ["corner", "vecstate", "trace", "pinching"]
        from opineq import parse_function_spec

        for i in range(120):
            rng = SplitMix64(derive_seed(401, i))
            dim = 2 + rng.below(7)
            m = 0.3 + 1.2 * rng.uniform()
            M = m + 0.5 + 2.5 * rng.uniform()
            matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, m, M)
            phi, _ = _make_map(maps[i % len(maps)], dim, rng)
            fn = parse_function_spec(specs[i % len(specs)])
            ctx = build_context(matrix, phi, fn, m, M)
            reports = list(chord_bounds(ctx)) + [jensen_upper_bound(ctx), jensen_converse_bound(ctx)]
            for report in reports:
                assert report.tightness >= -1e-8 * (1.0 + report.scale), (report.label, i)

    def test_kadison_schwarz_observed(self):
        for i in range(100):
            rng = SplitMix64(derive_seed(402, i))
            dim = 2 + rng.below(6)
            matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, -1.0, 2.0)
            phi, _ = _make_map(["corner", "vecstate", "trace", "pinching"][i % 4], dim, rng)
            squared_image = phi.apply(matrix.squared())
            image_squared = phi.apply(matrix).squared()
            assert loewner_compare(image_squared, squared_image).holds_le


class TestRatioSandwich:
    def test_hand_oracle_square(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [2])
        )
        lower, upper = ratio_sandwich(ctx)
        assert lower.lhs.as_scalar() == pytest.approx(20.0 / 9.0, rel=1e-10)
        assert lower.rhs.as_scalar() == pytest.approx(2.25, abs=1e-12)
        assert upper.rhs.as_scalar() == pytest.approx(2.5625, rel=1e-10)
        assert lower.holds and upper.holds

    def test_linear_collapses(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [1])
        )
        lower, upper = ratio_sandwich(ctx)
        assert lower.verdict.relation is LoewnerRelation.EQUAL
        assert upper.verdict.relation is LoewnerRelation.EQUAL

    def test_inverse_on_reference_matrix(self):
        ctx = build_context(KANTOROVICH_MATRIX, NormalizedTrace(2), catalog_lookup("power", [-1]), m=2.0, M=8.0)
        lower, upper = ratio_sandwich(ctx)
        assert lower.holds and upper.holds

    def test_k_version_hand_oracle(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [2])
        )
        lower, upper = ratio_sandwich_min(ctx)
        # k = 1, beta = 2: lower bound is Phi(f(A)) - corr_point/1 = 2.25 exactly
        assert lower.lhs.as_scalar() == pytest.approx(2.25, rel=1e-10)
        assert upper.rhs.as_scalar() == pytest.approx(2.5, rel=1e-10)
        assert lower.holds and upper.holds

    def test_k_version_inverse(self):
        ctx = build_context(KANTOROVICH_MATRIX, NormalizedTrace(2), catalog_lookup("power", [-1]), m=2.0, M=8.0)
        assert ctx.beta == pytest.approx(2.0 / 8.0, rel=1e-12)  # f'' = 2/t^3 at t = m = 2
        lower, upper = ratio_sandwich_min(ctx)
        assert lower.holds and upper.holds

    def test_k_version_linear_collapses(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [1])
        )
        lower, upper = ratio_sandwich_min(ctx)
        assert lower.verdict.relation is LoewnerRelation.EQUAL
        assert upper.verdict.relation is LoewnerRelation.EQUAL

    def test_verdict_recomputable_from_report(self):
        from opineq import with_tolerance

        ctx = cube_context()
        report = jensen_upper_bound(ctx)
        again = with_tolerance(report, report.verdict.tolerance_used)
        assert again.verdict == report.verdict

    @pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
    def test_retolerance_must_be_finite_and_nonnegative(self, tol):
        from opineq import with_tolerance

        with pytest.raises(BadParameter):
            with_tolerance(jensen_upper_bound(cube_context()), tol)

    @pytest.mark.parametrize("tol", [True, "x", None, [1e-8]],
                             ids=["bool", "string", "none", "list"])
    def test_retolerance_must_be_a_real_number(self, tol):
        from opineq import with_tolerance

        with pytest.raises(BadParameter, match="tolerance must be a real number"):
            with_tolerance(jensen_upper_bound(cube_context()), tol)


class TestRefinedChain:
    def test_square_chain(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [2])
        )
        chain = refined_sandwich_chain(ctx)
        assert chain.holds
        assert len(chain.links) == 4

    def test_quartic_counterexample_chain(self):
        ctx = build_context(COUNTEREXAMPLE, corner_map(3, 2), catalog_lookup("power", [4]))
        assert refined_sandwich_chain(ctx).holds

    def test_linear_rejected(self):
        ctx = build_context(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), catalog_lookup("power", [1])
        )
        with pytest.raises(NotStrictlyConvex):
            refined_sandwich_chain(ctx)

    def test_prerequisite_correction_terms_psd(self):
        for i in range(100):
            rng = SplitMix64(derive_seed(403, i))
            dim = 2 + rng.below(6)
            m = 0.3 + rng.uniform()
            M = m + 0.5 + 2.0 * rng.uniform()
            matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, m, M)
            phi, _ = _make_map(["corner", "trace", "pinching", "vecstate"][i % 4], dim, rng)
            ctx = build_context(matrix, phi, catalog_lookup("power", [2]), m, M)
            scale = 1.0 + ctx.correction_image.norm_max
            assert ctx.correction_image.min_eigenvalue() >= -1e-8 * scale
            assert ctx.correction_point.min_eigenvalue() >= -1e-8 * scale


class TestPowerFunctionChain:
    def test_square_case(self):
        chain = power_function_chain(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), 2.0, 1.0, 2.0
        )
        assert chain.label == "power_chain[r=2]"
        assert chain.holds
        assert len(chain.links) == 3  # operator convexity closes the chain

    def test_identity_power_all_equal(self):
        chain = power_function_chain(
            SymmetricMatrix.diagonal([1.0, 2.0]), NormalizedTrace(2), 1.0, 1.0, 2.0
        )
        assert chain.holds
        for link in chain.links:
            assert link.verdict.relation is LoewnerRelation.EQUAL

    def test_concave_case(self):
        chain = power_function_chain(
            SymmetricMatrix.diagonal([1.0, 4.0]), NormalizedTrace(2), 0.5, 1.0, 4.0
        )
        assert chain.holds

    def test_concave_case_nonzero_correction(self):
        chain = power_function_chain(
            SymmetricMatrix.diagonal([1.0, 2.0, 4.0]), NormalizedTrace(3), 0.5, 1.0, 4.0
        )
        assert chain.holds

    def test_high_power_full_chain(self):
        chain = power_function_chain(
            SymmetricMatrix([[1.2, 0.3], [0.3, 2.4]]), corner_map(2, 1), 3.0
        )
        assert chain.holds
        assert len(chain.links) == 4

    def test_negative_power_full_chain(self):
        chain = power_function_chain(
            SymmetricMatrix([[1.2, 0.3], [0.3, 2.4]]), NormalizedTrace(2), -2.0
        )
        assert chain.holds

    @pytest.mark.parametrize("spectrum, m", [([0.0, 2.0], None), ([1.0, 2.0], 0.0), ([1.0, 2.0], -1.0)])
    def test_interval_must_be_positive(self, spectrum, m):
        with pytest.raises(BadParameter):
            power_function_chain(SymmetricMatrix.diagonal(spectrum), NormalizedTrace(2), 2.0, m)

    def test_random_batch_all_cases(self):
        for i in range(100):
            rng = SplitMix64(derive_seed(404, i))
            dim = 2 + rng.below(5)
            m = 0.3 + rng.uniform()
            M = m + 0.4 + 1.6 * rng.uniform()
            matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, m, M)
            phi, _ = _make_map(["corner", "trace", "pinching", "vecstate"][i % 4], dim, rng)
            for r in (-2.0, -1.0, 0.5, 2.0, 3.0):
                chain = power_function_chain(matrix, phi, r, m, M)
                assert chain.tightness >= -1e-8 * (1.0 + chain.scale), (r, i)


@pytest.mark.parametrize("family", [
    lambda a: power_function_chain(a, NormalizedTrace(2), 2.0, 1.0, math.inf),
    lambda a: improved_kantorovich(a, NormalizedTrace(2), 1.0, math.inf),
], ids=["power_chain", "kantorovich"])
def test_infinite_upper_end_is_a_bad_parameter(family):
    with pytest.raises(BadParameter, match="M < inf"):
        family(SymmetricMatrix.diagonal([1.0, 2.0]))


class TestImprovedKantorovich:
    def test_reference_rationals(self):
        result = improved_kantorovich(KANTOROVICH_MATRIX, NormalizedTrace(2), m=2.0, M=8.0)
        classical_gap = result.classical_rhs.as_scalar() - result.phi_inv.as_scalar()
        improved_gap = result.improved_rhs.as_scalar() - result.phi_inv.as_scalar()
        assert classical_gap == pytest.approx(5.0 / 272.0, abs=1e-12)
        assert improved_gap == pytest.approx(143.0 / 8704.0, abs=1e-12)
        assert classical_gap - improved_gap == pytest.approx(1.0 / 512.0, abs=1e-12)
        assert result.holds
        assert loewner_compare(result.improved_rhs, result.classical_rhs).holds_le

    def test_diagonal_case(self):
        result = improved_kantorovich(SymmetricMatrix.diagonal([1.0, 3.0]), NormalizedTrace(2))
        assert result.holds

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            improved_kantorovich(SymmetricMatrix.diagonal([1.0, -1.0]), NormalizedTrace(2))

    def test_rejects_scalar(self):
        with pytest.raises(DegenerateInterval):
            improved_kantorovich(2.0 * SymmetricMatrix.identity(2), NormalizedTrace(2))

    def test_improvement_psd_random(self):
        strict = 0
        for i in range(100):
            rng = SplitMix64(derive_seed(405, i))
            dim = 2 + rng.below(6)
            m = 0.4 + rng.uniform()
            M = m + 0.5 + 2.0 * rng.uniform()
            matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, m, M)
            phi, _ = _make_map(["corner", "trace", "pinching", "vecstate"][i % 4], dim, rng)
            result = improved_kantorovich(matrix, phi, m, M)
            assert result.improvement_psd.holds
            improvement = result.classical_rhs - result.improved_rhs
            if improvement.min_eigenvalue() > 1e-12:
                strict += 1
        assert strict > 0  # tracked as a statistic; strictness is typical, not universal
