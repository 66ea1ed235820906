import math

import numpy as np
import pytest

from opineq import (
    BadParameter,
    DegenerateInterval,
    DensityOperator,
    LoewnerRelation,
    NotPositiveDefinite,
    OperatorPair,
    SandwichViolated,
    ShapeError,
    SplitMix64,
    SymmetricMatrix,
    catalog_lookup,
    corner_map,
    derive_seed,
    identity_map,
    map_commutation_bounds,
    natural_power,
    parse_function_spec,
    perspective,
    perspective_bounds,
    perspective_chord,
    quantum_tsallis_entropy,
    quantum_tsallis_lower_bound,
    random_density,
    random_sandwich_pair,
    relative_entropy_bounds,
    relative_operator_entropy,
    sandwich_correction,
    tsallis_entropy_bounds,
    tsallis_relative_operator_entropy,
    tsallis_relative_quantum_entropy,
    tsallis_trace_bounds,
    von_neumann_entropy,
    von_neumann_lower_bound,
)
from opineq.verifier import _make_map

PAIR_FUNCTIONS = ("power:3", "power:-1", "log", "exp", "tsallis_f:0.5", "tsallis_f:-0.5")


def density(*eigs):
    return DensityOperator(SymmetricMatrix.diagonal(list(eigs)))


class TestOperatorPair:
    def test_exact_hull_default(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]))
        assert pair.m == pytest.approx(1.0, abs=1e-12)
        assert pair.M == pytest.approx(2.0, abs=1e-12)

    def test_user_widening_allowed(self):
        pair = OperatorPair(
            SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]), m=0.5, M=3.0
        )
        assert pair.m == 0.5 and pair.M == 3.0

    def test_sandwich_violation(self):
        with pytest.raises(SandwichViolated):
            OperatorPair(
                SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]), m=1.5, M=3.0
            )

    @pytest.mark.parametrize("m, M", [(math.nan, None), (None, math.nan)])
    def test_nan_interval_end_is_rejected(self, m, M):
        with pytest.raises(SandwichViolated):
            OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]), m=m, M=M)

    @pytest.mark.parametrize("m, M", [(-math.inf, None), (None, math.inf), (-math.inf, math.inf)])
    def test_infinite_interval_end_is_rejected(self, m, M):
        with pytest.raises(BadParameter, match="finite m and M"):
            OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]), m=m, M=M)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_nonpositive_finite_m_is_allowed(self, m):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]), m=m)
        assert pair.m == m and pair.M == 2.0

    def test_random_pair_needs_a_finite_interval(self):
        with pytest.raises(BadParameter, match="M < inf"):
            random_sandwich_pair(1, 2, 0.5, math.inf)

    def test_base_must_be_positive(self):
        with pytest.raises(NotPositiveDefinite):
            OperatorPair(SymmetricMatrix.diagonal([1.0, -1.0]), SymmetricMatrix.identity(2))

    def test_other_must_be_positive(self):
        with pytest.raises(NotPositiveDefinite):
            OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, -0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.identity(3))

    # B = 2A puts the whole sandwiched spectrum at 2; m = 2 + 1e-13 still
    # encloses it within the hull tolerance, but lies above M
    @pytest.mark.parametrize("m, error", [(2.0, DegenerateInterval), (2.0 + 1e-13, BadParameter)])
    def test_interval_must_be_nonempty(self, m, error):
        with pytest.raises(error):
            OperatorPair(SymmetricMatrix.identity(2), 2.0 * SymmetricMatrix.identity(2), m=m, M=2.0)

    def test_sandwich_holds_by_construction(self):
        from opineq import loewner_compare

        pair = random_sandwich_pair(99, 4, 0.5, 2.0)
        assert loewner_compare(pair.m * pair.A, pair.B).holds_le
        assert loewner_compare(pair.B, pair.M * pair.A).holds_le


class TestPerspective:
    def test_identity_function_returns_second(self):
        pair = random_sandwich_pair(7, 3, 0.5, 2.0)
        out = perspective(pair, catalog_lookup("power", [1]))
        assert np.abs(out.entries - pair.B.entries).max() <= 1e-10 * (1.0 + pair.B.norm_max)

    def test_constant_one_returns_first(self):
        pair = random_sandwich_pair(8, 3, 0.5, 2.0)
        out = perspective(pair, catalog_lookup("power", [0]))
        assert np.abs(out.entries - pair.A.entries).max() <= 1e-10 * (1.0 + pair.A.norm_max)

    def test_commuting_square(self):
        # B = 2A exactly, so the hull is a point and the interval must be widened
        pair = OperatorPair(
            SymmetricMatrix.diagonal([1.0, 4.0]), SymmetricMatrix.diagonal([2.0, 8.0]), m=1.0, M=3.0
        )
        out = perspective(pair, catalog_lookup("power", [2]))
        assert np.abs(out.entries - np.diag([4.0, 16.0])).max() <= 1e-12

    def test_matches_natural_power(self):
        pair = random_sandwich_pair(9, 4, 0.4, 2.5)
        for p in (-1.0, 0.5, 1.0, 2.0):
            via_perspective = perspective(pair, catalog_lookup("power", [p]))
            direct = natural_power(pair.A, pair.B, p)
            scale = 1.0 + max(via_perspective.norm_max, direct.norm_max)
            assert np.abs(via_perspective.entries - direct.entries).max() <= 1e-10 * scale


class TestPerspectiveChord:
    def test_lower_endpoint(self):
        base = SymmetricMatrix([[1.5, 0.2], [0.2, 1.0]])
        pair = OperatorPair(base, 0.8 * base, m=0.8, M=2.0)
        fn = catalog_lookup("power", [3])
        chord = perspective_chord(pair, fn)
        expected = float(fn.eval(0.8)) * base.entries
        assert np.abs(chord.entries - expected).max() <= 1e-12

    def test_upper_endpoint(self):
        base = SymmetricMatrix([[1.5, 0.2], [0.2, 1.0]])
        pair = OperatorPair(base, 2.0 * base, m=0.5, M=2.0)
        fn = catalog_lookup("power", [3])
        chord = perspective_chord(pair, fn)
        assert np.abs(chord.entries - 8.0 * base.entries).max() <= 1e-12

    def test_commuting_chord_hits_endpoint_eigenvalues(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]))
        chord = perspective_chord(pair, catalog_lookup("power", [3]))
        assert np.abs(chord.entries - np.diag([1.0, 8.0])).max() <= 1e-12


class TestPerspectiveBounds:
    def test_affine_gives_equalities(self):
        pair = random_sandwich_pair(11, 3, 0.5, 2.0)
        lower, upper = perspective_bounds(pair, catalog_lookup("power", [1]))
        assert lower.verdict.relation is LoewnerRelation.EQUAL
        assert upper.verdict.relation is LoewnerRelation.EQUAL

    def test_square_is_algebraic_identity(self):
        pair = random_sandwich_pair(12, 3, 0.5, 2.0)
        lower, upper = perspective_bounds(pair, catalog_lookup("power", [2]))
        scale = 1.0 + lower.scale
        assert abs(lower.tightness) <= 1e-9 * scale
        assert abs(upper.tightness) <= 1e-9 * scale

    def test_cube_numeric(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]))
        lower, upper = perspective_bounds(pair, catalog_lookup("power", [3]))
        assert lower.holds and upper.holds

    def test_correction_term_is_never_positive(self):
        for i in range(60):
            pair = random_sandwich_pair(derive_seed(500, i), 2 + i % 5, 0.3, 2.5)
            corr = sandwich_correction(pair)
            assert corr.max_eigenvalue() <= 1e-8 * (1.0 + corr.norm_max)

    def test_bracket_random_pairs(self):
        for i in range(120):
            rng = SplitMix64(derive_seed(501, i))
            dim = 2 + rng.below(5)
            m = 0.3 + rng.uniform()
            M = m + 0.4 + 1.5 * rng.uniform()
            pair = random_sandwich_pair(rng.next_u64(), dim, m, M)
            fn = parse_function_spec(PAIR_FUNCTIONS[i % len(PAIR_FUNCTIONS)])
            lower, upper = perspective_bounds(pair, fn)
            assert lower.tightness >= -1e-8 * (1.0 + lower.scale), i
            assert upper.tightness >= -1e-8 * (1.0 + upper.scale), i


class TestTsallisRelativeOperatorEntropy:
    def test_same_operator_gives_zero(self):
        base = SymmetricMatrix([[1.4, 0.3], [0.3, 2.0]])
        pair = OperatorPair(base, base, m=0.5, M=1.5)
        out = tsallis_relative_operator_entropy(pair, 0.5)
        assert np.abs(out.entries).max() <= 1e-10 * (1.0 + base.norm_max)

    def test_commuting_reference(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([4.0, 9.0]))
        out = tsallis_relative_operator_entropy(pair, 0.5)
        assert np.abs(out.entries - np.diag([2.0, 4.0])).max() <= 1e-12

    def test_order_one_is_difference(self):
        pair = random_sandwich_pair(13, 3, 0.5, 2.0)
        out = tsallis_relative_operator_entropy(pair, 1.0)
        expected = pair.B - pair.A
        assert np.abs(out.entries - expected.entries).max() <= 1e-10 * (1.0 + expected.norm_max)

    def test_order_validation(self):
        pair = random_sandwich_pair(14, 2, 0.5, 2.0)
        for bad in (0.0, 2.0, -1.5):
            with pytest.raises(BadParameter):
                tsallis_relative_operator_entropy(pair, bad)

    def test_limit_to_relative_entropy(self):
        pair = random_sandwich_pair(15, 3, 0.4, 2.2)
        s = relative_operator_entropy(pair)
        scale = 1.0 + s.norm_max
        for p in (1e-6, -1e-6):
            t_p = tsallis_relative_operator_entropy(pair, p)
            assert np.abs(t_p.entries - s.entries).max() <= 1e-4 * scale
        # two-sided difference quotient kills the O(p) term
        h = 1e-6
        central = (1.0 / (2.0 * h)) * (pair.natural_power(h) - pair.natural_power(-h))
        assert np.abs(central.entries - s.entries).max() <= 1e-6 * scale

    def test_linear_rate_of_convergence(self):
        pair = random_sandwich_pair(16, 3, 0.4, 2.2)
        s = relative_operator_entropy(pair)
        gaps = {}
        for p in (1e-3, 1e-4):
            t_p = tsallis_relative_operator_entropy(pair, p)
            gaps[p] = np.abs(t_p.entries - s.entries).max()
        rate = gaps[1e-3] / 1e-3
        print(f"tsallis->relative entropy rate estimate C = {rate:.3e}")
        assert gaps[1e-4] <= 5.0 * rate * 1e-4  # consistency, not a tight assertion


class TestRelativeOperatorEntropy:
    def test_same_operator_gives_zero(self):
        base = SymmetricMatrix([[1.4, 0.3], [0.3, 2.0]])
        pair = OperatorPair(base, base, m=0.5, M=1.5)
        out = relative_operator_entropy(pair)
        assert np.abs(out.entries).max() <= 1e-10

    def test_commuting_logs(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([2.0, 0.5]))
        out = relative_operator_entropy(pair)
        assert np.abs(out.entries - np.diag([math.log(2.0), -math.log(2.0)])).max() <= 1e-12


@pytest.mark.parametrize(
    "entropy",
    [
        lambda pair: tsallis_relative_operator_entropy(pair, 0.5),
        relative_operator_entropy,
        lambda pair: tsallis_entropy_bounds(pair, 0.5),
        relative_entropy_bounds,
    ],
    ids=["tsallis", "relative", "tsallis_bounds", "relative_bounds"],
)
def test_entropies_need_positive_sandwich_constant(entropy):
    # the hull [1, 2] allows widening m down to 0, where the entropies are undefined
    pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]), m=0.0)
    with pytest.raises(BadParameter):
        entropy(pair)


class TestEntropyBounds:
    def test_tsallis_endpoint_collapse(self):
        base = SymmetricMatrix([[1.5, 0.2], [0.2, 1.1]])
        pair = OperatorPair(base, 0.8 * base, m=0.8, M=2.0)
        lower, upper = tsallis_entropy_bounds(pair, 0.5)
        # the correction vanishes at B = m*A, so both bounds collapse onto T_p
        assert abs(lower.tightness) <= 1e-10 * (1.0 + lower.scale)
        assert abs(upper.tightness) <= 1e-10 * (1.0 + upper.scale)

    def test_tsallis_numeric(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]))
        lower, upper = tsallis_entropy_bounds(pair, 0.5)
        assert lower.holds and upper.holds

    def test_tsallis_near_order_one(self):
        pair = random_sandwich_pair(17, 3, 0.5, 2.0)
        p = 1.0 - 1e-8
        lower, upper = tsallis_entropy_bounds(pair, p)
        assert lower.holds and upper.holds
        t_one = pair.B - pair.A
        # coefficients vanish as p -> 1: both bounds approach T_1 = B - A
        scale = 1.0 + t_one.norm_max
        assert np.abs(lower.lhs.entries - t_one.entries).max() <= 1e-6 * scale
        assert np.abs(upper.rhs.entries - t_one.entries).max() <= 1e-6 * scale

    def test_relative_endpoint_collapse(self):
        base = SymmetricMatrix([[1.5, 0.2], [0.2, 1.1]])
        pair = OperatorPair(base, 0.8 * base, m=0.8, M=2.0)
        lower, upper = relative_entropy_bounds(pair)
        value = relative_operator_entropy(pair)
        expected = math.log(0.8) * base.entries
        assert np.abs(value.entries - expected).max() <= 1e-10
        assert abs(lower.tightness) <= 1e-10 * (1.0 + lower.scale)
        assert abs(upper.tightness) <= 1e-10 * (1.0 + upper.scale)

    def test_relative_numeric(self):
        pair = OperatorPair(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([1.0, 2.0]))
        lower, upper = relative_entropy_bounds(pair)
        assert lower.holds and upper.holds

    def test_relative_is_small_order_limit(self):
        pair = random_sandwich_pair(18, 3, 0.5, 2.2)
        rel_lower, rel_upper = relative_entropy_bounds(pair)
        ts_lower, ts_upper = tsallis_entropy_bounds(pair, 1e-6)
        scale = 1.0 + rel_lower.scale
        assert np.abs(rel_lower.lhs.entries - ts_lower.lhs.entries).max() <= 1e-5 * scale
        assert np.abs(rel_upper.rhs.entries - ts_upper.rhs.entries).max() <= 1e-5 * scale

    def test_bracket_random_pairs(self):
        for i in range(120):
            rng = SplitMix64(derive_seed(502, i))
            dim = 2 + rng.below(5)
            m = 0.3 + rng.uniform()
            M = m + 0.4 + 1.5 * rng.uniform()
            pair = random_sandwich_pair(rng.next_u64(), dim, m, M)
            p = (0.5, -0.5, 1.0, -1.0)[i % 4]
            for report in (*tsallis_entropy_bounds(pair, p), *relative_entropy_bounds(pair)):
                assert report.tightness >= -1e-8 * (1.0 + report.scale), (report.label, i)


class TestMapCommutationBounds:
    def test_identity_map(self):
        pair = random_sandwich_pair(19, 3, 0.5, 2.0)
        lower, upper = map_commutation_bounds(pair, identity_map(3), catalog_lookup("power", [3]))
        assert lower.holds and upper.holds

    def test_affine_function_degenerates(self):
        pair = random_sandwich_pair(20, 3, 0.5, 2.0)
        phi = corner_map(3, 2)
        lower, upper = map_commutation_bounds(pair, phi, catalog_lookup("power", [1]))
        assert lower.verdict.relation is LoewnerRelation.EQUAL
        assert upper.verdict.relation is LoewnerRelation.EQUAL

    def test_corner_cube_numeric(self):
        pair = OperatorPair(SymmetricMatrix.identity(3), SymmetricMatrix.diagonal([1.0, 2.0, 3.0]))
        lower, upper = map_commutation_bounds(pair, corner_map(3, 2), catalog_lookup("power", [3]))
        assert lower.holds and upper.holds

    def test_bracket_random_pairs(self):
        for i in range(100):
            rng = SplitMix64(derive_seed(503, i))
            dim = 2 + rng.below(5)
            m = 0.3 + rng.uniform()
            M = m + 0.4 + 1.5 * rng.uniform()
            pair = random_sandwich_pair(rng.next_u64(), dim, m, M)
            phi, _ = _make_map(["corner", "trace", "pinching", "vecstate"][i % 4], dim, rng)
            fn = parse_function_spec(PAIR_FUNCTIONS[i % len(PAIR_FUNCTIONS)])
            lower, upper = map_commutation_bounds(pair, phi, fn)
            assert lower.tightness >= -1e-8 * (1.0 + lower.scale), i
            assert upper.tightness >= -1e-8 * (1.0 + upper.scale), i


class TestQuantumEntropies:
    def test_maximally_mixed(self):
        rho = density(0.5, 0.5)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_binary_entropy(self):
        rho = density(0.3, 0.7)
        expected = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_near_pure_taylor(self):
        eps = 1e-6
        rho = density(1.0 - eps, eps)
        approx = eps * (1.0 - math.log(eps))
        assert von_neumann_entropy(rho) == pytest.approx(approx, abs=1e-8)

    def test_tsallis_maximally_mixed(self):
        rho = density(0.5, 0.5)
        for p in (0.5, -0.5, 1.0, -1.0):
            expected = (2.0**p - 1.0) / p
            assert quantum_tsallis_entropy(rho, p) == pytest.approx(expected, rel=1e-12)

    def test_tsallis_small_order_limit(self):
        for i in range(10):
            rho = random_density(derive_seed(504, i), 2 + i % 4)
            vn = von_neumann_entropy(rho)
            assert quantum_tsallis_entropy(rho, 1e-6) == pytest.approx(vn, abs=1e-5)

    def test_tsallis_near_pure_positive(self):
        rho = density(1.0 - 1e-6, 1e-6)
        value = quantum_tsallis_entropy(rho, 0.5)
        assert 0.0 < value < 0.01

    def test_trace_must_be_one(self):
        with pytest.raises(BadParameter):
            DensityOperator(SymmetricMatrix.diagonal([0.5, 0.6]))

    def test_must_be_strictly_positive(self):
        with pytest.raises(NotPositiveDefinite):
            DensityOperator(SymmetricMatrix.diagonal([1.0, 0.0]))

    def test_plain_array_input(self):
        assert np.array_equal(DensityOperator(np.diag([0.3, 0.7])).rho.entries, np.diag([0.3, 0.7]))
        # at unit trace an eigenvalue above 1 forces one below 0, which positivity rejects
        with pytest.raises(NotPositiveDefinite):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_user_bounds_must_enclose_spectrum(self):
        from opineq import SpectrumNotEnclosed

        with pytest.raises(SpectrumNotEnclosed):
            DensityOperator(SymmetricMatrix.diagonal([0.3, 0.7]), m=0.4, M=0.7)

    def test_user_bounds_must_stay_in_unit_interval(self):
        with pytest.raises(BadParameter):
            DensityOperator(SymmetricMatrix.diagonal([0.3, 0.7]), m=0.3, M=1.5)

    def test_widened_bounds_accepted(self):
        rho = DensityOperator(SymmetricMatrix.diagonal([0.3, 0.7]), m=0.2, M=0.9)
        assert rho.m == 0.2 and rho.M == 0.9


class TestTsallisRelativeQuantumEntropy:
    def test_same_state_gives_zero(self):
        rho = density(0.3, 0.7)
        assert tsallis_relative_quantum_entropy(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_formula(self):
        rho = density(0.3, 0.7)
        sigma = density(0.5, 0.5)
        expected = (1.0 - (math.sqrt(0.3 * 0.5) + math.sqrt(0.7 * 0.5))) / 0.5
        assert tsallis_relative_quantum_entropy(rho, sigma, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_order_one_vanishes(self):
        rho = density(0.2, 0.8)
        sigma = density(0.6, 0.4)
        assert tsallis_relative_quantum_entropy(rho, sigma, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_dominated_by_negative_operator_trace(self):
        # known comparison D_p <= -tr(T_p) for 0 < p <= 1; numeric sanity only
        for i in range(40):
            rng = SplitMix64(derive_seed(505, i))
            dim = 2 + rng.below(4)
            rho = random_density(rng.next_u64(), dim)
            sigma = random_density(rng.next_u64(), dim)
            p = (0.25, 0.5, 0.75, 1.0)[i % 4]
            pair = OperatorPair(rho.rho, sigma.rho)
            d_p = tsallis_relative_quantum_entropy(rho, sigma, p)
            neg_trace = -tsallis_relative_operator_entropy(pair, p).trace
            assert d_p <= neg_trace + 1e-8 * (1.0 + abs(neg_trace))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="dimension mismatch: 2 vs 3"):
            tsallis_relative_quantum_entropy(density(0.4, 0.6), density(0.2, 0.3, 0.5), 0.5)


class TestTsallisTraceBounds:
    def test_equal_states_bracket_zero(self):
        rho = density(0.3, 0.7)
        result = tsallis_trace_bounds(rho, rho, 0.5, m=0.9, M=1.1)
        assert result.trace_value == pytest.approx(0.0, abs=1e-12)
        assert result.lower <= 0.0 <= result.upper
        assert result.holds

    def test_commuting_numeric(self):
        rho = density(0.4, 0.6)
        sigma = density(0.5, 0.5)
        pair = OperatorPair(rho.rho, sigma.rho)
        result = tsallis_trace_bounds(rho, sigma, 0.5, pair.m, pair.M)
        assert pair.m == pytest.approx(5.0 / 6.0, rel=1e-10)
        assert pair.M == pytest.approx(5.0 / 4.0, rel=1e-10)
        # brute-force trace oracle: tr(T_p) = (sum(rho_i * c_i^p) - 1)/p on the diagonal
        oracle = (0.4 * (0.5 / 0.4) ** 0.5 + 0.6 * (0.5 / 0.6) ** 0.5 - 1.0) / 0.5
        assert result.trace_value == pytest.approx(oracle, rel=1e-10)
        assert result.holds

    def test_order_one_degenerates(self):
        rho = density(0.4, 0.6)
        sigma = density(0.5, 0.5)
        pair = OperatorPair(rho.rho, sigma.rho)
        result = tsallis_trace_bounds(rho, sigma, 1.0, pair.m, pair.M)
        assert result.lower == pytest.approx(0.0, abs=1e-12)
        assert result.upper == pytest.approx(0.0, abs=1e-12)
        assert result.trace_value == pytest.approx(0.0, abs=1e-10)
        assert result.holds

    def test_sandwich_enforced(self):
        rho = density(0.4, 0.6)
        sigma = density(0.5, 0.5)
        with pytest.raises(SandwichViolated):
            tsallis_trace_bounds(rho, sigma, 0.5, m=1.0, M=1.1)

    @pytest.mark.parametrize("m, M", [(0.0, 1.1), (-0.5, 1.1), (1.1, 0.9)])
    def test_interval_must_be_positive(self, m, M):
        rho = density(0.4, 0.6)
        with pytest.raises(BadParameter):
            tsallis_trace_bounds(rho, rho, 0.5, m, M)

    def test_infinite_upper_end_is_rejected(self):
        # it used to give NaN bounds and a failed verdict
        with pytest.raises(BadParameter, match="M < inf"):
            tsallis_trace_bounds(density(0.4, 0.6), density(0.5, 0.5), 0.5, 0.5, math.inf)

    def test_random_states(self):
        for i in range(60):
            rng = SplitMix64(derive_seed(506, i))
            dim = 2 + rng.below(5)
            rho = random_density(rng.next_u64(), dim)
            sigma = random_density(rng.next_u64(), dim)
            pair = OperatorPair(rho.rho, sigma.rho)
            p = (0.5, 1.0, 0.25)[i % 3]
            result = tsallis_trace_bounds(rho, sigma, p, pair.m, pair.M)
            assert result.holds, i


class TestEntropyFloors:
    def test_tsallis_floor_reference(self):
        rho = density(0.3, 0.7)
        check = quantum_tsallis_lower_bound(rho, 0.5)
        expected = 0.5 * (0.7**1.5 - 0.3**1.5) * 0.3 * 0.7 / (2.0 * 0.21**1.5)
        assert check.bound == pytest.approx(expected, rel=1e-12)
        assert check.holds  # this spectrum satisfies the claimed floor

    def test_floor_vanishes_at_full_upper_bound(self):
        rho = DensityOperator(SymmetricMatrix.diagonal([0.4, 0.6]), m=0.4, M=1.0)
        check = quantum_tsallis_lower_bound(rho, 0.5)
        assert check.bound == 0.0
        assert check.holds

    def test_small_order_limit_matches_von_neumann_floor(self):
        rho = density(0.3, 0.7)
        vn = von_neumann_lower_bound(rho)
        for p in (1e-6, -1e-6):
            ts = quantum_tsallis_lower_bound(rho, p)
            assert ts.bound == pytest.approx(vn.bound, abs=1e-4)

    def test_von_neumann_floor_maximally_mixed(self):
        check = von_neumann_lower_bound(density(0.5, 0.5))
        assert check.bound == 0.0
        assert check.entropy == pytest.approx(math.log(2.0), abs=1e-12)
        assert check.holds

    def test_von_neumann_floor_moderate_spread(self):
        check = von_neumann_lower_bound(density(0.3, 0.7))
        assert check.bound == pytest.approx(0.2, rel=1e-12)
        assert check.entropy == pytest.approx(0.610864, abs=1e-5)
        assert check.holds

    def test_von_neumann_floor_fails_for_wide_spread(self):
        # the claimed floor is falsified at diag(0.1, 0.9) with exact-hull bounds:
        # the check must report the violation, not assume the claim
        check = von_neumann_lower_bound(density(0.1, 0.9))
        assert check.bound == pytest.approx(0.4, rel=1e-12)
        assert check.entropy == pytest.approx(0.325083, abs=1e-5)
        assert not check.holds
        assert check.slack == pytest.approx(check.entropy - 0.4, abs=1e-9)
        assert check.nonneg_check.holds  # the bound itself is still nonnegative

    def test_tsallis_floor_fails_for_wide_spread(self):
        check = quantum_tsallis_lower_bound(density(0.1, 0.9), 0.5)
        # S_p = (sum lam^{1-p} - 1)/p and the claimed floor, both in closed form at p = 1/2
        entropy = 2.0 * (math.sqrt(0.1) + math.sqrt(0.9) - 1.0)
        floor = 0.5 * (0.9**1.5 - 0.1**1.5) * 0.1 * 0.9 / (2.0 * 0.1**1.5 * 0.9**1.5)
        assert check.entropy == pytest.approx(entropy, rel=1e-12)
        assert check.entropy == pytest.approx(0.529822, abs=1e-6)
        assert check.bound == pytest.approx(floor, rel=1e-12)
        assert check.bound == pytest.approx(0.685160, abs=1e-6)
        assert check.slack == pytest.approx(entropy - floor, abs=1e-12)
        assert not check.holds
        assert check.nonneg_check.holds
