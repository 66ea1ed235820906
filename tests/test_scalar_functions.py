import math

import numpy as np
import pytest

from opineq import (
    BadParameter,
    Deriv2Shape,
    DomainViolation,
    K_constant,
    NonPositiveFunction,
    SplitMix64,
    UnknownFunction,
    catalog_lookup,
    chord_line,
    derive_seed,
    k_constant,
    kantorovich_power_constant,
    parse_function_spec,
    second_derivative_range,
)

CATALOG_SPECS = [
    "power:2",
    "power:3",
    "power:4",
    "power:-1",
    "power:0.5",
    "log",
    "exp",
    "tsallis_f:0.5",
    "tsallis_f:-0.5",
    "tsallis_g:0.5",
    "tsallis_g:-0.5",
]


def grid_ratio_extremum(fn, m, M, maximize, points=200001):
    # brute-force oracle for the chord/function ratio extrema
    chord = chord_line(fn, m, M)
    ts = np.linspace(m, M, points)
    ratios = chord(ts) / np.asarray(fn.eval(ts), dtype=float)
    return float(ratios.max() if maximize else ratios.min())


def finite_difference_d2(fn, t, h=1e-4):
    return (float(fn.eval(t + h)) - 2.0 * float(fn.eval(t)) + float(fn.eval(t - h))) / h**2


class TestCatalog:
    def test_cube(self):
        fn = catalog_lookup("power", [3])
        assert fn.deriv2_shape is Deriv2Shape.NONDECREASING
        assert float(fn.deriv2(2.0)) == pytest.approx(12.0)
        assert float(fn.eval(-2.0)) == -8.0  # whole-line domain for integer powers

    def test_power_one_constant_second_derivative(self):
        fn = catalog_lookup("power", [1])
        assert fn.deriv2_shape is Deriv2Shape.CONSTANT
        assert float(fn.deriv2(3.0)) == 0.0

    def test_quartic_is_general_on_the_line(self):
        assert catalog_lookup("power", [4]).deriv2_shape is Deriv2Shape.GENERAL

    def test_tsallis_f_second_derivative(self):
        p = 0.5
        fn = catalog_lookup("tsallis_f", [p])
        for t in (0.3, 1.0, 2.7):
            closed = (1.0 - p) * t ** (p - 2.0)
            assert float(fn.deriv2(t)) == pytest.approx(closed, rel=1e-12)
            assert finite_difference_d2(fn, t) == pytest.approx(closed, rel=1e-5)
        assert fn.deriv2_shape is Deriv2Shape.NONINCREASING

    def test_tsallis_g_second_derivative(self):
        p = 0.5
        fn = catalog_lookup("tsallis_g", [p])
        for t in (0.4, 1.1, 3.0):
            closed = (1.0 - p) * t ** (-(p + 1.0))
            assert float(fn.deriv2(t)) == pytest.approx(closed, rel=1e-12)
            assert finite_difference_d2(fn, t) == pytest.approx(closed, rel=1e-5)

    def test_finite_difference_consistency_all_entries(self):
        for spec in CATALOG_SPECS:
            fn = parse_function_spec(spec)
            for t in (0.5, 1.3, 2.4):
                assert finite_difference_d2(fn, t) == pytest.approx(
                    float(fn.deriv2(t)), rel=1e-4, abs=1e-6
                ), spec

    def test_shape_metadata_consistent_with_deriv2(self):
        grid = np.linspace(0.2, 4.0, 401)
        for spec in CATALOG_SPECS:
            fn = parse_function_spec(spec)
            values = np.asarray(fn.deriv2(grid), dtype=float)
            diffs = np.diff(values)
            if fn.deriv2_shape is Deriv2Shape.NONDECREASING:
                assert np.all(diffs >= -1e-9), spec
            elif fn.deriv2_shape is Deriv2Shape.NONINCREASING:
                assert np.all(diffs <= 1e-9), spec
            elif fn.deriv2_shape is Deriv2Shape.CONSTANT:
                assert np.all(np.abs(values - values[0]) <= 1e-12), spec

    def test_rejects_bad_order_parameters(self):
        for bad in (0.0, 1.5, -2.0, 1e-15):
            with pytest.raises(BadParameter):
                catalog_lookup("tsallis_f", [bad])

    @pytest.mark.parametrize("name, count", [
        ("power", 1), ("log", 0), ("exp", 0), ("tsallis_f", 1), ("tsallis_g", 1),
    ])
    def test_parameter_count_rule(self, name, count):
        params = [0.5] * count
        assert catalog_lookup(name, params).name == (f"{name}:0.5" if count else name)
        for wrong in (count - 1, count + 1):
            if wrong >= 0:
                with pytest.raises(BadParameter, match=f"{name} takes {count} parameter"):
                    catalog_lookup(name, [0.5] * wrong)
        if count:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(BadParameter, match="must be finite"):
                    catalog_lookup(name, [bad])

    @pytest.mark.parametrize("spec, value", [("tsallis_g:1", 0.0), ("tsallis_g:-1", 2.0)])
    def test_tsallis_g_constant_second_derivative_ends(self, spec, value):
        # p = 1 gives t - 1 and p = -1 gives t^2 - t
        fn = parse_function_spec(spec)
        assert fn.deriv2_shape is Deriv2Shape.CONSTANT
        assert np.all(np.asarray(fn.deriv2(np.array([0.3, 1.0, 2.7]))) == value)
        bounds = second_derivative_range(fn, 0.5, 2.0)
        assert (bounds.alpha, bounds.beta) == (value, value)
        for t in (0.5, 1.3, 2.4):
            assert finite_difference_d2(fn, t) == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("spec, value", [
        ("power:0", 0.0), ("power:1", 0.0), ("power:2", 2.0),
        ("tsallis_f:1", 0.0), ("tsallis_g:1", 0.0), ("tsallis_g:-1", 2.0),
    ])
    def test_constant_shape_range_bits(self, spec, value):
        # every constant-f'' entry: alpha and beta are the constant, to the bit and sign
        fn = parse_function_spec(spec)
        assert fn.deriv2_shape is Deriv2Shape.CONSTANT
        for m, M in ((0.5, 3.0), (1e-3, 1e3)):
            bounds = second_derivative_range(fn, m, M)
            assert (bounds.alpha.hex(), bounds.beta.hex()) == (value.hex(), value.hex()), spec

    @pytest.mark.parametrize("name, order", [
        ("tsallis_f", 1.0 - 1e-13), ("tsallis_g", 1.0 - 1e-13), ("tsallis_g", -1.0 + 1e-13),
    ])
    def test_nearly_constant_shape_keeps_alpha_below_beta(self, name, order):
        # marked constant within the parameter tolerance, but f'' still decreases
        fn = catalog_lookup(name, [order])
        assert fn.deriv2_shape is Deriv2Shape.CONSTANT
        bounds = second_derivative_range(fn, 0.5, 3.0)
        assert (bounds.alpha, bounds.beta) == (float(fn.deriv2(3.0)), float(fn.deriv2(0.5)))
        assert bounds.alpha < bounds.beta

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            catalog_lookup("sinh")

    def test_parse_function_spec(self):
        fn = parse_function_spec("power:-1")
        assert fn.name == "power:-1"
        with pytest.raises(BadParameter):
            parse_function_spec("power:abc")


class TestSecondDerivativeRange:
    def test_cube_on_wide_interval(self):
        bounds = second_derivative_range(catalog_lookup("power", [3]), 0.25, 3.8)
        assert bounds.alpha == pytest.approx(1.5, abs=1e-12)
        assert bounds.beta == pytest.approx(22.8, abs=1e-12)

    def test_linear(self):
        bounds = second_derivative_range(catalog_lookup("power", [1]), -5.0, 7.0)
        assert bounds.alpha == 0.0 and bounds.beta == 0.0

    def test_tsallis_closed_form(self):
        bounds = second_derivative_range(catalog_lookup("tsallis_f", [0.5]), 1.0, 4.0)
        assert bounds.alpha == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert bounds.beta == pytest.approx(0.5, rel=1e-12)

    def test_monotone_returns_exact_endpoints(self):
        fn = catalog_lookup("log")
        bounds = second_derivative_range(fn, 0.5, 2.0)
        assert bounds.alpha == float(fn.deriv2(0.5))
        assert bounds.beta == float(fn.deriv2(2.0))

    def test_general_shape_interior_minimum(self):
        # quartic second derivative 12 t^2 has its minimum at t=0
        bounds = second_derivative_range(catalog_lookup("power", [4]), -1.0, 2.0)
        assert bounds.alpha == pytest.approx(0.0, abs=1e-15)
        assert bounds.beta == pytest.approx(48.0, rel=1e-12)

    def test_interval_outside_domain(self):
        with pytest.raises(DomainViolation):
            second_derivative_range(catalog_lookup("log"), -1.0, 2.0)

    @pytest.mark.parametrize("m, M", [(2.0, 1.0), (1.0, 1.0)])
    def test_empty_interval_is_a_bad_parameter(self, m, M):
        # the same class as the sandwich and Kantorovich interval checks
        with pytest.raises(BadParameter, match="need m < M"):
            second_derivative_range(catalog_lookup("log"), m, M)
        with pytest.raises(BadParameter, match="need m < M"):
            chord_line(catalog_lookup("log"), m, M)


class TestChordLine:
    def test_parabola_unit_interval(self):
        chord = chord_line(catalog_lookup("power", [2]), 0.0, 1.0)
        for t in (0.0, 0.3, 1.0):
            assert chord(t) == pytest.approx(t, abs=1e-15)

    def test_cube_reference_point(self):
        chord = chord_line(catalog_lookup("power", [3]), 0.25, 3.8)
        expected = (1.8 * 0.015625 + 1.75 * 54.872) / 3.55
        assert chord(2.0) == pytest.approx(expected, rel=1e-12)

    def test_endpoints_exact(self):
        for spec in CATALOG_SPECS:
            fn = parse_function_spec(spec)
            chord = chord_line(fn, 0.3, 2.6)
            assert chord(0.3) == float(fn.eval(0.3))
            assert chord(2.6) == float(fn.eval(2.6))

    def test_linear_function_chord_is_function(self):
        fn = catalog_lookup("power", [1])
        chord = chord_line(fn, 1.0, 5.0)
        ts = np.linspace(1.0, 5.0, 101)
        assert np.abs(chord(ts) - ts).max() <= 1e-12

    def test_chord_dominates_convex_function(self):
        ts_rel = np.linspace(0.0, 1.0, 1001)
        for spec in ("power:2", "power:3", "power:4", "power:-1", "exp", "tsallis_f:0.5"):
            fn = parse_function_spec(spec)
            m, M = 0.4, 3.1
            chord = chord_line(fn, m, M)
            ts = m + (M - m) * ts_rel
            gap = chord(ts) - np.asarray(fn.eval(ts), dtype=float)
            assert gap.min() >= -1e-10 * (1.0 + np.abs(gap).max()), spec

    def test_refined_parabolic_sandwich_all_catalog(self):
        # f <= L - (alpha/2)((M+m)t - mM - t^2) and >= the beta version
        ts_rel = np.linspace(0.0, 1.0, 1001)
        m, M = 0.3, 2.9
        ts = m + (M - m) * ts_rel
        for spec in CATALOG_SPECS:
            fn = parse_function_spec(spec)
            bounds = second_derivative_range(fn, m, M)
            chord = chord_line(fn, m, M)
            parabola = (M + m) * ts - m * M - ts**2
            values = np.asarray(fn.eval(ts), dtype=float)
            upper = chord(ts) - 0.5 * bounds.alpha * parabola
            lower = chord(ts) - 0.5 * bounds.beta * parabola
            scale = 1.0 + np.abs(values).max()
            assert (upper - values).min() >= -1e-9 * scale, spec
            assert (values - lower).min() >= -1e-9 * scale, spec


class TestRatioConstants:
    def test_linear_gives_one(self):
        assert K_constant(catalog_lookup("power", [1]), 0.5, 3.0) == pytest.approx(1.0, abs=1e-12)
        assert k_constant(catalog_lookup("power", [1]), 0.5, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_matches_classical_kantorovich(self):
        fn = catalog_lookup("power", [-1])
        value = K_constant(fn, 2.0, 8.0)
        assert value == pytest.approx(25.0 / 16.0, rel=1e-10)
        assert value == pytest.approx(grid_ratio_extremum(fn, 2.0, 8.0, True), rel=1e-8)

    def test_square_on_unit_doubling(self):
        fn = catalog_lookup("power", [2])
        assert K_constant(fn, 1.0, 2.0) == pytest.approx(9.0 / 8.0, rel=1e-10)
        # interior critical point t=4/3 is a maximum; the minimum sits at the endpoints
        assert k_constant(fn, 1.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_inverse_minimum_at_endpoints(self):
        fn = catalog_lookup("power", [-1])
        value = k_constant(fn, 2.0, 8.0)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert value == pytest.approx(grid_ratio_extremum(fn, 2.0, 8.0, False), rel=1e-8)

    def test_convex_positive_bracketing(self):
        for spec in ("power:2", "power:3", "power:-1", "exp"):
            fn = parse_function_spec(spec)
            assert K_constant(fn, 0.5, 2.5) >= 1.0 - 1e-12, spec
            assert k_constant(fn, 0.5, 2.5) <= 1.0 + 1e-12, spec

    def test_rejects_sign_changing_function(self):
        with pytest.raises(NonPositiveFunction):
            K_constant(catalog_lookup("log"), 0.5, 2.0)


class TestKantorovichPowerConstant:
    def test_conventions(self):
        assert kantorovich_power_constant(1.0, 2.0, 0.0) == 1.0
        assert kantorovich_power_constant(1.0, 2.0, 1.0) == 1.0

    def test_inverse_closed_form(self):
        assert kantorovich_power_constant(2.0, 8.0, -1.0) == pytest.approx(25.0 / 16.0, rel=1e-12)

    def test_square_closed_form(self):
        assert kantorovich_power_constant(1.0, 2.0, 2.0) == pytest.approx(9.0 / 8.0, rel=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(BadParameter):
            kantorovich_power_constant(-1.0, 2.0, 2.0)
        with pytest.raises(BadParameter):
            kantorovich_power_constant(2.0, 2.0, 2.0)
        # an infinite M used to give NaN
        with pytest.raises(BadParameter):
            kantorovich_power_constant(1.0, math.inf, 2.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, r):
        # a direct call used to return NaN; catalog_lookup guards power_function_chain
        with pytest.raises(BadParameter, match="r must be finite"):
            kantorovich_power_constant(1.0, 2.0, r)

    def test_oracle_equivalence_convex_powers(self):
        rng = SplitMix64(derive_seed(901, 0))
        for _ in range(40):
            m = 0.2 + 1.3 * rng.uniform()
            M = m + 0.4 + 2.4 * rng.uniform()
            for r in (-1.0, 2.0, 3.0):
                closed = kantorovich_power_constant(m, M, r)
                ratio = K_constant(catalog_lookup("power", [r]), m, M)
                assert closed == pytest.approx(ratio, rel=1e-8), (m, M, r)

    def test_concave_power_matches_minimum_ratio(self):
        # for r in (0,1) the closed form reproduces the minimum of chord/f
        closed = kantorovich_power_constant(1.0, 4.0, 0.5)
        assert closed == pytest.approx(k_constant(catalog_lookup("power", [0.5]), 1.0, 4.0), rel=1e-8)
        assert closed < 1.0
