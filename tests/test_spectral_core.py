import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opineq import (
    BadParameter,
    DomainViolation,
    InvalidMatrix,
    LoewnerRelation,
    NotPositiveDefinite,
    ShapeError,
    SplitMix64,
    SymmetricMatrix,
    apply_scalar_function,
    catalog_lookup,
    derive_seed,
    eigendecompose,
    loewner_compare,
    matrix_sqrt_inv_sqrt,
    natural_power,
    random_symmetric_with_spectrum,
    spectral,
)
from opineq.spectral import _array_from_payload, _cyclic_jacobi, _eigenvalues_many


def inverse_2x2_oracle(a):
    # adjugate over determinant
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det


class TestSymmetricMatrix:
    def test_symmetrizes_small_asymmetry(self):
        m = SymmetricMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_large_asymmetry(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[1.0, 2.0], [1.0, 3.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            SymmetricMatrix([[1.0, 2.0, 3.0]])

    def test_arithmetic(self):
        a = SymmetricMatrix.diagonal([1.0, 2.0])
        b = SymmetricMatrix.identity(2)
        assert np.allclose((a + b).entries, np.diag([2.0, 3.0]))
        assert np.allclose((a - b).entries, np.diag([0.0, 1.0]))
        assert np.allclose((2.0 * a).entries, np.diag([2.0, 4.0]))
        assert np.allclose(a.squared().entries, np.diag([1.0, 4.0]))

    @pytest.mark.parametrize("operation", [
        lambda a: a + 1, lambda a: a - "x", lambda a: a * a,
    ], ids=["plus_int", "minus_str", "matrix_times_matrix"])
    def test_arithmetic_with_other_types_is_a_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(SymmetricMatrix.identity(2))

    def test_sum_of_two_sizes_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="dimension mismatch: 2 vs 3"):
            SymmetricMatrix.identity(2) + SymmetricMatrix.identity(3)

    def test_only_a_1x1_matrix_is_a_scalar(self):
        assert SymmetricMatrix([[2.5]]).as_scalar() == 2.5
        with pytest.raises(ShapeError, match="matrix of dimension 2 is not a scalar"):
            SymmetricMatrix.identity(2).as_scalar()

    def test_entries_read_only(self):
        a = SymmetricMatrix.identity(2)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    def test_near_max_entries_stay_finite(self, big):
        # (x + x) / 2 overflows above about 8.99e307
        entries = np.array([[big, 0.5 * big], [0.5 * big, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = SymmetricMatrix(entries)
            values = eigendecompose(SymmetricMatrix([[big, 0.0], [0.0, 1.0]])).eigenvalues
        assert matrix.entries.tobytes() == entries.tobytes()
        assert np.array_equal(values, sorted([big, 1.0]))

    def test_near_max_asymmetric_entries_average_without_overflow(self):
        big = 1.7e308
        above = np.nextafter(big, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = SymmetricMatrix([[1.0, big], [above, 1.0]])
        assert np.isfinite(matrix.entries).all()
        assert matrix.entries[0, 1] == matrix.entries[1, 0]
        assert big <= matrix.entries[0, 1] <= above

    def test_opposite_near_max_entries_are_rejected_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrix):
                SymmetricMatrix([[0.0, 1.7e308], [-1.7e308, 0.0]])

    def test_symmetric_input_is_kept_bit_for_bit(self):
        entries = np.array([[-0.0, 2.0**-1074, 3.0], [2.0**-1074, 1e-300, -0.0], [3.0, -0.0, 1.0]])
        assert SymmetricMatrix(entries).entries.tobytes() == entries.tobytes()
        # an entry pair that differs only in the sign of zero averages to +0.0, as before
        mixed = SymmetricMatrix([[1.0, -0.0], [0.0, 1.0]]).entries
        assert np.signbit(mixed).sum() == 0


# finite floats plus signed zeros, subnormals and entries near the largest float
_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308, 8.99e307]),
)


def _mirrored(raw):
    """``raw``'s upper triangle copied bit for bit into the lower one."""
    return np.where(np.triu(np.ones(raw.shape, dtype=bool)), raw, raw.T)


def _outcome(build):
    try:
        with np.errstate(over="ignore"):
            return build().entries.tobytes()
    except InvalidMatrix:
        return "InvalidMatrix"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(lambda n: arrays(np.float64, (2, n, n), elements=_ENTRY)),
    _ENTRY,
)
def test_elementwise_results_equal_the_validating_constructor(raw, c):
    a_arr, b_arr = _mirrored(raw[0]), _mirrored(raw[1])
    a, b = SymmetricMatrix(a_arr), SymmetricMatrix(b_arr)
    cases = [
        (lambda: a + b, lambda: SymmetricMatrix(a_arr + b_arr)),
        (lambda: a - b, lambda: SymmetricMatrix(a_arr - b_arr)),
        (lambda: -a, lambda: SymmetricMatrix(-a_arr)),
        (lambda: c * a, lambda: SymmetricMatrix(a_arr * c)),
    ]
    for fast, validated in cases:
        got = _outcome(fast)
        assert got == _outcome(validated)
        if got != "InvalidMatrix":
            bits = np.frombuffer(got, dtype=np.uint64).reshape(a_arr.shape)
            assert (bits == bits.T).all()


def test_overflowing_elementwise_results_are_rejected():
    big = SymmetricMatrix([[1.7e308, 1.0], [1.0, 1.0]])
    with np.errstate(over="ignore"):
        for build in (lambda: big + big, lambda: big - (-big), lambda: 2.0 * big):
            with pytest.raises(InvalidMatrix, match="finite"):
                build()


def test_public_constructor_still_validates_arrays():
    with pytest.raises(InvalidMatrix, match="asymmetry"):
        SymmetricMatrix(np.array([[1.0, 2.0], [1.0, 3.0]]))
    # a caller's array is copied, so changing it later changes nothing
    entries = np.array([[1.0, 2.0], [2.0, 3.0]])
    matrix = SymmetricMatrix(entries)
    entries[0, 1] = 5.0
    assert matrix.entries[0, 1] == 2.0


@pytest.mark.parametrize("axes", [2, 1])
def test_payload_of_wrong_length_is_rejected(axes):
    # a 2x2 matrix needs 4 entries and a 2-vector 2, so 3 fit neither
    with pytest.raises(InvalidMatrix, match=f"x.json: expected {2**axes} entries, got 3"):
        _array_from_payload({"dim": 2, "data": [1.0, 2.0, 3.0]}, "x.json", axes)


@pytest.mark.parametrize("axes", [2, 1])
@pytest.mark.parametrize("payload, message", [
    ({"dim": -1, "data": [5.0]}, "dim must be a positive integer"),
    ({"dim": 0, "data": []}, "dim must be a positive integer"),
    ({"dim": 2.7, "data": [1.0, 2.0]}, "dim must be a positive integer"),
    ({"dim": True, "data": [1.0]}, "dim must be a positive integer"),
    ({"dim": "2", "data": [1.0, 2.0]}, "dim must be a positive integer"),
    ({"dim": 2, "data": "abcd"}, "data must be a flat list of reals"),
    ({"dim": 2, "data": ["1", "2", "3", "4"]}, "data must be a flat list of reals"),
    ({"dim": 2, "data": [[1.0, 2.0], [2.0, 1.0]]}, "data must be a flat list of reals"),
    ({"dim": 2, "data": [True, False, False, True]}, "data must be a flat list of reals"),
    ({"dim": 1, "data": [math.nan]}, "entries must be finite"),
    ({"dim": 1, "data": [math.inf]}, "entries must be finite"),
    ({"dim": 1, "data": [10**400]}, "entries must be finite"),
    ([1, 2], "must be an object with 'dim' and 'data'"),
    (None, "must be an object with 'dim' and 'data'"),
    ({"data": [1]}, "must be an object with 'dim' and 'data'"),
    ({"dim": 1}, "must be an object with 'dim' and 'data'"),
], ids=["negative_dim", "zero_dim", "fractional_dim", "bool_dim", "string_dim", "string_data",
        "string_entries", "nested_data", "bool_entries", "nan", "inf", "huge_int", "list_payload",
        "null_payload", "no_dim", "no_data"])
def test_malformed_payload_is_an_invalid_matrix(payload, message, axes):
    with pytest.raises(InvalidMatrix, match=f"x.json: {message}"):
        _array_from_payload(payload, "x.json", axes)


def test_extreme_eigenvalues_are_read_through_symmetric_matrix():
    # outside spectral a spectral hull is min_eigenvalue() and max_eigenvalue(), never a subscript
    found = []
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "eigenvalues" and ast.unparse(node.slice) in ("0", "-1"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_payload_gives_row_major_arrays():
    data = [1, 2.5, 3, 4]  # integers are reals too
    matrix = _array_from_payload({"dim": 2, "data": data}, "x.json", 2)
    assert matrix.dtype == float and np.array_equal(matrix, [[1.0, 2.5], [3.0, 4.0]])
    vector = _array_from_payload({"dim": np.int64(4), "data": data}, "x.json", 1)
    assert np.array_equal(vector, [1.0, 2.5, 3.0, 4.0])


class TestEigendecompose:
    def test_already_diagonal(self):
        dec = eigendecompose(SymmetricMatrix.diagonal([2.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2)[:, [1, 0]])

    def test_two_by_two_reference(self):
        dec = eigendecompose(SymmetricMatrix([[3.0, -2.0], [-2.0, 7.0]]))
        expected = [5.0 - 2.0 * math.sqrt(2.0), 5.0 + 2.0 * math.sqrt(2.0)]
        assert np.allclose(dec.eigenvalues, expected, atol=1e-12)

    def test_involution(self):
        dec = eigendecompose(SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_zero_matrix(self):
        dec = eigendecompose(SymmetricMatrix(np.zeros((3, 3))))
        assert np.allclose(dec.eigenvalues, 0.0)

    def test_dim_one(self):
        dec = eigendecompose(SymmetricMatrix([[4.0]]))
        assert dec.eigenvalues[0] == 4.0

    def test_reconstruction_and_orthogonality_seeded(self):
        # 1000 random symmetric matrices, dims 2-8
        for i in range(1000):
            rng = SplitMix64(derive_seed(101, i))
            dim = 2 + rng.below(7)
            m = -2.0 + 3.0 * rng.uniform()
            matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, m, m + 0.5 + 3.0 * rng.uniform())
            dec = eigendecompose(matrix)
            scale = 1.0 + matrix.norm_max
            assert np.abs(dec.reconstruct() - matrix.entries).max() <= 1e-10 * scale
            q = dec.eigenvectors
            assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-12 * dim
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_deterministic(self):
        entries = [[1.0, 0.3, -0.2], [0.3, 2.0, 0.1], [-0.2, 0.1, 3.0]]
        d1 = eigendecompose(SymmetricMatrix(entries))
        d2 = eigendecompose(SymmetricMatrix(entries))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


class TestExtremeScales:
    """The off-diagonal sum of squares must neither overflow nor underflow."""

    @pytest.mark.parametrize("exponent", [150, 160, 170, 200, 300, -150, -160, -170, -200, -300])
    def test_two_by_two_at_scale(self, exponent):
        factor = 10.0**exponent
        matrix = SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]]) * factor
        expected = np.array([-1.0, 3.0]) * factor
        dec = eigendecompose(matrix)
        assert np.allclose(dec.eigenvalues, expected, rtol=1e-14, atol=0.0)
        assert np.allclose(np.abs(dec.eigenvectors), 0.5**0.5, rtol=1e-14, atol=0.0)
        values, _ = _cyclic_jacobi(matrix.entries, vectors=False)
        assert np.allclose(values, expected, rtol=1e-14, atol=0.0)
        verdict = loewner_compare(SymmetricMatrix(np.zeros((2, 2))), matrix, tol=0.0)
        assert verdict.relation is LoewnerRelation.INCOMPARABLE
        assert verdict.gap_min_eig == values[0]
        assert verdict.gap_max_eig == values[1]

    # 6 and 4 go to the cyclic kernels, 13 and 16 to the round-robin one
    @pytest.mark.parametrize("power", [500, 1000, -500, -1000])
    def test_power_of_two_scaling_is_exact(self, power):
        for n in (6, 13, 16):
            matrix = random_symmetric_with_spectrum(derive_seed(77, power), n, -2.0, 3.0)
            scaled = SymmetricMatrix(np.ldexp(matrix.entries, power))
            dec = eigendecompose(matrix)
            dec_scaled = eigendecompose(scaled)
            assert np.array_equal(dec_scaled.eigenvalues, np.ldexp(dec.eigenvalues, power)), n
            assert np.array_equal(dec_scaled.eigenvectors, dec.eigenvectors), n
            (values,) = _eigenvalues_many([scaled.entries])
            assert np.array_equal(values, dec_scaled.eigenvalues), n

    def test_subnormal_entries(self):
        tiny = 2.0**-1040
        for n in (4, 13, 16):
            dec = eigendecompose(SymmetricMatrix(np.full((n, n), tiny)))
            assert np.array_equal(dec.eigenvalues, [0.0] * (n - 1) + [n * tiny]), n
            # the prescale lifts tiny to 1/2, as it does 1.0, so the bits scale exactly
            ones = eigendecompose(SymmetricMatrix(np.ones((n, n))))
            assert np.array_equal(dec.eigenvalues, np.ldexp(ones.eigenvalues, -1040)), n
            assert np.array_equal(dec.eigenvectors, ones.eigenvectors), n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
)
def test_reconstruction_hypothesis(raw):
    matrix = SymmetricMatrix((raw + raw.T) / 2.0)
    dec = eigendecompose(matrix)
    scale = 1.0 + matrix.norm_max
    assert np.abs(dec.reconstruct() - matrix.entries).max() <= 1e-10 * scale


class TestApplyScalarFunction:
    def test_identity(self):
        a = SymmetricMatrix([[1.0, 0.5], [0.5, 2.0]])
        out = apply_scalar_function(a, catalog_lookup("power", [1]))
        assert np.abs(out.entries - a.entries).max() <= 1e-12

    def test_square_of_involution(self):
        a = SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
        out = apply_scalar_function(a, catalog_lookup("power", [2]))
        assert np.abs(out.entries - np.eye(2)).max() <= 1e-12

    def test_inverse_trace(self):
        a = SymmetricMatrix([[3.0, -2.0], [-2.0, 7.0]])
        out = apply_scalar_function(a, catalog_lookup("power", [-1]))
        oracle = inverse_2x2_oracle(a.entries)
        assert abs(out.trace - 10.0 / 17.0) <= 1e-12
        assert np.abs(out.entries - oracle).max() <= 1e-12

    def test_domain_violation_reports_eigenvalue(self):
        a = SymmetricMatrix.diagonal([1.0, -0.5])
        with pytest.raises(DomainViolation, match="-0.5"):
            apply_scalar_function(a, catalog_lookup("log"))

    def test_overflowing_values_are_a_domain_violation(self):
        a = SymmetricMatrix.diagonal([2.0, 800.0])
        message = "exp is not finite on the spectrum"
        with np.errstate(over="ignore"), pytest.raises(DomainViolation, match=message):
            apply_scalar_function(a, catalog_lookup("exp"))

    def test_commutes_with_input(self):
        matrix = random_symmetric_with_spectrum(5, 5, 0.5, 2.0)
        image = apply_scalar_function(matrix, catalog_lookup("exp"))
        scale = 1.0 + max(matrix.norm_max, image.norm_max)
        comm = matrix.entries @ image.entries - image.entries @ matrix.entries
        assert np.abs(comm).max() <= 1e-9 * scale

    def test_functional_calculus_homomorphism(self):
        cube = catalog_lookup("power", [3])
        square = catalog_lookup("power", [2])
        for i in range(50):
            matrix = random_symmetric_with_spectrum(derive_seed(33, i), 2 + i % 5, 0.3, 2.5)
            scale = 1.0 + matrix.norm_max**5
            f_a = apply_scalar_function(matrix, cube)
            g_a = apply_scalar_function(matrix, square)
            sum_fn = apply_scalar_function(matrix, _combine(cube, square, lambda x, y: x + y))
            prod_fn = apply_scalar_function(matrix, _combine(cube, square, lambda x, y: x * y))
            assert np.abs(sum_fn.entries - (f_a + g_a).entries).max() <= 1e-9 * scale
            assert np.abs(prod_fn.entries - f_a.entries @ g_a.entries).max() <= 1e-9 * scale


def _combine(f, g, op):
    from opineq import Deriv2Shape, ScalarFunction

    return ScalarFunction(
        name=f"combined({f.name},{g.name})",
        eval=lambda t: op(f.eval(t), g.eval(t)),
        deriv2=lambda t: 0.0 * np.asarray(t, dtype=float),
        domain=(max(f.domain[0], g.domain[0]), min(f.domain[1], g.domain[1])),
        deriv2_shape=Deriv2Shape.GENERAL,
    )


class TestLoewnerCompare:
    def test_identity_vs_double(self):
        verdict = loewner_compare(SymmetricMatrix.identity(2), 2.0 * SymmetricMatrix.identity(2))
        assert verdict.relation is LoewnerRelation.LESS_OR_EQUAL
        assert abs(verdict.gap_min_eig - 1.0) <= 1e-12

    def test_counterexample_gap_is_indefinite(self):
        low = SymmetricMatrix([[325.0, 132.0], [132.0, 61.0]])
        high = SymmetricMatrix([[374.0, 105.0], [105.0, 70.0]])
        gap = high.entries - low.entries
        assert gap[0, 0] * gap[1, 1] - gap[0, 1] * gap[1, 0] < 0.0  # mixed signs
        verdict = loewner_compare(low, high)
        assert verdict.relation is LoewnerRelation.INCOMPARABLE

    def test_swapped_diagonals(self):
        verdict = loewner_compare(SymmetricMatrix.diagonal([1.0, 2.0]), SymmetricMatrix.diagonal([2.0, 1.0]))
        assert verdict.relation is LoewnerRelation.INCOMPARABLE

    def test_equal_within_tolerance(self):
        a = SymmetricMatrix.identity(3)
        verdict = loewner_compare(a, a)
        assert verdict.relation is LoewnerRelation.EQUAL

    def test_default_tolerance_is_absolute_below_scale_one(self):
        # the documented limit: tiny incomparable operands read EQUAL unless tol is given
        zero = SymmetricMatrix(np.zeros((2, 2)))
        tiny = SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]]) * 1e-150
        assert loewner_compare(zero, tiny).relation is LoewnerRelation.EQUAL
        assert loewner_compare(zero, tiny, 0.0).relation is LoewnerRelation.INCOMPARABLE

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            loewner_compare(SymmetricMatrix.identity(2), SymmetricMatrix.identity(3))

    @pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(BadParameter):
            loewner_compare(SymmetricMatrix.identity(2), SymmetricMatrix.identity(2), tol)

    @pytest.mark.parametrize("tol", [True, "x", [1e-8]], ids=["bool", "string", "list"])
    def test_tolerance_must_be_a_real_number(self, tol):
        with pytest.raises(BadParameter, match="tolerance must be a real number"):
            loewner_compare(SymmetricMatrix.identity(2), SymmetricMatrix.identity(2), tol)

    @pytest.mark.parametrize("tol", [0, 1e-8, np.float32(1e-3), np.float64(1e-8), np.int64(1)])
    def test_python_and_numpy_numbers_are_tolerances(self, tol):
        verdict = loewner_compare(SymmetricMatrix.identity(2), SymmetricMatrix.identity(2), tol)
        assert verdict.tolerance_used == float(tol)

    def test_symmetry_property(self):
        for i in range(200):
            rng = SplitMix64(derive_seed(55, i))
            dim = 2 + rng.below(5)
            x = random_symmetric_with_spectrum(rng.next_u64(), dim, -1.0, 1.0)
            y = random_symmetric_with_spectrum(rng.next_u64(), dim, -1.0, 1.0)
            forward = loewner_compare(x, y)
            backward = loewner_compare(y, x)
            assert forward.holds_le == backward.holds_ge
            assert forward.holds_ge == backward.holds_le


class TestNaturalPower:
    def test_identity_base_square_root(self):
        out = natural_power(SymmetricMatrix.identity(2), SymmetricMatrix.diagonal([4.0, 9.0]), 0.5)
        assert np.abs(out.entries - np.diag([2.0, 3.0])).max() <= 1e-12

    def test_exponent_one_returns_other(self):
        base = SymmetricMatrix([[2.0, 0.5], [0.5, 1.5]])
        other = SymmetricMatrix([[1.0, 0.2], [0.2, 3.0]])
        out = natural_power(base, other, 1.0)
        scale = 1.0 + other.norm_max
        assert np.abs(out.entries - other.entries).max() <= 1e-10 * scale

    def test_exponent_zero_returns_base(self):
        base = SymmetricMatrix([[2.0, 0.5], [0.5, 1.5]])
        other = SymmetricMatrix([[1.0, 0.2], [0.2, 3.0]])
        out = natural_power(base, other, 0.0)
        scale = 1.0 + base.norm_max
        assert np.abs(out.entries - base.entries).max() <= 1e-10 * scale

    def test_commuting_diagonal_square(self):
        base = SymmetricMatrix.diagonal([1.0, 4.0])
        other = SymmetricMatrix.diagonal([2.0, 8.0])
        out = natural_power(base, other, 2.0)
        # commuting case: B A^{-1} B
        oracle = other.entries @ np.diag([1.0, 0.25]) @ other.entries
        assert np.abs(out.entries - np.diag([4.0, 16.0])).max() <= 1e-12
        assert np.abs(out.entries - oracle).max() <= 1e-12

    def test_commuting_oracle_simultaneous_diagonalization(self):
        for i, p in enumerate([-1.0, 0.5, 2.0] * 10):
            rng = SplitMix64(derive_seed(77, i))
            dim = 2 + rng.below(4)
            from opineq import random_symmetric_with_spectrum as rand_sym
            from opineq.verifier import random_orthogonal

            q = random_orthogonal(rng, dim)
            lam_a = np.array([0.5 + 2.0 * rng.uniform() for _ in range(dim)])
            lam_b = np.array([0.5 + 2.0 * rng.uniform() for _ in range(dim)])
            base = SymmetricMatrix((q * lam_a) @ q.T)
            other = SymmetricMatrix((q * lam_b) @ q.T)
            out = natural_power(base, other, p)
            oracle = (q * (lam_a ** (1.0 - p) * lam_b**p)) @ q.T
            scale = 1.0 + np.abs(oracle).max()
            assert np.abs(out.entries - oracle).max() <= 1e-9 * scale

    def test_requires_strictly_positive_base(self):
        with pytest.raises(NotPositiveDefinite):
            natural_power(SymmetricMatrix.diagonal([1.0, -1.0]), SymmetricMatrix.identity(2), 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="dimension mismatch: 2 vs 3"):
            natural_power(SymmetricMatrix.identity(2), SymmetricMatrix.identity(3), 0.5)

    def test_fractional_power_needs_psd_inner(self):
        base = SymmetricMatrix.identity(2)
        other = SymmetricMatrix.diagonal([1.0, -0.5])
        with pytest.raises(DomainViolation):
            natural_power(base, other, 0.5)

    @pytest.mark.parametrize("exponent, message", [
        (-1.0, "negative power of a singular matrix"),
        (-0.5, "negative fractional power of a singular matrix"),
    ])
    def test_negative_power_needs_nonsingular_inner(self, exponent, message):
        other = SymmetricMatrix.diagonal([0.0, 1.0])
        with pytest.raises(DomainViolation, match=message):
            natural_power(SymmetricMatrix.identity(2), other, exponent)

    def test_clamp_warning_on_tiny_negative(self):
        base = SymmetricMatrix.identity(2)
        other = SymmetricMatrix.diagonal([1.0, -1e-14])
        out = natural_power(base, other, 0.5)
        assert out.clamp_warning


class TestMatrixSqrtInvSqrt:
    def test_identity(self):
        root, inv_root = matrix_sqrt_inv_sqrt(SymmetricMatrix.identity(3))
        assert np.abs(root.entries - np.eye(3)).max() <= 1e-12
        assert np.abs(inv_root.entries - np.eye(3)).max() <= 1e-12

    def test_diagonal(self):
        root, inv_root = matrix_sqrt_inv_sqrt(SymmetricMatrix.diagonal([4.0, 9.0]))
        assert np.abs(root.entries - np.diag([2.0, 3.0])).max() <= 1e-12
        assert np.abs(inv_root.entries - np.diag([0.5, 1.0 / 3.0])).max() <= 1e-12

    def test_reconstruction(self):
        matrix = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        root, inv_root = matrix_sqrt_inv_sqrt(matrix)
        assert np.abs(root.entries @ root.entries - matrix.entries).max() <= 1e-10
        assert np.abs(root.entries @ inv_root.entries - np.eye(2)).max() <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_sqrt_inv_sqrt(SymmetricMatrix.diagonal([1.0, 0.0]))
