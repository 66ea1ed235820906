import numpy as np
import pytest

from opineq import (
    BadParameter,
    Compression,
    CongruenceMixture,
    NormalizedTrace,
    Pinching,
    ShapeError,
    SplitMix64,
    SymmetricMatrix,
    VectorState,
    corner_map,
    derive_seed,
    identity_map,
    loewner_compare,
    random_symmetric_with_spectrum,
    verify_map,
)
from opineq.maps import map_from_info
from opineq.verifier import random_orthogonal

COUNTEREXAMPLE = SymmetricMatrix([[4.0, 1.0, -1.0], [1.0, 2.0, 1.0], [-1.0, 1.0, 2.0]])
CUBE_MATRIX = SymmetricMatrix([[1.0, 0.0, -1.0], [0.0, 3.0, 1.0], [-1.0, 1.0, 2.0]])


def all_variants(dim=3):
    rng = SplitMix64(2024)
    u1 = random_orthogonal(rng, dim)
    u2 = random_orthogonal(rng, dim)
    return [
        corner_map(dim, dim - 1),
        identity_map(dim),
        VectorState(np.ones(dim) / np.sqrt(dim)),
        NormalizedTrace(dim),
        Pinching(dim, [list(range(dim - 1)), [dim - 1]]),
        CongruenceMixture([(0.3, u1), (0.7, u2)]),
    ]


class TestApply:
    def test_corner_extracts_leading_block(self):
        phi = corner_map(3, 2)
        out = phi.apply(COUNTEREXAMPLE)
        assert np.array_equal(out.entries, np.array([[4.0, 1.0], [1.0, 2.0]]))

    def test_uniform_vector_state(self):
        phi = VectorState(np.ones(3) / np.sqrt(3.0))
        out = phi.apply(CUBE_MATRIX)
        assert out.dim == 1
        assert out.as_scalar() == pytest.approx(2.0, abs=1e-12)

    def test_normalized_trace(self):
        phi = NormalizedTrace(2)
        out = phi.apply(SymmetricMatrix([[3.0, -2.0], [-2.0, 7.0]]))
        assert out.as_scalar() == pytest.approx(5.0, abs=1e-12)

    def test_pinching_keeps_diagonal_blocks(self):
        phi = Pinching(3, [[0, 1], [2]])
        out = phi.apply(COUNTEREXAMPLE)
        expected = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert np.array_equal(out.entries, expected)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            corner_map(3, 2).apply(SymmetricMatrix.identity(2))

    def test_pinching_requires_partition(self):
        with pytest.raises(BadParameter):
            Pinching(3, [[0, 1], [1, 2]])
        with pytest.raises(BadParameter):
            Pinching(3, [[0], [2]])

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(BadParameter):
            CongruenceMixture([(0.4, np.eye(2)), (0.4, np.eye(2))])
        with pytest.raises(BadParameter):
            CongruenceMixture([(-0.5, np.eye(2)), (1.5, np.eye(2))])

    @pytest.mark.parametrize("build, message", [
        (lambda: Compression([1.0, 0.0]), "isometry data must be a 2-d array"),
        (lambda: VectorState([]), "state vector must be nonempty"),
        (lambda: NormalizedTrace(0), "dimension must be at least 1"),
        (lambda: CongruenceMixture([(1.0, np.ones((2, 3)))]), "must be square"),
        (lambda: CongruenceMixture([(0.5, np.eye(2)), (0.5, np.eye(3))]), "share one dimension"),
        (lambda: CongruenceMixture([]), "at least one term"),
    ], ids=["flat_isometry", "empty_state", "zero_trace_dim", "non_square_factor",
            "two_factor_sizes", "empty_mixture"])
    def test_constructors_reject_malformed_data(self, build, message):
        with pytest.raises(BadParameter, match=message):
            build()


class TestProperties:
    def test_unitality_all_variants(self):
        for phi in all_variants():
            image = phi.apply(SymmetricMatrix.identity(phi.in_dim))
            assert np.abs(image.entries - np.eye(phi.out_dim)).max() <= 1e-12, phi.variant

    def test_linearity(self):
        for phi in all_variants():
            for i in range(20):
                rng = SplitMix64(derive_seed(61, i))
                x = random_symmetric_with_spectrum(rng.next_u64(), phi.in_dim, -1.0, 2.0)
                y = random_symmetric_with_spectrum(rng.next_u64(), phi.in_dim, -1.5, 1.0)
                a = -1.0 + 3.0 * rng.uniform()
                b = -1.0 + 3.0 * rng.uniform()
                combo = phi.apply(a * x + b * y)
                split = a * phi.apply(x) + b * phi.apply(y)
                scale = 1.0 + max(combo.norm_max, split.norm_max)
                assert np.abs(combo.entries - split.entries).max() <= 1e-10 * scale

    def test_positivity_on_random_psd(self):
        for phi in all_variants():
            for i in range(40):
                matrix = random_symmetric_with_spectrum(derive_seed(62, i), phi.in_dim, 0.0, 3.0)
                out = phi.apply(matrix)
                assert out.min_eigenvalue() >= -1e-10 * (1.0 + matrix.norm_max), phi.variant

    def test_order_preservation(self):
        for phi in all_variants():
            for i in range(30):
                rng = SplitMix64(derive_seed(63, i))
                x = random_symmetric_with_spectrum(rng.next_u64(), phi.in_dim, -1.0, 1.0)
                gap = random_symmetric_with_spectrum(rng.next_u64(), phi.in_dim, 0.0, 2.0)
                y = x + gap
                verdict = loewner_compare(phi.apply(x), phi.apply(y))
                assert verdict.holds_le, phi.variant


class TestVerifyMap:
    def test_corner_passes(self):
        report = verify_map(corner_map(3, 2), trials=100)
        assert report.passed
        assert report.unitality_error <= 1e-12

    def test_unit_vector_state_passes(self):
        report = verify_map(VectorState(np.array([0.6, 0.8])), trials=100)
        assert report.passed

    def test_non_isometric_compression_reports_unitality_failure(self):
        broken = Compression(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        report = verify_map(broken, trials=50)
        assert not report.unitality_ok
        assert not report.passed
        assert report.unitality_error > 0.5

    def test_trials_must_be_positive(self):
        with pytest.raises(BadParameter):
            verify_map(corner_map(2, 1), trials=0)


class TestMapFromInfo:
    def test_unital_descriptions_build_their_maps(self):
        state = map_from_info({"tag": "vecstate", "vector": [0.6, 0.8]}, 2)
        assert isinstance(state, VectorState)
        u1, u2 = all_variants()[-1].terms[0][1], random_orthogonal(SplitMix64(3), 3)
        mixture = map_from_info(
            {"tag": "mixture", "weights": [0.25, 0.75], "factors": [u1.tolist(), u2.tolist()]}, 3
        )
        assert verify_map(mixture, trials=5).passed

    @pytest.mark.parametrize("vector", [
        [0.2, 0.2],  # squared norm 0.08
        [0.6, 0.8 + 1e-11],  # off by about 1.6e-11, past the 1e-12 verify_map allows
        [float("nan"), 0.0],
    ], ids=["short", "just_past_the_threshold", "nan"])
    def test_non_unit_state_vector_is_refused(self, vector):
        with pytest.raises(BadParameter, match="vecstate map is not unital"):
            map_from_info({"tag": "vecstate", "vector": vector}, 2)

    @pytest.mark.parametrize("factor", [
        [[1.0, 0.0], [1.0, 1.0]],  # not orthogonal
        [[1.0, 0.0], [0.0, float("nan")]],
    ], ids=["not_orthogonal", "nan"])
    def test_non_orthogonal_mixture_is_refused(self, factor):
        info = {"tag": "mixture", "weights": [0.5, 0.5], "factors": [np.eye(2).tolist(), factor]}
        with pytest.raises(BadParameter, match="mixture map is not unital"):
            map_from_info(info, 2)

    def test_constructors_stay_permissive_for_verify_map(self):
        broken = CongruenceMixture([(0.5, np.eye(2)), (0.5, np.array([[1.0, 0.0], [1.0, 1.0]]))])
        assert not verify_map(broken, trials=1).unitality_ok
        assert not verify_map(VectorState([0.2, 0.2]), trials=1).unitality_ok
