"""A campaign chunk draws its matrices in one stacked pass per size, with the
bits of the rotation-by-rotation draws.

``verifier._draw_factors`` reads each stream's words in counter form
(``rng._words``) and builds every orthogonal factor of one size in one
``_givens`` stack, in waves of disjoint Givens rotations.  Each matrix must
have the bytes that the one-at-a-time public draws give and that the
rotation-by-rotation construction below, on lists of Python floats, gives.
"""

import numpy as np
import pytest

from opineq import (
    SplitMix64,
    TrialSpec,
    mix64,
    random_density,
    random_orthogonal,
    random_symmetric_with_spectrum,
    run_campaign,
    verifier,
)
from opineq.rng import GOLDEN, MASK64, _uniforms, _words
from opineq.spectral import SymmetricMatrix

SIZES = [2, 3, 4, 8, 12, 13, 16, 24, 32]


def _rotation_by_rotation(rng: SplitMix64, dim: int) -> np.ndarray:
    """The orthogonal factor drawn one Givens rotation at a time on Python float columns."""
    cols = [[1.0 if row == col else 0.0 for row in range(dim)] for col in range(dim)]
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            c, s = float(np.cos(theta)), float(np.sin(theta))
            col_i, col_j = cols[i], cols[j]
            cols[i] = [c * x - s * y for x, y in zip(col_i, col_j)]
            cols[j] = [s * x + c * y for x, y in zip(col_i, col_j)]
    return np.array(cols).T.copy()


def _spectrum_by_rotation(seed: int, dim: int, m: float, M: float) -> np.ndarray:
    rng = SplitMix64(seed)
    force_endpoints = rng.below(4) == 0
    lam = np.array([m + (M - m) * rng.uniform() for _ in range(dim)])
    if force_endpoints:
        lam[0] = m
        lam[-1] = M
    q = _rotation_by_rotation(rng, dim)
    return SymmetricMatrix((q * lam) @ q.T).entries


def _density_by_rotation(seed: int, dim: int) -> np.ndarray:
    rng = SplitMix64(seed)
    raw = np.array([0.05 + 0.95 * rng.uniform() for _ in range(dim)])
    lam = 1e-3 + (1.0 - dim * 1e-3) * (raw / raw.sum())
    q = _rotation_by_rotation(rng, dim)
    return SymmetricMatrix((q * lam) @ q.T).entries


def _factors(n: int, k: int) -> list:
    """k factors of size n, the three kinds in turn, each from its own stream."""
    rng = SplitMix64(1000 * n + k)
    factors = []
    for i in range(k):
        seed = rng.next_u64()
        if i % 3 == 0:
            m = 0.3 + rng.uniform()
            factors.append(verifier._draw_spectrum(seed, n, m, m + 0.5 + rng.uniform()))
        elif i % 3 == 1:
            factors.append(verifier._draw_density(seed, n))
        else:
            factors.append(verifier._Factor("orthogonal", seed, n))
    return factors


def _alone(factor) -> np.ndarray:
    """The factor's matrix from the one-at-a-time public draw."""
    if factor.kind == "spectrum":
        return random_symmetric_with_spectrum(factor.state, factor.dim, factor.m, factor.M).entries
    if factor.kind == "density":
        return random_density(factor.state, factor.dim).rho.entries
    return random_orthogonal(SplitMix64(factor.state), factor.dim)


def _by_rotation(factor) -> np.ndarray:
    if factor.kind == "spectrum":
        return _spectrum_by_rotation(factor.state, factor.dim, factor.m, factor.M)
    if factor.kind == "density":
        return _density_by_rotation(factor.state, factor.dim)
    return _rotation_by_rotation(SplitMix64(factor.state), factor.dim)


@pytest.mark.parametrize("k", [1, 5, 60])
@pytest.mark.parametrize("n", SIZES)
def test_stack_equals_one_at_a_time_and_rotation_by_rotation_bytes(n, k):
    factors = _factors(n, k)
    drawn = verifier._draw_factors(factors)
    for i, (factor, matrix) in enumerate(zip(factors, drawn)):
        a = matrix if factor.kind == "orthogonal" else matrix.entries
        assert a.flags.c_contiguous, (n, k, i)
        assert a.tobytes() == _alone(factor).tobytes(), (n, k, i)
        assert a.tobytes() == _by_rotation(factor).tobytes(), (n, k, i)


def test_factors_of_several_sizes_in_one_call_keep_their_order():
    factors = [f for fs in zip(_factors(3, 6), _factors(13, 6), _factors(8, 6)) for f in fs]
    drawn = verifier._draw_factors(factors)
    for factor, matrix in zip(factors, drawn):
        a = matrix if factor.kind == "orthogonal" else matrix.entries
        assert a.shape == (factor.dim, factor.dim)
        assert a.tobytes() == _by_rotation(factor).tobytes()


@pytest.mark.parametrize("seed", [0, 1, MASK64])
def test_counter_form_words_equal_next_u64(seed):
    rng = SplitMix64(seed)
    sequential = [rng.next_u64() for _ in range(300)]
    words = _words(range(1, 301), [seed, seed ^ 1])
    assert words.dtype == np.uint64 and words.shape == (300, 2)
    assert [int(w) for w in words[:, 0]] == sequential
    assert [int(w) for w in words[:, 1]] == [mix64((seed ^ 1) + n * GOLDEN) for n in range(1, 301)]
    assert _uniforms(words[:, 0]).tolist() == [(w >> 11) * 2.0**-53 for w in sequential]
    # far into the stream, where seed + n * GOLDEN wraps mod 2**64 many times
    for n in (2, 3, 2**20 + 7, 2**40 + 1, 2**63, MASK64):
        assert int(_words([n], [seed])[0, 0]) == mix64((seed + n * GOLDEN) & MASK64), n
        skipped = SplitMix64(seed)
        assert skipped._skip(n - 1) == seed
        assert skipped.next_u64() == mix64((seed + n * GOLDEN) & MASK64), n


@pytest.mark.parametrize("dim", [2, 3, 5, 16])
def test_random_orthogonal_leaves_the_stream_where_rotation_by_rotation_leaves_it(dim):
    # the mixture map draws its two factors from the trial stream, and the
    # trial's later draws read the stream after them
    stacked, by_rotation = SplitMix64(dim), SplitMix64(dim)
    assert random_orthogonal(stacked, dim).tobytes() == _rotation_by_rotation(by_rotation, dim).tobytes()
    assert [stacked.next_u64() for _ in range(3)] == [by_rotation.next_u64() for _ in range(3)]


def test_array_cos_and_sin_equal_one_call_per_angle_on_a_campaigns_angles(monkeypatch):
    # _givens takes np.cos and np.sin of arrays of angles, where the
    # rotation-by-rotation draw took them of one angle at a time
    recorded = []
    givens = verifier._givens

    def recording(states, dim):
        recorded.append((list(states), dim))
        return givens(states, dim)

    monkeypatch.setattr(verifier, "_givens", recording)
    run_campaign(TrialSpec(seed=42, dim_range=(2, 16), trials=100))
    angles = []
    for states, dim in recorded:
        theta = 2.0 * np.pi * _uniforms(_words(verifier._givens_waves(dim)[0], states))
        for fn in (np.cos, np.sin):
            whole = fn(theta)
            each = [float(fn(x)) for x in theta.ravel().tolist()]
            assert whole.ravel().tolist() == each, (fn.__name__, dim)
        angles.append(theta.ravel())
    flat = np.concatenate(angles)
    assert flat.size > 10_000 and {dim for _, dim in recorded} == set(range(2, 17))
    for length in range(1, 140):  # every array length of the vector loops' tails
        part = flat[length:2 * length]
        for fn in (np.cos, np.sin):
            assert fn(part).tolist() == [float(fn(x)) for x in part.tolist()], (fn.__name__, length)
