"""The batched eigenvalues-only Jacobi gives the list kernel's bits, and
deferred Loewner verdicts equal eager ones.

``_jacobi_eigenvalues_batch`` solves a stack of same-size matrices with one
numpy step per rotation.  Each matrix keeps its own rotation, its own zero
pivots and its own stopping test, so its eigenvalues must be the bytes of
``_cyclic_jacobi(a, vectors=False)`` whatever else shares the stack.
"""

import collections
import warnings

import numpy as np
import pytest

from opineq import LoewnerRelation, SymmetricMatrix, loewner_compare, spectral, with_tolerance
from opineq.bounds import _claim, _judge
from opineq.spectral import _BATCH_MIN, _cyclic_jacobi, _eigenvalues_many, _jacobi_eigenvalues_batch


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """Bitwise-symmetric matrix from the upper triangle of ``upper`` (keeps -0.0)."""
    n = upper.shape[0]
    return np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper)


def _mixed(rng: np.random.Generator, n: int, kind: int) -> np.ndarray:
    """One of nine matrix kinds, which converge after different numbers of sweeps."""
    a = rng.standard_normal((n, n))
    if kind == 1:
        a = np.diag(np.diag(a))  # no sweep at all
    elif kind == 2:
        a = np.zeros((n, n))
    elif kind == 3:
        a[rng.random((n, n)) < 0.5] = 0.0  # exact-zero pivots
    elif kind == 4:
        a[rng.random((n, n)) < 0.5] = -0.0  # -0.0 pivots
    elif kind == 5:
        a = a * 1e300
    elif kind == 6:
        a = a * 1e-300
    elif kind == 7:
        a = a * 2.0**-1060  # subnormal entries
    elif kind == 8:
        # the first pivot is far below its diagonal gap (first-order tangent)
        # while the other off-diagonal entries keep the sweeps going
        a = a + np.diag(np.arange(1.0, n + 1.0) * 1e10)
        if n > 1:
            a[0, 1] = 1e-30
    return _symmetric(a)


def _list_bits(a: np.ndarray) -> bytes:
    return _cyclic_jacobi(np.ascontiguousarray(a), vectors=False)[0].tobytes()


@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_batch_equals_list_kernel_bytes(n, k):
    rng = np.random.default_rng([n, k])
    stack = np.stack([_mixed(rng, n, i % 9) for i in range(k)])
    before = stack.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the discarded np.where branches must stay silent
        values = _jacobi_eigenvalues_batch(stack)
    assert values.shape == (k, n)
    for i in range(k):
        assert values[i].tobytes() == _list_bits(stack[i]), (n, k, i)
    assert stack.tobytes() == before.tobytes()


def test_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(3)
    stack = np.stack([_mixed(rng, 6, i % 9) for i in range(18)])
    alone = [_jacobi_eigenvalues_batch(stack[i:i + 1])[0].tobytes() for i in range(18)]
    together = _jacobi_eigenvalues_batch(stack)
    reordered = _jacobi_eigenvalues_batch(stack[::-1])[::-1]
    assert [v.tobytes() for v in together] == alone
    assert [v.tobytes() for v in reordered] == alone


def test_eigenvalues_many_dedupes_and_picks_the_kernel_by_group_size(monkeypatch):
    rng = np.random.default_rng(5)
    big = [_mixed(rng, 4, 0) for _ in range(_BATCH_MIN)]
    small = [_mixed(rng, 3, 0) for _ in range(_BATCH_MIN - 1)]
    calls = collections.Counter()
    one_by_one = spectral._cyclic_jacobi
    batched = spectral._jacobi_eigenvalues_batch

    def counting(a, vectors=True):
        calls["list", a.shape[0]] += 1
        return one_by_one(a, vectors)

    def counting_batch(stack):
        calls["batch", stack.shape[1]] += len(stack)
        return batched(stack)

    monkeypatch.setattr(spectral, "_cyclic_jacobi", counting)
    monkeypatch.setattr(spectral, "_jacobi_eigenvalues_batch", counting_batch)
    arrays = big + small + [big[0].copy(), small[0].copy()]  # same bytes, other objects
    values = _eigenvalues_many(arrays)
    assert calls == {("batch", 4): _BATCH_MIN, ("list", 3): _BATCH_MIN - 1}
    for a, lam in zip(arrays, values):
        assert lam.tobytes() == _list_bits(a)


def _reports():
    rng = np.random.default_rng(11)
    out = []
    for i in range(2 * _BATCH_MIN):
        n = 3 if i % 2 else 5
        lhs = SymmetricMatrix(_symmetric(rng.standard_normal((n, n))))
        rhs = SymmetricMatrix(_symmetric(rng.standard_normal((n, n))) + 4.0 * np.eye(n) * (i % 3))
        out.append((lhs, rhs))
    return out


def test_batched_verdicts_equal_loewner_compare():
    pairs = _reports()
    reports = [_claim(f"r{i}", lhs, rhs) for i, (lhs, rhs) in enumerate(pairs)]
    extra = SymmetricMatrix(_symmetric(np.arange(16.0).reshape(4, 4)))
    (spectrum,) = _judge(reports, extra)
    assert spectrum.tobytes() == _list_bits(extra.entries)
    for report, (lhs, rhs) in zip(reports, pairs):
        assert report.verdict == loewner_compare(lhs, rhs)
    lazy = [_claim("lazy", lhs, rhs) for lhs, rhs in pairs]
    assert [r.verdict for r in lazy] == [r.verdict for r in reports]
    assert {r.verdict.relation for r in reports} >= {LoewnerRelation.INCOMPARABLE}


def test_with_tolerance_reuses_the_judged_gaps(monkeypatch):
    lhs, rhs = _reports()[2]
    expected = loewner_compare(lhs, rhs, 1e-3)
    report = _claim("r", lhs, rhs)
    report.verdict
    monkeypatch.setattr(spectral, "_cyclic_jacobi", None)  # any further solve fails
    assert with_tolerance(report, 1e-3).verdict == expected
