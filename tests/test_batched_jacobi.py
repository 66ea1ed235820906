"""The batched Jacobi gives the list kernel's bits, with and without
eigenvectors, deferred Loewner verdicts equal eager ones, and the
round-robin kernel's bits depend on nothing but the matrix.

``_jacobi_batch`` solves a stack of same-size matrices with one numpy step
per rotation.  Each matrix keeps its own rotation, its own zero pivots and
its own stopping test, so its eigenvalues and eigenvectors must be the bytes
of ``_cyclic_jacobi(a, vectors)`` whatever else shares the stack.
``_jacobi_round_robin``, which solves every matrix of size 12 and up, alone
or stacked, must likewise give a matrix the same bytes alone and in any
stack, and eigenvalues that agree with LAPACK's.
"""

import ast
import collections
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from opineq import ConvergenceError, LoewnerRelation, SymmetricMatrix, loewner_compare, spectral
from opineq.bounds import _claim, _judge
from opineq.spectral import (
    _BATCH_MIN,
    _BATCH_MIN_VECTORS,
    _ROUND_ROBIN_MIN,
    _cyclic_jacobi,
    _decompose_many,
    _eigenvalues_many,
    _jacobi_batch,
    _jacobi_round_robin,
    eigendecompose,
)


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


def _round_robin_bits(a: np.ndarray) -> bytes:
    return _jacobi_round_robin(a[None])[0][0].tobytes()


@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_batch_equals_list_kernel_bytes(n, k):
    rng = np.random.default_rng([n, k])
    stack = np.stack([_mixed(rng, n, i % 9) for i in range(k)])
    before = stack.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the discarded np.where branches must stay silent
        values, vectors = _jacobi_batch(stack)
    assert values.shape == (k, n)
    assert vectors is None
    for i in range(k):
        assert values[i].tobytes() == _list_bits(stack[i]), (n, k, i)
    assert stack.tobytes() == before.tobytes()


@pytest.mark.parametrize("k", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_batch_vectors_equal_list_kernel_bytes(n, k):
    rng = np.random.default_rng([n, k, 1])
    stack = np.stack([_mixed(rng, n, i % 9) for i in range(k)])
    before = stack.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = _jacobi_batch(stack, vectors=True)
    assert values.shape == (k, n)
    assert vectors.shape == (k, n, n)
    for i in range(k):
        lam, q = _cyclic_jacobi(np.ascontiguousarray(stack[i]))
        assert values[i].tobytes() == lam.tobytes(), (n, k, i)
        assert vectors[i].tobytes() == q.tobytes(), (n, k, i)
    assert stack.tobytes() == before.tobytes()


def test_list_kernel_eigenvalues_do_not_depend_on_vectors():
    rng = np.random.default_rng(2)
    for i in range(27):
        a = _mixed(rng, 2 + i % 7, i % 9)
        assert _cyclic_jacobi(a)[0].tobytes() == _list_bits(a), i


def test_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(3)
    stack = np.stack([_mixed(rng, 6, i % 9) for i in range(18)])
    for vectors in (False, True):
        alone = [_jacobi_batch(stack[i:i + 1], vectors) for i in range(18)]
        together = _jacobi_batch(stack, vectors)
        reordered = _jacobi_batch(stack[::-1], vectors)
        for i, (lam, q) in enumerate(alone):
            assert together[0][i].tobytes() == reordered[0][17 - i].tobytes() == lam[0].tobytes()
            if vectors:
                assert together[1][i].tobytes() == reordered[1][17 - i].tobytes() == q[0].tobytes()


def test_eigenvalues_many_dedupes_and_picks_the_kernel_by_group_size(monkeypatch):
    rng = np.random.default_rng(5)
    big = [_mixed(rng, 4, 0) for _ in range(_BATCH_MIN)]
    small = [_mixed(rng, 3, 0) for _ in range(_BATCH_MIN - 1)]
    # from the size cut on, one matrix or many go to the round-robin kernel
    large = [_mixed(rng, _ROUND_ROBIN_MIN, 0) for _ in range(_BATCH_MIN)]
    lone = [_mixed(rng, _ROUND_ROBIN_MIN + 1, 0)]
    below = [_mixed(rng, _ROUND_ROBIN_MIN - 1, 0) for _ in range(2)]
    calls = collections.Counter()
    one_by_one = spectral._cyclic_jacobi
    batched = spectral._jacobi_batch
    round_robin = spectral._jacobi_round_robin

    def counting(a, vectors=True):
        calls["list", a.shape[0]] += 1
        return one_by_one(a, vectors)

    def counting_batch(stack, vectors=False):
        calls["batch", stack.shape[1]] += len(stack)
        return batched(stack, vectors)

    def counting_round_robin(stack, vectors=False):
        calls["round_robin", stack.shape[1]] += len(stack)
        return round_robin(stack, vectors)

    monkeypatch.setattr(spectral, "_cyclic_jacobi", counting)
    monkeypatch.setattr(spectral, "_jacobi_batch", counting_batch)
    monkeypatch.setattr(spectral, "_jacobi_round_robin", counting_round_robin)
    arrays = big + small + large + lone + below
    arrays += [big[0].copy(), small[0].copy(), large[0].copy(), lone[0].copy()]  # same bytes, other objects
    values = _eigenvalues_many(arrays)
    assert calls == {("batch", 4): _BATCH_MIN, ("list", 3): _BATCH_MIN - 1,
                     ("round_robin", _ROUND_ROBIN_MIN): _BATCH_MIN,
                     ("round_robin", _ROUND_ROBIN_MIN + 1): 1,
                     ("list", _ROUND_ROBIN_MIN - 1): 2}
    for a, lam in zip(arrays, values):
        expected = _list_bits(a) if a.shape[0] < _ROUND_ROBIN_MIN else _round_robin_bits(a)
        assert lam.tobytes() == expected


def test_decompose_many_fills_the_caches_eigendecompose_would(monkeypatch):
    rng = np.random.default_rng(6)
    big = [SymmetricMatrix(_mixed(rng, 4, i % 9)) for i in range(_BATCH_MIN_VECTORS)]
    small = [SymmetricMatrix(_mixed(rng, 3, i % 9)) for i in range(_BATCH_MIN_VECTORS - 1)]
    solved = small[0]
    eigendecompose(solved)
    twin = SymmetricMatrix(big[0].entries)  # same bytes, another object
    calls = collections.Counter()
    one_by_one = spectral._cyclic_jacobi
    batched = spectral._jacobi_batch

    def counting(a, vectors=True):
        calls["list", a.shape[0], vectors] += 1
        return one_by_one(a, vectors)

    def counting_batch(stack, vectors=False):
        calls["batch", stack.shape[1], vectors] += len(stack)
        return batched(stack, vectors)

    monkeypatch.setattr(spectral, "_cyclic_jacobi", counting)
    monkeypatch.setattr(spectral, "_jacobi_batch", counting_batch)
    _decompose_many(big + small + [twin])
    # the cached one is skipped, the twin is solved with its original
    assert calls == {("batch", 4, True): _BATCH_MIN_VECTORS,
                     ("list", 3, True): _BATCH_MIN_VECTORS - 2}
    monkeypatch.setattr(spectral, "_cyclic_jacobi", one_by_one)
    for matrix in big + small + [twin]:
        fresh = eigendecompose(SymmetricMatrix(matrix.entries))
        dec = matrix._decomposition
        assert dec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert dec.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
        # laid out as the list kernel lays them out, and read-only
        assert dec.eigenvectors.strides == fresh.eigenvectors.strides
        assert not dec.eigenvalues.flags.writeable and not dec.eigenvectors.flags.writeable


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


def test_solve_many_is_the_only_caller_of_the_kernels():
    # one door: a solve counter or tracer hooked on _solve_many sees every solve
    source = Path(spectral.__file__).read_text()
    kernels = {"_cyclic_jacobi", "_jacobi_batch", "_jacobi_round_robin"}
    named = collections.defaultdict(set)  # function -> the kernels it names
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id in kernels:
                    named[function.name].add(node.id)
    assert named == {"_solve_many": kernels}


def test_eigendecompose_solves_a_cache_miss_through_solve_many(monkeypatch):
    matrix = SymmetricMatrix(_mixed(np.random.default_rng(8), 5, 0))
    expected = _cyclic_jacobi(matrix.entries)
    calls = []
    solve_many = spectral._solve_many

    def counting(arrays, vectors):
        calls.append((len(arrays), vectors))
        return solve_many(arrays, vectors)

    monkeypatch.setattr(spectral, "_solve_many", counting)
    dec = eigendecompose(matrix)
    assert eigendecompose(matrix) is dec  # a hit solves nothing
    assert calls == [(1, True)]
    assert dec.eigenvalues.tobytes() == expected[0].tobytes()
    assert dec.eigenvectors.tobytes() == expected[1].tobytes()
    assert dec.eigenvectors.strides == expected[1].strides
    assert not dec.eigenvalues.flags.writeable and not dec.eigenvectors.flags.writeable


def _round_robin_set(rng: np.random.Generator, n: int) -> list:
    """Seven matrix kinds for the round-robin kernel, each bitwise symmetric."""
    g = _symmetric(rng.standard_normal((n, n)))
    v = rng.standard_normal(n)
    h = n // 2
    blocks = np.zeros((n, n))  # block-diagonal, with exact-zero off-diagonal blocks
    blocks[:h, :h] = _symmetric(rng.standard_normal((h, h)))
    blocks[h:, h:] = _symmetric(rng.standard_normal((n - h, n - h)))
    return [
        g,
        np.diag(rng.standard_normal(n)),
        np.eye(n) + 1e-9 * _symmetric(rng.standard_normal((n, n))),  # clustered around 1
        np.diag(np.logspace(-9.0, 9.0, n)) + 1e-3 * g,  # spread over 1e-9 .. 1e9
        blocks,
        np.zeros((n, n)),
        1.5 * np.eye(n) + 0.75 * np.outer(v, v),  # 1.5 repeated n - 1 times
    ]


def _first_order_set(rng: np.random.Generator, n: int) -> list:
    """Matrices that reach the round-robin kernel's rare branches.

    The first is diagonally dominant: the pivots of the first step are
    1e-40..1e-30, far below their diagonal gaps of 1e10 (first-order
    tangent), while the other off-diagonal entries keep the sweeps going.
    The second has exact 0.0 and -0.0 pivots, the third is the all-ones
    matrix scaled by 2**-1040 (subnormal entries).
    """
    a = _symmetric(rng.standard_normal((n, n))) + np.diag(np.arange(1.0, n + 1.0) * 1e10)
    m = n + n % 2
    rotated = m // 2 - n % 2  # odd n pairs one index with the zero padding, and no pivot is read there
    p, r = np.divmod(spectral._round_robin_steps(n)[0][0][:rotated], m)
    tiny = np.logspace(-40.0, -30.0, rotated) * rng.choice([-1.0, 1.0], rotated)
    a[p, r] = a[r, p] = tiny
    return [a, _mixed(rng, n, 4), np.ones((n, n)) * 2.0**-1040]


# SHA-256 of the eigenvalues without vectors, then the eigenvalues and the
# eigenvectors with them, of the round-robin kernel on one stack per size
# (the seven kinds of _round_robin_set and _first_order_set's three)
ROUND_ROBIN_SHA256 = {
    12: "16a1a7c05cb7b57e4877ddc933bd53fe7c9dec0f12359eaf785267db48901a5f",
    13: "e7d63f41e6a4348aed89e9d211d3a00331341386ae7780225156d6c1b2e18c3c",
    17: "1f0d98faea38a3441989b74194c7711a39b55eda89629b1d48af8b0d5212797d",
    24: "6910d10209ae80c18babbab59f0a96dc48475e313420d999c6451df6606ad0e7",
    32: "09e434af185dcf19702b4d695901018396fa45aa7855f3e56f4d3ebd9befe6c4",
}


def _round_robin_digest(n: int) -> str:
    rng = np.random.default_rng([n, 20])
    stack = np.stack(_round_robin_set(rng, n) + _first_order_set(rng, n))
    digest = hashlib.sha256()
    for vectors in (False, True):
        values, q = _jacobi_round_robin(stack, vectors)
        digest.update(values.tobytes())
        if vectors:
            digest.update(q.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n", sorted(ROUND_ROBIN_SHA256))
def test_round_robin_bits_are_pinned(n):
    assert _round_robin_digest(n) == ROUND_ROBIN_SHA256[n]


@pytest.mark.parametrize("n", sorted(ROUND_ROBIN_SHA256))
def test_first_order_tangents_occur_in_the_first_step(n):
    a = _first_order_set(np.random.default_rng([n, 20]), n)[0]
    m = n + n % 2
    rotated = m // 2 - n % 2
    scale, _ = spectral._prescale(a[None])
    scaled = np.zeros((m, m))
    scaled[:n, :n] = a * scale[0]
    # the first step's pivots: (p, r), then (r, r) and (p, p) of each pair but the pad pair
    pivot = scaled.ravel()[spectral._round_robin_steps(n)[0][0]]
    apr, diff = pivot[:rotated], pivot[rotated:2 * rotated] - pivot[2 * rotated:]
    assert (np.abs(apr) < 1e-36 * np.abs(diff)).any()


@pytest.mark.parametrize("n", sorted(ROUND_ROBIN_SHA256))
def test_rare_branch_reaches_first_order_tangents_and_zero_pivots(n, monkeypatch):
    # the pinned stacks pass the one guard of _tangents' rare branch both ways
    stack = np.stack(_first_order_set(np.random.default_rng([n, 20]), n))
    tangents = spectral._tangents
    seen = collections.Counter()

    def recording(apr, diff, out):
        first_order = (apr != 0.0) & (np.abs(apr) < 1e-36 * np.abs(diff))
        zero = tangents(apr, diff, out)
        seen["first_order"] += int(first_order.any())
        seen["zero"] += zero is not None
        if zero is not None:
            assert (out[2][zero] == 0.0).all() and (apr[zero] == 0.0).all()
        return zero

    monkeypatch.setattr(spectral, "_tangents", recording)
    for vectors in (False, True):
        seen.clear()
        _jacobi_round_robin(stack, vectors)
        assert seen["first_order"] > 0 and seen["zero"] > 0, (vectors, seen)


@pytest.mark.parametrize("n", [12, 13, 16, 17])
def test_an_uncoupled_negative_zero_keeps_its_sign(n):
    # index 0 has no coupling, so each of its rotations has c = 1 and sign * s
    # = -0.0 on its side: the zero pivots' and, at odd n, the pad pair's fixed
    # slots.  Its -0.0 diagonal entry stays -0.0, as the list kernel, which
    # skips zero pivots, leaves it.
    a = np.zeros((n, n))
    a[0, 0] = -0.0
    a[1:3, 1:3] = [[1.0, 0.5], [0.5, 2.0]]  # so that a sweep runs
    assert np.signbit(_cyclic_jacobi(a, vectors=False)[0]).sum() == 1
    for vectors in (False, True):
        values = _jacobi_round_robin(a[None], vectors)[0][0]
        assert np.signbit(values).sum() == 1 and (values == 0.0).sum() == n - 2, vectors


@pytest.mark.parametrize("n", [12, 13, 16, 17, 24, 32])
def test_round_robin_bits_do_not_depend_on_the_stack(n, monkeypatch):
    rng = np.random.default_rng([n, 21])
    kinds = _round_robin_set(rng, n)
    others = [a for _ in range(6) for a in _round_robin_set(rng, n)]
    alone = {vectors: [_jacobi_round_robin(a[None], vectors) for a in kinds] for vectors in (False, True)}
    for i in range(len(kinds)):
        # the values-only path gives the vectors path's eigenvalue bits
        assert alone[False][i][0].tobytes() == alone[True][i][0].tobytes(), i
        assert alone[False][i][1] is None
    for size in (2, 7, 48):
        for i, a in enumerate(kinds):
            at = (3 * i) % size  # a sits at another place in each stack
            stack = np.stack(others[:at] + [a] + others[at:size - 1])
            before = stack.tobytes()
            for vectors in (False, True):
                values, q = _jacobi_round_robin(stack, vectors)
                assert values[at].tobytes() == alone[vectors][i][0][0].tobytes(), (size, i, vectors)
                if vectors:
                    assert q[at].tobytes() == alone[vectors][i][1][0].tobytes(), (size, i)
            assert stack.tobytes() == before
    if n == 24:
        # a stack of 72 whose members leave at different sweeps, so the step
        # buffers are made again partway through; every matrix keeps its bytes
        kinds = kinds + [_mixed(rng, n, kind) for kind in (3, 4, 6, 8)]
        stack = np.stack([kinds[i % len(kinds)] * (1.0 + i // len(kinds)) for i in range(72)])
        before = stack.tobytes()
        off_norms = spectral._off_norms
        live = []  # the stack's size at each stopping test

        def counting_off_norms(block, strictly_upper):
            live.append(block.shape[2])
            return off_norms(block, strictly_upper)

        monkeypatch.setattr(spectral, "_off_norms", counting_off_norms)
        for vectors in (False, True):
            live.clear()
            values, q = _jacobi_round_robin(stack, vectors)
            assert len(set(live)) >= 4, live  # members leave at three stopping tests or more
            for i, a in enumerate(stack):
                lam, qa = _jacobi_round_robin(a[None], vectors)
                assert values[i].tobytes() == lam[0].tobytes(), (i, vectors)
                if vectors:
                    assert q[i].tobytes() == qa[0].tobytes(), i
        assert stack.tobytes() == before


@pytest.mark.parametrize("n", [12, 13, 16, 17, 32])
def test_round_robin_agrees_with_lapack(n):
    rng = np.random.default_rng([n, 22])
    kinds = _round_robin_set(rng, n)
    values, q = _jacobi_round_robin(np.stack(kinds), vectors=True)
    for i, a in enumerate(kinds):
        reference = np.linalg.eigvalsh(a)
        radius = np.abs(reference).max()
        assert np.abs(values[i] - reference).max() <= 1e-12 * radius, i
        assert np.abs(q[i].T @ q[i] - np.eye(n)).max() <= 1e-12, i
        assert np.abs((q[i] * values[i]) @ q[i].T - a).max() <= 1e-12 * max(radius, 1.0), i


def test_round_robin_sweep_cap_raises(monkeypatch):
    a = _mixed(np.random.default_rng(9), 16, 0)
    monkeypatch.setattr(spectral, "_SWEEP_CAP", 1)
    for vectors in (False, True):
        with pytest.raises(ConvergenceError, match="sweep cap"):
            spectral._solve_many([a], vectors)
