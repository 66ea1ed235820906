"""Dense real symmetric matrices with a deterministic spectral calculus.

Every bound in this package reduces to eigendecompositions of small real
symmetric matrices.  The eigensolver is a Jacobi iteration with one fixed
sweep order for each matrix size, so its output is a pure function of the
input across runs and platforms; the seeded fuzz harness relies on that.

Below size 12 the order is cyclic, row by row, and there are two kernels.
``_cyclic_jacobi``, the list kernel, solves one matrix on rows of Python
floats, with or without eigenvectors; with them, each row carries the
matching row of Q^T, rotated in the same step.  ``_jacobi_batch`` solves a
stack of same-size matrices, with or without eigenvectors, one numpy step
per rotation for the whole stack, and gives each matrix the list kernel's
bits: eigenvalues and, with eigenvectors, Q^T rows rotated by each matrix's
own (c, s), the same zero-pivot skips and the same stable ordering.  From
size 12 (``_ROUND_ROBIN_MIN``) the order is round-robin:
``_jacobi_round_robin`` rotates n / 2 disjoint pairs in one numpy step, on
one matrix or on a stack, so a sweep is n - 1 steps.  A step is a fixed
list of about 30 numpy calls into buffers, and views of them, made once per
count of unconverged matrices.  At odd n the pair with the zero padding
holds c = 1 and s = 0 in fixed slots and computes no tangent, and one guard
in ``_tangents`` (every |tau| <= 1e35) sends a step down the rare branch
only for a first-order tangent or a zero pivot.  ``_solve_many``
picks the kernel by size and, below 12, by the number of distinct
same-size matrices.  Every eigenvalues-only solve goes through
it (``_eigenvalues_many``): each Loewner comparison, alone or judged
together with others (a campaign chunk's, say).  ``_decompose_many`` fills
the decomposition caches of many matrices through it (each of a campaign
chunk's two waves: the drawn inputs with their map images, then the
sandwiched matrices built from their roots), and ``eigendecompose`` fills
one matrix's cache through it on a cache miss.  So ``_solve_many`` is the
kernels' only caller.

The two cyclic kernels write each new row into the matching column, so
they rely on their input being bitwise symmetric: entry (i, j) and entry
(j, i) are the same float.  ``SymmetricMatrix.__init__`` guarantees this: it keeps
bitwise-symmetric input as it is and averages any other input with its
transpose.  Every public way in (arrays, files, fixtures, reproducer
records) goes through it, and so do the results of matrix products
(``squared``, ``recombine``, congruences, map images), whose rounding can
leave an asymmetry of any size relative to the result, so the 1e-8 check
can fire there.  The elementwise operators ``+``, ``-``, unary ``-`` and
scalar ``*`` skip that check through ``SymmetricMatrix._elementwise``: on
bitwise-symmetric operands entries (i, j) and (j, i) are computed from the
same bits, so the result is bitwise symmetric too, and only an overflow to
inf is left to reject.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    BadParameter,
    ConvergenceError,
    DomainViolation,
    InvalidMatrix,
    NotPositiveDefinite,
    ShapeError,
)

__all__ = [
    "SymmetricMatrix",
    "SpectralDecomposition",
    "LoewnerRelation",
    "LoewnerVerdict",
    "eigendecompose",
    "apply_scalar_function",
    "loewner_compare",
    "natural_power",
    "matrix_sqrt_inv_sqrt",
    "strict_positivity_tolerance",
]

_ASYMMETRY_REL = 1e-8
_SWEEP_CAP = 100
_OFFDIAG_REL = 1e-14
_INTEGER_TOL = 1e-12
_CLAMP_REL = 1e-10


class SymmetricMatrix:
    """Immutable dense real symmetric matrix.

    Entries are symmetrized on construction; inputs whose asymmetry exceeds
    ``1e-8 * max|entry|`` are rejected instead of silently averaged.
    Bitwise-symmetric input is kept bit for bit, up to the largest finite
    float.  The eigendecomposition and the (A^{1/2}, A^{-1/2}) pair are
    cached lazily, which is what makes repeated bound evaluations on the
    same operator cheap.
    """

    def __init__(self, entries, *, clamp_warning: bool = False):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {arr.shape}")
        _check_finite(arr)
        bits = arr.view(np.uint64)
        # below overflow (x + x) / 2 == x, so bitwise-symmetric input is kept as it is
        if not (bits == bits.T).all():
            # x - y and x + y may overflow near the largest float: an infinite
            # asymmetry is rejected, and an infinite sum becomes x/2 + y/2
            with np.errstate(over="ignore"):
                scale = float(np.abs(arr).max())
                asymmetry = float(np.abs(arr - arr.T).max())
                if asymmetry > _ASYMMETRY_REL * scale:
                    raise InvalidMatrix(
                        f"asymmetry {asymmetry:.3e} exceeds {_ASYMMETRY_REL:.0e} * scale {scale:.3e}"
                    )
                mean = (arr + arr.T) / 2.0
            overflow = ~np.isfinite(mean)
            if overflow.any():
                mean[overflow] = (arr / 2.0 + arr.T / 2.0)[overflow]
            arr = mean
        arr.setflags(write=False)
        self._entries = arr
        self.clamp_warning = clamp_warning

    # eigendecompose, matrix_sqrt_inv_sqrt and norm_max fill the caches on
    # first use; an _elementwise result keeps clamp_warning False
    _decomposition = None
    _roots = None
    _norm_max = None
    clamp_warning = False

    @classmethod
    def _elementwise(cls, arr: np.ndarray) -> "SymmetricMatrix":
        """Wrap ``arr``, a fresh elementwise result of bitwise-symmetric entries.

        Such a result is bitwise symmetric already, so only its finiteness is
        checked (a sum or a scaling can overflow); ``arr`` is kept, not copied.
        """
        _check_finite(arr)
        arr.setflags(write=False)
        matrix = object.__new__(cls)
        matrix._entries = arr
        return matrix

    @classmethod
    def identity(cls, dim: int) -> "SymmetricMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def norm_max(self) -> float:
        """max |entry|, computed on first use (a plain attribute: ``cached_property`` takes a lock)."""
        if self._norm_max is None:
            self._norm_max = float(np.abs(self._entries).max())
        return self._norm_max

    @property
    def trace(self) -> float:
        return float(np.trace(self._entries))

    def squared(self) -> "SymmetricMatrix":
        return SymmetricMatrix(self._entries @ self._entries)

    def as_scalar(self) -> float:
        if self.dim != 1:
            raise ShapeError(f"matrix of dimension {self.dim} is not a scalar")
        return float(self._entries[0, 0])

    def min_eigenvalue(self) -> float:
        return float(eigendecompose(self).eigenvalues[0])

    def max_eigenvalue(self) -> float:
        return float(eigendecompose(self).eigenvalues[-1])

    def __add__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        self._check_dim(other)
        return SymmetricMatrix._elementwise(self._entries + other._entries)

    def __sub__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        self._check_dim(other)
        return SymmetricMatrix._elementwise(self._entries - other._entries)

    def __neg__(self):
        return SymmetricMatrix._elementwise(-self._entries)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return SymmetricMatrix._elementwise(self._entries * float(scalar))

    __rmul__ = __mul__

    def _check_dim(self, other: "SymmetricMatrix") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self):
        return f"SymmetricMatrix(dim={self.dim})"


def _check_finite(arr: np.ndarray) -> None:
    """Raise ``InvalidMatrix`` unless every entry of ``arr`` is finite.

    One ufunc reduction, without the ``ndarray.all`` wrapper; a sum of the
    entries would do in one call too, but it warns when it overflows.
    """
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise InvalidMatrix("matrix entries must be finite")


class _Stack:
    """k bitwise-symmetric n x n matrices in one ``(k, n, n)`` array, under the elementwise operators.

    ``+`` and ``-`` of two stacks and ``*`` by a float or by one factor per
    matrix (a ``(k, 1, 1)`` array) act on every matrix at once with one
    rounding per entry, as ``SymmetricMatrix``'s operators do, so each
    matrix of the result has the bits its ``SymmetricMatrix`` would have
    alone.  Each result is checked for overflow once for the whole stack,
    with ``SymmetricMatrix``'s error.
    """

    __slots__ = ("entries",)
    __array_ufunc__ = None  # so that ndarray * _Stack reaches __rmul__

    def __init__(self, entries: np.ndarray):
        self.entries = entries

    @classmethod
    def of(cls, matrices) -> "_Stack":
        """The stack of ``matrices`` (``SymmetricMatrix`` of one size), in order."""
        if len(matrices) == 1:
            return cls(matrices[0].entries[None])
        return cls(np.stack([matrix.entries for matrix in matrices]))

    @classmethod
    def _checked(cls, arr: np.ndarray) -> "_Stack":
        _check_finite(arr)
        return cls(arr)

    def __add__(self, other: "_Stack") -> "_Stack":
        return _Stack._checked(self.entries + other.entries)

    def __sub__(self, other: "_Stack") -> "_Stack":
        return _Stack._checked(self.entries - other.entries)

    def __mul__(self, factor) -> "_Stack":
        return _Stack._checked(self.entries * factor)

    __rmul__ = __mul__

    def norm_max(self) -> np.ndarray:
        """max |entry| of each matrix."""
        return np.abs(self.entries).max(axis=(1, 2))

    def matrix(self, position: int) -> SymmetricMatrix:
        """The matrix at ``position``, as a ``SymmetricMatrix`` that shares the stack's entries."""
        return SymmetricMatrix._elementwise(self.entries[position])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def recombine(self, values) -> np.ndarray:
        """Q diag(values) Q^T as a plain array."""
        vals = np.asarray(values, dtype=float)
        q = self.eigenvectors
        return (q * vals) @ q.T

    def reconstruct(self) -> np.ndarray:
        return self.recombine(self.eigenvalues)


def _array_from_payload(payload: dict, source: str, axes: int) -> np.ndarray:
    """Array with ``axes`` axes of length n from ``{"dim": n, "data": [n**axes row-major reals]}``.

    Matrix files, vector files, fixtures and reproducer records all go
    through here; ``source`` names the payload in errors.  A payload that is
    not an object with both keys, a ``dim`` that is not a positive integer,
    ``data`` that is not a flat list of reals and non-finite entries raise
    ``InvalidMatrix``.
    """
    if not (isinstance(payload, dict) and "dim" in payload and "data" in payload):
        raise InvalidMatrix(f"{source}: must be an object with 'dim' and 'data'")
    dim = payload["dim"]
    data = payload["data"]
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidMatrix(f"{source}: dim must be a positive integer, got {dim!r}")
    if not isinstance(data, (list, tuple)) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in data
    ):
        raise InvalidMatrix(f"{source}: data must be a flat list of reals")
    if len(data) != dim**axes:
        raise InvalidMatrix(f"{source}: expected {dim**axes} entries, got {len(data)}")
    try:
        arr = np.array(data, dtype=float)
    except OverflowError:  # an integer beyond the largest float
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise InvalidMatrix(f"{source}: entries must be finite")
    return arr.reshape((dim,) * axes)


def _field(record, key: str, kind, what: str, convert=None):
    """``record[key]``, a ``kind`` and not a bool, passed through ``convert`` if one is given.

    Reproducer records and map descriptions are read through here.  A
    ``record`` that is not a dict, a missing key, a value of another type and
    a value that ``convert`` rejects with ``TypeError`` or ``ValueError`` all
    raise ``BadParameter`` naming ``key`` and ``what`` holds it.  Errors that
    ``convert`` raises as an ``OpineqError`` pass through unchanged.
    """
    if not isinstance(record, dict):
        raise BadParameter(f"{what} must be a JSON object, got {record!r}")
    if key not in record:
        raise BadParameter(f"{what} has no {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise BadParameter(f"{what}: {key!r} has the wrong type: {value!r}")
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"{what}: bad {key!r}: {exc}") from exc


def _interval_or_hull(lo: float, hi: float, m, M) -> tuple[float, float]:
    """(m, M) as floats; either one left as ``None`` defaults to its end of the hull [lo, hi]."""
    return float(lo if m is None else m), float(hi if M is None else M)


def _check_hull(lo: float, hi: float, m: float, M: float, tol: float, error, what: str) -> None:
    """Raise ``error`` unless the spectral hull [lo, hi] of ``what`` lies in [m - tol, M + tol].

    Written so that every comparison with a NaN end fails: a NaN m or M is rejected here.
    """
    if not (m - tol <= lo and hi <= M + tol):
        raise error(f"{what} [{lo:.6g}, {hi:.6g}] is not inside [{m:.6g}, {M:.6g}]")


def strict_positivity_tolerance(matrix: SymmetricMatrix) -> float:
    """Eigenvalue floor below which a matrix does not count as strictly positive."""
    return 1e-12 * (1.0 + matrix.norm_max)


def _cyclic_jacobi(a: np.ndarray, vectors: bool = True):
    """Eigenvalues (ascending) and, if ``vectors``, eigenvector columns of ``a``.

    ``a`` must be bitwise symmetric, as the entries of every
    ``SymmetricMatrix`` are, validated or elementwise (see the module
    docstring).  Each rotation computes the two new rows once and writes
    them into the matching columns; that equals a row update followed by a column update only when
    ``a[i, j]`` and ``a[j, i]`` are the same float.  The rotations run on
    Python float lists and numpy computes only the per-sweep stopping test.
    With ``vectors``, row k carries row k of Q^T after its n matrix entries,
    so one list comprehension of length 2n rotates both with the same
    formulas; the column write-back and the stopping test read only the
    first n entries.
    The input is prescaled by an exact power of two, so the sums of squares
    in that test neither overflow nor underflow; scaling by a power of two is
    exact, so away from subnormal numbers every bit matches an unscaled run.
    ``a`` is not modified.  With ``vectors=False`` the
    eigenvectors are not accumulated and ``None`` stands in their place; the
    eigenvalues are the same bits either way.
    """
    n = a.shape[0]
    if n == 1:
        return np.diag(a).copy(), (np.eye(1) if vectors else None)
    # max|a| * scale lies in [1/2, 1); a subnormal max|a| stops at the largest
    # finite scale, 2**1023, which still lifts it to 2**-51 or more.  frexp(0.0)
    # gives exponent 0, so the zero matrix keeps scale 1.
    scale = math.ldexp(1.0, min(-math.frexp(float(np.abs(a).max()))[1], 1023))
    scaled = a * scale
    threshold = _OFFDIAG_REL * float(np.linalg.norm(scaled))
    rows = scaled.tolist()
    if vectors:  # row k goes on with row k of Q^T, the identity to start with
        for k, row in enumerate(rows):
            row.extend([0.0] * n)
            row[n + k] = 1.0
    strictly_upper = np.triu(np.ones((n, n)), 1)
    for _ in range(_SWEEP_CAP):
        # np.sum(np.triu(a, 1) ** 2): the same n * n values, summed in the same order
        squares = np.array([row[:n] for row in rows] if vectors else rows)
        squares *= squares
        squares *= strictly_upper
        off = math.sqrt(2.0 * float(squares.sum()))
        if off <= threshold:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                row_p = rows[p]
                apr = row_p[r]
                if apr == 0.0:
                    continue
                row_r = rows[r]
                diff = row_r[r] - row_p[p]
                if abs(apr) < 1e-36 * abs(diff):
                    t = apr / diff  # angle underflows; first-order tangent
                else:
                    tau = diff / (2.0 * apr)
                    t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                    if tau < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                new_p = [c * u - s * v for u, v in zip(row_p, row_r)]
                new_r = [s * u + c * v for u, v in zip(row_p, row_r)]
                # the 2x2 block gets the column update on top of the row update
                new_p[p] = c * new_p[p] - s * new_p[r]
                new_r[r] = s * new_r[p] + c * new_r[r]
                new_p[r] = 0.0
                new_r[p] = 0.0
                rows[p] = new_p
                rows[r] = new_r
                for row_k, u, v in zip(rows, new_p, new_r):  # the n matrix rows only
                    row_k[p] = u
                    row_k[r] = v
    else:
        raise ConvergenceError("Jacobi sweep cap reached without convergence")
    lam = np.array([rows[k][k] for k in range(n)])
    order = np.argsort(lam, kind="stable")
    lam = lam[order] / scale
    if not vectors:
        return lam, None
    return lam, np.array([row[n:] for row in rows])[order].T


def _prescale(stack: np.ndarray):
    """The power-of-two prescale and stopping threshold of each matrix of a stack.

    These are ``_cyclic_jacobi``'s bits: np.frexp and np.ldexp give
    math.frexp's and math.ldexp's, and np.linalg.norm, which sums in its own
    order, runs on each scaled matrix alone.
    """
    scale = np.ldexp(1.0, np.minimum(-np.frexp(np.abs(stack).max(axis=(1, 2)))[1], 1023))
    threshold = np.array([_OFFDIAG_REL * float(np.linalg.norm(a * s)) for a, s in zip(stack, scale)])
    return scale, threshold


def _off_norms(block: np.ndarray, strictly_upper: np.ndarray) -> np.ndarray:
    """sqrt(2 * np.sum(np.triu(a, 1) ** 2)) of each matrix a of an ``(n, n, live)`` block.

    Each matrix sums the same n * n values (a square times 1.0 or 0.0) in the
    same order, alone or among others.
    """
    squares = block.transpose(2, 0, 1).copy()
    np.multiply(squares, squares, out=squares)
    squares *= strictly_upper
    return np.sqrt(2.0 * squares.reshape(len(squares), -1).sum(axis=1))


def _tangents(apr: np.ndarray, diff: np.ndarray, out):
    """The tangent of each rotation angle, by ``_cyclic_jacobi``'s formulas.

    ``out`` is three arrays shaped like ``apr``, which are written in place,
    the tangents into the last.  Each operation is the cyclic kernel's, on
    the same operands in the same order, so the bits match: 2 * apr is
    computed as apr + apr, which is exact.  One guard, every |tau| <= 1e35,
    passes on the common path.  It fails for both rare cases: |apr| < 1e-36
    * |diff| implies |tau| > 3.7e35 (4.9e35 unless 1e-36 * |diff| is
    subnormal), and a zero pivot gives an infinite tau, or a NaN one when
    diff is zero too, which fails every comparison.  Only then are the
    first-order tangents computed and each zero pivot's tangent set to 0.
    Returns the mask of zero pivots, 0.0 or -0.0, or ``None`` when there are
    none.  A zero pivot divides by zero, so the callers ignore numpy's
    warnings.
    """
    tau, magnitude, t = out
    np.divide(diff, np.add(apr, apr, out=tau), out=tau)
    np.multiply(tau, tau, out=t)
    t += 1.0
    np.sqrt(t, out=t)
    t += np.abs(tau, out=magnitude)
    np.divide(1.0, t, out=t)
    # -t where tau < 0; adding 0.0 turns tau = -0.0 into +0.0, which keeps t
    np.copysign(t, np.add(tau, 0.0, out=tau), out=t)
    # counted elementwise, for max would miss a large |tau| beside a NaN
    if np.count_nonzero(magnitude <= 1e35) == magnitude.size:
        return None
    first_order = np.abs(apr) < 1e-36 * np.abs(diff)
    np.copyto(t, apr / diff, where=first_order)  # angle underflows; first-order tangent
    zero = apr == 0.0
    if not zero.any():
        return None
    t[zero] = 0.0
    return zero


def _jacobi_batch(stack: np.ndarray, vectors: bool = False):
    """Eigenvalues (ascending, ``(k, n)``) and, if ``vectors``, eigenvector
    columns (``(k, n, n)``, else ``None``) of each matrix of a ``(k, n, n)`` stack.

    Entry i holds the bits of ``_cyclic_jacobi(stack[i], vectors)``: the
    same power-of-two prescale and threshold, the same row-major pair order
    and rotation formulas (the first-order tangent included), the same
    per-sweep stopping test and the same stable ordering, with numpy running
    each step on every matrix at once.  Each matrix has its own rotation
    (c, s), skips its own zero pivots and leaves the batch when its own
    stopping test passes, so its bits never depend on the other matrices.
    With ``vectors``, each row of the work stack carries the matching row of
    Q^T, rotated by the same (c, s), as in ``_cyclic_jacobi``.  Every matrix
    must be bitwise symmetric, as for ``_cyclic_jacobi``.  ``stack`` is not
    modified.
    """
    k, n, _ = stack.shape
    if n == 1:
        return stack[:, 0, :].copy(), (np.ones((k, 1, 1)) if vectors else None)
    scale, threshold = _prescale(stack)
    # work[i, j] holds entry (i, j) of every live matrix, so a row is an (n, live)
    # block; with vectors, row i continues with row i of each matrix's Q^T
    work = np.empty((n, 2 * n if vectors else n, k))
    work[:, :n] = stack.transpose(1, 2, 0)
    work[:, :n] *= scale
    if vectors:
        work[:, n:] = np.eye(n)[:, :, None]
    live = np.arange(k)  # the input index of each live matrix
    diagonal = np.arange(n)
    strictly_upper = np.triu(np.ones((n, n)), 1)
    values = np.empty((k, n))
    qt = np.empty((k, n, n)) if vectors else None  # Q^T of each matrix, rows in eigenvalue order
    pairs = [(p, r) for p in range(n - 1) for r in range(p + 1, n)]
    with np.errstate(all="ignore"):  # see _tangents
        for _ in range(_SWEEP_CAP):
            done = _off_norms(work[:, :n], strictly_upper) <= threshold
            if done.any():
                finished = live[done]
                diag = work[diagonal, diagonal][:, done].T
                if vectors:
                    order = np.argsort(diag, axis=1, kind="stable")
                    each = np.arange(finished.size)[:, None]
                    diag = diag[each, order]
                    qt[finished] = work[:, n:][:, :, done].transpose(2, 0, 1)[each, order]
                else:
                    diag = np.sort(diag, axis=1, kind="stable")  # the values a stable argsort orders
                values[finished] = diag / scale[finished][:, None]
                keep = ~done
                if not keep.any():
                    return values, (qt.transpose(0, 2, 1) if vectors else None)
                live = live[keep]
                threshold = threshold[keep]
                work = np.ascontiguousarray(work[:, :, keep])
            tangent = np.empty((3, live.size))  # _tangents' buffers
            t = tangent[2]
            for p, r in pairs:
                row_p = work[p]
                row_r = work[r]
                zero = _tangents(row_p[r], row_r[r] - row_p[p], tangent)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                new_p = c * row_p - s * row_r
                new_r = s * row_p + c * row_r
                # the 2x2 block gets the column update on top of the row update
                new_p[p] = c * new_p[p] - s * new_p[r]
                new_r[r] = s * new_r[p] + c * new_r[r]
                new_p[r] = 0.0
                new_r[p] = 0.0
                if zero is not None:  # a zero pivot leaves its matrix untouched
                    new_p = np.where(zero, row_p, new_p)
                    new_r = np.where(zero, row_r, new_r)
                work[p] = new_p
                work[r] = new_r
                work[:, p] = new_p[:n]
                work[:, r] = new_r[:n]
    raise ConvergenceError("Jacobi sweep cap reached without convergence")


@cache
def _round_robin_steps(n: int) -> tuple:
    """The m - 1 steps of a round-robin sweep over the m = n + n % 2 indices of an n x n matrix.

    Step j pairs every index with another (the circle method: m - 1 stays, the
    rest turn), so each pair meets once per sweep.  Its first pair is
    (j, m - 1), the pad pair when n is odd.  Step j is four index arrays: the
    flat indices, in an m x m matrix, of the entries (p, r), then (r, r) and
    (p, p) of its pairs p < r but the pad pair; those of (p, r) and (r, p) of
    all its m / 2 pairs; for each index, its partner; and, for each index,
    where its c and then its sign * s sit in the step's [c; s; -s] array of
    its pairs (sign is -1 for the p of a pair, 1 for the r), about 10 KB in
    all at n = 16.
    """
    m = n + n % 2
    h = m // 2
    steps = []
    for j in range(m - 1):
        pairs = [(j, m - 1)] + [((j + i) % (m - 1), (j - i) % (m - 1)) for i in range(1, h)]
        p, r = np.sort(np.array(pairs), axis=1).T
        pr, rp, rr, pp = p * m + r, r * m + p, r * m + r, p * m + p
        partner = np.empty(m, dtype=np.intp)
        partner[p], partner[r] = r, p
        gather = np.empty(2 * m, dtype=np.intp)
        gather[p] = gather[r] = np.arange(h)
        gather[m + p] = 2 * h + np.arange(h)
        gather[m + r] = h + np.arange(h)
        rotated = slice(n % 2, h)  # every pair but the pad pair
        pivots = np.concatenate([pr[rotated], rr[rotated], pp[rotated]])
        steps.append((pivots, np.concatenate([pr, rp]), partner, gather))
    return tuple(steps)


def _jacobi_round_robin(stack: np.ndarray, vectors: bool = False):
    """Eigenvalues (ascending, ``(k, n)``) and, if ``vectors``, eigenvector
    columns (``(k, n, n)``, else ``None``) of each matrix of a ``(k, n, n)`` stack,
    by Jacobi in round-robin order (A. H. Sameh, Math. Comp. 25, 1971;
    R. P. Brent and F. T. Luk, SIAM J. Sci. Stat. Comput. 6, 1985).

    Odd n gets a zero last row and column, so the size m is even; its pivots
    are zero, so no rotation touches it.  A sweep is m - 1 steps, and one step
    rotates m / 2 disjoint pairs of every matrix at once: it computes each
    pair's (c, s), then rotates the rows, then the columns, and sets the two
    pivots to zero.  Each matrix keeps the cyclic kernels' power-of-two
    prescale and threshold, rotation formulas (the first-order tangent
    included), zero-pivot skips (t = 0), stopping test and stable ordering,
    and leaves the stack when its own stopping test passes.  Every step is
    elementwise numpy, with no matrix product whose rounding could differ
    between platforms, and the stopping test sums each matrix's squares in
    one fixed layout, so a matrix's bits never depend on the other matrices.
    With ``vectors``, rows m.. of the work stack hold Q, whose columns the
    column update rotates with the matrix's, so the eigenvalues are the same
    bits either way.  The bits differ from the cyclic kernels'.  ``stack`` is
    not modified.

    A step rotates the work stack in place.  Its buffers (pivots, tangents,
    each index's c and sign * s, the partner rows or columns) and their views
    are made when the solve starts and again only when matrices leave, and
    every ufunc writes into them.  The pad pair of odd n always has a zero
    pivot, so it is left out of the pivots and the tangents: its slots in
    the [c; s; -s] buffer hold 1, +0.0 and -0.0 from the start, the values a
    zero pivot gives.  ``_tangents``' one guard sends a step down the rare
    branch only for a first-order tangent or a zero pivot.  Each entry still
    becomes c * x + sign * s * y with one rounding per operation: the
    partners are gathered before anything is scaled, sign * s is -s or s,
    both exact, and ``_tangents`` keeps the cyclic formulas, so the bits are
    those of a step that allocates its results.
    """
    k, n, _ = stack.shape
    m = n + n % 2
    h = m // 2
    rotated = h - n % 2  # the pairs whose tangents a step computes
    scale, threshold = _prescale(stack)
    # work[i, j] holds entry (i, j) of every live matrix; with vectors, work[m + i, j]
    # holds entry (i, j) of its Q
    work = np.zeros((2 * m if vectors else m, m, k))
    work[:n, :n] = stack.transpose(1, 2, 0)
    work[:n, :n] *= scale
    if vectors:
        work[m:] = np.eye(m)[:, :, None]
    live = np.arange(k)  # the input index of each live matrix
    diagonal = np.arange(n)
    strictly_upper = np.triu(np.ones((m, m)), 1)
    values = np.empty((k, n))
    q = np.empty((k, n, n)) if vectors else None
    steps = _round_robin_steps(n)
    with np.errstate(all="ignore"):  # see _tangents
        for sweep in range(_SWEEP_CAP):
            done = _off_norms(work[:m], strictly_upper) <= threshold
            if done.any():
                finished = live[done]
                diag = work[diagonal, diagonal][:, done].T
                order = np.argsort(diag, axis=1, kind="stable")
                each = np.arange(finished.size)[:, None]
                values[finished] = diag[each, order] / scale[finished][:, None]
                if vectors:  # the rows of Q^T, that is the columns of Q, in eigenvalue order
                    qt = work[m:m + n, :n][:, :, done].transpose(2, 1, 0)
                    q[finished] = qt[each, order].transpose(0, 2, 1)
                keep = ~done
                if not keep.any():
                    return values, q
                live = live[keep]
                threshold = threshold[keep]
                work = np.ascontiguousarray(work[:, :, keep])
            if sweep == 0 or done.any():  # the step's buffers and views, once per live count
                size = live.size
                flat = work.reshape(-1, size)  # a view, for work is contiguous
                pivot = np.empty((3 * rotated, size))
                apr, r_r, p_p = pivot.reshape(3, rotated, size)  # (p, r), (r, r), (p, p)
                diff, *tangent = np.empty((4, rotated, size))  # the diagonal gaps, then _tangents' three
                t = tangent[2]
                rotation = np.empty((3 * h, size))
                cos, sin, minus_sin = rotation.reshape(3, h, size)  # of each pair, the pad pair first
                cos[:n % 2], sin[:n % 2], minus_sin[:n % 2] = 1.0, 0.0, -0.0
                cos, sin, minus_sin = cos[n % 2:], sin[n % 2:], minus_sin[n % 2:]
                cs = np.empty((2 * m, size))
                c, s = cs[:m], cs[m:]  # of each index: c and sign * s
                c_row, s_row = c[:, None], s[:, None]
                gathered = np.empty(work.shape)  # the partner rows, then the partner columns
                rows, matrix = gathered[:m], work[:m]
            # every index is in range, and mode="clip" spares take the copy of
            # out that the default mode makes
            for pivots, zeroed, partner, gather in steps:
                flat.take(pivots, axis=0, out=pivot, mode="clip")
                _tangents(apr, np.subtract(r_r, p_p, out=diff), tangent)  # a zero pivot gets t = 0
                np.multiply(t, t, out=cos)
                cos += 1.0
                np.sqrt(cos, out=cos)
                np.divide(1.0, cos, out=cos)
                np.multiply(t, cos, out=sin)
                np.negative(sin, out=minus_sin)
                rotation.take(gather, axis=0, out=cs, mode="clip")
                # index i of a pair (p, r) becomes c * i + sign * s * partner,
                # row i for the rows, column i for the columns; the partners
                # are gathered before anything is scaled
                matrix.take(partner, axis=0, out=rows, mode="clip")
                rows *= s_row
                matrix *= c_row
                matrix += rows
                work.take(partner, axis=1, out=gathered, mode="clip")
                gathered *= s
                work *= c
                work += gathered
                flat[zeroed] = 0.0  # (p, r) and (r, p)
    raise ConvergenceError("Jacobi sweep cap reached without convergence")


# Groups of at least this many distinct same-size solves go to the batched
# kernel, smaller ones one at a time to the list kernel: _BATCH_MIN for
# eigenvalues only, _BATCH_MIN_VECTORS with eigenvectors.  Both kernels give
# the same bits; these are where the batch starts to pay off (measured on
# stacks of campaign matrices, see CHANGES.md).
_BATCH_MIN = 12
_BATCH_MIN_VECTORS = 8
# Matrices of at least this size go to the round-robin kernel, alone or
# stacked.  On one matrix it takes 0.85 to 0.9 times the list kernel's time
# at sizes 12 and 13 without eigenvectors and less with them or from 14 on,
# on a stack of 4 to 12 far less than either cyclic kernel, and campaigns at
# sizes 12..16 run faster with it; at 9..11 they do not (measured per size,
# see CHANGES.md).
_ROUND_ROBIN_MIN = 12


def _distinct(arrays):
    """(the arrays with distinct bytes, the index into them of each array)."""
    index_of: dict = {}  # bytes -> index into distinct
    distinct = []
    slots = []
    for a in arrays:
        key = a.tobytes()
        if key not in index_of:
            index_of[key] = len(distinct)
            distinct.append(a)
        slots.append(index_of[key])
    return distinct, slots


def _solve_many(arrays, vectors: bool) -> list:
    """(eigenvalues, eigenvectors or ``None``) of each bitwise-symmetric array.

    Arrays with the same bytes are solved once.  Each size has one Jacobi
    ordering, so an array's bits depend only on its bytes.  The distinct
    arrays of a size n >= ``_ROUND_ROBIN_MIN`` are solved together by
    ``_jacobi_round_robin``.  Below that, those of one size are solved
    together by ``_jacobi_batch`` when there are at least ``_BATCH_MIN`` of
    them (``_BATCH_MIN_VECTORS`` with eigenvectors) and by ``_cyclic_jacobi``
    one at a time otherwise; both give ``_cyclic_jacobi``'s bits.
    """
    distinct, slots = _distinct(arrays)
    by_size: dict = {}
    for i, a in enumerate(distinct):
        by_size.setdefault(a.shape[0], []).append(i)
    least = _BATCH_MIN_VECTORS if vectors else _BATCH_MIN
    solved = [None] * len(distinct)
    for n, members in by_size.items():
        if n >= _ROUND_ROBIN_MIN:
            kernel = _jacobi_round_robin
        elif len(members) >= least:
            kernel = _jacobi_batch
        else:
            for i in members:
                solved[i] = _cyclic_jacobi(distinct[i], vectors)
            continue
        values, q = kernel(np.stack([distinct[i] for i in members]), vectors)
        for j, i in enumerate(members):
            # arrays of its own for each matrix, Q laid out as _cyclic_jacobi lays it out
            solved[i] = (values[j].copy(), q[j].T.copy().T if vectors else None)
    return [solved[i] for i in slots]


def _eigenvalues_many(arrays) -> list:
    """Ascending eigenvalues of each bitwise-symmetric array, without eigenvectors."""
    return [lam for lam, _ in _solve_many(arrays, vectors=False)]


def _decompose_many(matrices) -> None:
    """Fill the decomposition cache of each matrix in one ``_solve_many`` call.

    Each cache gets the bits ``eigendecompose`` gives its matrix alone.
    """
    todo = [matrix for matrix in matrices if matrix._decomposition is None]
    for matrix, (lam, q) in zip(todo, _solve_many([m.entries for m in todo], vectors=True)):
        lam.setflags(write=False)
        q.setflags(write=False)
        matrix._decomposition = SpectralDecomposition(lam, q)


def eigendecompose(matrix: SymmetricMatrix) -> SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors by Jacobi.

    Sweeps run in row-major pair order (round-robin order from size 12, see
    ``_solve_many``) until the off-diagonal Frobenius mass drops below 1e-14
    times the Frobenius norm of the input, capped at 100 sweeps.  The input
    is first scaled by an exact power of two, so entries from subnormal up
    to 1e308 are handled.  Deterministic for a fixed input.
    """
    if matrix._decomposition is None:
        _decompose_many((matrix,))
    return matrix._decomposition


def apply_scalar_function(matrix: SymmetricMatrix, fn) -> SymmetricMatrix:
    """Evaluate a scalar function on the spectrum: Q diag(fn(lambda)) Q^T."""
    dec = eigendecompose(matrix)
    lam = dec.eigenvalues
    lo, hi = fn.domain
    inside = (lam > lo) & (lam < hi)
    if not bool(inside.all()):
        offending = float(lam[~inside][0])
        raise DomainViolation(
            f"eigenvalue {offending!r} outside the domain {fn.domain} of {fn.name}"
        )
    values = np.asarray(fn.eval(lam), dtype=float)
    if not np.isfinite(values).all():
        raise DomainViolation(f"{fn.name} is not finite on the spectrum")
    return SymmetricMatrix(dec.recombine(values))


class LoewnerRelation(str, enum.Enum):
    LESS_OR_EQUAL = "<="
    GREATER_OR_EQUAL = ">="
    EQUAL = "=="
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of one positive-semidefinite order comparison.

    ``gap_min_eig``/``gap_max_eig`` are the extreme eigenvalues of rhs - lhs.
    """

    relation: LoewnerRelation
    gap_min_eig: float
    gap_max_eig: float
    tolerance_used: float

    @property
    def holds_le(self) -> bool:
        return self.relation in (LoewnerRelation.LESS_OR_EQUAL, LoewnerRelation.EQUAL)

    @property
    def holds_ge(self) -> bool:
        return self.relation in (LoewnerRelation.GREATER_OR_EQUAL, LoewnerRelation.EQUAL)


def loewner_compare(lhs: SymmetricMatrix, rhs: SymmetricMatrix, tol: float | None = None) -> LoewnerVerdict:
    """Compare lhs and rhs in the positive-semidefinite order.

    lhs <= rhs holds when the minimum eigenvalue of rhs - lhs is >= -tol; the
    default tolerance scales with the operands, 1e-8 * (1 + max norm).  Below
    scale 1 that default is absolute, about 1e-8: zeros against
    [[1, 2], [2, 1]] * 1e-150 compare EQUAL although the gaps are -1e-150 and
    3e-150.  Pass ``tol`` (0.0, say) to compare operands that small.  A
    ``tol`` that is negative, infinite or NaN raises ``BadParameter``.
    """
    tol = _loewner_tolerance(lhs, rhs, tol)
    return _loewner_verdict(_eigenvalues_many([(rhs - lhs).entries])[0], tol)


def _checked_tolerance(tol: float) -> float:
    """``tol`` as a float; every tolerance a caller passes in is checked here.

    Python and numpy ints and floats pass; any other value, bools included, raises ``BadParameter``.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
        raise BadParameter(f"tolerance must be a real number, got {tol!r}")
    tol = float(tol)
    if not 0.0 <= tol < math.inf:  # NaN fails this too
        raise BadParameter(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def _loewner_tolerance(lhs: SymmetricMatrix, rhs: SymmetricMatrix, tol: float | None = None) -> float:
    """The tolerance ``loewner_compare`` judges rhs - lhs at, once the operands are checked."""
    if lhs.dim != rhs.dim:
        raise ShapeError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    if tol is None:
        tol = 1e-8 * (1.0 + max(lhs.norm_max, rhs.norm_max))
    return _checked_tolerance(tol)


def _loewner_verdict(gaps: np.ndarray, tol: float) -> LoewnerVerdict:
    """The verdict on rhs - lhs from its ascending eigenvalues ``gaps``."""
    gap_min = float(gaps[0])
    gap_max = float(gaps[-1])
    le = gap_min >= -tol
    ge = gap_max <= tol
    if le and ge:
        relation = LoewnerRelation.EQUAL
    elif le:
        relation = LoewnerRelation.LESS_OR_EQUAL
    elif ge:
        relation = LoewnerRelation.GREATER_OR_EQUAL
    else:
        relation = LoewnerRelation.INCOMPARABLE
    return LoewnerVerdict(relation, gap_min, gap_max, float(tol))


def matrix_sqrt_inv_sqrt(matrix: SymmetricMatrix):
    """(A^{1/2}, A^{-1/2}) for strictly positive A."""
    if matrix._roots is None:
        dec = eigendecompose(matrix)
        floor = strict_positivity_tolerance(matrix)
        smallest = float(dec.eigenvalues[0])
        if smallest <= floor:
            raise NotPositiveDefinite(
                f"minimum eigenvalue {smallest:.6e} is not above {floor:.3e}"
            )
        roots = np.sqrt(dec.eigenvalues)
        matrix._roots = (
            SymmetricMatrix(dec.recombine(roots)),
            SymmetricMatrix(dec.recombine(1.0 / roots)),
        )
    return matrix._roots


def _power_values(eigenvalues: np.ndarray, exponent: float):
    """Eigenvalues raised to ``exponent`` with PSD clamping for fractional powers.

    Returns (values, clamped).  Integer exponents go through signed powers;
    fractional exponents require the spectrum to be >= -clamp where clamp is
    1e-10 relative, and anything in [-clamp, 0) is clamped to zero.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    nearest = round(exponent)
    if abs(exponent - nearest) < _INTEGER_TOL:
        k = int(nearest)
        if k < 0:
            floor = 1e-12 * (1.0 + float(np.abs(lam).max()))
            if bool(np.any(np.abs(lam) <= floor)):
                raise DomainViolation("negative power of a singular matrix")
        return lam ** float(k), False
    clamp = _CLAMP_REL * (1.0 + float(np.abs(lam).max()))
    if float(lam[0]) < -clamp:
        raise DomainViolation(
            f"eigenvalue {float(lam[0]):.6e} is negative; fractional power undefined"
        )
    clamped = bool(float(lam.min()) < 0.0)
    values = np.clip(lam, 0.0, None)
    if exponent < 0.0 and bool(np.any(values == 0.0)):
        raise DomainViolation("negative fractional power of a singular matrix")
    return values**exponent, clamped


def natural_power(base: SymmetricMatrix, other: SymmetricMatrix, exponent: float) -> SymmetricMatrix:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^p A^{1/2} for strictly positive A.

    Interpolates from A at p=0 to B at p=1; the weighted geometric mean for
    p in [0, 1].  Fractional p needs the sandwiched middle factor to be
    positive semidefinite; eigenvalues within -1e-10 relative of zero are
    clamped to zero and flagged through ``clamp_warning`` on the result.
    """
    if base.dim != other.dim:
        raise ShapeError(f"dimension mismatch: {base.dim} vs {other.dim}")
    root, inv_root = matrix_sqrt_inv_sqrt(base)
    inner = SymmetricMatrix(inv_root.entries @ other.entries @ inv_root.entries)
    return _conjugated_power(root, inner, exponent)


def _conjugated_power(root: SymmetricMatrix, inner: SymmetricMatrix, exponent: float) -> SymmetricMatrix:
    """root inner^exponent root, flagged by ``clamp_warning`` when ``_power_values`` clamped."""
    dec = eigendecompose(inner)
    values, clamped = _power_values(dec.eigenvalues, exponent)
    return SymmetricMatrix(root.entries @ dec.recombine(values) @ root.entries, clamp_warning=clamped)
