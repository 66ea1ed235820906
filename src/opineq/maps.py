"""Unital positive linear maps on symmetric matrices.

Five concrete families: isometry compressions, vector states, the
normalized trace, pinchings, and convex mixtures of orthogonal
congruences.  Each sends the identity to the identity and positive
matrices to positive matrices, which is what the bound machinery assumes.
Constructors only validate shapes; ``verify_map`` certifies unitality and
sampled positivity, so deliberately broken maps can be built and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, ShapeError
from .rng import SplitMix64
from .spectral import SymmetricMatrix, _field

__all__ = [
    "PositiveUnitalMap",
    "Compression",
    "VectorState",
    "NormalizedTrace",
    "Pinching",
    "CongruenceMixture",
    "corner_map",
    "identity_map",
    "map_from_info",
    "MapVerification",
    "verify_map",
]


class PositiveUnitalMap:
    """Base class; concrete variants implement ``apply``."""

    variant = "abstract"
    in_dim: int
    out_dim: int

    def apply(self, matrix: SymmetricMatrix) -> SymmetricMatrix:
        raise NotImplementedError

    def _check_input(self, matrix: SymmetricMatrix) -> None:
        if matrix.dim != self.in_dim:
            raise ShapeError(
                f"{self.variant} map expects dimension {self.in_dim}, got {matrix.dim}"
            )

    def __repr__(self):
        return f"{type(self).__name__}(in_dim={self.in_dim}, out_dim={self.out_dim})"


class Compression(PositiveUnitalMap):
    """A -> V^T A V for isometry data V with V^T V = I."""

    variant = "compression"

    def __init__(self, isometry):
        v = np.array(isometry, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise BadParameter(f"isometry data must be a 2-d array, got shape {v.shape}")
        v.setflags(write=False)
        self.isometry = v
        self.in_dim = v.shape[0]
        self.out_dim = v.shape[1]

    def apply(self, matrix: SymmetricMatrix) -> SymmetricMatrix:
        self._check_input(matrix)
        return SymmetricMatrix(self.isometry.T @ matrix.entries @ self.isometry)


def corner_map(in_dim: int, out_dim: int) -> Compression:
    """Compression onto the leading ``out_dim`` coordinates."""
    if not (1 <= out_dim <= in_dim):
        raise BadParameter(f"need 1 <= out_dim <= in_dim, got {out_dim} and {in_dim}")
    return Compression(np.eye(in_dim)[:, :out_dim])


def identity_map(dim: int) -> Compression:
    return Compression(np.eye(dim))


class VectorState(PositiveUnitalMap):
    """A -> <A x, x> as a 1x1 matrix, for a unit vector x."""

    variant = "vector_state"

    def __init__(self, vector):
        x = np.array(vector, dtype=float).reshape(-1)
        if x.size < 1:
            raise BadParameter("state vector must be nonempty")
        x.setflags(write=False)
        self.vector = x
        self.in_dim = x.size
        self.out_dim = 1

    def apply(self, matrix: SymmetricMatrix) -> SymmetricMatrix:
        self._check_input(matrix)
        value = float(self.vector @ matrix.entries @ self.vector)
        return SymmetricMatrix([[value]])


class NormalizedTrace(PositiveUnitalMap):
    """A -> tr(A)/dim as a 1x1 matrix."""

    variant = "normalized_trace"

    def __init__(self, dim: int):
        if dim < 1:
            raise BadParameter("dimension must be at least 1")
        self.in_dim = dim
        self.out_dim = 1

    def apply(self, matrix: SymmetricMatrix) -> SymmetricMatrix:
        self._check_input(matrix)
        return SymmetricMatrix([[matrix.trace / self.in_dim]])


class Pinching(PositiveUnitalMap):
    """Block-diagonal restriction along a partition of the index set."""

    variant = "pinching"

    def __init__(self, dim: int, blocks):
        blocks = tuple(tuple(int(i) for i in block) for block in blocks)
        flat = sorted(i for block in blocks for i in block)
        if flat != list(range(dim)) or any(len(block) == 0 for block in blocks):
            raise BadParameter("blocks must partition the index range exactly")
        self.in_dim = dim
        self.out_dim = dim
        self.blocks = blocks

    def apply(self, matrix: SymmetricMatrix) -> SymmetricMatrix:
        self._check_input(matrix)
        out = np.zeros((self.in_dim, self.in_dim))
        for block in self.blocks:
            idx = np.ix_(block, block)
            out[idx] = matrix.entries[idx]
        return SymmetricMatrix(out)


class CongruenceMixture(PositiveUnitalMap):
    """A -> sum_i w_i U_i^T A U_i for weights summing to 1 and orthogonal U_i."""

    variant = "congruence_mixture"

    def __init__(self, terms):
        prepared = []
        dim = None
        total = 0.0
        for weight, orthogonal in terms:
            u = np.array(orthogonal, dtype=float)
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise BadParameter("each congruence factor must be square")
            if dim is None:
                dim = u.shape[0]
            elif u.shape[0] != dim:
                raise BadParameter("congruence factors must share one dimension")
            w = float(weight)
            if w <= 0.0:
                raise BadParameter("weights must be positive")
            u.setflags(write=False)
            prepared.append((w, u))
            total += w
        if dim is None:
            raise BadParameter("mixture needs at least one term")
        if abs(total - 1.0) > 1e-12:
            raise BadParameter(f"weights must sum to 1, got {total!r}")
        self.terms = tuple(prepared)
        self.in_dim = dim
        self.out_dim = dim

    def apply(self, matrix: SymmetricMatrix) -> SymmetricMatrix:
        self._check_input(matrix)
        out = np.zeros((self.in_dim, self.in_dim))
        for weight, u in self.terms:
            out += weight * (u.T @ matrix.entries @ u)
        return SymmetricMatrix(out)


def map_from_info(info: dict, dim: int) -> PositiveUnitalMap:
    """The map an info dict describes; campaign reproducer records store maps this way.

    Unlike the constructors, this refuses a description that is not unital
    to ``verify_map``'s 1e-12: a ``vecstate`` vector x needs |x.x - 1| <= 1e-12,
    and a ``mixture`` needs max|sum_i w_i U_i^T U_i - I| <= 1e-12.  A missing
    or ill-typed field raises ``BadParameter`` naming it.
    """
    what = "map description"
    tag = _field(info, "tag", str, what)
    if tag == "corner":
        return corner_map(dim, _field(info, "out_dim", int, what))
    if tag == "identity":
        return identity_map(dim)
    if tag == "vecstate":
        phi = _field(info, "vector", (list, tuple, np.ndarray), what, VectorState)
        _check_unital(abs(float(phi.vector @ phi.vector) - 1.0), tag)
        return phi
    if tag == "trace":
        return NormalizedTrace(dim)
    if tag == "pinching":
        return _field(info, "blocks", (list, tuple), what, lambda blocks: Pinching(dim, blocks))
    if tag == "mixture":
        weights = _field(info, "weights", (list, tuple), what, lambda ws: [float(w) for w in ws])
        factors = _field(info, "factors", (list, tuple), what,
                         lambda fs: [np.array(f, dtype=float) for f in fs])
        phi = CongruenceMixture(list(zip(weights, factors)))
        image = sum(w * (u.T @ u) for w, u in phi.terms)
        _check_unital(float(np.abs(image - np.eye(phi.in_dim)).max()), tag)
        return phi
    raise BadParameter(f"unknown map tag {tag!r}")


def _check_unital(error: float, tag: str) -> None:
    """Raise ``BadParameter`` unless a map's unitality ``error`` is at most 1e-12; NaN fails."""
    if not error <= 1e-12:
        raise BadParameter(f"{tag} map is not unital: error {error:.3e} exceeds 1e-12")


@dataclass(frozen=True)
class MapVerification:
    """Certification of unitality and sampled positivity."""

    variant: str
    trials: int
    unitality_error: float
    worst_relative_min_eig: float
    unitality_ok: bool
    positivity_ok: bool

    @property
    def passed(self) -> bool:
        return self.unitality_ok and self.positivity_ok


def verify_map(phi: PositiveUnitalMap, trials: int) -> MapVerification:
    """Check unitality exactly and positivity on random PSD inputs from a fixed stream.

    Failures are reported in the result, never raised.
    """
    if trials < 1:
        raise BadParameter("trials must be at least 1")
    identity_in = SymmetricMatrix.identity(phi.in_dim)
    image = phi.apply(identity_in)
    unit_err = float(np.abs(image.entries - np.eye(phi.out_dim)).max())
    rng = SplitMix64(0)
    worst = np.inf
    for _ in range(trials):
        g = np.array(
            [[rng.uniform(-1.0, 1.0) for _ in range(phi.in_dim)] for _ in range(phi.in_dim)]
        )
        psd = SymmetricMatrix(g.T @ g)
        out = phi.apply(psd)
        rel = out.min_eigenvalue() / (1.0 + psd.norm_max)
        worst = min(worst, rel)
    return MapVerification(
        variant=phi.variant,
        trials=trials,
        unitality_error=unit_err,
        worst_relative_min_eig=float(worst),
        unitality_ok=unit_err <= 1e-12,
        positivity_ok=worst >= -1e-10,
    )
