"""Seeded random instances and fuzz campaigns over every registered inequality.

Each trial derives its own SplitMix64 stream from (campaign seed, trial
index), draws one operator instance plus one sandwich pair and two density
operators, and evaluates every registered comparison whose preconditions
hold.  Every report type gives its slack as ``tightness`` (the signed
minimum eigenvalue of RHS - LHS, or RHS - LHS for a ``ScalarCheck``) and
the ``scale`` its failure threshold grows with; slack below
-tolerance*(1+scale) counts as a failure and is stored with a full
reproducer record.

Trials are independent, and a trial's bits depend only on its own seed, so
the campaign runs them in chunks.  A chunk draws every trial's scalars from
the trial's stream, in trial order, and then builds the chunk's drawn
matrices, one stacked Givens pass per size (``_draw_factors``) with the
words of every matrix's own stream read in counter form.  Then it
decomposes what its trials start from in two waves of one
``spectral._decompose_many`` dispatch each.  The first holds the drawn
A, sandwich base, rho and sigma of every trial and the map images Phi(A)
and Phi(base), which need nothing solved first.  The second holds the three
sandwiched matrices built from first-wave roots: base^{-1/2} B base^{-1/2},
rho^{-1/2} sigma rho^{-1/2} and Phi(base)^{-1/2} Phi(B) Phi(base)^{-1/2}.
Then it builds each trial's inputs, whose constructors check the solved
matrices and solve none alone, and evaluates each CDJ family once on the
stack of the contexts whose Phi(A) share one size (``bounds._CdjStack``);
the other families run trial by trial, the pair families on a stack of one.
It judges all the chunk's comparisons in one ``bounds._judge`` call, the
two statistics among them as claims against an all-zero stack, and reads
each trial's rows and statistics off the gaps in trial order.  One
function, ``_run_chunk``, does all of this.  Every solve and every stacked
matrix gives the bits it would give alone, so reports are byte-for-byte
the same for any chunking.

On any library error the campaign runs each of the chunk's trials alone
through ``_run_chunk`` and raises the first error, so a campaign raises
what its first failing trial raises alone, whatever the chunking.  Within a
trial the first error its pipeline meets wins: the waves, the build, the
constructors, the families, then the judging.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    _CdjStack,
    _build_context,
    _chord,
    _columns,
    _improved_kantorovich,
    _jensen_converse,
    _jensen_upper,
    _judge,
    _outcome,
    _power_chain,
    _ratio,
    _ratio_min,
    _refined_chain,
    _refined_k,
    _small_k,
    _statistic,
    _third_term,
    build_context,
)
from .errors import BadParameter, NonPositiveFunction, NotStrictlyConvex, OpineqError
from .functions import _check_positive_interval, catalog_lookup, parse_function_spec
from .maps import PositiveUnitalMap, map_from_info
from .perspectives import (
    DensityOperator,
    OperatorPair,
    _map_commutation,
    _pair_on,
    _PairStack,
    _perspective,
    _relative_entropy,
    _tsallis_operator,
    _tsallis_trace_bounds,
    quantum_tsallis_lower_bound,
    von_neumann_lower_bound,
)
from .rng import GOLDEN, MASK64, SplitMix64, _checked_seed, _uniforms, _words, derive_seed
from .spectral import (
    SymmetricMatrix,
    _array_from_payload,
    _checked_tolerance,
    _congruence,
    _decompose_many,
    _field,
    _sandwiched,
    matrix_sqrt_inv_sqrt,
)

__all__ = [
    "TrialSpec",
    "CampaignReport",
    "registered_inequalities",
    "random_orthogonal",
    "random_symmetric_with_spectrum",
    "random_density",
    "random_sandwich_pair",
    "run_campaign",
    "replay_failure",
]

DEFAULT_FUNCTIONS = (
    "power:3",
    "power:4",
    "power:-1",
    "log",
    "tsallis_f:0.5",
    "tsallis_f:-0.5",
    "exp",
)
DEFAULT_MAPS = ("corner", "vecstate", "trace", "pinching")
POWER_CHAIN_RS = (-2.0, -1.0, 0.5, 2.0, 3.0)
TSALLIS_PS = (0.5, -0.5, 1.0, -1.0)
DENSITY_EIGENVALUE_FLOOR = 1e-3
# Campaign size limits.  A trial at dim 32 takes seconds; a spec such as
# dims 2..10000 would run for hours, so it is rejected before the first trial.
MAX_DIM = 32
MAX_TRIALS = 10_000
# A campaign chunk holds trials whose dimensions squared sum to at most this
# (a trial above it is a chunk of its own).  Chunk trials keep their operators,
# both waves' included, until the chunk is judged, so this bounds the memory:
# 12 trials of dim 4 fit in one chunk, and 2 of dim 32, whose chunk peaks at
# 3.3 MB traced (a 12-trial dim-32 campaign at 36.3 MB peak RSS).
_CHUNK_BUDGET = 2048


@dataclass(frozen=True)
class TrialSpec:
    """Campaign parameters; identical specs produce identical reports."""

    seed: int = 42
    dim_range: tuple[int, int] = (2, 8)
    trials: int = 200
    function_set: tuple[str, ...] = DEFAULT_FUNCTIONS
    map_set: tuple[str, ...] = DEFAULT_MAPS
    tolerance: float = 1e-8

    def validate(self) -> None:
        dims = self.dim_range
        if not (isinstance(dims, (tuple, list)) and len(dims) == 2):
            raise BadParameter(f"dim_range must be a pair (lo, hi), got {dims!r}")
        _checked_seed(self.seed)
        for name, value in (("trials", self.trials), ("dimension", dims[0]), ("dimension", dims[1])):
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadParameter(f"{name} must be an int, got {value!r}")
        for names in (self.function_set, self.map_set):
            if not isinstance(names, (tuple, list)):
                raise BadParameter(f"function_set and map_set must each be a tuple or a list "
                                   f"of names (not a string), got {names!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise BadParameter(f"trials must be between 1 and {MAX_TRIALS}, got {self.trials}")
        lo, hi = dims
        if not 2 <= lo <= hi <= MAX_DIM:
            raise BadParameter(
                f"bad dimension range {self.dim_range!r}: need 2 <= lo <= hi <= {MAX_DIM}"
            )
        if _checked_tolerance(self.tolerance) == 0.0:
            raise BadParameter("tolerance must be positive")
        # the report renders the spec, and its JSON holds no numpy scalar
        if not isinstance(self.tolerance, (int, float)):
            raise BadParameter(f"tolerance must be an int or a float, got {self.tolerance!r}")
        if not self.function_set or not self.map_set:
            raise BadParameter("function and map sets must be nonempty")
        for name in (*self.function_set, *self.map_set):
            if not isinstance(name, str):
                raise BadParameter(f"function and map names must be strings, got {name!r}")
        # a typo fails here, not partway through the campaign; SplitMix64(0)
        # is a stream of its own, so the trials' draws stay as they are
        for fn_spec in self.function_set:
            parse_function_spec(fn_spec)
        for tag in self.map_set:
            _make_map(tag, lo, SplitMix64(0))

    def to_dict(self) -> dict:
        """Every field in declaration order, sequences as lists (as JSON reads them back)."""
        return {k: list(v) if isinstance(v, (tuple, list)) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class Family:
    """One family of registered inequalities.

    ``evaluate(prepared, *scalars, **params)`` returns the family's items,
    one per label, from the prepared inputs of its reproducer ``kind`` (see
    ``_evaluate_group`` and ``_prepare``).  The items are stacked: for the
    kinds "cdj" and "power_chain" ``prepared`` is a ``bounds._CdjStack``,
    for "kantorovich" that stack's ``bounds._improved_kantorovich`` and for
    "pair" a ``perspectives._PairStack``.  The scalar kinds ("trace_bounds",
    "floor") evaluate one instance: ``prepared`` is a tuple of its inputs,
    spread as arguments, and the items are its checks.
    ``scalars(context)``, where given, computes the family's per-instance
    constants in Python, as floats; an instance whose ``scalars`` raise one
    of ``skips`` fails the family's preconditions and is left out of its
    stack, and the others' constants reach ``evaluate`` as ``(k, 1, 1)``
    factors.  Only ``scalars`` can skip: a family without them, each scalar
    kind included, skips nothing, and any error of its evaluation is
    raised.  ``params`` are fixed values of this entry that its reproducer
    records carry too.
    """

    labels: tuple[str, ...]
    kind: str
    evaluate: Callable
    skips: tuple[type[Exception], ...] = ()
    params: dict = field(default_factory=dict)
    scalars: Callable | None = None


# t^r of each power chain, built once; t^-1 is the Kantorovich family's function too
_POWERS = {r: catalog_lookup("power", [r]) for r in POWER_CHAIN_RS}


def _kantorovich(ctx: _CdjStack):
    """The sharpened Kantorovich inequality on the instances of ``ctx``."""
    return _improved_kantorovich(ctx.with_function(_POWERS[-1.0]))


def _trace_checks(rho, sigma, p, pair):
    bounds = _tsallis_trace_bounds(rho, sigma, p, pair)
    checks = (bounds.lower_check, bounds.upper_check, bounds.relative_check)
    return tuple(check for check in checks if check is not None)


# Every registered inequality, in report row order.  To register a new
# family, add one entry here.  The evaluators name the bound functions
# inside a lambda, so they are looked up at call time and a wrapper put on
# this module's names (a profiler or a tracer) sees each call.
FAMILIES = {
    "chord": Family(
        ("chord_upper_image", "chord_lower_image", "chord_upper_jensen", "chord_lower_jensen"),
        "cdj",
        lambda ctx: _chord(ctx),
    ),
    "jensen_upper": Family(("jensen_upper",), "cdj", lambda ctx: _jensen_upper(ctx)),
    "jensen_converse": Family(("jensen_converse",), "cdj", lambda ctx: _jensen_converse(ctx)),
    "ratio": Family(
        ("ratio_lower", "ratio_upper"),
        "cdj",
        lambda ctx, big_k: _ratio(ctx, big_k),
        (NonPositiveFunction,),
        scalars=lambda ctx: (ctx._big_k,),
    ),
    "ratio_min": Family(
        ("ratio_min_lower", "ratio_min_upper"),
        "cdj",
        lambda ctx, small_k: _ratio_min(ctx, small_k),
        (NonPositiveFunction,),
        scalars=lambda ctx: (_small_k(ctx),),
    ),
    "refined_chain": Family(
        ("refined_chain",),
        "cdj",
        lambda ctx, big_k: _refined_chain(ctx, big_k),
        (NonPositiveFunction, NotStrictlyConvex),
        scalars=lambda ctx: (_refined_k(ctx),),
    ),
    **{
        f"power_chain[r={r:g}]": Family(
            (f"power_chain[r={r:g}]",),
            "power_chain",
            lambda ctx, r: _power_chain(ctx.with_function(_POWERS[r]), r),
            params={"r": r},
        )
        for r in POWER_CHAIN_RS
    },
    "kantorovich": Family(
        ("improved_kantorovich", "kantorovich_improvement_psd"),
        "kantorovich",
        lambda kant: kant[:2],
    ),
    "perspective": Family(
        ("perspective_lower", "perspective_upper"), "pair", lambda pairs: _perspective(pairs)
    ),
    "map_commutation": Family(
        ("map_commutation_lower", "map_commutation_upper"), "pair", lambda pairs: _map_commutation(pairs)
    ),
    "tsallis_operator": Family(
        ("tsallis_operator_lower", "tsallis_operator_upper"), "pair", lambda pairs: _tsallis_operator(pairs)
    ),
    "relative_entropy": Family(
        ("relative_entropy_lower", "relative_entropy_upper"), "pair", lambda pairs: _relative_entropy(pairs)
    ),
    "tsallis_trace": Family(
        ("tsallis_trace_lower", "tsallis_trace_upper", "tsallis_relative_upper"),
        "trace_bounds",
        _trace_checks,
    ),
    "quantum_tsallis_floor": Family(
        ("quantum_tsallis_floor",),
        "floor",
        lambda rho, p: (quantum_tsallis_lower_bound(rho, p).floor_check,),
    ),
    "von_neumann_floor": Family(
        ("von_neumann_floor",),
        "floor",
        lambda rho, p: (von_neumann_lower_bound(rho).floor_check,),
    ),
}
_CDJ = ("cdj", "power_chain", "kantorovich")  # the kinds whose reproducers rebuild a CdjContext
_STACKED = (*_CDJ, "pair")  # the kinds whose families evaluate on stacks
_FAMILY_OF_LABEL = {label: family for family in FAMILIES.values() for label in family.labels}


def registered_inequalities() -> tuple[str, ...]:
    """Labels the default campaign must exercise (registry for coverage checks)."""
    return tuple(_FAMILY_OF_LABEL)


class _Factor(NamedTuple):
    """A matrix to draw from one SplitMix64 stream: Q diag(lam) Q^T, or Q alone.

    ``state`` is the stream's state before its first word.  The ``kind``
    fixes the words read before Q's angles: none for "orthogonal" (Q alone,
    as ``random_orthogonal`` draws it), one for the forced endpoints and dim
    for lam in [m, M] for "spectrum" (``random_symmetric_with_spectrum``),
    dim for the weights for "density" (``random_density``).
    ``_draw_factors`` builds them.
    """

    kind: str
    state: int
    dim: int
    m: float = 0.0
    M: float = 0.0


@cache
def _givens_waves(dim: int) -> tuple:
    """(the output number of each angle, in wave order; each wave's (angles, i, j) slices).

    Rotation (i, j) is the ``i * (2 * dim - i - 1) // 2 + j - i``-th of
    ``random_orthogonal``'s row-major order.  It needs every earlier rotation
    that touches column i or j, so it goes in wave i + j - 1: 2 * dim - 3
    waves, each of disjoint pairs, with i rising and j falling.
    """
    outputs = []
    waves = []
    for wave in range(2 * dim - 3):
        lo, hi = max(0, wave + 2 - dim), wave // 2 + 1  # the i of the wave
        start = len(outputs)
        outputs += [i * (2 * dim - i - 1) // 2 + (wave + 1 - i) - i for i in range(lo, hi)]
        waves.append((slice(start, len(outputs)), slice(lo, hi), slice(wave + 1 - lo, wave + 1 - hi, -1)))
    return np.array(outputs), tuple(waves)


def _givens(states: list, dim: int) -> np.ndarray:
    """``random_orthogonal``'s Q for the angles after each of ``states``, in a ``(k, dim, dim)`` stack.

    Rotation (i, j) turns columns i and j of every matrix of the stack into
    c * x - s * y and s * x + c * y, with one rounding per operation.  The
    waves of disjoint pairs keep each column's order of updates, so each
    matrix gets the bits of the rotations applied one at a time in
    row-major order, whatever else shares the stack.  Each Q is C-contiguous.
    """
    outputs, waves = _givens_waves(dim)
    theta = 2.0 * np.pi * _uniforms(_words(outputs, states))  # uniform(0, 2 pi), one row per rotation
    cos, sin = np.cos(theta)[:, :, None], np.sin(theta)[:, :, None]
    cols = np.repeat(np.eye(dim)[:, None], len(states), axis=1)  # cols[i, matrix] is that matrix's column i
    for angles, i, j in waves:
        c, s, col_i, col_j = cos[angles], sin[angles], cols[i], cols[j]
        cols[i], cols[j] = c * col_i - s * col_j, s * col_i + c * col_j
    return cols.transpose(1, 2, 0).copy()


def _draw_factors(factors) -> list:
    """Each factor's matrix: a ``SymmetricMatrix``, or Q alone for an "orthogonal" one.

    The factors of one size are drawn together: their words in counter form,
    every Q in one ``_givens`` stack, then Q diag(lam) Q^T of each, so each
    matrix has the bits it has alone.
    """
    drawn = [None] * len(factors)
    by_size: dict = {}
    for index, factor in enumerate(factors):
        by_size.setdefault(factor.dim, []).append(index)
    for dim, members in by_size.items():
        group = [factors[index] for index in members]
        before = {"orthogonal": 0, "spectrum": dim + 1, "density": dim}  # words before the angles
        q = _givens([(f.state + before[f.kind] * GOLDEN) & MASK64 for f in group], dim)
        words = _words(range(1, dim + 2), [f.state for f in group])  # the words before the angles
        x = _uniforms(words)
        for j, (index, f) in enumerate(zip(members, group)):
            if f.kind == "orthogonal":
                drawn[index] = q[j]
                continue
            if f.kind == "spectrum":
                lam = f.m + (f.M - f.m) * x[1:, j]
                if words[0, j] % 4 == 0:  # one draw in four forces both endpoints
                    lam[0] = f.m
                    lam[-1] = f.M
            else:
                raw = 0.05 + 0.95 * x[:dim, j]
                weights = raw / raw.sum()
                lam = DENSITY_EIGENVALUE_FLOOR + (1.0 - dim * DENSITY_EIGENVALUE_FLOOR) * weights
            drawn[index] = SymmetricMatrix((q[j] * lam) @ q[j].T)
    return drawn


def random_orthogonal(rng: SplitMix64, dim: int) -> np.ndarray:
    """Orthogonal matrix composed of one Givens rotation per index pair.

    The angles are ``rng``'s next dim (dim - 1) / 2 uniforms in [0, 2 pi),
    one per pair (i, j) in row-major order, and the stream moves past them.
    Rotation (i, j) turns columns i and j of the identity's product so far.
    The rotations run in waves of disjoint pairs, rotation (i, j) in wave
    i + j - 1, which keeps each column's order of updates.  numpy's cos and
    sin run on arrays of angles; a test checks that they give the bits of
    one call per angle on every angle of a seed-42 campaign at dims 2..16,
    on this host's numpy.  C-contiguous.
    """
    return _draw_factors([_Factor("orthogonal", rng._skip(dim * (dim - 1) // 2), dim)])[0]


def _draw_spectrum(seed: int, dim: int, m: float, M: float) -> _Factor:
    """The factor of ``random_symmetric_with_spectrum(seed, dim, m, M)``, once its arguments are checked."""
    if dim < 2:
        raise BadParameter("dimension must be at least 2")
    if not m < M:
        raise BadParameter(f"need m < M, got m={m!r}, M={M!r}")
    return _Factor("spectrum", seed & MASK64, dim, m, M)


def random_symmetric_with_spectrum(seed: int, dim: int, m: float, M: float) -> SymmetricMatrix:
    """Symmetric matrix with spectrum drawn uniformly from [m, M].

    One draw in four (decided by the seeded stream) forces both interval
    endpoints into the spectrum so boundary behaviour gets exercised.
    """
    return _draw_factors([_draw_spectrum(seed, dim, m, M)])[0]


def random_density(seed: int, dim: int) -> DensityOperator:
    """Random density operator with eigenvalues floored at 1e-3."""
    return DensityOperator(_draw_factors([_draw_density(seed, dim)])[0])


def _draw_density(seed: int, dim: int) -> _Factor:
    """The factor of ``random_density(seed, dim)``'s matrix."""
    if dim < 2:
        raise BadParameter("dimension must be at least 2")
    return _Factor("density", seed & MASK64, dim)


def random_sandwich_pair(seed: int, dim: int, m: float, M: float) -> OperatorPair:
    """Pair (A, B) with B = A^{1/2} C A^{1/2} and Sp(C) drawn inside [m, M].

    The returned pair carries the exact spectral hull of the sandwiched
    matrix, which is contained in the requested [m, M] by construction.
    """
    base, inner = _draw_factors(_draw_sandwich(seed, dim, m, M))
    return OperatorPair(base, _sandwich_second(base, inner))


def _draw_sandwich(seed: int, dim: int, m: float, M: float) -> tuple[_Factor, _Factor]:
    """The factors of (A, C) of ``random_sandwich_pair(seed, dim, m, M)``."""
    _check_positive_interval(m, M)
    base = _draw_spectrum(derive_seed(seed, 1), dim, 0.5, 2.0)
    return base, _draw_spectrum(derive_seed(seed, 2), dim, m, M)


def _sandwich_second(base: SymmetricMatrix, inner: SymmetricMatrix) -> SymmetricMatrix:
    """B = A^{1/2} C A^{1/2} from A = ``base`` and C = ``inner``."""
    return _congruence(matrix_sqrt_inv_sqrt(base)[0], inner.entries)


def _make_map(tag: str, dim: int, rng: SplitMix64):
    info = {"tag": tag}
    if tag == "corner":
        info["out_dim"] = max(1, dim - 1)
    elif tag == "vecstate":
        norm = 0.0
        while norm < 1e-3:
            vec = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)])
            norm = float(np.linalg.norm(vec))
        info["vector"] = [float(v) for v in vec / norm]
    elif tag == "pinching":
        cut = 1 + rng.below(dim - 1)
        info["blocks"] = [list(range(cut)), list(range(cut, dim))]
    elif tag == "mixture":
        factors = [random_orthogonal(rng, dim), random_orthogonal(rng, dim)]
        info["weights"] = [0.5, 0.5]
        info["factors"] = [[[float(x) for x in row] for row in f] for f in factors]
    return map_from_info(info, dim), info


def _matrix_data(matrix: SymmetricMatrix) -> list:
    return [float(x) for x in matrix.entries.reshape(-1)]


@dataclass
class CampaignReport:
    """Aggregated slack statistics plus full reproducers for every failure."""

    spec: TrialSpec
    rows: list
    aggregates: dict
    failures: list
    statistics: dict

    @property
    def total_failures(self) -> int:
        return len(self.failures)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "aggregates": self.aggregates,
            "rows": self.rows,
            "failures": self.failures,
            "statistics": self.statistics,
        }

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["inequality", "trial", "dim", "slack", "pass"])
            for label, trial, dim, slack, passed in self.rows:
                writer.writerow([label, trial, dim, format(slack, ".17g"), str(passed).lower()])


class _Draw(NamedTuple):
    """One trial's seeded draws, with nothing solved yet.

    ``_draw_trial`` leaves each matrix as the ``_Factor`` it is drawn from,
    and ``_drawn`` builds them.
    """

    index: int
    seed: int
    dim: int
    fn_spec: str
    m: float
    M: float
    matrix: SymmetricMatrix
    phi: PositiveUnitalMap
    map_info: dict
    base: SymmetricMatrix  # the sandwich pair's A
    inner: SymmetricMatrix  # C, with B = A^{1/2} C A^{1/2}
    p: float
    rho: SymmetricMatrix
    sigma: SymmetricMatrix


def _draw_trial(spec: TrialSpec, index: int) -> _Draw:
    """Trial ``index``'s draws from its own stream, in the order that fixes the report bytes."""
    trial_seed = derive_seed(spec.seed, index)
    rng = SplitMix64(trial_seed)
    lo, hi = spec.dim_range
    dim = lo + rng.below(hi - lo + 1)
    fn_spec = spec.function_set[rng.below(len(spec.function_set))]
    map_tag = spec.map_set[rng.below(len(spec.map_set))]
    m = 0.3 + 1.2 * rng.uniform()
    M = m + 0.5 + 2.5 * rng.uniform()
    matrix = _draw_spectrum(rng.next_u64(), dim, m, M)
    phi, map_info = _make_map(map_tag, dim, rng)
    pair_m = 0.3 + 0.9 * rng.uniform()
    pair_M = pair_m + 0.4 + 1.6 * rng.uniform()
    base, inner = _draw_sandwich(rng.next_u64(), dim, pair_m, pair_M)
    p = TSALLIS_PS[rng.below(len(TSALLIS_PS))]
    rho = _draw_density(rng.next_u64(), dim)
    sigma = _draw_density(rng.next_u64(), dim)
    return _Draw(index, trial_seed, dim, fn_spec, m, M, matrix, phi, map_info, base, inner, p, rho, sigma)


class _Built(NamedTuple):
    """The operators a trial builds from its draws before any check, each solved in a wave.

    With the sandwich pair (A, B), B = A^{1/2} C A^{1/2}.
    """

    phi_A: SymmetricMatrix  # first wave: Phi of the drawn A
    phi_base: SymmetricMatrix  # first wave: Phi(A) of the sandwich pair
    second: SymmetricMatrix  # B, not solved
    sandwiched: SymmetricMatrix  # second wave: A^{-1/2} B A^{-1/2}
    relative: SymmetricMatrix  # second wave: rho^{-1/2} sigma rho^{-1/2}
    phi_second: SymmetricMatrix  # Phi(B), not solved
    image: SymmetricMatrix  # second wave: Phi(A)^{-1/2} Phi(B) Phi(A)^{-1/2}


def _build(draw: _Draw, phi_A: SymmetricMatrix, phi_base: SymmetricMatrix) -> _Built:
    """The trial's operators; the sandwiched ones are built from first-wave roots."""
    second = _sandwich_second(draw.base, draw.inner)
    phi_second = draw.phi.apply(second)
    return _Built(
        phi_A, phi_base, second, _sandwiched(draw.base, second), _sandwiched(draw.rho, draw.sigma),
        phi_second, _sandwiched(phi_base, phi_second),
    )


class _Trial:
    """One trial's inputs to its families, each checked by its constructor from ``built``'s matrices.

    They are built in the order that decides which of the trial's
    constructor errors comes first.
    """

    __slots__ = ("draw", "fn", "pair", "rho", "sigma", "relative_pair", "ctx", "image")

    def __init__(self, draw: _Draw, built: _Built):
        self.draw = draw
        self.fn = parse_function_spec(draw.fn_spec)
        self.pair = _pair_on(draw.base, built.second, built.sandwiched)
        self.rho = DensityOperator(draw.rho)
        self.sigma = DensityOperator(draw.sigma)
        self.relative_pair = _pair_on(self.rho.rho, self.sigma.rho, built.relative)
        self.ctx = _build_context(draw.matrix, draw.phi, self.fn, draw.m, draw.M, built.phi_A)
        # (Phi(A), Phi(B), their sandwiched matrix) of the sandwich pair
        self.image = (built.phi_base, built.phi_second, built.image)


def _inputs(trial: _Trial, kind: str) -> dict:
    """The reproducer inputs of kind ``kind`` of a trial (a failure record's ``inputs``, less the params)."""
    draw = trial.draw
    if kind in _CDJ:
        return {"kind": kind, "matrix": _matrix_data(draw.matrix), "dim": draw.dim, "map": draw.map_info,
                "function": draw.fn_spec, "m": draw.m, "M": draw.M}
    if kind == "pair":
        return {"kind": kind, "A": _matrix_data(trial.pair.A), "B": _matrix_data(trial.pair.B),
                "dim": draw.dim, "map": draw.map_info, "function": draw.fn_spec, "p": draw.p}
    if kind == "trace_bounds":
        return {"kind": kind, "rho": _matrix_data(trial.rho.rho), "sigma": _matrix_data(trial.sigma.rho),
                "dim": draw.dim, "p": abs(draw.p), "m": trial.relative_pair.m, "M": trial.relative_pair.M}
    return {"kind": kind, "rho": _matrix_data(trial.rho.rho), "dim": draw.dim, "p": abs(draw.p)}


def _evaluate_family(family: Family, prepared, size: int, params: dict, skips=None) -> tuple:
    """(the positions of the ``size`` instances of ``prepared`` that the family's items cover, the items).

    ``prepared`` holds the inputs of the family's kind: a stack, or one
    instance's tuple.  An instance whose ``scalars`` raise one of ``skips``
    (the family's by default) is left out.
    """
    skips = family.skips if skips is None else skips
    if family.kind not in _STACKED:
        return [0], family.evaluate(*prepared, **params)
    if family.scalars is None:
        return range(size), family.evaluate(prepared, **params)
    kept, rows = [], []
    for position, context in enumerate(prepared.contexts):
        try:
            rows.append(family.scalars(context))
        except skips:
            continue
        kept.append(position)
    if not kept:
        return kept, ()
    stack = prepared if len(kept) == len(prepared.contexts) else prepared.take(kept)
    return kept, family.evaluate(stack, *_columns(rows), **params)


def _evaluate_group(draws: list, builts: list) -> tuple:
    """Every family on the trials of ``draws``.

    The CDJ families run once on the contexts of each Phi(A) size.  The
    others run trial by trial, the pair families on a stack of one pair:
    stacked across trials they run faster, but a chunk then holds so few
    objects that the collector's full passes become rare (see ROADMAP item
    9).  Returns the ``_Trial`` of each trial; for each family, per trial,
    (its items, the trial's position in them), or ``None`` where the family
    was skipped; and per trial, the ``bounds._statistic`` claims of its two
    statistics and its position in them.
    """
    trials = [_Trial(draw, built) for draw, built in zip(draws, builts)]
    items = {name: [None] * len(trials) for name in FAMILIES}
    statistics = [None] * len(trials)
    by_size: dict = {}
    for index, trial in enumerate(trials):
        by_size.setdefault(trial.ctx.phi_A.dim, []).append(index)
    for members in by_size.values():
        ctx = _CdjStack(tuple(trials[index].ctx for index in members))
        kant = _kantorovich(ctx)
        third = _statistic("jensen_third_term", _third_term(ctx))
        improvement = _statistic("kantorovich_improvement", kant[2] - kant[3])
        prepared = {"cdj": ctx, "power_chain": ctx, "kantorovich": kant}
        for position, index in enumerate(members):
            statistics[index] = (third, improvement, position)
        _evaluate_kinds(prepared, members, items)
    for index, trial in enumerate(trials):
        p, p_pos = trial.draw.p, abs(trial.draw.p)
        prepared = {
            "pair": _PairStack.of(trial.pair, trial.draw.phi, trial.fn, p, trial.image),
            "trace_bounds": (trial.rho, trial.sigma, p_pos, trial.relative_pair),
            "floor": (trial.rho, p_pos),
        }
        _evaluate_kinds(prepared, [index], items)
    return trials, items, statistics


def _evaluate_kinds(prepared: dict, members: list, items: dict) -> None:
    """Evaluate every family of the kinds in ``prepared`` on the trials ``members``; record its items."""
    for name, family in FAMILIES.items():
        if family.kind in prepared:
            kept, evaluated = _evaluate_family(family, prepared[family.kind], len(members), family.params)
            for at, position in enumerate(kept):  # a stacked item holds the kept instances
                items[name][members[position]] = (evaluated, at)


def _run_chunk(draws: list) -> tuple:
    """``_evaluate_group``'s results on the trials of ``draws``, every comparison judged.

    The chunk decomposes its operators in two waves, builds each trial's
    inputs, evaluates the families and judges every comparison, the
    statistics' included, in one ``bounds._judge`` call.  A chunk of one
    trial raises what that trial raises alone.
    """
    # the first wave: the drawn matrices and their map images, which need nothing solved
    images = [(draw.phi.apply(draw.matrix), draw.phi.apply(draw.base)) for draw in draws]
    _decompose_many([m for draw, pair in zip(draws, images)
                     for m in (draw.matrix, draw.base, draw.rho, draw.sigma, *pair)])
    built = [_build(draw, *pair) for draw, pair in zip(draws, images)]
    # the second: the sandwiched matrices, built from first-wave roots
    _decompose_many([m for b in built for m in (b.sandwiched, b.relative, b.image)])
    trials, items, statistics = _evaluate_group(draws, built)
    claims = [item for per_trial in items.values() for entry in per_trial if entry is not None for item in entry[0]]
    claims += [stat for third, improvement, _ in statistics for stat in (third, improvement)]
    _judge(claims)
    return trials, items, statistics


_MATRICES = ("matrix", "base", "inner", "rho", "sigma")  # the _Draw fields drawn as _Factors


def _drawn(chunk: list) -> list:
    """The chunk's draws with every matrix built, in one ``_draw_factors`` call."""
    matrices = iter(_draw_factors([getattr(draw, name) for draw in chunk for name in _MATRICES]))
    return [draw._replace(**{name: next(matrices) for name in _MATRICES}) for draw in chunk]


def _chunks(spec: TrialSpec):
    """The campaign's trial draws, in order, in chunks within ``_CHUNK_BUDGET``.

    Each trial's scalars are drawn from its stream in trial order, and then
    the chunk's matrices are built together.
    """
    chunk: list = []
    size = 0
    for index in range(spec.trials):
        draw = _draw_trial(spec, index)
        if chunk and size + draw.dim**2 > _CHUNK_BUDGET:
            yield _drawn(chunk)
            chunk, size = [], 0
        chunk.append(draw)
        size += draw.dim**2
    yield _drawn(chunk)


def run_campaign(spec: TrialSpec) -> CampaignReport:
    """Run every registered inequality on ``spec.trials`` fresh random instances."""
    spec.validate()
    rows: list = []
    failures: list = []
    statistics = {
        "jensen_third_term_min_eig": float("inf"),
        "jensen_third_term_max_eig": float("-inf"),
        "kantorovich_strict_improvements": 0,
    }
    for chunk in _chunks(spec):
        try:
            trials, items, trial_statistics = _run_chunk(chunk)
        except OpineqError:
            # the stacks mix the trials: run each alone, so the first to raise is raised
            for draw in chunk:
                _run_chunk([draw])
            raise
        for index, trial in enumerate(trials):
            draw = trial.draw
            for name, family in FAMILIES.items():
                entry = items[name][index]
                if entry is None:
                    continue
                reports, position = entry
                for report in reports:
                    slack, scale = _outcome(report, position)
                    passed = slack >= -(spec.tolerance * (1.0 + scale))
                    rows.append([report.label, draw.index, draw.dim, float(slack), bool(passed)])
                    if not passed:
                        failures.append({
                            "label": report.label,
                            "trial": draw.index,
                            "seed": draw.seed,
                            "dim": draw.dim,
                            "slack": float(slack),
                            "inputs": dict(_inputs(trial, family.kind), **family.params),
                        })
            third, improvement, at = trial_statistics[index]
            statistics["jensen_third_term_min_eig"] = min(
                statistics["jensen_third_term_min_eig"], float(third.gaps[at][0]))
            statistics["jensen_third_term_max_eig"] = max(
                statistics["jensen_third_term_max_eig"], float(third.gaps[at][-1]))
            if float(improvement.gaps[at][0]) > 1e-12:
                statistics["kantorovich_strict_improvements"] += 1

    aggregates: dict = {}
    for label, _trial, _dim, slack, passed in rows:
        agg = aggregates.setdefault(
            label,
            {
                "pass": 0,
                "fail": 0,
                "worst_slack": float("inf"),
                "tightest_slack": None,
                "mean_slack": 0.0,
            },
        )
        agg["pass" if passed else "fail"] += 1
        agg["worst_slack"] = min(agg["worst_slack"], slack)
        if passed:
            tight = agg["tightest_slack"]
            agg["tightest_slack"] = slack if tight is None else min(tight, slack)
        agg["mean_slack"] += slack
    for agg in aggregates.values():
        agg["mean_slack"] /= agg["pass"] + agg["fail"]

    statistics["coverage_missing"] = sorted(set(registered_inequalities()) - set(aggregates))
    return CampaignReport(spec, rows, aggregates, failures, statistics)


def _input(inputs: dict, key: str, kind=(int, float)):
    """Field ``key`` of a reproducer record's inputs, a real unless ``kind`` says otherwise."""
    return _field(inputs, key, kind, "reproducer inputs")


def _prepare(inputs: dict, kind: str):
    """Rebuild the prepared inputs of a reproducer record of ``kind``, a stack of one for a stacked kind.

    Every field is read before the operators are built, so a missing or
    ill-typed field is reported whatever the operators would have raised.
    """
    dim = _input(inputs, "dim", int)

    def matrix(key: str) -> SymmetricMatrix:
        data = _input(inputs, key, (list, tuple))
        return SymmetricMatrix(_array_from_payload({"dim": dim, "data": data}, key, 2))

    def map_and_function() -> tuple:
        phi = map_from_info(_input(inputs, "map", dict), dim)
        return phi, parse_function_spec(_input(inputs, "function", str))

    if kind in _CDJ:
        operator = matrix("matrix")
        ctx = _CdjStack((build_context(operator, *map_and_function(), _input(inputs, "m"), _input(inputs, "M")),))
        return _kantorovich(ctx) if kind == "kantorovich" else ctx
    if kind == "pair":
        first, second, (phi, fn), p = matrix("A"), matrix("B"), map_and_function(), _input(inputs, "p")
        return _PairStack.of(OperatorPair(first, second), phi, fn, p)
    rho = matrix("rho")
    if kind == "trace_bounds":
        sigma, m, M, p = matrix("sigma"), _input(inputs, "m"), _input(inputs, "M"), _input(inputs, "p")
        rho, sigma = DensityOperator(rho), DensityOperator(sigma)
        return (rho, sigma, p, OperatorPair(rho.rho, sigma.rho, m, M))
    p = _input(inputs, "p")
    return (DensityOperator(rho), p)


def replay_failure(record: dict) -> float:
    """Re-run the single check a failure record describes; returns its slack.

    Replay is exact: the record carries the full inputs, so the recomputed
    slack equals the recorded one bit-for-bit.  A missing or ill-typed field
    raises ``BadParameter`` naming it.
    """
    label = _field(record, "label", str, "failure record")
    inputs = _field(record, "inputs", dict, "failure record")
    family = _FAMILY_OF_LABEL.get(label)
    if family is None:
        raise BadParameter(f"unknown inequality label {label!r}")
    kind = _input(inputs, "kind", str)
    if kind != family.kind:
        raise BadParameter(f"{label} needs reproducer kind {family.kind!r}, got {kind!r}")
    params = {name: _input(inputs, name) for name in family.params}
    # the family's preconditions raise here: a record is replayed, not skipped
    _, items = _evaluate_family(family, _prepare(inputs, kind), 1, params, skips=())
    _judge(items)
    return next(_outcome(item, 0)[0] for item in items if item.label == label)
