"""Built-in worked examples with exact reference values.

Three small fixed instances whose numbers can be checked by hand:

* a 3x3 quartic instance under the leading-corner compression where the
  plain Jensen comparison fails in both directions, yet the two-sided
  additive bounds still hold;
* a 3x3 cubic instance evaluated in a uniform vector state, with reference
  values 8 and 24 and additive bounds near 27.14 and 43.54 on [0.25, 3.8];
* a 2x2 inverse-function instance under the normalized trace where the
  additive sharpening beats the classical Kantorovich bound by exactly
  1/512 (gaps 5/272 and 143/8704).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .bounds import (
    build_context,
    chord_bounds,
    improved_kantorovich,
    jensen_converse_bound,
    jensen_upper_bound,
)
from .functions import catalog_lookup
from .maps import NormalizedTrace, VectorState, corner_map
from .spectral import (
    LoewnerRelation,
    SymmetricMatrix,
    _array_from_payload,
    apply_scalar_function,
    loewner_compare,
)

__all__ = [
    "ValueLine",
    "FlagLine",
    "ExampleResult",
    "load_fixture_matrix",
    "load_fixture_vector",
    "quartic_corner_counterexample",
    "cube_vector_state_example",
    "kantorovich_trace_example",
    "run_all",
]


@dataclass(frozen=True)
class ValueLine:
    label: str
    computed: float
    expected: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance


@dataclass(frozen=True)
class FlagLine:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ExampleResult:
    name: str
    values: tuple[ValueLine, ...]
    flags: tuple[FlagLine, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.values) and all(f.ok for f in self.flags)


def _fixture_payload(name: str) -> dict:
    text = resources.files("opineq").joinpath("fixtures", name).read_text()
    return json.loads(text)


def load_fixture_matrix(name: str) -> SymmetricMatrix:
    return SymmetricMatrix(_array_from_payload(_fixture_payload(name), name, 2))


def load_fixture_vector(name: str) -> np.ndarray:
    return _array_from_payload(_fixture_payload(name), name, 1)


def quartic_corner_counterexample() -> ExampleResult:
    """4th power under the 3x3 -> 2x2 corner compression: order breaks down."""
    matrix = load_fixture_matrix("quartic_corner_3x3.json")
    phi = corner_map(3, 2)
    quartic = catalog_lookup("power", [4])
    phi_a = phi.apply(matrix)
    fourth_of_image = apply_scalar_function(phi_a, quartic)
    image_of_fourth = phi.apply(apply_scalar_function(matrix, quartic))
    expected_low = np.array([[325.0, 132.0], [132.0, 61.0]])
    expected_high = np.array([[374.0, 105.0], [105.0, 70.0]])
    values = (
        ValueLine(
            "max deviation of Phi(A)^4 from [[325,132],[132,61]]",
            float(np.abs(fourth_of_image.entries - expected_low).max()),
            0.0,
            1e-9,
        ),
        ValueLine(
            "max deviation of Phi(A^4) from [[374,105],[105,70]]",
            float(np.abs(image_of_fourth.entries - expected_high).max()),
            0.0,
            1e-9,
        ),
    )
    verdict = loewner_compare(fourth_of_image, image_of_fourth)
    ctx = build_context(matrix, phi, quartic)
    flags = (
        FlagLine(
            "plain comparison incomparable",
            verdict.relation is LoewnerRelation.INCOMPARABLE,
            f"relation {verdict.relation.value}",
        ),
        FlagLine("two-sided additive bound holds", jensen_upper_bound(ctx).holds),
        FlagLine("two-sided additive converse holds", jensen_converse_bound(ctx).holds),
    )
    return ExampleResult("quartic corner counterexample", values, flags)


def cube_vector_state_example() -> ExampleResult:
    """Cube in a uniform vector state on [0.25, 3.8]: 8, 24, ~27.14, ~43.54."""
    matrix = load_fixture_matrix("cube_vector_state_3x3.json")
    state = VectorState(load_fixture_vector("uniform_state_3.json"))
    cube = catalog_lookup("power", [3])
    ctx = build_context(matrix, state, cube, m=0.25, M=3.8)
    upper = jensen_upper_bound(ctx)
    converse = jensen_converse_bound(ctx)
    values = (
        ValueLine("f(Phi(A))", ctx.f_phi_A.as_scalar(), 8.0, 1e-9),
        ValueLine("Phi(f(A))", ctx.phi_fA.as_scalar(), 24.0, 1e-9),
        ValueLine("additive upper bound", upper.rhs.as_scalar(), 27.14, 0.01),
        ValueLine("additive converse bound", converse.rhs.as_scalar(), 43.54, 0.01),
    )
    flags = tuple(
        FlagLine(f"{report.label} holds", report.holds)
        for report in (*chord_bounds(ctx), upper, converse)
    )
    return ExampleResult("cube in a uniform vector state", values, flags)


def kantorovich_trace_example() -> ExampleResult:
    """Inverse under the normalized trace on [2, 8]: gaps 5/272 and 143/8704."""
    matrix = load_fixture_matrix("inverse_trace_2x2.json")
    phi = NormalizedTrace(2)
    result = improved_kantorovich(matrix, phi, m=2.0, M=8.0)
    classical_gap = result.classical_rhs.as_scalar() - result.phi_inv.as_scalar()
    improved_gap = result.improved_rhs.as_scalar() - result.phi_inv.as_scalar()
    values = (
        ValueLine("classical Kantorovich gap", classical_gap, 5.0 / 272.0, 1e-12),
        ValueLine("sharpened gap", improved_gap, 143.0 / 8704.0, 1e-12),
        ValueLine("gap difference", classical_gap - improved_gap, 1.0 / 512.0, 1e-12),
    )
    improved_below_classical = loewner_compare(result.improved_rhs, result.classical_rhs)
    flags = (
        FlagLine("sharpened inequality holds", result.inequality.holds),
        FlagLine("improvement term is PSD", result.improvement_psd.holds),
        FlagLine("sharpened bound below classical bound", improved_below_classical.holds_le),
    )
    return ExampleResult("Kantorovich sharpening under the normalized trace", values, flags)


def run_all() -> list[ExampleResult]:
    return [
        quartic_corner_counterexample(),
        cube_vector_state_example(),
        kantorovich_trace_example(),
    ]
