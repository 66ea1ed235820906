"""``render_json`` matches its reports' types by exact type first.

The renderer below is the one that matched by ``isinstance`` alone, kept
here as the reference: on nested payloads of every type a report or a
``check`` payload holds, and of numpy floats, tuples, bools and subclasses,
the two give the same text or raise the same error.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import TrialSpec, run_campaign
from opineq.cli import render_json


def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def reference(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = [f"{json.dumps(str(key))}: {reference(value[key])}" for key in sorted(value)]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


class Label(str):
    pass


class Count(int):
    pass


def _outcome(render, value):
    try:
        return render(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-5, max_value=5).map(Count),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(max_size=8),
    st.text(max_size=4).map(Label),
    st.sampled_from([np.int64(3), np.bool_(True), 1j]),  # types the renderer rejects or reads as ints
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.text(max_size=3).map(Label), inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(payloads)
def test_exact_type_matching_renders_as_the_isinstance_chain(payload):
    assert _outcome(render_json, payload) == _outcome(reference, payload)


def test_a_non_finite_value_at_depth_raises_as_before():
    payload = {"rows": [["label", 0, 2, 1.5, True], ["label", 1, 2, math.inf, False]]}
    assert _outcome(render_json, payload) == _outcome(reference, payload)
    assert _outcome(render_json, payload)[0] is ValueError


def test_campaign_reports_render_as_before():
    report = run_campaign(TrialSpec(seed=31, dim_range=(2, 4), trials=6, tolerance=1e-300)).to_dict()
    assert report["failures"]
    assert render_json(report) == reference(report)
