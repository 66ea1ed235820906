"""A family evaluated once on a stack of instances gives each instance the bits it gets alone.

A campaign evaluates every CDJ family once per chunk on a ``bounds._CdjStack``
of the contexts whose Phi(A) share one size, and ``check`` and
``replay_failure`` run the same code on stacks of one.  The pair families
have the same form on ``perspectives._PairStack``.  These tests compare,
byte for byte, every comparison's two sides, its gaps and its scale on
stacks of 1, 3 and 12 instances against the instances one at a time, and
whole reports, failure records included, against chunks of one trial.  They
also check that an instance whose preconditions fail leaves the stack alone,
and that a mixed stack still raises the first error in trial order.
"""

import numpy as np
import pytest

from opineq import (
    BadParameter,
    DomainViolation,
    SplitMix64,
    TrialSpec,
    bounds,
    build_context,
    derive_seed,
    parse_function_spec,
    random_sandwich_pair,
    random_symmetric_with_spectrum,
    run_campaign,
    verifier,
)
from opineq.bounds import _CdjStack, _judge, _outcome, _parts
from opineq.cli import render_json
from opineq.perspectives import _PairStack
from opineq.verifier import DEFAULT_FUNCTIONS, DEFAULT_MAPS, FAMILIES, TSALLIS_PS, _evaluate_family

CDJ_FAMILIES = [name for name, family in FAMILIES.items() if family.kind in ("cdj", "power_chain", "kantorovich")]
PAIR_FAMILIES = [name for name, family in FAMILIES.items() if family.kind == "pair"]
GROUP_SIZES = (1, 3, 12)


def _contexts(dim: int, tag: str, fn_specs, count: int) -> list:
    """``count`` contexts drawn as a campaign trial draws its instance, with the functions in turn."""
    contexts = []
    for index in range(count):
        fn = parse_function_spec(fn_specs[index % len(fn_specs)])
        rng = SplitMix64(derive_seed(dim * 1000 + len(tag), index))
        m = 0.3 + 1.2 * rng.uniform()
        M = m + 0.5 + 2.5 * rng.uniform()
        matrix = random_symmetric_with_spectrum(rng.next_u64(), dim, m, M)
        phi, _ = verifier._make_map(tag, dim, rng)
        contexts.append(build_context(matrix, phi, fn, m, M))
    return contexts


def _pairs(dim: int, tag: str, fn_specs, count: int) -> list:
    """``count`` (pair, phi, fn, p, None) instances drawn as a campaign trial draws its pair, functions in turn."""
    instances = []
    for index in range(count):
        fn = parse_function_spec(fn_specs[index % len(fn_specs)])
        rng = SplitMix64(derive_seed(dim * 1000 + len(tag) + 7, index))
        phi, _ = verifier._make_map(tag, dim, rng)
        m = 0.3 + 0.9 * rng.uniform()
        pair = random_sandwich_pair(rng.next_u64(), dim, m, m + 0.4 + 1.6 * rng.uniform())
        instances.append((pair, phi, fn, TSALLIS_PS[index % len(TSALLIS_PS)], None))
    return instances


def _evaluate(family, prepared, size):
    """(kept positions, items), unjudged."""
    kept, items = _evaluate_family(family, prepared, size, family.params)
    return list(kept), items


def _rows(items, count: int) -> list:
    """Each of ``count`` instances' rows: (label, slack, scale, [sides and gaps of each comparison])."""
    return [
        [(item.label, *_outcome(item, at),
          [(c.lhs.entries[at].tobytes(), c.rhs.entries[at].tobytes(), c.gaps[at].tobytes())
           for c in _parts(item)])
         for item in items]
        for at in range(count)
    ]


def _evaluated(family, prepared, size):
    """(kept positions, each kept instance's rows), judged."""
    kept, items = _evaluate(family, prepared, size)
    _judge(items)
    return kept, _rows(items, len(kept))


def _prepared(family, instances):
    if family.kind == "pair":
        return _PairStack(tuple(instances))
    stack = _CdjStack(tuple(instances))
    return verifier._kantorovich(stack) if family.kind == "kantorovich" else stack


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("tag", DEFAULT_MAPS)
def test_stacked_families_give_each_instance_its_bits_alone(dim, tag):
    # 12 instances of one shape with the seven functions in turn, as in a
    # fuzz chunk; a stack of one is how an instance is evaluated alone
    instances = {"cdj": _contexts(dim, tag, DEFAULT_FUNCTIONS, 12), "pair": _pairs(dim, tag, DEFAULT_FUNCTIONS, 12)}
    evaluated = []  # (family name, size, kept, items, each instance alone)
    for name in CDJ_FAMILIES + PAIR_FAMILIES:
        family = FAMILIES[name]
        group = instances["pair" if family.kind == "pair" else "cdj"]
        alone = [_evaluate(family, _prepared(family, [instance]), 1) for instance in group]
        for size in GROUP_SIZES[1:]:
            evaluated.append((name, size, *_evaluate(family, _prepared(family, group[:size]), size), alone))
    # one solve judges every comparison, as a campaign chunk's are judged
    _judge([item for *_, items, alone in evaluated for item in [*items, *(i for _, its in alone for i in its)]])
    for name, size, kept, items, alone in evaluated:
        assert kept == [j for j in range(size) if alone[j][0]], (name, size)
        assert _rows(items, len(kept)) == [_rows(alone[j][1], 1)[0] for j in kept], (name, size)
    # every function is in the group
    assert {c.fn.name for c in instances["cdj"]} == {parse_function_spec(f).name for f in DEFAULT_FUNCTIONS}


def _report_bytes(spec: TrialSpec, tmp_path) -> tuple:
    report = run_campaign(spec)
    path = tmp_path / "rows.csv"
    report.write_csv(path)
    return render_json(report.to_dict()), path.read_bytes()


@pytest.mark.parametrize("spec", [
    # every row fails at this tolerance, so every reproducer kind is recorded
    TrialSpec(seed=21, dim_range=(2, 8), trials=24, tolerance=1e-300),
    TrialSpec(seed=22, dim_range=(3, 3), trials=12, map_set=("corner",), tolerance=1e-300),
], ids=["mixed", "one-shape"])
def test_reports_do_not_depend_on_the_group_size(spec, tmp_path, monkeypatch):
    whole = _report_bytes(spec, tmp_path)
    kinds = {record["inputs"]["kind"] for record in run_campaign(spec).failures}
    assert kinds == {"cdj", "power_chain", "kantorovich", "pair", "trace_bounds", "floor"}
    for budget in (1, 27):  # chunks of one trial, and of three at dim 3
        monkeypatch.setattr(verifier, "_CHUNK_BUDGET", budget)
        assert _report_bytes(spec, tmp_path) == whole


def test_failing_preconditions_leave_only_that_instance_out():
    # log is not positive where m < 1, and sqrt is positive but concave (alpha < 0)
    contexts = _contexts(3, "corner", ["power:3", "log", "power:0.5", "exp", "log"], 5)
    assert [c.m < 1.0 for c in contexts[1::3]] == [True, True]
    for name, expected in [("ratio", [0, 2, 3]), ("ratio_min", [0, 2, 3]), ("refined_chain", [0, 3])]:
        family = FAMILIES[name]
        kept, rows = _evaluated(family, _CdjStack(tuple(contexts)), len(contexts))
        assert kept == expected, name
        for at, position in enumerate(kept):
            assert rows[at] == _evaluated(family, _CdjStack((contexts[position],)), 1)[1][0]
        for position in set(range(len(contexts))) - set(kept):
            with pytest.raises(family.skips):
                _evaluate_family(family, _CdjStack((contexts[position],)), 1, family.params, skips=())


def test_skipping_trials_share_a_chunk_with_the_others(tmp_path, monkeypatch):
    spec = TrialSpec(seed=23, dim_range=(3, 3), trials=12, function_set=("power:3", "log", "power:0.5"),
                     map_set=("corner",))
    whole = _report_bytes(spec, tmp_path)
    labels = {row[0] for row in run_campaign(spec).rows}
    assert {"ratio_lower", "refined_chain"} <= labels
    monkeypatch.setattr(verifier, "_CHUNK_BUDGET", 1)
    assert _report_bytes(spec, tmp_path) == whole


def test_an_error_in_a_stack_is_raised_as_the_first_in_trial_order(monkeypatch):
    # five trials of one shape make one stack; trial 2 breaks a power chain and
    # trial 3 the chord family, which a stack evaluates first
    spec = TrialSpec(seed=24, dim_range=(3, 3), trials=5, map_set=("corner",))
    m = [verifier._draw_trial(spec, index).m for index in range(5)]
    chord_line, power_constant = bounds.chord_line, bounds.kantorovich_power_constant
    broken = {}

    def breaking_chord(fn, lo, hi):
        if lo == m[3] and "chord" in broken:
            raise DomainViolation("trial 3")
        return chord_line(fn, lo, hi)

    def breaking_power(lo, hi, r):
        if lo == m[2] and "power" in broken:
            raise BadParameter("trial 2")
        return power_constant(lo, hi, r)

    monkeypatch.setattr(bounds, "chord_line", breaking_chord)
    monkeypatch.setattr(bounds, "kantorovich_power_constant", breaking_power)
    run_campaign(spec)
    broken["chord"] = True
    with pytest.raises(DomainViolation, match="trial 3"):
        run_campaign(spec)
    broken["power"] = True
    with pytest.raises(BadParameter, match="trial 2"):
        run_campaign(spec)
    # alone, the trial raises what it raises in the stack
    monkeypatch.setattr(verifier, "_CHUNK_BUDGET", 1)
    with pytest.raises(BadParameter, match="trial 2"):
        run_campaign(spec)


def test_a_stack_holds_its_contexts_terms_in_order():
    contexts = _contexts(4, "pinching", ["exp"], 3)
    stack = _CdjStack(tuple(contexts))
    for name in ("phi_A", "phi_A2", "phi_A_sq", "phi_fA", "f_phi_A", "correction_image", "correction_point"):
        assert np.array_equal(getattr(stack, name).entries, np.stack([getattr(c, name).entries for c in contexts]))
    assert stack.alpha.ravel().tolist() == [c.alpha for c in contexts]
    assert stack.take([2, 0]).contexts == (contexts[2], contexts[0])
