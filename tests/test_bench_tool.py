"""``tools/bench_spectral.py`` merges repeated runs figure by figure, times
two checkouts in turn in one process and compares them by the median of the
per-repeat ratios, and times the draws and campaigns shaped like the
benchmark's and like the default ``fuzz``."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_spectral.py"


@pytest.fixture
def tool(monkeypatch):
    """The script as a module; the BLAS thread settings it makes at import and the
    checkouts it loads are undone afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_spectral", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.startswith("opineq_bench")]:
        del sys.modules[name]  # a checkout loaded under another name


def _row(n, k, vectors, ms):
    return {"n": n, "k": k, "vectors": vectors, "ms": ms}


def test_merge_matches_solve_figures_by_cell_not_by_position(tool):
    earlier = {
        "runs": 2,
        "solve_ms_per_matrix": [_row(4, 1, False, 0.5), _row(4, 1, True, 9.0), _row(32, 36, False, 1.0)],
        "campaign_ms_per_trial": {"2": 3.0, "16": 20.0},
    }
    # a grid with a new cell in front and the old cells in another order
    solves = [_row(24, 72, False, 2.0), _row(32, 36, False, 3.0), _row(4, 1, True, 8.0), _row(4, 1, False, 0.7)]
    record = tool.merged(earlier, solves, {"2": 2.5, "16": 25.0, "8..16": 15.0})
    assert record["runs"] == 3
    assert record["solve_ms_per_matrix"] == [
        _row(24, 72, False, 2.0), _row(32, 36, False, 1.0), _row(4, 1, True, 8.0), _row(4, 1, False, 0.5),
    ]
    assert record["campaign_ms_per_trial"] == {"2": 2.5, "16": 20.0, "8..16": 15.0}


def test_first_run_under_a_label_is_taken_as_it_is(tool):
    solves = [_row(12, 4, False, 1.25)]
    assert tool.merged(None, solves, {"2": 3.0}) == {
        "runs": 1, "solve_ms_per_matrix": solves, "campaign_ms_per_trial": {"2": 3.0},
    }


def test_merge_matches_draw_figures_by_n_and_k(tool):
    earlier = {
        "runs": 1,
        "solve_ms_per_matrix": [_row(4, 1, False, 0.5)],
        "draw_ms_per_matrix": [{"n": 16, "k": 5, "ms": 0.2}, {"n": 16, "k": 1, "ms": 0.9}],
        "campaign_ms_per_trial": {"12..16x1": 20.0},
    }
    draws = [{"n": 16, "k": 1, "ms": 0.7}, {"n": 32, "k": 60, "ms": 0.1}, {"n": 16, "k": 5, "ms": 0.3}]
    record = tool.merged(earlier, [_row(4, 1, False, 0.6)], {"12..16x1": 18.0}, draws)
    assert record == {
        "runs": 2,
        "solve_ms_per_matrix": [_row(4, 1, False, 0.5)],
        "draw_ms_per_matrix": [{"n": 16, "k": 1, "ms": 0.7}, {"n": 32, "k": 60, "ms": 0.1},
                               {"n": 16, "k": 5, "ms": 0.2}],
        "campaign_ms_per_trial": {"12..16x1": 18.0},
    }


def test_repeat_ms_alternates_which_run_goes_first(tool):
    calls = []
    runs = [lambda: calls.append("a"), lambda: calls.append("b")]
    times = tool.repeat_ms(runs, 4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert [len(t) for t in times] == [4, 4] and all(ms >= 0.0 for t in times for ms in t)


def test_ratios_of_later_runs_join_each_cells_earlier_ones(tool):
    first = {
        "solve_ms_per_matrix": [dict(n=4, k=1, vectors=False, per_repeat=[0.5, 0.7, 0.9])],
        "campaign_ms_per_trial": {"2": {"per_repeat": [0.6, 0.8, 0.7]}},
    }
    record = tool.merged_ratios(None, first)
    assert record["runs"] == 1
    assert record["solve_ms_per_matrix"][0]["median"] == 0.7
    assert record["campaign_ms_per_trial"]["2"]["median"] == 0.7
    second = {
        "solve_ms_per_matrix": [dict(n=8, k=1, vectors=False, per_repeat=[1.0]),
                                dict(n=4, k=1, vectors=False, per_repeat=[0.1, 0.2])],
        "campaign_ms_per_trial": {"2": {"per_repeat": [0.1]}, "fuzz": {"per_repeat": [0.6, 0.5]}},
    }
    record = tool.merged_ratios(record, second)
    assert record["runs"] == 2
    assert record["solve_ms_per_matrix"] == [
        dict(n=8, k=1, vectors=False, per_repeat=[1.0], median=1.0),
        dict(n=4, k=1, vectors=False, per_repeat=[0.5, 0.7, 0.9, 0.1, 0.2], median=0.5),
    ]
    assert record["campaign_ms_per_trial"] == {
        "2": {"per_repeat": [0.6, 0.8, 0.7, 0.1], "median": 0.65},
        "fuzz": {"per_repeat": [0.6, 0.5], "median": 0.55},
    }


def test_two_checkouts_load_side_by_side(tool):
    src = TOOL.parent.parent / "src"
    first = tool.load_opineq(src, "opineq_bench_test_a")
    second = tool.load_opineq(src, "opineq_bench_test_b")
    assert first is not second and first.spectral is not second.spectral
    assert first.spectral.__name__ == "opineq_bench_test_a.spectral"
    spec = first.TrialSpec(seed=3, dim_range=(3, 3), trials=2)
    assert first.run_campaign(spec).rows == second.run_campaign(second.TrialSpec(**spec.to_dict())).rows


def test_draw_cells_time_the_stacked_draw_or_the_one_at_a_time_draw(tool, monkeypatch):
    import opineq

    monkeypatch.setattr(tool, "SIZES", (13,))
    monkeypatch.setattr(tool, "DRAW_GROUPS", (5,))
    ((key, run, repeats, per),) = tool.draw_cells(42)
    assert key == {"n": 13, "k": 5} and per == 5 and repeats >= 5
    stacked = run(opineq)()

    class OneAtATime:  # a checkout without the stacked draw
        verifier = types.SimpleNamespace(random_symmetric_with_spectrum=opineq.random_symmetric_with_spectrum)

    alone = run(OneAtATime)()
    assert [a.entries.tobytes() for a in stacked] == [a.entries.tobytes() for a in alone]


def test_single_trial_campaign_row_is_shaped_like_campaign_highdim(tool):
    specs = []

    class Recording:  # stands in for a checkout's opineq
        TrialSpec = staticmethod(lambda **spec: spec or types.SimpleNamespace(function_set=("f0", "f1", "f2")))
        run_campaign = staticmethod(specs.append)

    key, run, _, per = next(cell for cell in tool.campaign_cells(42) if cell[0] == "12..16x1")
    run(Recording)()
    assert per == tool.SINGLE_TRIAL_CELLS == len(specs) == 10
    assert [spec["dim_range"] for spec in specs] == [(12 + i % 5,) * 2 for i in range(10)]
    assert {spec["trials"] for spec in specs} == {1}
    assert [spec["map_set"] for spec in specs[:4]] == [("corner",), ("vecstate",), ("trace",), ("pinching",)]
    assert [spec["function_set"] for spec in specs[:4]] == [("f0",), ("f1",), ("f2",), ("f0",)]


def test_fuzz_row_is_the_default_fuzz_spec(tool):
    specs = []

    class Recording:  # stands in for a checkout's opineq
        TrialSpec = staticmethod(lambda **spec: spec)
        run_campaign = staticmethod(specs.append)

    key, run, _, per = tool.campaign_cells(42)[-1]
    run(Recording)()
    assert key == "fuzz" and specs == [{"seed": 42}] and per == 200


def test_against_run_writes_both_labels(tool, monkeypatch, tmp_path):
    monkeypatch.setattr(tool, "SIZES", (12,))
    monkeypatch.setattr(tool, "GROUPS", (1,))
    monkeypatch.setattr(tool, "DRAW_GROUPS", (1,))
    monkeypatch.setattr(tool, "CAMPAIGN_TRIALS", {(2, 2): 1})
    monkeypatch.setattr(tool, "SINGLE_TRIAL_CELLS", 1)
    monkeypatch.setattr(tool, "FUZZ_SPEC", {"trials": 2})
    out = tmp_path / "bench.json"
    src = str(TOOL.parent.parent / "src")
    for runs in (1, 2):
        assert tool.main(["--out", str(out), "--src", src, "--against", src]) == 0
        record = json.loads(out.read_text())
        for label in ("change", "parent"):
            assert record[label]["runs"] == 1  # this run's medians
            assert [(row["n"], row["k"], row["vectors"]) for row in record[label]["solve_ms_per_matrix"]] == [
                (12, 1, False), (12, 1, True)]
            assert [(row["n"], row["k"]) for row in record[label]["draw_ms_per_matrix"]] == [(12, 1)]
            assert set(record[label]["campaign_ms_per_trial"]) == {"2", "12..16x1", "fuzz"}
        ratio = record["ratio"]
        assert ratio["runs"] == runs
        assert [len(row["per_repeat"]) for row in ratio["draw_ms_per_matrix"]] == [60 * runs]  # max(5, 60 // k)
        assert set(ratio["campaign_ms_per_trial"]) == {"2", "12..16x1", "fuzz"}
        assert all(len(cell["per_repeat"]) == 3 * runs and cell["median"] > 0.0
                   for cell in ratio["campaign_ms_per_trial"].values())
