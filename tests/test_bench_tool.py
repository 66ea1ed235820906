"""``tools/bench_spectral.py`` records each run's medians, times two
checkouts in turn in one process and compares them by the median of the
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


def _tiny_grid(tool, monkeypatch):
    """One cell per section, so a run of the tool takes a moment."""
    monkeypatch.setattr(tool, "SIZES", (12,))
    monkeypatch.setattr(tool, "GROUPS", (1,))
    monkeypatch.setattr(tool, "DRAW_GROUPS", (1,))
    monkeypatch.setattr(tool, "CAMPAIGN_TRIALS", {(2, 2): 1})
    monkeypatch.setattr(tool, "SINGLE_TRIAL_CELLS", 1)
    monkeypatch.setattr(tool, "FUZZ_SPEC", {"trials": 2})


def test_each_run_records_its_own_medians(tool, monkeypatch, tmp_path):
    # a run's figures are the medians of its repeats, and they replace the
    # label's: a label keeps no best figure over runs
    _tiny_grid(tool, monkeypatch)
    out = tmp_path / "bench.json"
    for times in ([5.0, 1.0, 3.0], [2.0, 8.0, 4.0]):
        monkeypatch.setattr(tool, "repeat_ms", lambda runs, repeats, times=times: [list(times) for _ in runs])
        assert tool.main(["--out", str(out)]) == 0
        record = json.loads(out.read_text())
        median = sorted(times)[1]
        assert record["change"] == {
            "solve_ms_per_matrix": [{"n": 12, "k": 1, "vectors": False, "ms": median},
                                    {"n": 12, "k": 1, "vectors": True, "ms": median}],
            "draw_ms_per_matrix": [{"n": 12, "k": 1, "ms": median}],
            "campaign_ms_per_trial": {"2": median, "12..16x1": median, "fuzz": median / 2},
        }
        assert "ratio" not in record


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
    _tiny_grid(tool, monkeypatch)
    out = tmp_path / "bench.json"
    src = str(TOOL.parent.parent / "src")
    for runs in (1, 2):
        assert tool.main(["--out", str(out), "--src", src, "--against", src]) == 0
        record = json.loads(out.read_text())
        for label in ("change", "parent"):
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
