"""``tools/bench_spectral.py`` merges repeated runs figure by figure."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_spectral.py"


@pytest.fixture
def tool(monkeypatch):
    """The script as a module; the BLAS thread settings it makes at import are undone afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_spectral", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
