"""Time the eigensolver by size and group size, the draws, and campaigns by dimension.

Usage::

    python3 tools/bench_spectral.py --out BENCH_<n>.json [--label NAME] [--src DIR] [--against DIR]

``--src`` is the ``src`` directory of the checkout to time (by default the
one beside this script), so one copy of this script times two commits.
``--against`` is the ``src`` directory of a second checkout.  Its ``opineq``
is loaded into the same process under another name, and every cell times
the two checkouts in turn, repeat by repeat, the first of the two switching
from one repeat to the next, so a slow stretch of the host lands on both
alike.  Its figures go under the label ``parent``.

The figures go under ``--label`` in the JSON file ``--out``, next to those
already there, with the seed (42), the Python and numpy versions and the
core count.  A run under a label that is there already keeps, figure by
figure, the lower of the old and the new one and counts the runs.  Row
figures are matched by their key ((n, k, vectors) or (n, k)), so an earlier
record made with another grid merges cell by cell; a figure that the
earlier runs lack is taken as it is:

- ``solve_ms_per_matrix``: ``spectral._solve_many`` on k distinct random
  symmetric n x n matrices, with and without eigenvectors, in ms per matrix
  (the best of a few repeats), for n in 4, 8, 12, 13, 16, 24, 32 and k in
  1, 4, 12, 36, 72;
- ``draw_ms_per_matrix``: k matrices ``random_symmetric_with_spectrum``
  draws, of size n, drawn as a campaign chunk draws them (one stacked pass
  where the checkout has ``verifier._draw_factors``, else one at a time),
  in ms per matrix, for n in 4, 8, 12, 13, 16, 24, 32 and k in 1, 5, 60;
- ``campaign_ms_per_trial``: ``run_campaign`` with the default functions
  and maps at one dimension (2, 4, 8, 16 and 32) and over dims 8..16 (key
  ``"8..16"``, 24 trials, so a chunk holds several trials of each size), and
  ten single-trial campaigns at dims 12..16 with one map and one function
  each in rotation (key ``"12..16x1"``, shaped like the benchmark's
  ``campaign_highdim``), in ms per trial (the best of a few repeats).

BLAS is pinned to one thread before numpy loads, as in ``perfbench``.
"""

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SEED = 42
ROOT = Path(__file__).resolve().parent.parent
SIZES = (4, 8, 12, 13, 16, 24, 32)
GROUPS = (1, 4, 12, 36, 72)
DRAW_GROUPS = (1, 5, 60)
# (lo, hi) dimension range -> trials
CAMPAIGN_TRIALS = {(2, 2): 24, (4, 4): 24, (8, 8): 24, (16, 16): 10, (32, 32): 2, (8, 16): 24}
SINGLE_TRIAL_MAPS = ("corner", "vecstate", "trace", "pinching")
SINGLE_TRIAL_CELLS = 10


def load_opineq(src, name: str):
    """The ``opineq`` package under ``src``, imported as the top-level module ``name``.

    The package imports its own modules relatively, so two checkouts load
    side by side under two names.
    """
    init = Path(src) / "opineq" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def best_ms(runs: list, repeats: int) -> list:
    """The best time in ms of each of ``runs`` over ``repeats`` rounds that run
    them all in turn, the first of them switching from round to round."""
    best = [float("inf")] * len(runs)
    for repeat in range(repeats):
        order = range(len(runs)) if repeat % 2 == 0 else reversed(range(len(runs)))
        for i in order:
            start = time.perf_counter()
            runs[i]()
            best[i] = min(best[i], time.perf_counter() - start)
    return [ms * 1e3 for ms in best]


def _symmetric_arrays(np, seed: int, n: int, k: int) -> list:
    rng = np.random.default_rng([seed, n, k])
    arrays = []
    for _ in range(k):
        g = rng.standard_normal((n, n))
        arrays.append(g + g.T)
    return arrays


def solve_cells(np, seed: int) -> list:
    """(key, run factory, repeats, divisor) of each solve cell."""
    cells = []
    for n in SIZES:
        for k in GROUPS:
            arrays = _symmetric_arrays(np, seed, n, k)
            repeats = max(3, 48 // k) if n < 32 else 3
            for vectors in (False, True):
                def run(oq, arrays=arrays, vectors=vectors):
                    return lambda: oq.spectral._solve_many(arrays, vectors)
                cells.append(({"n": n, "k": k, "vectors": vectors}, run, repeats, k))
    return cells


def draw_cells(seed: int) -> list:
    """(key, run factory, repeats, divisor) of each draw cell."""
    cells = []
    for n in SIZES:
        for k in DRAW_GROUPS:
            seeds = [(seed << 20) | (n << 8) | i for i in range(k)]

            def run(oq, n=n, seeds=seeds):
                verifier = oq.verifier
                if hasattr(verifier, "_draw_factors"):
                    factors = [verifier._draw_spectrum(s, n, 0.5, 2.0) for s in seeds]
                    return lambda: verifier._draw_factors(factors)
                return lambda: [verifier.random_symmetric_with_spectrum(s, n, 0.5, 2.0) for s in seeds]
            cells.append(({"n": n, "k": k}, run, max(5, 60 // k), k))
    return cells


def campaign_cells(seed: int) -> list:
    """(key, run factory, repeats, divisor) of each campaign cell."""
    cells = []
    for (lo, hi), trials in CAMPAIGN_TRIALS.items():
        def run(oq, lo=lo, hi=hi, trials=trials):
            spec = oq.TrialSpec(seed=seed, dim_range=(lo, hi), trials=trials)
            return lambda: oq.run_campaign(spec)
        cells.append((str(lo) if lo == hi else f"{lo}..{hi}", run, 3 if hi < 32 else 2, trials))

    def single_trials(oq):
        functions = oq.TrialSpec().function_set
        specs = [
            oq.TrialSpec(seed=(seed << 20) | i, dim_range=(12 + i % 5, 12 + i % 5), trials=1,
                         function_set=(functions[i % len(functions)],),
                         map_set=(SINGLE_TRIAL_MAPS[i % len(SINGLE_TRIAL_MAPS)],))
            for i in range(SINGLE_TRIAL_CELLS)
        ]
        return lambda: [oq.run_campaign(spec) for spec in specs]
    cells.append(("12..16x1", single_trials, 3, SINGLE_TRIAL_CELLS))
    return cells


def measure(modules: list, np, seed: int) -> list:
    """One record of figures per module, each cell timed on every module in turn."""
    figures = [{"solve_ms_per_matrix": [], "draw_ms_per_matrix": [], "campaign_ms_per_trial": {}}
               for _ in modules]
    sections = (("solve_ms_per_matrix", solve_cells(np, seed)), ("draw_ms_per_matrix", draw_cells(seed)),
                ("campaign_ms_per_trial", campaign_cells(seed)))
    for section, cells in sections:
        for key, run, repeats, per in cells:
            times = best_ms([run(oq) for oq in modules], repeats)
            for record, ms in zip(figures, times):
                if isinstance(key, dict):
                    record[section].append(dict(key, ms=round(ms / per, 4)))
                else:
                    record[section][key] = round(ms / per, 3)
            print(f"{section} {key}: " + "  ".join(f"{ms / per:8.3f}" for ms in times), flush=True)
    return figures


def _key(row: dict) -> tuple:
    return tuple((name, value) for name, value in row.items() if name != "ms")


def merged(earlier, solves: list, campaigns: dict, draws: list = ()) -> dict:
    """A label's record after one more run: each figure the lower of the old
    and the new, row figures matched by their key ((n, k, vectors) or (n, k))."""
    record = {"solve_ms_per_matrix": solves, "campaign_ms_per_trial": campaigns}
    if draws:
        record["draw_ms_per_matrix"] = list(draws)
    if earlier is None:
        return {"runs": 1, **record}
    for section, figures in record.items():
        if isinstance(figures, dict):
            before = earlier.get(section, {})
            record[section] = {key: min(ms, before.get(key, ms)) for key, ms in figures.items()}
        else:
            before = {_key(row): row["ms"] for row in earlier.get(section, [])}
            for row in figures:
                row["ms"] = min(row["ms"], before.get(_key(row), row["ms"]))
    return {"runs": earlier["runs"] + 1, **record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--against", help="the src directory of a second checkout, timed in turn with --src")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import numpy as np

    labels = [args.label]
    modules = [load_opineq(args.src, "opineq_bench_src")]
    if args.against:
        labels.append("parent")
        modules.append(load_opineq(args.against, "opineq_bench_against"))
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
    })
    for label, figures in zip(labels, measure(modules, np, SEED)):
        record[label] = merged(record.get(label), figures["solve_ms_per_matrix"],
                               figures["campaign_ms_per_trial"], figures["draw_ms_per_matrix"])
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
