"""Time the eigensolver by size and group size, and campaigns by dimension.

Usage::

    python3 tools/bench_spectral.py --out BENCH_<n>.json [--label NAME] [--src DIR]

``--src`` is the ``src`` directory of the checkout to time (by default the
one beside this script), so one copy of this script times two commits.  The
figures go under ``--label`` in the JSON file ``--out``, next to those
already there, with the seed (42), the Python and numpy versions and the
core count.  A run under a label that is there already keeps, figure by
figure, the lower of the old and the new one and counts the runs, so
alternating runs of two commits give each its best over the same stretch of
time.  Solve figures are matched by (n, k, vectors), so an earlier record
made with another grid merges cell by cell; a figure that the earlier runs
lack is taken as it is:

- ``solve_ms_per_matrix``: ``spectral._solve_many`` on k distinct random
  symmetric n x n matrices, with and without eigenvectors, in ms per matrix
  (the best of a few repeats), for n in 4, 8, 12, 13, 16, 24, 32 and k in
  1, 4, 12, 36, 72;
- ``campaign_ms_per_trial``: ``run_campaign`` with the default functions
  and maps at one dimension (2, 4, 8, 16 and 32) and over dims 8..16 (key
  ``"8..16"``, 24 trials, so a chunk holds several trials of each size), in
  ms per trial (the best of a few repeats).

BLAS is pinned to one thread before numpy loads, as in ``perfbench``.
"""

import argparse
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
# (lo, hi) dimension range -> trials
CAMPAIGN_TRIALS = {(2, 2): 24, (4, 4): 24, (8, 8): 24, (16, 16): 10, (32, 32): 2, (8, 16): 24}


def _best_ms(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def solve_times(np, spectral, seed: int) -> list:
    rows = []
    for n in SIZES:
        for k in GROUPS:
            rng = np.random.default_rng([seed, n, k])
            arrays = []
            for _ in range(k):
                g = rng.standard_normal((n, n))
                arrays.append(g + g.T)
            repeats = max(3, 48 // k) if n < 32 else 3
            for vectors in (False, True):
                ms = _best_ms(lambda: spectral._solve_many(arrays, vectors), repeats) / k
                rows.append({"n": n, "k": k, "vectors": vectors, "ms": round(ms, 4)})
                print(f"n={n:2d} k={k:2d} vectors={vectors!s:5}  {ms:8.3f} ms per matrix", flush=True)
    return rows


def campaign_times(opineq, seed: int) -> dict:
    out = {}
    for (lo, hi), trials in CAMPAIGN_TRIALS.items():
        spec = opineq.TrialSpec(seed=seed, dim_range=(lo, hi), trials=trials)
        ms = _best_ms(lambda: opineq.run_campaign(spec), 3 if hi < 32 else 2) / trials
        key = str(lo) if lo == hi else f"{lo}..{hi}"
        out[key] = round(ms, 3)
        print(f"campaign dims {key:>5}: {ms:8.2f} ms per trial ({trials} trials)", flush=True)
    return out


def merged(earlier, solves: list, campaigns: dict) -> dict:
    """A label's record after one more run: each figure the lower of the old
    and the new, solve figures matched by (n, k, vectors)."""
    if earlier is None:
        return {"runs": 1, "solve_ms_per_matrix": solves, "campaign_ms_per_trial": campaigns}
    old = {(row["n"], row["k"], row["vectors"]): row["ms"] for row in earlier["solve_ms_per_matrix"]}
    for row in solves:
        row["ms"] = min(row["ms"], old.get((row["n"], row["k"], row["vectors"]), row["ms"]))
    before = earlier["campaign_ms_per_trial"]
    return {
        "runs": earlier["runs"] + 1,
        "solve_ms_per_matrix": solves,
        "campaign_ms_per_trial": {key: min(ms, before.get(key, ms)) for key, ms in campaigns.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    import opineq
    from opineq import spectral

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
    })
    record[args.label] = merged(record.get(args.label), solve_times(np, spectral, SEED), campaign_times(opineq, SEED))
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
