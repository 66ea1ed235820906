"""Reference figures for the README: environment, LAPACK ceiling, per-trial cost.

    python3 perfbench/reference.py

Prints one JSON object: Python and numpy versions and the core count; the
microseconds per call of ``numpy.linalg.eigh`` (the LAPACK ceiling the
Jacobi solver is compared with) and of ``opineq.eigendecompose`` at n = 4, 8
and 16; and the milliseconds per trial of a default campaign at dims 2, 4, 8
and 16 (seed 42).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import opineq as oq  # noqa: E402
from workloads import random_symmetric  # noqa: E402

TRIALS_BY_DIM = {2: 40, 4: 20, 8: 8, 16: 4}


def per_call_us(fn, matrices) -> float:
    times = []
    for a in matrices:
        start = time.perf_counter()
        fn(a)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main() -> None:
    rng = np.random.default_rng(7)
    eig = {}
    for n, count in ((4, 200), (8, 60), (16, 12)):
        arrays = [random_symmetric(rng, n, -3.0, 3.0) for _ in range(count)]
        eig[f"eigh_us_n{n}"] = per_call_us(np.linalg.eigh, arrays * 5)
        matrices = [oq.SymmetricMatrix(a) for a in arrays]
        eig[f"jacobi_us_n{n}"] = per_call_us(oq.eigendecompose, matrices)
    trial_ms = {}
    for dim, trials in TRIALS_BY_DIM.items():
        spec = oq.TrialSpec(seed=42, dim_range=(dim, dim), trials=trials)
        oq.run_campaign(oq.TrialSpec(seed=41, dim_range=(dim, dim), trials=1))  # warm-up
        start = time.perf_counter()
        oq.run_campaign(spec)
        trial_ms[f"dim{dim}"] = 1000.0 * (time.perf_counter() - start) / trials
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "eigensolve_us": eig,
        "campaign_ms_per_trial": trial_ms,
    }, indent=1))


if __name__ == "__main__":
    main()
