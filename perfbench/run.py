"""opineq benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload campaign_lowdim --seed 1 --seconds 20 --trace 0

Runs from the repository root (or anywhere: paths are found from this file)
against the sources in ``src/``, in one process and one thread.  The run sets
up its inputs three times, writes the input files of the last set-up, runs
one warm-up round, then times whole rounds until ``--seconds`` have passed,
checking every round's outputs (``checks.py``) and setting up once more after
each round; ``setup_s`` is the median of all the set-ups.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` times untraced rounds, then traced ones, and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is the result as JSON; a copy goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "opineq", "__init__.py")):
        print(f"error: no opineq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import measure  # noqa: E402  (needs the thread pinning and sys.path above)
    import workloads  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), RESULTS)
    measure.report(result, args, RESULTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
