"""Command-line front end.

Subcommands:
  check           evaluate the two-sided bounds on one instance
  kantorovich     check with the inverse function preset (power:-1)
  fuzz            run a seeded campaign over every registered inequality
  paper-examples  re-derive the three built-in worked examples
  entropy         entropy values and claimed floors for density matrices

Exit codes: 0 all comparisons hold, 1 at least one comparison failed,
2 usage or input error.  Matrix files are JSON objects
{"dim": n, "data": [n*n row-major reals]}; vector files use n entries.
JSON output renders floats with 17 significant digits so reports
round-trip exactly; human output uses 6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bounds import _CdjStack, _claim, _judge, _single, build_context, with_tolerance
from .errors import BadParameter, OpineqError
from .functions import parse_function_spec
from .maps import map_from_info
from .perspectives import DensityOperator, quantum_tsallis_lower_bound, von_neumann_lower_bound
from .rng import _checked_seed, derive_seed
from .spectral import SymmetricMatrix, _array_from_payload
from .verifier import FAMILIES, MAX_TRIALS, TrialSpec, _evaluate_family, random_density, run_campaign

__all__ = ["main", "render_json", "parse_json", "load_matrix_file", "load_vector_file"]

# the families `check` evaluates, all on one context; of these only the ratio
# sandwich has a precondition, f > 0 on [m, M]
CHECK_FAMILIES = ("chord", "jensen_upper", "jensen_converse", "ratio")


def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


# json.dumps(text) for a str, without the encoder's set-up
_quote = json.encoder.encode_basestring_ascii


def render_json(value) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.

    The report's own types are matched by exact type first; numpy scalars,
    bools, tuples and subclasses take the ``isinstance`` chain after them.
    Strings are quoted as ``json.dumps`` quotes them.
    """
    kind = type(value)
    if kind is float:
        return _format_float(value)
    if kind is list:
        return "[" + ", ".join([render_json(item) for item in value]) + "]"
    if kind is dict:
        parts = [f"{_quote(str(key))}: {render_json(value[key])}" for key in sorted(value)]
        return "{" + ", ".join(parts) + "}"
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
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
        return "[" + ", ".join(render_json(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = [
            f"{json.dumps(str(key))}: {render_json(value[key])}" for key in sorted(value)
        ]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def parse_json(text: str):
    return json.loads(text)


def load_matrix_file(path: str) -> SymmetricMatrix:
    """Strict matrix loader: data length must equal dim**2."""
    with open(path) as handle:
        return SymmetricMatrix(_array_from_payload(json.load(handle), path, 2))


def load_vector_file(path: str) -> np.ndarray:
    with open(path) as handle:
        return _array_from_payload(json.load(handle), path, 1)


def _build_map(spec: str, dim: int):
    name, _, arg = spec.partition(":")
    if name == "corner":
        info = {"tag": "corner", "out_dim": dim - 1}
    elif name in ("trace", "identity"):
        info = {"tag": name}
    elif name == "vecstate":
        if not arg:
            raise BadParameter("vecstate needs a vector file: vecstate:<path>")
        info = {"tag": "vecstate", "vector": load_vector_file(arg)}
    else:
        raise BadParameter(f"unknown map spec {spec!r}")
    return map_from_info(info, dim)


def _matrix_to_list(matrix: SymmetricMatrix) -> list:
    return [[float(x) for x in row] for row in matrix.entries]


def _report_dict(report) -> dict:
    return {
        "label": report.label,
        "lhs": _matrix_to_list(report.lhs),
        "rhs": _matrix_to_list(report.rhs),
        "relation": report.verdict.relation.value,
        "gap_min_eig": report.verdict.gap_min_eig,
        "gap_max_eig": report.verdict.gap_max_eig,
        "tolerance": report.verdict.tolerance_used,
        "tightness": report.tightness,
        "holds": report.holds,
    }


def _human(value: float) -> str:
    return format(value, ".6g")


def cmd_check(args) -> int:
    matrix = load_matrix_file(args.matrix)
    phi = _build_map(args.map, matrix.dim)
    fn = parse_function_spec(args.function)
    ctx = build_context(matrix, phi, fn, args.m, args.M)
    stack = _CdjStack((ctx,))
    reports = []
    notes = []
    for name in CHECK_FAMILIES:
        family = FAMILIES[name]
        kept, items = _evaluate_family(family, stack, 1, family.params)
        if not kept:
            notes.append("ratio sandwich skipped: function is not positive on [m, M]")
        reports.extend(_single(items))
    if args.tol is not None:
        reports = [with_tolerance(r, args.tol) for r in reports]
    plain_claim = _claim("plain_comparison", ctx.f_phi_A, ctx.phi_fA, args.tol)
    _judge([*reports, plain_claim])  # every comparison once, at the tolerance reported
    plain = plain_claim.verdict
    all_hold = all(r.holds for r in reports)
    if args.json:
        payload = {
            "function": fn.name,
            "m": ctx.m,
            "M": ctx.M,
            "alpha": ctx.alpha,
            "beta": ctx.beta,
            "plain_comparison": plain.relation.value,
            "reports": [_report_dict(r) for r in reports],
            "notes": notes,
            "all_hold": all_hold,
        }
        print(render_json(payload))
    else:
        print(f"function {fn.name} on [{_human(ctx.m)}, {_human(ctx.M)}]"
              f"  alpha={_human(ctx.alpha)} beta={_human(ctx.beta)}")
        print(f"plain comparison f(Phi(A)) vs Phi(f(A)): {plain.relation.value}")
        for report in reports:
            status = "ok " if report.holds else "FAIL"
            if report.lhs.dim == 1:
                detail = (f"{_human(report.lhs.as_scalar())} <= "
                          f"{_human(report.rhs.as_scalar())}")
            else:
                detail = f"slack {_human(report.tightness)}"
            print(f"  [{status}] {report.label:<22} {detail}")
        for note in notes:
            print(f"  note: {note}")
    return 0 if all_hold else 1


def _seed(args) -> int:
    """``--seed``, else ``OPINEQ_SEED``, else ``TrialSpec``'s default seed; checked as a campaign's."""
    seed = args.seed if args.seed is not None else int(os.environ.get("OPINEQ_SEED", TrialSpec.seed))
    return _checked_seed(seed)


def cmd_fuzz(args) -> int:
    spec = TrialSpec(seed=_seed(args), dim_range=_parse_dims(args.dims), trials=args.trials,
                     tolerance=args.tol)
    report = run_campaign(spec)
    text = render_json(report.to_dict()) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        report.write_csv(args.csv)
    total = sum(agg["pass"] + agg["fail"] for agg in report.aggregates.values())
    print(
        f"fuzz: seed={spec.seed} trials={spec.trials} checks={total} "
        f"failures={report.total_failures}",
        file=sys.stderr,
    )
    return 0 if report.total_failures == 0 else 1


def _parse_dims(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise BadParameter(f"dimension range must look like 2..8, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise BadParameter(f"bad dimension range {text!r}") from exc


def cmd_paper_examples(_args) -> int:
    from . import worked_examples  # only this command reads them, so other commands start faster

    results = worked_examples.run_all()
    all_ok = True
    for result in results:
        print(result.name)
        for line in result.values:
            status = "ok " if line.ok else "FAIL"
            print(
                f"  [{status}] {line.label}: computed {_human(line.computed)}"
                f" expected {_human(line.expected)} (tol {line.tolerance:g})"
            )
        for flag in result.flags:
            status = "ok " if flag.ok else "FAIL"
            detail = f" ({flag.detail})" if flag.detail else ""
            print(f"  [{status}] {flag.label}{detail}")
        all_ok = all_ok and result.ok
    return 0 if all_ok else 1


def _entropy_row(rho: DensityOperator, p: float) -> dict:
    tsallis_floor = quantum_tsallis_lower_bound(rho, p)
    vn_floor = von_neumann_lower_bound(rho)
    return {
        "dim": rho.dim,
        "m": rho.m,
        "M": rho.M,
        "p": p,
        "von_neumann": vn_floor.entropy,
        "tsallis": tsallis_floor.entropy,
        "tsallis_floor": tsallis_floor.bound,
        "tsallis_floor_slack": tsallis_floor.slack,
        "von_neumann_floor": vn_floor.bound,
        "von_neumann_floor_slack": vn_floor.slack,
        "holds": tsallis_floor.holds and vn_floor.holds,
    }


def cmd_entropy(args) -> int:
    rows = []
    if args.rho:
        rows.append(_entropy_row(DensityOperator(load_matrix_file(args.rho)), args.p))
    elif args.random is not None:
        if not 1 <= args.random <= MAX_TRIALS:
            raise BadParameter(f"--random must be between 1 and {MAX_TRIALS}, got {args.random}")
        seed = _seed(args)
        for index in range(args.random):
            rho = random_density(derive_seed(seed, index), 2 + index % 5)
            rows.append(_entropy_row(rho, args.p))
    else:
        raise BadParameter("provide --rho <path> or --random <n>")
    if args.json:
        print(render_json({"rows": rows}))
    else:
        line = "{:>4} " + "{:>12} " * 6 + "{:>4}"
        print(line.format("dim", "S", "S_p", "S_p floor", "slack", "S floor", "slack", "ok"))
        columns = ("von_neumann", "tsallis", "tsallis_floor", "tsallis_floor_slack",
                   "von_neumann_floor", "von_neumann_floor_slack")
        for row in rows:
            values = [_human(row[key]) for key in columns]
            print(line.format(row["dim"], *values, "ok" if row["holds"] else "NO"))
    return 0 if all(row["holds"] for row in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Numerical verification of two-sided operator bounds for unital positive maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_check_args(p):
        p.add_argument("--matrix", required=True, help="matrix file (JSON)")
        p.add_argument("--map", default="trace",
                       help="corner | vecstate:<path> | trace | identity")
        p.add_argument("--m", type=float, default=None, help="interval lower end")
        p.add_argument("--M", type=float, default=None, help="interval upper end")
        p.add_argument("--tol", type=float, default=None, help="comparison tolerance")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    check = sub.add_parser("check", help="evaluate the two-sided bounds on one instance")
    add_check_args(check)
    check.add_argument("--function", required=True, help="catalog spec, e.g. power:3")
    check.set_defaults(handler=cmd_check)

    kant = sub.add_parser("kantorovich", help="check with the inverse function preset")
    add_check_args(kant)
    kant.set_defaults(handler=cmd_check, function="power:-1")

    fuzz = sub.add_parser("fuzz", help="run a seeded campaign")
    fuzz.add_argument("--seed", type=int, default=None,
                      help=f"campaign seed (default: OPINEQ_SEED or {TrialSpec.seed})")
    fuzz.add_argument("--trials", type=int, default=TrialSpec.trials)
    fuzz.add_argument("--dims", default="%d..%d" % TrialSpec.dim_range, help="dimension range lo..hi")
    fuzz.add_argument("--out", default=None, help="write the JSON report here")
    fuzz.add_argument("--csv", default=None, help="write the per-trial slack table here")
    fuzz.add_argument("--tol", type=float, default=TrialSpec.tolerance)
    fuzz.set_defaults(handler=cmd_fuzz)

    examples = sub.add_parser("paper-examples", help="re-derive the built-in worked examples")
    examples.set_defaults(handler=cmd_paper_examples)

    entropy = sub.add_parser("entropy", help="entropy values and claimed floors")
    entropy.add_argument("--rho", default=None, help="density matrix file (JSON)")
    entropy.add_argument("--random", type=int, default=None, help="number of random density matrices")
    entropy.add_argument("--p", type=float, default=0.5, help="Tsallis order in [-1,1], nonzero")
    entropy.add_argument("--seed", type=int, default=None)
    entropy.add_argument("--json", action="store_true")
    entropy.set_defaults(handler=cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (OpineqError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
