"""Command line front end.

Data goes to stdout (JSON objects for single results, CSV for tables), log
and error text to stderr.  Exit codes: 0 success, 2 invalid input, 3 work
budget exceeded, 4 internal invariant violation.  With fixed seeds every
command prints byte-identical output on repeated runs; pass --timing to add
a wall-clock field that is exempt from that guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .construct import RuzsaParams, predicted_exponent, ruzsa_digit_set, ruzsa_equation
from .counting import (
    DEFAULT_BUDGET,
    count_all_solutions,
    count_distinct_solutions,
    find_distinct_solution,
    solution_report,
)
from .experiments import run_bound_report, run_rn_table
from .fitting import fit_exponent
from .model import (
    BudgetExceededError,
    InvariantViolation,
    ParseError,
    ValidationError,
    make_set,
    parse_equation,
    parse_set_text,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    exact_max_solution_free,
    random_restarts,
)
from .setops import run_inequality_trials

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _real(x: float) -> float:
    """Round a real for output: 12 significant digits."""
    return float(f"{x:.12g}")


def _emit_json(obj) -> None:
    print(json.dumps(obj))


def _load_set(path: str, n_override: int | None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read set file {path}: {exc}") from exc
    values = parse_set_text(text)
    if n_override is not None:
        bound = n_override
    else:
        bound = max(values) if values else 1
    return make_set(values, bound)


def _cmd_construct_ruzsa(args) -> int:
    params = RuzsaParams(d=args.d, k=args.k, N=args.N)
    digit_set = ruzsa_digit_set(params)
    header = {
        "d": params.d,
        "k": params.k,
        "base": params.base,
        "N": params.N,
        "size": len(digit_set.elements),
        "predicted_exponent": _real(predicted_exponent(params.d, params.k)),
    }
    _emit_json(header)
    for v in digit_set.elements:
        print(v)
    return EXIT_OK


def _cmd_count(args) -> int:
    eq = parse_equation(args.eq)
    A = _load_set(args.set, args.N)
    out = {"eq": eq.text(), "N": A.domain_bound, "size": len(A.elements)}
    if args.what == "energy":
        out["E"] = count_all_solutions(A, eq)
    elif args.what == "solutions":
        report = solution_report(A, eq, budget=args.budget)
        out["E"] = report.E
        out["distinct"] = report.distinct
        out["coincident"] = {
            f"{i},{j}": t for (i, j), t in sorted(report.coincident.items())
        }
    else:
        out["method"] = args.method
        out["distinct"] = count_distinct_solutions(
            A, eq, method=args.method, budget=args.budget
        )
    _emit_json(out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    eq = parse_equation(args.eq)
    A = _load_set(args.set, args.N)
    hit = find_distinct_solution(A, eq, budget=args.budget)
    _emit_json(
        {
            "eq": eq.text(),
            "N": A.domain_bound,
            "size": len(A.elements),
            "solution_free": hit is None,
            "solution": list(hit) if hit is not None else None,
        }
    )
    return EXIT_OK


def _search_json(args, eq, res) -> dict:
    out = {
        "N": args.N,
        "eq": eq.text(),
        "size": res.size,
        "exact": res.exact,
        "witness": list(res.witness.elements),
        "nodes_explored": res.nodes_explored,
    }
    if args.timing:
        out["time_ms"] = res.time_ms
    return out


def _cmd_search(args) -> int:
    eq = parse_equation(args.eq)
    if args.mode == "exact":
        res = exact_max_solution_free(args.N, eq, budget=args.budget)
    else:
        res = random_restarts(args.N, eq, trials=args.trials, seed=args.seed)
    _emit_json(_search_json(args, eq, res))
    return EXIT_OK


def _cmd_check_inequalities(args) -> int:
    summary = run_inequality_trials(args.trials, args.seed)
    _emit_json(summary)
    if summary["failures"]:
        print(
            f"error: {len(summary['failures'])} inequality check(s) failed",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_check_bounds(args) -> int:
    eq = parse_equation(args.eq)
    sets = [_load_set(path, args.N) for path in args.set]
    rows = run_bound_report(eq, sets)
    out_rows = []
    for A, rep in rows:
        out_rows.append(
            {
                "N": rep.N,
                "size": rep.M,
                "E": rep.E,
                "lower": _real(float(rep.lower)),
                "upper": rep.upper,
                "lower_holds": rep.lower_holds,
                "upper_applicable": rep.upper_applicable,
                "upper_holds": rep.upper_holds,
            }
        )
    _emit_json({"eq": eq.text(), "sets": out_rows})
    return EXIT_OK


def _cmd_table_rn(args) -> int:
    eq = parse_equation(args.eq)
    rows = run_rn_table(
        eq,
        args.N,
        node_budget=args.budget,
        trials=args.trials,
        seed=args.seed,
    )
    if args.json:
        _emit_json(
            [
                {
                    "N": r.N,
                    "size": r.size,
                    "exact": r.exact,
                    "witness": list(r.witness),
                }
                for r in rows
            ]
        )
        return EXIT_OK
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["N", "size", "exact", "witness"])
    for r in rows:
        writer.writerow(
            [r.N, r.size, "true" if r.exact else "false", " ".join(map(str, r.witness))]
        )
    return EXIT_OK


def _read_points(path: str) -> list[tuple[int, int]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read points file {path}: {exc}") from exc
    points = []
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ValidationError("points file is empty")
    header = rows[0]
    col_n, col_size = 0, 1
    start = 0
    if any(not cell.lstrip("-").isdigit() for cell in header[:2]):
        start = 1
        if "N" in header and "size" in header:
            col_n, col_size = header.index("N"), header.index("size")
    for row in rows[start:]:
        if not row:
            continue
        try:
            points.append((int(row[col_n]), int(row[col_size])))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad points row {row!r}") from exc
    return points


def _cmd_fit(args) -> int:
    res = fit_exponent(_read_points(args.points))
    _emit_json(
        {
            "slope": _real(res.slope),
            "intercept": _real(res.intercept),
            "r_squared": _real(res.r_squared),
            "n_points": len(res.points),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfree",
        description="Solution-free sets for symmetric linear equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build named set families")
    construct_sub = p_construct.add_subparsers(dest="family", required=True)
    p_ruzsa = construct_sub.add_parser(
        "ruzsa", help="digit-restricted solution-free set"
    )
    p_ruzsa.add_argument("--d", type=int, required=True, help="digit cap")
    p_ruzsa.add_argument("--k", type=int, required=True, help="equation arity")
    p_ruzsa.add_argument("--N", type=int, required=True, help="domain bound")
    p_ruzsa.set_defaults(func=_cmd_construct_ruzsa)

    p_count = sub.add_parser("count", help="exact solution counts")
    p_count.add_argument("what", choices=["energy", "solutions", "distinct"])
    p_count.add_argument("--eq", required=True, help="comma-separated coefficients")
    p_count.add_argument("--set", required=True, help="set file (ints or JSON array)")
    p_count.add_argument("--N", type=int, default=None, help="domain bound override")
    p_count.add_argument(
        "--method",
        choices=["enumerate", "inclusion_exclusion"],
        default="inclusion_exclusion",
    )
    p_count.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="verify set properties")
    p_verify.add_argument("property", choices=["solution-free"])
    p_verify.add_argument("--eq", required=True)
    p_verify.add_argument("--set", required=True)
    p_verify.add_argument("--N", type=int, default=None)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="maximum solution-free subsets")
    p_search.add_argument("mode", choices=["exact", "heuristic"])
    p_search.add_argument("--eq", required=True)
    p_search.add_argument("--N", type=int, required=True)
    p_search.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_search.add_argument("--trials", type=int, default=40)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--timing", action="store_true")
    p_search.set_defaults(func=_cmd_search)

    p_check = sub.add_parser("check", help="theorem-backed checkers")
    check_sub = p_check.add_subparsers(dest="checker", required=True)
    p_ineq = check_sub.add_parser("inequalities", help="randomized sumset checks")
    p_ineq.add_argument("--trials", type=int, default=1000)
    p_ineq.add_argument("--seed", type=int, default=0)
    p_ineq.set_defaults(func=_cmd_check_inequalities)
    p_bounds = check_sub.add_parser("bounds", help="energy bound report")
    p_bounds.add_argument("--eq", required=True)
    p_bounds.add_argument("--set", action="append", required=True)
    p_bounds.add_argument("--N", type=int, default=None)
    p_bounds.set_defaults(func=_cmd_check_bounds)

    p_table = sub.add_parser("table", help="experiment tables")
    table_sub = p_table.add_subparsers(dest="table", required=True)
    p_rn = table_sub.add_parser("rn", help="largest solution-free sizes per N")
    p_rn.add_argument("--eq", required=True)
    p_rn.add_argument("--N", type=int, required=True, help="largest N in the table")
    p_rn.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_rn.add_argument("--trials", type=int, default=40)
    p_rn.add_argument("--seed", type=int, default=0)
    p_rn.add_argument("--json", action="store_true", help="JSON rows (default CSV)")
    p_rn.set_defaults(func=_cmd_table_rn)

    p_fit = sub.add_parser("fit", help="log-log exponent fit of (N, size) points")
    p_fit.add_argument("--points", required=True, help="CSV file of N,size rows")
    p_fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
