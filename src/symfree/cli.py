"""Command line front end.

Data goes to stdout (JSON objects for single results, CSV for tables), log
and error text to stderr.  Exit codes: 0 success, 2 invalid input, 3 work
budget exceeded or memory exhausted, 4 internal invariant violation, 141
stdout closed by its reader before the output ended.  With
fixed seeds every command prints byte-identical output on repeated runs;
pass --timing to add a wall-clock field that is exempt from that guarantee.

`main(argv)` may be called many times in one process.  It builds its parser
on the first call, never at import, and reuses it: each parse starts from a
fresh namespace and fresh defaults, so every call prints the same bytes as
the same command in a fresh process.  `build_parser()` returns a new parser
on each call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from .construct import RuzsaParams, predicted_exponent, ruzsa_digit_set
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
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Lines per write of `construct ruzsa`.  Blocks this large (about 280 KB for
# the 524,288-member set) leave less of the heap behind than 1,024-line
# ones: max RSS of printing that set and then regenerating it in the same
# process falls from 143.6 to 131.1 MB.
_LINES_PER_WRITE = 16384


def _real(x: float) -> float:
    """Round a real for output: 12 significant digits."""
    return float(f"{x:.12g}")


def _read_file(path: str, kind: str) -> str:
    """The text of an input file; a leading UTF-8 byte-order mark is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc


def _load_set(path: str, n_override: int | None):
    values = parse_set_text(_read_file(path, "set"))
    if n_override is not None:
        bound = n_override
    else:
        bound = max(values) if values else 1
    return make_set(values, bound)


def _cmd_construct_ruzsa(args) -> int:
    params = RuzsaParams(d=args.d, k=args.k, N=args.N)
    digit_set = ruzsa_digit_set(params, budget=args.budget)
    header = {
        "d": params.d,
        "k": params.k,
        "base": params.base,
        "N": params.N,
        "size": len(digit_set.elements),
        "predicted_exponent": _real(predicted_exponent(params.d, params.k)),
    }
    print(json.dumps(header))
    # One write per block of lines, each formatted by one %-operation: fast,
    # and the text is never built whole.
    elements = digit_set.elements
    for i in range(0, len(elements), _LINES_PER_WRITE):
        block = elements[i : i + _LINES_PER_WRITE]
        sys.stdout.write("%d\n" * len(block) % block)
    return EXIT_OK


def _cmd_count(args) -> int:
    eq = parse_equation(args.eq)
    A = _load_set(args.set, args.N)
    out = {"eq": eq.text(), "N": A.domain_bound, "size": len(A.elements)}
    if args.what == "energy":
        out["E"] = count_all_solutions(A, eq, budget=args.budget)
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
    print(json.dumps(out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    eq = parse_equation(args.eq)
    A = _load_set(args.set, args.N)
    hit = find_distinct_solution(A, eq, budget=args.budget)
    out = {
        "eq": eq.text(),
        "N": A.domain_bound,
        "size": len(A.elements),
        "solution_free": hit is None,
        "solution": list(hit) if hit is not None else None,
    }
    print(json.dumps(out))
    return EXIT_OK


def _cmd_search(args) -> int:
    eq = parse_equation(args.eq)
    # Without --budget each mode keeps its own default: a node count for
    # the exact search, work units for each greedy scan.
    budget = {} if args.budget is None else {"budget": args.budget}
    if args.mode == "exact":
        res = exact_max_solution_free(args.N, eq, **budget)
    else:
        res = random_restarts(args.N, eq, trials=args.trials, seed=args.seed, **budget)
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
    print(json.dumps(out))
    return EXIT_OK


def _cmd_check_inequalities(args) -> int:
    summary = run_inequality_trials(args.trials, args.seed)
    print(json.dumps(summary))
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
    rows = run_bound_report(eq, sets, budget=args.budget)
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
    print(json.dumps({"eq": eq.text(), "sets": out_rows}))
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
        print(json.dumps([dataclasses.asdict(r) for r in rows]))
        return EXIT_OK
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["N", "size", "exact", "witness"])
    for r in rows:
        writer.writerow(
            [r.N, r.size, "true" if r.exact else "false", " ".join(map(str, r.witness))]
        )
    return EXIT_OK


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_points(path: str) -> list[tuple[int, int]]:
    points = []
    rows = list(csv.reader(_read_file(path, "points").splitlines()))
    if not rows:
        raise ValidationError("points file is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    col_n, col_size = 0, 1
    start = 0
    if not any(map(_is_number, header[:2])):
        start = 1
        if "n" in header and "size" in header:
            col_n, col_size = header.index("n"), header.index("size")
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
    out = {
        "slope": _real(res.slope),
        "intercept": _real(res.intercept),
        "r_squared": _real(res.r_squared),
        "n_points": len(res.points),
    }
    print(json.dumps(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfree",
        description="Solution-free sets for symmetric linear equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by several subcommands, each defined once; argparse
    # lists a parent's options before the subcommand's own.
    eq = argparse.ArgumentParser(add_help=False)
    eq.add_argument("--eq", required=True, help="comma-separated coefficients")
    one_set = argparse.ArgumentParser(add_help=False)
    one_set.add_argument("--set", required=True, help="set file (ints or JSON array)")
    n_override = argparse.ArgumentParser(add_help=False)
    n_override.add_argument("--N", type=int, default=None, help="domain bound override")
    units = argparse.ArgumentParser(add_help=False)
    units.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--trials", type=int, default=40)
    seeded.add_argument("--seed", type=int, default=0)

    p_construct = sub.add_parser("construct", help="build named set families")
    construct_sub = p_construct.add_subparsers(dest="family", required=True)
    p_ruzsa = construct_sub.add_parser(
        "ruzsa", help="digit-restricted solution-free set", parents=[units]
    )
    p_ruzsa.add_argument("--d", type=int, required=True, help="digit cap")
    p_ruzsa.add_argument("--k", type=int, required=True, help="equation arity")
    p_ruzsa.add_argument("--N", type=int, required=True, help="domain bound")
    p_ruzsa.set_defaults(func=_cmd_construct_ruzsa)

    set_options = [eq, one_set, n_override, units]
    p_count = sub.add_parser("count", help="exact solution counts", parents=set_options)
    p_count.add_argument("what", choices=["energy", "solutions", "distinct"])
    p_count.add_argument(
        "--method",
        choices=["enumerate", "inclusion_exclusion"],
        default="inclusion_exclusion",
    )
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="verify set properties", parents=set_options)
    p_verify.add_argument("property", choices=["solution-free"])
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="maximum solution-free subsets", parents=[eq, seeded])
    p_search.add_argument("mode", choices=["exact", "heuristic"])
    p_search.add_argument("--N", type=int, required=True)
    p_search.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"exact: nodes (default {DEFAULT_NODE_BUDGET}); "
        f"heuristic: work units per scan (default {DEFAULT_BUDGET})",
    )
    p_search.add_argument("--timing", action="store_true")
    p_search.set_defaults(func=_cmd_search)

    p_check = sub.add_parser("check", help="theorem-backed checkers")
    check_sub = p_check.add_subparsers(dest="checker", required=True)
    p_ineq = check_sub.add_parser("inequalities", help="randomized sumset checks")
    p_ineq.add_argument("--trials", type=int, default=1000)
    p_ineq.add_argument("--seed", type=int, default=0)
    p_ineq.set_defaults(func=_cmd_check_inequalities)
    p_bounds = check_sub.add_parser(
        "bounds", help="energy bound report", parents=[eq, n_override, units]
    )
    p_bounds.add_argument("--set", action="append", required=True)
    p_bounds.set_defaults(func=_cmd_check_bounds)

    p_table = sub.add_parser("table", help="experiment tables")
    table_sub = p_table.add_subparsers(dest="table", required=True)
    p_rn = table_sub.add_parser(
        "rn", help="largest solution-free sizes per N", parents=[eq, seeded]
    )
    p_rn.add_argument("--N", type=int, required=True, help="largest N in the table")
    p_rn.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_rn.add_argument("--json", action="store_true", help="JSON rows (default CSV)")
    p_rn.set_defaults(func=_cmd_table_rn)

    p_fit = sub.add_parser("fit", help="log-log exponent fit of (N, size) points")
    p_fit.add_argument("--points", required=True, help="CSV file of N,size rows")
    p_fit.set_defaults(func=_cmd_fit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call reuses: building one takes about 23
    times as long as a parse (1.5 against 0.064 ms on a 2-core Xeon VM)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError as exc:
        # A budget sized past the memory at hand ends here, like a budget
        # that ran out, rather than in a traceback.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # The reader closed stdout early, as `| head -1` does.  The rest of
        # the output is dropped, and stdout goes to devnull so that the
        # flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
