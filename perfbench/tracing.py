"""Per-layer tracing of symfree from outside the package.

Pass-through wrappers go around each module's public functions and are
bound in every symfree namespace that holds the function: the defining
module, the package `__init__`, and each importer (`construct` imports
`has_distinct_solution_using`, `setops` imports `energy`, `experiments` and
`cli` import the search entry points).  A call that escaped its wrapper would
charge its time to the caller's layer.

Each wrapped call records a span (layer, parent span, start, end) in flat
arrays; spans stay in memory and are written out once at the end.  A
layer's self time is its spans' durations minus the time covered by their
child spans.  Work counts come only from arguments and return values, so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _bnb(c, args, kwargs, res):
    c["search.bnb.calls"] += 1
    c["search.bnb.nodes"] += res.nodes_explored
    if not res.exact:
        c["search.bnb.budget_outs"] += 1
        c["search.bnb.wasted_nodes"] += res.nodes_explored


def _hypergraph(c, args, kwargs, res):
    eq = _arg(args, kwargs, 1, "eq")
    c["search.hypergraph.subsets"] += math.comb(_arg(args, kwargs, 0, "N"), 2 * eq.k)
    c["search.hypergraph.edges"] += len(res.edges)


def _restarts(c, args, kwargs, res):
    c["search.restarts.trials"] += _arg(args, kwargs, 2, "trials")


def _greedy(c, args, kwargs, res):
    c["construct.greedy.calls"] += 1
    c["construct.greedy.scanned"] += _arg(args, kwargs, 0, "N")
    c["construct.greedy.kept"] += len(res.elements)


def _digits(c, args, kwargs, res):
    c["construct.digits.elements"] += len(res.elements)


def _hits(layer):
    def count(c, args, kwargs, res):
        c[layer + ".calls"] += 1
        # has_distinct_solution_using returns a bool, find_distinct_solution
        # a solution tuple or None; either way a hit is a solution found.
        c[layer + ".hits"] += res is not None and res is not False

    return count


def _rep(c, args, kwargs, res):
    c["counting.rep.calls"] += 1
    c["counting.rep.support"] += len(res.counts)


def _calls(layer):
    def count(c, args, kwargs, res):
        c[layer + ".calls"] += 1

    return count


def _sums(c, args, kwargs, res):
    c["setops.sums.calls"] += 1
    c["setops.sums.out_elems"] += len(res)


def _distinct_layer(args, kwargs) -> str:
    method = _arg(args, kwargs, 2, "method", "enumerate")
    return "counting.distinct_enum" if method == "enumerate" else "counting.distinct_ie"


# (layer, or a function of the call's arguments naming it; module; function;
# counter or None).  Functions sharing a layer add to one self time.
LAYERS = [
    ("search.bnb", "search", "exact_max_solution_free", _bnb),
    ("search.hypergraph", "search", "build_hypergraph", _hypergraph),
    ("search.restarts", "search", "random_restarts", _restarts),
    ("construct.greedy", "construct", "greedy_solution_free", _greedy),
    ("construct.digits", "construct", "ruzsa_digit_set", _digits),
    ("counting.pinned", "counting", "has_distinct_solution_using", _hits("counting.pinned")),
    ("counting.witness", "counting", "find_distinct_solution", _hits("counting.witness")),
    ("counting.witness", "counting", "is_solution_free", None),
    ("counting.rep", "counting", "rep_function", _rep),
    (_distinct_layer, "counting", "count_distinct_solutions", None),
    ("counting.coincident", "counting", "count_coincident", None),
    ("counting.report", "counting", "solution_report", None),
    ("counting.energy", "counting", "energy", _calls("counting.energy")),
    ("counting.energy", "counting", "count_all_solutions", _calls("counting.energy")),
    ("setops.sums", "setops", "sumset", _sums),
    ("setops.sums", "setops", "difference", _sums),
    ("setops.sums", "setops", "iterated_sumset", _sums),
    ("setops.sums", "setops", "sum_of_dilates", _sums),
    ("setops.checks", "setops", "ruzsa_triangle_check", None),
    ("setops.checks", "setops", "plunnecke_check", None),
    ("setops.checks", "setops", "cs_energy_lower_check", None),
    ("setops.trials", "setops", "run_inequality_trials", None),
    ("experiments.rn_table", "experiments", "run_rn_table", None),
    ("experiments.bound_report", "experiments", "run_bound_report", None),
    ("model.make_set", "model", "make_set", _calls("model.make_set")),
    ("cli", "cli", "main", None),
]

SELF_TIME_LAYERS = sorted({layer for layer, *_ in LAYERS if isinstance(layer, str)}
                          | {"counting.distinct_enum", "counting.distinct_ie"})


class Tracer:
    """Installs the LAYERS wrappers while active and keeps their spans."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return lid

    def _wrap(self, layer, fn, count):
        fixed = self._layer_id(layer) if isinstance(layer, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lid = fixed if fixed is not None else self._layer_id(layer(args, kwargs))
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "symfree" or name.startswith("symfree.")]
        wrappers = {}
        for layer, module, name, count in LAYERS:
            fn = getattr(importlib.import_module(f"symfree.{module}"), name)
            wrappers[fn] = self._wrap(layer, fn, count)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if callable(value) and value in wrappers:
                    setattr(m, attr, wrappers[value])
                    self._restore.append((m, attr, value))
        return self

    def __exit__(self, *exc):
        for m, attr, value in reversed(self._restore):
            setattr(m, attr, value)
        self._restore.clear()

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, first: int) -> dict[str, float]:
        """Per-layer self time of the spans recorded since span `first`."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(first, n)]
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= self.end[i] - self.start[i]
        totals: dict[str, float] = defaultdict(float)
        for i, seconds in zip(range(first, n), own):
            totals[self.layer_names[self.layer[i]]] += seconds
        return totals

    def write(self, path) -> None:
        """Spans as tab-separated (span, layer, parent, start_s, end_s)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.layer_names[self.layer[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


# Per-layer metrics, as listed in BENCHMARK.json: (name, unit, better).
PER_LAYER = [
    ("search.bnb.s", "s", "lower"),
    ("search.bnb.calls", "count", "lower"),
    ("search.bnb.nodes", "count", "lower"),
    ("search.bnb.nodes_per_s", "1/s", "higher"),
    ("search.bnb.budget_outs", "count", "lower"),
    ("search.bnb.wasted_node_ratio", "ratio", "lower"),
    ("search.hypergraph.s", "s", "lower"),
    ("search.hypergraph.subsets", "count", "lower"),
    ("search.hypergraph.edges", "count", "lower"),
    ("search.hypergraph.edge_ratio", "ratio", "higher"),
    ("search.restarts.s", "s", "lower"),
    ("search.restarts.trials", "count", "lower"),
    ("construct.greedy.s", "s", "lower"),
    ("construct.greedy.calls", "count", "lower"),
    ("construct.greedy.kept_ratio", "ratio", "higher"),
    ("construct.digits.s", "s", "lower"),
    ("construct.digits.elements", "count", "lower"),
    ("construct.digits.elements_per_s", "1/s", "higher"),
    ("counting.pinned.s", "s", "lower"),
    ("counting.pinned.calls", "count", "lower"),
    ("counting.pinned.hit_ratio", "ratio", "higher"),
    ("counting.witness.s", "s", "lower"),
    ("counting.witness.calls", "count", "lower"),
    ("counting.witness.hit_ratio", "ratio", "higher"),
    ("counting.rep.s", "s", "lower"),
    ("counting.rep.calls", "count", "lower"),
    ("counting.rep.support", "count", "lower"),
    ("counting.distinct_ie.s", "s", "lower"),
    ("counting.distinct_enum.s", "s", "lower"),
    ("counting.coincident.s", "s", "lower"),
    ("counting.report.s", "s", "lower"),
    ("counting.energy.s", "s", "lower"),
    ("counting.energy.calls", "count", "lower"),
    ("setops.sums.s", "s", "lower"),
    ("setops.sums.calls", "count", "lower"),
    ("setops.sums.out_elems", "count", "lower"),
    ("setops.checks.s", "s", "lower"),
    ("setops.trials.s", "s", "lower"),
    ("experiments.rn_table.s", "s", "lower"),
    ("experiments.bound_report.s", "s", "lower"),
    ("model.make_set.s", "s", "lower"),
    ("model.make_set.calls", "count", "lower"),
    ("cli.s", "s", "lower"),
    ("exact_frontier_n", "count", "higher"),
    ("rn_size_sum", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(profiles: list[tuple[dict, Counter]], extra: dict) -> dict[str, float]:
    """PER_LAYER values from traced rounds: median self times, counts from
    the first round (every round must repeat them), plus `extra` figures."""
    seconds = {
        layer: statistics.median(times.get(layer, 0.0) for times, _ in profiles)
        for layer in SELF_TIME_LAYERS
    }
    c = profiles[0][1]
    values = {f"{layer}.s": s for layer, s in seconds.items()}
    values.update(c)
    values.update(extra)
    values["search.bnb.nodes_per_s"] = _ratio(c["search.bnb.nodes"], seconds["search.bnb"])
    values["search.bnb.wasted_node_ratio"] = _ratio(
        c["search.bnb.wasted_nodes"], c["search.bnb.nodes"])
    values["search.hypergraph.edge_ratio"] = _ratio(
        c["search.hypergraph.edges"], c["search.hypergraph.subsets"])
    values["construct.greedy.kept_ratio"] = _ratio(
        c["construct.greedy.kept"], c["construct.greedy.scanned"])
    values["construct.digits.elements_per_s"] = _ratio(
        c["construct.digits.elements"], seconds["construct.digits"])
    for layer in ("counting.pinned", "counting.witness"):
        values[f"{layer}.hit_ratio"] = _ratio(c[f"{layer}.hits"], c[f"{layer}.calls"])
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
