"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps the public functions of every permutiples module and
rebinds each wrapped name in every module that imported it (for example
``permutiples.oracle.enumerate_strings`` as well as
``permutiples.euler.enumerate_strings``), so calls between modules are
recorded too.  Nothing under ``src/`` is edited.

A span is (function, start, end, parent span, op id).  Spans live in flat
arrays while a pass runs; self time is a span's duration minus the
durations of its direct child spans.  Work counts are exact: they are read
from arguments and results (cycles found, strings enumerated, scan
candidates), never from the clock.
"""

from __future__ import annotations

import functools
import io
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

from permutiples import cli, digits, euler, mothergraph, oracle, statemachine
from permutiples import _digraph

# Layer name -> module.  _digraph is reported as part of the mothergraph
# layer: it holds the graph algorithms the mother graph is searched with.
LAYERS = (
    ("digits", digits),
    ("mothergraph", mothergraph),
    ("mothergraph", _digraph),
    ("statemachine", statemachine),
    ("euler", euler),
    ("oracle", oracle),
    ("cli", cli),
)


def public_functions(module: types.ModuleType) -> list[str]:
    """Functions the module defines and exports (its __all__ when it has one)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return sorted(
        n
        for n in names
        if isinstance(getattr(module, n, None), types.FunctionType)
        and getattr(module, n).__module__ == module.__name__
    )


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _candidates(args, kwargs) -> int:
    """Size of the q range a scan of (n, b, length) visits."""
    p = _arg(args, kwargs, 0, "p")
    length = _arg(args, kwargs, 1, "length")
    lo, hi = p.b ** (length - 1), p.b**length
    return (hi - 1) // p.n - (lo + p.n - 1) // p.n + 1


def _cli_out_bytes() -> int:
    # cli.main writes to sys.stdout, which the scan op points at a fresh
    # buffer for every call.
    out = sys.stdout
    return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0


# Per-function work read from one call: (span info, {count name: amount}).
# The span info feeds the counts derived from span structure below.
_WORK = {
    "euler.count_circuits": lambda a, k, r: (r.label_distinct, {"circuits": r.label_distinct}),
    "euler.enumerate_strings": lambda a, k, r: (len(r), {"strings": len(r)}),
    "euler.condition_report": lambda a, k, r: (int(r.verdict), {"accepted": int(r.verdict)}),
    "statemachine.union_images": lambda a, k, r: (
        len(r.multiedges),
        {"multiedges": len(r.multiedges)},
    ),
    "mothergraph.enumerate_cycles": lambda a, k, r: (len(r), {"cycles": len(r)}),
    "oracle.brute_force_search": lambda a, k, r: (
        len(r),
        {"candidates": _candidates(a, k), "hits": len(r)},
    ),
    "oracle.palintiple_count": lambda a, k, r: (r, {"candidates": _candidates(a, k)}),
    "oracle.equivalence_check": lambda a, k, r: (len(r.pipeline_values), {}),
    "cli.main": lambda a, k, r: (0, {"out_bytes": _cli_out_bytes()}),
}

# Counts that exist on every workload, zero where the layer is not called.
COUNT_METRICS = (
    "euler.count_circuits.circuits",
    "euler.enumerate_strings.strings",
    "euler.condition_report.accepted",
    "statemachine.union_images.multiedges",
    "mothergraph.enumerate_cycles.cycles",
    "oracle.brute_force_search.candidates",
    "oracle.brute_force_search.hits",
    "oracle.palintiple_count.candidates",
    "oracle.equivalence_check.multisets",
    "oracle.equivalence_check.accepted",
    "cli.main.out_bytes",
)


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    OP = "op"

    def __init__(self) -> None:
        self.targets: list[tuple[str, types.ModuleType, str]] = []
        for layer, module in LAYERS:
            for fname in public_functions(module):
                self.targets.append((f"{layer}.{fname}", module, fname))
        self.names = [self.OP] + [name for name, _, _ in self.targets]
        self._rebound: list[tuple[types.ModuleType, str, object]] = []
        self._op_span = self._wrap(self.OP, lambda call: call())
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts."""
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.info = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op_id = -1

    def _wrap(self, name: str, fn):
        fid = self.names.index(name)
        work = _WORK.get(name)
        prefix = name + "."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.fn.append(fid)
            self.parent.append(self._stack[-1])
            self.op.append(self._op_id)
            self.info.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if work is not None:
                info, counts = work(args, kwargs, result)
                self.info[idx] = info
                for key, amount in counts.items():
                    self.counts[prefix + key] += amount
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped name in every permutiples module."""
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if n == "permutiples" or n.startswith("permutiples.")
        ]
        for name, module, fname in self.targets:
            original = getattr(module, fname)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def run_op(self, op_id: int, call):
        """Run one benchmark op under a root span carrying its op id."""
        self._op_id = op_id
        try:
            return self._op_span(call)
        finally:
            self._op_id = -1

    def summary(self) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """Per-function calls and self time, and the exact work counts.

        Self time subtracts the durations of direct child spans.  The
        equivalence_check counts come from span structure: a union_images
        span whose parent is equivalence_check is one multiset visited, and a
        condition_report verdict inside one is one accepted multiset.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        per_fn: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_ms": 0.0} for name in self.names[1:]
        }
        fn_id = {name: i for i, name in enumerate(self.names)}
        eq, union, report, strings = (
            fn_id["oracle.equivalence_check"],
            fn_id["statemachine.union_images"],
            fn_id["euler.condition_report"],
            fn_id["euler.enumerate_strings"],
        )
        under_eq = [False] * n
        multisets = accepted = eq_strings = eq_values = 0
        for i in range(n):
            f = self.fn[i]
            par = self.parent[i]
            under_eq[i] = f == eq or (par >= 0 and under_eq[par])
            if f == 0:
                continue
            stats = per_fn[self.names[f]]
            stats["calls"] += 1
            stats["self_ms"] += (self.end[i] - self.start[i] - child[i]) * 1e3
            if f == eq:
                eq_values += self.info[i]
            elif par >= 0 and under_eq[par]:
                if f == union and self.fn[par] == eq:
                    multisets += 1
                elif f == report:
                    accepted += self.info[i]
                elif f == strings:
                    eq_strings += self.info[i]
        counts: dict[str, float] = {key: 0 for key in COUNT_METRICS}
        counts.update(self.counts)
        counts["oracle.equivalence_check.multisets"] = multisets
        counts["oracle.equivalence_check.accepted"] = accepted
        counts["oracle.equivalence_check.accept_ratio"] = (
            accepted / multisets if multisets else 0.0
        )
        counts["oracle.equivalence_check.values_per_string"] = (
            eq_values / eq_strings if eq_strings else 0.0
        )
        return per_fn, counts

    def arrays(self) -> tuple:
        """The recorded spans as (function id, start, end, parent, op) arrays."""
        return self.fn, self.start, self.end, self.parent, self.op


def write_tsv(out, names: list[str], fn, start, end, parent, op) -> None:
    """Write one pass's spans, one per line; times are seconds from its first."""
    out.write("id\tfunction\tstart_s\tend_s\tparent\top\n")
    t0 = start[0] if len(start) else 0.0
    for i in range(len(start)):
        out.write(
            f"{i}\t{names[fn[i]]}\t{start[i] - t0:.7f}\t{end[i] - t0:.7f}\t"
            f"{parent[i]}\t{op[i]}\n"
        )
