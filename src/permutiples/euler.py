"""When a union of cycle images can be ordered into an accepted string.

A multiset of mother-graph cycles assembles into a permutiple string exactly
when the union of their carry-machine images contains state 0, is strongly
connected on its active states, and has matching indegree and outdegree
everywhere; in that case the strings are precisely the Eulerian circuits
from state 0, read off by their labels.  This module counts the circuits
by the BEST theorem and walks them.  The count is positive exactly when
the three conditions hold, so it alone gates counting and walking;
condition_report states the conditions one by one to explain a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator, NamedTuple, Optional

from ._digraph import strongly_connected_components
from .digits import _trusted
from .errors import CapExceededError
from .statemachine import HSMultigraph, LabeledMultiedge, PermutipleString

__all__ = [
    "ConditionReport",
    "EnumerationOptions",
    "CircuitCounts",
    "condition_report",
    "enumerate_strings",
    "count_circuits",
    "find_eulerian_circuit",
    "count_sequences_by_arborescences",
    "ALLOW_LEADING_ZERO",
    "FORBID_LEADING_ZERO",
    "DEFAULT_MAX_STRINGS",
]

ALLOW_LEADING_ZERO = "allow"
FORBID_LEADING_ZERO = "forbid"
DEFAULT_MAX_STRINGS = 100_000


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """The three acceptance conditions for a carry-state multigraph.

    degree_deltas lists (state, indegree - outdegree) for every active
    state; strongly_connected is judged on active states only, so isolated
    states never count against it.  The empty multigraph fails because no
    zero state is present.
    """

    contains_zero: bool
    strongly_connected: bool
    balanced: bool
    degree_deltas: tuple[tuple[int, int], ...]

    @property
    def verdict(self) -> bool:
        return self.contains_zero and self.strongly_connected and self.balanced


@dataclass(frozen=True, slots=True)
class EnumerationOptions:
    """Knobs for circuit enumeration.

    leading_zero decides whether strings whose most significant product
    digit is 0 are kept.  cap bounds the number of results; crossing it
    raises instead of truncating.
    """

    leading_zero: str = ALLOW_LEADING_ZERO
    cap: int = DEFAULT_MAX_STRINGS

    def __post_init__(self) -> None:
        if self.leading_zero not in (ALLOW_LEADING_ZERO, FORBID_LEADING_ZERO):
            raise ValueError(f"unknown leading-zero mode {self.leading_zero!r}")
        if self.cap < 1:
            raise ValueError(f"cap must be positive, got {self.cap}")


class CircuitCounts(NamedTuple):
    edge_sequences_from_zero: int
    label_distinct: int


def _degrees(g: HSMultigraph) -> tuple[dict[int, int], dict[int, int]]:
    # Only states with a positive degree get a key.
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for e in g.multiedges:
        outdeg[e.c1] = outdeg.get(e.c1, 0) + 1
        indeg[e.c2] = indeg.get(e.c2, 0) + 1
    return indeg, outdeg


def condition_report(g: HSMultigraph) -> ConditionReport:
    """Decide zero-state presence, strong connectivity, and balance for g."""
    indeg, outdeg = _degrees(g)
    active = sorted(set(indeg) | set(outdeg))
    if active:
        adj: dict[int, list[int]] = {v: [] for v in active}
        for e in g.multiedges:
            adj[e.c1].append(e.c2)
        strongly_connected = len(strongly_connected_components(active, adj)) == 1
    else:
        strongly_connected = True
    deltas = tuple((v, indeg.get(v, 0) - outdeg.get(v, 0)) for v in active)
    return ConditionReport(
        contains_zero=0 in set(active),
        strongly_connected=strongly_connected,
        balanced=all(d == 0 for _, d in deltas),
        degree_deltas=deltas,
    )


def _circuits(
    groups: dict[int, list[list]], first_rows: list[list], total: int
) -> Iterator[tuple]:
    """Label sequences of the Eulerian circuits of `total` edges from state 0.

    groups[v] lists the [to, label, multiplicity] rows of the steps out of
    v; _closer_first passes each state's in-edges, so a step runs an edge
    backwards.  Depth-first over the rows in list order, one copy of a
    label at a time, on an explicit stack: depth d holds the rows of the
    state reached after d steps and the index of the row taken there, and
    i is the next row to try at the current depth.  Depth 0 tries
    first_rows: state 0's rows, or a subset of those same rows, whose copy
    counts later visits to 0 share.  Only for multigraphs with a positive
    BEST count: every state reached has rows, and a trail from 0 that uses
    every edge of a balanced multigraph ends at 0.
    """
    labels: list = [None] * total
    taken = [0] * total
    rows_at: list = [None] * total
    rows = first_rows
    depth = i = 0
    while True:
        end = len(rows)
        while i < end and rows[i][2] == 0:
            i += 1
        if i < end:
            row = rows[i]
            labels[depth] = row[1]
            if depth + 1 == total:  # the one edge left closes the circuit
                yield tuple(labels)
                i = end
                continue
            row[2] -= 1
            rows_at[depth] = rows
            taken[depth] = i
            depth += 1
            rows = groups[row[0]]
            i = 0
            continue
        if depth == 0:
            return
        depth -= 1
        rows = rows_at[depth]
        i = taken[depth]
        rows[i][2] += 1
        i += 1


def _closer_first(g: HSMultigraph, forbid_zero: bool, cap: int) -> Iterator[tuple]:
    """g's strings as label tuples, most significant pair first, by ascending value.

    _string_count runs first, so a run over cap raises CapExceededError
    before anything is walked.  The walk runs backwards along the edges from state 0, so its
    first edge is a circuit's closing one, which writes the leading product
    digit: with leading zeros forbidden only the in-edges of 0 with d1 != 0
    start a walk, and no circuit is walked only to be dropped.  A state's
    in-edge rows are keyed and sorted by label, and two labels into one
    state differ in d1, because c2 and d1 fix d2 and c1; so each step takes
    the next digit of the product in increasing order, and the values come
    out strictly ascending.
    """
    if not _string_count(g, forbid_zero, cap):
        return iter(())
    groups: dict[int, dict] = {}
    for e in g.multiedges:
        row = groups.setdefault(e.c2, {}).setdefault(e.label, [e.c1, e.label, 0])
        row[2] += 1
    rows = {v: [by_label[k] for k in sorted(by_label)] for v, by_label in groups.items()}
    first = [row for row in rows[0] if row[1].d1] if forbid_zero else rows[0]
    return _circuits(rows, first, len(g.multiedges))


def enumerate_strings(
    g: HSMultigraph, opts: EnumerationOptions | None = None
) -> tuple[PermutipleString, ...]:
    """Every Eulerian circuit of g from state 0, read as a pair string.

    Returns () whenever the BEST count of count_circuits is 0.  The strings
    come out in strictly ascending value (see _closer_first), taking one
    copy of a label at a time, so circuits differing only in which
    identical copy they used appear once.  Those strings are also
    numerically distinct: the product digits fix m, m = n*q fixes q's
    padded digits, and so the value fixes the whole string.  The walk keeps
    its own stack, so long multigraphs never reach the recursion limit.
    Raises CapExceededError rather than silently truncating; the result
    count is known exactly from the BEST count in both leading-zero modes,
    so an oversized run raises before walking at all.
    """
    if opts is None:
        opts = EnumerationOptions()
    forbid_zero = opts.leading_zero == FORBID_LEADING_ZERO
    build = _trusted(PermutipleString)
    return tuple([build(pairs=labels[::-1]) for labels in _closer_first(g, forbid_zero, opts.cap)])


def _string_count(g: HSMultigraph, forbid_zero: bool, cap: int) -> int:
    """g's label-distinct strings, leading zeros or not; 0 when g spells none.

    Raises CapExceededError when more than cap strings survive the
    leading-zero rule, which both counts know exactly, so no walk starts.
    """
    distinct = count_sequences_by_arborescences(g) // _copy_orders(g)
    # _nonzero_led never exceeds distinct, so runs under the cap skip it.
    if distinct > cap and (not forbid_zero or _nonzero_led(g, distinct) > cap):
        raise CapExceededError(f"more than {cap} strings")
    return distinct


def _nonzero_led(g: HSMultigraph, distinct: int) -> int:
    """How many of g's distinct strings have a nonzero leading product digit.

    A circuit's last edge enters state 0 and writes the most significant
    digit, and each in-edge of 0 ends the same share of the BEST edge
    sequences, so the count is exact.
    """
    into_zero = [e.label.d1 for e in g.multiedges if e.c2 == 0]
    return distinct * sum(1 for d1 in into_zero if d1) // len(into_zero)


def _copy_orders(g: HSMultigraph) -> int:
    """Orders in which the copies of each repeated label can be used."""
    orders = 1
    for mult in g.label_multiplicities().values():
        orders *= factorial(mult)
    return orders


def count_circuits(g: HSMultigraph) -> CircuitCounts:
    """Count Eulerian circuits from state 0, with and without copy identity.

    edge_sequences_from_zero treats every copy of a repeated label as its
    own edge and comes from the arborescence determinant.  Copies of one
    label induce the same transition, so each label-distinct circuit is
    exactly (product of factorials of label multiplicities) edge sequences,
    and label_distinct is the exact quotient.  Nothing is walked; the test
    suite checks both numbers against a backtracking count and against
    enumerate_strings.
    """
    sequences = count_sequences_by_arborescences(g)
    return CircuitCounts(sequences, sequences // _copy_orders(g))


def count_sequences_by_arborescences(g: HSMultigraph) -> int:
    """Eulerian edge sequences from state 0 via spanning in-trees, or 0.

    The number of Eulerian circuits of a connected balanced multigraph is
    (in-trees rooted at any vertex) * product((outdeg - 1)!), and fixing the
    start vertex multiplies by its outdegree.  Loops cancel out of the
    Laplacian and the determinant is taken with exact integer arithmetic.

    The count alone decides acceptance.  It is 0 unless state 0 is active
    and every active state is balanced; the weak components of a balanced
    multigraph are strongly connected, so the in-tree determinant at 0 is
    then nonzero exactly when the active states are strongly connected.
    """
    indeg, outdeg = _degrees(g)
    if 0 not in outdeg or indeg != outdeg:
        return 0
    active = sorted(outdeg)
    pos = {v: i for i, v in enumerate(active)}
    k = len(active)
    lap = [[0] * k for _ in range(k)]
    for v in active:
        lap[pos[v]][pos[v]] = outdeg[v]
    for e in g.multiedges:
        lap[pos[e.c1]][pos[e.c2]] -= 1
    circuits = _int_det([row[1:] for row in lap[1:]])  # state 0 sorts first
    for v in active:
        circuits *= factorial(outdeg[v] - 1)
    return circuits * outdeg[0]


def _int_det(m: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; every division below is exact.
    a = [row[:] for row in m]
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def find_eulerian_circuit(g: HSMultigraph) -> Optional[tuple[LabeledMultiedge, ...]]:
    """One Eulerian circuit from carry 0 by Hierholzer splicing, or None.

    Success is equivalent to the condition-report verdict; the two are
    played against each other in the test suite, so this stays an
    independent route and never consults condition_report.
    """
    remaining: dict[int, list[LabeledMultiedge]] = {}
    for e in g.multiedges:
        remaining.setdefault(e.c1, []).append(e)
    for outs in remaining.values():
        outs.sort(reverse=True)  # pop() then takes the smallest first
    total = len(g.multiedges)
    if total == 0 or not remaining.get(0):
        return None
    trail: list[LabeledMultiedge] = []
    stack: list[tuple[int, Optional[LabeledMultiedge]]] = [(0, None)]
    while stack:
        v, incoming = stack[-1]
        outs = remaining.get(v)
        if outs:
            e = outs.pop()
            stack.append((e.c2, e))
        else:
            stack.pop()
            if incoming is not None:
                trail.append(incoming)
    trail.reverse()
    if len(trail) != total:
        return None
    state = 0
    for e in trail:
        if e.c1 != state:
            return None
        state = e.c2
    if state != 0:
        return None
    return tuple(trail)
