"""The carry state machine driven by digit pairs.

Reading a product least-significant digit first while multiplying by the
single digit n walks a finite machine whose states are the possible carries
0..n-1.  Every allowed digit pair induces exactly one transition, so the
machine is a labeled directed multigraph with one multiedge per mother-graph
edge; this is the Hoey-Sloane multigraph of (n, b).  The strings the machine
accepts are the label sequences of walks from carry 0 back to carry 0, and
permutiple strings are exactly the accepted strings whose two digit tracks
agree as multisets.

Sub-multigraphs picked out by mother-graph cycles, and multiset unions of
those, are what the Eulerian layer consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .digits import CarrySeq, DigitVec, Params, PermutipleWitness, find_permutation
from .digits import _exact, _ints, _trusted
from .errors import NotAnLWalkError, RejectedPairError, UnknownCycleIndexError
from .mothergraph import Cycle, DigitPair, _carry_row, _step

__all__ = [
    "LabeledMultiedge",
    "HSMultigraph",
    "CycleMultiset",
    "PermutipleString",
    "transition",
    "build_hs_multigraph",
    "cycle_multi_image",
    "union_images",
    "string_to_witness",
    "group_by_transition",
    "multigraph_to_dot",
]


class LabeledMultiedge(NamedTuple):
    """One transition of the carry machine: c1 --(d1,d2)--> c2."""

    c1: int
    c2: int
    label: DigitPair


def transition(pair: DigitPair | tuple[int, int], p: Params) -> tuple[int, int]:
    """The unique carry transition (c1, c2) a digit pair induces.

    It is the step n*d2 + c1 = d1 + b*c2 with both carries in 0..n-1,
    solved in O(1) for this one pair, by the rule the builders read per carry.
    Raises ValueError for digits outside 0..b-1 and RejectedPairError for a
    pair no step writes.

    >>> transition((9, 9), Params(4, 10))
    (3, 3)
    """
    step = _step(pair, p)
    if step is None:
        raise RejectedPairError(f"pair {DigitPair(*pair)} is rejected for {p}")
    return step


@dataclass(frozen=True, slots=True)
class HSMultigraph:
    """Carry-state multigraph over the states 0..n-1.

    multiedges is kept sorted; repeated entries are how a multiset union
    carries the same labeled transition more than once.  Every entry must
    be the carry step its label induces, by the rule transition() solves;
    non-digit labels, rejected pairs and wrong carries raise ValueError.
    Integral float labels and carries are stored as ints.  This module's
    own builders skip the check through digits._trusted(HSMultigraph).
    """

    params: Params
    multiedges: tuple[LabeledMultiedge, ...]

    def __post_init__(self) -> None:
        canon = sorted(
            LabeledMultiedge(c1, c2, DigitPair(*map(_exact, lbl)))
            for c1, c2, lbl in self.multiedges
        )
        for i, e in enumerate(canon):
            step = _step(e.label, self.params)
            if step != (e.c1, e.c2):
                raise ValueError(f"multiedge {e} is not the carry step of its label")
            canon[i] = LabeledMultiedge(*step, e.label)
        object.__setattr__(self, "multiedges", tuple(canon))

    def active_states(self) -> tuple[int, ...]:
        """States with at least one incident multiedge, ascending."""
        seen = set()
        for e in self.multiedges:
            seen.add(e.c1)
            seen.add(e.c2)
        return tuple(sorted(seen))

    def label_multiplicities(self) -> Counter:
        return Counter(e.label for e in self.multiedges)

    def __len__(self) -> int:
        return len(self.multiedges)


def build_hs_multigraph(p: Params) -> HSMultigraph:
    """The full carry machine: one multiedge per mother-graph edge."""
    steps = ((c1, *step) for c1 in range(p.n) for step in _carry_row(p, c1))
    edges = sorted(LabeledMultiedge(c1, c2, DigitPair(d1, d2)) for c1, d2, d1, c2 in steps)
    return _trusted(HSMultigraph)(params=p, multiedges=tuple(edges))


def cycle_multi_image(cycle: Cycle, p: Params) -> HSMultigraph:
    """The sub-multigraph the carry machine assigns to one digit cycle."""
    edges = sorted(LabeledMultiedge(*transition(pair, p), pair) for pair in cycle.edges)
    return _trusted(HSMultigraph)(params=p, multiedges=tuple(edges))


@dataclass(frozen=True, slots=True)
class CycleMultiset:
    """Multiplicities over canonical cycle indices of one inventory."""

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        indices = _ints((i for i, _ in counts), "cycle index")
        canon = tuple(sorted(zip(indices, _ints((m for _, m in counts), "multiplicity"))))
        object.__setattr__(self, "counts", canon)
        seen = set()
        for i, m in canon:
            if i < 0:
                raise ValueError(f"cycle index {i} is negative")
            if m < 1:
                raise ValueError(f"multiplicity for cycle {i} must be positive, got {m}")
            if i in seen:
                raise ValueError(f"cycle index {i} listed twice")
            seen.add(i)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "CycleMultiset":
        """Multiset from a plain list of indices, repetition = multiplicity."""
        return cls(tuple(Counter(_ints(indices, "cycle index")).items()))

    def items(self) -> tuple[tuple[int, int], ...]:
        return self.counts

    def __str__(self) -> str:
        return "{" + ", ".join(f"{i}: {m}" for i, m in self.counts) + "}"


def union_images(ms: CycleMultiset, p: Params, inventory: Sequence[Cycle]) -> HSMultigraph:
    """Multiset union of the multi-images of the cycles named by ms.

    inventory is the canonical cycle inventory the indices of ms name:
    enumerate_cycles of the (n, b) mother graph, or of a class graph to
    work inside one class.  The empty multiset gives the empty multigraph.
    Raises UnknownCycleIndexError for an index the inventory does not have,
    and what transition() raises for a cycle edge that is not an allowed pair.
    """
    images = {}
    for index, _ in ms.items():
        if index >= len(inventory):
            raise UnknownCycleIndexError(
                f"cycle index {index} outside inventory of {len(inventory)} cycles"
            )
        images[index] = cycle_multi_image(inventory[index], p).multiedges
    return _join_images(p, images, ms.items())


def _join_images(
    p: Params,
    images: Sequence[tuple[LabeledMultiedge, ...]] | Mapping[int, tuple[LabeledMultiedge, ...]],
    counts: Iterable[tuple[int, int]],
) -> HSMultigraph:
    """The union that takes images[i] mult times for each (i, mult) of counts."""
    edges = tuple(sorted(e for i, m in counts for e in images[i] * m))
    return _trusted(HSMultigraph)(params=p, multiedges=edges)


@dataclass(frozen=True, slots=True)
class PermutipleString:
    """A digit-pair string, least significant position first.

    Integral float digits are stored as ints; other values are kept as
    given, and string_to_witness rejects them.
    """

    pairs: tuple[DigitPair, ...]

    def __post_init__(self) -> None:
        canon = tuple(DigitPair(*map(_exact, e)) for e in self.pairs)
        object.__setattr__(self, "pairs", canon)
        if not canon:
            raise ValueError("a pair string holds at least one pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return "".join(str(e) for e in self.pairs)


def string_to_witness(s: PermutipleString, p: Params) -> PermutipleWitness:
    """Replay the carry machine over the string and assemble the witness.

    First components spell the product, second components the multiplicand,
    both least significant first.  Raises NotAnLWalkError unless the induced
    walk starts and ends at carry 0 with every step consistent (and
    RejectedPairError if some pair has no transition at all).  Acceptance of
    the walk guarantees the value relation; whether the string is a genuine
    permutiple additionally needs the two digit tracks to agree as multisets,
    which the witness report of the result states.

    At carry c, (d1, d2) is the step when divmod(n*d2 + c, b) gives d1 and an
    int carry in 0..n-1; any other pair goes through transition().  The digits
    are then known to be in range and the carries one longer than the digits,
    so the digit vectors, the carries and the witness skip re-validation.
    """
    n, b = p.n, p.b
    carries = [0]
    state = 0
    for d1, d2 in s.pairs:
        # Inline, not a call per pair: this runs for every pair of every string,
        # and a _multiply call here made the function 27% slower (CPython 3.11).
        c2, w = divmod(n * d2 + state, b)
        if w != d1 or type(c2) is not int or not 0 <= c2 < n:
            i = len(carries) - 1  # carries holds the initial 0 and one per pair read
            c1, c2 = transition(s.pairs[i], p)
            if c1 != state:
                if i == 0:
                    raise NotAnLWalkError(f"walk starts at carry {c1}, not 0")
                raise NotAnLWalkError(
                    f"pair {s.pairs[i]} at position {i} needs carry {c1} but the walk is at {state}"
                )
        state = c2
        carries.append(c2)
    if state != 0:
        raise NotAnLWalkError(f"walk ends at carry {state}, not 0")
    products, multiplicands = zip(*s.pairs)
    digits = _trusted(DigitVec)(digits=products, base=b)
    permuted = _trusted(DigitVec)(digits=multiplicands, base=b)
    return _trusted(PermutipleWitness)(
        params=p,
        digits=digits,
        permuted=permuted,
        carries=_trusted(CarrySeq)(carries=tuple(carries)),
        sigma=find_permutation(digits, permuted),
    )


def group_by_transition(g: HSMultigraph) -> Mapping[tuple[int, int], tuple[DigitPair, ...]]:
    """Collapse to the classic state-graph view: labels per (c1, c2) arrow.

    Purely a display/reporting convenience; the multigraph itself stays the
    authoritative object because unions need multiplicities.
    """
    grouped: dict[tuple[int, int], list[DigitPair]] = {}
    for e in g.multiedges:
        grouped.setdefault((e.c1, e.c2), []).append(e.label)
    return {k: tuple(v) for k, v in grouped.items()}


def multigraph_to_dot(g: HSMultigraph, name: str = "carry_machine") -> str:
    """Graphviz source: one arrow per multiedge, labels rendered d1,d2.

    State 0 is drawn as the initial/accepting state (doublecircle plus an
    entry arrow) whenever it has positive degree.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    active = g.active_states()
    if 0 in active:
        lines.append("  __start [shape=point];")
    for s in active:
        shape = "doublecircle" if s == 0 else "circle"
        lines.append(f"  {s} [shape={shape}];")
    if 0 in active:
        lines.append("  __start -> 0;")
    for e in g.multiedges:
        lines.append(f'  {e.c1} -> {e.c2} [label="{e.label.d1},{e.label.d2}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
