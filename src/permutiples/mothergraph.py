"""Digit-pair graphs: which pairs an (n, b)-permutiple may use at all.

A pair (d1, d2) can serve as some position's (product digit, multiplicand
digit) only when one step of multiplying by n writes it: n*d2 + c1 = d1 +
b*c2 with carries in 0..n-1.  That step is written once, in _multiply;
_carry_row applies it to one carry's b digits; _step solves it for one pair.
All such pairs of digits 0..b-1 form the mother graph for (n, b); the pairs
one witness actually uses form its class graph, a subgraph.  Edge multisets
of permutiples always split into elementary directed cycles of the mother
graph, which is why the cycle inventory built here is the currency the rest
of the package trades in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ._digraph import elementary_cycles
from .digits import Params, PermutipleWitness, _exact, _trusted

__all__ = [
    "DigitPair",
    "DigitGraph",
    "MotherGraph",
    "ClassGraph",
    "Cycle",
    "edge_allowed",
    "build_mother_graph",
    "graph_of_witness",
    "enumerate_cycles",
    "graph_to_dot",
    "DEFAULT_MAX_CYCLES",
]

DEFAULT_MAX_CYCLES = 10_000


class DigitPair(NamedTuple):
    """Directed edge (d1, d2): d1 the product digit, d2 the multiplicand digit."""

    d1: int
    d2: int

    def __str__(self) -> str:
        return f"({self.d1},{self.d2})"


def _multiply(p: Params, d2: int, c1: int) -> tuple[int, int]:
    """(c2, d1): digit d2 times n plus carry c1 writes d1 and carries c2 out."""
    return divmod(p.n * d2 + c1, p.b)


def _carry_row(p: Params, c1: int) -> list[tuple[int, int, int]]:
    """The b steps out of carry c1, as (d2, d1, c2) by ascending d2.

    The n carries write n distinct digits d1 for each d2, so the rows of
    c1 = 0..n-1 hold the n*b allowed pairs, each once.
    """
    return [(d2, d1, c2) for d2 in range(p.b) for c2, d1 in [_multiply(p, d2, c1)]]


def _step(pair: DigitPair | tuple[int, int], p: Params) -> tuple[int, int] | None:
    """The carry step of a pair of base-b digits, or None when it is not allowed.

    Works on the one pair, in O(1) at any base: the only carry that can
    write d1 from d2 is c1 = (d1 - n*d2) mod b, and it must be below n.
    A digit that is not a number raises ValueError naming it; non-integral
    values inside the digit range are never allowed.
    """
    d1, d2 = map(_exact, pair)
    if not (0 <= d1 < p.b and 0 <= d2 < p.b):
        raise ValueError(f"pair ({d1},{d2}) is not made of base-{p.b} digits")
    if type(d1) is not int or type(d2) is not int:
        return None
    c1 = (d1 - p.n * d2) % p.b
    if c1 >= p.n:
        return None
    return c1, _multiply(p, d2, c1)[0]


def edge_allowed(pair: DigitPair | tuple[int, int], p: Params) -> bool:
    """Whether the pair satisfies the residue inequality for (n, b)."""
    return _step(pair, p) is not None


@dataclass(frozen=True, slots=True)
class DigitGraph:
    """A set of allowed digit pairs, viewed as a digraph on 0..b-1."""

    params: Params
    edges: tuple[DigitPair, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted({DigitPair(*map(_exact, e)) for e in self.edges}))
        object.__setattr__(self, "edges", canon)
        for e in canon:
            if not edge_allowed(e, self.params):
                raise ValueError(f"edge {e} violates the residue inequality for {self.params}")

    @property
    def vertices(self) -> range:
        return range(self.params.b)

    def successors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.d1].append(e.d2)
        return adj


@dataclass(frozen=True, slots=True)
class MotherGraph(DigitGraph):
    """The full graph of allowed pairs; construction checks completeness."""

    def __post_init__(self) -> None:
        # Not zero-argument super(): slots=True makes a new class, which the
        # compiled method's __class__ cell does not name.
        DigitGraph.__post_init__(self)
        # The edges are distinct allowed pairs, and n*b pairs are allowed.
        if len(self.edges) != self.params.n * self.params.b:
            raise ValueError(f"mother graph for {self.params} must hold every allowed pair")


@dataclass(frozen=True, slots=True)
class ClassGraph(DigitGraph):
    """The pairs some witness actually uses; any subgraph of allowed pairs."""


def build_mother_graph(p: Params) -> MotherGraph:
    """Every allowed digit pair for (n, b), in lexicographic order."""
    pairs = (DigitPair(d1, d2) for c1 in range(p.n) for d2, d1, _ in _carry_row(p, c1))
    return _trusted(MotherGraph)(params=p, edges=tuple(sorted(pairs)))


def graph_of_witness(w: PermutipleWitness) -> ClassGraph:
    """The digit pairs a witness uses, one edge per distinct pair."""
    pairs = {DigitPair(d, q) for d, q in zip(w.digits.digits, w.permuted.digits)}
    return ClassGraph(w.params, tuple(sorted(pairs)))


@dataclass(frozen=True, slots=True)
class Cycle:
    """An elementary directed cycle, stored from its smallest vertex.

    edges[i] runs from vertex edges[i].d1 to edges[i].d2 and consecutive
    edges are incident, wrapping around at the end; no vertex repeats.  The
    rotation starting at the smallest vertex is the canonical form, so equal
    cycles compare equal no matter how they were traversed.  enumerate_cycles
    builds its cycles through digits._trusted(Cycle), which skips these checks.
    """

    edges: tuple[DigitPair, ...]

    def __post_init__(self) -> None:
        canon = tuple(DigitPair(*map(_exact, e)) for e in self.edges)
        object.__setattr__(self, "edges", canon)
        if not canon:
            raise ValueError("a cycle has at least one edge")
        k = len(canon)
        for i in range(k):
            if canon[i].d2 != canon[(i + 1) % k].d1:
                raise ValueError(f"edges {canon[i]} and {canon[(i + 1) % k]} do not chain")
        verts = [e.d1 for e in canon]
        if len(set(verts)) != k:
            raise ValueError("cycle visits a vertex twice")
        if canon[0].d1 != min(verts):
            raise ValueError("cycle must start at its smallest vertex")

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return "".join(str(e) for e in self.edges)


def enumerate_cycles(
    g: DigitGraph, max_cycles: int = DEFAULT_MAX_CYCLES
) -> tuple[Cycle, ...]:
    """All elementary cycles of g, sorted by length then edge sequence.

    The position of a cycle in the returned tuple is its canonical index,
    the stable handle everything else uses to name cycles of g.  Works for
    the mother graph and for class graphs alike.  It is the bounded search
    of _short_cycles at length b, which no elementary cycle on b vertices
    exceeds.  Raises CapExceededError when more than max_cycles cycles exist.
    """
    return _short_cycles(g, len(g.vertices), max_cycles)


def _short_cycles(
    g: DigitGraph, length: int, max_cycles: int = DEFAULT_MAX_CYCLES
) -> tuple[Cycle, ...]:
    """The cycles of g with at most `length` edges, with their canonical indices.

    Equal to the prefix of enumerate_cycles(g) that holds them, so every
    index names the same cycle, but the search never looks at longer
    cycles.  Raises CapExceededError when more than max_cycles of them exist.
    """
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be positive, got {max_cycles}")
    raw = elementary_cycles(g.vertices, g.successors(), length, max_cycles)
    # Each vertex list is elementary and starts at its smallest vertex; a plain
    # (d1, d2) tuple hashes and compares equal to the graph's own DigitPair.
    edge = {e: e for e in g.edges}
    cycles = [tuple(map(edge.__getitem__, zip(vs, vs[1:] + vs[:1]))) for vs in raw]
    cycles.sort(key=lambda edges: (len(edges), edges))
    return tuple([_trusted(Cycle)(edges=edges) for edges in cycles])


def graph_to_dot(g: DigitGraph, name: str = "digit_graph") -> str:
    """Graphviz source for a digit graph."""
    lines = [f"digraph {name} {{"]
    for v in g.vertices:
        lines.append(f"  {v};")
    for e in g.edges:
        lines.append(f"  {e.d1} -> {e.d2};")
    lines.append("}")
    return "\n".join(lines) + "\n"
