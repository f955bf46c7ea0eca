"""Ground truth from the defining equation, and the palintiple count.

The scan checks candidates by direct base-b arithmetic only, so the graph
pipeline has a fully independent answer to agree with.  It iterates over
the multiplicand q and tests m = n*q, which covers exactly the shared
search convention: the product fills all of its digit positions (leading
digit nonzero) while the multiplicand is compared on its zero padding.

Two facts keep the scan short.  A digit permutation keeps the digit sum,
and a number is congruent to its digit sum modulo b-1, so every hit has
m = q (mod b-1), that is (n-1)q = 0 (mod b-1): only multiples of
(b-1)/gcd(n-1, b-1) can be hits, and the scan steps over the rest.  It
then compares digit multisets as packed histograms looked up per half of
the number, and builds digit vectors for hits alone.

Palintiples, m = n*q with m's digits q's reversed, are counted on the
Hoey-Sloane carry-pair automaton (Sloane, "2178 and all that",
arXiv:1307.0453): positions j and L-1-j hold mirror pairs (z, a) and (a, z),
the state is (carry into j, carry out of L-1-j), and the walk runs from
(0, 0) until the carries meet, for odd L through a middle pair (d, d).
Both routes keep the plain per-candidate loop in the tests as reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .digits import Params, PermutipleWitness, _decimal, digits_of
from .errors import BudgetExceededError
from .euler import DEFAULT_MAX_STRINGS, _closer_first
from .mothergraph import DEFAULT_MAX_CYCLES, _carry_row, _short_cycles, _step, build_mother_graph
from .statemachine import LabeledMultiedge, _join_images, cycle_multi_image

__all__ = [
    "EquivalenceReport",
    "brute_force_search",
    "palintiple_count",
    "equivalence_check",
    "DEFAULT_MAX_SCAN",
]

DEFAULT_MAX_SCAN = 10**7


def _check_budget(p: Params, length: int, max_scan: int) -> None:
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    if max_scan < 1:
        raise ValueError(f"max_scan must be positive, got {max_scan}")
    if length > max_scan.bit_length():
        # b**length >= 2**length > max_scan for every b >= 2; the power is
        # neither computed nor spelled out, whatever its size.
        count = f"{_decimal(p.b)}**{length}"
    elif p.b**length > max_scan:
        count = _decimal(p.b**length)
    else:
        return
    raise BudgetExceededError(
        f"scanning {length} base-{_decimal(p.b)} digits needs {count} candidates, "
        f"budget is {max_scan}"
    )


def _scan_range(p: Params, length: int) -> tuple[int, int, int]:
    """First multiplicand, last multiplicand and stride of a length-digit scan.

    The first multiplicand is the smallest multiple of the stride whose
    product has `length` digits; the stride is (b-1)/gcd(n-1, b-1).
    """
    stride = (p.b - 1) // gcd(p.n - 1, p.b - 1)
    q_lo = (p.b ** (length - 1) + p.n - 1) // p.n
    q_hi = (p.b**length - 1) // p.n
    return -(-q_lo // stride) * stride, q_hi, stride


def _signature_table(b: int, width: int, field: int) -> list[int]:
    """Packed digit histogram of every zero-padded width-digit base-b number.

    Entry i holds, for each digit d, the count of d among the `width`
    digits of i in a `field`-bit slot starting at bit d*field.  Callers add
    histograms of at most 2**field - 1 digits, so no slot carries into the
    next and equal sums mean equal digit multisets.
    """
    ones = [1 << (d * field) for d in range(b)]
    table = [0]
    for _ in range(width):
        table = [t + one for t in table for one in ones]
    return table


def _scan_hits(p: Params, length: int) -> Iterator[tuple[int, int]]:
    """The (m, q) pairs of every length-digit permutiple m = n*q, ordered by m.

    The caller has checked the budget.  A hit still meets the full defining
    equation: m has exactly `length` digits and q's zero-padded digits are
    a permutation of m's.
    """
    if length == 1:
        # m = n*q > q, so their single digits differ.  Returning here also
        # spares a one-digit scan of a huge base its tables: signatures are
        # b*field bits wide, and a width-1 table holds b of them.
        return
    n, b = p.n, p.b
    q_first, q_last, stride = _scan_range(p, length)
    field = length.bit_length()
    low_width = length // 2
    split = b**low_width
    low = _signature_table(b, low_width, field)
    high = _signature_table(b, length - low_width, field)
    for q in range(q_first, q_last + 1, stride):
        m = n * q
        m_high, m_low = divmod(m, split)
        q_high, q_low = divmod(q, split)
        if high[m_high] + low[m_low] == high[q_high] + low[q_low]:
            yield m, q


def brute_force_search(
    p: Params, length: int, max_scan: int = DEFAULT_MAX_SCAN
) -> tuple[PermutipleWitness, ...]:
    """All length-digit permutiples for (n, b), as verified witnesses.

    A hit is an m with exactly `length` digits, divisible by n, whose
    quotient's zero-padded digits are a permutation of m's digits.  Results
    come back ordered by m.

    The scan visits only multiplicands q divisible by (b-1)/gcd(n-1, b-1),
    the only ones whose digit sum can match their product's.  It splits
    m and q at b**(length//2) and compares their digit multisets as sums
    of two precomputed histogram signatures, one per half.  Each hit becomes
    a witness through the public constructors: digits_of pads m and q to
    `length` digits, and PermutipleWitness.build derives the carries and the
    permutation and checks the shape.  The budget check still counts all
    b**length candidates.
    """
    _check_budget(p, length, max_scan)
    return tuple(
        PermutipleWitness.build(p, digits_of(m, p.b, length), digits_of(q, p.b, length))
        for m, q in _scan_hits(p, length)
    )


def palintiple_count(p: Params, length: int, max_scan: int = DEFAULT_MAX_SCAN) -> int:
    """How many length-digit numbers equal n times their digit reversal.

    Reversal acts on the full length-digit padding.  The count walks the
    carry-pair automaton; the budget still counts all b**length candidates.
    """
    if length < 2:
        raise ValueError(f"reversal needs at least 2 digit positions, got {length}")
    _check_budget(p, length, max_scan)
    # moves[low]: (a, carry out of j, mirror's step) for each digit a at j whose
    # pair (z, a) from carry low has an allowed mirror (a, z) at length-1-j
    moves: dict[int, list[tuple[int, int, int, int]]] = {}
    ways = {(0, 0): 1}
    for j in range(length // 2):
        reached: dict[tuple[int, int], int] = {}
        for (low, high), count in ways.items():
            if low not in moves:  # rows only for the carries the walk reaches
                row = _carry_row(p, low)
                moves[low] = [(a, c2, *m) for a, z, c2 in row if (m := _step((a, z), p))]
            for a, c2, h1, h2 in moves[low]:
                if h2 == high and (a or j):  # a becomes the product's leading digit
                    reached[c2, h1] = reached.get((c2, h1), 0) + count
        ways = reached
    if length % 2:  # a middle pair (d, d) steps from low to high; None matches no state
        return sum(ways.get(_step((d, d), p), 0) for d in range(p.b))
    return sum(count for (low, high), count in ways.items() if low == high)


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Agreement between the cycle-multiset pipeline and the direct scan."""

    params: Params
    length: int
    pipeline_values: tuple[int, ...]
    brute_values: tuple[int, ...]

    @property
    def only_pipeline(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.pipeline_values) - set(self.brute_values)))

    @property
    def only_brute(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.brute_values) - set(self.pipeline_values)))

    @property
    def match(self) -> bool:
        return not self.only_pipeline and not self.only_brute


def _cycle_multisets(cycle_lengths, total):
    """(index, multiplicity) selections whose edge counts sum to total.

    Selections come in lexicographic order of their multiplicity vectors,
    first index most significant.  The search runs on an explicit stack, so
    inventories of any size stay clear of the recursion limit, and it drops
    a branch once every remaining cycle is longer than the edges left.
    """
    # shortest[i]: the shortest cycle at index i or later (total + 1 past the end)
    shortest = [total + 1] * (len(cycle_lengths) + 1)
    for i in range(len(cycle_lengths) - 1, -1, -1):
        shortest[i] = min(shortest[i + 1], cycle_lengths[i])
    out: list[tuple[int, int]] = []
    # A frame is [cycle index, edges left, next multiplicity (0 skips the
    # cycle), len(out) when the frame was pushed].
    stack = [[0, total, 0, 0]]
    while stack:
        frame = stack[-1]
        i, remaining, k, depth = frame
        del out[depth:]
        if remaining == 0:
            yield tuple(out)
            stack.pop()
            continue
        if shortest[i] > remaining or k * cycle_lengths[i] > remaining:
            stack.pop()
            continue
        frame[2] = k + 1
        if k:
            out.append((i, k))
        stack.append([i + 1, remaining - k * cycle_lengths[i], 0, len(out)])


def _balance_codes(
    images: Sequence[tuple[LabeledMultiedge, ...]], p: Params, length: int
) -> tuple[list[int], list[bool]]:
    """Per cycle image: packed carry-degree deltas, and contact with carry 0.

    Each edge c1 -> c2 adds place**c2 - place**c1, so slot s of a code holds
    indegree minus outdegree of carry s.  In a union of `length` edges every
    slot stays within -length..length, and with place = 2*length + 1 no slot
    can carry into the next: the summed code is 0 exactly when the union is
    balanced.
    """
    place = 2 * length + 1
    weight = [place**c for c in range(p.n)]
    codes = [sum(weight[c2] - weight[c1] for c1, c2, _ in image) for image in images]
    touches = [any(c1 == 0 or c2 == 0 for c1, c2, _ in image) for image in images]
    return codes, touches


def equivalence_check(
    p: Params,
    length: int,
    max_scan: int = DEFAULT_MAX_SCAN,
    max_strings: int = DEFAULT_MAX_STRINGS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> EquivalenceReport:
    """Compare the values the two routes produce for one digit count.

    Pipeline route: every multiset of canonical mother-graph cycles whose
    edge total is `length`, unioned, enumerated with leading zeros
    forbidden, and each walked string read off as the product its first
    components spell.  Scan route: the brute-force scan's products.  Any
    symmetric difference means one side is wrong.

    The scan budget and the string cap are checked before anything runs.
    The cycle search stops at `length` edges, and max_cycles counts only the
    cycles it finds.  Balance and contact with carry 0 add up over the cycle
    images, each solved once, so a multiset failing either is dropped before
    its union is joined; the BEST count decides the rest.  Distinct multisets
    can share one union, and each union is walked once, from its last edge
    back, so only strings with a nonzero leading digit are walked.
    """
    _check_budget(p, length, max_scan)
    if max_strings < 1:
        raise ValueError(f"max_strings must be positive, got {max_strings}")
    inventory = _short_cycles(build_mother_graph(p), length, max_cycles=max_cycles)
    lengths = [len(c.edges) for c in inventory]
    images = [cycle_multi_image(c, p).multiedges for c in inventory]
    codes, touches = _balance_codes(images, p, length)
    pipeline: set[int] = set()
    walked: set[tuple[LabeledMultiedge, ...]] = set()
    for counts in _cycle_multisets(lengths, length):
        if sum(mult * codes[i] for i, mult in counts) or not any(touches[i] for i, _ in counts):
            continue
        g = _join_images(p, images, counts)
        if g.multiedges in walked:
            continue
        walked.add(g.multiedges)
        for labels in _closer_first(g, True, max_strings):
            m = 0
            for label in labels:
                m = m * p.b + label.d1
            pipeline.add(m)
    brute = tuple(m for m, _ in _scan_hits(p, length))
    return EquivalenceReport(p, length, tuple(sorted(pipeline)), brute)
