"""Brute-force ground truth, straight from the defining equation.

Candidates are checked by direct base-b arithmetic only, so the graph
pipeline has a fully independent answer to agree with.  The scans iterate
over the multiplicand q and test m = n*q, which covers exactly the shared
search convention: the product fills all of its digit positions (leading
digit nonzero) while the multiplicand is compared on its zero padding.

Two facts keep the scans short.  A digit permutation keeps the digit sum,
and a number is congruent to its digit sum modulo b-1, so every hit has
m = q (mod b-1), that is (n-1)q = 0 (mod b-1): only multiples of
(b-1)/gcd(n-1, b-1) can be hits, and the general scan steps over the
rest.  It then compares digit multisets as packed histograms looked up
per half of the number, and builds digit vectors for hits alone.  The
plain per-candidate loop it replaces is kept in the tests as the
reference it must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .digits import (
    Params,
    PermutipleWitness,
    carry_sequence,
    digits_of,
    find_permutation,
    value,
)
from .errors import BudgetExceededError
from .euler import (
    DEFAULT_MAX_STRINGS,
    FORBID_LEADING_ZERO,
    EnumerationOptions,
    enumerate_strings,
)
from .mothergraph import DEFAULT_MAX_CYCLES, build_mother_graph, enumerate_cycles
from .statemachine import CycleMultiset, string_to_witness, union_images

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
    if p.b**length > max_scan:
        raise BudgetExceededError(
            f"scanning {length} base-{p.b} digits needs {p.b ** length} candidates, "
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
    of two precomputed histogram signatures, one per half; digit vectors,
    carries and permutations are built for hits only.  The budget check
    still counts all b**length candidates.
    """
    _check_budget(p, length, max_scan)
    if length == 1:
        # m = n*q > q, so their single digits differ.  Returning here also
        # spares a one-digit scan of a huge base its tables: signatures are
        # b*field bits wide, and a width-1 table holds b of them.
        return ()
    n, b = p.n, p.b
    q_first, q_last, stride = _scan_range(p, length)
    field = length.bit_length()
    low_width = length // 2
    split = b**low_width
    low = _signature_table(b, low_width, field)
    high = _signature_table(b, length - low_width, field)
    results = []
    for q in range(q_first, q_last + 1, stride):
        m = n * q
        m_high, m_low = divmod(m, split)
        q_high, q_low = divmod(q, split)
        if high[m_high] + low[m_low] != high[q_high] + low[q_low]:
            continue
        dm = digits_of(m, b, length)
        dq = digits_of(q, b, length)
        results.append(
            PermutipleWitness(p, dm, dq, carry_sequence(dm, dq, p), find_permutation(dm, dq))
        )
    return tuple(results)


def palintiple_count(p: Params, length: int, max_scan: int = DEFAULT_MAX_SCAN) -> int:
    """How many length-digit numbers equal n times their digit reversal.

    Reversal acts on the full length-digit padding.  The scan runs in
    chunked numpy int64 arithmetic; everything stays well inside exact
    integer range and positive operands, so floor division is exact.
    """
    if length < 2:
        raise ValueError(f"reversal needs at least 2 digit positions, got {length}")
    _check_budget(p, length, max_scan)
    if p.n * p.b**length >= 2**62:
        raise BudgetExceededError(
            f"products of {length} base-{p.b} digits leave the int64 range of the scan"
        )
    lo = p.b ** (length - 1)
    hi = p.b**length
    q_lo = (lo + p.n - 1) // p.n
    q_hi = (hi - 1) // p.n
    count = 0
    chunk = 1 << 20
    place = [p.b**j for j in range(length)]
    for start in range(q_lo, q_hi + 1, chunk):
        stop = min(start + chunk, q_hi + 1)
        q = np.arange(start, stop, dtype=np.int64)
        m = p.n * q
        ok = np.ones(m.shape, dtype=bool)
        for j in range(length):
            ok &= (m // place[j]) % p.b == (q // place[length - 1 - j]) % p.b
            if not ok.any():
                break
        count += int(ok.sum())
    return count


@dataclass(frozen=True)
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


def equivalence_check(
    p: Params,
    length: int,
    max_scan: int = DEFAULT_MAX_SCAN,
    max_strings: int = DEFAULT_MAX_STRINGS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> EquivalenceReport:
    """Compare the values the two routes produce for one digit count.

    Pipeline route: every multiset of canonical mother-graph cycles whose
    edge total is `length`, unioned, filtered by the condition report,
    enumerated with leading zeros forbidden, and read off as product
    values.  Scan route: brute_force_search.  Any symmetric difference
    means one side is wrong.
    """
    inventory = enumerate_cycles(build_mother_graph(p), max_cycles=max_cycles)
    lengths = [len(c.edges) for c in inventory]
    opts = EnumerationOptions(leading_zero=FORBID_LEADING_ZERO, cap=max_strings)
    pipeline: set[int] = set()
    for counts in _cycle_multisets(lengths, length):
        g = union_images(CycleMultiset(counts), p, inventory)
        for s in enumerate_strings(g, opts):
            pipeline.add(value(string_to_witness(s, p).digits))
    brute = {value(w.digits) for w in brute_force_search(p, length, max_scan=max_scan)}
    return EquivalenceReport(p, length, tuple(sorted(pipeline)), tuple(sorted(brute)))
