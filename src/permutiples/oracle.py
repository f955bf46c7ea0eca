"""Brute-force ground truth, straight from the defining equation.

Candidates are checked by direct base-b arithmetic only, so the graph
pipeline has a fully independent answer to agree with.  The scans iterate
over the multiplicand q and test m = n*q, which covers exactly the shared
search convention: the product fills all of its digit positions (leading
digit nonzero) while the multiplicand is compared on its zero padding.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def brute_force_search(
    p: Params, length: int, max_scan: int = DEFAULT_MAX_SCAN
) -> tuple[PermutipleWitness, ...]:
    """All length-digit permutiples for (n, b), as verified witnesses.

    A hit is an m with exactly `length` digits, divisible by n, whose
    quotient's zero-padded digits are a permutation of m's digits.  Results
    come back ordered by m.
    """
    _check_budget(p, length, max_scan)
    lo = p.b ** (length - 1)
    hi = p.b**length
    results = []
    q_lo = (lo + p.n - 1) // p.n
    q_hi = (hi - 1) // p.n
    for q in range(q_lo, q_hi + 1):
        m = p.n * q
        dm = digits_of(m, p.b, length)
        dq = digits_of(q, p.b, length)
        if sorted(dm.digits) != sorted(dq.digits):
            continue
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
    """(index, multiplicity) selections whose edge counts sum to total."""
    out: list[tuple[int, int]] = []

    def rec(i: int, remaining: int):
        if remaining == 0:
            yield tuple(out)
            return
        if i == len(cycle_lengths):
            return
        yield from rec(i + 1, remaining)
        step = cycle_lengths[i]
        k = 1
        while k * step <= remaining:
            out.append((i, k))
            yield from rec(i + 1, remaining - k * step)
            out.pop()
            k += 1

    yield from rec(0, total)


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
