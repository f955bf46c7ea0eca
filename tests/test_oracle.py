from collections import Counter

import pytest

from helpers import (
    cycle_index,
    naive_palintiple_count,
    naive_permutiples,
    peel_cycle_cover,
    reference_witness,
    walked_circuits,
)
from permutiples import (
    BudgetExceededError,
    CapExceededError,
    CycleMultiset,
    EquivalenceReport,
    Params,
    brute_force_search,
    build_mother_graph,
    condition_report,
    count_sequences_by_arborescences,
    edge_allowed,
    enumerate_cycles,
    equivalence_check,
    mothergraph,
    oracle,
    palintiple_count,
    union_images,
    value,
    verify_witness,
)
from permutiples.euler import _closer_first
from permutiples.oracle import _cycle_multisets, _scan_hits, _signature_table

P24 = Params(2, 4)
P410 = Params(4, 10)


# === brute-force scan ===


def test_scan_two_four_three_digits():
    ws = brute_force_search(P24, 3)
    assert [value(w.digits) for w in ws] == [18, 36, 54]
    for w in ws:
        assert verify_witness(w).is_permutiple
        assert value(w.digits) == 2 * value(w.permuted)


def test_scan_four_ten_five_digits():
    ws = brute_force_search(P410, 5)
    assert len(ws) == 20
    values = [value(w.digits) for w in ws]
    assert values == sorted(values)
    assert 87912 in values
    for w in ws:
        assert verify_witness(w).is_permutiple
        assert value(w.digits) % 4 == 0
        assert len(w.digits) == 5


def test_scan_finds_nothing_at_trivial_lengths():
    assert brute_force_search(P24, 1) == ()
    assert brute_force_search(P24, 2) == ()


def test_one_digit_scan_builds_no_tables(monkeypatch):
    # a width-1 table for base 10**7 would hold 10**7 signatures of 10**7 bits
    def no_tables(*args):
        raise AssertionError("signature table built for a one-digit scan")

    monkeypatch.setattr("permutiples.oracle._signature_table", no_tables)
    assert brute_force_search(Params(2, 10**7), 1) == ()


def test_scan_results_use_full_width_padding():
    # 10872 = 4 * 2718: the quotient only reaches five digits as 02718, and
    # at the join's split 10**2 its high half 027 starts with a zero
    ws = brute_force_search(P410, 5)
    w = next(w for w in ws if value(w.digits) == 10872)
    assert w.permuted.msd == (0, 2, 7, 1, 8)
    assert w.digits.msd == (1, 0, 8, 7, 2)


# Every small (n, b) up to base 8, at every length with at most 20 000
# candidates (L=1 has no permutiples), plus (4, 10, 5).  The lengths are
# even and odd, so the join's high half is as wide as its low half or one
# digit wider, and they start at L = 2 and 3, where the low half is one digit.
NAIVE_CASES = {(n, b): [L for L in range(1, 10) if b**L <= 20_000]
               for b in range(3, 9) for n in range(2, b)}
NAIVE_CASES[(4, 10)] = [5]


@pytest.mark.parametrize("n,b", sorted(NAIVE_CASES))
def test_scan_agrees_with_naive_loop(n, b):
    p = Params(n, b)
    for length in NAIVE_CASES[(n, b)]:
        found = [(value(w.digits), value(w.permuted)) for w in brute_force_search(p, length)]
        assert found == [(m, m // n) for m in naive_permutiples(p, length)], length


@pytest.mark.parametrize("length,count", [(8, 5_082), (10, 219_289)])
def test_join_counts_equal_the_pipeline_baseline(length, count):
    # past the default scan budget; the counts are the pipeline's for (4, 10)
    hits = list(_scan_hits(P410, length))
    assert len(hits) == count
    assert [m for m, _ in hits] == sorted({m for m, _ in hits})
    assert all(m == 4 * q for m, q in hits)


@pytest.mark.parametrize("n,b,length", [(4, 10, 6), (2, 4, 8)])
def test_scan_reads_no_carry_machine_row(monkeypatch, n, b, length):
    # the oracle is the defining equation alone, not the carry machine
    # that the pipeline it checks is built on; no scan so far read a carry
    # row, so this guards later edits of the scan rather than a past fault
    def carry_machine(*args):
        raise AssertionError("the scan read the carry machine")

    for name in ("_carry_row", "_step"):
        monkeypatch.setattr(mothergraph, name, carry_machine)
        monkeypatch.setattr(oracle, name, carry_machine)
    p = Params(n, b)
    assert list(_scan_hits(p, length)) == [(m, m // n) for m in naive_permutiples(p, length)]


@pytest.mark.parametrize("b,length", [(2, 7), (3, 4), (4, 3)])
def test_signatures_identify_digit_multisets(b, length):
    # counts reach `length` here, the most a whole-number signature holds
    table = _signature_table(b, length, length.bit_length())
    assert len(table) == b**length
    multiset_of = {}
    for x, signature in enumerate(table):
        digits = tuple(sorted(x // b**j % b for j in range(length)))
        assert multiset_of.setdefault(signature, digits) == digits
    assert len(set(multiset_of.values())) == len(multiset_of)


def test_scan_budget():
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_search(Params(2, 10), 9)
    assert "budget" in str(exc.value)
    with pytest.raises(BudgetExceededError):
        brute_force_search(P24, 4, max_scan=100)
    with pytest.raises(ValueError):
        brute_force_search(P24, 0)


def test_scan_budget_must_be_positive():
    # a budget below 1 is a bad argument, not an exceeded budget
    for max_scan in (0, -5):
        for run in (brute_force_search, palintiple_count, equivalence_check):
            with pytest.raises(ValueError, match=f"max_scan must be positive, got {max_scan}"):
                run(P24, 3, max_scan=max_scan)
    with pytest.raises(BudgetExceededError):
        brute_force_search(P24, 3, max_scan=1)
    assert brute_force_search(P24, 3, max_scan=64) == brute_force_search(P24, 3)


def test_integral_float_counts_run_as_ints():
    # lengths and budgets follow the integer rule: integral floats are ints
    assert repr(equivalence_check(P24, 4.0, max_scan=1e7)) == repr(equivalence_check(P24, 4))
    assert brute_force_search(P24, 4.0) == brute_force_search(P24, 4)
    assert palintiple_count(P410, 4.0) == palintiple_count(P410, 4) == 1  # 8712 = 4*2178


def test_scan_budget_past_its_bit_length_names_a_power():
    # b**length > max_scan whenever length > max_scan.bit_length(): such a run
    # fails at once, and the count is named as a power, not spelled out
    for run in (brute_force_search, palintiple_count, equivalence_check):
        with pytest.raises(BudgetExceededError) as exc:
            run(Params(2, 10), 5000)
        assert str(exc.value) == (
            "scanning 5000 base-10 digits needs 10**5000 candidates, budget is 10000000"
        )
    # up to the bit length the count is spelled out as before (64: 7 bits)
    with pytest.raises(BudgetExceededError, match="needs 16384 candidates, budget is 64$"):
        brute_force_search(P24, 7, max_scan=64)
    with pytest.raises(BudgetExceededError, match=r"needs 4\*\*8 candidates, budget is 64$"):
        brute_force_search(P24, 8, max_scan=64)


def test_scan_budget_on_a_base_too_long_to_print():
    # a 5001-digit base is past the interpreter's int-to-str limit; the
    # message names it, and the count, by digit count
    huge = Params(2, 10**5000)
    for run, length, count in (
        (brute_force_search, 1, "<5001 digits>"),
        (palintiple_count, 2, "<10001 digits>"),
        (equivalence_check, 1, "<5001 digits>"),
        (brute_force_search, 30, "<5001 digits>**30"),
    ):
        with pytest.raises(BudgetExceededError) as exc:
            run(huge, length)
        assert str(exc.value) == (
            f"scanning {length} base-<5001 digits> digits needs {count} candidates, "
            "budget is 10000000"
        )
    # every base of up to 640 digits prints under any limit and is spelled out
    with pytest.raises(BudgetExceededError, match=f" base-{10**639} digits "):
        brute_force_search(Params(2, 10**639), 1)
    with pytest.raises(BudgetExceededError, match=" base-<641 digits> digits "):
        brute_force_search(Params(2, 10**640), 1)


@pytest.mark.parametrize(
    "n,b,length",
    [(2, 4, length) for length in range(1, 7)]
    + [(3, 4, length) for length in range(1, 7)]
    + [(2, 5, length) for length in range(1, 6)]
    + [(3, 5, length) for length in range(1, 6)]
    + [(2, 4, 8)],
)
def test_scan_witnesses_equal_validated_route(n, b, length):
    # criterion 7's cases and (2, 4, 8): the scan's witnesses against
    # digits_of -> carry_sequence -> find_permutation -> constructor
    p = Params(n, b)
    expected = tuple(reference_witness(p, length, m) for m in naive_permutiples(p, length))
    assert brute_force_search(p, length, max_scan=b**length) == expected


def test_scan_pairs_decompose_into_inventory_cycles():
    inventory = enumerate_cycles(build_mother_graph(P410))
    for w in brute_force_search(P410, 5):
        pairs = list(zip(w.digits.digits, w.permuted.digits))
        assert all(edge_allowed(e, P410) for e in pairs)
        cover = peel_cycle_cover(pairs)
        assert cover is not None
        for cyc in cover:
            cycle_index(inventory, cyc)  # raises if the cycle is unknown
        peeled = Counter(e for cyc in cover for e in cyc)
        assert peeled == Counter(tuple(e) for e in pairs)


# === reversal scan ===


def test_palintiple_counts_four_ten():
    assert palintiple_count(P410, 4) == 1
    assert palintiple_count(P410, 5) == 1
    assert palintiple_count(P410, 6) == 1


def test_palintiple_counts_nine_ten():
    assert palintiple_count(Params(9, 10), 4) == 1
    assert palintiple_count(Params(9, 10), 5) == 1


def test_palintiples_are_a_subset_of_the_scan():
    for p, length in [(P24, 3), (P24, 4), (P410, 4), (P410, 5)]:
        assert palintiple_count(p, length) <= len(brute_force_search(p, length))


# Every small (n, b) up to base 7 at lengths with at most 20 000
# candidates, plus three larger spaces with 3, 1 and 8 palintiples.
PALINTIPLE_CASES = [(n, b, L) for b in range(3, 8) for n in range(2, b)
                    for L in range(2, 10) if b**L <= 20_000]
PALINTIPLE_CASES += [(2, 3, 11), (3, 8, 6), (2, 5, 8)]


def test_palintiple_count_agrees_with_naive_loop():
    for n, b, length in PALINTIPLE_CASES:
        p = Params(n, b)
        assert palintiple_count(p, length) == naive_palintiple_count(p, length), (n, b, length)


def test_palintiple_validation():
    with pytest.raises(ValueError):
        palintiple_count(P410, 1)
    with pytest.raises(BudgetExceededError):
        palintiple_count(P410, 9)
    # within the scan budget, and exact far beyond int64 products
    assert palintiple_count(P410, 19, max_scan=10**20) == 21


def test_palintiple_counts_follow_fibonacci_far_past_the_scan():
    fib = [0, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    for p in (P410, Params(9, 10)):
        for length in range(4, 61):
            assert palintiple_count(p, length, max_scan=10**length) == fib[length // 2 - 1]


# === pipeline vs scan ===


@pytest.mark.parametrize(
    "n,b,length,expected_count",
    [
        (2, 4, 3, 3),
        (2, 4, 4, 13),
        (2, 4, 5, 39),
        (3, 4, 4, 3),
        (2, 5, 4, 4),
    ],
)
def test_equivalence_on_small_cases(n, b, length, expected_count):
    rep = equivalence_check(Params(n, b), length)
    assert rep.match
    assert rep.only_pipeline == ()
    assert rep.only_brute == ()
    assert len(rep.brute_values) == expected_count
    assert rep.pipeline_values == rep.brute_values


def test_equivalence_report_surfaces_mismatches():
    rep = EquivalenceReport(P24, 3, (18, 36), (18, 54))
    assert rep.only_pipeline == (36,)
    assert rep.only_brute == (54,)
    assert not rep.match


@pytest.mark.parametrize("n,b", sorted(NAIVE_CASES))
def test_equivalence_reads_the_scan_products(n, b):
    # the sweep keeps only m of each hit; the witnesses must spell the same values
    p = Params(n, b)
    for length in NAIVE_CASES[(n, b)]:
        rep = equivalence_check(p, length)
        assert rep.brute_values == tuple(value(w.digits) for w in brute_force_search(p, length))


def _built_unions(monkeypatch, p, length):
    """The multisets equivalence_check builds a union for, in order."""
    built = []
    join = oracle._join_images

    def spy(params, images, counts):
        built.append(counts)
        return join(params, images, counts)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_join_images", spy)
        assert equivalence_check(p, length).match
    return built


# Every n < b <= 6 at each length with at most 20 000 candidates, plus (4, 10, 5..6).
FILTER_CASES = [(n, b, L) for b in range(3, 7) for n in range(2, b)
                for L in range(1, 10) if b**L <= 20_000]
FILTER_CASES += [(4, 10, 5), (4, 10, 6)]


def test_balance_filter_is_sound(monkeypatch):
    # A union is built exactly for the multisets that are balanced and touch
    # carry 0, so every multiset whose union spells strings gets one.
    for n, b, length in FILTER_CASES:
        p = Params(n, b)
        inventory = enumerate_cycles(build_mother_graph(p))
        built = _built_unions(monkeypatch, p, length)
        assert len(set(built)) == len(built)
        for counts in _cycle_multisets([len(c) for c in inventory], length):
            g = union_images(CycleMultiset(counts), p, inventory)
            report = condition_report(g)
            passes = report.balanced and report.contains_zero
            assert (counts in built) == passes, (n, b, length, counts)
            if count_sequences_by_arborescences(g):
                assert passes, (n, b, length, counts)


@pytest.mark.parametrize("n,b,length,built,visited", [(3, 4, 8, 65, 1259), (4, 10, 5, 97, 852)])
def test_balance_filter_counts(monkeypatch, n, b, length, built, visited):
    p = Params(n, b)
    inventory = enumerate_cycles(build_mother_graph(p))
    assert sum(1 for _ in _cycle_multisets([len(c) for c in inventory], length)) == visited
    assert len(_built_unions(monkeypatch, p, length)) == built


def test_each_union_is_walked_once(monkeypatch):
    built = _built_unions(monkeypatch, P24, 8)
    walked = []

    def spy(g, forbid_zero, cap):
        walked.append(g.multiedges)
        return _closer_first(g, forbid_zero, cap)

    monkeypatch.setattr(oracle, "_closer_first", spy)
    rep = equivalence_check(P24, 8)
    assert len(set(walked)) == len(walked) < len(built)  # duplicate unions were skipped
    assert rep.match and len(rep.pipeline_values) == 1701


def test_sweep_walks_only_what_it_keeps(monkeypatch):
    # distinct unions spell distinct strings, and every string walked is kept
    walked = walked_circuits(monkeypatch)
    rep = equivalence_check(P24, 8)
    assert len(walked) == len(rep.pipeline_values) == 1701


def test_scan_budget_bounds_the_walk(monkeypatch):
    # Every string walked is a distinct length-digit permutiple, so the
    # b**length <= max_scan gate bounds the walk, and max_scan is its cap;
    # the tightest budget the gate admits still walks all 1 701 strings.
    caps = []

    def spy(g, forbid_zero, cap):
        caps.append(cap)
        return _closer_first(g, forbid_zero, cap)

    monkeypatch.setattr(oracle, "_closer_first", spy)
    for max_scan in (4**8, 10**7):
        del caps[:]
        rep = equivalence_check(P24, 8, max_scan=max_scan)
        assert rep.match and len(rep.pipeline_values) == 1701
        assert caps and set(caps) == {max_scan}


def test_cycle_cap_counts_the_cycles_that_fit():
    # (4, 10) has 986 cycles and 130 of them fit in 5 edges; the sweep's
    # search finds only those, and max_cycles caps them alone.
    inventory = enumerate_cycles(build_mother_graph(P410))
    assert len(inventory) == 986
    assert sum(len(c) <= 5 for c in inventory) == 130
    with pytest.raises(CapExceededError):
        equivalence_check(P410, 5, max_cycles=129)
    assert equivalence_check(P410, 5, max_cycles=130).match
