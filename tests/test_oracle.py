from collections import Counter

import pytest

from helpers import cycle_index, peel_cycle_cover
from permutiples import (
    BudgetExceededError,
    EquivalenceReport,
    Params,
    brute_force_search,
    build_mother_graph,
    edge_allowed,
    enumerate_cycles,
    equivalence_check,
    palintiple_count,
    value,
    verify_witness,
)

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


def test_scan_results_use_full_width_padding():
    # 10872 = 4 * 2718: the quotient only reaches five digits as 02718
    ws = brute_force_search(P410, 5)
    w = next(w for w in ws if value(w.digits) == 10872)
    assert w.permuted.msd == (0, 2, 7, 1, 8)
    assert w.digits.msd == (1, 0, 8, 7, 2)


def test_scan_budget():
    with pytest.raises(BudgetExceededError) as exc:
        brute_force_search(Params(2, 10), 9)
    assert "budget" in str(exc.value)
    with pytest.raises(BudgetExceededError):
        brute_force_search(P24, 4, max_scan=100)
    with pytest.raises(ValueError):
        brute_force_search(P24, 0)


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


def test_palintiple_validation():
    with pytest.raises(ValueError):
        palintiple_count(P410, 1)
    with pytest.raises(BudgetExceededError):
        palintiple_count(P410, 9)
    # within the scan budget, but 4 * 10**19 products overflow int64
    with pytest.raises(BudgetExceededError):
        palintiple_count(P410, 19, max_scan=10**20)


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
