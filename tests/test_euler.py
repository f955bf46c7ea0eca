import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cycle_index, permutation_det, walked_circuits
from permutiples import (
    CapExceededError,
    CycleMultiset,
    DigitVec,
    EnumerationOptions,
    Params,
    PermutipleWitness,
    brute_force_search,
    build_mother_graph,
    condition_report,
    count_circuits,
    count_sequences_by_arborescences,
    enumerate_cycles,
    enumerate_strings,
    equivalence_check,
    find_eulerian_circuit,
    graph_of_witness,
    string_to_witness,
    union_images,
    value,
    verify_witness,
)
from permutiples import euler

P24 = Params(2, 4)
P410 = Params(4, 10)

INV24 = enumerate_cycles(build_mother_graph(P24))
I_LOOP0 = cycle_index(INV24, {(0, 0)})
I_LOOP3 = cycle_index(INV24, {(3, 3)})
I_TWO = cycle_index(INV24, {(1, 2), (2, 1)})
I_THREE_A = cycle_index(INV24, {(0, 2), (2, 1), (1, 0)})
I_THREE_B = cycle_index(INV24, {(1, 2), (2, 3), (3, 1)})
I_FOUR = cycle_index(INV24, {(0, 2), (2, 3), (3, 1), (1, 0)})


def union24(*indices):
    return union_images(CycleMultiset.from_indices(indices), P24, INV24)


def class_inventory_410():
    w = PermutipleWitness.build(
        P410,
        DigitVec.from_msd([8, 7, 9, 1, 2], 10),
        DigitVec.from_msd([2, 1, 9, 7, 8], 10),
    )
    return enumerate_cycles(graph_of_witness(w))


# === condition report ===


def test_report_accepts_balanced_connected_union():
    rep = condition_report(union24(I_TWO, I_THREE_A))
    assert rep.contains_zero and rep.strongly_connected and rep.balanced
    assert rep.verdict
    assert rep.degree_deltas == ((0, 0), (1, 0))


def test_report_flags_missing_zero_state():
    rep = condition_report(union24(I_LOOP3))
    assert not rep.contains_zero
    assert rep.strongly_connected and rep.balanced
    assert not rep.verdict


def test_report_flags_disconnected_active_states():
    rep = condition_report(union24(I_LOOP0, I_LOOP3))
    assert rep.contains_zero and rep.balanced
    assert not rep.strongly_connected
    assert not rep.verdict


def test_report_flags_unbalanced_union():
    inv = class_inventory_410()
    i28 = cycle_index(inv, {(2, 8), (8, 2)})
    i17 = cycle_index(inv, {(1, 7), (7, 1)})
    g = union_images(CycleMultiset.from_indices([i28, i28, i17]), P410, inv)
    rep = condition_report(g)
    assert rep.contains_zero and rep.strongly_connected
    assert not rep.balanced
    assert rep.degree_deltas == ((0, -1), (3, 1))
    assert not rep.verdict


def test_report_rejects_empty_multigraph():
    rep = condition_report(union_images(CycleMultiset(()), P24, INV24))
    assert not rep.contains_zero
    assert not rep.verdict


# === single-circuit search vs report ===


def test_hierholzer_agrees_on_handpicked_cases():
    for indices, expected in [
        ((I_TWO, I_THREE_A), True),
        ((I_THREE_A, I_THREE_A), True),
        ((I_LOOP0,), True),
        ((I_LOOP3,), False),
        ((I_LOOP0, I_LOOP3), False),
        ((I_FOUR,), True),
        ((I_THREE_B,), True),
        ((I_TWO,), False),  # two disjoint self-loops, one per state
    ]:
        g = union24(*indices)
        circuit = find_eulerian_circuit(g)
        assert (circuit is not None) == expected == condition_report(g).verdict
        if circuit is not None:
            assert len(circuit) == len(g.multiedges)


# === enumeration ===


def test_enumeration_of_two_plus_three_cycle():
    strings = enumerate_strings(union24(I_TWO, I_THREE_A))
    assert {str(s) for s in strings} == {
        "(2,1)(0,2)(1,2)(1,0)(2,1)",
        "(2,1)(2,1)(0,2)(1,2)(1,0)",
        "(0,2)(1,2)(1,0)(2,1)(2,1)",
    }
    for s in strings:
        w = string_to_witness(s, P24)
        assert verify_witness(w).is_permutiple
        assert value(w.digits) == 2 * value(w.permuted)


def test_enumeration_of_doubled_three_cycle():
    strings = enumerate_strings(union24(I_THREE_A, I_THREE_A))
    assert {str(s) for s in strings} == {
        "(2,1)(0,2)(1,0)(2,1)(0,2)(1,0)",
        "(0,2)(1,0)(2,1)(0,2)(1,0)(2,1)",
        "(2,1)(0,2)(1,0)(0,2)(1,0)(2,1)",
        "(2,1)(2,1)(0,2)(1,0)(0,2)(1,0)",
        "(0,2)(1,0)(0,2)(1,0)(2,1)(2,1)",
        "(0,2)(1,0)(2,1)(2,1)(0,2)(1,0)",
    }


def test_enumeration_of_single_cycles():
    assert [str(s) for s in enumerate_strings(union24(I_LOOP0))] == ["(0,0)"]
    got3 = {str(s) for s in enumerate_strings(union24(I_THREE_A))}
    assert got3 == {"(2,1)(0,2)(1,0)", "(0,2)(1,0)(2,1)"}
    got3b = {
        value(string_to_witness(s, P24).digits)
        for s in enumerate_strings(union24(I_THREE_A))
    }
    assert got3b == {18, 36}
    gotB = enumerate_strings(union24(I_THREE_B))
    assert [str(s) for s in gotB] == ["(2,3)(1,2)(3,1)"]
    assert value(string_to_witness(gotB[0], P24).digits) == 54
    got4 = {str(s) for s in enumerate_strings(union24(I_FOUR))}
    assert got4 == {
        "(0,2)(1,0)(2,3)(3,1)",
        "(0,2)(3,1)(2,3)(1,0)",
        "(2,3)(1,0)(0,2)(3,1)",
        "(2,3)(3,1)(0,2)(1,0)",
    }
    vals4 = {value(string_to_witness(s, P24).digits) for s in enumerate_strings(union24(I_FOUR))}
    assert vals4 == {228, 108, 198, 78}


def test_enumeration_returns_nothing_on_failed_report():
    assert enumerate_strings(union24(I_LOOP3)) == ()
    assert enumerate_strings(union24(I_TWO)) == ()
    assert enumerate_strings(union24(I_LOOP0, I_LOOP3)) == ()
    assert enumerate_strings(union_images(CycleMultiset(()), P24, INV24)) == ()


def test_enumeration_order_is_deterministic():
    g = union24(I_TWO, I_THREE_A, I_LOOP0)
    assert enumerate_strings(g) == enumerate_strings(g)


def test_leading_zero_filter():
    allowed = enumerate_strings(union24(I_LOOP0))
    assert [str(s) for s in allowed] == ["(0,0)"]
    forbidden = enumerate_strings(union24(I_LOOP0), EnumerationOptions(forbid_leading_zero=True))
    assert forbidden == ()
    # a mixed union where only some strings end on a zero digit
    g = union24(I_LOOP0, I_THREE_A)
    allow_all = enumerate_strings(g)
    strict = enumerate_strings(g, EnumerationOptions(forbid_leading_zero=True))
    assert set(strict) < set(allow_all)
    assert all(s.pairs[-1].d1 != 0 for s in strict)
    assert any(s.pairs[-1].d1 == 0 for s in allow_all)


def test_forbid_mode_walks_only_what_it_keeps(monkeypatch):
    # 4 of the 6 strings of {0, 3} have a nonzero leading digit
    walked = walked_circuits(monkeypatch)
    g = union24(I_LOOP0, I_THREE_A)
    strict = enumerate_strings(g, EnumerationOptions(forbid_leading_zero=True))
    assert len(walked) == len(strict) == 4


def test_numeric_dedup_matches_label_dedup_per_multigraph():
    # label-distinct strings spell distinct values, so folding them by value
    # would drop nothing
    for indices in [(I_TWO, I_THREE_A), (I_THREE_A, I_THREE_A), (I_FOUR,), (I_LOOP0, I_THREE_A)]:
        g = union24(*indices)
        by_label = enumerate_strings(g)
        values = [value(string_to_witness(s, P24).digits) for s in by_label]
        assert len(set(values)) == len(values)


def test_enumeration_cap():
    g = union24(I_THREE_A, I_THREE_A)
    with pytest.raises(CapExceededError):
        enumerate_strings(g, EnumerationOptions(cap=3))
    assert len(enumerate_strings(g, EnumerationOptions(cap=6))) == 6


def test_label_distinct_cap_is_checked_before_walking(monkeypatch):
    g = union24(I_THREE_A, I_THREE_A)  # 6 strings

    def no_walk(_):
        raise AssertionError("walked although the determinant count exceeds the cap")

    monkeypatch.setattr(euler, "_circuits", no_walk)
    with pytest.raises(CapExceededError):
        enumerate_strings(g, EnumerationOptions(cap=5))
    # with leading zeros forbidden too: 4 of the 6 strings of {0, 3} remain
    g = union24(I_LOOP0, I_THREE_A)
    with pytest.raises(CapExceededError):
        enumerate_strings(g, EnumerationOptions(forbid_leading_zero=True, cap=3))
    monkeypatch.undo()
    strict = enumerate_strings(g, EnumerationOptions(forbid_leading_zero=True, cap=4))
    assert len(strict) == 4


def test_enumeration_options_validation():
    # the mode is a bool: an old positional "forbid" or "allow" selects nothing
    for mode in ("forbid", "allow", 1, None):
        with pytest.raises(ValueError, match="^forbid_leading_zero must be a bool, got "):
            EnumerationOptions(mode)
    with pytest.raises(ValueError):
        EnumerationOptions(cap=0)


# === counting ===


def test_counts_on_known_unions():
    assert count_circuits(union24(I_TWO, I_THREE_A)) == (6, 3)
    assert count_circuits(union24(I_THREE_A, I_THREE_A)) == (48, 6)
    assert count_circuits(union24(I_LOOP0)) == (1, 1)
    assert count_circuits(union24(I_LOOP3)) == (0, 0)
    assert count_circuits(union24(I_TWO)) == (0, 0)
    assert count_circuits(union24(I_LOOP0, I_LOOP3)) == (0, 0)  # balanced, disconnected
    assert count_circuits(union_images(CycleMultiset(()), P24, INV24)) == (0, 0)


def test_counts_match_enumeration_sizes():
    for indices in [(I_TWO, I_THREE_A), (I_THREE_A, I_THREE_A), (I_FOUR,), (I_FOUR, I_LOOP0)]:
        g = union24(*indices)
        counts = count_circuits(g)
        assert counts.label_distinct == len(enumerate_strings(g))


def test_arborescence_count_alone():
    assert count_sequences_by_arborescences(union24(I_TWO, I_THREE_A)) == 6
    assert count_sequences_by_arborescences(union24(I_THREE_A, I_THREE_A)) == 48
    assert count_sequences_by_arborescences(union24(I_LOOP3)) == 0
    assert count_sequences_by_arborescences(union24(I_LOOP0, I_LOOP3)) == 0


def test_count_alone_decides_acceptance(monkeypatch):
    # Counting, walking and the pipeline sweep never run the condition
    # report or a strong-connectivity pass; the BEST count gates them all.
    def forbidden(*_):
        raise AssertionError("acceptance decided outside the BEST count")

    monkeypatch.setattr(euler, "condition_report", forbidden)
    monkeypatch.setattr(euler, "strongly_connected_components", forbidden)
    for indices, counts, strings in [
        ((I_TWO, I_THREE_A), (6, 3), {
            "(2,1)(0,2)(1,2)(1,0)(2,1)",
            "(2,1)(2,1)(0,2)(1,2)(1,0)",
            "(0,2)(1,2)(1,0)(2,1)(2,1)",
        }),
        ((I_LOOP0, I_THREE_A), (6, 6), {
            "(0,0)(2,1)(0,2)(1,0)",
            "(0,0)(0,2)(1,0)(2,1)",
            "(2,1)(0,0)(0,2)(1,0)",
            "(2,1)(0,2)(1,0)(0,0)",
            "(0,2)(1,0)(0,0)(2,1)",
            "(0,2)(1,0)(2,1)(0,0)",
        }),
        ((I_THREE_B,), (1, 1), {"(2,3)(1,2)(3,1)"}),
        ((I_LOOP0,), (1, 1), {"(0,0)"}),
        ((I_LOOP3,), (0, 0), set()),
        ((I_TWO,), (0, 0), set()),
        ((I_LOOP0, I_LOOP3), (0, 0), set()),
        ((), (0, 0), set()),
    ]:
        g = union24(*indices)
        assert count_circuits(g) == counts
        assert count_sequences_by_arborescences(g) == counts[0]
        zero_led = tuple(f"(0,{d})" for d in range(4))  # last pair writes the leading digit
        by_mode = {
            False: strings,
            True: {t for t in strings if not t.endswith(zero_led)},
        }
        for forbid, expected in by_mode.items():
            got = enumerate_strings(g, EnumerationOptions(forbid_leading_zero=forbid))
            assert {str(s) for s in got} == expected and len(got) == len(expected)
    with pytest.raises(CapExceededError):
        enumerate_strings(union24(I_THREE_A, I_THREE_A), EnumerationOptions(cap=5))
    rep = equivalence_check(P24, 6)
    assert rep.match and rep.pipeline_values
    assert rep.pipeline_values == tuple(value(w.digits) for w in brute_force_search(P24, 6))


def _zero_diagonal(rows):
    return [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5)
    .flatmap(lambda k: st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                                min_size=k, max_size=k))
    .map(_zero_diagonal)
)
def test_int_det_swaps_rows_past_a_zero_pivot(m):
    # A zero diagonal makes every elimination step look below its pivot.
    assert euler._int_det(m) == permutation_det(m)


def test_int_det_examples():
    assert euler._int_det([[0, 1], [1, 0]]) == -1
    assert euler._int_det([[0, 2, 1], [3, 0, 0], [0, 1, 4]]) == -21
    assert euler._int_det([[0, 1], [0, 1]]) == 0
    assert euler._int_det([]) == 1
