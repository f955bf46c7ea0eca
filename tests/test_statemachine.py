import tracemalloc

import pytest

from helpers import cycle_index, reference_carry_step
from permutiples import (
    Cycle,
    CycleMultiset,
    DigitPair,
    DigitVec,
    HSMultigraph,
    LabeledMultiedge,
    NotAnLWalkError,
    Params,
    PermutipleString,
    PermutipleWitness,
    RejectedPairError,
    UnknownCycleIndexError,
    build_hs_multigraph,
    build_mother_graph,
    carry_sequence,
    cycle_multi_image,
    edge_allowed,
    enumerate_cycles,
    enumerate_strings,
    find_permutation,
    group_by_transition,
    multigraph_to_dot,
    string_to_witness,
    transition,
    union_images,
    value,
    verify_witness,
)
from permutiples.mothergraph import _carry_row

P24 = Params(2, 4)
P34 = Params(3, 4)
P410 = Params(4, 10)


# === transitions ===


@pytest.mark.parametrize(
    "pair,expected",
    [((9, 9), (3, 3)), ((2, 8), (0, 3)), ((8, 2), (0, 0)), ((1, 7), (3, 3)), ((7, 1), (3, 0))],
)
def test_transition_examples(pair, expected):
    assert transition(pair, P410) == expected


def test_transition_rejects_disallowed_pair():
    with pytest.raises(RejectedPairError):
        transition((2, 0), P24)
    with pytest.raises(ValueError):
        transition((4, 0), P24)


def test_transition_agrees_with_edge_predicate():
    from permutiples import edge_allowed

    for n, b in [(2, 4), (3, 4), (4, 10), (5, 7)]:
        p = Params(n, b)
        for d1 in range(b):
            for d2 in range(b):
                if edge_allowed((d1, d2), p):
                    c1, c2 = transition((d1, d2), p)
                    assert 0 <= c1 <= n - 1 and 0 <= c2 <= n - 1
                    assert b * c2 - c1 == n * d2 - d1
                else:
                    with pytest.raises(RejectedPairError):
                        transition((d1, d2), p)


def test_carry_steps_match_plain_int_reference():
    # edge_allowed, transition, the per-carry rows and both graph builders
    # apply one rule; the reference rebuilds every pair's step from the
    # residue and the recurrence.
    for b in range(3, 25):
        for n in range(2, b):
            p = Params(n, b)
            for c1 in range(n):
                row = _carry_row(p, c1)
                assert [d2 for d2, _, _ in row] == list(range(b))
                for d2, d1, c2 in row:
                    assert reference_carry_step(d1, d2, p) == (c1, c2)
            steps = {}
            for d1 in range(b):
                for d2 in range(b):
                    step = reference_carry_step(d1, d2, p)
                    assert edge_allowed((d1, d2), p) == (step is not None)
                    if step is None:
                        with pytest.raises(RejectedPairError):
                            transition((d1, d2), p)
                    else:
                        assert transition((d1, d2), p) == step
                        steps[(d1, d2)] = step
            assert len(steps) == n * b
            assert [tuple(e) for e in build_mother_graph(p).edges] == sorted(steps)
            assert [(e.c1, e.c2, tuple(e.label)) for e in build_hs_multigraph(p).multiedges] == (
                sorted((c1, c2, pair) for pair, (c1, c2) in steps.items())
            )
    big = Params(2, 1100)
    assert len(build_mother_graph(big).edges) == 2200
    assert len(build_hs_multigraph(big)) == 2200


def test_single_pair_queries_build_no_table():
    # One pair costs O(1) at any base: the table for (2, 10**6) would hold
    # two million entries.
    big = Params(2, 10**6)
    assert transition((0, 0), big) == (0, 0)
    assert transition((10**6 - 1, 10**6 - 1), big) == (1, 1)
    assert edge_allowed((1, 0), big) and not edge_allowed((2, 0), big)
    # Non-integral values are no digits of any pair; integral ones give int carries.
    with pytest.raises(RejectedPairError):
        transition((0.5, 0), P24)
    assert not edge_allowed((0.5, 0), P24)
    step = transition((1.0, 0), P24)
    assert step == (1, 0) and all(type(c) is int for c in step)


def test_pair_routes_allocate_nothing_per_base():
    # A one-pair string and a one-loop image read only their own steps; a
    # table of every step of (2, 10**6) would take hundreds of megabytes.
    big = Params(2, 10**6)
    tracemalloc.start()
    try:
        w = string_to_witness(PermutipleString((DigitPair(0, 0),)), big)
        img = cycle_multi_image(Cycle(((0, 0),)), big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.carries.carries == (0, 0)
    assert [(e.c1, e.c2) for e in img.multiedges] == [(0, 0)]
    assert peak < 2**20


# === full machine ===


def test_machine_two_four_exact():
    g = build_hs_multigraph(P24)
    got = {(e.c1, e.c2, tuple(e.label)) for e in g.multiedges}
    assert got == {
        (0, 0, (0, 0)), (0, 0, (2, 1)),
        (0, 1, (0, 2)), (0, 1, (2, 3)),
        (1, 0, (1, 0)), (1, 0, (3, 1)),
        (1, 1, (1, 2)), (1, 1, (3, 3)),
    }


def test_machine_three_four_exact():
    g = build_hs_multigraph(P34)
    got = {(e.c1, e.c2, tuple(e.label)) for e in g.multiedges}
    assert got == {
        (0, 0, (0, 0)), (0, 0, (3, 1)),
        (1, 1, (0, 1)), (1, 1, (3, 2)),
        (2, 2, (0, 2)), (2, 2, (3, 3)),
        (1, 0, (1, 0)), (2, 1, (1, 1)), (0, 2, (1, 3)),
        (2, 0, (2, 0)), (0, 1, (2, 2)), (1, 2, (2, 3)),
    }


def test_machine_edge_per_mother_edge():
    for n, b in [(2, 4), (3, 4), (4, 10), (3, 7)]:
        p = Params(n, b)
        g = build_hs_multigraph(p)
        mother = build_mother_graph(p)
        assert sorted(e.label for e in g.multiedges) == list(mother.edges)
        labels = [e.label for e in g.multiedges]
        assert len(set(labels)) == len(labels)
    machine = build_hs_multigraph(P410)
    assert machine == HSMultigraph(P410, tuple(reversed(machine.multiedges)))


def test_grouped_view_four_ten():
    g = build_hs_multigraph(P410)
    grouped = {k: {tuple(l) for l in v} for k, v in group_by_transition(g).items()}
    assert grouped[(0, 0)] == {(0, 0), (4, 1), (8, 2)}
    assert grouped[(3, 3)] == {(1, 7), (5, 8), (9, 9)}
    assert grouped[(0, 3)] == {(2, 8), (6, 9)}
    assert grouped[(3, 0)] == {(3, 0), (7, 1)}
    assert sum(len(v) for v in grouped.values()) == 40


def test_multigraph_validates_recurrence():
    with pytest.raises(ValueError):
        HSMultigraph(P24, (LabeledMultiedge(0, 1, DigitPair(0, 0)),))
    with pytest.raises(ValueError):
        HSMultigraph(P24, (LabeledMultiedge(0, 2, DigitPair(0, 0)),))
    with pytest.raises(ValueError):  # transition() rejects this pair
        HSMultigraph(P24, (LabeledMultiedge(0, 0, DigitPair(0.5, 0.25)),))


def test_multigraph_validates_label_digits():
    # Both labels satisfy the recurrence, but 4 and -2 are no base-4 digits.
    for label in (DigitPair(4, 2), DigitPair(-2, -1)):
        with pytest.raises(ValueError, match="base-4 digits"):
            HSMultigraph(P24, (LabeledMultiedge(0, 0, label),))


# === cycle images and unions ===


def _inventory(p):
    return enumerate_cycles(build_mother_graph(p))


def test_image_of_three_cycle():
    inv = _inventory(P24)
    i = cycle_index(inv, {(0, 2), (2, 1), (1, 0)})
    img = cycle_multi_image(inv[i], P24)
    got = {(e.c1, e.c2, tuple(e.label)) for e in img.multiedges}
    assert got == {(0, 1, (0, 2)), (0, 0, (2, 1)), (1, 0, (1, 0))}


def test_image_of_self_loop():
    inv = _inventory(P24)
    i = cycle_index(inv, {(0, 0)})
    img = cycle_multi_image(inv[i], P24)
    assert [(e.c1, e.c2, tuple(e.label)) for e in img.multiedges] == [(0, 0, (0, 0))]


def test_image_preserves_cycle_labels():
    for p in (P24, P34, P410):
        for c in _inventory(p):
            img = cycle_multi_image(c, p)
            assert sorted(e.label for e in img.multiedges) == sorted(c.edges)


def test_union_repeats_multiedges():
    inv = _inventory(P24)
    i2 = cycle_index(inv, {(1, 2), (2, 1)})
    i3 = cycle_index(inv, {(0, 2), (2, 1), (1, 0)})
    g = union_images(CycleMultiset.from_indices([i2, i3]), P24, inv)
    assert len(g.multiedges) == 5
    assert g.label_multiplicities()[DigitPair(2, 1)] == 2
    doubled = union_images(CycleMultiset.from_indices([i3, i3]), P24, inv)
    assert len(doubled.multiedges) == 6
    assert set(doubled.label_multiplicities().values()) == {2}


def test_images_of_hand_built_cycles_are_checked():
    # Cycle only checks that edges chain; the carry machine checks the pairs.
    rejected = Cycle(((0, 2), (2, 0)))  # (2, 0) is not an allowed pair for (2, 4)
    non_digit = Cycle(((0, 4), (4, 0)))  # 4 is not a base-4 digit
    with pytest.raises(RejectedPairError):
        cycle_multi_image(rejected, P24)
    with pytest.raises(RejectedPairError):
        union_images(CycleMultiset.from_indices([0]), P24, [rejected])
    with pytest.raises(ValueError):
        cycle_multi_image(non_digit, P24)
    with pytest.raises(ValueError):
        union_images(CycleMultiset.from_indices([0, 0]), P24, [non_digit])


def test_union_unknown_index():
    inv = _inventory(P24)
    with pytest.raises(UnknownCycleIndexError):
        union_images(CycleMultiset.from_indices([99]), P24, inv)


def test_union_of_nothing_is_empty():
    g = union_images(CycleMultiset(()), P24, _inventory(P24))
    assert g.multiedges == ()


def test_cycle_multiset_validation():
    ms = CycleMultiset.from_indices([3, 3, 5])
    assert ms.items() == ((3, 2), (5, 1))
    with pytest.raises(ValueError):
        CycleMultiset(((0, 0),))
    with pytest.raises(ValueError):
        CycleMultiset(((-1, 1),))
    with pytest.raises(ValueError):
        CycleMultiset(((1, 1), (1, 2)))


def test_cycle_multiset_rejects_fractions():
    for counts, message in [
        (((0, 1.5),), "multiplicity 1.5 is not an integer"),
        (((0.5, 1),), "cycle index 0.5 is not an integer"),
        (((-1, 1),), "cycle index -1 is negative"),
        (((1, 0),), "multiplicity for cycle 1 must be positive, got 0"),
        (((1, 1), (1.0, 2)), "cycle index 1 listed twice"),
    ]:
        with pytest.raises(ValueError) as info:
            CycleMultiset(counts)
        assert str(info.value) == message
    for indices, message in [
        ([0.5, 1.9], "cycle index 0.5 is not an integer"),
        ([float("nan")], "cycle index nan is not an integer"),
    ]:
        with pytest.raises(ValueError) as info:
            CycleMultiset.from_indices(indices)
        assert str(info.value) == message
    # integral floats count as the ints they equal
    for ms in (CycleMultiset(((2.0, 3.0), (0, 1))), CycleMultiset.from_indices([2, 0, 2.0, 2])):
        assert ms.counts == ((0, 1), (2, 3))
        assert all(type(x) is int for pair in ms.counts for x in pair)


def test_multigraph_stores_int_labels_and_carries():
    g = HSMultigraph(P24, [(0.0, 0, (0, 0)), (0, 0, (0.0, 0.0))])
    assert g.multiedges == (LabeledMultiedge(0, 0, DigitPair(0, 0)),) * 2
    assert all(type(x) is int for e in g.multiedges for x in (e.c1, e.c2, *e.label))
    # a public cycle with a float digit yields int witness digits
    inv = [Cycle(((1.0, 2), (2, 1))), Cycle(((0, 2), (2, 1), (1, 0)))]
    u = union_images(CycleMultiset.from_indices([0, 1]), P24, inv)
    w = string_to_witness(enumerate_strings(u)[0], P24)
    assert str(w.digits) == "(1,1,0,2,2)_4"
    assert all(type(d) is int for d in w.digits.digits + w.permuted.digits)


# === strings ===


def test_empty_string_is_rejected():
    with pytest.raises(ValueError, match="^a pair string holds at least one pair$"):
        PermutipleString(())



def test_string_to_witness_long_example():
    pairs = [(1, 3), (0, 2), (1, 1), (1, 0), (3, 1), (2, 2), (2, 3), (0, 2), (2, 0), (3, 1)]
    s = PermutipleString(tuple(DigitPair(*x) for x in pairs))
    w = string_to_witness(s, P34)
    assert w.digits.msd == (3, 2, 0, 2, 2, 3, 1, 1, 0, 1)
    assert w.permuted.msd == (1, 0, 2, 3, 2, 1, 0, 1, 2, 3)
    assert value(w.digits) == 928593
    assert value(w.permuted) == 309531
    assert verify_witness(w).is_permutiple


def test_string_to_witness_matches_carry_sequence():
    pairs = [(2, 1), (0, 2), (1, 2), (1, 0), (2, 1)]
    s = PermutipleString(tuple(DigitPair(*x) for x in pairs))
    w = string_to_witness(s, P24)
    assert w.carries == carry_sequence(w.digits, w.permuted, P24)
    assert value(w.digits) == 2 * value(w.permuted)


def test_string_of_single_zero_pair():
    w = string_to_witness(PermutipleString((DigitPair(0, 0),)), P24)
    assert value(w.digits) == 0
    assert verify_witness(w).is_permutiple


def test_string_walk_value_relation_without_permutation():
    # accepted walk whose digit tracks are no rearrangement of each other
    s = PermutipleString((DigitPair(2, 3), DigitPair(3, 1)))
    w = string_to_witness(s, P24)
    assert value(w.digits) == 2 * value(w.permuted)
    report = verify_witness(w)
    assert not report.multisets_equal
    assert not report.is_permutiple


def test_string_rejections():
    with pytest.raises(NotAnLWalkError):
        string_to_witness(PermutipleString((DigitPair(1, 0),)), P24)  # starts at carry 1
    with pytest.raises(NotAnLWalkError):
        string_to_witness(PermutipleString((DigitPair(0, 2),)), P24)  # ends at carry 1
    with pytest.raises(NotAnLWalkError):
        string_to_witness(  # chain breaks at the second pair
            PermutipleString((DigitPair(0, 2), DigitPair(0, 0))), P24
        )
    with pytest.raises(RejectedPairError):
        string_to_witness(PermutipleString((DigitPair(2, 0),)), P24)
    with pytest.raises(ValueError):  # 4 is not a base-4 digit
        string_to_witness(PermutipleString((DigitPair(4, 0),)), P24)


def _walk(pairs, p=Params(2, 10)):
    return string_to_witness(PermutipleString(tuple(DigitPair(*x) for x in pairs)), p)


def test_string_replay_edge_pairs():
    # Non-integral digits are no pair of any step, integral floats take the
    # int step, and a pair from the wrong carry names the carry it needs.
    for pair in [(5, 2.5), (0.5, 0)]:
        with pytest.raises(RejectedPairError):
            _walk([pair])
    carries = _walk([(4.0, 2.0)]).carries.carries
    assert carries == (0, 0) and all(type(c) is int for c in carries)
    for pair in [(0, 10), (0, -5)]:
        with pytest.raises(ValueError, match="is not made of base-10 digits"):
            _walk([pair])
    with pytest.raises(NotAnLWalkError, match=r"^walk starts at carry 1, not 0$"):
        _walk([(1, 0)])
    with pytest.raises(
        NotAnLWalkError,
        match=r"^pair \(7,3\) at position 1 needs carry 1 but the walk is at 0$",
    ):
        _walk([(8, 4), (7, 3)])


def test_string_stores_integral_float_digits_as_ints():
    p = Params(2, 10)
    for pairs, shown in [(((2.0, 6.0), (1, 0)), "(1,2)_10"), (((2.0, 1), (0, 0)), "(0,2)_10")]:
        w = string_to_witness(PermutipleString(pairs), p)
        assert str(w.digits) == shown
        assert all(type(d) is int for d in w.digits.digits + w.permuted.digits)


def test_string_witnesses_equal_validated_witnesses():
    # criterion 4's tables: every string of these (2, 4) unions, built once
    # through the trusted witness and once through the public constructors
    inv = enumerate_cycles(build_mother_graph(P24))
    checked = 0
    for indices in ([2, 3], [3, 3], [0], [3], [4], [5]):
        g = union_images(CycleMultiset.from_indices(indices), P24, inv)
        for s in enumerate_strings(g):
            digits = DigitVec(tuple(pair.d1 for pair in s.pairs), 4)
            permuted = DigitVec(tuple(pair.d2 for pair in s.pairs), 4)
            carries = carry_sequence(digits, permuted, P24)
            sigma = find_permutation(digits, permuted)
            assert string_to_witness(s, P24) == PermutipleWitness(
                P24, digits, permuted, carries, sigma
            )
            checked += 1
    assert checked == 3 + 6 + 1 + 2 + 1 + 4


# === dot export ===


def test_multigraph_dot_marks_initial_state_and_repeats_edges():
    inv = _inventory(P24)
    i3 = cycle_index(inv, {(0, 2), (2, 1), (1, 0)})
    g = union_images(CycleMultiset.from_indices([i3, i3]), P24, inv)
    dot = multigraph_to_dot(g)
    assert "0 [shape=doublecircle];" in dot
    assert "__start -> 0;" in dot
    assert dot.count('0 -> 1 [label="0,2"];') == 2
    assert dot == multigraph_to_dot(g)


def test_multigraph_dot_without_zero_state():
    inv = enumerate_cycles(build_mother_graph(P410))
    img = cycle_multi_image(inv[cycle_index(inv, {(9, 9)})], P410)
    assert img.active_states() == (3,)
    dot = multigraph_to_dot(img)
    assert "__start" not in dot
    assert '3 -> 3 [label="9,9"];' in dot
