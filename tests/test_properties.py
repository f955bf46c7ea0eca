"""Cross-route consistency on randomized inputs.

Every test here pits two independently written routes against each other:
closed-form transitions against the defining carry recurrence, the
determinant circuit count against a backtracking walk (kept in helpers) and
against the enumerator, the single-circuit search against the
three-condition report, enumerated strings against direct verification
of the numbers they spell, the cycle-multiset sweep against a plain
itertools.product search, and the witness check against its per-digit
reference form.
"""

import dataclasses
from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    backtracking_label_distinct,
    cycle_index,
    reference_strings,
    reference_verify_witness,
)
from permutiples import (
    CapExceededError,
    CarrySeq,
    CycleMultiset,
    DigitVec,
    EnumerationOptions,
    HSMultigraph,
    Params,
    PermutipleWitness,
    brute_force_search,
    build_hs_multigraph,
    build_mother_graph,
    carry_sequence,
    condition_report,
    count_circuits,
    enumerate_cycles,
    enumerate_strings,
    find_eulerian_circuit,
    find_permutation,
    string_to_witness,
    transition,
    union_images,
    value,
    verify_witness,
)
from permutiples._digraph import strongly_connected_components
from permutiples.oracle import _cycle_multisets

SMALL = [
    Params(2, 3),
    Params(2, 4),
    Params(3, 4),
    Params(2, 5),
    Params(3, 5),
    Params(4, 5),
    Params(2, 6),
    Params(5, 6),
]

ALL_PARAMS_TO_B12 = [Params(n, b) for b in range(3, 13) for n in range(2, b)]


@lru_cache(maxsize=None)
def inventory_for(p):
    return enumerate_cycles(build_mother_graph(p))


def draw_multiset(data):
    p = data.draw(st.sampled_from(SMALL))
    inv = inventory_for(p)
    idx = data.draw(st.lists(st.integers(0, len(inv) - 1), min_size=1, max_size=3))
    # keep the union small: circuit counts grow factorially in the edge total
    assume(sum(len(inv[i].edges) for i in idx) <= 8)
    return p, inv, idx


def test_machine_mirrors_mother_graph_everywhere():
    for p in ALL_PARAMS_TO_B12:
        mother = build_mother_graph(p)
        machine = build_hs_multigraph(p)
        assert len(machine.multiedges) == len(mother.edges)
        assert Counter(e.label for e in machine.multiedges) == Counter(mother.edges)
        for e in machine.multiedges:
            assert 0 <= e.c1 <= p.n - 1
            assert 0 <= e.c2 <= p.n - 1
            assert p.b * e.c2 - e.c1 == p.n * e.label.d2 - e.label.d1


def test_transitions_replay_real_carry_sequences():
    for p, length in [(Params(2, 4), 4), (Params(3, 4), 4), (Params(4, 10), 4)]:
        for w in brute_force_search(p, length):
            carries = carry_sequence(w.digits, w.permuted, p)
            pairs = list(zip(w.digits.digits, w.permuted.digits))
            for j, pair in enumerate(pairs):
                c1, c2 = transition(pair, p)
                assert c1 == carries.carries[j]
                assert c2 == carries.carries[j + 1]
            assert carries.final == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_union_is_a_multiset_homomorphism(data):
    p, inv, idx = draw_multiset(data)
    extra = data.draw(st.lists(st.integers(0, len(inv) - 1), min_size=1, max_size=2))
    whole = union_images(CycleMultiset.from_indices(idx + extra), p, inv)
    left = union_images(CycleMultiset.from_indices(idx), p, inv)
    right = union_images(CycleMultiset.from_indices(extra), p, inv)
    assert HSMultigraph(p, left.multiedges + right.multiedges) == whole
    assert HSMultigraph(p, right.multiedges + left.multiedges) == whole


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_union_preserves_edge_labels_with_multiplicity(data):
    p, inv, idx = draw_multiset(data)
    g = union_images(CycleMultiset.from_indices(idx), p, inv)
    expected = Counter()
    for i in idx:
        expected.update(inv[i].edges)
    assert Counter(e.label for e in g.multiedges) == expected
    assert len(g.multiedges) == sum(len(inv[i].edges) for i in idx)


def assert_counting_routes_agree(g):
    counts = count_circuits(g)
    walked = backtracking_label_distinct(g)
    assert counts.label_distinct == walked == len(enumerate_strings(g))
    copies = 1
    for mult in g.label_multiplicities().values():
        copies *= factorial(mult)
    if condition_report(g).verdict:
        assert counts.edge_sequences_from_zero == counts.label_distinct * copies
        assert counts.label_distinct >= 1
    else:
        assert counts == (0, 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_counting_routes_agree(data):
    p, inv, idx = draw_multiset(data)
    assert_counting_routes_agree(union_images(CycleMultiset.from_indices(idx), p, inv))


def test_counting_routes_agree_on_fixed_unions():
    p = Params(2, 4)
    inv = inventory_for(p)
    two = cycle_index(inv, {(1, 2), (2, 1)})
    three = cycle_index(inv, {(0, 2), (2, 1), (1, 0)})
    four = cycle_index(inv, {(0, 2), (2, 3), (3, 1), (1, 0)})
    loop0 = cycle_index(inv, {(0, 0)})
    for indices, circuits in [((two, three), 3), ((three, three), 6), ((four, loop0), 12)]:
        g = union_images(CycleMultiset.from_indices(indices), p, inv)
        assert backtracking_label_distinct(g) == circuits
        assert_counting_routes_agree(g)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_single_circuit_search_agrees_with_report(data):
    p, inv, idx = draw_multiset(data)
    g = union_images(CycleMultiset.from_indices(idx), p, inv)
    trail = find_eulerian_circuit(g)
    assert (trail is not None) == condition_report(g).verdict
    if trail is not None:
        assert Counter(trail) == Counter(g.multiedges)
        assert trail[0].c1 == 0 and trail[-1].c2 == 0
        for a, b in zip(trail, trail[1:]):
            assert a.c2 == b.c1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_enumerated_strings_all_verify(data):
    p, inv, idx = draw_multiset(data)
    g = union_images(CycleMultiset.from_indices(idx), p, inv)
    strings = enumerate_strings(g)
    assert len(strings) == count_circuits(g).label_distinct
    values = []
    for s in strings:
        w = string_to_witness(s, p)
        assert verify_witness(w).is_permutiple
        assert value(w.digits) == p.n * value(w.permuted)
        assert w.carries.carries[0] == 0 and w.carries.final == 0
        assert all(0 <= c <= p.n - 1 for c in w.carries.carries)
        values.append(value(w.digits))
    assert len(set(values)) == len(values)


@pytest.mark.parametrize("forbid", [True, False])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_forbid_mode_count_matches_backtracking(forbid, data):
    # enumerate_strings checks its cap against this count before walking, so
    # it must be exact in both modes: a cap one below it raises, a cap at it
    # does not
    p, inv, idx = draw_multiset(data)
    g = union_images(CycleMultiset.from_indices(idx), p, inv)
    expected = backtracking_label_distinct(g, forbid_zero=forbid)
    opts = EnumerationOptions(forbid_leading_zero=forbid, cap=max(expected, 1))
    strings = enumerate_strings(g, opts)
    assert len(strings) == expected
    assert not forbid or all(s.pairs[-1].d1 for s in strings)
    if expected > 1:
        with pytest.raises(CapExceededError):
            enumerate_strings(g, dataclasses.replace(opts, cap=expected - 1))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), forbid=st.booleans())
def test_walk_order_matches_recursive_reference(data, forbid):
    # The walker's strings, order included, against an independent forward
    # recursive walk sorted by value, in both leading-zero modes.
    p, inv, idx = draw_multiset(data)
    g = union_images(CycleMultiset.from_indices(idx), p, inv)
    strings = enumerate_strings(g, EnumerationOptions(forbid_leading_zero=forbid))

    def spelled(pairs):
        return sum(pair.d1 * p.b**i for i, pair in enumerate(pairs))

    expected = sorted(reference_strings(g, forbid_zero=forbid), key=spelled)
    assert [s.pairs for s in strings] == expected


@st.composite
def small_digraphs(draw):
    """Vertices in a drawn order and adjacency lists on at most 8 vertices."""
    k = draw(st.integers(0, 8))
    vertices = draw(st.permutations(range(k)))
    adj = {v: draw(st.lists(st.integers(0, k - 1), max_size=2 * k)) for v in range(k)}
    return vertices, adj


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_components_are_mutual_reachability_classes(graph):
    vertices, adj = graph
    reach = {}
    for v in vertices:
        seen, todo = {v}, [v]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[v] = seen
    classes = {frozenset(u for u in reach[v] if v in reach[u]) for v in vertices}
    components = strongly_connected_components(vertices, adj)
    assert all(comp == sorted(comp) for comp in components)
    assert sorted(v for comp in components for v in comp) == sorted(vertices)
    assert {frozenset(comp) for comp in components} == classes


def product_multisets(lengths, total):
    """Every (index, multiplicity) selection with edge total `total`, by
    trying each multiplicity vector in itertools.product order."""
    found = []
    for ks in product(*(range(total // step + 1) for step in lengths)):
        if sum(k * step for k, step in zip(ks, lengths)) == total:
            found.append(tuple((i, k) for i, k in enumerate(ks) if k))
    return found


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 6), max_size=6), total=st.integers(0, 6))
def test_cycle_multiset_sweep_matches_product(lengths, total):
    # inventories come sorted by length; the sweep's pruning must not rely on it
    for order in (sorted(lengths), lengths):
        assert list(_cycle_multisets(order, total)) == product_multisets(order, total)


# Genuine permutiples, so that witnesses with every flag set are drawn too.
GENUINE = [
    w
    for p, length in [(Params(2, 4), 6), (Params(3, 5), 5), (Params(4, 10), 5)]
    for w in brute_force_search(p, length)
]


@st.composite
def public_witnesses(draw):
    """Witnesses built through the public constructors, true claims or not.

    Digits are random, a shuffle of each other, or a genuine permutiple's.
    Carries are derived by floor division (so they leave 0..n-1 on a false
    claim) or random, negative and >= n included.  sigma is None, the
    greedy permutation (None when the multisets differ), any bijection, an
    index list that matches digit by digit but repeats indices, or any
    index list.
    """
    genuine = draw(st.booleans())
    if genuine:
        w = draw(st.sampled_from(GENUINE))
        p, digits, permuted = w.params, list(w.digits.digits), list(w.permuted.digits)
    else:
        b = draw(st.integers(3, 10))
        p = Params(draw(st.integers(2, b - 1)), b)
        digit = st.integers(0, b - 1)
        digits = draw(st.lists(digit, min_size=1, max_size=8))
        ell = len(digits)
        permuted = draw(
            st.permutations(digits) | st.lists(digit, min_size=ell, max_size=ell)
        )
    ell = len(digits)
    dv, pv = DigitVec(tuple(digits), p.b), DigitVec(tuple(permuted), p.b)
    if draw(st.booleans()):
        carries = PermutipleWitness.build(p, dv, pv).carries
    else:
        rest = draw(st.lists(st.integers(-p.n, 2 * p.n), min_size=ell, max_size=ell))
        carries = CarrySeq((0, *rest))
    index = st.integers(0, ell - 1)
    # the first position of each digit: a repeat wherever a digit repeats
    first = tuple(digits.index(q) for q in permuted) if set(permuted) <= set(digits) else None
    sigma = draw(
        st.none()
        | st.just(find_permutation(dv, pv))
        | st.permutations(range(ell))
        | st.just(first)
        | st.lists(index, min_size=ell, max_size=ell)
    )
    return PermutipleWitness(p, dv, pv, carries, sigma)


@settings(max_examples=400, deadline=None)
@given(public_witnesses())
def test_verify_witness_matches_reference(w):
    assert dataclasses.asdict(verify_witness(w)) == dataclasses.asdict(reference_verify_witness(w))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_find_permutation_is_a_witnessing_bijection(data):
    b = data.draw(st.integers(2, 10))
    digit = st.integers(0, b - 1)
    digits = data.draw(st.lists(digit, min_size=1, max_size=10))
    permuted = data.draw(st.permutations(digits) | st.lists(digit, min_size=1, max_size=10))
    sigma = find_permutation(DigitVec(tuple(digits), b), DigitVec(tuple(permuted), b))
    if sorted(digits) != sorted(permuted):
        assert sigma is None
    else:
        assert sorted(sigma) == list(range(len(digits)))
        assert all(permuted[j] == digits[i] for j, i in enumerate(sigma))
