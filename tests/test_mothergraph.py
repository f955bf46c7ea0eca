import hashlib
from bisect import bisect_right

import pytest

from helpers import brute_force_cycles, cycle_index
from permutiples import (
    CapExceededError,
    ClassGraph,
    Cycle,
    DigitPair,
    DigitVec,
    MotherGraph,
    Params,
    PermutipleWitness,
    brute_force_search,
    build_mother_graph,
    edge_allowed,
    enumerate_cycles,
    graph_of_witness,
    graph_to_dot,
)
from permutiples import mothergraph
from permutiples.mothergraph import _short_cycles

P24 = Params(2, 4)
P34 = Params(3, 4)
P410 = Params(4, 10)


# === edge predicate ===


def test_edge_allowed_examples():
    assert edge_allowed((8, 2), P410)
    assert edge_allowed((0, 0), P410)
    assert not edge_allowed((2, 0), P24)
    assert not edge_allowed((1, 1), P24)


def test_edge_allowed_out_edges_of_zero():
    allowed = {d2 for d2 in range(10) if edge_allowed((0, d2), P410)}
    assert allowed == {0, 2, 5, 7}


def test_edge_allowed_rejects_non_digits():
    with pytest.raises(ValueError):
        edge_allowed((10, 0), P410)
    with pytest.raises(ValueError):
        edge_allowed((0, -1), P410)


# === building graphs ===


def test_mother_graph_two_four_exact():
    g = build_mother_graph(P24)
    assert {tuple(e) for e in g.edges} == {
        (0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 1), (3, 3),
    }


def test_mother_graph_three_four_exact():
    g = build_mother_graph(P34)
    assert {tuple(e) for e in g.edges} == {
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3),
        (2, 0), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
    }
    out = {v: 0 for v in range(4)}
    for e in g.edges:
        out[e.d1] += 1
    assert all(deg == 3 for deg in out.values())


def test_mother_graph_four_ten_size():
    g = build_mother_graph(P410)
    assert len(g.edges) == 40
    out = {v: 0 for v in range(10)}
    for e in g.edges:
        out[e.d1] += 1
    assert all(deg == 4 for deg in out.values())


def test_mother_graph_edges_sorted_and_allowed():
    for n, b in [(2, 4), (3, 5), (4, 10), (5, 12)]:
        p = Params(n, b)
        g = build_mother_graph(p)
        assert list(g.edges) == sorted(g.edges)
        assert all(edge_allowed(e, p) for e in g.edges)


def test_mother_graph_is_built_without_rechecking(monkeypatch):
    # The built pairs skip the public constructor's sort and residue check,
    # and still make the graph that constructor makes.
    for b in range(3, 12):
        for n in range(2, b):
            p = Params(n, b)
            g = build_mother_graph(p)
            assert type(g) is MotherGraph and g == MotherGraph(p, g.edges)

    def no_check(pair, p):
        raise AssertionError(f"build_mother_graph re-checked {pair}")

    monkeypatch.setattr(mothergraph, "edge_allowed", no_check)
    assert len(build_mother_graph(P410).edges) == 40


def test_mother_graph_constructor_rejects_incomplete_edge_set():
    full = build_mother_graph(P24)
    with pytest.raises(ValueError):
        MotherGraph(P24, full.edges[1:])


def test_class_graph_rejects_disallowed_edges():
    with pytest.raises(ValueError):
        ClassGraph(P24, (DigitPair(2, 0),))


# === witness class graphs ===


def _witness(p, msd_digits, msd_permuted):
    return PermutipleWitness.build(
        p,
        DigitVec.from_msd(msd_digits, p.b),
        DigitVec.from_msd(msd_permuted, p.b),
    )


def test_graph_of_reversal_witness():
    w = _witness(P410, [8, 7, 9, 1, 2], [2, 1, 9, 7, 8])
    g = graph_of_witness(w)
    assert {tuple(e) for e in g.edges} == {(2, 8), (8, 2), (1, 7), (7, 1), (9, 9)}


def test_graph_of_short_witnesses():
    w = _witness(P24, [0], [0])
    assert {tuple(e) for e in graph_of_witness(w).edges} == {(0, 0)}
    w2 = _witness(P24, [3, 1, 2], [1, 2, 3])
    assert {tuple(e) for e in graph_of_witness(w2).edges} == {(2, 3), (1, 2), (3, 1)}


# === cycles ===


def test_cycle_rejects_malformed_input():
    with pytest.raises(ValueError):
        Cycle((DigitPair(0, 2), DigitPair(1, 0)))  # edges do not chain
    with pytest.raises(ValueError):
        Cycle((DigitPair(1, 0), DigitPair(0, 1)))  # does not start at min vertex
    with pytest.raises(ValueError):
        Cycle(())


def test_cycle_rejects_a_repeated_vertex():
    with pytest.raises(ValueError, match="^cycle visits a vertex twice$"):
        Cycle(((0, 1), (1, 0), (0, 1), (1, 0)))


def test_integral_float_digits_are_stored_as_ints():
    c = Cycle(((1.0, 2), (2, 1)))
    assert str(c) == "(1,2)(2,1)"
    assert Cycle(((1.0, 2), (2, 1.0))) == c
    g = ClassGraph(P24, [(1.0, 2), (1, 2)])
    assert g.edges == (DigitPair(1, 2),)
    mother = MotherGraph(P24, [(float(d1), d2) for d1, d2 in build_mother_graph(P24).edges])
    assert mother == build_mother_graph(P24)
    for edges in (c.edges, g.edges, mother.edges):
        assert all(type(d) is int for e in edges for d in e)
    # a non-integral value is rejected where it enters, by the integer rule
    with pytest.raises(ValueError, match=r"^pair digit 1.5 is not an integer$"):
        ClassGraph(P24, [(1.5, 2)])
    with pytest.raises(ValueError, match=r"^pair digit 1.5 is not an integer$"):
        Cycle(((1.5, 2), (2, 1)))


def test_cycle_inventory_two_four():
    inv = enumerate_cycles(build_mother_graph(P24))
    assert [tuple(map(tuple, c.edges)) for c in inv] == [
        ((0, 0),),
        ((3, 3),),
        ((1, 2), (2, 1)),
        ((0, 2), (2, 1), (1, 0)),
        ((1, 2), (2, 3), (3, 1)),
        ((0, 2), (2, 3), (3, 1), (1, 0)),
    ]
    lengths = [len(c.edges) for c in inv]
    assert lengths == [1, 1, 2, 3, 3, 4]


def test_cycle_inventory_three_four():
    inv = enumerate_cycles(build_mother_graph(P34))
    contents = {tuple(map(tuple, c.edges)) for c in inv}
    assert contents == {
        ((0, 0),),
        ((1, 1),),
        ((2, 2),),
        ((3, 3),),
        ((0, 1), (1, 0)),
        ((0, 2), (2, 0)),
        ((1, 3), (3, 1)),
        ((2, 3), (3, 2)),
        ((0, 1), (1, 3), (3, 2), (2, 0)),
        ((0, 2), (2, 3), (3, 1), (1, 0)),
    }
    assert [len(c.edges) for c in inv] == [1, 1, 1, 1, 2, 2, 2, 2, 4, 4]


def test_cycle_inventory_of_class_graph():
    w = _witness(P410, [8, 7, 9, 1, 2], [2, 1, 9, 7, 8])
    inv = enumerate_cycles(graph_of_witness(w))
    assert len(inv) == 3
    assert cycle_index(inv, {(9, 9)}) is not None
    assert cycle_index(inv, {(1, 7), (7, 1)}) is not None
    assert cycle_index(inv, {(2, 8), (8, 2)}) is not None


def test_cycle_order_is_deterministic_and_injective():
    inv1 = enumerate_cycles(build_mother_graph(P34))
    inv2 = enumerate_cycles(build_mother_graph(P34))
    assert inv1 == inv2
    assert len(set(inv1)) == len(inv1)


def test_inventory_text_is_pinned():
    # Every edge is a DigitPair, never a bare tuple: str(cycle) and the CLI
    # print "(d1,d2)" from DigitPair.__str__.  The (4, 10) inventory is
    # pinned by the SHA-256 of its 986 cycle texts, one per line.
    assert [str(c) for c in enumerate_cycles(build_mother_graph(P24))] == [
        "(0,0)", "(3,3)", "(1,2)(2,1)", "(0,2)(2,1)(1,0)", "(1,2)(2,3)(3,1)",
        "(0,2)(2,3)(3,1)(1,0)",
    ]
    assert [str(c) for c in enumerate_cycles(build_mother_graph(P34))] == [
        "(0,0)", "(1,1)", "(2,2)", "(3,3)", "(0,1)(1,0)", "(0,2)(2,0)", "(1,3)(3,1)",
        "(2,3)(3,2)", "(0,1)(1,3)(3,2)(2,0)", "(0,2)(2,3)(3,1)(1,0)",
    ]
    inv = enumerate_cycles(build_mother_graph(P410))
    assert all(type(e) is DigitPair for c in inv for e in c.edges)
    text = "\n".join(str(c) for c in inv).encode()
    assert len(inv) == 986
    assert hashlib.sha256(text).hexdigest() == (
        "199a16268ddea2cbf8be582388506482317f85cd6dd0f1b63d598e486c379c10"
    )
    for p in (P24, P34, Params(2, 5), Params(3, 7)):
        g = graph_of_witness(brute_force_search(p, 4)[-1])
        assert all(type(e) is DigitPair for c in enumerate_cycles(g) for e in c.edges)


def test_cycle_cap_raises():
    with pytest.raises(CapExceededError):
        enumerate_cycles(build_mother_graph(P24), max_cycles=2)
    with pytest.raises(ValueError):
        enumerate_cycles(build_mother_graph(P24), max_cycles=0)
    g = build_mother_graph(P410)
    with pytest.raises(CapExceededError, match="^more than 985 elementary cycles$"):
        enumerate_cycles(g, max_cycles=985)
    assert len(enumerate_cycles(g, max_cycles=986)) == 986


@pytest.mark.parametrize(
    "n,b,count",
    [(5, 10, 5842), (6, 10, 9935), (7, 10, 51999), (4, 11, 2117), (2, 32, 30176)],
)
def test_full_inventory_counts(n, b, count):
    # Counts found by Johnson's blocked search, which the bounded walk replaced.
    assert len(enumerate_cycles(build_mother_graph(Params(n, b)), max_cycles=count)) == count


@pytest.mark.parametrize(
    "n,b,lengths",
    [(n, b, range(1, 9)) for b in range(3, 9) for n in range(2, b)]
    + [(n, b, range(1, b + 2)) for n, b in [(4, 10), (3, 7), (4, 11)]],
)
def test_short_cycles_are_the_inventory_prefix(n, b, lengths):
    # The brute-force path search, in canonical order, is the bounded
    # search's slow twin: the whole inventory and its prefix at each length
    # hold the same cycles at the same indices, made of the graph's own pairs.
    g = build_mother_graph(Params(n, b))
    slow = sorted(brute_force_cycles(g), key=lambda edges: (len(edges), edges))
    assert [c.edges for c in enumerate_cycles(g)] == slow
    for length in lengths:
        short = _short_cycles(g, length)
        assert [c.edges for c in short] == slow[: bisect_right(slow, length, key=len)], length
        assert all(type(e) is DigitPair for c in short for e in c.edges)


def test_short_cycle_cap_counts_the_cycles_that_fit():
    g = build_mother_graph(P410)  # 130 of its 986 cycles have at most 5 edges
    with pytest.raises(CapExceededError, match="^more than 129 elementary cycles$"):
        _short_cycles(g, 5, max_cycles=129)
    assert len(_short_cycles(g, 5, max_cycles=130)) == 130
    with pytest.raises(ValueError):
        _short_cycles(g, 5, max_cycles=0)


@pytest.mark.parametrize(
    "n,b",
    [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5)],
)
def test_cycles_match_brute_force_path_search(n, b):
    g = build_mother_graph(Params(n, b))
    inv = enumerate_cycles(g)
    assert {c.edges for c in inv} == brute_force_cycles(g)


@pytest.mark.parametrize(
    "n,b", [(n, b) for b in range(3, 8) for n in range(2, b)] + [(4, 10)]
)
def test_inventory_cycles_equal_validated_cycles(n, b):
    # enumerate_cycles builds without checks; both public routes must agree
    inv = enumerate_cycles(build_mother_graph(Params(n, b)))
    assert list(inv) == [Cycle(c.edges) for c in inv]
    assert all(type(e) is DigitPair for c in inv for e in c.edges)


# === dot export ===


def test_dot_output_shape():
    g = build_mother_graph(P24)
    dot = graph_to_dot(g, name="mother_graph")
    lines = dot.strip().splitlines()
    assert lines[0] == "digraph mother_graph {"
    assert lines[-1] == "}"
    assert "  0 -> 0;" in lines
    assert "  3 -> 3;" in lines
    assert dot == graph_to_dot(g, name="mother_graph")
