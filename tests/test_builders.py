"""Every object the pipeline builds unchecked equals its public constructor's.

The package's own builders skip the constructors' checks through one
internal builder that takes each field by name.  A misspelt name would
only fail at a later read, so every builder's result is compared here
with the public constructor's result on the same fields, and its instance
dictionary must hold exactly the dataclass's fields.
"""

from dataclasses import fields
from itertools import combinations_with_replacement

import pytest

from permutiples import (
    CarrySeq,
    Cycle,
    CycleMultiset,
    DigitVec,
    HSMultigraph,
    MotherGraph,
    Params,
    PermutipleString,
    PermutipleWitness,
    build_hs_multigraph,
    build_mother_graph,
    count_circuits,
    cycle_multi_image,
    enumerate_cycles,
    enumerate_strings,
    string_to_witness,
    union_images,
)

PARAMS = [Params(n, b) for b in range(3, 7) for n in range(2, b)] + [Params(4, 10)]


def assert_built(obj, public):
    """obj, made by a package builder, is what the public constructor makes."""
    assert type(obj) is type(public)
    assert set(vars(obj)) == {f.name for f in fields(public)}
    assert obj == public


@pytest.mark.parametrize("p", PARAMS, ids=str)
def test_builders_match_public_constructors(p):
    mother = build_mother_graph(p)
    assert_built(mother, MotherGraph(p, mother.edges))
    inventory = enumerate_cycles(mother)
    for c in inventory:
        assert_built(c, Cycle(c.edges))
    machine = build_hs_multigraph(p)
    assert_built(machine, HSMultigraph(p, machine.multiedges))
    images = [cycle_multi_image(c, p) for c in inventory]
    for img in images:
        assert_built(img, HSMultigraph(p, img.multiedges))
    both = images[0].union(images[-1])
    assert_built(both, HSMultigraph(p, images[0].multiedges + images[-1].multiedges))
    strings = 0
    # every union of at most two of the first twelve cycles
    for indices in combinations_with_replacement(range(min(12, len(inventory))), 2):
        g = union_images(CycleMultiset.from_indices(indices), p, inventory)
        assert_built(g, HSMultigraph(p, g.multiedges))
        if not 0 < count_circuits(g).label_distinct <= 64:
            continue
        for s in enumerate_strings(g):
            assert_built(s, PermutipleString(s.pairs))
            w = string_to_witness(s, p)
            digits = DigitVec(w.digits.digits, w.digits.base)
            permuted = DigitVec(w.permuted.digits, w.permuted.base)
            carries = CarrySeq(w.carries.carries)
            assert_built(w.digits, digits)
            assert_built(w.permuted, permuted)
            assert_built(w.carries, carries)
            assert_built(w, PermutipleWitness(p, digits, permuted, carries, w.sigma))
            strings += 1
    assert strings > 0
