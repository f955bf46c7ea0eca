"""Every object the pipeline builds unchecked equals its public constructor's.

The package's own builders skip the constructors' checks through one
internal builder per class, digits._trusted(cls), which takes each field
by keyword.  Every builder's result is compared here with the public
constructor's result on the same fields.  Every value type is a frozen,
slotted dataclass: each field is readable, no instance has a __dict__
(one would cost about 200 bytes an object), and each type survives
pickle and copy with its equality and hash.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass
from itertools import combinations_with_replacement

import pytest

import permutiples
from permutiples import (
    CarrySeq,
    ClassGraph,
    ConditionReport,
    Cycle,
    CycleMultiset,
    DigitGraph,
    DigitVec,
    EnumerationOptions,
    EquivalenceReport,
    HSMultigraph,
    MotherGraph,
    Params,
    PermutipleString,
    PermutipleWitness,
    WitnessReport,
    build_hs_multigraph,
    build_mother_graph,
    condition_report,
    count_circuits,
    cycle_multi_image,
    enumerate_cycles,
    enumerate_strings,
    equivalence_check,
    string_to_witness,
    union_images,
    verify_witness,
)
from permutiples.digits import _trusted

PARAMS = [Params(n, b) for b in range(3, 7) for n in range(2, b)] + [Params(4, 10)]


def assert_built(obj, public):
    """obj, made by a package builder, is what the public constructor makes."""
    assert type(obj) is type(public)
    for f in fields(public):
        getattr(obj, f.name)
    assert not hasattr(obj, "__dict__")
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
            report = verify_witness(w)
            assert_built(report, WitnessReport(*[getattr(report, f.name) for f in fields(report)]))
            strings += 1
    assert strings > 0


def _one_of_each():
    p = Params(2, 4)
    mother = build_mother_graph(p)
    cycles = enumerate_cycles(mother)
    g = union_images(CycleMultiset.from_indices([0, 3]), p, cycles)
    s = enumerate_strings(g)[0]
    w = string_to_witness(s, p)
    return [
        p,
        w.digits,
        w.carries,
        verify_witness(w),
        w,
        condition_report(g),
        EnumerationOptions(cap=7),
        DigitGraph(p, mother.edges[:3]),
        mother,
        ClassGraph(p, [(0, 0)]),
        cycles[3],
        equivalence_check(p, 3),
        g,
        CycleMultiset.from_indices([0, 3]),
        s,
    ]


VALUES = _one_of_each()


def test_every_value_type_is_slotted():
    package = {
        cls
        for module in (permutiples.digits, permutiples.euler, permutiples.mothergraph,
                       permutiples.oracle, permutiples.statemachine)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if is_dataclass(cls) and cls.__module__ == module.__name__
    }
    assert {type(v) for v in VALUES} == package
    assert len(package) == 15
    for cls in package:
        assert "__slots__" in vars(cls)


@pytest.mark.parametrize("obj", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_copy_pickle_and_stay_frozen(obj):
    assert not hasattr(obj, "__dict__")
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        assert twin == obj
        assert hash(twin) == hash(obj)
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def test_builder_takes_each_field_by_keyword():
    assert _trusted(DigitVec)(digits=(1, 2), base=4) == DigitVec((1, 2), 4)
    with pytest.raises(TypeError, match="digit"):
        _trusted(DigitVec)(digit=(1, 2), base=4)  # misspelt
    with pytest.raises(TypeError, match="base"):
        _trusted(DigitVec)(digits=(1, 2))  # missing
    with pytest.raises(TypeError):
        _trusted(DigitVec)((1, 2), 4)  # positional
