from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from permutiples import (
    CarrySeq,
    ClassGraph,
    Cycle,
    CycleMultiset,
    DigitAlignmentError,
    DigitVec,
    HSMultigraph,
    Params,
    PermutipleString,
    PermutipleWitness,
    carry_sequence,
    digits_of,
    find_permutation,
    value,
    edge_allowed,
    transition,
    verify_witness,
)


# === parameters and digit vectors ===


@pytest.mark.parametrize("n,b", [(2, 4), (3, 4), (4, 10), (2, 3), (11, 12)])
def test_params_accepts_valid_pairs(n, b):
    p = Params(n, b)
    assert (p.n, p.b) == (n, b)


@pytest.mark.parametrize("n,b", [(1, 4), (4, 4), (5, 4), (0, 2), (2, 1), (-1, 10)])
def test_params_rejects_degenerate_pairs(n, b):
    with pytest.raises(ValueError):
        Params(n, b)


def test_params_text_names_a_huge_int_by_its_digit_count():
    # Up to 640 digits every int prints under any int-to-str limit and the
    # text is the dataclass's own; past it, the int is named by digit count.
    assert repr(Params(2, 10)) == "Params(n=2, b=10)"
    assert str(Params(2, 10)) == "(n=2, b=10)"
    spelled = 10**640 - 1
    assert repr(Params(3, spelled)) == f"Params(n=3, b={spelled})"
    assert str(Params(3, spelled)) == f"(n=3, b={spelled})"
    assert str(Params(2, 10**640)) == "(n=2, b=<641 digits>)"
    huge = Params(2, 10**5000)
    assert repr(huge) == "Params(n=2, b=<5001 digits>)"
    assert str(huge) == "(n=2, b=<5001 digits>)"
    both = Params(10**5000 - 1, 10**5000)
    assert repr(both) == "Params(n=<5000 digits>, b=<5001 digits>)"


def test_digitvec_is_least_significant_first():
    v = DigitVec.from_msd([8, 7, 9, 1, 2], 10)
    assert v.digits == (2, 1, 9, 7, 8)
    assert v.msd == (8, 7, 9, 1, 2)
    assert str(v) == "(8,7,9,1,2)_10"
    assert len(v) == 5


@pytest.mark.parametrize(
    "digits,base", [((4,), 4), ((-1,), 10), ((), 10), ((0,), 1), ((0.5,), 4)]
)
def test_digitvec_rejects_bad_input(digits, base):
    with pytest.raises(ValueError):
        DigitVec(digits, base)


def test_integral_floats_are_stored_as_ints():
    v = DigitVec((1.0, 2), 4)
    assert str(v) == "(2,1)_4"
    assert v == DigitVec((1, 2), 4)
    assert [type(d) for d in v.digits] == [int, int]
    c = CarrySeq((0.0, 3.0, 0))
    assert c.carries == (0, 3, 0)
    assert [type(x) for x in c] == [int, int, int]
    w = PermutipleWitness.build(Params(2, 4), DigitVec.from_msd([1.0, 0, 2.0], 4),
                                DigitVec.from_msd([0, 2.0, 1], 4))
    assert str(w.digits) == "(1,0,2)_4" and verify_witness(w).is_permutiple
    p = Params(2.0, 10.0)
    assert p == Params(2, 10) and (type(p.n), type(p.b)) == (int, int)
    assert repr(p) == "Params(n=2, b=10)"
    v = DigitVec((1,), 10.0)
    assert type(v.base) is int and str(v) == "(1)_10"


def test_integral_float_sigma_is_stored_as_ints():
    p = Params(2, 4)
    digits, permuted = DigitVec((1, 0, 2), 4), DigitVec((0, 2, 1), 4)
    # replace runs the constructor's checks, as a caller's own sigma must
    w = replace(PermutipleWitness.build(p, digits, permuted), sigma=(1.0, 2.0, 0.0))
    assert verify_witness(w).sigma_consistent
    assert w.sigma == (1, 2, 0) and [type(i) for i in w.sigma] == [int, int, int]
    with pytest.raises(ValueError, match="not an integer"):
        replace(w, sigma=(1.5, 2, 0))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: DigitVec((1, 5), 4), "digit 5 out of range for base 4"),
        (lambda: DigitVec((1, 0.5), 4), "digit 0.5 is not an integer"),
        (lambda: CarrySeq((0, 0.75)), "carry 0.75 is not an integer"),
        (lambda: _shaped(sigma=(0, 7, 1)), "sigma index 7 out of range"),
        (lambda: _shaped(sigma=(0, 1.5, 1)), "sigma index 1.5 is not an integer"),
        (lambda: Params(2.5, 10), "multiplier 2.5 is not an integer"),
    ],
)
def test_integer_rule_names_the_value(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: DigitVec(("a",), 10), "digit 'a' is not a number"),
        (lambda: CarrySeq((0, "x")), "carry 'x' is not a number"),
        (lambda: _shaped(sigma=(0, None, 1)), "sigma index None is not a number"),
        (lambda: CycleMultiset((("1", 1),)), "cycle index '1' is not a number"),
        (lambda: CycleMultiset(((0, "2"),)), "multiplicity '2' is not a number"),
        (lambda: Cycle((("a", 1), (1, "a"))), "pair digit 'a' is not a number"),
        (lambda: Cycle((("a", "b"), ("b", "a"))), "pair digit 'a' is not a number"),
        (lambda: ClassGraph(Params(2, 4), [(0, "0")]), "pair digit '0' is not a number"),
        (lambda: HSMultigraph(Params(2, 4), [(0, 0, ("0", 0))]), "pair digit '0' is not a number"),
        (lambda: PermutipleString(((0, 0), (1, b"1"))), "pair digit b'1' is not a number"),
        (lambda: Params("2", 10), "multiplier '2' is not a number"),
        (lambda: Params(2, "10"), "base '10' is not a number"),
        (lambda: DigitVec((1,), "10"), "base '10' is not a number"),
        (lambda: edge_allowed(("a", 1), Params(2, 4)), "pair digit 'a' is not a number"),
        (lambda: transition((1, "a"), Params(2, 4)), "pair digit 'a' is not a number"),
    ],
    ids=["DigitVec", "CarrySeq", "sigma", "index", "multiplicity", "Cycle", "Cycle-all-str",
         "ClassGraph", "HSMultigraph", "PermutipleString", "Params-n", "Params-b",
         "DigitVec-base", "edge_allowed", "transition"],
)
def test_constructors_name_a_value_that_is_not_a_number(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _shaped(digits=(1, 0, 2), permuted=(0, 2, 1), base=4, sigma=None):
    # Shape only: the constructor checks shape, verify_witness the claim.
    return PermutipleWitness(Params(2, 4), DigitVec(digits, 4), DigitVec(permuted, base),
                             CarrySeq((0,) * (len(digits) + 1)), sigma)


def test_witness_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="^digit vectors must use base b of the parameters$"):
        _shaped(base=5)
    with pytest.raises(ValueError, match="^sigma must assign every digit position$"):
        _shaped(sigma=(1, 2))
    with pytest.raises(ValueError, match="^digits and permuted must have the same length$"):
        _shaped(permuted=(0, 2))
    assert _shaped(sigma=(1.0, 2, 0)).sigma == (1, 2, 0)


def test_digits_of_rejects_bad_arguments():
    for args, message in [
        ((-1, 10, 2), "m must be non-negative, got -1"),
        ((5, 10, 0), "width must be at least 1, got 0"),
        ((5, 1, 2), "base must be at least 2, got 1"),
    ]:
        with pytest.raises(ValueError) as info:
            digits_of(*args)
        assert str(info.value) == message
    with pytest.raises(OverflowError, match="^100 does not fit in 2 base-10 digits$"):
        digits_of(100, 10, 2)


def test_value_examples():
    assert value(DigitVec.from_msd([8, 7, 9, 1, 2], 10)) == 87912
    assert value(DigitVec.from_msd([1, 0, 2], 4)) == 18
    assert value(DigitVec.from_msd([0], 4)) == 0
    assert value(DigitVec.from_msd([0, 0, 7], 10)) == 7


def test_digits_of_pads_and_roundtrips():
    v = digits_of(87912, 10, 5)
    assert v.msd == (8, 7, 9, 1, 2)
    assert digits_of(7, 10, 3).msd == (0, 0, 7)
    assert digits_of(0, 4, 1).digits == (0,)


def test_digits_of_overflow():
    with pytest.raises(OverflowError):
        digits_of(1000, 10, 3)
    digits_of(999, 10, 3)


@given(st.integers(2, 16), st.integers(1, 12), st.data())
def test_value_digits_roundtrip(base, width, data):
    m = data.draw(st.integers(0, base**width - 1))
    v = digits_of(m, base, width)
    assert len(v) == width
    assert value(v) == m


# === carries ===


def test_carry_seq_starts_at_zero():
    CarrySeq((0, 3, 0))
    with pytest.raises(ValueError):
        CarrySeq((1, 0))
    with pytest.raises(ValueError):
        CarrySeq(())
    with pytest.raises(ValueError):
        CarrySeq((0, 0.75, 0))
    assert CarrySeq((0, 3.0, 0)).final == 0  # integral floats stay allowed


def test_carry_sequence_of_reversal_multiple():
    p = Params(4, 10)
    digits = DigitVec.from_msd([8, 7, 9, 1, 2], 10)
    permuted = DigitVec.from_msd([2, 1, 9, 7, 8], 10)
    assert carry_sequence(digits, permuted, p).carries == (0, 3, 3, 3, 0, 0)


def test_carry_sequence_small_base():
    p = Params(2, 4)
    digits = DigitVec.from_msd([1, 0, 2], 4)
    permuted = DigitVec.from_msd([0, 2, 1], 4)
    assert carry_sequence(digits, permuted, p).carries == (0, 0, 1, 0)


def test_carry_sequence_rejects_non_integral_step():
    p = Params(2, 10)
    with pytest.raises(DigitAlignmentError):
        carry_sequence(DigitVec.from_msd([1, 2], 10), DigitVec.from_msd([2, 1], 10), p)


def test_carry_sequence_rejects_impossible_alignment():
    p = Params(2, 4)
    with pytest.raises(DigitAlignmentError):
        carry_sequence(DigitVec.from_msd([0, 3], 4), DigitVec.from_msd([3, 0], 4), p)


def test_carry_sequence_checks_shape():
    p = Params(2, 4)
    with pytest.raises(ValueError):
        carry_sequence(DigitVec((1,), 4), DigitVec((1, 2), 4), p)
    with pytest.raises(ValueError):
        carry_sequence(DigitVec((1,), 4), DigitVec((1,), 5), p)


# === witnesses ===


def _witness(n, b, msd_digits, msd_permuted):
    p = Params(n, b)
    return PermutipleWitness.build(
        p,
        DigitVec.from_msd(msd_digits, b),
        DigitVec.from_msd(msd_permuted, b),
    )


def test_verify_reversal_multiple():
    w = _witness(4, 10, [8, 7, 9, 1, 2], [2, 1, 9, 7, 8])
    report = verify_witness(w)
    assert report.is_permutiple
    assert w.carries.carries == (0, 3, 3, 3, 0, 0)
    assert w.sigma is not None


def test_verify_rejects_wrong_value():
    report = verify_witness(_witness(2, 10, [1, 2], [2, 1]))
    assert not report.value_relation
    assert not report.is_permutiple


def test_verify_rejects_different_multisets():
    # value relation holds (14 = 2 * 7) but the digit multisets differ
    report = verify_witness(_witness(2, 4, [3, 2], [1, 3]))
    assert report.value_relation
    assert not report.multisets_equal
    assert not report.is_permutiple


def test_verify_flags_bad_sigma():
    p = Params(4, 10)
    digits = DigitVec.from_msd([8, 7, 9, 1, 2], 10)
    permuted = DigitVec.from_msd([2, 1, 9, 7, 8], 10)
    good = PermutipleWitness.build(p, digits, permuted)
    assert verify_witness(good).sigma_consistent
    bad = replace(good, sigma=(0, 1, 2, 3, 4))
    assert not verify_witness(bad).sigma_consistent
    repeated = replace(good, sigma=(0, 0, 2, 1, 4))
    assert not verify_witness(repeated).sigma_consistent


def test_non_integral_digits_never_reach_verification():
    # 7.5 = 2 * 3.75 with every recurrence step exact, yet no digit is whole.
    with pytest.raises(ValueError):
        verify_witness(
            PermutipleWitness(
                Params(2, 4),
                DigitVec((0.5, 1.75), 4),
                DigitVec((1.75, 0.5), 4),
                CarrySeq((0, 0.75, 0)),
            )
        )
    assert DigitVec((1.0, 2), 4).digits == (1, 2)


def test_verify_without_sigma_uses_multisets():
    w = _witness(4, 10, [8, 7, 9, 1, 2], [2, 1, 9, 7, 8])
    no_sigma = PermutipleWitness(w.params, w.digits, w.permuted, w.carries, None)
    assert verify_witness(no_sigma).is_permutiple


def test_witness_shape_validation():
    p = Params(2, 4)
    v2 = DigitVec((1, 2), 4)
    v3 = DigitVec((1, 2, 3), 4)
    with pytest.raises(ValueError):
        PermutipleWitness(p, v2, v3, CarrySeq((0, 0, 0)))
    with pytest.raises(ValueError):
        PermutipleWitness(p, v2, v2, CarrySeq((0, 0)))
    with pytest.raises(ValueError):
        PermutipleWitness(p, v2, v2, CarrySeq((0, 0, 0)), sigma=(0, 5))


def test_find_permutation():
    digits = DigitVec.from_msd([8, 7, 9, 1, 2], 10)
    permuted = DigitVec.from_msd([2, 1, 9, 7, 8], 10)
    sigma = find_permutation(digits, permuted)
    assert sigma is not None
    assert sorted(sigma) == [0, 1, 2, 3, 4]
    assert all(permuted.digits[j] == digits.digits[sigma[j]] for j in range(5))
    assert find_permutation(digits, DigitVec.from_msd([2, 1, 9, 7, 7], 10)) is None


@given(
    st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n + 1, 10))
    ),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
)
def test_carry_success_with_zero_final_implies_value_relation(nb, ds, qs):
    n, b = nb
    p = Params(n, b)
    k = min(len(ds), len(qs))
    digits = DigitVec(tuple(d % b for d in ds[:k]), b)
    permuted = DigitVec(tuple(q % b for q in qs[:k]), b)
    try:
        carries = carry_sequence(digits, permuted, p)
    except DigitAlignmentError:
        return
    if carries.final == 0:
        assert value(digits) == p.n * value(permuted)
