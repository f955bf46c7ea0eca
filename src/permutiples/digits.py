"""Exact base-b digit arithmetic: digit vectors, carries, witness checking.

A permutiple is a natural number that is an integer multiple of some
rearrangement of its own base-b digits.  Digit vectors here are stored
least-significant digit first, so position j holds the coefficient of b**j
and the carry recurrence of single-digit multiplication runs straight down
the sequence; display output reverses to the familiar most-significant-first
notation.  Everything is plain Python integers, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from numbers import Complex, Number, Real
from typing import Optional, Sequence

from .errors import DigitAlignmentError

__all__ = [
    "Params",
    "DigitVec",
    "CarrySeq",
    "PermutipleWitness",
    "WitnessReport",
    "value",
    "digits_of",
    "carry_sequence",
    "verify_witness",
    "find_permutation",
]


def _ints(values, what: str, bound=None, where: str = "") -> tuple[int, ...]:
    """values as a tuple, checked in turn and with integral floats stored as ints.

    The package's one integer rule: each value must be a number, and not a
    complex one, then lie in 0..bound-1 when a bound is given, then be
    integral (inf and nan are not); the first failure raises ValueError
    naming the value as `what`, with `where` after the range error.
    """
    values = tuple(values)
    exact = True
    for v in values:
        if type(v) is not int:
            # A value that is not a number has no range or integrality to check.
            if not isinstance(v, Number):
                raise ValueError(f"{what} {v!r} is not a number")
            if isinstance(v, Complex) and not isinstance(v, Real):
                raise ValueError(f"{what} {v!r} is not a real number")
            # A Decimal NaN or infinity raises InvalidOperation in the checks
            # below, where a float one compares false; fail it as float would.
            if hasattr(v, "is_finite") and not v.is_finite():
                raise ValueError(f"{what} {v} out of range{where}" if bound is not None
                                 else f"{what} {v} is not an integer")
            exact = False
        if bound is not None and not 0 <= v < bound:
            raise ValueError(f"{what} {v} out of range{where}")
        if type(v) is not int and v % 1 != 0:
            raise ValueError(f"{what} {v} is not an integer")
    return values if exact else tuple(map(int, values))


def _count(x, what: str, least: int = 1, message: str = "{what} must be positive, got {x}") -> int:
    """x as an int of at least `least`, by _ints; a smaller x raises ValueError(message)."""
    (x,) = _ints((x,), what)
    if x < least:
        raise ValueError(message.format(what=what, x=x))
    return x


@cache
def _trusted(cls):
    """The unchecked builder of the frozen, slotted dataclass cls.

    For data the package built itself: the builder takes every field by
    keyword, with no defaults, and stores each through its slot, so
    __post_init__ does not run and the caller vouches for every field.
    Like the __init__ that dataclasses writes, it is compiled once per class.
    """
    names = [f.name for f in fields(cls)]
    scope = {"_new": object.__new__, "_cls": cls}
    build = f"_trusted_{cls.__name__}"  # the name a TypeError at the call shows
    lines = [f"def {build}(*, {', '.join(names)}):", "    _obj = _new(_cls)"]
    for name in names:
        scope[f"_set_{name}"] = getattr(cls, name).__set__  # the slot's descriptor
        lines.append(f"    _set_{name}(_obj, {name})")
    lines.append("    return _obj")
    exec("\n".join(lines), scope)
    return scope[build]


# Python prints any int below 10**640 whatever its int-to-str limit, since
# no limit may be set lower; messages name a longer int by its digit count,
# so a huge base still fails with the error meant for it.
_SPELLED = 10**640


def _decimal(x: int) -> str:
    if x < _SPELLED:
        return str(x)
    # (bits - 1) * log10(2), rounded down, is at most floor(log10(x))
    k = (x.bit_length() - 1) * 301029995 // 10**9
    power = 10**k
    while power * 10 <= x:
        power *= 10
        k += 1
    return f"<{k + 1} digits>"


@dataclass(frozen=True, slots=True)
class Params:
    """A multiplier/base pair (n, b) with 1 < n < b."""

    n: int
    b: int

    def __post_init__(self) -> None:
        n, b = _ints((self.n,), "multiplier") + _ints((self.b,), "base")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)
        if b < 2:
            raise ValueError(f"base must be at least 2, got {b}")
        if not 1 < n < b:
            raise ValueError(f"multiplier must satisfy 1 < n < b, got n={n}, b={b}")

    # An int of more than 640 digits is named by its digit count (_decimal).
    def __repr__(self) -> str:
        return f"Params(n={_decimal(self.n)}, b={_decimal(self.b)})"

    def __str__(self) -> str:
        return f"(n={_decimal(self.n)}, b={_decimal(self.b)})"


@dataclass(frozen=True, slots=True)
class DigitVec:
    """A digit vector in a fixed base, least-significant digit first."""

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        digits = tuple(self.digits)
        (base,) = _ints((self.base,), "base")
        object.__setattr__(self, "base", base)
        if base < 2:
            raise ValueError(f"base must be at least 2, got {base}")
        if not digits:
            raise ValueError("digit vector must hold at least one digit")
        object.__setattr__(self, "digits", _ints(digits, "digit", base, f" for base {base}"))

    @classmethod
    def from_msd(cls, digits: Sequence[int], base: int) -> "DigitVec":
        """Build from digits in display order, most significant first."""
        return cls(tuple(reversed(tuple(digits))), base)

    @property
    def msd(self) -> tuple[int, ...]:
        """Digits in display order, most significant first."""
        return tuple(reversed(self.digits))

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "(%s)_%d" % (",".join(str(d) for d in self.msd), self.base)


@dataclass(frozen=True, slots=True)
class CarrySeq:
    """Carries c_0 .. c_l of a single-digit multiplication; c_0 is always 0."""

    carries: tuple[int, ...]

    def __post_init__(self) -> None:
        carries = tuple(self.carries)
        if not carries:
            raise ValueError("carry sequence must not be empty")
        if carries[0] != 0:
            raise ValueError(f"initial carry must be 0, got {carries[0]}")
        object.__setattr__(self, "carries", _ints(carries, "carry"))

    @property
    def final(self) -> int:
        return self.carries[-1]

    def __len__(self) -> int:
        return len(self.carries)

    def __iter__(self):
        return iter(self.carries)


@dataclass(frozen=True, slots=True)
class WitnessReport:
    """Outcome of checking one claimed permutiple, flag by flag."""

    multisets_equal: bool
    value_relation: bool
    carries_consistent: bool
    final_carry_zero: bool
    carries_bounded: bool
    sigma_consistent: bool

    @property
    def is_permutiple(self) -> bool:
        return (
            self.multisets_equal
            and self.value_relation
            and self.carries_consistent
            and self.final_carry_zero
            and self.carries_bounded
            and self.sigma_consistent
        )


@dataclass(frozen=True, slots=True)
class PermutipleWitness:
    """A claimed relation digits = n * permuted together with its carries.

    Shape is validated here (matching lengths and bases, one more carry than
    digits, sigma indices integral and in range when given, with integral
    floats stored as ints); whether the claim actually holds is the job of
    verify_witness, which reports rather than raises.
    The package's own builders, which assemble the parts together, skip the
    shape check through digits._trusted(PermutipleWitness).
    """

    params: Params
    digits: DigitVec
    permuted: DigitVec
    carries: CarrySeq
    sigma: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.sigma is not None:
            object.__setattr__(self, "sigma", tuple(self.sigma))
        ell = len(self.digits)
        if len(self.permuted) != ell:
            raise ValueError("digits and permuted must have the same length")
        if self.digits.base != self.params.b or self.permuted.base != self.params.b:
            raise ValueError("digit vectors must use base b of the parameters")
        if len(self.carries) != ell + 1:
            raise ValueError("need exactly one more carry than digit positions")
        if self.sigma is not None:
            if len(self.sigma) != ell:
                raise ValueError("sigma must assign every digit position")
            object.__setattr__(self, "sigma", _ints(self.sigma, "sigma index", ell))

    @classmethod
    def build(cls, params: Params, digits: DigitVec, permuted: DigitVec) -> "PermutipleWitness":
        """Assemble a witness, deriving carries by floor division.

        The derived carries satisfy the recurrence exactly when the claim is
        a genuine single-digit multiplication; otherwise verify_witness
        reports which checks fail instead of anything raising here.  sigma
        is find_permutation's, None when the digit multisets differ.
        """
        c = 0
        carries = [0]
        for d, q in zip(digits.digits, permuted.digits):
            c = (params.n * q - d + c) // params.b
            carries.append(c)
        return cls(params, digits, permuted, CarrySeq(tuple(carries)),
                   find_permutation(digits, permuted))

    def __str__(self) -> str:
        return f"{self.digits} = {self.params.n}*{self.permuted}"


def value(v: DigitVec) -> int:
    """Numeric value of a digit vector.

    >>> value(DigitVec.from_msd([8, 7, 9, 1, 2], 10))
    87912
    """
    total = 0
    for d in reversed(v.digits):  # Horner's rule, most significant first
        total = total * v.base + d
    return total


def digits_of(m: int, base: int, width: int) -> DigitVec:
    """The width-digit vector of m, zero padded at the significant end.

    Raises OverflowError when m needs more than width digits.
    """
    m = _count(m, "m", 0, "m must be non-negative, got {x}")
    width = _count(width, "width", message="width must be at least 1, got {x}")
    base = _count(base, "base", 2, "base must be at least 2, got {x}")
    out = []
    rest = m
    for _ in range(width):
        rest, d = divmod(rest, base)
        out.append(d)
    if rest:
        raise OverflowError(f"{_decimal(m)} does not fit in {width} base-{_decimal(base)} digits")
    return DigitVec(tuple(out), base)


def carry_sequence(digits: DigitVec, permuted: DigitVec, p: Params) -> CarrySeq:
    """Carries forced by reading digits as n times permuted, position by position.

    The recurrence b*c[j+1] - c[j] = n*permuted[j] - digits[j] pins down each
    carry exactly.  Raises DigitAlignmentError when a step leaves a remainder
    or pushes a carry outside 0..n-1, meaning the pairing cannot arise from
    multiplying any number by the single digit n.
    """
    if len(digits) != len(permuted):
        raise ValueError("digits and permuted must have the same length")
    if digits.base != p.b or permuted.base != p.b:
        raise ValueError("digit vectors must use base b of the parameters")
    carries = [0]
    c = 0
    for j, (d, q) in enumerate(zip(digits.digits, permuted.digits)):
        c, rem = divmod(p.n * q - d + c, p.b)
        if rem:
            raise DigitAlignmentError(
                f"position {j}: {p.n}*{q} - {d} leaves a non-integral carry"
            )
        if not 0 <= c <= p.n - 1:
            raise DigitAlignmentError(
                f"position {j}: carry {c} escapes the range 0..{p.n - 1}"
            )
        carries.append(c)
    return CarrySeq(tuple(carries))


def verify_witness(w: PermutipleWitness) -> WitnessReport:
    """Check every defining condition of a permutiple; report, never raise.

    Each flag is computed from the witness's own digits and carries by
    plain arithmetic, never from the carry-step table, so the check stays
    independent of the routes that build witnesses.
    """
    n, b = w.params.n, w.params.b
    ds = w.digits.digits
    qs = w.permuted.digits
    cs = w.carries.carries
    carries_consistent = True
    for d, q, c, c_next in zip(ds, qs, cs, cs[1:]):
        if b * c_next - c != n * q - d:
            carries_consistent = False
            break
    return _trusted(WitnessReport)(
        multisets_equal=sorted(ds) == sorted(qs),
        value_relation=value(w.digits) == n * value(w.permuted),
        carries_consistent=carries_consistent,
        final_carry_zero=cs[-1] == 0,
        carries_bounded=0 <= min(cs) and max(cs) <= n - 1,
        sigma_consistent=w.sigma is None
        or (len(set(w.sigma)) == len(ds) and tuple([ds[i] for i in w.sigma]) == qs),
    )


def find_permutation(digits: DigitVec, permuted: DigitVec) -> Optional[tuple[int, ...]]:
    """One index map sigma with permuted[j] == digits[sigma(j)], if any exists.

    Returns None exactly when the two digit multisets differ.  Positions with
    equal digits are matched greedily, so this is just some witnessing
    permutation, not a canonical one.
    """
    if len(digits) != len(permuted):
        return None
    buckets: dict[int, list[int]] = {}
    for i, d in enumerate(digits.digits):
        buckets.setdefault(d, []).append(i)
    sigma = []
    for q in permuted.digits:
        bucket = buckets.get(q)
        if not bucket:
            return None
        sigma.append(bucket.pop())
    return tuple(sigma)
