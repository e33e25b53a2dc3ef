"""Exact Clebsch-Gordan coefficients and Wigner 3-j / 6-j symbols.

All quantum numbers are half-integers stored as doubled integers
(:class:`HalfInt`), which keeps parity bookkeeping exact.  The 3-j and 6-j
symbols are evaluated from the Racah closed-form sums in plain Python
integers: each series is summed over one common denominator, the product of
each factorial's largest value over the summation range, and the squared
symbol is then reduced to lowest terms by one ``math.gcd``.  The doubled-
integer cores ``_clebsch_gordan_exact``, ``_wigner_3j_exact`` and
``_wigner_6j_exact`` are the one implementation.  Each carries a value as the
ints ``(sign, p, q)``, meaning ``sign * sqrt(p/q)`` with ``p/q`` in lowest
terms; the public functions validate their arguments, call a core and build a
:class:`CoupledValue` with a ``Fraction`` radicand.  Clebsch-Gordan values
bridge to the 3-j symbol (``_cg_from_3j``), which ``tables`` also uses to
derive each CG row from its 3-j row.  Condon-Shortley phases throughout.

One Racah sum per symmetry class: ``_wigner_3j_exact`` and
``_wigner_6j_exact`` map their arguments to the canonical member of the
symbol's class under the classical symmetries (12 for the 3-j, 24 for the
6-j) and call the cached class cores ``_racah_3j`` and ``_racah_6j``, so
every other member of a class is a cache hit with its sign fixed.

Selection-rule violations (triangle failures, non-conserved projections)
return an exact zero rather than raising, so callers may sum over full
sublevel grids.  Malformed (j, m) pairings raise
:class:`~raman_pairs.errors.InputDomainError`.

:class:`HalfInt` is a value record (a checked tuple, equal, hashed and ordered
by value), since species and caches key on it; a :class:`CoupledValue` is not.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Union

from .errors import InputDomainError

if TYPE_CHECKING:  # a Fraction is made only for a radicand
    from fractions import Fraction

__all__ = [
    "HalfInt",
    "halfint",
    "CoupledValue",
    "clebsch_gordan",
    "wigner_3j",
    "wigner_6j",
]

HalfIntLike = Union["HalfInt", int, str, "Fraction"]


class HalfInt(NamedTuple("HalfInt", [("twice", int)])):
    """An integer or half-integer quantum number, stored doubled.

    ``HalfInt(twice=3)`` is 3/2.  Use :func:`halfint` to build one from a
    plain int, a :class:`~fractions.Fraction`, or a string like ``"3/2"``.
    """

    __slots__ = ()

    def __new__(cls, twice: int) -> "HalfInt":
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise InputDomainError(f"doubled value must be an int, got {twice!r}")
        return super().__new__(cls, twice)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def integer(text: str) -> int:
    """The int that ``text`` spells in ASCII digits with an optional ``-``, the one
    integer spelling of the input files: ``int`` would also read "+1", " 1" and "1_0"."""
    try:
        return int(re.fullmatch(r"-?[0-9]+", text)[0])
    except (TypeError, ValueError):  # no match (None[0]), or more digits than int() reads
        raise InputDomainError(f"{text!r} is not an integer in ASCII digits") from None


def halfint(value: HalfIntLike) -> HalfInt:
    """Coerce ``value`` to a :class:`HalfInt`.

    Accepts HalfInt, int (whole units), Fraction with denominator 1 or 2, and
    strings that :func:`integer` reads, alone or as an odd numerator over
    ``/2`` (``"2"``, ``"-3/2"``); floats and other spellings are rejected.
    """
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, bool):
        raise InputDomainError("bool is not a quantum number")
    if isinstance(value, int):
        return HalfInt(2 * value)
    if isinstance(value, str):
        odd = re.fullmatch(r"(-?[0-9]*[13579])/2", value)  # an odd numerator over /2
        try:
            return HalfInt(integer(odd[1]) if odd else 2 * integer(value))
        except InputDomainError:
            raise InputDomainError(f"cannot parse half-integer from {value!r}") from None
    from fractions import Fraction

    if isinstance(value, Fraction):
        doubled = value * 2
        if doubled.denominator != 1:
            raise InputDomainError(f"{value} is not an integer or half-integer")
        return HalfInt(int(doubled))
    raise InputDomainError(f"cannot interpret {value!r} as a half-integer")


class CoupledValue:
    """A coupling coefficient as float plus its exact form ``sign*sqrt(p/q)``."""

    def __init__(self, sign: int, radicand: Fraction) -> None:
        self.sign, self.radicand = sign, radicand

    def __float__(self) -> float:
        """The float of ``sign * sqrt(radicand)``."""
        return _signed_sqrt(self.sign, self.radicand.numerator, self.radicand.denominator)

    value = property(__float__)

    @classmethod
    def from_exact(cls, sign: int, p: int, q: int) -> "CoupledValue":
        from fractions import Fraction

        if p < 0:
            raise ValueError("radicand must be non-negative")
        if sign == 0 or p == 0:
            return cls(0, Fraction(0))
        return cls(sign, Fraction(p, q))


def _signed_sqrt(sign: int, p: int, q: int) -> float:
    """The float of ``sign * sqrt(p/q)``; +0.0 for an exact zero."""
    return sign * math.sqrt(p / q) if sign and p else 0.0


def _check_jm_pair(j: HalfInt, m: HalfInt, label: str) -> None:
    if j.twice < 0:
        raise InputDomainError(f"{label}: j must be non-negative, got {j}")
    if (j.twice - m.twice) % 2 != 0:
        raise InputDomainError(f"{label}: j={j} and m={m} differ by a non-integer")
    if abs(m.twice) > j.twice:
        raise InputDomainError(f"{label}: |m|={abs(m)} exceeds j={j}")


def _triangle_factor(ta: int, tb: int, tc: int) -> tuple[int, int]:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!
    as an integer (numerator, denominator) pair."""
    return (
        math.factorial((ta + tb - tc) // 2)
        * math.factorial((ta - tb + tc) // 2)
        * math.factorial((-ta + tb + tc) // 2),
        math.factorial((ta + tb + tc) // 2 + 1),
    )


_EXACT_ZERO = (0, 0, 1)


def _wigner_3j_exact(
    tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int
) -> tuple[int, int, int]:
    """(sign, p, q) of the 3-j symbol, ``sign * sqrt(p/q)``; inputs doubled.

    Evaluated at the canonical member of its class: the (j, m) columns in
    descending order, and the larger of the m and -m images.  An odd column
    permutation and the m reversal each multiply the symbol by
    (-1)^(j1+j2+j3).  Where two images coincide the symbol is zero unless
    that phase is +1, so ties need no rule.
    """
    # Each image's columns sorted by at most three swaps.  odd counts, mod 2,
    # the swaps and the reversal that took the arguments to the image.
    a, b, c, odd = (tj1, tm1), (tj2, tm2), (tj3, tm3), False
    if a < b:
        a, b, odd = b, a, True
    if b < c:
        b, c, odd = c, b, not odd
        if a < b:
            a, b, odd = b, a, not odd
    ra, rb, rc, odd_reversed = (tj1, -tm1), (tj2, -tm2), (tj3, -tm3), True
    if ra < rb:
        ra, rb, odd_reversed = rb, ra, False
    if rb < rc:
        rb, rc, odd_reversed = rc, rb, not odd_reversed
        if ra < rb:
            ra, rb, odd_reversed = rb, ra, not odd_reversed
    if (ra, rb, rc) > (a, b, c):
        a, b, c, odd = ra, rb, rc, odd_reversed
    sign, p, q = _racah_3j(a[0], b[0], c[0], a[1], b[1], c[1])
    # (tj1 + tj2 + tj3) / 2 is odd; an odd doubled sum gives a zero symbol
    if odd and (tj1 + tj2 + tj3) & 2:
        return -sign, p, q
    return sign, p, q


@lru_cache(maxsize=200_000)
def _racah_3j(
    tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int
) -> tuple[int, int, int]:
    """(sign, p, q) of the 3-j symbol via the Racah sum; inputs doubled.
    Cached per symmetry class: ``_wigner_3j_exact`` calls it only at
    canonical arguments."""
    if tm1 + tm2 + tm3 != 0:
        return _EXACT_ZERO
    if not (abs(tj1 - tj2) <= tj3 <= tj1 + tj2) or (tj1 + tj2 + tj3) % 2 != 0:
        return _EXACT_ZERO

    # Summation bounds for t in the alternating series.
    t1 = (tj2 - tj3 - tm1) // 2
    t2 = (tj1 - tj3 + tm2) // 2
    t3 = (tj1 + tj2 - tj3) // 2
    t4 = (tj1 - tm1) // 2
    t5 = (tj2 + tm2) // 2
    tmin = max(0, t1, t2)
    tmax = min(t3, t4, t5)
    if tmin > tmax:
        return _EXACT_ZERO

    # Each factorial in a term's denominator is largest at one end of the t
    # range; the product of those largest values is a common denominator of
    # every term, so each term is an exact integer quotient.
    f = math.factorial
    common = f(tmax) * f(tmax - t1) * f(tmax - t2) * f(t3 - tmin) * f(t4 - tmin) * f(t5 - tmin)
    series = 0
    for t in range(tmin, tmax + 1):
        term = common // (f(t) * f(t - t1) * f(t - t2) * f(t3 - t) * f(t4 - t) * f(t5 - t))
        series += -term if t % 2 else term
    if series == 0:
        return _EXACT_ZERO

    num, den = _triangle_factor(tj1, tj2, tj3)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        num *= f((tj + tm) // 2) * f((tj - tm) // 2)
    # Global phase (-1)^(j1 - j2 - m3); the exponent is an integer here.
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    p, q = series * series * num, common * common * den
    g = math.gcd(p, q)
    return (phase if series > 0 else -phase), p // g, q // g


def _cg_from_3j(
    tj1: int, tj2: int, tj: int, tm: int, sign: int, p: int, q: int
) -> tuple[int, int, int]:
    """``<J M | j1 m1; j2 m2> = (-1)^(j1-j2+M) sqrt(2J+1) (j1 j2 J; m1 m2 -M)`` on (sign, p, q),
    inputs doubled; cancelling gcd(2J+1, q) keeps lowest terms, as gcd(p, q) = 1."""
    if sign == 0:
        return _EXACT_ZERO
    phase = -1 if ((tj1 - tj2 + tm) // 2) % 2 else 1
    g = math.gcd(tj + 1, q)
    return phase * sign, p * ((tj + 1) // g), q // g


def _clebsch_gordan_exact(
    tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int
) -> tuple[int, int, int]:
    """(sign, p, q) of <J M | j1 m1; j2 m2>; inputs doubled."""
    return _cg_from_3j(tj1, tj2, tj, tm, *_wigner_3j_exact(tj1, tj2, tj, tm1, tm2, -tm))


def wigner_3j(
    j1: HalfIntLike,
    j2: HalfIntLike,
    j3: HalfIntLike,
    m1: HalfIntLike,
    m2: HalfIntLike,
    m3: HalfIntLike,
) -> CoupledValue:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3)."""
    j1, j2, j3 = halfint(j1), halfint(j2), halfint(j3)
    m1, m2, m3 = halfint(m1), halfint(m2), halfint(m3)
    _check_jm_pair(j1, m1, "j1/m1")
    _check_jm_pair(j2, m2, "j2/m2")
    _check_jm_pair(j3, m3, "j3/m3")
    return CoupledValue.from_exact(
        *_wigner_3j_exact(j1.twice, j2.twice, j3.twice, m1.twice, m2.twice, m3.twice)
    )


def clebsch_gordan(
    j1: HalfIntLike,
    m1: HalfIntLike,
    j2: HalfIntLike,
    m2: HalfIntLike,
    J: HalfIntLike,
    M: HalfIntLike,
) -> CoupledValue:
    """Clebsch-Gordan coefficient <J M | j1 m1; j2 m2> (Condon-Shortley),
    computed from the 3-j symbol."""
    j1, j2, J = halfint(j1), halfint(j2), halfint(J)
    m1, m2, M = halfint(m1), halfint(m2), halfint(M)
    _check_jm_pair(j1, m1, "j1/m1")
    _check_jm_pair(j2, m2, "j2/m2")
    _check_jm_pair(J, M, "J/M")
    return CoupledValue.from_exact(
        *_clebsch_gordan_exact(j1.twice, m1.twice, j2.twice, m2.twice, J.twice, M.twice)
    )


def _wigner_6j_exact(
    tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int
) -> tuple[int, int, int]:
    """(sign, p, q) of the 6-j symbol {j1 j2 j3; j4 j5 j6}; inputs doubled.

    The symbol is unchanged by any column permutation and by exchanging
    upper and lower in any two columns.  Evaluated at the canonical member
    of its class: each column as (max, min) and the columns in descending
    order.  When every column has two different entries and an odd number
    of them had upper < lower, one exchange is left over and the last
    column is reversed; a column with equal entries absorbs it.
    """
    odd = free = False
    if tj1 < tj4:
        tj1, tj4, odd = tj4, tj1, True
    elif tj1 == tj4:
        free = True
    if tj2 < tj5:
        tj2, tj5, odd = tj5, tj2, not odd
    elif tj2 == tj5:
        free = True
    if tj3 < tj6:
        tj3, tj6, odd = tj6, tj3, not odd
    elif tj3 == tj6:
        free = True
    a, b, c = (tj1, tj4), (tj2, tj5), (tj3, tj6)
    if a < b:
        a, b = b, a
    if b < c:
        b, c = c, b
        if a < b:
            a, b = b, a
    if odd and not free:
        return _racah_6j(a[0], b[0], c[1], a[1], b[1], c[0])
    return _racah_6j(a[0], b[0], c[0], a[1], b[1], c[1])


@lru_cache(maxsize=200_000)
def _racah_6j(
    tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int
) -> tuple[int, int, int]:
    """(sign, p, q) of the 6-j symbol via the Racah sum; inputs doubled.
    Cached per symmetry class: ``_wigner_6j_exact`` calls it only at
    canonical arguments."""
    triads = (
        (tj1, tj2, tj3),
        (tj1, tj5, tj6),
        (tj4, tj2, tj6),
        (tj4, tj5, tj3),
    )
    for ta, tb, tc in triads:
        if (ta + tb + tc) % 2 != 0 or not (abs(ta - tb) <= tc <= ta + tb):
            return _EXACT_ZERO

    # Triad perimeters and opposite-pair sums, all integers.
    s1 = (tj1 + tj2 + tj3) // 2
    s2 = (tj1 + tj5 + tj6) // 2
    s3 = (tj4 + tj2 + tj6) // 2
    s4 = (tj4 + tj5 + tj3) // 2
    p1 = (tj1 + tj2 + tj4 + tj5) // 2
    p2 = (tj2 + tj3 + tj5 + tj6) // 2
    p3 = (tj3 + tj1 + tj6 + tj4) // 2

    tmin = max(s1, s2, s3, s4)
    tmax = min(p1, p2, p3)
    if tmin > tmax:
        return _EXACT_ZERO

    # One common denominator for the series, as in the 3-j sum.
    f = math.factorial
    common = (
        f(tmax - s1) * f(tmax - s2) * f(tmax - s3) * f(tmax - s4)
        * f(p1 - tmin) * f(p2 - tmin) * f(p3 - tmin)
    )
    series = 0
    for t in range(tmin, tmax + 1):
        denom = f(t - s1) * f(t - s2) * f(t - s3) * f(t - s4) * f(p1 - t) * f(p2 - t) * f(p3 - t)
        term = f(t + 1) * (common // denom)
        series += -term if t % 2 else term
    if series == 0:
        return _EXACT_ZERO

    num = den = 1
    for triad in triads:
        n, d = _triangle_factor(*triad)
        num, den = num * n, den * d
    p, q = series * series * num, common * common * den
    g = math.gcd(p, q)
    return (1 if series > 0 else -1), p // g, q // g


def wigner_6j(
    j1: HalfIntLike,
    j2: HalfIntLike,
    j3: HalfIntLike,
    j4: HalfIntLike,
    j5: HalfIntLike,
    j6: HalfIntLike,
) -> CoupledValue:
    """Wigner 6-j symbol {j1 j2 j3; j4 j5 j6}.

    Returns exact zero unless all four triads {j1 j2 j3}, {j1 j5 j6},
    {j4 j2 j6}, {j4 j5 j3} satisfy the triangle rule.
    """
    js = tuple(halfint(j) for j in (j1, j2, j3, j4, j5, j6))
    for j in js:
        if j.twice < 0:
            raise InputDomainError(f"angular momenta must be non-negative, got {j}")
    return CoupledValue.from_exact(*_wigner_6j_exact(*(j.twice for j in js)))
