"""Outward-rounded rational intervals for the irrational root expressions.

The only irrational quantity the proofs need is (b/(k-1))^(1/(k-2)).  Its
enclosure is the cell exact bisection of [0, max(1, q)] would end in, found
in closed form by one big-integer m-th root, so the true value provably
stays inside [lo, hi].  Perfect powers are detected first and returned as
degenerate (exact) intervals.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb
from typing import NamedTuple

RationalLike = Fraction | int | str


class _Ends(NamedTuple):
    lo: Fraction
    hi: Fraction


class Interval(_Ends):
    """A closed rational interval [lo, hi] enclosing a real value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        return _Ends.__new__(cls, lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def integer_nth_root(x: int, m: int) -> tuple[int, bool]:
    """Floor of x**(1/m) and whether it is exact, for x >= 0, m >= 1."""
    if x < 0:
        raise ValueError(f"radicand must be nonnegative, got {x}")
    if m < 1:
        raise ValueError(f"root index must be at least 1, got {m}")
    if m == 1 or x in (0, 1):
        return x, True
    y, power = _root_and_power(x, m)
    return y, power * y == x


def _root_and_power(x: int, m: int) -> tuple[int, int]:
    """Floor y of x**(1/m) and y**(m-1), for x >= 2, m >= 2: Newton from above stays >= the floor
    root until it stalls, on a step that has just taken y**(m-1).  Rooting the top half of the
    root's bits first starts it a few steps from the end; below 2m bits the root is at most 3."""
    half = x.bit_length() // m // 2
    y = (_root_and_power(x >> half * m, m)[0] + 1) << half if half else 4
    while True:
        power = y ** (m - 1)
        z = ((m - 1) * y + x // power) // m
        if z >= y:
            return y, power
        y = z


def nth_root_interval(q: RationalLike, m: int, precision: RationalLike) -> Interval:
    """Enclose q**(1/m) for q >= 0 within the requested width.

    When q is a perfect m-th power of a rational the result is degenerate and
    exact.  Otherwise the result has the same endpoints as bisecting the
    bracket [0, max(1, q)] down to the precision: the dyadic cell holding the
    root, with lo^m < q < hi^m.  Those cells nest, so narrowing the precision
    only ever nests the interval.
    """
    q = Fraction(q)
    precision = Fraction(precision)
    if q < 0:
        raise ValueError(f"radicand must be nonnegative, got {q}")
    if m < 1:
        raise ValueError(f"root index must be at least 1, got {m}")
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    if m == 1:
        return Interval(q, q)
    root_num, exact_num = integer_nth_root(q.numerator, m)
    root_den, exact_den = integer_nth_root(q.denominator, m)
    if exact_num and exact_den:
        root = Fraction(root_num, root_den)
        return Interval(root, root)
    top = max(Fraction(1), q)
    steps = (ceil(top / precision) - 1).bit_length()
    # The root is irrational, so the dyadic cell of [0, top] holding it is
    # cell L with L = floor(root * 2^steps / top).
    num = q.numerator * top.denominator**m << steps * m
    cell, _ = integer_nth_root(num // (q.denominator * top.numerator**m), m)
    return Interval(cell * top / 2**steps, (cell + 1) * top / 2**steps)


def _root_image(b, k, n, precision, deficiency: bool) -> Interval:
    """Enclose (1 - x)^(k-1) * C(n-1, k-1) if `deficiency` else x * (n-1), for x = (b/(k-1))^(1/(k-2)).

    Both images are monotone in x, which lies in [0, 1] (b/(k-1) <= 1), and move there by at most
    power * scale per unit of x; so the root's cell, no wider than precision / (power * scale),
    maps endpoint by endpoint to an enclosure within `precision`.
    """
    b = Fraction(b)
    precision = Fraction(precision)
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if not 0 < b <= k - 1:
        raise ValueError(f"need 0 < b <= k-1, got b={b}, k={k}")
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    power, scale = (k - 1, comb(n - 1, k - 1)) if deficiency else (1, n - 1)
    if scale == 0:
        return Interval(Fraction(0), Fraction(0))
    root = nth_root_interval(b / (k - 1), k - 2, precision / (power * scale))
    ends = (1 - root.hi, 1 - root.lo) if deficiency else root
    return Interval(*(y**power * scale for y in ends))


def star_deficiency_bound(
    b: RationalLike, k: int, n: int, precision: RationalLike
) -> Interval:
    """Enclose (1 - (b/(k-1))^(1/(k-2)))^(k-1) * C(n-1, k-1).

    This bounds from above the number of edges a loose-3-path-free
    hypergraph can keep away from a vertex of degree >= b * C(n-1, k-1).
    Requires k >= 3 and 0 < b <= k-1.
    """
    return _root_image(b, k, n, precision, deficiency=True)


def link_support_lower_bound(
    b: RationalLike, k: int, n: int, precision: RationalLike
) -> Interval:
    """Enclose (b/(k-1))^(1/(k-2)) * (n-1).

    This is the guaranteed vertex-support size of a sub-link whose minimum
    degree reaches b/(k-1) * C(n-2, k-2).  Requires k >= 3 and 0 < b <= k-1.
    """
    return _root_image(b, k, n, precision, deficiency=False)
