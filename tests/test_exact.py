import hashlib
import math
import sys
from fractions import Fraction
from math import comb

import pytest

from ramseylab import (
    Interval,
    integer_nth_root,
    link_support_lower_bound,
    nth_root_interval,
    star_deficiency_bound,
)
from ramseylab import exact

PRECISION = Fraction(1, 10**6)


def test_integer_nth_root():
    assert integer_nth_root(27, 3) == (3, True)
    assert integer_nth_root(28, 3) == (3, False)
    assert integer_nth_root(0, 5) == (0, True)
    assert integer_nth_root(1, 9) == (1, True)
    assert integer_nth_root(10**30, 10) == (1000, True)
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(4, 0)
    with pytest.raises(ValueError, match="radicand"):
        nth_root_interval(Fraction(-1, 2), 2, PRECISION)
    with pytest.raises(ValueError, match="root index"):
        nth_root_interval(2, 0, PRECISION)
    for precision in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="precision"):
            nth_root_interval(2, 2, precision)


def test_interval_ordering():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_nth_root_exact_cases():
    assert nth_root_interval(Fraction(1, 4), 2, PRECISION) == Interval(Fraction(1, 2), Fraction(1, 2))
    assert nth_root_interval(Fraction(8, 27), 3, PRECISION) == Interval(Fraction(2, 3), Fraction(2, 3))
    assert nth_root_interval(Fraction(1), 7, PRECISION) == Interval(Fraction(1), Fraction(1))


def test_nth_root_defining_inequalities():
    q = Fraction(2, 7)
    iv = nth_root_interval(q, 3, PRECISION)
    assert iv.lo**3 <= q <= iv.hi**3
    assert iv.width <= PRECISION


def test_nth_root_nesting():
    q = Fraction(5, 9)
    coarse = nth_root_interval(q, 4, Fraction(1, 100))
    fine = nth_root_interval(q, 4, Fraction(1, 10**9))
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_star_deficiency_exact_at_top():
    # b = k-1 makes the radicand 1, so the coefficient vanishes exactly
    assert star_deficiency_bound(4, 5, 9, PRECISION) == Interval(Fraction(0), Fraction(0))
    # and a zero scale, C(2, 4) or n - 1 = 0, vanishes before any root is taken
    assert star_deficiency_bound(Fraction(1, 2), 5, 3, PRECISION) == Interval(Fraction(0), Fraction(0))
    assert link_support_lower_bound(1, 4, 1, PRECISION) == Interval(Fraction(0), Fraction(0))


def test_star_deficiency_linear_root_case():
    # k = 3 involves a first root, so the value is exactly (1 - b/2)^2 * C(n-1, 2)
    iv = star_deficiency_bound(Fraction(1, 2), 3, 11, PRECISION)
    assert iv == Interval(Fraction(9, 16) * 45, Fraction(9, 16) * 45)


def test_star_deficiency_bisected_case():
    b = Fraction(6561, 10000)
    iv = star_deficiency_bound(b, 4, 4, PRECISION)
    true = (1 - math.sqrt(float(b) / 3)) ** 3
    assert iv.width <= PRECISION
    assert float(iv.lo) - 1e-9 <= true <= float(iv.hi) + 1e-9


def test_star_deficiency_invalid():
    with pytest.raises(ValueError):
        star_deficiency_bound(0, 4, 9, PRECISION)
    with pytest.raises(ValueError):
        star_deficiency_bound(5, 4, 9, PRECISION)  # b > k-1
    with pytest.raises(ValueError):
        star_deficiency_bound(1, 2, 9, PRECISION)
    with pytest.raises(ValueError):
        star_deficiency_bound(1, 4, 9, 0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="vertex count must be at least 1"):
            star_deficiency_bound(1, 4, n, PRECISION)


def test_link_support_exact_cases():
    assert link_support_lower_bound(Fraction(1, 2), 3, 11, PRECISION) == Interval(
        Fraction(5, 2), Fraction(5, 2)
    )
    assert link_support_lower_bound(Fraction(3, 4), 4, 9, PRECISION) == Interval(
        Fraction(4), Fraction(4)
    )


def test_link_support_bisected_case():
    iv = link_support_lower_bound(1, 5, 101, PRECISION)
    true = (0.25 ** (1 / 3)) * 100
    assert iv.width <= PRECISION
    assert float(iv.lo) - 1e-9 <= true <= float(iv.hi) + 1e-9


def test_interval_widths_random(rng):
    for _ in range(60):
        k = rng.randint(3, 10)
        n = rng.randint(k, 24)
        b = Fraction(rng.randint(1, 4 * (k - 1)), 4)
        if b > k - 1:
            b = Fraction(k - 1)
        precision = Fraction(1, 10 ** rng.randint(3, 8))
        iv = star_deficiency_bound(b, k, n, precision)
        assert iv.width <= precision
        assert 0 <= iv.lo and iv.hi <= comb(n - 1, k - 1)
        iv = link_support_lower_bound(b, k, n, precision)
        assert iv.width <= precision
        assert 0 <= iv.lo and iv.hi <= n - 1 + precision


def test_composed_bounds_nest_under_refinement():
    b = Fraction(7, 10)
    coarse = star_deficiency_bound(b, 5, 12, Fraction(1, 10**3))
    fine = star_deficiency_bound(b, 5, 12, Fraction(1, 10**9))
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    coarse = link_support_lower_bound(b, 5, 12, Fraction(1, 10**3))
    fine = link_support_lower_bound(b, 5, 12, Fraction(1, 10**9))
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_composite_monotone_consistency():
    # deficiency coefficient shrinks as b grows: larger guaranteed degree
    # leaves less room away from the star
    prev = None
    for numer in (1, 2, 3):
        iv = star_deficiency_bound(Fraction(numer, 1), 4, 12, PRECISION)
        if prev is not None:
            assert iv.hi <= prev.hi + PRECISION
        prev = iv


def reference_integer_nth_root(x, m):
    """Reference bit-by-bit bisection for the floor root and its exactness."""
    if m == 1 or x in (0, 1):
        return x, True
    lo = 0
    hi = 1 << (x.bit_length() // m + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**m <= x:
            lo = mid
        else:
            hi = mid
    return lo, lo**m == x


def reference_nth_root_interval(q, m, precision):
    """Reference rational bisection of [0, max(1, q)] down to the precision."""
    q = Fraction(q)
    precision = Fraction(precision)
    if m == 1:
        return Interval(q, q)
    root_num, exact_num = reference_integer_nth_root(q.numerator, m)
    root_den, exact_den = reference_integer_nth_root(q.denominator, m)
    if exact_num and exact_den:
        root = Fraction(root_num, root_den)
        return Interval(root, root)
    lo = Fraction(0)
    hi = max(Fraction(1), q)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if mid**m <= q:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def test_integer_nth_root_matches_reference(rng):
    for _ in range(300):
        m = rng.randint(1, 40)
        y = rng.getrandbits(rng.randint(1, 200))
        for x in (y**m - 1, y**m, y**m + 1):
            if x >= 0:
                assert integer_nth_root(x, m) == reference_integer_nth_root(x, m), (x, m)


@pytest.mark.parametrize("m", [100, 147, 199, 247, 248, 300])
def test_integer_nth_root_large_roots(rng, m):
    # The defining property, checked directly: y^m <= x < (y+1)^m and the flag
    # says whether y^m == x, around perfect powers of 200- to 900-bit roots.
    for bits in (200, 517, 830, 900):
        root = rng.getrandbits(bits) | 1 << bits - 1
        for x in (root**m - 1, root**m, root**m + 1):
            y, exact = integer_nth_root(x, m)
            assert y**m <= x < (y + 1) ** m
            assert exact == (y**m == x) == (x == root**m)


def random_root_case(rng):
    shape = rng.randrange(6)
    m = 1 if shape == 0 else rng.randint(2, 24)
    if shape == 1:
        q = Fraction(0)
    elif shape == 2:  # q > 1, so the bracket is [0, q]
        q = Fraction(rng.randint(2, 10**9), rng.randint(1, 1000)) + 1
    elif shape == 3:  # a perfect m-th power of a rational
        q = Fraction(rng.randint(0, 10**4), rng.randint(1, 10**4)) ** m
    else:
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9))
    # down to 10^-30, and up to 10^3 so the bracket may need no step at all
    precision = Fraction(rng.randint(1, 999)) / Fraction(10) ** rng.randint(-2, 30)
    return q, m, precision


def test_nth_root_interval_matches_reference(rng):
    for _ in range(1200):
        q, m, precision = random_root_case(rng)
        assert nth_root_interval(q, m, precision) == reference_nth_root_interval(q, m, precision), (
            q, m, precision,
        )


@pytest.mark.parametrize(
    "b, k, n",
    [(Fraction(7, 10), 60, 300), (Fraction(1, 2), 250, 1000)],
    ids=["k60-n300", "benchmark"],
)
def test_bounds_match_reference_roots(monkeypatch, b, k, n):
    precision = Fraction(1, 10**6)
    fast = star_deficiency_bound(b, k, n, precision), link_support_lower_bound(b, k, n, precision)
    monkeypatch.setattr(exact, "nth_root_interval", reference_nth_root_interval)
    slow = star_deficiency_bound(b, k, n, precision), link_support_lower_bound(b, k, n, precision)
    assert fast == slow


def test_star_deficiency_large_n():
    # Bisection needed about 46 s here; its deficiency must agree with the
    # one derived from the link-support interval of the same root.
    b, k, n, precision = Fraction(1, 2), 250, 10**6, Fraction(1, 10**6)
    deficiency = star_deficiency_bound(b, k, n, precision)
    support = link_support_lower_bound(b, k, n, precision)
    assert deficiency.width <= precision and support.width <= precision
    x_lo, x_hi = support.lo / (n - 1), support.hi / (n - 1)
    scale = comb(n - 1, k - 1)
    derived = Interval((1 - x_hi) ** (k - 1) * scale, (1 - x_lo) ** (k - 1) * scale)
    assert derived.lo <= deficiency.hi and deficiency.lo <= derived.hi


# Endpoints of bisected cases, taken before the two bounds shared one
# refinement loop: they pin where the refinement stops, not only its width.
@pytest.mark.parametrize(
    "bound, b, k, n, digits, lo, hi",
    [
        (star_deficiency_bound, Fraction(6561, 10000), 4, 4, 3,
         Fraction(161878625, 1073741824),
         Fraction(10374495741, 68719476736)),
        (link_support_lower_bound, Fraction(6561, 10000), 4, 4, 3,
         Fraction(5745, 4096),
         Fraction(1437, 1024)),
        (star_deficiency_bound, Fraction(6561, 10000), 4, 4, 9,
         Fraction(11952596514870278849744283311, 79228162514264337593543950336),
         Fraction(2918114387342111609185113, 19342813113834066795298816)),
        (link_support_lower_bound, Fraction(6561, 10000), 4, 4, 9,
         Fraction(376604517, 268435456),
         Fraction(6025672275, 4294967296)),
        (star_deficiency_bound, Fraction(1), 5, 101, 3,
         Fraction(400288778186405019816912106700769215228637225, 5444517870735015415413993718908291383296),
         Fraction(6404620455012298763267068866548701498916015625, 87112285931760246646623899502532662132736)),
        (link_support_lower_bound, Fraction(1), 5, 101, 3,
         Fraction(1032125, 16384),
         Fraction(2064275, 32768)),
        (star_deficiency_bound, Fraction(1), 5, 101, 9,
         Fraction(483919439348690293884073979451273849071478883262931550102967913759225, 6582018229284824168619876730229402019930943462534319453394436096),
         Fraction(7742711029579049348209529555801495375370128978999021666980432055765625, 105312291668557186697918027683670432318895095400549111254310977536)),
        (link_support_lower_bound, Fraction(1), 5, 101, 9,
         Fraction(2164527881925, 34359738368),
         Fraction(1082263940975, 17179869184)),
        (star_deficiency_bound, Fraction(7, 10), 5, 12, 3,
         Fraction(120337033652710115969455365, 9671406556917033397649408),
         Fraction(7521097157805366091083765, 604462909807314587353088)),
        (link_support_lower_bound, Fraction(7, 10), 5, 12, 3,
         Fraction(25201, 4096),
         Fraction(100815, 16384)),
        (star_deficiency_bound, Fraction(7, 10), 5, 12, 9,
         Fraction(145478939885421823163773632468826661556183487126965, 11692013098647223345629478661730264157247460343808),
         Fraction(9092433742876396758613668204353575627601750353125, 730750818665451459101842416358141509827966271488)),
        (link_support_lower_bound, Fraction(7, 10), 5, 12, 9,
         Fraction(105704113251, 17179869184),
         Fraction(52852056631, 8589934592)),
    ],
)
def test_bisected_bound_endpoints(bound, b, k, n, digits, lo, hi):
    assert bound(b, k, n, Fraction(1, 10**digits)) == Interval(lo, hi)


@pytest.mark.parametrize(
    "bound, digest",
    [
        (star_deficiency_bound, "861c23942578c0846c5389eedf43e41c6b15bb3a727890c6f5e9c7edc09e535c"),
        (link_support_lower_bound, "356b309b0c700fa0ecaef926da3c02d3a439a270b5e7c87eda4c4ad18e74c437"),
    ],
)
def test_benchmark_bound_endpoints(bound, digest):
    iv = bound(Fraction(1, 2), 250, 1000, Fraction(1, 10**6))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the k = 250 endpoints run past the default cap
    try:
        text = f"{iv.lo} {iv.hi}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
