"""Exact verification of the constant inequalities behind the proof chain.

Every inequality is decided by big-rational comparison; 0.96 and 0.9 are
carried as 24/25 and 9/10 so verdicts are bit-exact.  Two items depend on an
unbounded parameter (the clique-count comparison grows with r, the sparse
degree bound is a sufficient k-only reduction of an n-dependent statement);
their records carry an `asymptotic` flag next to the exact per-parameter
verdict.
"""

from __future__ import annotations

import operator
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple

NINE_TENTHS = Fraction(9, 10)
TWENTYFOUR_25THS = Fraction(24, 25)
ONE_TENTH = Fraction(1, 10)


def _decimal(n: int, powers: list[Decimal] | None = None) -> Decimal:
    """Decimal(n).  Before CPython 3.12 that takes time quadratic in the digits, so past 2^4096 n is
    split by the powers 2^(4096·2^i) and its parts summed in an exact context, as 3.12's `_pylong` does."""
    if n.bit_length() <= 4096:
        return Decimal(n)
    if powers:  # 0 <= n < 2^(2w) for w = 4096·2^(len(powers) - 1), and powers[-1] = 2^w
        hi = n >> (w := 4096 << len(powers) - 1)
        return _decimal(n - (hi << w), powers[:-1]) + _decimal(hi, powers[:-1]) * powers[-1]
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        powers = [Decimal(1 << 4096)]
        while 4096 << len(powers) < n.bit_length():
            powers.append(powers[-1] * powers[-1])
        return _decimal(n, powers) if n > 0 else _decimal(-n, powers).copy_negate()


def exact_text(q: Fraction) -> str:
    """str(q), also past Python's 4300-digit int-to-str limit: Decimal writes an int of any length."""
    text = str(_decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{_decimal(q.denominator)}"


class IneqRecord(NamedTuple):
    """One verified inequality with its exact certificate."""

    name: str
    params: dict
    relation: str  # "<", ">", or ">=" read as: lhs RELATION rhs
    lhs: Fraction
    rhs: Fraction
    holds: bool
    asymptotic: bool = False

    @property
    def margin(self) -> Fraction:
        """Oriented slack: positive means the inequality holds with room."""
        if self.relation == "<":
            return self.rhs - self.lhs
        return self.lhs - self.rhs


class IneqReport(NamedTuple):
    records: tuple[IneqRecord, ...] = ()

    def record(self, name: str, **params) -> IneqRecord:
        for rec in self.records:
            if rec.name == name and all(rec.params.get(key) == val for key, val in params.items()):
                return rec
        raise KeyError(f"no record named {name!r} with params {params}")

    def all_hold(self) -> bool:
        return all(rec.holds for rec in self.records)


_COMPARE = {"<": operator.lt, ">": operator.gt, ">=": operator.ge}


def _record(name, params, relation, lhs: Fraction, rhs: Fraction, asymptotic=False) -> IneqRecord:
    return IneqRecord(name, params, relation, lhs, rhs, _COMPARE[relation](lhs, rhs), asymptotic)


def verify_constant_inequalities(
    k: int, A: int = 250, r_list: Iterable[int] = ()
) -> IneqReport:
    """Evaluate the whole inequality catalog at uniformity k and factor A.

    Catalog (all exact rational comparisons):
      k_below_geometric        k < (99/96)^k
      shrink_factor_floor      1 - 1/A >= 99/100
      fractional_power_step    0.96^(k/(k-1)) > 0.96^2 > 9/10, decided via the
                               exponent step k < 2(k-1) (true for k >= 3) and 576/625 > 9/10
      tail_power_bound         (1/10)^(k-2) * (k-1) < (9/10)^k
      shadow_average_excess    (k-1)/(32k) * (24/25)^(2k) > (9/10)^k
      triple_split_margin      (9/10)^k < (24/25)^k / (144k)
      sparse_degree_sufficient (9/10)^(k-2) * 48k^2 < (24/25)^k   [asymptotic:
                               k-only sufficient form of an n-dependent bound]
      residual_clique_excess   r * (24/25)^k * C(Ar-1, k-1) < C((A-1)r, k),
                               one record per r in r_list  [asymptotic in r]
    """
    try:
        k, A, rs = operator.index(k), operator.index(A), sorted({operator.index(r) for r in r_list})
    except TypeError:
        raise ValueError(f"k, A and every r must be integers, got k={k!r}, A={A!r}") from None
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    if A < 2:
        raise ValueError(f"factor A must be at least 2, got {A}")
    if any(r < 1 for r in rs):
        raise ValueError("r values must be positive")

    geometric, tenths = TWENTYFOUR_25THS**k, NINE_TENTHS**k
    records = [
        _record("k_below_geometric", {"k": k}, "<", Fraction(k), Fraction(99, 96) ** k),
        _record("shrink_factor_floor", {"A": A}, ">=", 1 - Fraction(1, A), Fraction(99, 100)),
        _record(
            "fractional_power_step", {"k": k, "exponent_step_ok": k < 2 * (k - 1)}, ">",
            TWENTYFOUR_25THS**2, NINE_TENTHS,
        ),
        _record("tail_power_bound", {"k": k}, "<", ONE_TENTH ** (k - 2) * (k - 1), tenths),
        _record("shadow_average_excess", {"k": k}, ">", Fraction(k - 1, 32 * k) * geometric**2, tenths),
        _record("triple_split_margin", {"k": k}, "<", tenths, geometric / (144 * k)),
        _record(
            "sparse_degree_sufficient", {"k": k}, "<",
            NINE_TENTHS ** (k - 2) * (48 * k * k), geometric, asymptotic=True,
        ),
    ]
    records.extend(
        _record(
            "residual_clique_excess", {"k": k, "A": A, "r": r}, "<",
            geometric * (r * comb(A * r - 1, k - 1)), Fraction(comb((A - 1) * r, k)), asymptotic=True,
        )
        for r in rs
    )
    return IneqReport(tuple(records))
