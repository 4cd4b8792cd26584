import json
import math
import sys
from fractions import Fraction

import pytest

from ramseylab import verify_constant_inequalities
from ramseylab.cli import main
from ramseylab.inequalities import exact_text


def test_geometric_threshold():
    assert verify_constant_inequalities(167).record("k_below_geometric").holds
    assert not verify_constant_inequalities(166).record("k_below_geometric").holds
    assert not verify_constant_inequalities(100).record("k_below_geometric").holds


def test_shrink_factor_floor():
    assert verify_constant_inequalities(250, A=250).record("shrink_factor_floor").holds
    assert not verify_constant_inequalities(250, A=99).record("shrink_factor_floor").holds


def test_fractional_power_step():
    rec = verify_constant_inequalities(3).record("fractional_power_step")
    assert rec.holds and rec.params["exponent_step_ok"]
    assert rec.lhs == Fraction(576, 625) and rec.rhs == Fraction(9, 10)


def test_tail_power_bound_small_k():
    rec = verify_constant_inequalities(3).record("tail_power_bound")
    # 0.1 * 2 = 1/5 against 0.729
    assert rec.lhs == Fraction(1, 5) and rec.rhs == Fraction(729, 1000)
    assert rec.holds


def test_large_k_catalog_holds():
    report = verify_constant_inequalities(250, A=250, r_list=[1000])
    assert report.all_hold()


def test_small_k_failures():
    report = verify_constant_inequalities(3, A=250)
    assert not report.record("shadow_average_excess").holds
    assert not report.record("triple_split_margin").holds
    assert not report.record("sparse_degree_sufficient").holds


def test_residual_clique_per_r():
    report = verify_constant_inequalities(250, A=250, r_list=[1, 2, 3])
    assert not report.record("residual_clique_excess", r=1).holds  # RHS collapses to 0
    assert report.record("residual_clique_excess", r=2).holds
    assert report.record("residual_clique_excess", r=3).holds


def test_asymptotic_flags():
    report = verify_constant_inequalities(250, A=250, r_list=[5])
    assert report.record("sparse_degree_sufficient").asymptotic
    assert report.record("residual_clique_excess", r=5).asymptotic
    assert not report.record("k_below_geometric").asymptotic


def test_margin_orientation():
    report = verify_constant_inequalities(250, A=250)
    for rec in report.records:
        if rec.holds:
            assert rec.margin >= 0
        else:
            assert rec.margin <= 0


def test_json_schema(capsys):
    assert main(["constants", "--k", "167", "--A", "250", "--r-list", "2", "--json"]) == 0
    objs = json.loads(capsys.readouterr().out)["payload"]["records"]
    assert len(objs) == len(verify_constant_inequalities(167, A=250, r_list=[2]).records)
    assert all(
        set(o) == {"name", "params", "holds", "certificate_lo", "certificate_hi", "asymptotic_flag"}
        for o in objs
    )
    assert all(o["holds"] in ("yes", "no") for o in objs)
    # certificates reparse as exact fractions
    for o in objs:
        Fraction(o["certificate_lo"])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        verify_constant_inequalities(2)
    with pytest.raises(ValueError):
        verify_constant_inequalities(10, A=1)
    with pytest.raises(ValueError):
        verify_constant_inequalities(10, r_list=[0])
    # Non-integral parameters are refused, not truncated or raised to float powers.
    with pytest.raises(ValueError):
        verify_constant_inequalities(10, r_list=[2.7])
    with pytest.raises(ValueError):
        verify_constant_inequalities(10, r_list=["3"])
    with pytest.raises(ValueError):
        verify_constant_inequalities(10.0)
    with pytest.raises(ValueError):
        verify_constant_inequalities(10, A=250.5)
    with pytest.raises(ValueError):
        verify_constant_inequalities("10")


def literal_catalog(k, A, r_list):
    """The docstring's catalog, each formula evaluated as written."""
    g, t = Fraction(24, 25), Fraction(9, 10)
    rows = [
        ("k_below_geometric", {"k": k}, "<", k, Fraction(99, 96) ** k, False),
        ("shrink_factor_floor", {"A": A}, ">=", 1 - Fraction(1, A), Fraction(99, 100), False),
        ("fractional_power_step", {"k": k, "exponent_step_ok": k < 2 * (k - 1)}, ">", g**2, t, False),
        ("tail_power_bound", {"k": k}, "<", Fraction(1, 10) ** (k - 2) * (k - 1), t**k, False),
        ("shadow_average_excess", {"k": k}, ">", Fraction(k - 1) / (32 * k) * g ** (2 * k), t**k, False),
        ("triple_split_margin", {"k": k}, "<", t**k, g**k / (144 * k), False),
        ("sparse_degree_sufficient", {"k": k}, "<", t ** (k - 2) * 48 * k**2, g**k, True),
    ]
    for r in sorted(set(r_list)):
        lhs = r * g**k * math.comb(A * r - 1, k - 1)
        rows.append(("residual_clique_excess", {"k": k, "A": A, "r": r}, "<", lhs, math.comb((A - 1) * r, k), True))
    compare = {"<": lambda a, b: a < b, ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
    return [(name, params, rel, Fraction(lhs), Fraction(rhs), compare[rel](lhs, rhs), asym)
            for name, params, rel, lhs, rhs, asym in rows]


@pytest.mark.parametrize("r_list", [(), (1, 2, 3), (7, 40)])
@pytest.mark.parametrize("A", [2, 100, 250])
def test_catalog_matches_literal_formulas(A, r_list):
    for k in range(3, 421):
        got = [(rec.name, rec.params, rec.relation, rec.lhs, rec.rhs, rec.holds, rec.asymptotic)
               for rec in verify_constant_inequalities(k, A, r_list).records]
        assert got == literal_catalog(k, A, r_list), k


@pytest.mark.parametrize("digits", [1_000, 30_000, 300_000])
def test_exact_text_matches_str_at_any_length(digits):
    # Past 2^4096 exact_text splits the int by powers of two; the text must
    # stay str()'s, for both signs, whole numbers and fractions.  n is prime
    # to d, so str() of the fraction joins theirs.
    n = 7 ** round(digits / math.log10(7)) + 12345
    d = 3 ** round(digits / 3 / math.log10(3))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        num, den = str(n), str(d)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(num) == pytest.approx(digits, abs=2)
    cases = {Fraction(n): num, Fraction(-n): "-" + num, Fraction(n, d): f"{num}/{den}", Fraction(-1, d): f"-1/{den}"}
    for q, text in cases.items():
        assert exact_text(q) == text
