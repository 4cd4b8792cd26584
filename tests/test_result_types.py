"""The result types are frozen: each is a NamedTuple built by a real call.

Assigning to a field raises AttributeError, and two equal calls give equal
results; the types that carry wall times are compared with them zeroed.
"""

from fractions import Fraction

import pytest

import ramseylab as R

TIMES = {"seconds": 0.0, "build_s": 0.0, "search_s": 0.0, "verify_s": 0.0}


def untimed(result):
    if isinstance(result, R.SearchStats):
        return result._replace(**TIMES)
    if isinstance(result, (R.SearchOutcome, R.TuranResult)):
        return result._replace(stats=untimed(result.stats))
    return result


CALLS = {
    "SearchStats": lambda: R.decide_ramsey(2, 3, 6).stats,
    "SearchOutcome": lambda: R.decide_ramsey(3, 2, 6),
    "TuranResult": lambda: R.turan_max_edges(3, 7, R.PATTERN_LOOSE_PATH_3),
    "CnfInstance": lambda: R.export_cnf(2, 3, 6),
    "LoosePathWitness": lambda: R.find_loose_path(R.complete_hypergraph(7, 3), 3),
    "BoundsReport": lambda: R.ramsey_bounds(3, 2),
    "Tripartition": lambda: R.greedy_tripartition({"a": 3, "b": "2/3", "c": 1, "d": "0.5"}),
    "SplitAssignment": lambda: R.derandomized_split({(0, 1): 2, (1, 3): 4, (2, 4): 0}, 6, 3),
    "IneqRecord": lambda: R.verify_constant_inequalities(3).record("tail_power_bound"),
    "IneqReport": lambda: R.verify_constant_inequalities(250, r_list=[1, 2]),
    "Interval": lambda: R.star_deficiency_bound(Fraction(1, 2), 5, 20, Fraction(1, 10**6)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_result_is_frozen_and_reproducible(name):
    first, second = CALLS[name](), CALLS[name]()
    assert type(first) is getattr(R, name)
    assert untimed(first) == untimed(second)
    for field in type(first)._fields:
        with pytest.raises(AttributeError):
            setattr(first, field, None)
    with pytest.raises(AttributeError):
        first.no_such_field = None


def test_every_result_type_is_covered():
    assert len(CALLS) == 11
    assert all(issubclass(getattr(R, name), tuple) for name in CALLS)
