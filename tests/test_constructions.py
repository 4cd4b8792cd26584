import json
import time
from math import comb

import pytest

from ramseylab import (
    InstanceTooLargeError,
    find_loose_path,
    find_mono_loose_path,
    full_star,
    is_full_star,
    pair_cover,
    ramsey_bounds,
    star_clique_coloring,
)
from ramseylab.cli import main


def test_star_clique_class_sizes_3_2():
    coloring = star_clique_coloring(3, 2)
    assert coloring.n == 7
    assert coloring.class_sizes() == {1: 15, 2: 20}


def test_star_clique_class_sizes_3_3():
    coloring = star_clique_coloring(3, 3)
    assert coloring.n == 8
    # C(7,2) through vertex 0, C(6,2) through 1 avoiding 0, C(6,3) inside {2..7}
    assert coloring.class_sizes() == {1: 21, 2: 15, 3: 20}
    assert sum(coloring.class_sizes().values()) == comb(8, 3)


def test_star_clique_class_sizes_4_2():
    coloring = star_clique_coloring(4, 2)
    assert coloring.n == 10
    assert coloring.class_sizes() == {1: 84, 2: 126}
    assert sum(coloring.class_sizes().values()) == comb(10, 4)


def test_star_clique_sizes_sum_grid():
    for k in range(3, 7):
        for r in range(1, 7):
            coloring = star_clique_coloring(k, r)
            assert sum(coloring.class_sizes().values()) == comb(r + 3 * k - 4, k)


def test_star_clique_path_free_grid():
    for k in range(3, 7):
        for r in range(1, 7):
            assert find_mono_loose_path(star_clique_coloring(k, r), 3) is None


def test_star_clique_invalid():
    with pytest.raises(ValueError):
        star_clique_coloring(2, 2)
    with pytest.raises(ValueError):
        star_clique_coloring(3, 0)
    # The closed-form bounds refuse the same k and r, and a size that is not an int.
    with pytest.raises(ValueError, match="uniformity must be at least 3"):
        ramsey_bounds(2, 2)
    with pytest.raises(ValueError, match="color count must be at least 1"):
        ramsey_bounds(3, 0)
    for k, r in [(3.5, 2), (3, 2.0), ("3", 2)]:
        with pytest.raises(TypeError):
            ramsey_bounds(k, r)


@pytest.mark.parametrize(
    "call",
    [
        lambda: star_clique_coloring(3, 3000),  # C(3005, 3) = 4.5·10^9 edges
        lambda: full_star(10**5, 3),  # C(99999, 2) = 5.0·10^9 edges
        lambda: pair_cover(10**5, 4),  # C(99998, 2) = 5.0·10^9 edges
    ],
)
def test_constructions_guard_edges_before_enumerating(call):
    start = time.perf_counter()
    with pytest.raises(InstanceTooLargeError):
        call()
    assert time.perf_counter() - start < 1.0


def test_full_star_examples():
    assert len(full_star(5, 3, 0)) == 6
    assert len(full_star(4, 4, 0)) == 1
    assert is_full_star(full_star(9, 4, 3))
    assert find_loose_path(full_star(10, 3, 0), 3) is None
    with pytest.raises(ValueError):
        full_star(5, 3, 5)
    with pytest.raises(ValueError):
        full_star(3, 4, 0)


def test_pair_cover_examples():
    assert len(pair_cover(6, 4, (0, 1))) == 6
    assert len(pair_cover(5, 3, (0, 1))) == 3
    assert find_loose_path(pair_cover(8, 4, (0, 1)), 2) is None
    with pytest.raises(ValueError):
        pair_cover(6, 4, (2, 2))
    with pytest.raises(ValueError):
        pair_cover(6, 2, (0, 1))


def test_pair_cover_every_intersection_contains_pair():
    h = pair_cover(7, 3, (1, 4))
    for e in h.edges:
        assert 1 in e and 4 in e


def test_ramsey_bounds_values():
    report = ramsey_bounds(3, 5)
    assert (report.lower, report.upper_kr, report.upper_250r) == (11, 15, 1250)
    assert ramsey_bounds(3, 2).lower == 8
    report = ramsey_bounds(250, 1)
    assert report.lower == 748 and report.upper_250r == 250
    assert any("upper_250r" in c and "lower exceeds" in c for c in report.caveats)


def test_ramsey_bounds_always_caveated(capsys):
    report = ramsey_bounds(4, 100)
    assert len(report.caveats) >= 2
    assert main(["bounds", "--k", "4", "--r", "100", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)["payload"]
    assert set(obj) == {"k", "r", "lower", "upper_kr", "upper_250r", "caveats"}
    assert obj["caveats"] == list(report.caveats)
