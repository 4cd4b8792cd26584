"""Extremal objects and closed-form Ramsey bounds for loose 3-paths.

The lower-bound coloring tiles the complete k-graph on r+3k-4 vertices with
r-1 stars and one clique on the last 3k-3 vertices; every color class is
loose-3-path-free, so r colors cannot force a monochromatic path below
r+3k-3 vertices.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple, Sequence

from .errors import check_index_guard
from .hypergraphs import Hypergraph
from .patterns import Coloring

UNIVERSAL_FACTOR = 250


def star_clique_coloring(k: int, r: int) -> Coloring:
    """Color K^(k) on r+3k-4 vertices by r-1 stars plus one clique.

    Star centers are vertices 0..r-2; an edge takes color i+1 for the
    smallest center i it contains, making class i+1 a sub-star at i.  Edges
    inside the last 3k-3 vertices take color r and form a clique too small to
    carry a loose 3-path.  Past INDEX_GUARD edges it raises InstanceTooLargeError.
    """
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    if r < 1:
        raise ValueError(f"color count must be at least 1, got {r}")
    n = r + 3 * k - 4
    check_index_guard(comb(n, k), "edges")
    centers = r - 1
    colors = [e[0] + 1 if e[0] < centers else r for e in itertools.combinations(range(n), k)]
    return Coloring._checked(k, n, r, colors)


def full_star(n: int, k: int, center: int = 0) -> Hypergraph:
    """All C(n-1, k-1) k-sets through one vertex, refused past INDEX_GUARD."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if not 0 <= center < n:
        raise ValueError(f"center {center} outside 0..{n - 1}")
    check_index_guard(comb(n - 1, k - 1), "edges")
    others = [v for v in range(n) if v != center]
    edges = [tuple(sorted((center,) + rest)) for rest in itertools.combinations(others, k - 1)]
    return Hypergraph._checked(k, n, edges)


def pair_cover(n: int, k: int, pair: Sequence[int] = (0, 1)) -> Hypergraph:
    """All C(n-2, k-2) k-sets through both vertices of a fixed pair.

    Any two edges intersect in at least the pair, so no two edges share
    exactly one vertex.  Refused past INDEX_GUARD edges.
    """
    if k < 3 or k > n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    a, b = pair
    if a == b or not 0 <= a < n or not 0 <= b < n:
        raise ValueError(f"pair {tuple(pair)} must be two distinct vertices in 0..{n - 1}")
    check_index_guard(comb(n - 2, k - 2), "edges")
    base = tuple(sorted((a, b)))
    others = [v for v in range(n) if v not in base]
    edges = [tuple(sorted(base + rest)) for rest in itertools.combinations(others, k - 2)]
    return Hypergraph._checked(k, n, edges)


class BoundsReport(NamedTuple):
    """Closed-form bounds on the r-color Ramsey number of the loose 3-path."""

    k: int
    r: int
    lower: int
    upper_kr: int
    upper_250r: int
    caveats: tuple[str, ...] = ()


def ramsey_bounds(k: int, r: int) -> BoundsReport:
    """Report the r+3k-3 lower bound and the kr / 250r upper bounds.

    The upper bounds hold only for r above thresholds that are not known
    explicitly, so they are reported with caveats rather than suppressed.
    """
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    if r < 1:
        raise ValueError(f"color count must be at least 1, got {r}")
    lower = r + 3 * k - 3
    upper_kr = k * r
    upper_250r = UNIVERSAL_FACTOR * r
    caveats = [
        "upper_kr is valid only for r >= r0(k); the threshold r0(k) is not known explicitly",
        "upper_250r is valid only for r >= r_k; the threshold r_k is not known explicitly",
    ]
    if lower > upper_kr:
        caveats.append("lower exceeds upper_kr at these parameters: r is below the kr regime")
    if lower > upper_250r:
        caveats.append("lower exceeds upper_250r at these parameters: r is below the 250r regime")
    return BoundsReport(k, r, lower, upper_kr, upper_250r, tuple(caveats))
