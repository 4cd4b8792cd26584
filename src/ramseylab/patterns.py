"""Detection of loose paths and stars, in hypergraphs and in edge colorings.

A loose path of length three is an edge triple (e1, e2, e3) with
|e1 & e2| = |e2 & e3| = 1 and e1 & e3 empty; it spans 3k-2 vertices.  A loose
path of length two is a pair of edges sharing exactly one vertex.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError
from .hypergraphs import Hypergraph, canonical_edge, read_records


class LoosePathWitness(NamedTuple):
    """An ordered edge sequence realizing a loose path, with its link vertices."""

    edges: tuple[tuple[int, ...], ...]
    links: tuple[int, ...]

    def verify(self, host: Hypergraph) -> bool:
        """Re-check the intersection pattern and host membership from scratch."""
        es = self.edges
        if len(es) not in (2, 3) or len(self.links) != len(es) - 1:
            return False
        if any(e not in host for e in es):
            return False
        for i, link in enumerate(self.links):
            shared = set(es[i]) & set(es[i + 1])
            if shared != {link}:
                return False
        if len(es) == 3 and set(es[0]) & set(es[2]):
            return False
        return True


def find_loose_path(h: Hypergraph, length: int) -> LoosePathWitness | None:
    """First loose path of the given length in canonical edge-tuple order.

    Returns None when the hypergraph contains no such path.  Both lengths
    take the partners j of each edge i from the incidence, j > i for length
    2; length 3 then scans the thirds t through the partner, and j = i or
    t in {i, j} fail the intersection tests by themselves.  Two sound early
    exits keep dense path-free hosts cheap for length 3: in a star the two
    end edges would both contain the center, and the pattern is connected
    and spans 3k-2 vertices, so it needs a connected component that large.
    """
    if length not in (2, 3):
        raise ValueError(f"length must be 2 or 3, got {length}")
    if h.k < 2:
        raise ValueError("loose paths need uniformity at least 2")
    edges = h.edges
    if not edges or length == 3 and is_star(h) is not None:
        return None
    inc = h.incidence()
    if length == 3:
        comp = {v: {v} for v in inc}  # connected components, merged per edge
        for e in edges:
            if any(comp[v] is not comp[e[0]] for v in e):
                merged = set().union(*(comp[v] for v in e))
                comp.update(dict.fromkeys(merged, merged))
        if max(map(len, comp.values())) < 3 * h.k - 2:
            return None

    for i, e1 in enumerate(edges):
        s1 = set(e1)
        for j in sorted({j for v in e1 for j in inc[v] if j > i or length == 3}):
            e2 = edges[j]
            shared12 = s1.intersection(e2)
            if len(shared12) != 1:
                continue
            if length == 2:
                return LoosePathWitness((e1, e2), tuple(shared12))
            s2 = set(e2)
            for t in sorted({t for v in e2 for t in inc[v]}):
                e3 = edges[t]
                shared23 = s2.intersection(e3)
                if len(shared23) == 1 and not s1.intersection(e3):
                    return LoosePathWitness((e1, e2, e3), (*shared12, *shared23))
    return None


def is_star(h: Hypergraph) -> int | None:
    """Smallest vertex contained in every edge, or None.

    An edgeless hypergraph is a star with center 0 by convention.
    """
    if not h.edges:
        return 0
    common = set(h.edges[0])
    for e in h.edges[1:]:
        common.intersection_update(e)
        if not common:
            return None
    return min(common)


def is_full_star(h: Hypergraph) -> bool:
    """True when some vertex lies in all C(n-1, k-1) possible edges through it."""
    if not h.edges:
        return False
    # A star's center lies in every edge, so its degree is the edge count.
    return is_star(h) is not None and len(h) == comb(h.n - 1, h.k - 1)


class Coloring:
    """A total r-coloring of the edges of the complete k-graph on n vertices.

    `colors[i]` is the color of the i-th k-set of `itertools.combinations(range(n), k)`.
    """

    __slots__ = ("k", "n", "r", "colors")

    def __init__(self, k: int, n: int, r: int, assignment: Mapping[Sequence[int], int]):
        if k < 2:
            raise ValueError(f"uniformity must be at least 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if r < 1:
            raise ValueError(f"color count must be at least 1, got {r}")
        expected = comb(n, k)
        canon: dict[tuple[int, ...], int] = {}
        for edge, color in assignment.items():
            e = canonical_edge(edge, k, n)
            if type(color) is not int or not 1 <= color <= r:  # bool, float and Fraction compare as numbers
                raise ValueError(f"color {color!r} outside the integers 1..{r}")
            if e in canon:
                raise ValueError(f"edge {e} colored twice")
            canon[e] = color
        if len(canon) != expected:
            raise ValueError(
                f"coloring must cover all {expected} edges of the complete hypergraph, got {len(canon)}"
            )
        self._fill(k, n, r, [canon[e] for e in combinations(range(n), k)])

    def _fill(self, k: int, n: int, r: int, colors: Sequence[int]) -> Coloring:
        colors = tuple(colors)
        if len(colors) != comb(n, k) or min(colors, default=1) < 1 or max(colors, default=r) > r:
            raise ValueError(f"a coloring of K^({k})_{n} takes {comb(n, k)} colors in 1..{r}")
        self.k, self.n, self.r, self.colors = k, n, r, colors
        return self

    @classmethod
    def _checked(cls, k: int, n: int, r: int, colors: Sequence[int]) -> Coloring:
        """The coloring with these colors in lex edge order, checked for their count and range only."""
        return cls.__new__(cls)._fill(k, n, r, colors)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(edge, color) pairs in lexicographic edge order."""
        return zip(combinations(range(self.n), self.k), self.colors)

    def color_class(self, color: int) -> Hypergraph:
        """The edges of one color, as a hypergraph on the same vertex range."""
        if not 1 <= color <= self.r:
            raise ValueError(f"color {color} outside 1..{self.r}")
        return Hypergraph._checked(self.k, self.n, [e for e, c in self.items() if c == color])

    def class_sizes(self) -> dict[int, int]:
        sizes = {c: 0 for c in range(1, self.r + 1)}
        for c in self.colors:
            sizes[c] += 1
        return sizes

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return (self.k, self.n, self.r, self.colors) == (other.k, other.n, other.r, other.colors)

    def __repr__(self) -> str:
        return f"Coloring(k={self.k}, n={self.n}, r={self.r})"


def find_mono_loose_path(coloring: Coloring, length: int) -> tuple[int, LoosePathWitness] | None:
    """First color class (ascending) containing a loose path of the given length.

    One pass over the colors groups the edges by color; an empty class holds no path.
    """
    classes: dict[int, list[tuple[int, ...]]] = {}
    for e, c in coloring.items():
        classes.setdefault(c, []).append(e)
    for color in sorted(classes):
        witness = find_loose_path(Hypergraph._checked(coloring.k, coloring.n, classes[color]), length)
        if witness is not None:
            return color, witness
    return None


def parse_coloring(text: str) -> Coloring:
    """Parse the coloring file format.

    Line 1 is `k n m r` with m = C(n, k); then m lines `v1 .. vk c` covering
    every edge of the complete k-graph exactly once.
    """
    records = read_records(text, "k n m r", 2, trailing=1)
    lineno, (k, n, m, r) = next(records)
    # C(n,k) >= 2^min(k,n-k) > m once min(k,n-k) reaches m's bit length.
    if min(k, n - k) >= m.bit_length() or m != comb(n, k):
        raise ParseError(f"m={m} does not equal C({n},{k})", lineno)
    assignment: dict[tuple[int, ...], int] = {}
    for lineno, edge, (color,) in records:
        if not 1 <= color <= r:
            raise ParseError(f"color {color} outside 1..{r}", lineno)
        if edge in assignment:
            raise ParseError(f"edge {' '.join(map(str, edge))} colored twice", lineno)
        assignment[edge] = color
    return Coloring._checked(k, n, r, [assignment[e] for e in combinations(range(n), k)])


def serialize_coloring(coloring: Coloring) -> str:
    """Canonical text form: header, then `v1 .. vk c` lines in edge order."""
    lines = [f"{coloring.k} {coloring.n} {comb(coloring.n, coloring.k)} {coloring.r}"]
    lines.extend(" ".join(map(str, e)) + f" {c}" for e, c in coloring.items())
    return "\n".join(lines) + "\n"
