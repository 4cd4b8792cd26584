"""k-uniform hypergraphs on dense integer vertices with canonical edge order."""

from __future__ import annotations

import itertools
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import ParseError


def canonical_edge(edge: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    """`edge` as an ascending tuple; ValueError unless it is k distinct vertices in 0..n-1."""
    e = tuple(sorted(edge))
    if len(e) != k or len(set(e)) != k:
        raise ValueError(f"edge {tuple(edge)} is not a set of {k} distinct vertices")
    if e[0] < 0 or e[-1] >= n:
        raise ValueError(f"edge {e} has a vertex outside 0..{n - 1}")
    return e


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    Edges are k-element subsets stored as strictly ascending tuples and
    iterated in lexicographic order, so equal hypergraphs enumerate their
    edges identically.  Vertex ids are never renumbered: operations that drop
    vertices leave them in place as isolated vertices.  Instances are safe to
    share across concurrent readers once constructed.
    """

    __slots__ = ("k", "n", "_edges", "_edge_set", "_incidence")

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]] = ()):
        k, n = index(k), index(n)  # True is 1; a float, Fraction or str raises TypeError
        if k < 1:
            raise ValueError(f"uniformity must be at least 1, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self._fill(k, n, {canonical_edge(edge, k, n) for edge in edges})

    def _fill(self, k: int, n: int, edges: Iterable[tuple[int, ...]]) -> Hypergraph:
        self.k, self.n, self._edges, self._incidence = k, n, tuple(sorted(edges)), None
        self._edge_set = frozenset(self._edges)
        return self

    @classmethod
    def _checked(cls, k: int, n: int, edges: Iterable[tuple[int, ...]]) -> Hypergraph:
        """A hypergraph on edges the package has checked: canonical, distinct and in 0..n-1."""
        return cls.__new__(cls)._fill(k, n, edges)

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Edges in lexicographic order."""
        return self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Sequence[int]) -> bool:
        return tuple(sorted(edge)) in self._edge_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.k == other.k and self.n == other.n and self._edge_set == other._edge_set

    def __hash__(self) -> int:
        return hash((self.k, self.n, self._edge_set))

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, m={len(self._edges)})"

    def incidence(self) -> dict[int, tuple[int, ...]]:
        """For each vertex of degree at least one, the ascending indexes of the edges through it.

        It is built from the edges alone, so its size does not grow with n.
        """
        if self._incidence is None:
            inc: dict[int, list[int]] = {}
            for i, e in enumerate(self._edges):
                for v in e:
                    inc.setdefault(v, []).append(i)
            self._incidence = {v: tuple(ids) for v, ids in inc.items()}
        return self._incidence

    def degree(self, v: int) -> int:
        """Number of edges containing vertex v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return len(self.incidence().get(v, ()))

    def max_degree(self) -> tuple[int, int]:
        """(vertex, degree) of maximum degree; ties go to the smallest vertex id.

        An edgeless hypergraph reports (0, 0).
        """
        if not self._edges:
            return (0, 0)
        v, through = min(self.incidence().items(), key=lambda item: (-len(item[1]), item[0]))
        return v, len(through)

    def support(self) -> tuple[int, ...]:
        """Vertices with degree at least one, ascending."""
        return tuple(sorted(self.incidence()))


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    """The complete k-graph on n vertices, with all C(n, k) edges."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return Hypergraph._checked(k, n, itertools.combinations(range(n), k))


def _integers(fields: list[str], lineno: int) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(f"fields must be integers, got {' '.join(fields)!r}", lineno) from None


def read_records(text: str, header: str, min_k: int, trailing: int = 0) -> Iterator[tuple]:
    """Yield (line, header values), then (line, edge, trailing ints) per edge line.

    Blank and `#` lines are skipped.  The header is the integers named in
    `header`, `k n m` first, with k >= min_k, n, m >= 0 and the rest >= 1;
    then come m lines of k vertex ids (see `canonical_edge`) and `trailing`
    more integers.  Errors are ParseErrors at their 1-based line, raised
    lazily, so a consumer's own check of a record comes before later lines.
    """
    names = header.split()
    lines = text.splitlines()
    end = max(len(lines), 1)
    records = ((i, f) for i, line in enumerate(lines, 1) if (f := line.split()) and f[0][0] != "#")
    lineno, fields = next(records, (end, None))
    if fields is None:
        raise ParseError(f"missing header line '{header}'", end)
    values = _integers(fields, lineno)
    if len(values) != len(names):
        raise ParseError(f"header must be the {len(names)} integers '{header}'", lineno)
    if values[0] < min_k or min(values[1:3]) < 0 or min(values[3:], default=1) < 1:
        shown = " ".join(f"{a}={v}" for a, v in zip(names, values))
        raise ParseError(f"invalid header values {shown}", lineno)
    yield lineno, tuple(values)
    k, n, m = values[:3]
    count = 0
    for lineno, fields in records:
        if count == m:
            raise ParseError(f"more edge lines than the declared m={m}", lineno)
        ints = _integers(fields, lineno)
        if len(ints) != k + trailing:
            raise ParseError(f"expected {k + trailing} integers per edge line, got {len(ints)}", lineno)
        try:
            edge = canonical_edge(ints[:k], k, n)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        count += 1
        yield lineno, edge, tuple(ints[k:])
    if count != m:
        raise ParseError(f"expected {m} edge lines, found {count}", end)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hypergraph file format.

    Line 1 is `k n m`, followed by m lines of k space-separated vertex ids.
    Lines starting with `#` and blank lines are ignored.
    """
    records = read_records(text, "k n m", 1)
    _, (k, n, _) = next(records)
    edges: set[tuple[int, ...]] = set()
    for lineno, edge, _ in records:
        if edge in edges:
            raise ParseError(f"duplicate edge {' '.join(map(str, edge))}", lineno)
        edges.add(edge)
    return Hypergraph._checked(k, n, edges)


def serialize_hypergraph(h: Hypergraph) -> str:
    """Canonical text form: header, then edges in lexicographic order."""
    lines = [f"{h.k} {h.n} {len(h.edges)}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"
