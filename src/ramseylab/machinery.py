"""Constructive proof machinery: degree peeling, bipartite pruning, balanced
tripartition, and derandomized vertex splitting.

Every threshold comparison uses exact rationals; the guarantees here hinge on
strict inequalities that floating point would occasionally flip.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .errors import check_index_guard
from .hypergraphs import Hypergraph, canonical_edge


class BipartiteGraph:
    """Immutable bipartite graph with disjoint, individually sortable classes."""

    __slots__ = ("left", "right", "edges")

    def __init__(
        self,
        left: Iterable[Hashable],
        right: Iterable[Hashable],
        edges: Iterable[tuple[Hashable, Hashable]] = (),
    ):
        left_set = set(left)
        right_set = set(right)
        if left_set & right_set:
            raise ValueError("vertex classes must be disjoint")
        canon = set()
        for u, v in edges:
            if u not in left_set or v not in right_set:
                raise ValueError(f"edge ({u!r}, {v!r}) must go from the left class to the right class")
            canon.add((u, v))
        self.left = tuple(sorted(left_set))
        self.right = tuple(sorted(right_set))
        self.edges = frozenset(canon)

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self.left == other.left and self.right == other.right and self.edges == other.edges

    def __repr__(self) -> str:
        return f"BipartiteGraph(|V1|={len(self.left)}, |V2|={len(self.right)}, m={len(self.edges)})"


class Tripartition(NamedTuple):
    """Three disjoint vertex groups with exact rational weight sums, ascending."""

    parts: tuple[tuple, tuple, tuple]
    sums: tuple[Fraction, Fraction, Fraction]

    @property
    def gap(self) -> Fraction:
        return self.sums[2] - self.sums[0]


class SplitAssignment(NamedTuple):
    """Deterministic bipartition with its proper count and the exact expectation."""

    u1: tuple[int, ...]
    u2: tuple[int, ...]
    proper_count: int
    expectation: Fraction


class StabilityReport(NamedTuple):
    vertex: int
    deficiency: Fraction
    holds: bool


def _peel(edges: Sequence[tuple], order: Sequence[Hashable], too_low) -> list[tuple]:
    """The edges left after removing, with its edges, the first vertex in `order`
    whose degree is too low, until none is.

    too_low(v, degree) must stay true as the degree falls, so the heap of the
    positions of too-low vertices always holds the next victim at its top.
    """
    position = {v: i for i, v in enumerate(order)}
    incident: dict[Hashable, list[tuple]] = {v: [] for v in order}
    for e in edges:
        for v in e:
            incident[v].append(e)
    degree = {v: len(es) for v, es in incident.items()}
    heap = [i for i, v in enumerate(order) if too_low(v, degree[v])]  # ascending: a heap
    queued = set(heap)
    removed: set[tuple] = set()
    while heap:
        for e in incident[order[heapq.heappop(heap)]]:
            if e in removed:
                continue
            removed.add(e)
            for u in e:
                degree[u] -= 1
                if position[u] not in queued and too_low(u, degree[u]):
                    queued.add(position[u])
                    heapq.heappush(heap, position[u])
    return [e for e in edges if e not in removed]


def peel_min_degree(h: Hypergraph) -> Hypergraph:
    """Peel to a nonempty subhypergraph with every degree above |E|/|V|.

    The threshold is fixed from the input (|V| counts all n vertices).  Vertices
    of current degree <= threshold are removed smallest-id first until none is;
    only the support is walked, since an isolated one removes no edge.  A charging
    argument rules out emptying: each edge is charged once, at its first
    removed vertex, for a total of |E|; were every vertex removed, the last
    removal would charge 0 < threshold, forcing the impossible strict bound
    |E| < |E|.  The argument needs k >= 2 (a 1-edge can be charged at its
    only vertex, the last one removed), so 1-graphs are refused.  The empty
    outcome is still checked defensively.
    """
    if h.k < 2:
        raise ValueError(f"peel needs k >= 2, got a {h.k}-graph")
    if len(h) == 0:
        raise ValueError("peel needs at least one edge")
    threshold = Fraction(len(h), h.n)
    edges = _peel(h.edges, h.support(), lambda v, d: d <= threshold)
    if not edges:
        raise RuntimeError("degree peel emptied the hypergraph; impossible for inputs with an edge")
    return Hypergraph._checked(h.k, h.n, edges)


def prune_bipartite(b: BipartiteGraph) -> BipartiteGraph:
    """Prune to a nonempty subgraph meeting per-class degree floors.

    Both floors |B|/(2|Vi|) are fixed from the input.  Vertices with current
    degree strictly below their class floor are removed one at a time (left
    class first, smallest first).  Fewer than |B| edges can be lost this way,
    so the result is never empty; checked defensively.
    """
    if not b.edges:
        raise ValueError("pruning needs at least one edge")
    floor = {v: Fraction(len(b.edges), 2 * len(part)) for part in (b.left, b.right) for v in part}
    edges = _peel(list(b.edges), b.left + b.right, lambda v, d: d < floor[v])
    if not edges:
        raise RuntimeError("bipartite prune emptied the graph; the counting bound rules this out")
    return BipartiteGraph({u for u, _ in edges}, {v for _, v in edges}, edges)


def greedy_tripartition(weights: Mapping[Hashable, Fraction | int | str]) -> Tripartition:
    """Split weighted vertices into three groups with nearly equal sums.

    Vertices are placed heaviest first (ties by vertex id) into the group
    with the current minimum sum (ties to the lowest group index).  The
    returned groups are ordered by ascending sum; the top-to-bottom gap never
    exceeds the largest single weight.
    """
    items = []
    for v, w in weights.items():
        wf = Fraction(w)
        if wf < 0:
            raise ValueError(f"weight of {v!r} is negative: {wf}")
        items.append((v, wf))
    items.sort(key=lambda vw: (-vw[1], vw[0]))
    sums = [Fraction(0)] * 3
    groups: list[list] = [[], [], []]
    for v, w in items:
        target = min(range(3), key=lambda i: sums[i])
        groups[target].append(v)
        sums[target] += w
    order = sorted(range(3), key=lambda i: (sums[i], i))
    return Tripartition(
        parts=tuple(tuple(sorted(groups[i])) for i in order),
        sums=tuple(sums[i] for i in order),
    )


def derandomized_split(
    assignments: Mapping[Sequence[int], int], n: int, k: int
) -> SplitAssignment:
    """Split [0, n) into (U1, U2) so the proper count reaches its expectation.

    Each item maps a (k-1)-set f to an apex vertex v_f outside f; f is proper
    when v_f lands in U1 and all of f lands in U2.  Under independent rounding
    (U1 with probability 1/k) the expected proper count is exactly
    |F| * (1/k) * ((k-1)/k)^(k-1).  The method of conditional expectations
    walks vertices in ascending order, placing each on the side whose exact
    conditional expectation is not smaller (ties to U2), so the final count
    can never drop below the initial expectation.  Items not touching v add
    the same term to both sides, so only the items touching v are summed and
    a vertex no item touches goes to U2 on the tie.  Each item keeps the
    count of its undecided vertices and a liveness flag: a term is one lookup.
    """
    if k < 2:
        raise ValueError(f"uniformity must be at least 2, got {k}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    check_index_guard(n, "vertices")
    items: dict[tuple[int, ...], int] = {}
    for f, v in assignments.items():
        ft = canonical_edge(f, k - 1, n)
        if not 0 <= v < n:
            raise ValueError(f"apex {v} of {ft} outside 0..{n - 1}")
        if v in ft:
            raise ValueError(f"apex {v} lies inside its own set {ft}")
        if ft in items:
            raise ValueError(f"set {ft} given twice")
        items[ft] = v
    if items:  # `scaled` below holds about k²·log2(k) bits
        check_index_guard(k * k, "(k² with a set given)")

    # ((k-1)/k)^(k-1) has about k·log2(k) bits; no item needs it.
    expectation = len(items) * Fraction(1, k) * Fraction(k - 1, k) ** (k - 1) if items else Fraction(0)
    # Terms times k^k as exact ints: scaled[j] = (k-1)^j·k^(k-1-j) for a set with j vertices
    # undecided and its apex undecided, k·scaled[j] with its apex in U1; k²·log2(k) bits in all.
    scaled = [k ** (k - 1)] if items else []
    while 0 < len(scaled) < k:
        scaled.append(scaled[-1] * (k - 1) // k)

    apex = list(items.values())
    undecided = [k - 1] * len(apex)  # per item, the vertices of its set not yet placed
    alive = [True] * len(apex)  # per item, false once a set vertex is in U1 or the apex in U2
    holding: dict[int, list[int]] = {}  # vertex -> the items whose set holds it
    apex_of: dict[int, list[int]] = {}  # vertex -> the items it is the apex of
    for i, (f, v) in enumerate(items.items()):
        apex_of.setdefault(v, []).append(i)
        for u in f:
            holding.setdefault(u, []).append(i)

    u1: list[int] = []
    for v in sorted(holding.keys() | apex_of.keys()):
        # In U2, v keeps the terms of the sets holding it, one vertex fewer undecided, and
        # zeroes those it is the apex of; in U1, the reverse.  An alive apex below v is in U1.
        sets, apexes = holding.get(v, ()), apex_of.get(v, ())
        gain_u2 = sum(scaled[undecided[i] - 1] * (k if apex[i] < v else 1) for i in sets if alive[i])
        gain_u1 = sum(k * scaled[undecided[i]] for i in apexes if alive[i])
        if gain_u1 > gain_u2:
            u1.append(v)
        for i in sets if gain_u1 > gain_u2 else apexes:  # the items v's side kills
            alive[i] = False
        for i in sets:
            undecided[i] -= 1

    u2 = tuple(chain.from_iterable(range(a + 1, b) for a, b in zip([-1, *u1], [*u1, n])))
    return SplitAssignment(tuple(u1), u2, sum(alive), expectation)


def stability_deficiency(h: Hypergraph) -> StabilityReport:
    """Deficiency of the dominant star and the (24/25)^k * C(n-1, k-1) test.

    Reports the max-degree vertex v, the edge count missed by its star
    (|H| - deg(v)), and whether that deficiency stays within the exact bound.
    The bound is asserted by theory only for loose-3-path-free hypergraphs
    with k >= 250 and huge n; here the predicate is simply evaluated.
    """
    if h.k < 2:
        raise ValueError(f"uniformity must be at least 2, got {h.k}")
    vertex, degree = h.max_degree()
    deficiency = Fraction(len(h) - degree)
    bound = Fraction(24, 25) ** h.k * comb(max(h.n - 1, 0), h.k - 1)
    return StabilityReport(vertex, deficiency, deficiency <= bound)
