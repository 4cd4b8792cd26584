"""Exact decision of small Ramsey instances and Turan maximization.

Both engines read the vertex swaps and the edge bitsets of `_edge_bitsets`,
which the tests check against reference builds, and re-verify any witness.
The CNF export and the exhaustive oracle live in `ramseylab.cnf`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from math import comb
from typing import NamedTuple

from .errors import check_index_guard
from .hypergraphs import Hypergraph
from .patterns import Coloring, find_loose_path, find_mono_loose_path

PATTERN_LOOSE_PATH_3 = "loose-path-3"
PATTERN_LOOSE_PATH_2 = "loose-path-2"

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_UNKNOWN = "unknown"

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower-bound-only"

_MEMO_BOUND = 1 << 14  # fold-memo entries one engine run keeps; a miss past it clears the memo


class SearchStats(NamedTuple):
    nodes: int
    prunes: int
    seconds: float
    max_depth: int = 0  # deepest edge index the Ramsey DFS reached; 0 for the other engines
    # Phase seconds of `decide_ramsey` and `turan_max_edges`: building the
    # swap table and edge bitsets, the search loop, re-checking the witness.
    build_s: float = 0.0
    search_s: float = 0.0
    verify_s: float = 0.0
    class_cap: int = 0  # the ex_k(n) bound the Ramsey DFS armed; 0 if its Turán search never finished


class SearchOutcome(NamedTuple):
    """Result of a Ramsey decision: holds / fails(witness) / unknown(budget)."""

    verdict: str
    witness: Coloring | None
    stats: SearchStats


class TuranResult(NamedTuple):
    """Largest pattern-free edge count found, with the extremal witness."""

    status: str
    max_edges: int
    extremal: Hypergraph
    stats: SearchStats


def _pattern_length(pattern: str) -> int:
    if pattern == PATTERN_LOOSE_PATH_3:
        return 3
    if pattern == PATTERN_LOOSE_PATH_2:
        return 2
    raise ValueError(f"unknown pattern {pattern!r}")


def _copy_count(n: int, k: int, length: int) -> int:
    """Copies of the loose path in K^(k)_n, by closed form.

    C(n,k)·k(k-1)/2·C(n-k,k-1)·C(n-2k+1,k-1), or C(n,k)·k·C(n-k,k-1)/2 for length 2.
    """
    count = comb(n, k) * k * comb(max(n - k, 0), k - 1) // 2
    if length == 3:
        count *= (k - 1) * comb(max(n - 2 * k + 1, 0), k - 1)
    return count


def _edge_bitsets(edges: list[tuple[int, ...]], n: int, shift: int):
    """Yield (one[e], free[e]) of each edge e as in `_FoldMemo`, edge f at bit shift·f, from the edges through each vertex."""
    inc = [0] * n  # inc[v]: the edges through vertex v
    for i, e in enumerate(edges):
        for v in e:
            inc[v] |= 1 << shift * i
    full = functools.reduce(operator.or_, inc)
    for e in edges:
        ge1 = ge2 = 0  # the edges meeting e in at least one, at least two vertices
        for v in e:
            ge2 |= ge1 & inc[v]
            ge1 |= inc[v]
        yield ge1 ^ ge2, full ^ ge1


@functools.lru_cache(maxsize=4)
def _vertex_swaps(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Shared rows: row i maps each edge rank to its image's under the vertex swap (i i+1), then the sentinel C(n,k).

    The swap maps the edges holding i alone, in lex order, onto those holding
    i+1 alone in the same order, and fixes the rest.  The (n-1)·C(n,k)·k
    entries are guarded like the copies, which an instance without copies passes.
    """
    check_index_guard((n - 1) * comb(n, k) * k, "vertex-swap entries")
    ranks = list(range(comb(n, k) + 1))  # shared by every row; the last is the sentinel
    star = [[] for _ in range(n)]  # star[v]: the ranks of the edges through v, ascending
    for rank, e in zip(ranks, itertools.combinations(range(n), k)):
        for v in e:
            star[v].append(rank)
    rows = []
    for low, high in itertools.pairwise(star):
        row = ranks[:]
        mine, theirs = set(low), set(high)
        for x, y in zip(itertools.filterfalse(theirs.__contains__, low), itertools.filterfalse(mine.__contains__, high)):
            row[x], row[y] = y, x
        rows.append(tuple(row))
    return tuple(rows)


class _FoldMemo(dict):
    """One engine run's fold memo: key x | 2 << d, x a set of partners of edge d, maps to the edges above d closing a copy with d and them.

    one[e] holds the edges meeting e in exactly one vertex, free[e] those
    disjoint from it.  The end edges of a loose 3-path are disjoint and each
    meets the middle in one vertex, so a partner p in one[d] closes with the
    edges in one[d] & free[p] or free[d] & one[p], and a partner in free[d]
    with those in one[d] & one[p]; at length 2, d is its own partner, not
    in one[d], and closes with one[d].  Every partner lies at or below d, so
    the key's top bit names d.  A miss folds x from the bitsets, first
    clearing the memo once it holds _MEMO_BOUND entries; entries are pure,
    so this changes no tree.
    """

    __slots__ = ("one", "free")

    def __init__(self, one: list[int], free: list[int]):
        self.one, self.free = one, free

    def __missing__(self, key: int) -> int:
        d = key.bit_length() - 2
        one, free = self.one, self.free
        a = b = 0
        y = key ^ 2 << d
        while y:
            low = y & -y
            y ^= low
            p = low.bit_length() - 1
            if one[d] & low:
                a |= free[p]
                b |= one[p]
            else:
                a |= one[p]
        if len(self) >= _MEMO_BOUND:
            self.clear()
        self[key] = folded = (one[d] & a | free[d] & b) >> d + 1 << d + 1
        return folded


def _tables(n: int, k: int, length: int):
    """(swaps, partners, memo, edges) of K^(k)_n, the tables both engines read.

    swaps are the shared rows of `_vertex_swaps`, partners[d] the partners of
    edge d as bits, memo the run's `_FoldMemo` and edges the k-sets in lex
    order.  Nothing is built per copy: with copies, C(n,k)^2 edge pairs are
    checked against INDEX_GUARD before anything is allocated; without, no
    bitset is.
    """
    if copies := _copy_count(n, k, length):
        check_index_guard(comb(n, k) ** 2, "edge pairs")
    swaps = _vertex_swaps(n, k)
    edges = list(itertools.combinations(range(n), k))
    one = free = partners = [0] * len(edges)
    if copies:
        one, free = zip(*_edge_bitsets(edges, n, 1))
        partners = [1 << d if length == 2 else (one[d] | free[d]) & (1 << d) - 1 for d in range(len(edges))]
    return swaps, partners, _FoldMemo(one, free), edges


def _lex_leader(d, word, used, waiting, trail):
    """Compare on the swaps waiting on edge d; False if an image is lex-smaller.

    Position j of the image of word under a vertex swap s holds word[s[j]],
    renamed by first occurrence: a wait (s, j, name) maps the values met so
    far, and a new value takes used[j] + 1.  A swap equal up to position j
    waits in waiting[e] until edge e = s[j] is decided (if s[j] < j, comparing
    position s[j] needed edge j); trail[d] lists the waits added at depth d.
    A sentinel s[m] = m parks a swap the whole word equals in waiting[m].
    """
    for s, j, name in waiting[d]:
        while True:
            x = word[s[j]]
            a = name[x]
            if not a:  # a new image value takes the next name
                a = used[j] + 1
                name = name[:x] + (a,) + name[x + 1 :]
            if a != word[j]:
                if a < word[j]:
                    return False
                break
            j += 1
            e = s[j]
            if e > d:
                waiting[e].append((s, j, name))
                trail[d].append(e)
                break
    return True


def _run_canonical_dfs(r, swaps, partners, memo, budget, seed=None):
    """Backtracking over edges in lex order for the lex-least good coloring.

    colors[d] is the color assigned or last tried at depth d, and cls[c]
    the bitmask of the edges before depth d colored c.  threat[c] holds the
    edges that would close a monochromatic copy in color c, and saved[d] is
    threat[colors[d]] before edge d took its color; coloring d with c ORs in
    the closing masks of its partners in cls[c], read from the fold memo at
    x | 2 << d, x = cls[c] & partners[d].  Edge d may take color c only if
    colors 1..c-1 appear before it.  With a seed,
    each attempt steps `_turan_steps` on these tables one node until it
    returns ex.  A descent is pruned by three tests, in this order: forward
    checking, once all r colors are in use and a later edge is in every
    threat mask; the class cap, once ex is known, when the sum over colors c
    of min(ex - |cls[c]|, later edges not in threat[c]) is below the edges
    left; and `_lex_leader`, when the image under a vertex swap (i i+1) is
    lex-smaller.  The order does not change the tree, since a prune pops the
    waits `_lex_leader` added.
    `decide_ramsey` passes min(r, C(n,k)) colors; more only add empty classes.
    Returns (result, colors, nodes, prunes, max_depth, ex or 0).
    """
    m = len(partners)
    colors = [0] * m
    used = [0] * (m + 1)
    threat = [0] * (r + 1)
    saved = [0] * m
    cls = [0] * (r + 1)
    bits = [1 << d for d in range(m)]
    classes = range(1, r + 1)
    steps = None if seed is None else _turan_steps(swaps, partners, memo, seed)
    waiting = [[] for _ in range(m + 1)]
    for s in swaps:
        waiting[s[0]].append((s, 0, (0,) * (r + 1)))
    trail = [[] for _ in range(m)]
    d = nodes = prunes = deepest = cap = 0
    while True:
        limit = used[d] + 1
        if limit > r:
            limit = r
        c = colors[d] + 1
        if c > limit:
            colors[d] = 0
            if d > deepest:
                deepest = d
            d -= 1
            if d < 0:
                return VERDICT_HOLDS, None, nodes, prunes, deepest, cap
            threat[colors[d]] = saved[d]
            cls[colors[d]] ^= bits[d]
            while trail[d]:
                waiting[trail[d].pop()].pop()
            continue
        colors[d] = c
        nodes += 1
        if budget and nodes > budget:
            return VERDICT_UNKNOWN, None, nodes, prunes, max(deepest, d), cap
        if steps:
            try:
                next(steps)
            except StopIteration as stop:
                cap, steps = stop.value[0], None
        t = threat[c]
        if t & bits[d]:
            prunes += 1
            continue
        saved[d] = t
        x = cls[c] & partners[d]
        if x:
            t |= memo[x | 2 << d]
        threat[c] = t
        u = used[d + 1] = c if c > used[d] else used[d]
        cls[c] |= bits[d]
        # Shallower depths ruled a wiped-out edge out for the old masks.
        prune = u == r and t != saved[d] and functools.reduce(operator.and_, threat[1:]) >> d + 1
        if cap and not prune:
            left = m - d - 1
            room = 0
            for a in classes:
                free = left - (threat[a] >> d + 1).bit_count()
                spare = cap - cls[a].bit_count()
                room += spare if spare < free else free
            prune = room < left
        if prune or waiting[d] and not _lex_leader(d, colors, used, waiting, trail):
            prunes += 1
            threat[c] = saved[d]
            cls[c] ^= bits[d]
            while trail[d]:
                waiting[trail[d].pop()].pop()
            continue
        d += 1
        if d == m:
            return VERDICT_FAILS, list(colors), nodes, prunes, m - 1, cap


def decide_ramsey(k: int, r: int, n: int, budget: int = 0) -> SearchOutcome:
    """Decide whether every r-coloring of K^(k)_n has a monochromatic loose 3-path.

    Backtracks over edges in lexicographic order with color-symmetry breaking.
    Each color keeps a bitmask of the edges that would close a monochromatic
    copy, so testing an assignment is one bit test; assigning an edge ORs in
    its closing masks for the earlier partners of the same color, folded
    once per distinct partner set and then looked up.  Forward checking,
    lex-leader breaking of the vertex swaps (i i+1) and a cap of ex_k(n) edges
    per class, armed once the Turán search run in lockstep is exact (it is
    `stats.class_cap`), prune further without changing the verdict or the
    witness, the lex-least good coloring.  `budget` caps the number of
    attempted assignments (0 = unlimited); exhausting it yields "unknown".
    """
    if k < 2 or r < 1 or n < k:
        raise ValueError(f"need k >= 2, r >= 1, n >= k; got k={k}, r={r}, n={n}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    start = time.perf_counter()
    swaps, partners, memo, edges = _tables(n, k, 3)
    built = time.perf_counter()
    seed = _turan_seed(k, n, PATTERN_LOOSE_PATH_3, edges)
    dfs_r = min(r, len(edges))
    verdict, colors, nodes, prunes, depth, cap = _run_canonical_dfs(dfs_r, swaps, partners, memo, budget, seed)
    searched = time.perf_counter()
    witness = None
    if verdict == VERDICT_FAILS:
        witness = Coloring._checked(k, n, r, colors)
        if find_mono_loose_path(witness, 3) is not None:
            raise RuntimeError("search produced an invalid witness coloring")
    end = time.perf_counter()
    stats = SearchStats(nodes, prunes, end - start, depth, built - start, searched - built, end - searched, cap)
    return SearchOutcome(verdict, witness, stats)


def _turan_seed(k: int, n: int, pattern: str, edges: list[tuple[int, ...]]) -> list[int]:
    """Indexes of a known pattern-free hypergraph to prime the search bound.

    The star at 0; for loose-path-2 the pair cover of (0, 1) (edges with e[1] == 1) if k >= 3, else the matching (v, v+1), v even.
    """
    if pattern == PATTERN_LOOSE_PATH_3:
        return [i for i, e in enumerate(edges) if 0 in e]
    if k >= 3:
        return [i for i, e in enumerate(edges) if e[1] == 1]
    return [i for i, (u, v) in enumerate(edges) if v == u + 1 and not u % 2]


def _turan_steps(swaps, partners, memo, seed):
    """The branch and bound of `turan_max_edges` as a generator on its own stack.

    It yields the node count on entering a node, stops there when sent a true
    value and returns (best_count, best_sel, nodes, prunes).  chosen holds the
    included edges as bits, and word[j] is 1 if edge j is included, else 2:
    `_lex_leader` on word with the identity renaming prunes a node whose image
    under a vertex swap includes an edge first where the word excludes one.
    """
    m = len(partners)
    best_count, best_sel = len(seed), seed
    waiting = [[] for _ in range(m + 1)]
    for s in swaps:
        waiting[s[0]].append((s, 0, (0, 1, 2)))
    trail = [[] for _ in range(m)]
    threat = [0] * (m + 1)
    word = [2] * m
    i = chosen = nodes = prunes = 0
    while True:
        nodes += 1
        if (yield nodes):
            break
        t = threat[i]
        bound = chosen.bit_count() + m - i - (t >> i).bit_count()
        if bound <= best_count or i and waiting[i - 1] and not _lex_leader(i - 1, word, None, waiting, trail):
            prunes += 1
        elif i == m:
            best_count, best_sel = chosen.bit_count(), [j for j in range(m) if chosen >> j & 1]
        else:
            if not t >> i & 1:  # inclusion first
                chosen |= 1 << i
                word[i] = 1
                t |= memo[chosen & partners[i] | 2 << i]
            threat[i + 1] = t
            i += 1
            continue
        while i:  # leave nodes up to one whose edge is in `chosen`, its exclusion left
            while trail[i - 1]:
                waiting[trail[i - 1].pop()].pop()
            i -= 1
            if chosen >> i & 1:
                chosen ^= 1 << i
                word[i] = 2
                threat[i + 1] = threat[i]
                i += 1
                break
        else:
            break
    return best_count, best_sel, nodes, prunes


def turan_max_edges(k: int, n: int, pattern: str, budget: int = 0) -> TuranResult:
    """Largest number of edges of an n-vertex k-graph avoiding the pattern.

    Branch and bound over edge inclusion in lex order, inclusion first,
    primed with a known pattern-free construction (`_turan_steps`, run up
    to the budget).  A bitmask of the edges that would close a copy with the
    selected ones makes inclusion one bit test and bounds a node by its
    count plus the later edges outside it; the fold of closing masks is
    memoised as in `_run_canonical_dfs`.  A node is also pruned when a
    vertex swap (i i+1) maps the decided inclusion word to a lex-greater
    one.  Neither pruning removes the lex-greatest optimum, so the value and
    the extremal (the seed if optimal, else that optimum) match the unpruned
    search.  The tree exhausted, the status is `exact`; a spent budget gives
    `lower-bound-only` and the best witness found.
    """
    length = _pattern_length(pattern)
    if k < 2 or n < k:
        raise ValueError(f"need k >= 2 and n >= k, got k={k}, n={n}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    start = time.perf_counter()
    swaps, partners, memo, edges = _tables(n, k, length)
    built = time.perf_counter()
    steps = _turan_steps(swaps, partners, memo, _turan_seed(k, n, pattern, edges))
    try:
        nodes = next(steps)
        while True:
            nodes = steps.send(budget and nodes > budget)
    except StopIteration as stop:
        best_count, best_sel, nodes, prunes = stop.value
    searched = time.perf_counter()
    extremal = Hypergraph._checked(k, n, [edges[i] for i in best_sel])
    if find_loose_path(extremal, length) is not None:
        raise RuntimeError("search produced an extremal witness containing the pattern")
    status = STATUS_LOWER_BOUND if budget and nodes > budget else STATUS_EXACT
    end = time.perf_counter()
    stats = SearchStats(nodes, prunes, end - start, 0, built - start, searched - built, end - searched)
    return TuranResult(status, best_count, extremal, stats)
