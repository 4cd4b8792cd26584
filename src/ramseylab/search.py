"""Exact decision of small Ramsey instances, Turan maximization, CNF export.

The backtracking engine and the exhaustive oracle search differently and must agree
wherever the oracle can enumerate.  Both read `_edge_bitsets`, which the tests check
against reference builds, and re-verify any witness with `find_mono_loose_path`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections import Counter
from itertools import chain, compress, cycle, islice, repeat
from math import comb
from typing import NamedTuple

from .constructions import pair_cover
from .errors import InstanceTooLargeError, check_index_guard
from .hypergraphs import Hypergraph, serialize_hypergraph
from .patterns import Coloring, find_loose_path, find_mono_loose_path, serialize_coloring

PATTERN_LOOSE_PATH_3 = "loose-path-3"
PATTERN_LOOSE_PATH_2 = "loose-path-2"

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_UNKNOWN = "unknown"

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND = "lower-bound-only"

EXHAUSTIVE_GUARD = 100_000_000
_CHUNK = 1 << 20
_SLICE = 1 << 14  # clauses per `%` call of `CnfInstance.to_dimacs`, so its temporaries stay bounded
_ENDS = bytes.maketrans(b"\1\2", b"\0\1")  # with 0 deleted: a `_copy_walk` mark byte to its selector
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

    def to_json_obj(self) -> dict:
        # Wall time is deliberately left out so identical runs serialize
        # byte-identically; read it from stats.seconds instead.
        return {
            "verdict": self.verdict,
            "witness": serialize_coloring(self.witness) if self.witness else None,
            "stats": {"nodes": self.stats.nodes, "prunes": self.stats.prunes},
        }


class TuranResult(NamedTuple):
    """Largest pattern-free edge count found, with the extremal witness."""

    status: str
    max_edges: int
    extremal: Hypergraph
    stats: SearchStats

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "max_edges": self.max_edges,
            "extremal": serialize_hypergraph(self.extremal),
            "stats": {"nodes": self.stats.nodes, "prunes": self.stats.prunes},
        }


def _pattern_length(pattern: str) -> int:
    if pattern == PATTERN_LOOSE_PATH_3:
        return 3
    if pattern == PATTERN_LOOSE_PATH_2:
        return 2
    raise ValueError(f"unknown pattern {pattern!r}")


def enumerate_loose_paths(
    n: int, k: int, length: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Every copy of the loose path pattern in the complete k-graph, once each.

    Copies are reversal-deduplicated (first edge below last edge) and listed
    in lex order of their ordered edge tuples, as `_copy_walk` visits them;
    past INDEX_GUARD copies the call raises InstanceTooLargeError.
    """
    if n < 1 or k < 2:
        raise ValueError(f"need n >= 1 and k >= 2, got n={n}, k={k}")
    if length not in (2, 3):
        raise ValueError(f"length must be 2 or 3, got {length}")
    count = _copy_count(n, k, length)
    check_index_guard(count, "loose-path copies")
    if not count:
        return []
    edges = list(itertools.combinations(range(n), k))
    copies = []
    for a, partners, masks, ends in _copy_walk(edges, n, length, edges):
        mids = chain.from_iterable(map(repeat, map(edges.__getitem__, partners), map(int.bit_count, masks)))
        copies += zip(repeat(edges[a]), mids, ends) if length == 3 else zip(repeat(edges[a]), ends)
    return copies


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


def _copy_walk(edges, n: int, length: int, items):
    """Yield (a, partners, masks, ends) per edge a of a K^(k)_n with copies, in `enumerate_loose_paths` order.

    At length 3 the partners are the middles b in one[a], ascending, and masks[i] has bit
    8·(t-a-1) set for each end t > a of partners[i], in one[b] & free[a]; at length 2
    the partner is a, its ends one[a] above a.  ends yields items[t] per end, partner by
    partner, ends ascending: one `compress` over the items above a in free[a] (one[a] at length 2).
    """
    m = len(edges)
    pairs = _edge_bitsets(edges, n, 8)
    if length == 3:
        one, free = zip(*pairs)
        pairs = zip(one, free)
    for a, (one_a, free_a) in enumerate(pairs):
        s = 8 * (a + 1)
        if length == 2:
            partners, masks = [a], [one_a >> s]
        else:
            partners = list(compress(range(m), one_a.to_bytes(m, "little")))
            masks = list(map((free_a >> s).__and__, map(operator.rshift, map(one.__getitem__, partners), repeat(s))))
        keep = (free_a if length == 3 else one_a) >> s  # every end above a is in it
        frame = list(compress(items[a + 1 :], keep.to_bytes(m - a - 1, "little")))
        marks = map(keep.__add__, masks)  # 2 on an end, 1 elsewhere in keep, 0 outside
        data = b"".join(map(int.to_bytes, marks, repeat(m - a - 1), repeat("little"))).translate(_ENDS, b"\0")
        yield a, partners, masks, compress(cycle(frame), data)


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


def _low_block(m: int, r: int) -> tuple[int, list[list[int]]]:
    """Prefix length h = m - L and the color bitsets eq of the last L edges.

    L is the largest count (at most m) with r^L <= _CHUNK.  Bit j of eq[e][c]
    is set when low edge e (edge h + e) has color c (0-based) in the j-th low
    coloring in lexicographic order, so prefix coloring p followed by low
    coloring j is coloring p * r^L + j overall.
    """
    low = 0
    while low < m and r ** (low + 1) <= _CHUNK:
        low += 1
    full = (1 << r**low) - 1
    eq = []
    for e in range(low):
        width = r ** (low - 1 - e)  # run of one color; the runs cycle through 0..r-1
        x, period = (1 << width) - 1, r * width
        while period < r**low:
            x |= x << period
            period *= 2
        eq.append([x << c * width & full for c in range(r)])
    return m - low, eq


def exhaustive_decide(k: int, r: int, n: int) -> SearchOutcome:
    """Unpruned oracle: enumerate all r^C(n,k) colorings and test each one.

    Runs `_first_model` on `export_cnf(k, r, n)`: the lex position p of the
    first path-free coloring gives its colors as base-r digits, and
    `stats.nodes` is p + 1 (r^C(n,k) if none is free).  Refuses instances
    with more than 10^8 colorings before any setup.  Its search loop is its
    own, but its copies come from the DFS's bitsets (see the module docstring).
    """
    if k < 2 or r < 1 or n < k:
        raise ValueError(f"need k >= 2, r >= 1, n >= k; got k={k}, r={r}, n={n}")
    m = comb(n, k)
    total = r**m
    if total > EXHAUSTIVE_GUARD:
        raise InstanceTooLargeError(
            f"r^C(n,k) = {total} exceeds the exhaustive guard {EXHAUSTIVE_GUARD}"
        )
    start = time.perf_counter()
    pos = _first_model(export_cnf(k, r, n))
    witness = None
    if pos is not None:
        witness = Coloring._checked(k, n, r, [pos // r ** (m - 1 - i) % r + 1 for i in range(m)])
        if find_mono_loose_path(witness, 3) is not None:
            raise RuntimeError("exhaustive enumeration produced an invalid witness")
    verdict = VERDICT_HOLDS if witness is None else VERDICT_FAILS
    nodes = total if pos is None else pos + 1
    return SearchOutcome(verdict, witness, SearchStats(nodes, 0, time.perf_counter() - start))


def _turan_seed(k: int, n: int, pattern: str, edges: list[tuple[int, ...]]) -> list[int]:
    """Indexes of a known pattern-free hypergraph to prime the search bound."""
    if pattern == PATTERN_LOOSE_PATH_3:
        return [i for i, e in enumerate(edges) if 0 in e]
    index = {e: i for i, e in enumerate(edges)}
    if k >= 3:
        return sorted(index[e] for e in pair_cover(n, k).edges)
    return [index[(v, v + 1)] for v in range(0, n - 1, 2)]


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


class CnfInstance(NamedTuple):
    """Propositional encoding of "some r-coloring avoids monochromatic paths".

    Variables x_(e,c) say edge e has color c.  Clauses: at least one color
    per edge, plus one all-negative clause per (path copy, color).  At most
    one color per edge is intentionally omitted: any satisfying assignment
    projects to a coloring by keeping each edge's smallest true color, and
    the projection cannot violate a negative clause.
    """

    k: int
    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]
    clauses: tuple[tuple[int, ...], ...]
    path_count: int

    @property
    def num_vars(self) -> int:
        return len(self.edges) * self.r

    def to_dimacs(self) -> str:
        """DIMACS text; each run of equal-length clauses is written by one `%` call per _SLICE clauses."""
        text = [f"c loose-3-path ramsey coloring instance k={self.k} n={self.n} r={self.r}\n"]
        for i, e in enumerate(self.edges):
            for c in range(1, self.r + 1):
                text.append(f"c var {i * self.r + c} = edge {' '.join(map(str, e))} color {c}\n")
        text.append(f"p cnf {self.num_vars} {len(self.clauses)}\n")
        for size, group in itertools.groupby(self.clauses, len):
            line = " ".join(["%d"] * size) + " 0\n"
            while run := tuple(itertools.islice(group, _SLICE)):
                text.append(line * len(run) % tuple(itertools.chain.from_iterable(run)))
        return "".join(text)


def export_cnf(k: int, r: int, n: int) -> CnfInstance:
    """Build the CNF whose satisfiability means n is below the Ramsey number.

    r·(C(n,k) + copies), the at-least-one literals plus the copy clauses, is
    checked against INDEX_GUARD before anything is allocated.  Each copy
    (a, b, t) of `_copy_walk`, sorted to (b, a, t) when b < a and otherwise
    to (a, min(b, t), max(b, t)), gives one clause per color c of the
    literals -(e*r + c); the clauses share one int per literal.
    """
    if k < 2 or r < 1 or n < k:
        raise ValueError(f"need k >= 2, r >= 1, n >= k; got k={k}, r={r}, n={n}")
    count = _copy_count(n, k, 3)
    check_index_guard(r * (comb(n, k) + count), "r·(C(n,k) + copies) entries")
    edges = tuple(itertools.combinations(range(n), k))
    neg = [tuple(range(-e * r - 1, -e * r - r - 1, -1)) for e in range(len(edges))]  # neg[e][c - 1] is -(e*r + c)
    clauses = [tuple(range(i * r + 1, i * r + r + 1)) for i in range(len(edges))]
    flat = chain.from_iterable
    for a, partners, masks, ends in _copy_walk(edges, n, 3, neg) if count else ():
        # Partner b's ends t > b close (min(a, b), max(a, b), t), those below it (a, t, b):
        # columns 1 and 2 take the literals of `ends` in turn, so zip keeps their order.
        total = list(map(int.bit_count, masks))
        high = [(mask >> 8 * max(b - a - 1, 0)).bit_count() for b, mask in zip(partners, masks)]
        low = list(map(operator.sub, total, high))
        mid = [neg[max(a, b)] for b in partners]
        clauses += zip(
            flat(map(operator.mul, map(neg.__getitem__, map(min, repeat(a), partners)), total)),
            flat(flat(zip(map(flat, map(islice, repeat(ends), low)), map(operator.mul, mid, high)))),
            flat(flat(zip(map(operator.mul, mid, low), map(flat, map(islice, repeat(ends), high))))),
        )
    return CnfInstance(k, n, r, edges, tuple(clauses), count)


def cnf_satisfiable(instance: CnfInstance) -> bool:
    """Decide satisfiability by enumerating colorings and evaluating clauses (`_first_model`)."""
    return _first_model(instance) is not None


def _first_model(instance: CnfInstance) -> int | None:
    """Lex position of the first one-hot coloring that satisfies every clause, or None.

    Only one-hot assignments (exactly the r^m edge colorings) need checking:
    the at-least-one clauses make every satisfying assignment project onto a
    coloring whose induced one-hot assignment still satisfies every clause.
    Colorings are visited in lexicographic order as prefix colorings of the
    first edges times a block of low colorings, one bit each in the bitsets
    of `_low_block`.  A clause with all r positive literals of one edge holds
    on every coloring and is dropped first.  Every other clause folds into
    the low colorings falsifying its low literals, ORed per group of prefix
    literals; a prefix coloring falsifying a group's literals adds its mask,
    and the first low coloring left clear is the model.  Refuses instances
    with more than 10^8 colorings, and with ValueError a literal 0 or
    |lit| > r·m.
    """
    m, r = len(instance.edges), instance.r
    if r**m > EXHAUSTIVE_GUARD:
        raise InstanceTooLargeError(f"r^m = {r**m} exceeds the exhaustive guard {EXHAUSTIVE_GUARD}")
    v = instance.num_vars
    stray = {lit for clause in instance.clauses for lit in clause}.difference(range(-v, 0), range(1, v + 1))
    if stray:
        raise ValueError(f"literals must be nonzero with |lit| <= {v}, got {sorted(stray)}")
    clauses = [c for c in instance.clauses
               if max(c, default=0) < 0 or r not in Counter((lit - 1) // r for lit in set(c) if lit > 0).values()]
    h, eq = _low_block(m, r) if clauses else (m, [])  # no clause left: the first coloring is a model
    full = (1 << r ** (m - h)) - 1
    bad_low = 0
    groups: dict[tuple[tuple[int, int, bool], ...], int] = {}
    for clause in clauses:
        high, low = [], []
        for lit in clause:
            e, c = divmod(abs(lit) - 1, r)
            if e < h:
                high.append((e, c, lit > 0))
            else:
                low.append(eq[e - h][c] if lit < 0 else full ^ eq[e - h][c])
        bad = functools.reduce(operator.and_, low) if low else full
        if high:
            groups[tuple(high)] = groups.get(tuple(high), 0) | bad
        else:
            bad_low |= bad
            if bad_low == full:
                return None  # every coloring falsifies a clause inside the low block
    for i, prefix in enumerate(itertools.product(range(r), repeat=h)):
        bad = bad_low
        for high, mask in groups.items():
            if all((prefix[e] == c) != positive for e, c, positive in high):
                bad |= mask
        if bad != full:
            return i * full.bit_length() + (~bad & bad + 1).bit_length() - 1
    return None
