"""CNF export, the copy list and the exhaustive oracle, which no engine reads.

`_copy_walk` walks the copies of the loose path from `search._edge_bitsets`;
`exhaustive_decide` and `cnf_satisfiable` share `_first_model`, which searches
apart from the DFS and must agree with it wherever it can enumerate.
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

from .errors import InstanceTooLargeError, check_index_guard
from .patterns import Coloring, find_mono_loose_path
from .search import VERDICT_FAILS, VERDICT_HOLDS, SearchOutcome, SearchStats, _copy_count, _edge_bitsets

EXHAUSTIVE_GUARD = 100_000_000
_CHUNK = 1 << 20
_SLICE = 1 << 14  # clauses per `%` call of `CnfInstance.to_dimacs`, so its temporaries stay bounded
_ENDS = bytes.maketrans(b"\1\2", b"\0\1")  # with 0 deleted: a `_copy_walk` mark byte to its selector


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
