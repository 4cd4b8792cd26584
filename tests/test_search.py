import functools
import hashlib
import itertools
import json
import operator
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ramseylab import (
    CnfInstance,
    Coloring,
    Hypergraph,
    InstanceTooLargeError,
    cnf_satisfiable,
    complete_hypergraph,
    decide_ramsey,
    enumerate_loose_paths,
    exhaustive_decide,
    export_cnf,
    find_loose_path,
    find_mono_loose_path,
    pair_cover,
    serialize_coloring,
    serialize_hypergraph,
    turan_max_edges,
)
from ramseylab import cli, cnf, errors, search
from ramseylab.search import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_UNKNOWN
from conftest import oracle_has_loose_path
from test_acceptance import ORACLE_INSTANCES
from test_result_types import untimed


def oracle_count_paths(n, k, length):
    """Count pattern copies definitionally over all edge subsets of the size."""
    edges = list(itertools.combinations(range(n), k))
    if length == 2:
        return sum(
            1 for a, b in itertools.combinations(edges, 2) if len(set(a) & set(b)) == 1
        )
    count = 0
    for trio in itertools.combinations(edges, 3):
        for mid in range(3):
            e2 = trio[mid]
            e1, e3 = (trio[i] for i in range(3) if i != mid)
            if (
                len(set(e1) & set(e2)) == 1
                and len(set(e2) & set(e3)) == 1
                and not set(e1) & set(e3)
            ):
                count += 1
                break  # the middle edge of a copy is unique
    return count


def test_enumerate_counts():
    assert len(enumerate_loose_paths(4, 2, 3)) == 12
    assert len(enumerate_loose_paths(7, 3, 3)) == 630
    assert len(enumerate_loose_paths(5, 3, 2)) == 15


def test_enumerate_matches_oracle():
    for n, k, length in [(4, 2, 3), (5, 2, 3), (7, 3, 3), (5, 3, 2), (6, 2, 2)]:
        assert len(enumerate_loose_paths(n, k, length)) == oracle_count_paths(n, k, length)


def test_enumerate_no_duplicates_and_valid():
    copies = enumerate_loose_paths(6, 2, 3)
    assert len({frozenset(c) for c in copies}) == len(copies)
    for e1, e2, e3 in copies:
        assert len(set(e1) & set(e2)) == 1
        assert len(set(e2) & set(e3)) == 1
        assert not set(e1) & set(e3)
        assert e1 < e3  # reversal-deduplicated


def test_enumerate_canonical_order():
    copies = enumerate_loose_paths(5, 2, 3)
    assert copies == sorted(copies)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerate_counts_closed_form(k):
    for n in range(k, 3 * k + 1):
        paths3 = 0
        if n >= 2 * k - 1:
            paths3 = comb(n, k) * k * (k - 1) // 2 * comb(n - k, k - 1) * comb(n - 2 * k + 1, k - 1)
        assert len(enumerate_loose_paths(n, k, 3)) == paths3
        assert len(enumerate_loose_paths(n, k, 2)) == comb(n, k) * k * comb(n - k, k - 1) // 2


def edge_meets(edges):
    """|e ∩ f| for every pair of edges, from the product of the incidence matrix with itself."""
    inc = np.zeros((len(edges), edges[-1][-1] + 1), dtype=np.int32)
    np.put_along_axis(inc, np.array(edges), 1, axis=1)
    return inc @ inc.T


def reference_index_columns(edges, length):
    """Reference walk by definition: the columns of the ordered index tuples, lex, reversal-deduped.

    A length-2 copy (i, j) has |e_i ∩ e_j| = 1 and i < j; a length-3 copy
    (i, j, t) has |e_i ∩ e_j| = |e_j ∩ e_t| = 1, e_i ∩ e_t empty and i < t.
    """
    meets = edge_meets(edges)
    one = meets == 1
    if length == 2:
        return [col.tolist() for col in np.nonzero(np.triu(one, 1))]
    rows = [[], [], []]
    for i in range(len(edges)):
        mids = np.flatnonzero(one[i])
        j, t = np.nonzero(one[mids, i + 1 :] & (meets[i, i + 1 :] == 0))
        for col, part in zip(rows, (np.full(len(t), i), mids[j], t + i + 1)):
            col.append(part)
    return [np.concatenate(col).tolist() for col in rows]


def reference_closing_rows(edges, length):
    """close[b] maps a <= b to the mask of the edges x > b that close a copy, by definition.

    For length 2 the copy is {b, x}, with b its own partner; for length 3 it
    is {a, b, x} with a < b, where one pair of the three edges is disjoint
    and the other two pairs meet in one vertex.
    """
    meets = edge_meets(edges)
    one, free = meets == 1, meets == 0
    close = [{} for _ in edges]
    for b in range(len(edges)):
        bx1, bx0 = one[b, b + 1 :], free[b, b + 1 :]
        if length == 2:
            hits = bx1[None]
        else:
            ab1, ab0 = one[:b, b, None], free[:b, b, None]
            ax1, ax0 = one[:b, b + 1 :], free[:b, b + 1 :]
            hits = ab1 & bx1 & ax0 | ab1 & ax1 & bx0 | ab0 & bx1 & ax1
        for a in np.flatnonzero(hits.any(axis=1)).tolist():
            bits = np.packbits(hits[a], bitorder="little").tobytes()
            close[b][b if length == 2 else a] = int.from_bytes(bits, "little") << b + 1
    return close


def check_folds(partners, memo, rows, rng, draws=4):
    """The memo folds drawn partner sets of each edge, whatever else is set, to the OR of the reference row's masks.

    rows[d] maps each partner p of edge d with a nonzero mask to that mask;
    partners[d] may add partners whose mask is empty.  The memo keeps each
    result under the key it was asked for, the set x | 2 << d.
    """
    m = len(rows)
    for d, (bits, row) in enumerate(zip(partners, rows)):
        assert sum(1 << p for p in row) & ~bits == 0, d
        for _ in range(draws):
            x = rng.getrandbits(m) if m else 0
            expected = functools.reduce(operator.or_, (mask for p, mask in row.items() if x >> p & 1), 0)
            assert memo[x & bits | 2 << d] == expected, (d, x)
            assert dict.get(memo, x & bits | 2 << d) == expected, (d, x)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_index_matches_reference_walk(k, rng):
    # The partners of edge d are the earlier edges meeting it in at most one
    # vertex (d itself at length 2), and none when K^(k)_n holds no copy.
    for n in range(k, 3 * k + 1):
        edges = list(itertools.combinations(range(n), k))
        meets = edge_meets(edges)
        for length in (2, 3):
            cols = reference_index_columns(edges, length)
            expected = list(zip(*([edges[i] for i in col] for col in cols)))
            assert enumerate_loose_paths(n, k, length) == expected, (n, length)
            _, got, memo, _ = search._tables(n, k, length)
            partners = [sum(1 << p for p in range(d) if meets[p, d] <= 1) if length == 3 else 1 << d
                        for d in range(len(edges))]
            assert got == (partners if expected else [0] * len(edges)), (n, length)
            check_folds(got, memo, reference_closing_rows(edges, length), rng)


def pair_rows(n, k, length):
    """The rows of `reference_lexsort_closing_table` as (p, mask) lists, partners ascending."""
    return [[(b.bit_length() - 1, mask) for b, mask in row.items()] for row in reference_lexsort_closing_table(n, k, length)]


def edge_ranks(n, k, vertices):
    """Lex ranks of the k-sets along the last axis: C(n,k)-1-Σ C(n-1-v_i, k-i), v sorted."""
    lex = np.array([[comb(n - 1 - v, k - i) for v in range(n)] for i in range(k)])
    return comb(n, k) - 1 - lex[np.arange(k), np.sort(vertices, axis=-1)].sum(axis=-1)


def reference_lexsort_index(n, k, length):
    """The numpy copy index: the column stack of every copy's edge ranks, gathered by np.lexsort."""
    m = comb(n, k)
    dtype = np.int16 if m <= np.iinfo(np.int16).max else np.int32
    count = comb(n, k) * k * comb(max(n - k, 0), k - 1) // 2
    if length == 3:
        count *= (k - 1) * comb(max(n - 2 * k + 1, 0), k - 1)
    if not count:
        return np.empty((0, length), dtype=dtype)
    edges = list(itertools.combinations(range(n), k))
    rest = np.array([sorted(set(range(n)).difference(e)) for e in edges])
    local = np.array(list(itertools.combinations(range(n - k), k - 1)))
    ends = np.empty((m, k, len(local), k), dtype=np.intp)
    ends[..., 0] = np.array(edges)[:, :, None]
    ends[..., 1:] = rest[:, None, local]
    ends = edge_ranks(n, k, ends).astype(dtype)
    if length == 2:
        mid = np.broadcast_to(np.arange(m, dtype=dtype)[:, None, None], ends.shape)
        cols = (mid[mid < ends], ends[mid < ends])
    else:
        a, b = np.array(list(itertools.combinations(range(k), 2))).T
        p, q = np.nonzero([[set(u).isdisjoint(w) for w in local.tolist()] for u in local.tolist()])
        first, last = ends[:, a[:, None], p], ends[:, b[:, None], q]
        mid = np.repeat(np.arange(m, dtype=dtype), first[0].size)
        cols = (np.minimum(first, last).ravel(), mid, np.maximum(first, last).ravel())
    return np.stack(cols, axis=1)[np.lexsort(cols[::-1])]


def reference_lexsort_closing_table(n, k, length):
    """The closing rows as built before the packed sort: lexsort, bitwise_or.at, one append per group."""
    m = comb(n, k)
    i, j, t = reference_lexsort_index(n, k, length)[:, [0, length - 2, length - 1]].T
    a, b, x = np.minimum(i, j), np.maximum(i, np.minimum(j, t)), np.maximum(j, t)
    order = np.lexsort((a, b))
    a, b, x = a[order], b[order], x[order]
    new = np.diff(b.astype(np.int64) * m + a, prepend=-1) != 0
    words = np.zeros((np.count_nonzero(new), (m + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(words, (np.cumsum(new) - 1, x // 64), np.uint64(1) << (x % 64).astype(np.uint64))
    close = [{} for _ in range(m)]
    raw, size = words.tobytes(), words.shape[1] * 8
    for g, (p, d) in enumerate(zip(a[new].tolist(), b[new].tolist())):
        close[d][1 << p] = int.from_bytes(raw[g * size : (g + 1) * size], "little")
    return close


def walk_rows(n, k, length):
    """The copies `cnf._copy_walk` visits, as rows of edge ranks; checks each ends stream on the way.

    Item t is (t,), so the ends of a partner must come one item per set
    mask bit, ends ascending.
    """
    edges = list(itertools.combinations(range(n), k))
    rows = []
    for a, partners, masks, ends in cnf._copy_walk(edges, n, length, [(t,) for t in range(len(edges))]):
        ends = iter(t for t, in ends)
        for b, mask in zip(partners, masks):
            ts = list(itertools.islice(ends, mask.bit_count()))
            assert mask == sum(1 << 8 * (t - a - 1) for t in ts) and ts == sorted(ts), (a, b)
            rows += [(a, t) if length == 2 else (a, b, t) for t in ts]
        assert next(ends, None) is None
    return rows


@pytest.mark.parametrize(
    "n, k, length",
    [(12, 3, 3), (12, 3, 2), (10, 4, 3), (9, 4, 3), (11, 4, 3), (13, 5, 3), (8, 2, 3), (9, 2, 2), (3, 2, 3), (4, 3, 2)],
)
def test_tables_match_lexsort_builds(n, k, length, rng):
    # (9,4,3), (3,2,3) and (4,3,2) hold no copy (a loose 3-path needs 3k-2
    # vertices, a loose 2-path 2k-1); the walk then finds no end.
    expected = [tuple(row) for row in reference_lexsort_index(n, k, length).tolist()]
    assert walk_rows(n, k, length) == expected
    rows = reference_lexsort_closing_table(n, k, length)
    check_folds(*search._tables(n, k, length)[1:3], [{b.bit_length() - 1: mask for b, mask in row.items()} for row in rows], rng)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(st.integers(k, 3 * k + 1), st.just(k))),
       st.sampled_from([2, 3]))
def test_walk_matches_lexsort_index(case, length):
    # Every copy once, in the numpy index's order.
    n, k = case
    if search._copy_count(n, k, length) > 30000:
        return
    expected = [tuple(row) for row in reference_lexsort_index(n, k, length).tolist()]
    assert walk_rows(n, k, length) == expected


def test_export_cnf_matches_reference_walk():
    # (3,2,6) holds no copy, so only the at-least-one clauses are left.
    for k, r, n in [(3, 1, 7), (3, 2, 7), (3, 3, 7), (2, 3, 6), (3, 2, 6)]:
        edges = tuple(itertools.combinations(range(n), k))
        triples = [sorted(t) for t in zip(*reference_index_columns(edges, 3))]
        clauses = [tuple(i * r + c for c in range(1, r + 1)) for i in range(len(edges))]
        clauses += [tuple(-(e * r + c) for e in t) for t in triples for c in range(1, r + 1)]
        expected = CnfInstance(k, n, r, edges, tuple(clauses), len(triples))
        assert export_cnf(k, r, n) == expected, (k, r, n)
        assert export_cnf(k, r, n).to_dimacs() == reference_dimacs(expected), (k, r, n)


def reference_dimacs(inst):
    """Per-line reference for `CnfInstance.to_dimacs`: one join per variable comment and per clause."""
    lines = [f"c loose-3-path ramsey coloring instance k={inst.k} n={inst.n} r={inst.r}"]
    for i, e in enumerate(inst.edges):
        for c in range(1, inst.r + 1):
            lines.append(f"c var {i * inst.r + c} = edge {' '.join(map(str, e))} color {c}")
    lines.append(f"p cnf {inst.num_vars} {len(inst.clauses)}")
    for clause in inst.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


@st.composite
def cnf_instances(draw):
    k, r = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(k, 5))
    edges = tuple(itertools.combinations(range(n), k))
    v = len(edges) * r
    literal = st.integers(1, v).flatmap(lambda x: st.sampled_from([x, -x]))
    clauses = draw(st.lists(st.lists(literal, max_size=4).map(tuple), max_size=30))
    return CnfInstance(k, n, r, edges, tuple(clauses), 0)


@settings(max_examples=60, deadline=None, database=None)
@given(cnf_instances())
@example(CnfInstance(2, 3, 2, ((0, 1), (0, 2), (1, 2)), ((), (1,), (-2,), (), (3, -4, 5, -6), (1,)), 0))
@example(CnfInstance(2, 2, 1, ((0, 1),), (), 0))
def test_dimacs_matches_reference_writer(inst):
    # Runs of equal-length clauses, of lengths 0 to 4 in any order, each
    # written by one `%` call, give the text of the per-line writer.
    assert inst.to_dimacs() == reference_dimacs(inst)


def test_dimacs_pinned():
    # sha256 of the DIMACS text of (3,2,10): 120 edges, 151,895 clauses.
    text = export_cnf(3, 2, 10).to_dimacs()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0ae65b8b74f8fb875a48370b032dceeb45095cd3202327a68ad884dca4427f15"
    )


@pytest.mark.parametrize("size", [1, 7, 997])
def test_export_cnf_slices_match_default(monkeypatch, size):
    # Only `to_dimacs` reads _SLICE, so no slice size may change its text.  (3,2,6)
    # holds no copy; (2,3,6) writes its positive and negative clauses as one run.
    # Size 1 skips the 75,600 copies of (3,2,10).
    cases = [(3, 2, 10), (2, 3, 6), (3, 1, 7), (3, 2, 6)]
    cases = [(k, r, n) for k, r, n in cases if size > 1 or search._copy_count(n, k, 3) < 30000]
    instances = {case: export_cnf(*case) for case in cases}
    texts = {case: inst.to_dimacs() for case, inst in instances.items()}
    monkeypatch.setattr(cnf, "_SLICE", size)
    for case, inst in instances.items():
        assert inst.to_dimacs() == texts[case], case


def test_export_cnf_memory_follows_output():
    # (3,2,10) keeps its 151,895 clauses in under 16 MiB and peaks under
    # 20 MiB, its walk included: every clause shares one int object per literal.
    tracemalloc.start()
    try:
        inst = export_cnf(3, 2, 10)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 16 << 20
    assert peak < 20 << 20
    assert len({id(lit) for clause in inst.clauses for lit in clause}) <= 2 * 2 * comb(10, 3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_swaps(k):
    for n in range(k, 3 * k + 1):
        edges = list(itertools.combinations(range(n), k))
        rank = {e: i for i, e in enumerate(edges)}
        swaps = search._vertex_swaps(n, k)
        assert search._vertex_swaps(n, k) is swaps
        assert isinstance(swaps, tuple) and len(swaps) == n - 1
        for i, row in enumerate(swaps):
            assert isinstance(row, tuple) and row[-1] == len(edges), (n, i)
            row = list(row[:-1])
            image = {i: i + 1, i + 1: i}
            assert row == [rank[tuple(sorted(image.get(v, v) for v in e))] for e in edges], (n, i)
            assert [row[x] for x in row] == list(range(len(edges))), (n, i)
            for e, x in zip(edges, row):
                if (i in e) == (i + 1 in e):
                    assert x == rank[e], (n, i, e)


@functools.lru_cache(maxsize=None)
def cached_reference_rows(n, k, length):
    return [{b.bit_length() - 1: mask for b, mask in row.items()} for row in reference_lexsort_closing_table(n, k, length)]


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([(k, length) for k in (2, 3, 4) for length in (2, 3)]), st.data())
def test_fold_matches_partner_scan(case, data):
    # Both engines read `memo[chosen & partners[d] | 2 << d]`; it must equal
    # the OR of the reference masks of the partners in the chosen set.
    k, length = case
    n = data.draw(st.integers(k, 3 * k), label="n")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    check_folds(*search._tables(n, k, length)[1:3], cached_reference_rows(n, k, length), rng, draws=2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: decide_ramsey(3, 2, 40, budget=10),
        lambda: turan_max_edges(2, 90, "loose-path-2", budget=10),
        lambda: enumerate_loose_paths(20, 3, 3),
        lambda: decide_ramsey(12, 2, 20, budget=10),
        lambda: turan_max_edges(12, 20, "loose-path-3", budget=10),
    ],
)
def test_index_guard_fails_fast(call):
    # 9880^2 or 4005^2 edge pairs for the engines' bitsets, 48.8M copies for
    # the copy list, or no copies but a 28.7M-entry vertex-swap table: the
    # closed forms refuse them before anything is built.
    start = time.perf_counter()
    with pytest.raises(InstanceTooLargeError):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k, r, n", [(3, 2, 20), (2, 2, 60)])
def test_budgeted_decide_builds_nothing_per_copy(k, r, n):
    # 48.8M and 5.9M copies, but 1140^2 and 1770^2 edge pairs: the engines
    # build two bitsets per edge and nothing per copy, so a budget of 10 ends fast.
    start = time.perf_counter()
    outcome = decide_ramsey(k, r, n, budget=10)
    assert time.perf_counter() - start < 1.0
    assert (outcome.verdict, outcome.stats.nodes) == (VERDICT_UNKNOWN, 11)


def test_export_cnf_guards_clauses_before_allocating():
    # K^(2)_4 has 6 edges and 12 copies, so r = 10^11 gives r·18 = 1.8·10^12,
    # far past the guard, and the first r past it is refused as well.
    start = time.perf_counter()
    with pytest.raises(InstanceTooLargeError):
        export_cnf(2, 10**11, 4)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InstanceTooLargeError):
        export_cnf(2, errors.INDEX_GUARD // 18 + 1, 4)
    assert len(export_cnf(2, 2, 4).clauses) == 6 + 2 * 12


def test_enumerate_empty_when_too_small():
    assert enumerate_loose_paths(6, 3, 3) == []
    assert enumerate_loose_paths(4, 3, 2) == []


def test_enumerate_copy_free_allocates_no_edge_list():
    # 22 < 3k - 2 vertices hold no copy; the C(22,12) = 646646 edge tuples
    # must not be built just to return [].
    tracemalloc.start()
    try:
        assert enumerate_loose_paths(22, 12, 3) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n, k, length", [(18, 7, 3), (18, 10, 2)])
def test_tables_copy_free_build_no_bitsets(monkeypatch, n, k, length):
    # 31824 and 43758 edges, no copy: no edge has partners, and the memo
    # holds no C(n,k)-bit edge bitset, with no pass over the edge pairs.  The
    # swap rows do not depend on copies and are guarded on their own, so the
    # memory bound leaves them out.
    start = time.perf_counter()
    _, partners, memo, _ = search._tables(n, k, length)
    assert time.perf_counter() - start < 1.0
    assert len(partners) == comb(n, k) and not any(partners)
    assert not any(memo.one) and not any(memo.free)
    monkeypatch.setattr(search, "_vertex_swaps", lambda n, k: ())
    tracemalloc.start()
    try:
        search._tables(n, k, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_decide_single_color():
    assert decide_ramsey(2, 1, 4).verdict == "holds"
    outcome = decide_ramsey(2, 1, 3)
    assert outcome.verdict == "fails"
    assert find_mono_loose_path(outcome.witness, 3) is None


def test_decide_graph_case_r2():
    outcome = decide_ramsey(2, 2, 4)
    assert outcome.verdict == "fails"
    assert outcome.witness is not None
    assert sorted(outcome.witness.class_sizes().values()) == [3, 3]
    assert decide_ramsey(2, 2, 5).verdict == "holds"


def test_exhaustive_examples():
    assert exhaustive_decide(2, 2, 4).verdict == "fails"
    assert exhaustive_decide(2, 1, 3).verdict == "fails"
    assert exhaustive_decide(3, 1, 7).verdict == "holds"


def test_oracle_equivalence_small():
    for k, r, n in [(2, 1, 4), (2, 2, 4), (2, 2, 5), (2, 3, 5), (3, 1, 7), (3, 2, 5)]:
        assert decide_ramsey(k, r, n).verdict == exhaustive_decide(k, r, n).verdict


@pytest.mark.parametrize(
    "k, r, n, verdict, nodes",
    [
        (2, 3, 6, "holds", 14348907),
        (2, 2, 7, "holds", 2097152),
        (2, 3, 5, "fails", 378),
        (3, 2, 6, "fails", 1),
    ],
)
def test_exhaustive_golden(k, r, n, verdict, nodes):
    outcome = exhaustive_decide(k, r, n)
    assert (outcome.verdict, outcome.stats.nodes) == (verdict, nodes)


@pytest.mark.parametrize("k, r, n, colors", [(2, 3, 5, "1111222333"), (3, 2, 6, "1" * 20)])
def test_exhaustive_golden_witness(k, r, n, colors):
    edges = list(itertools.combinations(range(n), k))
    expected = f"{k} {n} {len(edges)} {r}\n" + "".join(
        " ".join(map(str, e)) + f" {c}\n" for e, c in zip(edges, colors)
    )
    assert serialize_coloring(exhaustive_decide(k, r, n).witness) == expected


def test_exhaustive_copy_free_skips_low_block(monkeypatch):
    # K^(3)_6 holds no copy: the all-color-1 coloring is the witness, found
    # without building the low block's bitsets.
    expected = serialize_coloring(exhaustive_decide(3, 2, 6).witness)

    def refuse(m, r):
        raise AssertionError("_low_block called on a copy-free instance")

    monkeypatch.setattr(cnf, "_low_block", refuse)
    outcome = exhaustive_decide(3, 2, 6)
    assert (outcome.verdict, outcome.stats.nodes) == (VERDICT_FAILS, 1)
    assert serialize_coloring(outcome.witness) == expected


SMALL_ORACLE_INSTANCES = [
    (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
    (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 3, 5),
    (3, 1, 7), (3, 1, 8), (3, 2, 5), (3, 2, 6),
]


def _oracle_answers(k, r, n):
    outcome = exhaustive_decide(k, r, n)
    witness = serialize_coloring(outcome.witness) if outcome.witness else None
    return outcome.verdict, witness, outcome.stats.nodes, cnf_satisfiable(export_cnf(k, r, n))


def test_oracles_independent_of_chunk(monkeypatch):
    # A small chunk splits the colorings into many prefixes with a short low
    # block; at (2,3,5) the witness then lies past the first block.
    expected = {args: _oracle_answers(*args) for args in SMALL_ORACLE_INSTANCES}
    monkeypatch.setattr(cnf, "_CHUNK", 16)
    h, eq = cnf._low_block(10, 3)
    assert (h, len(eq)) == (8, 2) and all(row[0] | row[1] | row[2] == (1 << 9) - 1 for row in eq)
    for args in SMALL_ORACLE_INSTANCES:
        assert _oracle_answers(*args) == expected[args], args


@pytest.mark.parametrize("chunk", [None, 1, 16])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_low_block_matches_digits(monkeypatch, chunk, r):
    # Bit j of eq[e][c] is set exactly when digit e (most significant first)
    # of j written in base r is c; chunk 1 and r = 1 leave no low colorings
    # beyond the single empty or all-zero one.
    if chunk:
        monkeypatch.setattr(cnf, "_CHUNK", chunk)
    for m in range(9):
        h, eq = cnf._low_block(m, r)
        low = m - h
        assert len(eq) == low and r**low <= cnf._CHUNK and (low == m or r ** (low + 1) > cnf._CHUNK)
        for e, row in enumerate(eq):
            digits = [j // r ** (low - 1 - e) % r for j in range(r**low)]
            expected = ["".join("1" if d == c else "0" for d in digits) for c in range(r)]
            assert [format(bits, f"0{r**low}b")[::-1] for bits in row] == expected


def brute_force_first_free(k, r, n):
    """1-based position and colors of the first path-free coloring, by definition."""
    edges = list(itertools.combinations(range(n), k))
    colorings = itertools.product(range(1, r + 1), repeat=len(edges))
    for pos, colors in enumerate(colorings, 1):
        classes = [[e for e, c in zip(edges, colors) if c == color] for color in range(1, r + 1)]
        if not any(oracle_has_loose_path(Hypergraph(k, n, cls), 3) for cls in classes):
            return pos, dict(zip(edges, colors))
    return r ** len(edges), None


@pytest.mark.parametrize(
    "k, r, n",
    [
        (2, 1, 3), (2, 1, 5), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 4), (2, 4, 4),
        (3, 1, 7), (3, 2, 4), (3, 2, 5), (3, 3, 4), (4, 2, 5),
    ],
)
@pytest.mark.parametrize("chunk", [None, 1])
def test_exhaustive_matches_brute_force(monkeypatch, chunk, k, r, n):
    # chunk 1 leaves the low block empty, so every triple and clause is
    # resolved against the prefix alone.
    assert r ** comb(n, k) <= 4096
    if chunk:
        monkeypatch.setattr(cnf, "_CHUNK", chunk)
    pos, colors = brute_force_first_free(k, r, n)
    outcome = exhaustive_decide(k, r, n)
    assert outcome.stats.nodes == pos
    assert outcome.verdict == ("holds" if colors is None else "fails")
    assert (dict(outcome.witness.items()) if outcome.witness else None) == colors
    assert cnf_satisfiable(export_cnf(k, r, n)) == (colors is not None)


def _subset_checker(rows, edges):
    """Stand-in for find_mono_loose_path that knows only the given copies."""

    def find(coloring, length):
        color_of = dict(coloring.items())
        for row in rows:
            colors = {color_of[edges[i]] for i in row}
            if len(colors) == 1:
                return colors.pop(), row
        return None

    return find


def subset_walk(rows):
    """Stand-in for `cnf._copy_walk` at length 3 that walks only the given (a, b, t) rows, in their order."""

    def walk(edges, n, length, items):
        for a in range(len(edges)):
            mine = [(b, t) for i, b, t in rows if i == a]
            partners = sorted({b for b, _ in mine})
            masks = [sum(1 << 8 * (t - a - 1) for j, t in mine if j == b) for b in partners]
            yield a, partners, masks, iter([items[t] for _, t in mine])

    return walk


@pytest.mark.parametrize("chunk", [None, 16])
def test_exhaustive_on_copy_subsets(monkeypatch, rng, chunk):
    # On complete hosts the first path-free coloring barely depends on the
    # per-prefix masks; random subsets of the copies move it, so a dropped or
    # misfiled mask changes the verdict, the witness or the count.
    # Each instance's copies are walked before any walk is patched.
    if chunk:
        monkeypatch.setattr(cnf, "_CHUNK", chunk)
    cases = [(2, 2, 4), (2, 2, 5), (2, 3, 4), (2, 4, 4)]
    fulls = {(k, n): walk_rows(n, k, 3) for k, _, n in cases}
    for k, r, n in cases:
        edges = list(itertools.combinations(range(n), k))
        full = fulls[k, n]
        assert len(full) == oracle_count_paths(n, k, 3)
        for _ in range(25):
            keep = sorted(rng.sample(range(len(full)), rng.randint(1, len(full))))
            rows = [full[i] for i in keep]
            monkeypatch.setattr(cnf, "_copy_walk", subset_walk(rows))
            monkeypatch.setattr(cnf, "find_mono_loose_path", _subset_checker(rows, edges))
            expected_pos, expected = r ** len(edges), None
            for pos, colors in enumerate(itertools.product(range(1, r + 1), repeat=len(edges)), 1):
                if all(len({colors[i] for i in row}) > 1 for row in rows):
                    expected_pos, expected = pos, dict(zip(edges, colors))
                    break
            outcome = exhaustive_decide(k, r, n)
            assert outcome.verdict == ("holds" if expected is None else "fails")
            assert (dict(outcome.witness.items()) if outcome.witness else None) == expected
            assert outcome.stats.nodes == expected_pos


def test_exhaustive_guard():
    with pytest.raises(InstanceTooLargeError):
        exhaustive_decide(2, 2, 8)  # 2^28 colorings
    with pytest.raises(InstanceTooLargeError):
        exhaustive_decide(2, 3, 7)  # 3^21 colorings


def test_monotonicity_in_n():
    # once the verdict holds it keeps holding on more vertices
    held = False
    for n in range(4, 8):
        verdict = decide_ramsey(2, 2, n).verdict
        if held:
            assert verdict == "holds"
        held = held or verdict == "holds"
    assert held


def test_budget_exhaustion_is_unknown():
    outcome = decide_ramsey(2, 3, 6, budget=10)
    assert outcome.verdict == "unknown"
    assert outcome.witness is None
    assert outcome.stats.nodes >= 10


def reference_canonical_dfs(m, r, close, budget):
    """Backtracking over edges in lex order with color-symmetry breaking.

    An edge may take color c only if colors 1..c-1 already appear earlier
    (so each color class pattern-freeness is tested once per color orbit).
    colors[d] is the color assigned or last tried at depth d.  threat[c]
    holds the edges that would close a monochromatic copy in color c, and
    saved[d] is threat[colors[d]] before edge d took its color.
    Returns (result, colors, nodes, prunes) where result is a verdict string
    and colors is the first completed assignment when the verdict is fails.
    """
    colors = [0] * m
    used = [0] * (m + 1)
    threat = [0] * (r + 1)
    saved = [0] * m
    bits = [1 << d for d in range(m)]
    d = 0
    nodes = prunes = 0
    while True:
        limit = used[d] + 1
        if limit > r:
            limit = r
        c = colors[d] + 1
        if c > limit:
            colors[d] = 0
            d -= 1
            if d < 0:
                return VERDICT_HOLDS, None, nodes, prunes
            threat[colors[d]] = saved[d]
            continue
        colors[d] = c
        nodes += 1
        if budget and nodes > budget:
            return VERDICT_UNKNOWN, None, nodes, prunes
        t = threat[c]
        if t & bits[d]:
            prunes += 1
            continue
        saved[d] = t
        for p, mask in close[d]:
            if colors[p] == c:
                t |= mask
        threat[c] = t
        used[d + 1] = c if c > used[d] else used[d]
        d += 1
        if d == m:
            return VERDICT_FAILS, list(colors), nodes, prunes


def reference_decide(k, r, n, budget=0):
    """(verdict, nodes, prunes, serialized witness) of the color-precedence-only engine."""
    edges = list(itertools.combinations(range(n), k))
    verdict, colors, nodes, prunes = reference_canonical_dfs(len(edges), r, pair_rows(n, k, 3), budget)
    witness = serialize_coloring(Coloring(k, n, r, dict(zip(edges, colors)))) if colors else None
    return verdict, nodes, prunes, witness


def uncapped_decide(k, r, n, budget=0):
    """(verdict, nodes, prunes, max_depth, witness colors) of the DFS without the class cap.

    No Turán search is stepped, so the tree is the one forward checking and
    the lex-leader test alone leave.
    """
    swaps, partners, memo, _ = search._tables(n, k, 3)
    verdict, colors, nodes, prunes, depth, cap = search._run_canonical_dfs(r, swaps, partners, memo, budget)
    assert cap == 0
    return verdict, nodes, prunes, depth, colors


def serialized_witness(k, r, n, colors):
    edges = itertools.combinations(range(n), k)
    return serialize_coloring(Coloring(k, n, r, dict(zip(edges, colors)))) if colors else None


@pytest.mark.parametrize(
    "k, r, n, budget, verdict, nodes, prunes",
    [
        (2, 3, 8, 0, "holds", 48453, 32300),
        (2, 4, 8, 0, "fails", 1001377, 750990),
        (3, 3, 9, 300000, "unknown", 300001, 199977),
    ],
)
def test_decide_golden_tree(k, r, n, budget, verdict, nodes, prunes):
    # The search must visit the same tree node for node, whatever the kernel.
    assert reference_decide(k, r, n, budget=budget)[:3] == (verdict, nodes, prunes)


@pytest.mark.parametrize(
    "k, r, n, budget, verdict, nodes, prunes, max_depth",
    [
        (2, 3, 8, 0, "holds", 405, 268, 14),
        (2, 4, 8, 0, "fails", 10249, 7665, 27),
        (3, 3, 9, 300000, "unknown", 300001, 199980, 54),
        (3, 2, 8, 0, "holds", 407, 204, 26),
        (2, 4, 9, 0, "fails", 22398, 16770, 35),
    ],
)
def test_decide_pruned_golden_tree(k, r, n, budget, verdict, nodes, prunes, max_depth):
    assert uncapped_decide(k, r, n, budget)[:4] == (verdict, nodes, prunes, max_depth)


@pytest.mark.parametrize(
    "k, r, n, budget, verdict, nodes, prunes, max_depth, class_cap",
    [
        (3, 3, 9, 300000, "holds", 10041, 6685, 54, 28),
        (2, 4, 10, 0, "holds", 783, 581, 25, 9),
        (4, 2, 10, 0, "fails", 336, 126, 209, 0),  # ex_4(10) is not reached in 336 steps
        (2, 4, 9, 0, "fails", 2905, 2157, 35, 9),
        (2, 3, 8, 0, "holds", 237, 156, 14, 7),
        (3, 3, 9, 1000, "unknown", 1001, 647, 54, 0),  # ex_3(9) takes 2309 Turán nodes
        # The frontier rows, each pruned by all three tests once the cap is armed.
        (3, 4, 10, 100000, "unknown", 100001, 74963, 90, 36),
        (3, 5, 11, 100000, "unknown", 100001, 79929, 135, 45),
        (2, 6, 12, 100000, "unknown", 100001, 83280, 46, 12),
        (4, 2, 11, 50000, "unknown", 50001, 24956, 148, 0),  # steps the Turán search at every node
    ],
)
def test_decide_capped_golden_tree(k, r, n, budget, verdict, nodes, prunes, max_depth, class_cap):
    # Each color class holds at most ex_k(n) edges; the cap is armed once
    # the Turán search, stepped once per attempt, has proved that value.
    outcome = decide_ramsey(k, r, n, budget=budget)
    stats = outcome.stats
    tree = (outcome.verdict, stats.nodes, stats.prunes, stats.max_depth, stats.class_cap)
    assert tree == (verdict, nodes, prunes, max_depth, class_cap)


ENGINE_GOLDEN_ROWS = [
    ("decide_ramsey", 2, 3, 8, 0, ("holds", 237, 156, 14, 7)),
    ("decide_ramsey", 3, 2, 8, 0, ("holds", 407, 204, 26, 0)),
    ("decide_ramsey", 2, 4, 8, 0, ("fails", 2544, 1890, 27, 7)),
    ("decide_ramsey", 3, 3, 9, 300000, ("holds", 10041, 6685, 54, 28)),
    ("decide_ramsey", 2, 4, 10, 10**6, ("holds", 783, 581, 25, 9)),
    ("turan_max_edges", 3, 7, "loose-path-3", 0, ("exact", 493, 241, 0, 0)),
    ("turan_max_edges", 2, 8, "loose-path-3", 0, ("exact", 232, 99, 0, 0)),
    ("turan_max_edges", 3, 8, "loose-path-3", 500000, ("exact", 1467, 734, 0, 0)),
    ("turan_max_edges", 3, 7, "loose-path-2", 0, ("exact", 97, 46, 0, 0)),
]


class RowMemo(dict):
    """The fold memo over closing rows {1 << p: mask}: x | 2 << d maps to the OR of row d's masks whose partner is in x."""

    def __init__(self, rows):
        self.rows = rows

    def __missing__(self, key):
        row = self.rows[key.bit_length() - 2]
        self[key] = folded = functools.reduce(operator.or_, (mask for b, mask in row.items() if key & b), 0)
        return folded


def reference_tables(n, k, length):
    """`search._tables` with one memo folding the rows of `reference_lexsort_closing_table`."""
    swaps = search._vertex_swaps(n, k)
    rows = reference_lexsort_closing_table(n, k, length)
    return swaps, list(map(sum, rows)), RowMemo(rows), list(itertools.combinations(range(n), k))


def tree_of(result):
    stats = result.stats
    head = result.verdict if isinstance(result, search.SearchOutcome) else result.status
    return head, stats.nodes, stats.prunes, stats.max_depth, stats.class_cap


@pytest.mark.parametrize("engine, a, b, c, budget, tree", ENGINE_GOLDEN_ROWS)
def test_engines_build_no_copy_index(monkeypatch, engine, a, b, c, budget, tree):
    # Both engines fold from edge bitsets; with the copy walk of `cnf` refused they
    # still visit the pinned tree, and their results (witness or extremal
    # included), wall times aside, match a run on a memo of the index-derived
    # closing rows.
    def refuse(*args):
        raise AssertionError("copies walked")

    def call():
        return getattr(search, engine)(a, b, c, budget=budget)

    monkeypatch.setattr(cnf, "_copy_walk", refuse)
    result = call()
    assert tree_of(result) == tree
    monkeypatch.setattr(search, "_tables", reference_tables)
    expected = call()
    assert untimed(result) == untimed(expected)
    assert tree_of(expected) == tree


@pytest.mark.parametrize("engine, a, b, c, budget, tree", ENGINE_GOLDEN_ROWS)
def test_memo_bound_changes_no_tree(monkeypatch, engine, a, b, c, budget, tree):
    # With the bound at 3 entries, every fourth miss clears the run's memo:
    # the entries are refolded, never different, so the tree and the
    # result stay as they are, and the memo keeps at most 3 entries.
    def call():
        return getattr(search, engine)(a, b, c, budget=budget)

    expected = untimed(call())
    runs = []

    def tables(*args):
        runs.append(search_tables(*args))
        return runs[-1]

    search_tables = search._tables
    monkeypatch.setattr(search, "_MEMO_BOUND", 3)
    monkeypatch.setattr(search, "_tables", tables)
    result = call()
    assert tree_of(result) == tree
    assert untimed(result) == expected
    (_, _, memo, _), = runs
    assert 0 < len(memo) <= 3


@pytest.mark.parametrize("k, n, r", [(2, 6, 100), (3, 4, 10), (2, 4, 7), (2, 3, 10**11)])
def test_decide_clamps_colors_to_edges(k, n, r):
    # A coloring of C(n,k) edges uses at most C(n,k) colors, so a larger r
    # gives the same tree and witness colors; only the witness keeps r.
    def tree(r):
        outcome = decide_ramsey(k, r, n)
        stats, witness = outcome.stats, outcome.witness
        assert witness is None or witness.r == r
        colors = [c for _, c in witness.items()] if witness else None
        return outcome.verdict, stats.nodes, stats.prunes, stats.max_depth, stats.class_cap, colors

    assert tree(r) == tree(comb(n, k))


def test_decide_golden_witness():
    colors = "1122334134242434232411143321"
    edges = list(itertools.combinations(range(8), 2))
    expected = "2 8 28 4\n" + "".join(f"{a} {b} {c}\n" for (a, b), c in zip(edges, colors))
    assert serialize_coloring(decide_ramsey(2, 4, 8).witness) == expected


def test_decide_golden_witness_n9():
    # The reference engine's witness; it takes about 5 s to recompute.
    colors = "112233441342423434232241131431321124"
    edges = list(itertools.combinations(range(9), 2))
    expected = "2 9 36 4\n" + "".join(f"{a} {b} {c}\n" for (a, b), c in zip(edges, colors))
    assert serialize_coloring(decide_ramsey(2, 4, 9).witness) == expected


# The golden rows the reference finishes in seconds, acceptance criteria 1
# and 2, and the oracle instances of criterion 6.
REFERENCE_CASES = sorted(
    {(2, 3, 8, 0), (2, 4, 8, 0), (3, 3, 9, 300000), (2, 2, 4, 0), (2, 2, 5, 0)}
    | {(2, 3, n, 0) for n in (5, 6, 7)}
    | {(k, r, n, 0) for k, r, n in ORACLE_INSTANCES}
)


@pytest.mark.parametrize("k, r, n, budget", REFERENCE_CASES)
def test_decide_matches_reference(k, r, n, budget):
    verdict, nodes, _, expected = reference_decide(k, r, n, budget)
    uncapped, uncapped_nodes, _, _, colors = uncapped_decide(k, r, n, budget)
    assert (uncapped, serialized_witness(k, r, n, colors)) == (verdict, expected)
    assert uncapped_nodes <= nodes
    # The capped engine may decide what the budget left unknown, never otherwise.
    outcome = decide_ramsey(k, r, n, budget=budget)
    witness = serialize_coloring(outcome.witness) if outcome.witness else None
    if verdict != VERDICT_UNKNOWN:
        assert (outcome.verdict, witness) == (verdict, expected)
    assert outcome.stats.nodes <= uncapped_nodes


def naive_swaps(edges, n):
    """Per swap (i i+1) of adjacent vertices, the rank of each edge's image, by definition."""
    rank = {e: i for i, e in enumerate(edges)}
    return [[rank[tuple(sorted({i: i + 1, i + 1: i}.get(v, v) for v in e))] for e in edges] for i in range(n - 1)]


def naive_pruned_search(k, r, n):
    """(verdict, nodes, prunes, witness colors) of the pruned search, rescanning at every node.

    A color attempt at edge d is pruned when edge d closes a monochromatic
    copy, when all r colors are in use and a later edge would close one in
    every color, or when the image of the colored prefix under a swap of
    adjacent vertices, colors renamed by first occurrence, is lex-smaller
    up to the first position it leaves undecided.
    """
    edges = list(itertools.combinations(range(n), k))
    swaps = naive_swaps(edges, n)
    close = pair_rows(n, k, 3)
    colors = []
    nodes = prunes = 0

    def threats():
        threat = [0] * (r + 1)
        for e, c in enumerate(colors):
            for p, mask in close[e]:
                if colors[p] == c:
                    threat[c] |= mask
        return threat

    def image_smaller(s):
        names = {}
        for j, c in enumerate(colors):
            if s[j] >= len(colors):
                return False
            a = names.setdefault(colors[s[j]], len(names) + 1)
            if a != c:
                return a < c
        return False

    def extend():
        nonlocal nodes, prunes
        d = len(colors)
        if d == len(edges):
            return True
        for c in range(1, min(max(colors, default=0) + 1, r) + 1):
            nodes += 1
            closed = threats()[c] >> d & 1
            colors.append(c)
            every = functools.reduce(operator.and_, threats()[1:])
            wiped = len(set(colors)) == r and every >> d + 1
            if closed or wiped or any(map(image_smaller, swaps)):
                prunes += 1
            elif extend():
                return True
            colors.pop()
        return False

    found = extend()
    return ("fails" if found else "holds"), nodes, prunes, (colors if found else None)


# Largest n per (k, r) on which the reference engine finishes within about 0.1 s.
QUICK_REFERENCE_N = {
    (2, 1): 8, (2, 2): 8, (2, 3): 8, (2, 4): 7,
    (3, 1): 8, (3, 2): 7, (3, 3): 8,
    (4, 1): 9, (4, 2): 9,
}


@st.composite
def quick_instances(draw):
    k, r = draw(st.sampled_from(sorted(QUICK_REFERENCE_N)))
    return k, r, draw(st.integers(k, QUICK_REFERENCE_N[k, r]))


@settings(max_examples=40, deadline=None, database=None)
@given(quick_instances())
@example((3, 1, 6))  # one color, and no copy exists below 3k-2 vertices
@example((4, 2, 9))
@example((2, 1, 5))
def test_pruned_engine_matches_reference(instance):
    # Every pruned prefix lacks the lex-least good coloring, so the pruned
    # tree is part of the reference tree and ends at the same witness; the
    # incremental lex-leader test prunes exactly where a rescan does.
    verdict, nodes, prunes, _, colors = uncapped_decide(*instance)
    expected_verdict, expected_nodes, _, witness = reference_decide(*instance)
    assert verdict == expected_verdict
    assert serialized_witness(*instance, colors) == witness
    assert nodes <= expected_nodes
    assert (verdict, nodes, prunes, colors) == naive_pruned_search(*instance)


@settings(max_examples=40, deadline=None, database=None)
@given(quick_instances())
@example((2, 3, 8))  # the cap is armed at ex_2(8) = 7 and decides the instance
@example((2, 4, 7))
@example((4, 2, 9))
def test_capped_engine_matches_reference(instance):
    # The cap prunes only prefixes whose classes cannot hold the edges left,
    # so it keeps the lex-least good coloring and visits part of the tree.
    outcome = decide_ramsey(*instance)
    verdict, _, _, witness = reference_decide(*instance)
    assert outcome.verdict == verdict
    assert (serialize_coloring(outcome.witness) if outcome.witness else None) == witness
    assert outcome.stats.nodes <= uncapped_decide(*instance)[1]


def reference_turan_max_edges(k, n, pattern, budget=0):
    """Branch and bound bounded by edges-remaining, primed with `search._turan_seed`.

    This was `turan_max_edges` before the addable-edge bound and the vertex
    lex-leader pruning.  It visits the tree of that recursive search in the
    same order, from an explicit stack of (edge index, chosen edges as bits,
    threat mask): the exclusion child is pushed below the inclusion child.
    """
    length = search._pattern_length(pattern)
    edges = list(itertools.combinations(range(n), k))
    close = pair_rows(n, k, length)
    m = len(edges)
    best_sel = search._turan_seed(k, n, pattern, edges)
    nodes = prunes = 0
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, threat = stack.pop()
        nodes += 1
        if budget and nodes > budget:
            break
        if chosen.bit_count() + m - i <= len(best_sel):
            prunes += 1
        elif i == m:
            best_sel = [j for j in range(m) if chosen >> j & 1]
        else:
            stack.append((i + 1, chosen, threat))
            if not threat >> i & 1:
                chosen |= 1 << i
                for p, mask in close[i]:
                    if chosen >> p & 1:
                        threat |= mask
                stack.append((i + 1, chosen, threat))
    extremal = Hypergraph(k, n, [edges[i] for i in best_sel])
    assert find_loose_path(extremal, length) is None
    status = search.STATUS_LOWER_BOUND if budget and nodes > budget else search.STATUS_EXACT
    return search.TuranResult(status, len(best_sel), extremal, search.SearchStats(nodes, prunes, 0.0))


@pytest.mark.parametrize(
    "k, n, pattern, budget, status, max_edges, nodes, prunes",
    [
        (3, 7, "loose-path-3", 0, "exact", 20, 1106290, 257642),
        (2, 8, "loose-path-3", 0, "exact", 7, 78259, 14082),
        (3, 8, "loose-path-3", 500000, "lower-bound-only", 21, 500001, 17162),
        (3, 7, "loose-path-2", 0, "exact", 5, 10436, 956),
    ],
)
def test_turan_golden_tree(k, n, pattern, budget, status, max_edges, nodes, prunes):
    result = reference_turan_max_edges(k, n, pattern, budget=budget)
    assert (result.status, result.max_edges, result.stats.nodes, result.stats.prunes) == (
        status,
        max_edges,
        nodes,
        prunes,
    )


@pytest.mark.parametrize(
    "k, n, pattern, budget, status, max_edges, nodes, prunes",
    [
        (3, 7, "loose-path-3", 0, "exact", 20, 493, 241),
        (2, 8, "loose-path-3", 0, "exact", 7, 232, 99),
        (3, 8, "loose-path-3", 500000, "exact", 21, 1467, 734),
        (3, 7, "loose-path-2", 0, "exact", 5, 97, 46),
        (4, 10, "loose-path-3", 200000, "lower-bound-only", 84, 200001, 99980),
    ],
)
def test_turan_pruned_golden_tree(k, n, pattern, budget, status, max_edges, nodes, prunes):
    result = turan_max_edges(k, n, pattern, budget=budget)
    tree = (result.status, result.max_edges, result.stats.nodes, result.stats.prunes)
    assert tree == (status, max_edges, nodes, prunes)


def test_turan_golden_extremal():
    # The extremal 3-graph found on 7 vertices is the clique on {0..5}.
    result = turan_max_edges(3, 7, "loose-path-3")
    assert list(result.extremal.edges) == list(itertools.combinations(range(6), 3))


# Largest n per (k, pattern) on which the reference finishes within about 0.25 s.
QUICK_TURAN_N = {
    (2, "loose-path-3"): 9, (2, "loose-path-2"): 11,
    (3, "loose-path-3"): 6, (3, "loose-path-2"): 8,
    (4, "loose-path-3"): 9, (4, "loose-path-2"): 6,
}


@st.composite
def quick_turan_instances(draw):
    k, pattern = draw(st.sampled_from(sorted(QUICK_TURAN_N)))
    return k, draw(st.integers(k, QUICK_TURAN_N[k, pattern])), pattern


@settings(max_examples=40, deadline=None, database=None)
@given(quick_turan_instances())
@example((3, 7, "loose-path-3"))
@example((2, 8, "loose-path-3"))
@example((3, 7, "loose-path-2"))
def test_turan_matches_reference(instance):
    # Neither pruning removes the lex-greatest optimum, so the value and the
    # extremal are the reference's.
    result = turan_max_edges(*instance)
    expected = reference_turan_max_edges(*instance)
    assert (result.status, result.max_edges) == (expected.status, expected.max_edges)
    assert serialize_hypergraph(result.extremal) == serialize_hypergraph(expected.extremal)
    assert result.stats.nodes <= expected.stats.nodes


def naive_pruned_turan(k, n, pattern, budget=0):
    """(status, max_edges, nodes, prunes, extremal) of the pruned Turán search, rescanning at every node.

    A node is pruned when its included edges plus the later edges that close
    no copy with them cannot beat the best count, or when the image of the
    decided inclusion word under a swap of adjacent vertices is lex-greater
    up to the first position it leaves undecided.  Children are visited
    inclusion first; a spent budget stops at the node that exceeds it.
    """
    length = search._pattern_length(pattern)
    edges = list(itertools.combinations(range(n), k))
    swaps = naive_swaps(edges, n)
    close = pair_rows(n, k, length)
    best = search._turan_seed(k, n, pattern, edges)
    word = []
    nodes = prunes = 0

    def threat():
        return functools.reduce(
            operator.or_, (mask for e in range(len(word)) for p, mask in close[e] if word[e] and word[p]), 0
        )

    def image_greater(s):
        for j in range(len(word)):
            if s[j] >= len(word):
                return False
            if word[s[j]] != word[j]:
                return word[s[j]]
        return False

    def visit():
        """Search the subtree of the decided word; True once the budget is spent."""
        nonlocal best, nodes, prunes
        nodes += 1
        if budget and nodes > budget:
            return True
        d, t = len(word), threat()
        if sum(word) + len(edges) - d - bin(t >> d).count("1") <= len(best) or any(map(image_greater, swaps)):
            prunes += 1
            return False
        if d == len(edges):
            best = [e for e in range(d) if word[e]]
            return False
        for include in (True, False):
            if include and t >> d & 1:
                continue
            word.append(include)
            spent = visit()
            word.pop()
            if spent:
                return True
        return False

    status = "lower-bound-only" if visit() else "exact"
    return status, len(best), nodes, prunes, serialize_hypergraph(Hypergraph(k, n, [edges[e] for e in best]))


@settings(max_examples=40, deadline=None, database=None)
@given(quick_turan_instances(), st.sampled_from([0, 0, 1, 10, 100]))
@example((3, 7, "loose-path-3"), 0)
@example((2, 8, "loose-path-3"), 0)
@example((3, 7, "loose-path-2"), 0)
@example((4, 9, "loose-path-3"), 100)
@example((4, 10, "loose-path-3"), 3000)
def test_pruned_turan_matches_naive(instance, budget):
    # The incremental bound and lex-leader test prune exactly where a rescan
    # does, so the tree, the value and the extremal are the naive search's.
    result = turan_max_edges(*instance, budget=budget)
    tree = (result.status, result.max_edges, result.stats.nodes, result.stats.prunes)
    assert tree + (serialize_hypergraph(result.extremal),) == naive_pruned_turan(*instance, budget)


def test_turan_seed_reads_pair_cover_and_matching_off_the_edges():
    # The loose-path-2 seed comes off the lex edge list with no Hypergraph built;
    # `pair_cover` (k >= 3) and the matching {(v, v+1) : v even} (k = 2) stay the references.
    for n in range(2, 13):
        for k in range(2, n + 1):
            edges = list(itertools.combinations(range(n), k))
            rank = {e: i for i, e in enumerate(edges)}
            if k >= 3:
                expected = sorted(rank[e] for e in pair_cover(n, k).edges)
            else:
                expected = sorted(rank[(v, v + 1)] for v in range(0, n - 1, 2))
            assert search._turan_seed(k, n, "loose-path-2", edges) == expected, (k, n)


@settings(max_examples=30, deadline=None, database=None)
@given(quick_turan_instances(), st.integers(1, 50))
@example((3, 8, "loose-path-3"), 500000)  # the golden row the reference leaves at 21
@example((2, 6, "loose-path-3"), 5)
def test_turan_budget_keeps_seed(instance, budget):
    # A spent budget still returns the seed or better.
    k, n, pattern = instance
    result = turan_max_edges(k, n, pattern, budget=budget)
    seed = search._turan_seed(k, n, pattern, list(itertools.combinations(range(n), k)))
    assert result.status == ("lower-bound-only" if result.stats.nodes > budget else "exact")
    assert result.max_edges == len(result.extremal) >= len(seed)


@pytest.mark.parametrize(
    "k, n, pattern, max_edges",
    [
        (3, 8, "loose-path-3", 21),
        (4, 8, "loose-path-2", 17),
        (2, 12, "loose-path-3", 12),
        (3, 9, "loose-path-3", 28),
        (2, 10, "loose-path-3", 9),
    ],
)
def test_turan_roadmap_targets(k, n, pattern, max_edges):
    result = turan_max_edges(k, n, pattern)
    assert (result.status, result.max_edges, len(result.extremal)) == ("exact", max_edges, max_edges)
    assert find_loose_path(result.extremal, search._pattern_length(pattern)) is None
    assert result.stats.seconds < 1.0


def test_turan_full_star_witness_n8():
    # The seed, the full star at vertex 0, is optimal, so it is the extremal.
    result = turan_max_edges(3, 8, "loose-path-3")
    assert list(result.extremal.edges) == [e for e in itertools.combinations(range(8), 3) if 0 in e]


def test_turan_deep_tree_needs_no_recursion():
    # C(46,2) = 1035 edges put the search deeper than the interpreter's
    # recursion limit; the explicit stack spends the budget instead.
    result = turan_max_edges(2, 46, "loose-path-3", budget=5000)
    assert (result.status, result.stats.nodes) == ("lower-bound-only", 5001)
    assert result.max_edges == len(result.extremal) >= 45


@pytest.mark.parametrize("n", [9, 10])
def test_turan_graph_extremal_matches_reference(n):
    # The reference visits 0.5M nodes at n = 9 and 5.2M at n = 10 (about 0.3 s and 4 s).
    result = turan_max_edges(2, n, "loose-path-3")
    expected = reference_turan_max_edges(2, n, "loose-path-3")
    assert (result.status, result.max_edges) == (expected.status, expected.max_edges) == ("exact", 9)
    assert serialize_hypergraph(result.extremal) == serialize_hypergraph(expected.extremal)


@pytest.mark.parametrize("n", range(4, 17))
def test_turan_graph_values_match_the_closed_form(n):
    # ex(n, P4) = 3*floor(n/3) + C(n mod 3, 2): disjoint triangles, then an
    # edge on the last two vertices (Faudree and Schelp, JCTB 1975).
    result = turan_max_edges(2, n, "loose-path-3")
    assert (result.status, result.max_edges) == ("exact", 3 * (n // 3) + comb(n % 3, 2))


def test_decide_validates_parameters():
    with pytest.raises(ValueError):
        decide_ramsey(1, 2, 4)
    with pytest.raises(ValueError):
        decide_ramsey(2, 0, 4)
    with pytest.raises(ValueError):
        decide_ramsey(3, 2, 2)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        decide_ramsey(2, 2, 4, budget=-1)
    # The exhaustive oracle and the CNF export refuse the same k, r and n,
    # and the copy list a size or a length it has no pattern for.
    for call in (exhaustive_decide, export_cnf):
        for k, r, n in [(1, 2, 4), (2, 0, 4), (3, 2, 2)]:
            with pytest.raises(ValueError, match="need k >= 2, r >= 1, n >= k"):
                call(k, r, n)
    for n, k in [(0, 2), (5, 1)]:
        with pytest.raises(ValueError, match="need n >= 1 and k >= 2"):
            enumerate_loose_paths(n, k, 3)
    with pytest.raises(ValueError, match="length must be 2 or 3"):
        enumerate_loose_paths(5, 2, 4)


def test_turan_trivial_regimes():
    result = turan_max_edges(3, 6, "loose-path-3")
    assert result.max_edges == comb(6, 3) and result.status == "exact"
    result = turan_max_edges(4, 6, "loose-path-2")
    assert result.max_edges == comb(6, 4) and result.status == "exact"


def test_turan_small_graph():
    result = turan_max_edges(2, 4, "loose-path-3")
    assert result.max_edges == 3 and result.status == "exact"
    assert find_loose_path(result.extremal, 3) is None


def test_turan_witness_consistency():
    result = turan_max_edges(2, 6, "loose-path-3")
    assert len(result.extremal) == result.max_edges
    assert find_loose_path(result.extremal, 3) is None


def test_turan_full_star_lower_bound():
    for k, n in [(2, 5), (3, 6), (3, 7), (4, 6)]:
        result = turan_max_edges(k, n, "loose-path-3")
        assert result.max_edges >= comb(n - 1, k - 1)


def test_turan_budget_is_lower_bound_only():
    result = turan_max_edges(2, 6, "loose-path-3", budget=5)
    assert result.status == "lower-bound-only"
    assert result.max_edges >= comb(5, 1)
    assert find_loose_path(result.extremal, 3) is None


def test_turan_matching_for_pairs_in_graphs():
    # forbidding two edges sharing exactly one vertex leaves a matching
    result = turan_max_edges(2, 6, "loose-path-2")
    assert result.max_edges == 3


def test_turan_rejects_unknown_pattern():
    with pytest.raises(ValueError):
        turan_max_edges(2, 4, "loose-cycle-3")
    # and, for a known pattern, a bad k or n or a negative budget
    for k, n in [(1, 4), (3, 2)]:
        with pytest.raises(ValueError, match="need k >= 2 and n >= k"):
            turan_max_edges(k, n, "loose-path-3")
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        turan_max_edges(2, 4, "loose-path-3", budget=-1)


def test_cnf_counts():
    inst = export_cnf(2, 2, 4)
    assert inst.num_vars == 12 and len(inst.clauses) == 30 and inst.path_count == 12
    inst = export_cnf(2, 2, 5)
    assert inst.num_vars == 20 and len(inst.clauses) == 130
    inst = export_cnf(2, 1, 4)
    assert inst.num_vars == 6 and len(inst.clauses) == 18


def test_cnf_satisfiability_matches_decide():
    for k, r, n in [(2, 2, 4), (2, 2, 5), (2, 1, 4), (2, 1, 3), (3, 2, 5)]:
        sat = cnf_satisfiable(export_cnf(k, r, n))
        assert sat == (decide_ramsey(k, r, n).verdict == "fails")


@pytest.mark.parametrize("chunk", [None, 1, 4])
def test_cnf_satisfiable_random_clauses(monkeypatch, rng, chunk):
    # Random clause sets over K_4, about half of them satisfiable; the answer
    # and `_first_model`'s position must match a one-hot brute force.  The
    # positive literals run a path of `_first_model` that the all-negative
    # copy clauses of `exhaustive_decide` never take.
    if chunk:
        monkeypatch.setattr(cnf, "_CHUNK", chunk)
    edges = tuple(itertools.combinations(range(4), 2))
    for trial in range(300):
        r = rng.randint(2, 3)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, len(edges) * r) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 24))
        )
        if trial >= 150:
            # Then full at-least-one clauses, true on every coloring, some with
            # other literals added, among a random number of the drawn ones.
            full = [
                tuple(rng.sample(range(e * r + 1, e * r + r + 1), r)) + rng.choice(clauses + ((),))
                for e in rng.sample(range(len(edges)), rng.randint(1, 3))
            ]
            clauses = list(clauses[: rng.randint(0, len(clauses))]) + full
            rng.shuffle(clauses)
            clauses = tuple(clauses)
        models = (
            pos
            for pos, colors in enumerate(itertools.product(range(r), repeat=len(edges)))
            if all(
                any((colors[(abs(lit) - 1) // r] == (abs(lit) - 1) % r) == (lit > 0) for lit in clause)
                for clause in clauses
            )
        )
        first = next(models, None)
        instance = CnfInstance(2, 4, r, edges, clauses, 0)
        assert cnf._first_model(instance) == first, clauses
        assert cnf_satisfiable(instance) == (first is not None), clauses


def test_cnf_satisfiable_drops_full_clauses(monkeypatch):
    # K^(3)_6 holds no copy, so export_cnf(3,2,6) has only at-least-one
    # clauses, each true on every coloring: sat without the low block.  The
    # guard and the stray-literal check still come first.
    def refuse(m, r):
        raise AssertionError("_low_block called although every clause holds")

    monkeypatch.setattr(cnf, "_low_block", refuse)
    inst = export_cnf(3, 2, 6)
    assert inst.path_count == 0 and cnf_satisfiable(inst)
    with pytest.raises(ValueError, match="literal"):
        cnf_satisfiable(CnfInstance(3, 6, 2, inst.edges, inst.clauses + ((1, 2, 0),), 0))
    big = export_cnf(3, 2, 7)
    cover = big.clauses[: len(big.edges)]
    with pytest.raises(InstanceTooLargeError):
        cnf_satisfiable(CnfInstance(3, 7, 2, big.edges, cover, 0))


def test_cnf_rejects_stray_literals():
    # Unchecked, a literal 0 decodes to edge -1, the last prefix edge, so K_7
    # with the at-least-one clauses and (0,) would answer True, and |lit| past
    # num_vars would raise a bare IndexError.
    base = export_cnf(2, 2, 7)
    cover = base.clauses[: len(base.edges)]
    assert cnf_satisfiable(CnfInstance(2, 7, 2, base.edges, cover, 0))
    for stray in [(0,), (1, 0), (base.num_vars + 1,), (-base.num_vars - 1, 2)]:
        instance = CnfInstance(2, 7, 2, base.edges, cover + (stray,), 0)
        with pytest.raises(ValueError, match="literal"):
            cnf_satisfiable(instance)
    assert cnf_satisfiable(CnfInstance(2, 7, 2, base.edges, cover + ((base.num_vars,), (-1,)), 0))


@pytest.mark.parametrize("k, r, n", [(3, 2, 6), (2, 2, 7)])
def test_oracle_peak_memory(k, r, n):
    # Each oracle keeps r bitsets per low edge and a few masks of r^L bits:
    # about 6 MiB at these 2^20- and 2^21-coloring instances.
    instance = export_cnf(k, r, n)
    for call in (lambda: exhaustive_decide(k, r, n), lambda: cnf_satisfiable(instance)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def test_cnf_dimacs_format():
    inst = export_cnf(2, 2, 4)
    text = inst.to_dimacs()
    lines = text.splitlines()
    var_comments = [l for l in lines if l.startswith("c var ")]
    assert len(var_comments) == inst.num_vars
    assert f"p cnf {inst.num_vars} {len(inst.clauses)}" in lines
    clause_lines = [l for l in lines if not l.startswith(("c", "p"))]
    assert len(clause_lines) == len(inst.clauses)
    assert all(l.endswith(" 0") for l in clause_lines)
    assert "c var 1 = edge 0 1 color 1" in lines


def test_cnf_variable_round_trip():
    # Every "c var" comment of the DIMACS text names variable i*r + c of edge i, color c.
    inst = export_cnf(3, 2, 7)
    comments = [l.split() for l in inst.to_dimacs().splitlines() if l.startswith("c var ")]
    assert [int(words[2]) for words in comments] == list(range(1, inst.num_vars + 1))
    for words in comments:
        edge, color = tuple(map(int, words[5:-2])), int(words[-1])
        assert inst.edges.index(edge) * inst.r + color == int(words[2])


def test_cnf_witness_projection():
    # the decide witness, read as a one-hot assignment, satisfies every clause
    inst = export_cnf(2, 2, 4)
    witness = decide_ramsey(2, 2, 4).witness
    true_vars = {inst.edges.index(e) * inst.r + c for e, c in witness.items()}
    for clause in inst.clauses:
        assert any(
            (lit > 0 and lit in true_vars) or (lit < 0 and -lit not in true_vars)
            for lit in clause
        )


def test_stats_are_populated(capsys):
    outcome = decide_ramsey(2, 2, 5)
    assert outcome.stats.nodes > 0 and outcome.stats.seconds >= 0
    assert cli.main(["ramsey", "--k", "2", "--r", "2", "--n", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)["payload"]
    assert set(obj) == {"verdict", "witness", "stats"}
    assert obj["stats"] == {"nodes": outcome.stats.nodes, "prunes": outcome.stats.prunes}


@pytest.mark.parametrize(
    "call, timed",
    [
        (lambda: decide_ramsey(2, 4, 8), True),
        (lambda: decide_ramsey(3, 2, 8), True),
        (lambda: turan_max_edges(3, 8, "loose-path-3"), True),
        (lambda: exhaustive_decide(2, 2, 4), False),
    ],
    ids=["decide-fails", "decide-holds", "turan", "exhaustive"],
)
def test_phase_times_fit_the_call(call, timed):
    stats = call().stats
    phases = (stats.build_s, stats.search_s, stats.verify_s)
    assert sum(phases) <= stats.seconds + 1e-9  # float rounding
    if timed:
        assert stats.build_s > 0 and stats.search_s > 0 and stats.verify_s >= 0
    else:
        assert phases == (0.0, 0.0, 0.0)
