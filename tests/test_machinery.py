import itertools
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseylab import (
    BipartiteGraph,
    Hypergraph,
    complete_hypergraph,
    derandomized_split,
    full_star,
    greedy_tripartition,
    peel_min_degree,
    prune_bipartite,
    stability_deficiency,
)
from conftest import random_hypergraph


def min_support_degree(h):
    return min(h.degree(v) for v in h.support())


def test_peel_already_dense():
    k4 = complete_hypergraph(4, 2)
    assert peel_min_degree(k4) == k4


def test_peel_triangle_with_pendant():
    h = Hypergraph(2, 4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    peeled = peel_min_degree(h)
    assert peeled.edges == ((0, 1), (0, 2), (1, 2))
    assert min_support_degree(peeled) > Fraction(4, 4)


def test_peel_triangle_with_pendant_brute_force():
    # the densest induced subgraphs all have ratio |E|/|V| = 1; the peel must
    # land on one whose minimum degree beats the input ratio threshold
    h = Hypergraph(2, 4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    threshold = Fraction(len(h), h.n)
    best_ratio = Fraction(0)
    for size in range(1, h.n + 1):
        for subset in itertools.combinations(range(h.n), size):
            sub = [e for e in h.edges if set(e) <= set(subset)]
            if sub:
                best_ratio = max(best_ratio, Fraction(len(sub), size))
    assert best_ratio == Fraction(1)
    peeled = peel_min_degree(h)
    assert min_support_degree(peeled) > threshold


def test_peel_single_edge():
    h = Hypergraph(4, 4, [(0, 1, 2, 3)])
    assert peel_min_degree(h) == h


def test_peel_requires_an_edge():
    with pytest.raises(ValueError):
        peel_min_degree(Hypergraph(2, 3))


def test_peel_rejects_1_graphs():
    # Every vertex of this 1-graph has degree 1 = |E|/|V|, so a peel would
    # remove them all; the charging argument needs k >= 2.
    with pytest.raises(ValueError, match="k >= 2"):
        peel_min_degree(Hypergraph(1, 2, [(0,), (1,)]))
    with pytest.raises(ValueError, match="uniformity must be at least 2"):
        stability_deficiency(Hypergraph(1, 2, [(0,), (1,)]))
    with pytest.raises(ValueError, match="k >= 2"):
        peel_min_degree(Hypergraph(1, 3, [(0,)]))


def test_peel_postconditions_random(rng):
    for _ in range(60):
        k = rng.randint(2, 4)
        n = rng.randint(k, 12)
        h = random_hypergraph(rng, n, k, density=rng.choice([0.2, 0.5, 0.8]))
        if len(h) == 0:
            continue
        threshold = Fraction(len(h), h.n)
        peeled = peel_min_degree(h)
        assert len(peeled) >= 1
        assert set(peeled.edges) <= set(h.edges)
        assert min_support_degree(peeled) > threshold


def test_peel_reads_the_support_not_declared_vertices():
    # Two edges declaring 10^6 vertices: the peel may not build a position, an
    # incidence list or a degree per declared vertex.
    h = Hypergraph(3, 10**6, [(0, 1, 2), (2, 3, 4)])
    tracemalloc.start()
    try:
        peeled = peel_min_degree(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peeled == h and peak < 1 << 20


def test_prune_unchanged_small():
    b = BipartiteGraph(["a"], ["b", "c"], [("a", "b"), ("a", "c")])
    assert prune_bipartite(b) == b


def test_prune_hand_trace():
    b = BipartiteGraph(
        ["a", "b"], ["c", "d", "e", "f"],
        [("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"), ("b", "c")],
    )
    pruned = prune_bipartite(b)
    assert pruned.left == ("a",)
    assert pruned.right == ("c", "d", "e", "f")
    assert len(pruned.edges) == 4


def test_prune_complete_bipartite_unchanged():
    edges = [(u, v) for u in ("a", "b") for v in ("c", "d")]
    b = BipartiteGraph(["a", "b"], ["c", "d"], edges)
    assert prune_bipartite(b) == b


def test_prune_brute_force_cross_check():
    b = BipartiteGraph(
        ["a", "b"], ["c", "d", "e", "f"],
        [("a", "c"), ("a", "d"), ("a", "e"), ("a", "f"), ("b", "c")],
    )
    floor_left = Fraction(len(b.edges), 2 * len(b.left))
    floor_right = Fraction(len(b.edges), 2 * len(b.right))
    feasible = []
    for ls in range(1, len(b.left) + 1):
        for rs in range(1, len(b.right) + 1):
            for left in itertools.combinations(b.left, ls):
                for right in itertools.combinations(b.right, rs):
                    kept = [e for e in b.edges if e[0] in left and e[1] in right]
                    if not kept:
                        continue
                    degs = {}
                    for u, v in kept:
                        degs[u] = degs.get(u, 0) + 1
                        degs[v] = degs.get(v, 0) + 1
                    if all(degs.get(u, 0) >= floor_left for u in left) and all(
                        degs.get(v, 0) >= floor_right for v in right
                    ):
                        feasible.append((frozenset(left), frozenset(right), frozenset(kept)))
    pruned = prune_bipartite(b)
    assert (frozenset(pruned.left), frozenset(pruned.right), pruned.edges) in feasible


def test_prune_postconditions_random(rng):
    for _ in range(60):
        left = list(range(rng.randint(1, 6)))
        right = [chr(ord("a") + i) for i in range(rng.randint(1, 6))]
        edges = [(u, v) for u in left for v in right if rng.random() < 0.5]
        if not edges:
            continue
        b = BipartiteGraph(left, right, edges)
        floor_left = Fraction(len(edges), 2 * len(left))
        floor_right = Fraction(len(edges), 2 * len(right))
        pruned = prune_bipartite(b)
        assert pruned.edges and pruned.edges <= b.edges
        degs = {}
        for u, v in pruned.edges:
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
        assert all(degs[u] >= floor_left for u in pruned.left)
        assert all(degs[v] >= floor_right for v in pruned.right)


# The two loops as they stood before both ran on `machinery._peel`: each
# removal rescans the sorted alive vertices and every remaining edge.
def reference_peel_min_degree(h: Hypergraph) -> Hypergraph:
    """Peel to a nonempty subhypergraph with every degree above |E|/|V|.

    The threshold is fixed from the input (|V| counts all n vertices,
    isolated ones included).  Vertices with current degree <= threshold are
    removed smallest-id first until none remain below it.  A charging
    argument rules out emptying: each edge is charged once, at its first
    removed vertex, for a total of |E|; were every vertex removed, the last
    removal would charge 0 < threshold, forcing the impossible strict bound
    |E| < |E|.  The empty outcome is still checked defensively.
    """
    if len(h) == 0:
        raise ValueError("peel needs at least one edge")
    if h.n == 0:
        raise ValueError("peel needs at least one vertex")
    threshold = Fraction(len(h), h.n)
    edges = set(h.edges)
    degree: Counter = Counter(v for e in edges for v in e)
    alive = set(range(h.n))
    while True:
        victim = None
        for v in sorted(alive):
            if degree[v] <= threshold:
                victim = v
                break
        if victim is None:
            break
        alive.discard(victim)
        for e in [e for e in edges if victim in e]:
            edges.discard(e)
            for u in e:
                degree[u] -= 1
    if not edges:
        raise RuntimeError("degree peel emptied the hypergraph; impossible for inputs with an edge")
    return Hypergraph(h.k, h.n, edges)


def reference_prune_bipartite(b: BipartiteGraph) -> BipartiteGraph:
    """Prune to a nonempty subgraph meeting per-class degree floors.

    Both floors |B|/(2|Vi|) are fixed from the input.  Vertices with current
    degree strictly below their class floor are removed one at a time (left
    class first, smallest first).  Fewer than |B| edges can be lost this way,
    so the result is never empty; checked defensively.
    """
    if not b.edges:
        raise ValueError("pruning needs at least one edge")
    if not b.left or not b.right:
        raise ValueError("both vertex classes must be nonempty")
    floor_left = Fraction(len(b.edges), 2 * len(b.left))
    floor_right = Fraction(len(b.edges), 2 * len(b.right))
    left = set(b.left)
    right = set(b.right)
    edges = set(b.edges)
    degree: Counter = Counter()
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    while True:
        victim = None
        for u in sorted(left):
            if degree[u] < floor_left:
                victim = u
                break
        if victim is None:
            for v in sorted(right):
                if degree[v] < floor_right:
                    victim = v
                    break
        if victim is None:
            break
        left.discard(victim)
        right.discard(victim)
        for e in [e for e in edges if victim in e]:
            edges.discard(e)
            degree[e[0]] -= 1
            degree[e[1]] -= 1
    if not edges:
        raise RuntimeError("bipartite prune emptied the graph; the counting bound rules this out")
    survivors_left = {u for u, _ in edges}
    survivors_right = {v for _, v in edges}
    return BipartiteGraph(survivors_left, survivors_right, edges)


@st.composite
def peel_hosts(draw):
    """Small k-graphs, some vertices isolated, many degree ties."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 10))
    pool = list(itertools.combinations(range(n), k))
    return Hypergraph(k, n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14)))


@st.composite
def bipartite_graphs(draw):
    """Small bipartite graphs, string or integer ids, isolated vertices allowed."""
    left = draw(st.sets(st.integers(-3, 9), min_size=1, max_size=6))
    right = draw(st.sets(st.text("xyz", min_size=1, max_size=2), min_size=1, max_size=6))
    if draw(st.booleans()):
        left, right = right, left
    pool = sorted(itertools.product(left, right), key=repr)
    return BipartiteGraph(left, right, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16)))


def outcome(func, arg):
    try:
        return func(arg)
    except RuntimeError as exc:  # the defensive check that the result is nonempty
        return str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(peel_hosts())
def test_peel_matches_reference(h):
    if h.k < 2:  # the reference peeled some of these to nothing
        with pytest.raises(ValueError):
            peel_min_degree(h)
        return
    assert peel_min_degree(h) == reference_peel_min_degree(h)


@settings(max_examples=300, deadline=None, database=None)
@given(bipartite_graphs())
def test_prune_matches_reference(b):
    assert outcome(prune_bipartite, b) == outcome(reference_prune_bipartite, b)


def test_bipartite_classes_must_be_disjoint():
    with pytest.raises(ValueError):
        BipartiteGraph([1, 2], [2, 3], [])


def test_tripartition_hand_trace():
    tri = greedy_tripartition({0: 5, 1: 4, 2: 3, 3: 2, 4: 1})
    assert tri.sums == (Fraction(5), Fraction(5), Fraction(5))


def test_tripartition_symmetric():
    tri = greedy_tripartition({0: 1, 1: 1, 2: 1})
    assert tri.sums == (Fraction(1), Fraction(1), Fraction(1))


def test_tripartition_single_heavy():
    tri = greedy_tripartition({7: 10})
    assert tri.sums == (Fraction(0), Fraction(0), Fraction(10))
    assert tri.gap == 10


def test_tripartition_empty():
    tri = greedy_tripartition({})
    assert tri.sums == (Fraction(0), Fraction(0), Fraction(0))
    assert tri.gap == 0


def test_tripartition_rejects_negative():
    with pytest.raises(ValueError):
        greedy_tripartition({0: -1})


def test_tripartition_gap_bound_random(rng):
    for _ in range(80):
        weights = {
            v: Fraction(rng.randint(0, 40), rng.randint(1, 8))
            for v in range(rng.randint(1, 15))
        }
        tri = greedy_tripartition(weights)
        assert tri.sums[0] <= tri.sums[1] <= tri.sums[2]
        assert tri.gap <= max(weights.values())
        placed = [v for part in tri.parts for v in part]
        assert sorted(placed) == sorted(weights)
        assert sum(tri.sums) == sum(weights.values())


def test_split_single_item():
    split = derandomized_split({(1,): 0}, 2, 2)
    assert split.u1 == (0,) and 1 in split.u2
    assert split.proper_count == 1
    assert split.expectation == Fraction(1, 4)


def test_split_two_items():
    split = derandomized_split({(1,): 0, (0,): 1}, 2, 2)
    assert split.proper_count == 1
    assert split.expectation == Fraction(1, 2)


def test_split_empty():
    split = derandomized_split({}, 4, 3)
    assert split.proper_count == 0 and split.expectation == 0
    assert split.u1 == () and split.u2 == (0, 1, 2, 3)


def test_split_takes_one_power_per_term():
    # One set of 999 vertices: each conditional term is ((k-1)/k)^j for the j
    # undecided vertices of the set, one power rather than j products.
    start = time.perf_counter()
    split = derandomized_split({tuple(range(999)): 1100}, 1200, 1000)
    assert time.perf_counter() - start < 1.0
    assert split.proper_count == 1
    assert split.expectation == Fraction(1, 1000) * Fraction(999, 1000) ** 999


def test_split_memory_follows_touched_vertices():
    # 10^5 untouched vertices keep one side each and their output tuples,
    # about 4.7 MiB; a list of items per vertex would add 6 MiB more.
    tracemalloc.start()
    try:
        split = derandomized_split({}, 10**5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.u2 == tuple(range(10**5))
    assert peak < 8 << 20


def test_split_rejects_apex_inside_set():
    with pytest.raises(ValueError):
        derandomized_split({(0, 1): 1}, 4, 3)
    for apex in (-1, 4):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            derandomized_split({(0, 1): apex}, 4, 3)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        derandomized_split({}, -1, 3)


def test_split_rejects_a_set_given_twice():
    # (0, 1) and (1, 0) are one 2-set; counting it twice would report
    # proper_count 2 and expectation 8/27 for a one-set family.
    with pytest.raises(ValueError, match="twice"):
        derandomized_split({(0, 1): 2, (1, 0): 3}, 4, 3)


def test_split_exact_expectation_formula(rng):
    for _ in range(20):
        k = rng.randint(2, 5)
        n = rng.randint(k + 1, 12)
        items = {}
        for _ in range(rng.randint(0, 10)):
            f = tuple(sorted(rng.sample(range(n), k - 1)))
            rest = [v for v in range(n) if v not in f]
            items[f] = rng.choice(rest)
        split = derandomized_split(items, n, k)
        expected = len(items) * Fraction(1, k) * Fraction(k - 1, k) ** (k - 1)
        assert split.expectation == expected
        assert split.proper_count >= expected
        assert sorted(split.u1 + split.u2) == list(range(n))
        assert not set(split.u1) & set(split.u2)
        # deterministic
        assert derandomized_split(items, n, k) == split


def full_recompute_split(assignments, n, k):
    """Reference method of conditional expectations: the whole sum, every step."""
    items = [(tuple(sorted(f)), v) for f, v in assignments.items()]
    p_u1, p_u2 = Fraction(1, k), Fraction(k - 1, k)
    side = [None] * n

    def conditional_expectation():
        total = Fraction(0)
        for f, v in items:
            if side[v] == 2 or any(side[u] == 1 for u in f):
                continue
            term = p_u1 if side[v] is None else Fraction(1)
            total += term * p_u2 ** sum(1 for u in f if side[u] is None)
        return total

    for v in range(n):
        side[v] = 1
        gain_u1 = conditional_expectation()
        side[v] = 2
        gain_u2 = conditional_expectation()
        side[v] = 1 if gain_u1 > gain_u2 else 2
    u1 = tuple(v for v in range(n) if side[v] == 1)
    u2 = tuple(v for v in range(n) if side[v] == 2)
    proper = sum(1 for f, v in items if side[v] == 1 and all(side[u] == 2 for u in f))
    return u1, u2, proper


def test_split_matches_full_recompute(rng):
    # Summing only the items touching v must place every vertex as the
    # full conditional expectation does.
    for _ in range(200):
        k = rng.randint(2, 5)
        n = rng.randint(k, 14)
        items = {}
        for _ in range(rng.randint(0, 30)):
            f = tuple(sorted(rng.sample(range(n), k - 1)))
            items[f] = rng.choice([v for v in range(n) if v not in f])
        split = derandomized_split(items, n, k)
        assert (split.u1, split.u2, split.proper_count) == full_recompute_split(items, n, k)


def reference_split(assignments, n, k):
    """`derandomized_split` as it was before the per-item counts: each side list rebuilt per vertex."""
    items = {tuple(sorted(f)): v for f, v in assignments.items()}
    p_u1, p_u2 = Fraction(1, k), Fraction(k - 1, k)
    expectation = len(items) * p_u1 * p_u2 ** (k - 1) if items else Fraction(0)
    side = [None] * n
    touching = {}
    for f, v in items.items():
        for u in (v, *f):
            touching.setdefault(u, []).append((f, v))

    def conditional_expectation(subset):
        total = Fraction(0)
        for f, v in subset:
            sv = side[v]
            if sv == 2:
                continue
            sides = [side[u] for u in f]
            if 1 not in sides:
                total += (p_u1 if sv is None else 1) * p_u2 ** sides.count(None)
        return total

    for v in range(n):
        side[v] = 2
        if v in touching:
            gain_u2 = conditional_expectation(touching[v])
            side[v] = 1
            gain_u1 = conditional_expectation(touching[v])
            side[v] = 1 if gain_u1 > gain_u2 else 2
    u1 = tuple(v for v in range(n) if side[v] == 1)
    u2 = tuple(v for v in range(n) if side[v] == 2)
    proper = sum(1 for f, v in items.items() if side[v] == 1 and all(side[u] == 2 for u in f))
    return u1, u2, proper, expectation


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_split_matches_reference_loop(data):
    # Sets of every size up to k-1 = 7 overlapping on few vertices, so the
    # items touching a vertex mix apexes and members in every state.
    k = data.draw(st.integers(2, 8), label="k")
    n = data.draw(st.integers(k, 12), label="n")
    items = {}
    for _ in range(data.draw(st.integers(0, 25), label="items")):
        f = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=k - 1, max_size=k - 1))))
        apexes = [v for v in range(n) if v not in f]
        items[f] = data.draw(st.sampled_from(apexes))
    split = derandomized_split(items, n, k)
    assert (split.u1, split.u2, split.proper_count, split.expectation) == reference_split(items, n, k)


def test_split_large_set_is_fast():
    # One 2999-set at k = 3000: the old loop rebuilt the set's side list at
    # each of its vertices, O(k^2), about 1.2 s.
    start = time.perf_counter()
    split = derandomized_split({tuple(range(2999)): 3500}, 4000, 3000)
    assert time.perf_counter() - start < 0.2
    assert split.proper_count == 1 and split.u1 == (3500,)
    assert split.expectation == Fraction(1, 3000) * Fraction(2999, 3000) ** 2999


def test_stability_full_star():
    report = stability_deficiency(full_star(10, 3, 0))
    assert report.vertex == 0 and report.deficiency == 0 and report.holds


def test_stability_two_disjoint_edges():
    report = stability_deficiency(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]))
    assert report.deficiency == 1
    # exact bound (24/25)^3 * C(5,2) = 13824/15625 * 10
    assert report.holds and Fraction(1) <= Fraction(13824, 15625) * 10


def test_stability_empty():
    report = stability_deficiency(Hypergraph(3, 6))
    assert report == (0, 0, True)
