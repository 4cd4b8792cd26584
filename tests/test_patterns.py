import itertools
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from ramseylab import (
    Coloring,
    Hypergraph,
    LoosePathWitness,
    ParseError,
    complete_hypergraph,
    find_loose_path,
    find_mono_loose_path,
    full_star,
    is_full_star,
    is_star,
    pair_cover,
    parse_coloring,
    peel_min_degree,
    serialize_coloring,
    star_clique_coloring,
)
from ramseylab import hypergraphs
from ramseylab.cli import main
from conftest import oracle_has_loose_path, random_hypergraph


def test_find_loose_path_complete_host():
    host = complete_hypergraph(7, 3)
    w = find_loose_path(host, 3)
    assert w is not None and w.verify(host)
    # first witness in canonical edge-triple order
    assert w.edges == ((0, 1, 2), (0, 3, 4), (3, 5, 6))
    assert w.links == (0, 3)


def test_find_loose_path_too_few_vertices():
    assert find_loose_path(complete_hypergraph(6, 3), 3) is None


def test_find_loose_path_star_host():
    assert find_loose_path(full_star(10, 3, 0), 3) is None


def test_star_host_exits_before_incidence(monkeypatch):
    # A star holds no loose 3-path, so length 3 returns before the incidence
    # and the component merge are built, even when a component is large enough.
    def refuse(self):
        raise AssertionError("incidence built")

    monkeypatch.setattr(Hypergraph, "incidence", refuse)
    assert find_loose_path(full_star(10, 3, 0), 3) is None
    assert find_loose_path(full_star(9, 2, 4), 3) is None


def test_find_loose_path_length_two():
    host = Hypergraph(3, 6, [(0, 1, 2), (0, 3, 4)])
    w = find_loose_path(host, 2)
    assert w is not None and w.verify(host) and w.links == (0,)
    assert find_loose_path(Hypergraph(3, 6, [(0, 1, 2)]), 2) is None


def test_find_loose_path_invalid_length():
    with pytest.raises(ValueError):
        find_loose_path(complete_hypergraph(5, 2), 4)


def test_completeness_on_complete_hosts():
    for k in (2, 3, 4):
        for n in range(k, 3 * k + 1):
            host = complete_hypergraph(n, k)
            assert (find_loose_path(host, 3) is not None) == (n >= 3 * k - 2)
            assert (find_loose_path(host, 2) is not None) == (n >= 2 * k - 1)


def test_soundness_against_oracle(rng):
    for _ in range(150):
        k = rng.randint(2, 4)
        n = rng.randint(k, 8)
        h = random_hypergraph(rng, n, k, density=rng.choice([0.2, 0.4, 0.7]))
        for length in (2, 3):
            witness = find_loose_path(h, length)
            assert (witness is not None) == oracle_has_loose_path(h, length)
            if witness is not None:
                assert witness.verify(h)


def test_soundness_exhaustive_tiny():
    # every graph on 4 vertices and every 3-graph on 5 vertices
    for n, k in [(4, 2), (5, 3)]:
        population = list(itertools.combinations(range(n), k))
        for bits in range(2 ** len(population)):
            h = Hypergraph(k, n, [e for i, e in enumerate(population) if (bits >> i) & 1])
            for length in (2, 3):
                assert (find_loose_path(h, length) is not None) == oracle_has_loose_path(
                    h, length
                )


def first_loose_path(h):
    """Edges of the first ordered edge triple, lexicographically, forming a loose 3-path."""
    for i, j, t in itertools.permutations(range(len(h.edges)), 3):
        e1, e2, e3 = (set(h.edges[x]) for x in (i, j, t))
        if len(e1 & e2) == 1 and len(e2 & e3) == 1 and not e1 & e3:
            return tuple(h.edges[x] for x in (i, j, t))
    return None


def test_component_exit_against_oracle(rng):
    # Disjoint unions of small random hosts: the support often reaches 3k-2
    # vertices while no component does, which only the component exit sees.
    for _ in range(150):
        k = rng.randint(2, 3)
        edges, n = [], 0
        for _ in range(rng.randint(1, 3)):
            part = random_hypergraph(rng, rng.randint(k, 3 * k - 1), k, density=rng.choice([0.2, 0.4, 0.7]))
            edges += [tuple(v + n for v in e) for e in part.edges]
            n += part.n
        h = Hypergraph(k, n, edges)
        witness = find_loose_path(h, 3)
        assert (witness is not None) == oracle_has_loose_path(h, 3)
        if witness is not None:
            assert witness.verify(h) and witness.edges == first_loose_path(h)


def test_component_exit_is_near_linear():
    # Merging each edge's smaller components into its largest keeps a long
    # connected host cheap; rebuilding the union per edge took about 8 s here.
    h = Hypergraph(2, 20000, [(i, i + 1) for i in range(19999)])
    start = time.perf_counter()
    assert find_loose_path(h, 3).edges == ((0, 1), (1, 2), (2, 3))
    assert time.perf_counter() - start < 1.0


def two_loop_find_loose_path(h, length):
    """`find_loose_path` with one partner loop per length, kept as a reference for its witnesses."""
    edges = h.edges
    if not edges:
        return None
    inc = h.incidence()

    if length == 2:
        for i, e1 in enumerate(edges):
            s1 = set(e1)
            partners = sorted({j for v in e1 for j in inc[v] if j > i})
            for j in partners:
                shared = s1.intersection(edges[j])
                if len(shared) == 1:
                    return LoosePathWitness((e1, edges[j]), (next(iter(shared)),))
        return None

    comp = {v: {v} for v in h.support()}  # connected components, merged per edge
    for e in edges:
        if any(comp[v] is not comp[e[0]] for v in e):
            merged = set().union(*(comp[v] for v in e))
            comp.update(dict.fromkeys(merged, merged))
    if is_star(h) is not None or max(map(len, comp.values())) < 3 * h.k - 2:
        return None

    for i, e1 in enumerate(edges):
        s1 = set(e1)
        partners = sorted({j for v in e1 for j in inc[v] if j != i})
        for j in partners:
            e2 = edges[j]
            shared12 = s1.intersection(e2)
            if len(shared12) != 1:
                continue
            a = next(iter(shared12))
            s2 = set(e2)
            thirds = sorted({t for v in e2 for t in inc[v] if t != i and t != j})
            for t in thirds:
                e3 = edges[t]
                shared23 = s2.intersection(e3)
                if len(shared23) != 1:
                    continue
                if s1.intersection(e3):
                    continue
                return LoosePathWitness((e1, e2, e3), (a, next(iter(shared23))))
    return None


def test_find_loose_path_matches_two_loop_walk(rng):
    # The first witness, edges and links, on random hosts of both lengths.
    # The denser hosts on 3k-2 or more vertices are non-stars with a large
    # component, so the length-3 loop runs on them; count the ones it finds.
    found = 0
    for _ in range(400):
        k = rng.randint(2, 4)
        h = random_hypergraph(rng, rng.randint(k, 3 * k + 2), k, density=rng.choice([0.05, 0.2, 0.4, 0.7]))
        for length in (2, 3):
            witness = find_loose_path(h, length)
            assert witness == two_loop_find_loose_path(h, length)
        found += witness is not None
    assert found >= 100


def test_detection_reads_edges_not_declared_vertices():
    # Two edges declaring 10^6 vertices: no call may build a list per vertex.
    h = Hypergraph(3, 10**6, [(0, 1, 2), (2, 3, 4)])
    tracemalloc.start()
    try:
        assert find_loose_path(h, 3) is None
        assert find_loose_path(h, 2).links == (2,)
        assert is_star(h) == 2 and not is_full_star(h)
        assert (h.degree(2), h.degree(10**6 - 1), h.max_degree()) == (2, 0, (2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_determinism():
    h = complete_hypergraph(8, 3)
    assert find_loose_path(h, 3) == find_loose_path(h, 3)


def test_witness_verify_rejects_foreign_edges():
    host = complete_hypergraph(7, 3)
    w = find_loose_path(host, 3)
    smaller = Hypergraph(3, 7, [(0, 1, 2)])
    assert not w.verify(smaller)
    # Edges of the host in the wrong pattern: a wrong length or link count,
    # a link that is not the shared vertex, and end edges that meet.
    assert not LoosePathWitness(w.edges[:1], ()).verify(host)
    assert not LoosePathWitness(w.edges, w.links[:1]).verify(host)
    assert not LoosePathWitness(w.edges, (1, 3)).verify(host)
    assert not LoosePathWitness(((0, 1, 2), (0, 3, 4), (1, 3, 5)), (0, 3)).verify(host)


def test_is_star_examples():
    assert is_star(Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)])) == 0
    assert is_star(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])) is None
    assert is_star(Hypergraph(3, 4, [(0, 1, 2)])) == 0  # smallest of the edge
    assert is_star(Hypergraph(3, 4)) == 0  # edgeless convention


def test_is_full_star():
    assert is_full_star(full_star(6, 3, 2))
    assert not is_full_star(Hypergraph(3, 6, [(0, 1, 2), (0, 3, 4)]))
    assert not is_full_star(Hypergraph(3, 6))


def test_stars_never_contain_length_three(rng):
    for _ in range(20):
        n, k = rng.randint(5, 10), rng.randint(2, 4)
        if k > n:
            continue
        center = rng.randrange(n)
        rest = [v for v in range(n) if v != center]
        all_edges = [tuple(sorted((center,) + c)) for c in itertools.combinations(rest, k - 1)]
        sub = [e for e in all_edges if rng.random() < 0.6]
        assert find_loose_path(Hypergraph(k, n, sub), 3) is None


def test_mono_loose_path_star_clique_free():
    assert find_mono_loose_path(star_clique_coloring(3, 2), 3) is None


def test_mono_loose_path_single_color():
    n = 7
    coloring = Coloring(3, n, 1, {e: 1 for e in itertools.combinations(range(n), 3)})
    found = find_mono_loose_path(coloring, 3)
    assert found is not None
    color, witness = found
    assert color == 1 and witness.verify(complete_hypergraph(n, 3))


def test_every_two_coloring_of_k5_has_mono_path():
    edges = list(itertools.combinations(range(5), 2))
    for bits in range(2 ** len(edges)):
        assignment = {e: 1 + ((bits >> i) & 1) for i, e in enumerate(edges)}
        coloring = Coloring(2, 5, 2, assignment)
        assert find_mono_loose_path(coloring, 3) is not None


def test_coloring_validation():
    edges = list(itertools.combinations(range(4), 2))
    with pytest.raises(ValueError):
        Coloring(2, 4, 2, {e: 1 for e in edges[:-1]})  # not total
    with pytest.raises(ValueError):
        Coloring(2, 4, 2, {e: 3 for e in edges})  # color out of range
    with pytest.raises(ValueError, match="colored twice"):
        Coloring(2, 4, 2, {**{e: 1 for e in edges}, (1, 0): 2})
    for k, n, r, message in [(1, 4, 2, "uniformity"), (2, -1, 2, "vertex count"), (2, 4, 0, "color count")]:
        with pytest.raises(ValueError, match=message):
            Coloring(k, n, r, {})
    for k, n, r in [(2.0, 4, 2), (2, 4.0, 2), (2, 4, 2.0), (2, 4, Fraction(2))]:
        with pytest.raises(TypeError):
            Coloring(k, n, r, {e: 1 for e in edges})
    coloring = Coloring(2, 4, 2, {e: 1 for e in edges})
    for color in (0, 3):
        with pytest.raises(ValueError, match="outside 1..2"):
            coloring.color_class(color)


def test_coloring_refuses_non_integer_colors():
    # 1.5 and True compare within 1..2, yet neither is a color: such a coloring
    # broke `class_sizes` (KeyError: 1.5) and wrote text `parse_coloring` refused.
    with pytest.raises(ValueError, match=r"color 1\.5 outside the integers 1\.\.2"):
        Coloring(2, 3, 2, {(0, 1): 1.5, (0, 2): True, (1, 2): 2})
    for color in (True, 1.0, Fraction(1), 2.0):
        with pytest.raises(ValueError, match=r"outside the integers 1\.\.2"):
            Coloring(2, 3, 2, {(0, 1): 1, (0, 2): color, (1, 2): 2})
    coloring = Coloring(2, 3, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    assert coloring.class_sizes() == {1: 2, 2: 1}
    assert parse_coloring(serialize_coloring(coloring)) == coloring


def test_coloring_round_trip():
    coloring = star_clique_coloring(3, 3)
    text = serialize_coloring(coloring)
    assert parse_coloring(text) == coloring
    assert serialize_coloring(parse_coloring(text)) == text


def test_coloring_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_coloring("2 4 5 2\n")  # m != C(4,2)
    assert err.value.line == 1
    text = "2 3 3 2\n0 1 1\n0 2 1\n0 2 2\n"
    with pytest.raises(ParseError) as err:
        parse_coloring(text)  # duplicate edge
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_coloring("2 3 3 2\n0 1 9\n0 2 1\n1 2 1\n")  # color out of range
    assert err.value.line == 2


def test_color_class_partitions_complete():
    coloring = star_clique_coloring(3, 3)
    total = sum(len(coloring.color_class(c)) for c in range(1, 4))
    assert total == comb(coloring.n, coloring.k)


@pytest.fixture
def edge_checks(monkeypatch):
    """Count the calls of hypergraphs.canonical_edge, under every module name it is imported as."""
    original, calls = hypergraphs.canonical_edge, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ramseylab") and getattr(module, "canonical_edge", None) is original:
            monkeypatch.setattr(module, "canonical_edge", counted)
    return calls


def test_star_clique_coloring_builds_its_edges_checked(edge_checks):
    star_clique_coloring(5, 4)
    assert not edge_checks


def test_built_hypergraphs_skip_the_edge_check(edge_checks):
    sparse = Hypergraph(3, 9, [*itertools.combinations(range(7), 3), (6, 7, 8)])
    del edge_checks[:]
    built = [complete_hypergraph(9, 3), peel_min_degree(sparse), full_star(9, 3, center=4), pair_cover(9, 3, (5, 2))]
    assert not edge_checks
    assert [len(h) for h in built] == [84, 35, 28, 7]
    for h in built:  # already canonical and in order, as the public constructor would leave them
        assert Hypergraph(h.k, h.n, h.edges).edges == h.edges


def test_verify_coloring_checks_each_edge_once(tmp_path, capsys, edge_checks):
    target = tmp_path / "star-clique.txt"
    target.write_text(serialize_coloring(star_clique_coloring(5, 4)), encoding="utf-8")
    del edge_checks[:]
    assert main(["verify-coloring", str(target)]) == 0
    capsys.readouterr()
    assert len(edge_checks) == comb(15, 5) == 3003  # the parser's check; nothing after it checks again


def test_public_constructors_check_every_edge(edge_checks):
    edges = list(itertools.combinations(range(7), 3))
    Hypergraph(3, 7, edges[::2])
    assert len(edge_checks) == len(edges[::2])
    del edge_checks[:]
    Coloring(3, 7, 2, {e: 1 + i % 2 for i, e in enumerate(edges)})
    assert len(edge_checks) == len(edges)


class CountingTuple(tuple):
    """A tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def count(self, value):
        self.passes += 1
        return super().count(value)

    def index(self, *args):
        self.passes += 1
        return super().index(*args)


def reference_mono_loose_path(coloring, length):
    """One full scan of the coloring per color, colors ascending."""
    for color in range(1, coloring.r + 1):
        edges = [e for e, c in coloring.items() if c == color]
        witness = find_loose_path(Hypergraph(coloring.k, coloring.n, edges), length) if edges else None
        if witness is not None:
            return color, witness
    return None


def random_colorings(rng):
    for k, n in ((3, 7), (2, 6)):
        edges = list(itertools.combinations(range(n), k))
        for r in range(1, 7):
            for _ in range(8):
                yield Coloring(k, n, r, {e: rng.randint(1, r) for e in edges})
            # leave colors unused: only two of the r colors, the largest among them
            used = (r, max(1, r // 2))
            yield Coloring(k, n, r, {e: rng.choice(used) for e in edges})


def test_find_mono_loose_path_matches_per_color_loop(rng):
    colorings = list(random_colorings(rng)) + [star_clique_coloring(4, 30), star_clique_coloring(3, 5)]
    for coloring in colorings:
        for length in (2, 3):
            assert find_mono_loose_path(coloring, length) == reference_mono_loose_path(coloring, length)


def test_find_mono_loose_path_reads_the_assignment_once(rng):
    edges = list(itertools.combinations(range(7), 3))
    coloring = Coloring(3, 7, 5, {e: rng.randint(2, 5) for e in edges})
    coloring.colors = CountingTuple(coloring.colors)
    find_mono_loose_path(coloring, 3)
    assert coloring.colors.passes == 1


def test_coloring_keeps_one_color_per_edge():
    tracemalloc.start()
    try:
        coloring = star_clique_coloring(4, 30)  # 73,815 edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coloring.colors) == comb(coloring.n, 4) == 73815
    assert peak < 2 << 20


def test_private_coloring_constructor_checks_count_and_range():
    assert Coloring._checked(2, 4, 2, [1, 2, 1, 2, 1, 2]).class_sizes() == {1: 3, 2: 3}
    for colors in ([1] * 5, [1] * 7, [1] * 5 + [3], [0] + [1] * 5):
        with pytest.raises(ValueError):
            Coloring._checked(2, 4, 2, colors)
    assert Coloring._checked(3, 2, 1, []).colors == ()  # K^(3)_2 has no edge
