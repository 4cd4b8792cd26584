import itertools
from math import comb

import pytest

from ramseylab import (
    Hypergraph,
    ParseError,
    complete_hypergraph,
    parse_hypergraph,
    serialize_hypergraph,
)
from conftest import random_hypergraph


def test_complete_counts():
    assert len(complete_hypergraph(5, 3)) == 10
    assert len(complete_hypergraph(4, 2)) == 6


def test_complete_invalid_parameters():
    with pytest.raises(ValueError):
        complete_hypergraph(3, 4)  # k > n
    with pytest.raises(ValueError):
        complete_hypergraph(5, 1)


def test_edges_canonical_order():
    h = Hypergraph(2, 4, [(3, 2), (1, 0), (0, 2)])
    assert h.edges == ((0, 1), (0, 2), (2, 3))
    assert (2, 0) in h
    assert (1, 3) not in h


def test_edge_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, 5, [(0, 1)])  # wrong arity
    with pytest.raises(ValueError):
        Hypergraph(3, 5, [(0, 1, 1)])  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(3, 5, [(0, 1, 7)])  # out of range


def test_degree_examples():
    assert complete_hypergraph(5, 3).degree(0) == 6
    assert Hypergraph(3, 6).degree(2) == 0
    assert Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)]).degree(0) == 2
    with pytest.raises(ValueError):
        complete_hypergraph(5, 3).degree(5)


def test_max_degree_examples():
    star = Hypergraph(3, 6, [(0,) + rest for rest in itertools.combinations(range(1, 6), 2)])
    assert star.max_degree() == (0, comb(5, 2))
    two_disjoint = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
    assert two_disjoint.max_degree() == (0, 1)  # tie breaks to the smallest id
    assert complete_hypergraph(4, 2).max_degree() == (0, 3)
    assert Hypergraph(3, 4).max_degree() == (0, 0)


def test_complete_degrees_uniform():
    for n, k in [(5, 2), (6, 3), (7, 4)]:
        h = complete_hypergraph(n, k)
        assert all(h.degree(v) == comb(n - 1, k - 1) for v in range(n))


def test_parse_simple():
    h = parse_hypergraph("3 5 1\n0 1 2\n")
    assert h.k == 3 and h.n == 5 and h.edges == ((0, 1, 2),)


def test_parse_comments_and_blanks():
    h = parse_hypergraph("# a comment\n\n2 4 2\n0 1\n# mid\n2 3\n")
    assert h.edges == ((0, 1), (2, 3))


def test_serialize_parse_round_trip(rng):
    for _ in range(30):
        h = random_hypergraph(rng, rng.randint(2, 9), 2 if rng.random() < 0.5 else 3)
        text = serialize_hypergraph(h)
        assert parse_hypergraph(text) == h
        assert serialize_hypergraph(parse_hypergraph(text)) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("3 5 1\n0 1 7\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_hypergraph("3 5\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_hypergraph("2 4 2\n0 1\n0 1\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_hypergraph("2 4 2\n0 1 2\n2 3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_hypergraph("2 4 3\n0 1\n2 3\n")  # fewer edges than declared


def test_parse_vertex_order_is_canonicalized():
    assert parse_hypergraph("2 4 1\n3 0\n").edges == ((0, 3),)
