"""The shared line reader against the two format parsers it replaced.

`reference_parse_hypergraph` and `reference_parse_coloring` are the parsers
as they stood before both formats were read by `hypergraphs.read_records`,
kept verbatim as oracles: the library must accept exactly the texts they
accept, with an equal result, and reject every other text with a ParseError
on the same line.
"""

import itertools
from math import comb

from hypothesis import example, given, settings, strategies as st

from ramseylab import (
    Coloring,
    Hypergraph,
    ParseError,
    parse_coloring,
    parse_hypergraph,
    serialize_coloring,
    serialize_hypergraph,
)


def reference_parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hypergraph file format.

    Line 1 is `k n m`, followed by m lines of k space-separated vertex ids.
    Lines starting with `#` and blank lines are ignored.
    """
    k = n = m = 0
    have_header = False
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not have_header:
            if len(fields) != 3:
                raise ParseError("header must be three integers 'k n m'", lineno)
            try:
                k, n, m = (int(f) for f in fields)
            except ValueError:
                raise ParseError("header must be three integers 'k n m'", lineno) from None
            if k < 1 or n < 0 or m < 0:
                raise ParseError(f"invalid header values k={k} n={n} m={m}", lineno)
            have_header = True
            continue
        if len(edges) == m:
            raise ParseError(f"more edge lines than the declared m={m}", lineno)
        if len(fields) != k:
            raise ParseError(f"expected {k} vertex ids, got {len(fields)}", lineno)
        try:
            verts = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError("vertex ids must be integers", lineno) from None
        for v in verts:
            if not 0 <= v < n:
                raise ParseError(f"vertex {v} outside 0..{n - 1}", lineno)
        e = tuple(sorted(verts))
        if len(set(e)) != k:
            raise ParseError(f"repeated vertex in edge {' '.join(fields)}", lineno)
        if e in seen:
            raise ParseError(f"duplicate edge {' '.join(map(str, e))}", lineno)
        seen.add(e)
        edges.append(e)
    if not have_header:
        raise ParseError("missing header line 'k n m'", max(last_line, 1))
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}", max(last_line, 1))
    return Hypergraph(k, n, edges)


def reference_parse_coloring(text: str) -> Coloring:
    """Parse the coloring file format.

    Line 1 is `k n m r` with m = C(n, k); then m lines `v1 .. vk c` covering
    every edge of the complete k-graph exactly once.
    """
    k = n = m = r = 0
    have_header = False
    assignment: dict[tuple[int, ...], int] = {}
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not have_header:
            if len(fields) != 4:
                raise ParseError("header must be four integers 'k n m r'", lineno)
            try:
                k, n, m, r = (int(f) for f in fields)
            except ValueError:
                raise ParseError("header must be four integers 'k n m r'", lineno) from None
            if k < 2 or n < 0 or m < 0 or r < 1:
                raise ParseError(f"invalid header values k={k} n={n} m={m} r={r}", lineno)
            if m != comb(n, k):
                raise ParseError(f"m={m} does not equal C({n},{k})={comb(n, k)}", lineno)
            have_header = True
            continue
        if len(assignment) == m:
            raise ParseError(f"more edge lines than the declared m={m}", lineno)
        if len(fields) != k + 1:
            raise ParseError(f"expected {k} vertex ids and a color, got {len(fields)} fields", lineno)
        try:
            values = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError("vertex ids and colors must be integers", lineno) from None
        verts, color = values[:-1], values[-1]
        for v in verts:
            if not 0 <= v < n:
                raise ParseError(f"vertex {v} outside 0..{n - 1}", lineno)
        e = tuple(sorted(verts))
        if len(set(e)) != k:
            raise ParseError(f"repeated vertex in edge {' '.join(fields[:-1])}", lineno)
        if not 1 <= color <= r:
            raise ParseError(f"color {color} outside 1..{r}", lineno)
        if e in assignment:
            raise ParseError(f"edge {' '.join(map(str, e))} colored twice", lineno)
        assignment[e] = color
    if not have_header:
        raise ParseError("missing header line 'k n m r'", max(last_line, 1))
    if len(assignment) != m:
        raise ParseError(f"expected {m} colored edges, found {len(assignment)}", max(last_line, 1))
    return Coloring(k, n, r, assignment)


def outcome(parse, serialize, text):
    try:
        return "parsed", serialize(parse(text))
    except ParseError as exc:
        return "error", exc.line


BLANK = st.sampled_from(["", "   ", "\t", "\x0c \u3000", "# c", "  # mid", "#", "#1 2 3"])
TOKEN = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["x", "1.5", "+2", "007", "-0", "#", "\u0663", "1_0"]),
)
INT_LINE = st.lists(st.integers(-1, 6), max_size=6).map(lambda xs: " ".join(map(str, xs)))
TOKEN_LINE = st.lists(TOKEN, min_size=1, max_size=5).map(" ".join)
ANY_LINE = st.one_of(BLANK, INT_LINE, INT_LINE, TOKEN_LINE)


@st.composite
def line_soups(draw):
    """A header of random width, then random lines, blanks and comments anywhere."""
    lines = draw(st.lists(BLANK, max_size=2))
    lines.append(" ".join(map(str, draw(st.lists(st.integers(-1, 6), min_size=2, max_size=5)))))
    lines += draw(st.lists(ANY_LINE, max_size=8))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def mutate(draw, lines):
    """Miscount m, then insert, delete, replace or duplicate a few lines of a
    valid text, and end it with a few blank or comment lines."""
    if draw(st.integers(0, 3)) == 0:
        header = lines[0].split()
        header[2] = str(int(header[2]) + draw(st.sampled_from([-1, 1])))
        lines[0] = " ".join(header)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "duplicate"]))
        if op == "insert" or not lines:
            lines.insert(at, draw(ANY_LINE))
        elif op == "delete":
            del lines[min(at, len(lines) - 1)]
        elif op == "replace":
            lines[min(at, len(lines) - 1)] = draw(ANY_LINE)
        else:
            lines.insert(at, lines[min(at, len(lines) - 1)])
    return "\n".join(lines + draw(st.lists(BLANK, max_size=2))) + "\n"


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 6))
    pool = list(itertools.combinations(range(n), k))
    return Hypergraph(k, n, draw(st.lists(st.sampled_from(pool), max_size=8)))


@st.composite
def colorings(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 6))
    r = draw(st.integers(1, 3))
    edges = itertools.combinations(range(n), k)
    return Coloring(k, n, r, {e: draw(st.integers(1, r)) for e in edges})


@st.composite
def hypergraph_texts(draw):
    return mutate(draw, serialize_hypergraph(draw(hypergraphs())).splitlines())


@st.composite
def coloring_texts(draw):
    return mutate(draw, serialize_coloring(draw(colorings())).splitlines())


@settings(max_examples=150, deadline=None, database=None)
@given(hypergraphs())
def test_hypergraph_round_trip(h):
    assert parse_hypergraph(serialize_hypergraph(h)) == h


@settings(max_examples=150, deadline=None, database=None)
@given(colorings())
def test_coloring_round_trip(coloring):
    assert parse_coloring(serialize_coloring(coloring)) == coloring


@settings(max_examples=600, deadline=None, database=None)
@given(st.one_of(line_soups(), hypergraph_texts()))
@example("# c\n3 5\n")
@example("\n2 4 1\n0 1\n0 2\n")
@example("2 4 2\n0 1\n# end\n")
@example("2 4 1\n0 1\n2 3\n# end\n")  # an extra edge line, then a comment
def test_hypergraph_parser_matches_reference(text):
    expected = outcome(reference_parse_hypergraph, serialize_hypergraph, text)
    assert outcome(parse_hypergraph, serialize_hypergraph, text) == expected


@settings(max_examples=600, deadline=None, database=None)
@given(st.one_of(line_soups(), coloring_texts()))
@example("# c\n2 4 5 2\n")  # a header error after a comment line
@example("\n\n2 3 3 0\n")
@example("2 3 3 2\n0 1 1\n0 1 2\n")
def test_coloring_parser_matches_reference(text):
    expected = outcome(reference_parse_coloring, serialize_coloring, text)
    assert outcome(parse_coloring, serialize_coloring, text) == expected
