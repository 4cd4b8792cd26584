import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ramseylab.cli import main
from ramseylab.inequalities import IneqRecord
from ramseylab import (
    Coloring,
    Hypergraph,
    InstanceTooLargeError,
    derandomized_split,
    find_mono_loose_path,
    parse_coloring,
    parse_hypergraph,
    serialize_coloring,
    serialize_hypergraph,
    verify_constant_inequalities,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_then_verify(tmp_path, capsys):
    target = tmp_path / "c.col"
    code, _, _ = run(capsys, "construct", "star-clique", "--k", "3", "--r", "2", "-o", str(target))
    assert code == 0
    coloring = parse_coloring(target.read_text())
    assert coloring.class_sizes() == {1: 15, 2: 20}
    code, _, _ = run(capsys, "verify-coloring", str(target))
    assert code == 0


def test_ramsey_exit_codes(tmp_path, capsys):
    witness = tmp_path / "w.col"
    code, _, _ = run(capsys, "ramsey", "--k", "2", "--r", "2", "--n", "4",
                     "--witness-out", str(witness))
    assert code == 1
    coloring = parse_coloring(witness.read_text())
    assert find_mono_loose_path(coloring, 3) is None
    code, _, _ = run(capsys, "ramsey", "--k", "2", "--r", "2", "--n", "5")
    assert code == 0
    code, _, _ = run(capsys, "ramsey", "--k", "2", "--r", "3", "--n", "6", "--budget", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ramsey", "--k", "2", "--r", "100000000000", "--n", "3"], 1),
        (["cnf", "--k", "2", "--r", "100000000000", "--n", "4", "-o", "{out}"], 64),
        (["construct", "star-clique", "--k", "3", "--r", "3000", "-o", "{out}"], 64),
        (["construct", "full-star", "--k", "3", "--n", "100000", "-o", "{out}"], 64),
        (["construct", "pair-cover", "--k", "4", "--n", "100000", "-o", "{out}"], 64),
    ],
)
def test_huge_r_exits_without_traceback(tmp_path, capsys, argv, code):
    # The DFS runs with at most C(n,k) colors, and the CNF and the
    # constructions are refused by their size before anything is allocated.
    target = tmp_path / "x.cnf"
    start = time.perf_counter()
    got, _, err = run(capsys, *[arg.format(out=target) for arg in argv])
    assert time.perf_counter() - start < 2.0
    assert got == code and "Traceback" not in err
    assert err == "" if code == 1 else err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_ramsey_summary_reports_depth(capsys):
    code, out, _ = run(capsys, "ramsey", "--k", "3", "--r", "3", "--n", "9", "--budget", "1000")
    assert code == 2
    assert out.strip() == "ramsey k=3 r=3 n=9: unknown (nodes=1001, prunes=647, max_depth=54)"


# Input files of the reproducibility test, written under the name each key gives.
JSON_INPUTS = {
    "hypergraph": "3 7 3\n0 1 2\n2 3 4\n4 5 6\n",
    "coloring": "2 4 6 2\n0 1 1\n0 2 1\n0 3 1\n1 2 2\n1 3 2\n2 3 2\n",
    "bipartite": json.dumps({"left": ["a", "b"], "right": ["c", "d"], "edges": [["a", "c"], ["a", "d"], ["b", "c"]]}),
    "weights": json.dumps({"weights": {"a": "5", "b": "4", "c": "3", "d": "2", "e": "1"}}),
    "split": json.dumps({"n": 5, "k": 3, "assignments": [[[0, 1], 2], [[3, 4], 0], [[1, 4], 3]]}),
}


JSON_COMMANDS = {
    "detect-path": ["detect", "--input", "{hypergraph}", "--pattern", "loose-path-3"],
    "detect-coloring": ["detect", "--input", "{coloring}", "--pattern", "loose-path-3", "--coloring"],
    "detect-star": ["detect", "--input", "{hypergraph}", "--pattern", "star"],
    "ramsey": ["ramsey", "--k", "2", "--r", "2", "--n", "5"],
    "turan": ["turan", "--k", "3", "--n", "7", "--pattern", "loose-path-3"],
    "construct": ["construct", "star-clique", "--k", "3", "--r", "2", "-o", "{out}"],
    "verify-coloring": ["verify-coloring", "{coloring}"],
    "cnf": ["cnf", "--k", "2", "--r", "2", "--n", "5", "-o", "{out}"],
    "constants": ["constants", "--k", "167", "--r-list", "2"],
    "bounds": ["bounds", "--k", "3", "--r", "2"],
    "machinery-peel": ["machinery", "peel", "--input", "{hypergraph}"],
    "machinery-prune": ["machinery", "prune", "--input", "{bipartite}"],
    "machinery-tripartition": ["machinery", "tripartition", "--input", "{weights}"],
    "machinery-split": ["machinery", "split", "--input", "{split}"],
}


@pytest.mark.parametrize("argv", list(JSON_COMMANDS.values()), ids=list(JSON_COMMANDS))
def test_json_payload_reproducible(tmp_path, capsys, argv):
    paths = {"out": str(tmp_path / "out")}
    for name, text in JSON_INPUTS.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    argv = [a.format(**paths) for a in argv] + ["--json"]
    (code1, out1, _), (code2, out2, _) = run(capsys, *argv), run(capsys, *argv)
    assert code1 == code2 and code1 in (0, 1)
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["payload"] and json.dumps(r1["payload"], sort_keys=True) == json.dumps(r2["payload"], sort_keys=True)


# Commands whose --json payload (and DIMACS file) must match golden_payloads.json
# byte for byte; the timing keys lie outside the payload.
GOLDEN_COMMANDS = {
    "ramsey-3-3-9": ["ramsey", "--k", "3", "--r", "3", "--n", "9"],
    "ramsey-2-4-8": ["ramsey", "--k", "2", "--r", "4", "--n", "8"],
    "turan-3-8-lp3": ["turan", "--k", "3", "--n", "8", "--pattern", "loose-path-3"],
    "cnf-3-2-7": ["cnf", "--k", "3", "--r", "2", "--n", "7", "-o", "{out}"],
    "constants-167": ["constants", "--k", "167", "--r-list", "1", "2", "3"],
    "bounds-3-2": ["bounds", "--k", "3", "--r", "2"],
}
GOLDEN = json.loads((Path(__file__).parent / "golden_payloads.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(GOLDEN_COMMANDS))
def test_json_payload_matches_golden(tmp_path, capsys, name):
    out = tmp_path / "out"
    code, text, _ = run(capsys, *[a.format(out=out) for a in GOLDEN_COMMANDS[name]], "--json")
    assert code in (0, 1)
    payload = json.loads(text)["payload"]
    assert json.dumps(payload, sort_keys=True) == json.dumps(GOLDEN["payloads"][name], sort_keys=True)
    if name in GOLDEN["dimacs_sha256"]:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["dimacs_sha256"][name]


def test_ramsey_json_reports_class_cap(capsys):
    # ex_2(10) = 9 and 4 * 9 < C(10,2), so the armed cap decides the instance.
    code, out, _ = run(capsys, "ramsey", "--k", "2", "--r", "4", "--n", "10", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["class_cap"] == 9 and report["payload"]["verdict"] == "holds"
    assert sorted(report["payload"]) == ["stats", "verdict", "witness"]
    assert set(report) == {"command", "parameters", "payload", "timing_ms", "phases_ms", "class_cap"}
    assert sorted(report["phases_ms"]) == ["build", "search", "verify"]


def test_detect_patterns(tmp_path, capsys):
    star_file = tmp_path / "star.hg"
    run(capsys, "construct", "full-star", "--k", "3", "--n", "6", "-o", str(star_file))
    code, _, _ = run(capsys, "detect", "--input", str(star_file), "--pattern", "loose-path-3")
    assert code == 0  # stars never carry the length-3 pattern
    code, _, _ = run(capsys, "detect", "--input", str(star_file), "--pattern", "loose-path-2")
    assert code == 1  # two star edges meeting only at the center
    code, out, _ = run(capsys, "detect", "--input", str(star_file), "--pattern", "star", "--json")
    assert code == 1
    payload = json.loads(out)["payload"]
    assert payload["center"] == 0 and payload["full_star"] is True


def test_detect_on_coloring(tmp_path, capsys):
    coloring_file = tmp_path / "c.col"
    run(capsys, "construct", "star-clique", "--k", "3", "--r", "3", "-o", str(coloring_file))
    code, _, _ = run(capsys, "detect", "--input", str(coloring_file),
                     "--pattern", "loose-path-3", "--coloring")
    assert code == 0


def test_turan_command(capsys):
    code, out, _ = run(capsys, "turan", "--k", "3", "--n", "6", "--pattern", "loose-path-3", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["max_edges"] == 20 and payload["status"] == "exact"
    extremal = parse_hypergraph(payload["extremal"])
    assert len(extremal) == 20


def test_turan_summary_reports_search(capsys):
    code, out, _ = run(capsys, "turan", "--k", "3", "--n", "8", "--pattern", "loose-path-3", "--budget", "100")
    assert code == 2
    expected = "turan k=3 n=8 pattern=loose-path-3: max_edges=21 (lower-bound-only, nodes=101, prunes=47)"
    assert out.strip() == expected
    code, out, _ = run(capsys, "turan", "--k", "3", "--n", "8", "--pattern", "loose-path-3")
    assert code == 0
    assert out.strip() == "turan k=3 n=8 pattern=loose-path-3: max_edges=21 (exact, nodes=1467, prunes=734)"


def test_turan_deep_search_exits_unknown(capsys):
    # C(50,2) = 1225 edges, deeper than the interpreter's recursion limit.
    code, out, _ = run(capsys, "turan", "--k", "2", "--n", "50", "--pattern", "loose-path-3", "--budget", "5000")
    assert code == 2
    assert "lower-bound-only, nodes=5001" in out


def test_turan_json_payload_keys(capsys):
    code, out, _ = run(capsys, "turan", "--k", "2", "--n", "6", "--pattern", "loose-path-2", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(ms >= 0 for ms in report["phases_ms"].values())
    assert sorted(report["phases_ms"]) == ["build", "search", "verify"]
    payload = report["payload"]
    assert sorted(payload) == ["extremal", "max_edges", "stats", "status"]
    assert sorted(payload["stats"]) == ["nodes", "prunes"]


def test_construct_pair_cover(tmp_path, capsys):
    target = tmp_path / "pc.hg"
    code, _, _ = run(capsys, "construct", "pair-cover", "--k", "4", "--n", "6",
                     "--pair", "0", "1", "-o", str(target))
    assert code == 0
    assert len(parse_hypergraph(target.read_text())) == 6


def test_cnf_command(tmp_path, capsys):
    target = tmp_path / "i.cnf"
    code, out, _ = run(capsys, "cnf", "--k", "2", "--r", "2", "--n", "4", "-o", str(target), "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["variables"] == 12 and payload["clauses"] == 30
    lines = target.read_text().splitlines()
    assert "p cnf 12 30" in lines


def test_constants_command(capsys):
    code, out, _ = run(capsys, "constants", "--k", "167", "--json")
    assert code == 0
    records = json.loads(out)["payload"]["records"]
    by_name = {rec["name"]: rec for rec in records}
    assert by_name["k_below_geometric"]["holds"] == "yes"


def test_constants_writes_certificates_past_the_digit_limit(capsys):
    # At k = 1500 the margins' numerators and denominators pass Python's
    # 4300-digit int-to-str limit; the certificates are still written in full.
    code, out, err = run(capsys, "constants", "--k", "1500", "--json")
    assert (code, err) == (0, "")
    records = json.loads(out)["payload"]["records"]
    report = verify_constant_inequalities(1500)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(rec.margin) for rec in report.records]
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, expected)) > 4300
    assert [rec["certificate_lo"] for rec in records] == [rec["certificate_hi"] for rec in records] == expected


def test_constants_summary_takes_no_margin(monkeypatch, capsys):
    # Without --json only the count of holding inequalities is printed, so no
    # certificate is written and no margin, whose gcds dominate large k, taken.
    expected = run(capsys, "constants", "--k", "167", "--r-list", "1", "2", "3")

    def refuse(self):
        raise AssertionError("margin taken")

    monkeypatch.setattr(IneqRecord, "margin", property(refuse))
    assert run(capsys, "constants", "--k", "167", "--r-list", "1", "2", "3") == expected
    assert expected == (0, "constants k=167 A=250: 9/10 inequalities hold\n", "")


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "3", "--r", "5", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert (payload["lower"], payload["upper_kr"], payload["upper_250r"]) == (11, 15, 1250)


def test_machinery_peel(tmp_path, capsys):
    source = tmp_path / "h.hg"
    source.write_text("2 4 4\n0 1\n0 2\n1 2\n2 3\n")
    code, out, _ = run(capsys, "machinery", "peel", "--input", str(source), "--json")
    assert code == 0
    result = parse_hypergraph(json.loads(out)["payload"]["result"])
    assert result.edges == ((0, 1), (0, 2), (1, 2))


def test_machinery_peel_rejects_1_graph(tmp_path, capsys):
    # Peeling would empty this 1-graph; it is a usage error, not an internal one.
    source = tmp_path / "h.hg"
    source.write_text("1 2 2\n0\n1\n")
    code, out, err = run(capsys, "machinery", "peel", "--input", str(source))
    assert (code, out) == (64, "")
    assert "k >= 2" in err and "internal" not in err


def test_machinery_prune(tmp_path, capsys):
    source = tmp_path / "b.json"
    source.write_text(json.dumps({
        "left": ["a", "b"],
        "right": ["c", "d", "e", "f"],
        "edges": [["a", "c"], ["a", "d"], ["a", "e"], ["a", "f"], ["b", "c"]],
    }))
    code, out, _ = run(capsys, "machinery", "prune", "--input", str(source), "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["left"] == ["a"] and len(payload["edges"]) == 4


def test_machinery_tripartition(tmp_path, capsys):
    source = tmp_path / "w.json"
    source.write_text(json.dumps({"weights": {"a": "5", "b": "4", "c": "3", "d": "2", "e": "1"}}))
    code, out, _ = run(capsys, "machinery", "tripartition", "--input", str(source), "--json")
    assert code == 0
    assert json.loads(out)["payload"]["sums"] == ["5", "5", "5"]


def test_machinery_split(tmp_path, capsys):
    source = tmp_path / "s.json"
    source.write_text(json.dumps({"n": 2, "k": 2, "assignments": [[[1], 0]]}))
    code, out, _ = run(capsys, "machinery", "split", "--input", str(source), "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["u1"] == [0] and payload["proper_count"] == 1
    assert payload["expectation"] == "1/4"


@pytest.mark.parametrize(
    "op, data",
    [
        ("split", {"n": 2, "k": 2, "assignments": 5}),
        ("split", {"n": "3", "k": 2, "assignments": [[[1], 0]]}),
        ("tripartition", {"weights": [1, 2]}),
        ("tripartition", {"weights": {"a": None}}),
        ("prune", {"left": ["a"], "right": ["b"], "edges": [5]}),
        ("prune", {"left": 0, "right": ["b"], "edges": []}),
        ("prune", [{"left": ["a"], "right": ["b"], "edges": [["a", "b"]]}]),
        ("tripartition", [{"weights": {"a": "1"}}]),
        ("split", [{"n": 2, "k": 2, "assignments": [[[1], 0]]}]),
        ("split", {"n": 4, "k": 3, "assignments": [[[0, 1], 2], [[1, 0], 3]]}),
        ("split", {"n": 4, "k": 3, "assignments": [[[0, 1], 2], [[0, 1], 3]]}),
    ],
)
def test_machinery_malformed_json_is_a_usage_error(tmp_path, capsys, op, data):
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(data))
    code, _, err = run(capsys, "machinery", op, "--input", str(source))
    assert code == 64
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n, k, code", [(3, 10**7, 0), (10**9, 2, 64)])
def test_machinery_split_cost_follows_its_input(tmp_path, capsys, n, k, code):
    # No set needs ((k-1)/k)^(k-1), and 10^9 vertices are refused before
    # a side per vertex is allocated.
    source = tmp_path / "s.json"
    source.write_text(json.dumps({"n": n, "k": k, "assignments": []}))
    start = time.perf_counter()
    got, out, err = run(capsys, "machinery", "split", "--input", str(source), "--json")
    assert time.perf_counter() - start < 2.0
    assert got == code and "Traceback" not in err
    if code == 0:
        assert json.loads(out)["payload"] == {"expectation": "0", "proper_count": 0, "u1": [], "u2": [0, 1, 2]}
    else:
        assert err.startswith("error: ") and "vertices" in err


def test_machinery_split_refuses_quadratic_terms(tmp_path, capsys):
    # With a set given the split's terms take about k²·log2(k) bits, so one
    # 3999-set at k = 4000 (k² past INDEX_GUARD) is refused before them.
    assignments = {tuple(range(3999)): 3999}
    with pytest.raises(InstanceTooLargeError):
        derandomized_split(assignments, 4000, 4000)
    source = tmp_path / "s.json"
    source.write_text(json.dumps({"n": 4000, "k": 4000, "assignments": [[list(f), v] for f, v in assignments.items()]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "machinery", "split", "--input", str(source), "--json")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (64, "") and "Traceback" not in err
    assert err.startswith("error: ") and "index guard" in err


def long_str(x):
    """str(x) for 0 <= x < 10^8000, written in two parts under Python's 4300-digit int-to-str limit."""
    high, low = divmod(x, 10**4000)
    return f"{high}{low:04000d}" if high else str(low)


def test_machinery_prints_results_past_the_digit_limit(tmp_path, capsys):
    # 10^5000 and 10^-5000 have 5001 digits, and the split's expectation
    # over 4700: all past Python's 4300-digit int-to-str limit, yet written
    # in full, as text and as JSON.
    big = "1" + "0" * 5000
    source = tmp_path / "w.json"
    source.write_text(json.dumps({"weights": {"a": "1e5000", "b": "3", "c": "1e-5000"}}))
    code, out, err = run(capsys, "machinery", "tripartition", "--input", str(source), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert payload["sums"] == ["1/" + big, "3", big]
    assert payload["gap"] == "9" * 10000 + "/" + big
    code, out, _ = run(capsys, "machinery", "tripartition", "--input", str(source))
    assert (code, out) == (0, f"tripartition: sums 1/{big}, 3, {big}\n")
    assignments = {tuple(range(1499)): 1550}
    source.write_text(json.dumps({"n": 1600, "k": 1500, "assignments": [[list(f), v] for f, v in assignments.items()]}))
    code, out, err = run(capsys, "machinery", "split", "--input", str(source), "--json")
    assert (code, err) == (0, "")
    q = derandomized_split(assignments, 1600, 1500).expectation
    assert len(long_str(q.denominator)) > 4300
    assert json.loads(out)["payload"]["expectation"] == f"{long_str(q.numerator)}/{long_str(q.denominator)}"


@pytest.mark.parametrize("weight", ["1e10000000", "-2.5E-100001", "1e1_000_000", " 3e+0100001 "])
def test_tripartition_refuses_huge_exponents_at_once(tmp_path, capsys, weight):
    # Fraction's time grows with the exponent, not with the text: "1e10000000"
    # alone took seconds.  Exponents past ±10^5 are refused before parsing.
    source = tmp_path / "w.json"
    source.write_text(json.dumps({"weights": {"a": weight}}))
    start = time.perf_counter()
    code, _, err = run(capsys, "machinery", "tripartition", "--input", str(source))
    assert time.perf_counter() - start < 1.0
    assert code == 64 and err.startswith("error: ") and "exponent" in err


def test_tripartition_accepts_the_largest_exponent(tmp_path, capsys):
    source = tmp_path / "w.json"
    source.write_text(json.dumps({"weights": {"a": "1e100000", "b": "1E-1_0_0000"}}))
    code, out, _ = run(capsys, "machinery", "tripartition", "--input", str(source), "--json")
    assert code == 0
    assert json.loads(out)["payload"]["sums"] == ["0", "1/1" + "0" * 100000, "1" + "0" * 100000]


def test_coloring_header_with_huge_binomial_is_a_parse_error(tmp_path, capsys):
    # C(10^11, 10^6) has about 2·10^7 bits; m = 5 is refused without it.
    source = tmp_path / "c.col"
    source.write_text("1000000 100000000000 5 1\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "verify-coloring", str(source))
    assert time.perf_counter() - start < 2.0
    assert code == 65 and err.startswith("error: line 1: m=5 does not equal")


# Drawn inputs for the exit-code sweep: small JSON values with the machinery
# field names, and line soups, hypergraphs and colorings as text.
JSON_VALUES = st.recursive(
    st.one_of(st.integers(-3, 9), st.text(max_size=3), st.just(True), st.just(float("nan"))),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=2), inner, max_size=4)),
    max_leaves=10,
)
SMALL_INTS = st.lists(st.integers(-1, 6), max_size=4)
MACHINERY_FIELDS = {
    "n": st.integers(-1, 8),
    "k": st.integers(-1, 5),
    "assignments": st.lists(st.tuples(SMALL_INTS, st.integers(-1, 6)), max_size=4),
    "weights": st.dictionaries(st.text(max_size=2), st.one_of(st.integers(-2, 9), st.sampled_from(["1/2", "-3", "x"]))),
    "left": st.lists(st.integers(0, 3), max_size=8) | st.lists(st.text(max_size=1), max_size=4),
    "right": st.lists(st.integers(3, 7), max_size=10),
    "edges": st.lists(st.tuples(st.integers(0, 3), st.integers(4, 7)), max_size=3),
}
JSON_OBJECTS = st.fixed_dictionaries(MACHINERY_FIELDS) | st.fixed_dictionaries(
    {}, optional={name: st.one_of(field, JSON_VALUES) for name, field in MACHINERY_FIELDS.items()}
)
TEXT_LINES = st.lists(
    st.one_of(SMALL_INTS.map(lambda xs: " ".join(map(str, xs))), st.sampled_from(["", "#", "x", "1.5", "10000000000"])),
    max_size=8,
).map("\n".join)


@st.composite
def hypergraph_texts(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 7))
    pool = list(itertools.combinations(range(n), k))
    return serialize_hypergraph(Hypergraph(k, n, draw(st.lists(st.sampled_from(pool), max_size=10))))


@st.composite
def coloring_texts(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 6))
    r = draw(st.integers(1, 3))
    return serialize_coloring(Coloring(k, n, r, {e: draw(st.integers(1, r)) for e in itertools.combinations(range(n), k)}))


def sweep(tmp_path, capsys, argv, text):
    source = tmp_path / "input"
    source.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, *[str(source) if arg == "{input}" else arg for arg in argv])
    assert code in (0, 1, 2, 64, 65), (code, err)
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(op=st.sampled_from(["peel", "prune", "tripartition", "split"]), data=JSON_OBJECTS, as_json=st.booleans())
@example(op="split", data={"n": 5, "k": 3, "assignments": [[[0, 1], 2], [[0], 3]]}, as_json=False)
def test_machinery_exit_codes_on_drawn_json(tmp_path, capsys, op, data, as_json):
    argv = ["machinery", op, "--input", "{input}"] + ["--json"] * as_json
    sweep(tmp_path, capsys, argv, json.dumps(data))


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.sampled_from(
        [["detect", "--input", "{input}", "--pattern", p] + c for p in ("loose-path-3", "loose-path-2", "star") for c in ([], ["--coloring"])]
        + [["verify-coloring", "{input}"]]
    ),
    text=st.one_of(TEXT_LINES, hypergraph_texts(), coloring_texts()),
    as_json=st.booleans(),
)
def test_detect_exit_codes_on_drawn_text(tmp_path, capsys, argv, text, as_json):
    sweep(tmp_path, capsys, argv + ["--json"] * as_json, text)


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "ramsey", "--k", "2")[0] == 64
    assert run(capsys, "construct", "star-clique", "--k", "3", "-o", "/tmp/x")[0] == 64
    assert run(capsys, "detect", "--input", "/nonexistent", "--pattern", "star")[0] == 64


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("3 5 1\n0 1 7\n")
    code, _, err = run(capsys, "detect", "--input", str(bad), "--pattern", "loose-path-3")
    assert code == 65
    assert "line 2" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
