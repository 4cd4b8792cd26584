"""The benchmark workloads: their calls, inputs and re-checks.

A workload is a fixed list of sequential calls into ramseylab's public API
(names in ``ramseylab.__all__`` plus ``ramseylab.cli.main``), built once per
pass from four call groups: ``ramsey-dfs``, ``turan-bnb``, ``index-detect``
and ``certify``.  The Ramsey and Turan parameter lists are constants and do
not depend on the seed.  The seed drives only the generated inputs: the
random k=3, n=12 detect hosts (``index-detect``), the derandomized-split
items and the peel host (``certify``).

After the timed region, ``check`` re-checks every result against the
reference table below and against independent re-checks.  A call that
raised or failed a check counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

# A workload is a sequence of call groups.  The four groups each load one
# part of the library; they run two to a workload so that a run holds enough
# passes to be steady on a shared machine within the benchmark's time budget.
WORKLOADS = {
    "search": ("ramsey-dfs", "turan-bnb"),
    "index-certify": ("index-detect", "certify"),
}

VERDICT_CALLS = ("decide_ramsey", "turan_max_edges", "exhaustive_decide", "cnf_satisfiable")
DECIDED = ("holds", "fails", "exact", "sat", "unsat")

# Fixed instance lists; none of them depends on the seed.
RAMSEY_DFS = ((2, 3, 8, 0), (3, 2, 8, 0), (2, 4, 8, 0), (3, 3, 9, 300_000), (2, 4, 10, 1_000_000))
INDEX_BUDGETED = ((3, 2, 10, 10), (3, 2, 11, 10), (3, 2, 12, 10))
TURAN = ((3, 7, 3, 0), (2, 8, 3, 0), (3, 8, 3, 500_000), (3, 7, 2, 0))
ORACLE = ((2, 3, 6), (3, 2, 6))
EXACT_ARGS = (Fraction(1, 2), 250, 1000, Fraction(1, 10**6))
INEQ_KS = range(250, 401)
INEQ_RS = (1, 2, 3)
RANDOM_HOSTS = 40
SPLIT_N, SPLIT_ITEMS, SPLIT_K = 100, 1000, 3
PEEL_N, PEEL_EDGES = 60, 900

# Reference table.  A Ramsey verdict must lie in its accepted set; budgeted
# instances may also end decided, as long as the verdict re-checks.
RAMSEY_REFERENCE = {
    (2, 3, 8): {"holds"},
    (3, 2, 8): {"holds"},
    (2, 4, 8): {"fails"},
    (3, 3, 9): {"unknown", "holds", "fails"},
    (2, 4, 10): {"unknown", "holds", "fails"},
    (3, 2, 10): {"unknown", "holds"},  # (3,2,8) holds, so every n >= 8 holds
    (3, 2, 11): {"unknown", "holds"},
    (3, 2, 12): {"unknown", "holds"},
    (2, 3, 6): {"holds"},
    (3, 2, 6): {"fails"},
}
# Turan: the known exact value where one is known, else None.
TURAN_EXACT = {(3, 7, 3): 20, (2, 8, 3): 7, (3, 8, 3): None, (3, 7, 2): 5}
LOOSE_COPIES_12_3 = 498_960
INEQ_FAILING = {("residual_clique_excess", 1)}  # (name, r) records that do not hold


@dataclass
class Call:
    """One timed call of a pass.

    ``index`` is the (n, k, length) copy index the call builds internally;
    the traced run times ``enumerate_loose_paths`` on it as an outside-in
    proxy for that build.
    """

    id: str
    layer: str
    fn: Callable[[], object]
    index: tuple[int, int, int] | None = None
    budget: int | None = None
    params: tuple = ()

    @property
    def verdict(self) -> bool:
        return self.id.split("(")[0] in VERDICT_CALLS


def outcome(result) -> str | None:
    """The verdict or status a verdict-returning call ended with."""
    if isinstance(result, bool):
        return "sat" if result else "unsat"
    return getattr(result, "verdict", None) or getattr(result, "status", None)


def _pattern(R, length: int) -> str:
    return R.PATTERN_LOOSE_PATH_3 if length == 3 else R.PATTERN_LOOSE_PATH_2


def _random_hosts(R, seed: int) -> list:
    rng = random.Random(f"hosts-{seed}")
    triples = list(itertools.combinations(range(12), 3))
    return [R.Hypergraph(3, 12, rng.sample(triples, rng.randint(3, 40))) for _ in range(RANDOM_HOSTS)]


def _split_items(seed: int) -> dict:
    rng = random.Random(f"split-{seed}")
    items: dict[tuple[int, ...], int] = {}
    while len(items) < SPLIT_ITEMS:
        f = tuple(sorted(rng.sample(range(SPLIT_N), SPLIT_K - 1)))
        v = rng.randrange(SPLIT_N)
        if v not in f:
            items[f] = v
    return items


def _peel_host(R, seed: int):
    rng = random.Random(f"peel-{seed}")
    # A dense core on the first third of the vertices plus sparse noise, so
    # the peel removes a real share of the vertices.
    core = list(itertools.combinations(range(PEEL_N // 3), 3))
    edges = set(rng.sample(core, PEEL_EDGES * 2 // 3))
    while len(edges) < PEEL_EDGES:
        edges.add(tuple(sorted(rng.sample(range(PEEL_N), 3))))
    return R.Hypergraph(3, PEEL_N, edges)


def _two_cliques(R):
    a = list(itertools.combinations(range(9), 4))
    return R.Hypergraph(4, 18, a + [tuple(v + 9 for v in e) for e in a])


def _cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def build(name: str, seed: int, R, workdir: Path) -> tuple[list[Call], dict]:
    """The calls of one pass, and the dict their results are stored in.

    Later calls read earlier results from that dict, so they run in order.
    The dict also holds the generated inputs that ``check`` needs.
    """
    groups = WORKLOADS[name]
    results: dict[str, object] = {}
    calls: list[Call] = []
    add = calls.append

    def dr(k, r, n, budget=0, layer="search.dfs"):
        add(Call(f"decide_ramsey({k},{r},{n},b{budget})", layer,
                 lambda: R.decide_ramsey(k, r, n, budget=budget), (n, k, 3), budget, (k, r, n)))

    if "ramsey-dfs" in groups:
        for k, r, n, budget in RAMSEY_DFS:
            dr(k, r, n, budget)
    if "index-detect" in groups:
        # These calls search at most 11 nodes: they are index builds.
        for k, r, n, budget in INDEX_BUDGETED:
            dr(k, r, n, budget, "search.index")
        add(Call("enumerate_loose_paths(12,3,3)", "search.index",
                 lambda: R.enumerate_loose_paths(12, 3, 3)))
        add(Call("export_cnf(3,2,10)", "search.cnf", lambda: R.export_cnf(3, 2, 10), (10, 3, 3)))
        add(Call("to_dimacs(3,2,10)", "search.cnf",
                 lambda: results["export_cnf(3,2,10)"].to_dimacs()))
        cliques = _two_cliques(R)
        add(Call("find_loose_path(two-K4_9)", "patterns", lambda: R.find_loose_path(cliques, 3)))
        hosts = _random_hosts(R, seed)
        add(Call("find_loose_path(random-k3-n12)", "patterns",
                 lambda: [R.find_loose_path(h, 3) for h in hosts]))
        results["hosts"] = hosts
        results["cliques"] = cliques
    if "turan-bnb" in groups:
        for k, n, length, budget in TURAN:
            add(Call(f"turan_max_edges({k},{n},lp{length},b{budget})", "search.turan",
                     lambda k=k, n=n, length=length, budget=budget:
                     R.turan_max_edges(k, n, _pattern(R, length), budget=budget),
                     (n, k, length), budget))

        def roundtrip():
            return [R.parse_hypergraph(R.serialize_hypergraph(results[c.id].extremal))
                    for c in calls if c.layer == "search.turan"]

        add(Call("roundtrip(extremals)", "hypergraphs", roundtrip))
    if "certify" in groups:
        for k, r, n in ORACLE:
            add(Call(f"exhaustive_decide({k},{r},{n})", "search.oracle",
                     lambda k=k, r=r, n=n: R.exhaustive_decide(k, r, n), (n, k, 3), None, (k, r, n)))
            add(Call(f"export_cnf({k},{r},{n})", "search.cnf",
                     lambda k=k, r=r, n=n: R.export_cnf(k, r, n), (n, k, 3)))
            add(Call(f"cnf_satisfiable({k},{r},{n})", "search.cnf",
                     lambda key=f"export_cnf({k},{r},{n})": R.cnf_satisfiable(results[key])))
            dr(k, r, n)
        add(Call("star_deficiency_bound", "exact", lambda: R.star_deficiency_bound(*EXACT_ARGS)))
        add(Call("link_support_lower_bound", "exact",
                 lambda: R.link_support_lower_bound(*EXACT_ARGS)))
        items = _split_items(seed)
        add(Call("derandomized_split", "machinery",
                 lambda: R.derandomized_split(items, SPLIT_N, SPLIT_K)))
        host = _peel_host(R, seed)
        add(Call("peel_min_degree", "machinery", lambda: R.peel_min_degree(host)))
        add(Call("verify_constant_inequalities(250..400)", "inequalities",
                 lambda: [R.verify_constant_inequalities(k, r_list=INEQ_RS) for k in INEQ_KS]))
        add(Call("star_clique_coloring(5,4)", "constructions", lambda: R.star_clique_coloring(5, 4)))
        coloring_file = workdir / "star-clique.txt"
        add(Call("serialize_coloring(star-clique)", "patterns",
                 lambda: coloring_file.write_text(
                     R.serialize_coloring(results["star_clique_coloring(5,4)"]), encoding="utf-8")))
        from ramseylab.cli import main

        cnf_file = workdir / "instance.cnf"
        for command, argv in (
            ("verify-coloring", ["verify-coloring", str(coloring_file)]),
            ("constants", ["constants", "--k", "250", "--r-list", "1", "2", "3"]),
            ("ramsey", ["ramsey", "--k", "2", "--r", "3", "--n", "6", "--json"]),
            ("cnf", ["cnf", "--k", "2", "--r", "3", "--n", "6", "-o", str(cnf_file)]),
        ):
            add(Call(f"cli.{command}", "cli", lambda argv=argv: _cli(main, argv)))
        results["split_items"] = items
        results["peel_host"] = host
        results["cnf_file"] = cnf_file
    return calls, results


# --------------------------------------------------------------------------
# Re-checks.  Each returns a list of problems found; [] means the result
# passed.  ``verify`` wraps every witness re-check so the traced run can time
# it as ``patterns.verify_s`` and subtract it from the call that produced it.


def _is_loose_path(edges, length: int) -> bool:
    """Definitional test of an ordered edge sequence, independent of the library."""
    sets = [set(e) for e in edges]
    if len(sets) != length or len({tuple(sorted(s)) for s in sets}) != length:
        return False
    if any(len(sets[i] & sets[i + 1]) != 1 for i in range(length - 1)):
        return False
    return length == 2 or not sets[0] & sets[2]


def _brute_force_has_path(h, length: int) -> bool:
    edges = h.edges
    return any(_is_loose_path(p, length) for p in itertools.permutations(edges, length))


def _components_too_small(h, length: int) -> bool:
    """True when every connected component spans fewer vertices than the pattern."""
    parent = list(range(h.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in h.edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    sizes: dict[int, int] = {}
    for v in h.support():
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return max(sizes.values(), default=0) < length * h.k - (length - 1)


def check(name: str, calls: list[Call], results: dict, R, verify) -> dict[str, list[str]]:
    """Problems per call id; calls absent from the result dict raised."""
    problems: dict[str, list[str]] = {c.id: [] for c in calls if c.id in results}
    valid_colorings = []  # (k, r, n) of re-verified path-free colourings

    def ramsey(call, k, r, n):
        out = results[call.id]
        bad = problems[call.id]
        if out.verdict not in RAMSEY_REFERENCE[(k, r, n)]:
            bad.append(f"verdict {out.verdict} not in reference {sorted(RAMSEY_REFERENCE[(k, r, n)])}")
        if out.verdict == "fails":
            w = out.witness
            with verify(call.id):
                mono = R.find_mono_loose_path(w, 3)
            if (w.k, w.r, w.n) != (k, r, n) or mono is not None:
                bad.append("fails witness does not re-check with find_mono_loose_path")
            else:
                valid_colorings.append((k, r, n))

    def holds_against_known_colorings(call, k, r, n):
        # Star+clique colours K^(k) on r+3k-4 vertices with no mono path.
        star_clique = k >= 3 and n <= r + 3 * k - 4
        witnessed = any(kk == k and rr <= r and nn >= n for kk, rr, nn in valid_colorings)
        if results[call.id].verdict == "holds" and (star_clique or witnessed):
            problems[call.id].append("holds, but a path-free colouring is known")

    ramsey_calls = []
    for call in calls:
        if call.id not in results:
            continue
        if call.id.startswith("decide_ramsey("):
            ramsey(call, *call.params)
            ramsey_calls.append((call, *call.params))
    for args in ramsey_calls:
        holds_against_known_colorings(*args)

    def get(call_id):
        return results.get(call_id)

    def bad(call_id, text):
        if call_id in problems:
            problems[call_id].append(text)

    groups = WORKLOADS[name]
    if "index-detect" in groups:
        copies = get("enumerate_loose_paths(12,3,3)")
        if copies is not None:
            if len(copies) != LOOSE_COPIES_12_3:
                bad("enumerate_loose_paths(12,3,3)", f"{len(copies)} copies, expected {LOOSE_COPIES_12_3}")
            sample = random.Random(0).sample(copies, min(1000, len(copies)))
            if not all(_is_loose_path(c, 3) and c[0] < c[2] for c in sample):
                bad("enumerate_loose_paths(12,3,3)", "a sampled copy is not a loose 3-path")
        text = get("to_dimacs(3,2,10)")
        if text is not None:
            expected = f"p cnf {comb(10, 3) * 2} {comb(10, 3) + 2 * 75_600}"
            if expected not in text.splitlines():
                bad("to_dimacs(3,2,10)", f"DIMACS header is not {expected!r}")
        if "find_loose_path(two-K4_9)" in problems:
            if get("find_loose_path(two-K4_9)") is not None:
                bad("find_loose_path(two-K4_9)", "found a path in a host whose components are too small")
            if not _components_too_small(results["cliques"], 3):
                bad("find_loose_path(two-K4_9)", "host components are large enough for a path")
        found = get("find_loose_path(random-k3-n12)")
        if found is not None:
            for host, w in zip(results["hosts"], found):
                if w is None:
                    ok = not _brute_force_has_path(host, 3)
                else:
                    with verify("find_loose_path(random-k3-n12)"):
                        ok = w.verify(host)
                    ok = ok and _is_loose_path(w.edges, 3) and all(e in host for e in w.edges)
                if not ok:
                    bad("find_loose_path(random-k3-n12)", f"wrong answer on {host!r}")
    if "turan-bnb" in groups:
        for call in calls:
            if call.layer != "search.turan" or call.id not in problems:
                continue
            n, k, length = call.index
            res = results[call.id]
            h = res.extremal
            lower = comb(n - 1, k - 1) if length == 3 else (comb(n - 2, k - 2) if k >= 3 else n // 2)
            if length == 3:
                lower = max(lower, comb(min(n, 3 * k - 3), k))
            exact = TURAN_EXACT[(k, n, length)]
            if res.max_edges < lower:
                bad(call.id, f"value {res.max_edges} below the seed construction {lower}")
            if exact is not None and (res.max_edges > exact or res.status != "exact"):
                bad(call.id, f"{res.status} {res.max_edges}, known exact value {exact}")
            if call.budget == 0 and res.status != "exact":
                bad(call.id, f"status {res.status} without a budget")
            with verify(call.id):
                contains = R.find_loose_path(h, length) is not None
            if contains or len(h) != res.max_edges or (h.k, h.n) != (k, n):
                bad(call.id, "extremal hypergraph contains the pattern or has the wrong size")
        trips = get("roundtrip(extremals)")
        if trips is not None:
            originals = [results[c.id].extremal for c in calls if c.layer == "search.turan" and c.id in results]
            if trips != originals:
                bad("roundtrip(extremals)", "parse(serialize(h)) != h")
    if "certify" in groups:
        for k, r, n in ORACLE:
            ex, sat = get(f"exhaustive_decide({k},{r},{n})"), get(f"cnf_satisfiable({k},{r},{n})")
            dfs = get(f"decide_ramsey({k},{r},{n},b0)")
            if ex is not None:
                if ex.verdict not in RAMSEY_REFERENCE[(k, r, n)]:
                    bad(f"exhaustive_decide({k},{r},{n})", f"verdict {ex.verdict} contradicts the reference")
                if ex.verdict == "fails":
                    with verify(f"exhaustive_decide({k},{r},{n})"):
                        mono = R.find_mono_loose_path(ex.witness, 3)
                    if mono is not None:
                        bad(f"exhaustive_decide({k},{r},{n})", "witness does not re-check")
            verdicts = {
                "oracle": ex.verdict if ex else None,
                "cnf": None if sat is None else ("fails" if sat else "holds"),
                "dfs": dfs.verdict if dfs else None,
            }
            if verdicts["cnf"] is not None and verdicts["cnf"] not in RAMSEY_REFERENCE[(k, r, n)]:
                bad(f"cnf_satisfiable({k},{r},{n})", f"satisfiable={sat} contradicts the reference")
            if len({v for v in verdicts.values() if v is not None}) > 1:
                for call_id in (f"exhaustive_decide({k},{r},{n})", f"cnf_satisfiable({k},{r},{n})"):
                    bad(call_id, f"engines disagree: {verdicts}")
        b, k, n, precision = EXACT_ARGS
        deficiency, support = get("star_deficiency_bound"), get("link_support_lower_bound")
        for call_id, iv in (("star_deficiency_bound", deficiency), ("link_support_lower_bound", support)):
            if iv is not None and not (iv.lo <= iv.hi and iv.hi - iv.lo <= precision):
                bad(call_id, "interval wider than its precision")
        if deficiency is not None and support is not None:
            # Both enclose expressions of x = (b/(k-1))^(1/(k-2)); the link
            # interval pins x, which must give an overlapping deficiency.
            x_lo, x_hi = support.lo / (n - 1), support.hi / (n - 1)
            scale = comb(n - 1, k - 1)
            lo, hi = (1 - x_hi) ** (k - 1) * scale, (1 - x_lo) ** (k - 1) * scale
            if hi < deficiency.lo or deficiency.hi < lo:
                bad("star_deficiency_bound", "disagrees with link_support_lower_bound")
        split = get("derandomized_split")
        if split is not None:
            items = results["split_items"]
            side1 = set(split.u1)
            proper = sum(1 for f, v in items.items() if v in side1 and side1.isdisjoint(f))
            expectation = len(items) * Fraction(1, SPLIT_K) * Fraction(SPLIT_K - 1, SPLIT_K) ** (SPLIT_K - 1)
            if sorted(split.u1 + split.u2) != list(range(SPLIT_N)) or proper != split.proper_count:
                bad("derandomized_split", "sides are not a partition or proper count is wrong")
            if split.expectation != expectation or proper < expectation:
                bad("derandomized_split", f"proper count {proper} below expectation {expectation}")
        peeled = get("peel_min_degree")
        if peeled is not None:
            host = results["peel_host"]
            threshold = Fraction(len(host), host.n)
            degrees: dict[int, int] = {}
            for e in peeled.edges:
                for v in e:
                    degrees[v] = degrees.get(v, 0) + 1
            if not peeled.edges or any(e not in host for e in peeled.edges) or any(
                d <= threshold for d in degrees.values()
            ):
                bad("peel_min_degree", "peeled hypergraph is empty, not a subgraph, or has a low degree")
        reports = get("verify_constant_inequalities(250..400)")
        if reports is not None:
            for report in reports:
                for rec in report.records:
                    expected = (rec.name, rec.params.get("r")) not in INEQ_FAILING
                    if rec.holds != expected:
                        bad("verify_constant_inequalities(250..400)", f"{rec.name} {rec.params} changed verdict")
        coloring = get("star_clique_coloring(5,4)")
        if coloring is not None:
            with verify("star_clique_coloring(5,4)"):
                mono = R.find_mono_loose_path(coloring, 3)
            if mono is not None or (coloring.k, coloring.r, coloring.n) != (5, 4, 4 + 15 - 4):
                bad("star_clique_coloring(5,4)", "star+clique colouring has a mono loose 3-path")
        expected_codes = {"cli.verify-coloring": 0, "cli.constants": 0, "cli.ramsey": 0, "cli.cnf": 0}
        for call_id, code in expected_codes.items():
            got = get(call_id)
            if got is not None and got[0] != code:
                bad(call_id, f"exit code {got[0]}, expected {code}")
        got = get("cli.ramsey")
        if got is not None and json.loads(got[1])["payload"]["verdict"] != "holds":
            bad("cli.ramsey", "ramsey --json did not report holds")
        if get("cli.cnf") is not None:
            header = f"p cnf {comb(6, 2) * 3} {comb(6, 2) + 3 * 180}"
            if header not in results["cnf_file"].read_text(encoding="utf-8").splitlines():
                bad("cli.cnf", f"DIMACS file header is not {header!r}")
    return problems
