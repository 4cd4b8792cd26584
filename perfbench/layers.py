"""Per-layer metrics from one traced pass, derived outside-in.

The spans come from the benchmark's own code: one around each public call,
one around each witness re-check (``patterns.verify``) and one around an
index proxy per call that builds a copy index internally
(``enumerate_loose_paths`` on the same (n, k, length), run after the pass).
The library is not instrumented, so a search engine's self time is derived:

    self = call span - index proxy - re-check of the witness it verified

where the last term applies to the engines that verify their own witness
(``decide_ramsey`` and ``exhaustive_decide`` on fails, ``turan_max_edges``
always).  The proxies only approximate the work inside the call, so a
call's own time is clamped at zero.  A call in the ``search.index`` layer,
such as ``decide_ramsey(3,2,12, budget=10)``, which searches at most 11
nodes, is index work as a whole: its span counts to the index, not its proxy.

``trace.overhead_s`` is the number of spans in the timed pass times the cost
of one empty traced span, which the worker times after the pass.

A layer's share is its time over the traced pass time, ``trace.solve_s``.
"""

from __future__ import annotations

import re
from math import comb

SEARCH_LAYERS = ("search.dfs", "search.turan", "search.oracle", "search.cnf")
OTHER_LAYERS = ("patterns", "hypergraphs", "constructions", "exact", "machinery", "inequalities", "cli")
SELF_VERIFYING = ("decide_ramsey", "turan_max_edges", "exhaustive_decide")


def _rate(count: float, seconds: float) -> float | None:
    return count / seconds if seconds > 0 else None


def _metric_name(call_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", call_id).strip("-")


def derive(traced: dict) -> dict[str, float | None]:
    """Every per-layer metric of one traced pass, by name."""
    calls = traced["calls"]
    span = {}
    verify: dict[str, float] = {}
    proxy: dict[str, float] = {}
    for name, parent, start, end in traced["spans"]:
        if parent is None:
            span[name] = end - start
        elif name == "patterns.verify":
            verify[parent] = verify.get(parent, 0.0) + end - start
        else:
            proxy[parent] = proxy.get(parent, 0.0) + end - start

    pass_s = traced["solve_s"]
    m: dict[str, float | None] = {"trace.solve_s": pass_s,
                                  "trace.overhead_s": len(span) * traced["span_cost_s"]}
    layer_s = dict.fromkeys(("search.index",) + SEARCH_LAYERS + OTHER_LAYERS, 0.0)
    index_copies = traced["counts"].get("search.index.direct_copies", 0)
    engine = {layer: {"nodes": 0, "prunes": 0, "self_s": 0.0} for layer in SEARCH_LAYERS}
    oracle = {"colorings": 0, "column_bytes": 0, "triple_evals": 0}
    cnf = {"export_s": 0.0, "dimacs_s": 0.0, "sat_s": 0.0}

    for c in calls:
        s = span.get(c["id"])
        if s is None:
            continue
        m[f"call.{_metric_name(c['id'])}.s"] = s
        function = c["id"].split("(")[0]
        idx = proxy.get(c["id"], 0.0) if c["layer"] != "search.index" else 0.0
        ver = verify.get(c["id"], 0.0) if function in SELF_VERIFYING and (
            c["outcome"] == "fails" or function == "turan_max_edges") else 0.0
        own = max(s - idx - ver, 0.0)
        index_copies += traced["proxy_copies"].get(c["id"], 0)
        layer_s["search.index"] += idx
        layer_s["patterns"] += ver
        layer_s[c["layer"]] += own
        if c["layer"] in engine and c["nodes"] is not None:
            engine[c["layer"]]["nodes"] += c["nodes"]
            engine[c["layer"]]["prunes"] += c["prunes"]
        if c["layer"] in engine:
            engine[c["layer"]]["self_s"] += own
        if function == "exhaustive_decide" and c["nodes"] is not None:
            k, r, n = c["params"]
            oracle["colorings"] += c["nodes"]
            oracle["column_bytes"] += comb(n, k) * c["nodes"]
            oracle["triple_evals"] += traced["proxy_copies"].get(c["id"], 0) * c["nodes"]
        elif function == "export_cnf":
            cnf["export_s"] += s
        elif function == "to_dimacs":
            cnf["dimacs_s"] += s
        elif function == "cnf_satisfiable":
            cnf["sat_s"] += s

    index_s = layer_s["search.index"]
    m["search.index.s"] = index_s
    m["search.index.copies"] = index_copies
    m["search.index.copies_per_s"] = _rate(index_copies, index_s)
    for layer in ("search.dfs", "search.turan"):
        e = engine[layer]
        m[f"{layer}.nodes"] = e["nodes"]
        m[f"{layer}.prunes"] = e["prunes"]
        m[f"{layer}.prune_ratio"] = e["prunes"] / e["nodes"] if e["nodes"] else 0.0
        m[f"{layer}.self_s"] = e["self_s"]
        m[f"{layer}.nodes_per_s"] = _rate(e["nodes"], e["self_s"])
    oracle_s = sum(span.get(c["id"], 0.0) for c in calls if c["layer"] == "search.oracle")
    m["search.oracle.s"] = oracle_s
    m["search.oracle.colorings"] = oracle["colorings"]
    m["search.oracle.colorings_per_s"] = _rate(oracle["colorings"], engine["search.oracle"]["self_s"])
    m["search.oracle.column_bytes"] = oracle["column_bytes"]
    m["search.oracle.triple_evals"] = oracle["triple_evals"]
    m["search.cnf.export_s"] = cnf["export_s"]
    m["search.cnf.clauses"] = traced["counts"].get("search.cnf.clauses", 0)
    m["search.cnf.dimacs_s"] = cnf["dimacs_s"]
    m["search.cnf.dimacs_bytes"] = traced["counts"].get("search.cnf.dimacs_bytes", 0)
    m["search.cnf.sat_s"] = cnf["sat_s"]
    m["patterns.verify_s"] = sum(verify.values())
    m["patterns.find_loose_path_s"] = sum(
        s for name, s in span.items() if name.startswith("find_loose_path("))
    named = {
        "hypergraphs.roundtrip_s": "roundtrip(extremals)",
        "constructions.star_clique_s": "star_clique_coloring(5,4)",
        "exact.star_deficiency_s": "star_deficiency_bound",
        "exact.link_support_s": "link_support_lower_bound",
        "machinery.derandomized_split_s": "derandomized_split",
        "machinery.peel_s": "peel_min_degree",
        "inequalities.catalog_s": "verify_constant_inequalities(250..400)",
    }
    for metric, call_id in named.items():
        m[metric] = span.get(call_id, 0.0)
    for call_id, s in span.items():
        if call_id.startswith("cli."):
            m[f"{call_id}_s"] = s
    if "cli.ramsey" in span and "decide_ramsey(2,3,6,b0)" in span:
        m["cli.overhead_s"] = span["cli.ramsey"] - span["decide_ramsey(2,3,6,b0)"]
    for layer, s in layer_s.items():
        m[f"{layer}.share"] = s / pass_s
    return m
