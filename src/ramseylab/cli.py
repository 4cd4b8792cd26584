"""Command-line frontend: thin adapters over the library, which build every `--json` payload.

Exit codes: 0 computed/holds/absent, 1 witness-found/fails, 2 unknown or
budget exhausted, 64 usage error, 65 parse error, 70 internal error.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import time
from fractions import Fraction
from pathlib import Path

from .cnf import export_cnf
from .constructions import full_star, pair_cover, ramsey_bounds, star_clique_coloring
from .errors import ParseError
from .hypergraphs import parse_hypergraph, serialize_hypergraph
from .inequalities import exact_text, verify_constant_inequalities
from .machinery import (
    BipartiteGraph,
    derandomized_split,
    greedy_tripartition,
    peel_min_degree,
    prune_bipartite,
)
from .patterns import (
    LoosePathWitness,
    find_loose_path,
    find_mono_loose_path,
    is_full_star,
    is_star,
    parse_coloring,
    serialize_coloring,
)
from .search import (
    PATTERN_LOOSE_PATH_2,
    PATTERN_LOOSE_PATH_3,
    STATUS_EXACT,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    decide_ramsey,
    turan_max_edges,
)

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


def _emit(args, command: str, parameters: dict, payload: dict, started: float, summary: str, stats=None, **extra) -> None:
    if args.json:
        report = {
            "command": command,
            "parameters": parameters,
            "payload": payload,
            "timing_ms": round((time.perf_counter() - started) * 1000, 3),
            **extra,
        }
        if stats is not None:
            phases = {"build": stats.build_s, "search": stats.search_s, "verify": stats.verify_s}
            report["phases_ms"] = {name: round(s * 1000, 3) for name, s in phases.items()}
        print(json.dumps(report, sort_keys=True))
    else:
        print(summary)


def _witness_payload(found) -> dict:
    if found is None:
        return {"found": False}
    color, witness = (None, found) if isinstance(found, LoosePathWitness) else found
    payload = {
        "found": True,
        "witness_edges": [list(e) for e in witness.edges],
        "links": list(witness.links),
    }
    if color is not None:
        payload["color"] = color
    return payload


def cmd_detect(args, started: float) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    params = {"input": args.input, "pattern": args.pattern, "coloring": bool(args.coloring)}
    if args.pattern == "star":
        if args.coloring:
            raise ValueError("star detection applies to hypergraph inputs, not colorings")
        h = parse_hypergraph(text)
        center = is_star(h)
        payload = {
            "found": center is not None,
            "center": center,
            "full_star": is_full_star(h),
        }
        summary = f"star: {'center ' + str(center) if center is not None else 'absent'}"
    else:
        length = 3 if args.pattern == PATTERN_LOOSE_PATH_3 else 2
        if args.coloring:
            found = find_mono_loose_path(parse_coloring(text), length)
        else:
            found = find_loose_path(parse_hypergraph(text), length)
        payload = _witness_payload(found)
        summary = f"{args.pattern}: {'found' if payload['found'] else 'absent'}"
    _emit(args, "detect", params, payload, started, summary)
    return EXIT_WITNESS if payload["found"] else EXIT_OK


def cmd_ramsey(args, started: float) -> int:
    outcome = decide_ramsey(args.k, args.r, args.n, budget=args.budget)
    if outcome.verdict == VERDICT_FAILS and args.witness_out:
        Path(args.witness_out).write_text(serialize_coloring(outcome.witness), encoding="utf-8")
    params = {"k": args.k, "r": args.r, "n": args.n, "budget": args.budget}
    stats = outcome.stats
    summary = (f"ramsey k={args.k} r={args.r} n={args.n}: {outcome.verdict}"
               f" (nodes={stats.nodes}, prunes={stats.prunes}, max_depth={stats.max_depth})")
    # Wall time stays out of the payload, so identical runs print identical payloads.
    payload = {"verdict": outcome.verdict, "witness": serialize_coloring(outcome.witness) if outcome.witness else None,
               "stats": {"nodes": stats.nodes, "prunes": stats.prunes}}
    _emit(args, "ramsey", params, payload, started, summary, stats, class_cap=stats.class_cap)
    return {VERDICT_HOLDS: EXIT_OK, VERDICT_FAILS: EXIT_WITNESS}.get(outcome.verdict, EXIT_UNKNOWN)


def cmd_turan(args, started: float) -> int:
    result = turan_max_edges(args.k, args.n, args.pattern, budget=args.budget)
    params = {"k": args.k, "n": args.n, "pattern": args.pattern, "budget": args.budget}
    stats = result.stats
    summary = (
        f"turan k={args.k} n={args.n} pattern={args.pattern}:"
        f" max_edges={result.max_edges} ({result.status}, nodes={stats.nodes}, prunes={stats.prunes})"
    )
    payload = {"status": result.status, "max_edges": result.max_edges, "extremal": serialize_hypergraph(result.extremal),
               "stats": {"nodes": stats.nodes, "prunes": stats.prunes}}
    _emit(args, "turan", params, payload, started, summary, stats)
    return EXIT_OK if result.status == STATUS_EXACT else EXIT_UNKNOWN


def cmd_construct(args, started: float) -> int:
    if args.kind == "star-clique":
        if args.r is None:
            raise ValueError("star-clique needs --r")
        coloring = star_clique_coloring(args.k, args.r)
        Path(args.output).write_text(serialize_coloring(coloring), encoding="utf-8")
        payload = {
            "kind": args.kind,
            "k": coloring.k,
            "n": coloring.n,
            "r": coloring.r,
            "class_sizes": coloring.class_sizes(),
        }
        summary = f"star-clique coloring k={coloring.k} r={coloring.r} on n={coloring.n} -> {args.output}"
    else:
        if args.n is None:
            raise ValueError(f"{args.kind} needs --n")
        if args.kind == "full-star":
            h = full_star(args.n, args.k, args.center)
        else:
            h = pair_cover(args.n, args.k, tuple(args.pair))
        Path(args.output).write_text(serialize_hypergraph(h), encoding="utf-8")
        payload = {"kind": args.kind, "k": h.k, "n": h.n, "edges": len(h)}
        summary = f"{args.kind} k={h.k} n={h.n}: {len(h)} edges -> {args.output}"
    _emit(args, "construct", {"kind": args.kind}, payload, started, summary)
    return EXIT_OK


def cmd_verify_coloring(args, started: float) -> int:
    coloring = parse_coloring(Path(args.file).read_text(encoding="utf-8"))
    found = find_mono_loose_path(coloring, 3)
    payload = _witness_payload(found)
    summary = (
        f"monochromatic loose 3-path: "
        + (f"color {found[0]}" if found else "absent")
    )
    _emit(args, "verify-coloring", {"file": args.file}, payload, started, summary)
    return EXIT_WITNESS if found else EXIT_OK


def cmd_cnf(args, started: float) -> int:
    instance = export_cnf(args.k, args.r, args.n)
    Path(args.output).write_text(instance.to_dimacs(), encoding="utf-8")
    payload = {
        "k": args.k,
        "n": args.n,
        "r": args.r,
        "variables": instance.num_vars,
        "clauses": len(instance.clauses),
        "path_count": instance.path_count,
    }
    summary = (
        f"cnf k={args.k} r={args.r} n={args.n}: {instance.num_vars} vars,"
        f" {len(instance.clauses)} clauses -> {args.output}"
    )
    _emit(args, "cnf", {"k": args.k, "r": args.r, "n": args.n}, payload, started, summary)
    return EXIT_OK


def cmd_constants(args, started: float) -> int:
    report = verify_constant_inequalities(args.k, A=args.A, r_list=args.r_list or ())
    payload = {}
    if args.json:  # a summary needs no certificate; at large k their gcds cost far more than the catalog
        payload = {"all_hold": report.all_hold(), "records": [
            {"name": rec.name, "params": rec.params, "holds": "yes" if rec.holds else "no", "asymptotic_flag": rec.asymptotic,
             "certificate_lo": (certificate := exact_text(rec.margin)), "certificate_hi": certificate}
            for rec in report.records]}
    holding = sum(1 for rec in report.records if rec.holds)
    summary = f"constants k={args.k} A={args.A}: {holding}/{len(report.records)} inequalities hold"
    _emit(args, "constants", {"k": args.k, "A": args.A, "r_list": args.r_list or []}, payload, started, summary)
    return EXIT_OK


def cmd_bounds(args, started: float) -> int:
    report = ramsey_bounds(args.k, args.r)
    summary = (
        f"bounds k={args.k} r={args.r}: lower={report.lower}"
        f" upper_kr={report.upper_kr} upper_250r={report.upper_250r}"
    )
    _emit(args, "bounds", {"k": args.k, "r": args.r}, report._asdict(), started, summary)
    return EXIT_OK


def _json_fields(text: str, **readers) -> list:
    """The named fields of the JSON object in `text`, each passed through its reader.

    Readers build the library's input, so a malformed field fails in its reader
    with TypeError, AttributeError or ArithmeticError, which is a usage error.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("machinery input must be a JSON object")
    fields = []
    for name, read in readers.items():
        try:
            fields.append(read(data[name]))
        except (TypeError, AttributeError, ArithmeticError) as exc:
            raise ValueError(f"malformed field {name!r}: {exc}") from None
    return fields


def _weight(w) -> Fraction:
    """Fraction(w), refusing first a decimal exponent past ±10^5, on which Fraction spends time that grows with it."""
    exp = w.lower().rpartition("e")[2].replace("_", "").strip() if isinstance(w, str) and "e" in w.lower() else ""
    if exp.lstrip("+-").isdecimal() and abs(int(exp)) > 10**5:
        raise ValueError(f"the exponent of weight {w!r} is past ±10^5")
    return Fraction(w)


def cmd_machinery(args, started: float) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    if args.op == "peel":
        result = peel_min_degree(parse_hypergraph(text))
        payload = {"result": serialize_hypergraph(result), "edges": len(result)}
        summary = f"peel: {len(result)} edges remain"
    elif args.op == "prune":
        left, right, edges = _json_fields(
            text, left=lambda x: sorted(set(x)), right=lambda x: sorted(set(x)),
            edges=lambda x: {tuple(e) for e in x},
        )
        pruned = prune_bipartite(BipartiteGraph(left, right, edges))
        payload = {
            "left": list(pruned.left),
            "right": list(pruned.right),
            "edges": sorted([list(e) for e in pruned.edges]),
        }
        summary = f"prune: {len(pruned.edges)} edges remain"
    elif args.op == "tripartition":
        (weights,) = _json_fields(text, weights=lambda x: {v: _weight(w) for v, w in x.items()})
        tri = greedy_tripartition(weights)
        sums = [exact_text(s) for s in tri.sums]
        payload = {"parts": [list(p) for p in tri.parts], "sums": sums, "gap": exact_text(tri.gap)}
        summary = f"tripartition: sums {', '.join(sums)}"
    else:
        n, k, assignments = _json_fields(
            text, n=operator.index, k=operator.index,
            assignments=lambda x: [(tuple(map(operator.index, f)), operator.index(v)) for f, v in x],
        )
        if len({f for f, _ in assignments}) < len(assignments):
            raise ValueError("a set is given twice in 'assignments'")
        split = derandomized_split(dict(assignments), n, k)
        payload = {
            "u1": list(split.u1),
            "u2": list(split.u2),
            "proper_count": split.proper_count,
            "expectation": exact_text(split.expectation),
        }
        summary = f"split: proper_count={split.proper_count} >= expectation={payload['expectation']}"
    _emit(args, f"machinery {args.op}", {"input": args.input}, payload, started, summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseylab",
        description="Loose-path patterns in k-uniform hypergraphs: constructions, searches, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="print a machine-readable run report")
        p.set_defaults(func=func)
        return p

    p = command("detect", cmd_detect, "find a pattern in a hypergraph or coloring file")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--pattern", required=True, choices=[PATTERN_LOOSE_PATH_2, PATTERN_LOOSE_PATH_3, "star"]
    )
    p.add_argument("--coloring", action="store_true", help="input is a coloring file; search per color class")

    p = command("ramsey", cmd_ramsey, "decide whether every r-coloring of K^(k)_n has a mono loose 3-path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=0, help="max assignments, 0 = unlimited")
    p.add_argument("--witness-out", help="write the witness coloring here when the verdict is fails")

    p = command("turan", cmd_turan, "maximize edges avoiding a loose-path pattern")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True, choices=[PATTERN_LOOSE_PATH_2, PATTERN_LOOSE_PATH_3])
    p.add_argument("--budget", type=int, default=0, help="max nodes, 0 = unlimited")

    p = command("construct", cmd_construct, "build an extremal coloring or hypergraph")
    p.add_argument("kind", choices=["star-clique", "full-star", "pair-cover"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--center", type=int, default=0)
    p.add_argument("--pair", type=int, nargs=2, default=[0, 1])
    p.add_argument("-o", "--output", required=True)

    p = command(
        "verify-coloring", cmd_verify_coloring, "check a coloring file for a monochromatic loose 3-path"
    )
    p.add_argument("file")

    p = command("cnf", cmd_cnf, "export the coloring instance as DIMACS CNF")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = command("constants", cmd_constants, "verify the constant-inequality catalog exactly")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=int, default=250)
    p.add_argument("--r-list", type=int, nargs="*", default=[])

    p = command("bounds", cmd_bounds, "closed-form Ramsey bounds with applicability caveats")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = command("machinery", cmd_machinery, "run one proof-machinery operation on a file")
    p.add_argument("op", choices=["peel", "prune", "tripartition", "split"])
    p.add_argument("--input", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args, time.perf_counter())
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
