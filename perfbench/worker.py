"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports ramseylab from ``src/`` of the checkout that holds this file,
builds the workload's inputs, runs its calls sequentially (the timed
region), then re-checks the results outside the timed region.  Prints one
JSON line on stdout.  ``setup_end`` is the CLOCK_MONOTONIC reading at the
start of the timed region, so the parent can measure set-up from the moment
it started this process.

The host's speed drifts by a quarter or more over seconds to minutes, so the
worker samples it with a fixed pure-Python loop (``calibrate``): once right
after set-up and again after every stretch of calls of at least SEGMENT_S.
``solve_ref_s`` scales each stretch by CALIBRATION_REF_S over the mean of the
samples on either side of it, and ``setup_scale`` is the factor for set-up.
The samples run between calls and are not timed.

With --trace, every call, every witness re-check and an index proxy per
call (``enumerate_loose_paths`` on the call's (n, k, length)) are recorded
as spans and returned with the result, together with the cost of one empty
traced span, timed here after the pass.  With --setup-only the worker stops
before the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPAN_COST_REPS = 20000
CALIBRATION_STEPS = 300_000
CALIBRATION_REF_S = 0.03  # about the loop's usual time on a 2-core Linux VM, Python 3.11.7
SEGMENT_S = 0.5


class Tracer:
    """Spans kept in memory: (name, parent, start, end) in perf_counter seconds."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, str | None, float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None = None):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, parent, start, time.perf_counter()))


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: a sample of how fast the host runs now."""
    data = list(range(64))
    acc = 0
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        acc = (acc + data[i & 63] * i) & 0xFFFF
    return time.perf_counter() - start


def _span_cost_s() -> float:
    """Wall time of one empty traced span."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(SPAN_COST_REPS):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / SPAN_COST_REPS


def _call_record(call, result, problems) -> dict:
    stats = getattr(result, "stats", None)
    return {
        "id": call.id,
        "layer": call.layer,
        "verdict_call": call.verdict,
        "outcome": workloads.outcome(result) if call.verdict else None,
        "params": list(call.params),
        "budget": call.budget,
        "nodes": getattr(stats, "nodes", None),
        "prunes": getattr(stats, "prunes", None),
        "problems": problems,
    }


def _layer_counts(calls, results) -> dict:
    """Work counts the per-layer metrics need, read from the call results."""
    counts: dict[str, int] = {}
    for call in calls:
        res = results.get(call.id)
        if res is None:
            continue
        if call.id.startswith("export_cnf"):
            counts["search.cnf.clauses"] = counts.get("search.cnf.clauses", 0) + len(res.clauses)
        elif call.id.startswith("to_dimacs"):
            counts["search.cnf.dimacs_bytes"] = counts.get("search.cnf.dimacs_bytes", 0) + len(res)
        elif call.id.startswith("enumerate_loose_paths"):
            counts["search.index.direct_copies"] = counts.get("search.index.direct_copies", 0) + len(res)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ramseylab as R

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        calls, results = workloads.build(args.workload, args.seed, R, workdir)
        tracer = Tracer(args.trace)
        setup_end = time.monotonic()
        before = calibrate()
        setup_scale = CALIBRATION_REF_S / before
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end, "setup_scale": setup_scale}))
            return 0

        raised: dict[str, str] = {}
        solve_s = solve_ref_s = segment_s = 0.0
        for i, call in enumerate(calls):
            start = time.perf_counter()
            with tracer.span(call.id):
                try:
                    results[call.id] = call.fn()
                except Exception as exc:  # a raising call is a failed call, not a harness error
                    raised[call.id] = f"raised {type(exc).__name__}: {exc}"
            segment_s += time.perf_counter() - start
            if segment_s >= SEGMENT_S or i == len(calls) - 1:
                after = calibrate()
                solve_s += segment_s
                solve_ref_s += segment_s * 2 * CALIBRATION_REF_S / (before + after)
                before, segment_s = after, 0.0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = workloads.check(
            args.workload, calls, results, R, lambda call_id: tracer.span("patterns.verify", call_id)
        )
        proxies = {}
        span_cost_s = None
        if args.trace:
            span_cost_s = _span_cost_s()
            for call in calls:
                if call.index is None:
                    continue
                n, k, length = call.index
                with tracer.span("search.index.proxy", call.id):
                    proxies[call.id] = len(R.enumerate_loose_paths(n, k, length))

        records = []
        for call in calls:
            found = [raised[call.id]] if call.id in raised else problems.get(call.id, [])
            records.append(_call_record(call, results.get(call.id), found))
        print(json.dumps({
            "setup_end": setup_end,
            "setup_scale": setup_scale,
            "solve_s": solve_s,
            "solve_ref_s": solve_ref_s,
            "peak_rss_mb": peak_rss_mb,
            "calls": records,
            "counts": _layer_counts(calls, results),
            "proxy_copies": proxies,
            "spans": tracer.spans,
            "span_cost_s": span_cost_s,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
