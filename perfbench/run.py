"""The ramseylab benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a ramseylab checkout; the library is imported from
``src/`` and nothing is installed.  Each workload is a fixed list of
sequential calls into ramseylab's public API (see ``workloads.py``): a closed
loop with one caller and no threads.

Load model: every pass runs in a fresh interpreter, one pass at a time, as a
CLI user pays the imports and index builds on every invocation.  With
``--trace 0`` the benchmark runs whole passes until the next one would
overrun ``--seconds`` less half a second (at least one pass), fills the rest
of the run with set-up-only interpreters (at least three), and prints the
end-to-end metrics:

    solve_s      wall time of the pass's calls, set-up excluded, in reference
                 seconds (median over passes)
    setup_s      interpreter start to the first timed call: imports plus
                 input generation, in reference seconds (median over passes
                 and set-up runs)
    peak_rss_mb  peak resident memory of the pass's process up to the end of
                 its calls (median over passes)
    decided      verdict-returning calls ending holds, fails, exact, sat or
                 unsat; a budget-spent unknown or lower-bound-only lowers it

A reference second is a wall second scaled by how fast the host ran a fixed
calibration loop just before and after the timed work, against the loop's
usual time (see ``worker.py``).  It takes out the host's drift,
not the program's speed.  The report also prints the unscaled wall times.

With ``--trace 1`` it runs one traced pass and prints the per-layer metrics
(see ``layers.py``); the full per-layer report, with every call's time, goes
to stdout above the result and to
``.perfbench/trace-<workload>-seed<seed>.json``.

The JSON result holds the metrics that ``BENCHMARK.json`` names, under
``end_to_end`` with ``--trace 0`` and under ``per_layer`` with ``--trace 1``.

Every result is re-checked outside the timed region.  A call that raised or
failed a re-check counts in ``failed``; ``failed / attempted`` is the error
rate.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import DECIDED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN = 3
SETUP_RESERVE_S = 0.5
DEADLINE_S = 170


class HarnessError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def _worker(workload: str, seed: int, *flags: str, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["setup_end"] - spawned
    out["wall_s"] = time.monotonic() - spawned
    return out


def _decided(p: dict) -> int:
    return sum(1 for c in p["calls"] if c["verdict_call"] and c["outcome"] in DECIDED)


def _failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        for c in p["calls"]:
            attempted += 1
            if c["problems"]:
                failed += 1
                messages.append(f"{c['id']}: {'; '.join(c['problems'])}")
    return attempted, failed, messages


def _summary(samples: list[float], unit: str) -> str:
    """Median, quartiles, sample count and the highest percentile with ten samples beyond it."""
    text = f"median {statistics.median(samples):.4f} {unit}"
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        text += f" [q1 {q1:.4f}, q3 {q3:.4f}]"
    text += f" n={len(samples)}"
    if len(samples) > 10:
        pct = 100 * (len(samples) - 10) / len(samples)
        text += f", p{pct:.0f} {sorted(samples)[len(samples) - 11]:.4f}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    stop = time.monotonic() + seconds
    passes = [_worker(workload, seed, deadline=deadline)]
    while time.monotonic() + max(p["wall_s"] for p in passes) <= stop - SETUP_RESERVE_S:
        passes.append(_worker(workload, seed, deadline=deadline))
    # Set-up takes a fraction of a second and is noisy, so the rest of the
    # run goes to set-up-only interpreters.
    probes: list[dict] = []
    while len(probes) < SETUP_MIN or time.monotonic() + max(p["wall_s"] for p in probes) <= stop:
        probes.append(_worker(workload, seed, "--setup-only", deadline=deadline))
    setup_wall = [p["setup_s"] for p in passes + probes]
    setups = [p["setup_s"] * p["setup_scale"] for p in passes + probes]
    solves = [p["solve_ref_s"] for p in passes]
    decided = [_decided(p) for p in passes]
    verdict_calls = sum(c["verdict_call"] for c in passes[0]["calls"])
    attempted, failed, messages = _failures(passes)
    print(f"{workload} (seed {seed}, {len(passes)} passes of {len(passes[0]['calls'])} calls)")
    print(f"  solve_s      {_summary(solves, 's')}")
    print(f"    wall       {_summary([p['solve_s'] for p in passes], 's')}")
    print(f"  setup_s      {_summary(setups, 's')}")
    print(f"    wall       {_summary(setup_wall, 's')}")
    print(f"  peak_rss_mb  {_summary([p['peak_rss_mb'] for p in passes], 'MB')}")
    print(f"  decided      {statistics.median(decided):g} of {verdict_calls} verdict calls")
    print(f"  error_rate   {failed / attempted:.4f} ({failed} of {attempted} calls)")
    for c in passes[0]["calls"]:
        budget = f" budget={c['budget']}" if c["budget"] else ""
        nodes = f" nodes={c['nodes']} prunes={c['prunes']}" if c["nodes"] is not None else ""
        print(f"    {c['id']}: {c['outcome'] or 'done'}{budget}{nodes}")
    for msg in messages:
        print(f"  FAILED {msg}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "solve_s": statistics.median(solves),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "decided": statistics.median(decided),
        },
    }


def run_traced(workload: str, seed: int, deadline: float) -> dict:
    traced = _worker(workload, seed, "--trace", deadline=deadline)
    metrics = layers.derive(traced)
    attempted, failed, messages = _failures([traced])
    base = metrics["trace.solve_s"]
    print(f"{workload} traced (seed {seed}); shares are of trace.solve_s = {base:.4f} s")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown}")
    for msg in messages:
        print(f"  FAILED {msg}")
    trace_dir = ROOT / ".perfbench"
    (trace_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "metrics": metrics, "calls": traced["calls"],
         "spans": traced["spans"]}, indent=1), encoding="utf-8")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ramseylab" / "__init__.py").is_file():
        print(f"error: no ramseylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            if args.trace:
                res = run_traced(name, args.seed, deadline)
            else:
                res = run_untraced(name, args.seed, args.seconds, deadline)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for m in spec["per_layer" if args.trace else "end_to_end"]:
                metrics[prefix + m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
