#!/usr/bin/env python3
"""Layer-resolved benchmark of the paper's synthesis flows.

Run from the repository root:

    python3 perfbench/run.py --workload {table2,scale,crossbar,all} \\
        --seed N --seconds S --trace {0,1}

A single-process, closed-loop benchmark with one client: it runs one cell
at a time through the public function of each layer, times every call
from outside, and checks every cell against its source netlist.  The
seed permutes cell order and draws the verification vectors; the
program's own ``REPRO_*`` settings stay at their defaults.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from benchmark-side spans (written to ``perfbench/out`` at
exit).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any cell failed and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "table2_reference.json"
LEDGER = ROOT / "BENCH_runtime.json"
WORKLOAD_NAMES = ("table2", "scale", "crossbar")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Candidate tail percentiles, highest first; the tail is the highest
#: one with at least ten cells beyond it (the maximum below 20 cells).
TAIL_PERCENTILES = (99, 95, 90, 80, 75)
#: Counters the table2 workload sums and checks against the ledger.
LEDGER_HEADLINE = (
    "moves_tried", "moves_accepted", "events_replayed", "tx_undo_replayed",
)
#: Optimizer counters reported per layer, from ``OptimizationResult.profile``.
OPTIMIZER_COUNTERS = (
    "moves_tried", "moves_accepted", "predicted_skips", "tx_rollbacks",
    "tx_undo_replayed", "events_replayed", "strash_misses",
    "full_recomputes",
)
#: Benchmark span name -> per-layer time metric.
LAYER_SPANS = {
    "io.parse": "io.parse_s",
    "mig.build": "mig.build_s",
    "mig.optimize": "mig.optimize_s",
    "mig.costs": "mig.costs_s",
    "rram.compile": "rram.compile_s",
    "rram.verify": "rram.verify_s",
    "mig.equiv": "mig.equiv_s",
    "crossbar.map": "crossbar.map_s",
    "crossbar.identity": "crossbar.identity_s",
}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = max(status, child.returncode)
    return status


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _tail_percentile(count: int) -> int:
    for pct in TAIL_PERCENTILES:
        if count - math.ceil(pct / 100 * count) >= 10:
            return pct
    return 100


def _environment() -> Dict[str, object]:
    import numpy
    from repro.mig import batch_enabled, graph_engine_name, transactions_enabled

    return {
        "graph_engine": graph_engine_name(),
        "batch_enabled": batch_enabled(),
        "transactions_enabled": transactions_enabled(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in os.environ.items()
                      if k.startswith("REPRO_")},
    }


def _latest_ledger_profile() -> Dict[str, int]:
    with open(LEDGER, "r", encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    return [e for e in entries if e.get("kind") == "table2"][-1]["profile"]


def _ledger_check(cells, results) -> Dict[str, object]:
    """Compare table2 cells with the whole-set reference, and the
    reference's sums with the latest ``kind: table2`` ledger entry."""
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        reference = json.load(handle)["cells"]
    ledger = _latest_ledger_profile()
    reference_sums = {
        key: sum(cell[key] for cell in reference.values()) for key in ledger
    }
    mismatched = []
    for cell in cells:
        expected = reference[cell.key]
        result = results[cell.key]
        measured = {key: result.profile.get(key, 0) for key in ledger}
        measured.update(rrams=result.rrams, steps=result.steps)
        if measured != expected:
            mismatched.append(cell.key)
    return {
        "cells_matching_reference": len(cells) - len(mismatched),
        "cells": len(cells),
        "mismatched": mismatched,
        "reference_sums_equal_ledger": reference_sums == dict(ledger),
        "subset_sums": {
            key: sum(results[c.key].profile.get(key, 0) for c in cells)
            for key in LEDGER_HEADLINE
        },
        "ledger_sums": {key: ledger[key] for key in LEDGER_HEADLINE},
    }


def _digest(cells, results) -> str:
    """Hash of every cell's outputs and counters, in table order."""
    payload = [(c.key, results[c.key].outcome()) for c in cells]
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _run_passes(workload, cells, inputs, args, spans):
    """Run whole passes over ``cells``; per-cell latencies and results.

    Each pass runs the cells in a fresh seeded order.  On a shared host
    a core flips between a fast and a slow state for seconds at a time;
    spreading a cell's repetitions over the run lets its best latency
    find the fast state.
    """
    from workloads import run_cell

    rng = random.Random(args.seed)
    passes = max(1, int(args.seconds // workload.pass_seconds))
    latencies: Dict[str, List[float]] = {c.key: [] for c in cells}
    first: Dict[str, object] = {}
    failed: set = set()
    attempted = 0
    pass_walls: List[float] = []
    for index in range(passes):
        order = list(cells)
        rng.shuffle(order)
        pass_start = time.perf_counter()
        with spans.span("pass", index=index):
            for cell in order:
                if index and not cell.repeat:
                    continue
                attempted += 1
                start = time.perf_counter()
                try:
                    with spans.span("cell", key=cell.key):
                        result = run_cell(cell, inputs, workload.effort,
                                          args.seed, spans)
                except Exception:  # a failing cell is counted, not fatal
                    traceback.print_exc()
                    failed.add((index, cell.key))
                    continue
                finally:
                    latencies[cell.key].append(time.perf_counter() - start)
                previous = first.setdefault(cell.key, result)
                if (not result.passed
                        or result.outcome() != previous.outcome()):
                    print(f"cell {cell.key} failed its check "
                          f"(pass {index})", file=sys.stderr)
                    failed.add((index, cell.key))
        pass_walls.append(time.perf_counter() - pass_start)
    return passes, attempted, len(failed), pass_walls, latencies, first


def _layer_seconds(records, latencies) -> Dict[str, float]:
    """Per layer span: its time within each cell's fastest pass, so the
    layers plus the unattributed remainder add up to ``wall_s``."""
    best = {key: times.index(min(times)) for key, times in latencies.items()}
    by_id = {record["span_id"]: record for record in records}
    kept = {
        record["span_id"] for record in records
        if record["name"] == "cell" and best[record["attrs"]["key"]]
        == by_id[record["parent_id"]]["attrs"]["index"]
    }
    totals = dict.fromkeys(LAYER_SPANS, 0.0)
    for record in records:
        if record["parent_id"] in kept:
            totals[record["name"]] += record["dur_s"]
    return totals


def _measure(args: argparse.Namespace) -> int:
    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports the package under test
    import_s = time.perf_counter() - import_start
    module = Path(sys.modules["repro"].__file__).resolve()
    if SRC.resolve() not in module.parents:
        print(f"imported repro from {module}, not from {SRC}", file=sys.stderr)
        return 2

    env = _environment()
    if env["repro_env"]:
        print(f"warning: {sorted(env['repro_env'])} set; this run measures "
              "a different program than the default", file=sys.stderr)
    workload = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    cells = workload.cells()
    spans = workloads.Spans(enabled=bool(args.trace))
    passes, attempted, failed, walls, latencies, results = _run_passes(
        workload, cells, inputs, args, spans
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    complete = len(results) == len(cells)

    per_cell = [min(v) for v in latencies.values()]
    tail_pct = _tail_percentile(len(per_cell))
    done = [results[c.key] for c in cells if c.key in results]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_cell), "s"),
        "cell_p50_s": (_percentile(per_cell, 50), "s"),
        "cell_tail_s": (_percentile(per_cell, tail_pct), "s"),
        "rrams_total": (sum(r.rrams for r in done), "count"),
        "steps_total": (sum(r.steps for r in done), "count"),
        "xbar_steps_total": (sum(r.xbar_steps for r in done), "count"),
        "passed_frac": (1 - failed / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    def counter(key: str) -> int:
        return sum(r.profile.get(key, 0) for r in done)

    layer_s = _layer_seconds(spans.records, latencies)
    per_layer: Dict[str, Tuple[float, str]] = {
        metric: (layer_s[name], "s") for name, metric in LAYER_SPANS.items()
    }
    per_layer.update({
        "io.gates_parsed": (sum(r.gates_parsed for r in done), "count"),
        "mig.build_gates": (sum(r.build_gates for r in done), "count"),
        "rram.devices": (sum(r.devices for r in done), "count"),
        "rram.program_steps": (sum(r.program_steps for r in done), "count"),
        "rram.vectors_checked": (sum(r.vectors for r in done), "count"),
        "mig.accept_ratio": (
            counter("moves_accepted") / max(1, counter("moves_tried")),
            "ratio",
        ),
        "crossbar.utilization": (
            statistics.fmean(r.utilization for r in done) if done else 0.0,
            "ratio",
        ),
        "trace.wall_s": (sum(per_cell), "s"),
        "trace.unattributed_s": (sum(per_cell) - sum(layer_s.values()), "s"),
    })
    per_layer.update(
        {f"mig.{key}": (counter(key), "count") for key in OPTIMIZER_COUNTERS}
    )

    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "cells": len(cells),
        "tail_percentile": tail_pct,
        "environment": env,
        "outputs_digest": _digest(cells, results) if complete else None,
        "end_to_end": {k: v for k, (v, _u) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _u) in per_layer.items()},
        "setup_times": setup_times,
        "import_s": import_s,
        "pass_walls": walls,
        "cell_seconds": latencies,
    }
    if args.workload == "table2" and complete:
        report["ledger"] = _ledger_check(cells, results)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    if spans.enabled:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for record in spans.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    print("environment:", json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(cells)} cells x {passes} pass(es), "
          f"tail = p{tail_pct}, outputs digest {report['outputs_digest']}")
    if "ledger" in report:
        print("ledger cross-check:", json.dumps(report["ledger"], sort_keys=True))
    shown = per_layer if args.trace else end_to_end
    for name, (value, unit) in shown.items():
        print(f"  {name:24s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in shown.items()
        },
    }))
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "repro").is_dir():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
