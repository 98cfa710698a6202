#!/usr/bin/env python3
"""Record the whole-set Table II reference the table2 workload checks against.

Run from the repository root (about 100 s on a 2-core x86 box):

    python3 perfbench/reference.py

Runs all 25 large circuits x the six Table II configurations at effort
10 through the same cells as ``run.py``, in table order, and sums their
optimizer counters.  The sums must equal the latest ``kind: "table2"``
entry of ``BENCH_runtime.json``, which proves the cells are the flow the
ledger has tracked.  Only then does it write ``table2_reference.json``:
per cell, the ledger's counters plus Table I R and S.  Each table2 run
compares its cells with that file, so a drift in any cell shows.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, _latest_ledger_profile


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.benchmarks import large_names, load_netlist

    from workloads import Spans, TABLE2_EFFORT, Inputs, run_cell, table2_cells

    ledger = _latest_ledger_profile()
    cells = table2_cells(large_names())
    inputs = Inputs({name: load_netlist(name) for name in large_names()})
    reference = {}
    for cell in cells:
        result = run_cell(cell, inputs, TABLE2_EFFORT, 0, Spans(False))
        if not result.passed:
            print(f"{cell.key}: failed its correctness check", file=sys.stderr)
            return 1
        entry = {key: result.profile.get(key, 0) for key in ledger}
        entry.update(rrams=result.rrams, steps=result.steps)
        reference[cell.key] = entry
    sums = {key: sum(e[key] for e in reference.values()) for key in ledger}
    for key in sorted(ledger):
        mark = "ok" if sums[key] == ledger[key] else "MISMATCH"
        print(f"{key:24s} {sums[key]:>10d} ledger {ledger[key]:>10d} {mark}")
    if sums != dict(ledger):
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"effort": TABLE2_EFFORT, "cells": reference}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE.name}: {len(reference)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
