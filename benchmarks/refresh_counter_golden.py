"""Refresh the checked-in Table II counter-identity fixture.

The golden test (``tests/test_counter_golden.py``) replays the whole
Table II corpus at a pinned effort and job count and compares every
deterministic counter against
``tests/data/table2_counters_golden.json``.  Any drift fails tier-1,
because these counters are pure functions of the algorithm and its
inputs: they may only change when an algorithm change *intends* them
to, and then this script is the one-command refresh that records the
new contract:

    PYTHONPATH=src python benchmarks/refresh_counter_golden.py

Review the resulting fixture diff like source code — every counter
delta is an algorithmic behavior change that the commit message should
be able to explain.
"""

from __future__ import annotations

import json
import os
import sys

FIXTURE = os.path.abspath(
    os.path.join(
        os.path.dirname(__file__),
        os.pardir,
        "tests",
        "data",
        "table2_counters_golden.json",
    )
)

#: The pinned flow configuration.  Effort 2 keeps the refresh/test run
#: tractable (~1 min: the fixed build cost dominates) while still
#: driving every optimizer ladder, the strash tables, and the
#: transaction undo log over the full corpus.
EFFORT = 2
JOBS = 1


def capture() -> dict:
    from repro.flows.bench import bench_table2
    from repro.telemetry import DETERMINISTIC_COUNTER_KEYS

    entry = bench_table2(None, effort=EFFORT, jobs=JOBS)
    profile = entry["profile"]
    counters = {
        key: profile[key]
        for key in DETERMINISTIC_COUNTER_KEYS
        if key in profile
    }
    return {
        "_comment": (
            "Deterministic Table II whole-set counter snapshot. "
            "Regenerate with: PYTHONPATH=src python "
            "benchmarks/refresh_counter_golden.py"
        ),
        "effort": EFFORT,
        "jobs": JOBS,
        "benchmarks": entry["benchmarks"],
        "counters": counters,
    }


def main() -> int:
    fixture = capture()
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
    for key, value in sorted(fixture["counters"].items()):
        print(f"  {key:25s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
