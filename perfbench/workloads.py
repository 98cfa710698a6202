"""Workloads of the layer-resolved benchmark: inputs, cells and the oracle.

A *cell* is one circuit under one configuration.  Every cell runs the
paper's flow through the public function of each layer, one call per
layer, each wrapped in a benchmark-side span:

    io.parse -> mig.build -> mig.optimize -> mig.costs -> rram.compile
    -> rram.verify -> mig.equiv [-> crossbar.map -> crossbar.identity]

The oracle does not trust the compiler under test: the compiled program
is checked against the optimized MIG (``verify_compiled``) and that MIG
against the *source* netlist (``mig_matches_netlist``), so together the
program is checked against the input function.  Crossbar cells are also
checked for schedule identity and for parallel steps <= sequential S.

Importing this module imports the package under test, so ``run.py``
puts the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.benchmarks import load_netlist, small_names
from repro.benchmarks.scale import load_scale_netlist
from repro.crossbar import map_program
from repro.flows.experiments import TABLE2_CONFIGS, placed_identical
from repro.io import parse_bench, write_bench
from repro.mig import (
    Realization,
    mig_from_netlist,
    mig_matches_netlist,
    optimize_steps,
    rram_costs,
)
from repro.rram import compile_mig, verify_compiled
from repro.rram.verify import EXHAUSTIVE_LIMIT as PROGRAM_EXHAUSTIVE_LIMIT

#: Table II effort used by the repo's ledger series since its first entry.
TABLE2_EFFORT = 10
#: The Table II circuits of at most 500 MIG gates, in table order.  A run
#: repeats every cell in several passes and keeps each cell's best time,
#: which is what makes the figures steady on a shared host.  The thirteen
#: larger circuits (604 to 2,495 gates) take over 90% of whole-set time
#: and would leave room for one pass only; ``reference.py`` runs all 25.
TABLE2_CIRCUITS = (
    "5xp1", "alu4", "b9", "clip", "cm150a", "cm162a", "cm163a", "cordic",
    "misex1", "parity", "t481", "x2",
)
#: wallace32 runs the step flow at this effort under both realizations
#: (above the slab cutover).  wallace128 runs parse -> build -> compile ->
#: verify with no optimizer, under MAJ only (its compile takes ~5 s against
#: ~12 s for IMP), in the first pass only: the wallace32 cells then get
#: three passes, so their best times are steady.
SCALE_EFFORT = 2
SCALE_OPTIMIZED = "wallace32"
SCALE_UNOPTIMIZED = "wallace128"
CROSSBAR_EFFORT = 10
#: Random program-verification vectors per wide cell (plus the all-0 and
#: all-1 corners); narrower interfaces are checked exhaustively.
WIDE_VECTORS = 256

REALIZATIONS = (Realization.IMP, Realization.MAJ)


class Spans:
    """Benchmark-side spans, kept in memory and written out at exit.

    Disabled, :meth:`span` returns one shared no-op context manager, so
    the untraced run pays one method call per layer call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    def span(self, name: str, **attrs: object):
        return _LiveSpan(self, name, attrs) if self.enabled else _NO_SPAN


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class _LiveSpan:
    __slots__ = ("_spans", "_record", "_start")

    def __init__(self, spans: Spans, name: str, attrs: Dict[str, object]):
        self._spans = spans
        self._record: Dict[str, object] = {"name": name, "attrs": attrs}

    def __enter__(self) -> None:
        spans = self._spans
        self._record["span_id"] = spans._next_id
        self._record["parent_id"] = spans._stack[-1] if spans._stack else None
        spans._stack.append(spans._next_id)
        spans._next_id += 1
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        spans = self._spans
        spans._stack.pop()
        self._record["start_s"] = self._start - spans._origin
        self._record["dur_s"] = end - self._start
        spans.records.append(self._record)


@dataclass(frozen=True)
class Cell:
    """One circuit under one configuration."""

    circuit: str
    config: str
    realization: Realization
    optimize: Optional[Callable[..., object]]
    parse: bool = False
    crossbar: bool = False
    #: False runs the cell in the first pass only.
    repeat: bool = True

    @property
    def key(self) -> str:
        return f"{self.circuit}/{self.config}"


@dataclass
class Inputs:
    """What set-up builds: source netlists and, for parsed cells, text."""

    netlists: Dict[str, object] = field(default_factory=dict)
    bench_text: Dict[str, str] = field(default_factory=dict)


@dataclass
class CellResult:
    """Outputs and layer counters of one cell run."""

    passed: bool
    rrams: int
    steps: int
    xbar_steps: int
    devices: int
    program_steps: int
    vectors: int
    gates_parsed: int
    build_gates: int
    utilization: float
    profile: Dict[str, int]

    def outcome(self) -> tuple:
        """Everything that must repeat exactly on every pass and seed."""
        return (
            self.rrams, self.steps, self.xbar_steps, self.devices,
            self.program_steps, tuple(sorted(self.profile.items())),
        )


def _table2_setup() -> Inputs:
    load_netlist.cache_clear()
    return Inputs({name: load_netlist(name) for name in TABLE2_CIRCUITS})


def table2_cells(circuits=TABLE2_CIRCUITS) -> List[Cell]:
    """The Table II configurations over ``circuits``, in table order."""
    return [
        Cell(name, config, realization, optimizer)
        for name in circuits
        for config, (optimizer, realization) in TABLE2_CONFIGS.items()
    ]


def _scale_setup() -> Inputs:
    inputs = Inputs()
    for name in (SCALE_OPTIMIZED, SCALE_UNOPTIMIZED):
        netlist = load_scale_netlist(name)
        inputs.netlists[name] = netlist
        inputs.bench_text[name] = write_bench(netlist)
    return inputs


def _scale_cells() -> List[Cell]:
    return [
        Cell(SCALE_OPTIMIZED, f"steps_{r.value}", r,
             lambda mig, effort, r=r: optimize_steps(mig, r, effort),
             parse=True)
        for r in REALIZATIONS
    ] + [Cell(SCALE_UNOPTIMIZED, "none_maj", Realization.MAJ, None,
              parse=True, repeat=False)]


def _crossbar_setup() -> Inputs:
    load_netlist.cache_clear()
    return Inputs({name: load_netlist(name) for name in small_names()})


def _crossbar_cells() -> List[Cell]:
    return [
        Cell(name, f"steps_{r.value}", r,
             lambda mig, effort, r=r: optimize_steps(mig, r, effort),
             crossbar=True)
        for name in small_names()
        for r in REALIZATIONS
    ]


@dataclass(frozen=True)
class Workload:
    """A cell set, how to set it up, and its nominal pass length."""

    effort: int
    setup: Callable[[], Inputs]
    cells: Callable[[], List[Cell]]
    #: A run makes ``max(1, seconds // pass_seconds)`` passes; this is
    #: about the mean pass length on a 2-core x86 box.
    pass_seconds: float


WORKLOADS: Dict[str, Workload] = {
    "table2": Workload(TABLE2_EFFORT, _table2_setup, table2_cells, 7.0),
    "scale": Workload(SCALE_EFFORT, _scale_setup, _scale_cells, 10.0),
    "crossbar": Workload(CROSSBAR_EFFORT, _crossbar_setup, _crossbar_cells,
                         8.75),
}


def run_cell(
    cell: Cell, inputs: Inputs, effort: int, seed: int, spans: Spans
) -> CellResult:
    """Run one cell through every layer and check it against its source."""
    source = inputs.netlists[cell.circuit]
    # Keyed by cell, not by position, so the vectors a cell sees do not
    # depend on the (seed-permuted) order cells run in.
    rng = random.Random(f"{seed}:{cell.key}")
    gates_parsed = 0
    if cell.parse:
        with spans.span("io.parse"):
            netlist = parse_bench(inputs.bench_text[cell.circuit], cell.circuit)
        gates_parsed = netlist.num_gates
    else:
        netlist = source
    with spans.span("mig.build"):
        mig = mig_from_netlist(netlist)
    build_gates = mig.num_gates()
    profile: Dict[str, int] = {}
    if cell.optimize is not None:
        with spans.span("mig.optimize"):
            result = cell.optimize(mig, effort)
        profile = dict(result.profile or {})
    with spans.span("mig.costs"):
        costs = rram_costs(mig, cell.realization)
    with spans.span("rram.compile"):
        report = compile_mig(mig, cell.realization)
    program = report.program

    num_inputs = mig.num_pis
    if num_inputs <= PROGRAM_EXHAUSTIVE_LIMIT:
        vectors = None
        vectors_checked = 1 << num_inputs
    else:
        vectors = [[False] * num_inputs, [True] * num_inputs] + [
            [rng.random() < 0.5 for _ in range(num_inputs)]
            for _ in range(WIDE_VECTORS)
        ]
        vectors_checked = len(vectors)
    with spans.span("rram.verify"):
        passed = verify_compiled(mig, report, vectors=vectors)
    with spans.span("mig.equiv"):
        passed &= mig_matches_netlist(mig, source, seed=rng.getrandbits(32))

    xbar_steps = program.num_steps
    utilization = 0.0
    if cell.crossbar:
        with spans.span("crossbar.map"):
            placed = map_program(program)
        with spans.span("crossbar.identity"):
            passed &= placed_identical(
                program, placed, seed=rng.getrandbits(32)
            )
        passed &= placed.num_parallel_steps <= program.num_steps
        xbar_steps = placed.num_parallel_steps
        utilization = placed.utilization
    return CellResult(
        passed=passed,
        rrams=costs.rrams,
        steps=costs.steps,
        xbar_steps=xbar_steps,
        devices=program.num_devices,
        program_steps=program.num_steps,
        vectors=vectors_checked,
        gates_parsed=gates_parsed,
        build_gates=build_gates,
        utilization=utilization,
        profile=profile,
    )
