"""The differential oracle: every representation against every other.

For one generated circuit the oracle asserts, in order:

1. **Cross-representation equivalence** — the MIG, AIG, and BDD
   lowerings all compute the netlist's reference function.
2. **Flow preservation** — every optimizer flow (the paper's
   Algorithms 1–4, complement annealing, cut rewriting) leaves the
   function intact and the structural invariants unbroken, and the
   incremental :class:`~repro.mig.costview.CostView` agrees with the
   from-scratch ``rram_costs`` on the result.
3. **CostView differential** — each building-block pass run twice on
   identical clones, once with a CostView attached and once without,
   must produce identical outcomes (the PR-1 invalidation protocol's
   core claim, here checked on adversarial inputs instead of the
   benchmark set).
4. **Compile cost triangle** — for both realizations, the analytic
   ``S = K_S·D + L`` equals the CostView's incremental answer equals
   the compiler's measured step count, and the compiled program
   replayed on the device-level array simulator matches the MIG.
5. **PLiM backend** — the serial RM3 stream computes the same function.
6. **Crossbar mapping** — both realizations placed onto an auto-fitted
   W×H array and rescheduled into row-parallel steps must stay within
   the sequential step count, survive the full legality audit, and be
   bit-identical to the sequential program over the whole assignment
   space (sequential-vs-placed differential).

Any violation is returned as an :class:`OracleFailure` naming the check
that tripped; ``None`` means the case is clean.  Checks run on clones,
so a failure leaves the original circuit available for shrinking.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..aig import aig_from_netlist
from ..bdd import build_bdd_from_netlist, dfs_variable_order
from ..mig import (
    CostView,
    Mig,
    Realization,
    anneal_complements,
    mig_from_netlist,
    mig_matches_netlist,
    optimize_area,
    optimize_area_plus,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    rram_costs,
)
from ..mig.algorithms import (
    clear_complemented_levels,
    eliminate,
    inverter_propagation_pass,
    push_up,
)
from ..network import Netlist
from ..rram import compile_mig, compile_plim, verify_compiled
from ..sim import (
    evaluate_bdd_slices,
    execute_program_slices,
    first_difference,
    iter_assignment_chunks,
)

#: Check identifiers, in the order the oracle runs them.
CHECKS: Tuple[str, ...] = (
    "xrep-mig",
    "xrep-aig",
    "xrep-bdd",
    "flow-area",
    "flow-depth",
    "flow-rram",
    "flow-steps",
    "flow-anneal",
    "flow-rewrite",
    "costview-diff",
    "compile-imp",
    "compile-maj",
    "plim-exec",
    "crossbar-imp",
    "crossbar-maj",
)


@dataclass
class OracleFailure:
    """One oracle violation, attributable to a specific check."""

    check: str
    detail: str
    #: Filled in by the harness: generator kind and case seed.
    case: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> Dict[str, object]:
        return {"check": self.check, "detail": self.detail, **self.case}


def _guarded(check: str, fn: Callable[[], Optional[OracleFailure]]):
    """Run one check, converting an unexpected crash into a failure —
    a pass that *raises* on a legal circuit is as much a bug as one
    that corrupts it."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - the whole point is catching bugs
        trace = traceback.format_exc(limit=6)
        return OracleFailure(check, f"unexpected exception:\n{trace}")


def _check_representations(netlist: Netlist) -> Optional[OracleFailure]:
    reference = netlist.truth_tables()
    mig_tables = mig_from_netlist(netlist).truth_tables()
    if mig_tables != reference:
        return OracleFailure("xrep-mig", "MIG truth tables diverge from netlist")
    aig_tables = aig_from_netlist(netlist).truth_tables()
    if aig_tables != reference:
        return OracleFailure("xrep-aig", "AIG truth tables diverge from netlist")
    num_inputs = len(netlist.inputs)
    if num_inputs <= 8:
        manager, roots = build_bdd_from_netlist(netlist)
        order = dfs_variable_order(netlist)
        position = {name: i for i, name in enumerate(netlist.inputs)}
        for chunk in iter_assignment_chunks(num_inputs):
            # chunk.slices pack the circuit inputs; the BDD kernel wants
            # them in manager level order.
            var_slices = [chunk.slices[position[name]] for name in order]
            bdd_words = evaluate_bdd_slices(
                manager, roots, var_slices, chunk.mask
            )
            for word, table in zip(bdd_words, reference):
                expected = (table.bits >> chunk.start) & chunk.mask
                mismatch = first_difference(word, expected)
                if mismatch >= 0:
                    assignment = chunk.start + mismatch
                    return OracleFailure(
                        "xrep-bdd",
                        f"BDD disagrees on assignment {assignment:0{num_inputs}b}",
                    )
    return None


_FLOWS: Tuple[Tuple[str, Callable[[Mig, int], object]], ...] = (
    ("flow-area", lambda mig, effort: optimize_area(mig, effort)),
    ("flow-depth", lambda mig, effort: optimize_depth(mig, effort)),
    (
        "flow-rram",
        lambda mig, effort: optimize_rram(mig, Realization.MAJ, effort),
    ),
    (
        "flow-steps",
        lambda mig, effort: optimize_steps(mig, Realization.IMP, effort),
    ),
    (
        "flow-anneal",
        lambda mig, effort: anneal_complements(
            mig, Realization.MAJ, iterations=60 * effort, seed=0x5A
        ),
    ),
    (
        "flow-rewrite",
        lambda mig, effort: optimize_area_plus(mig, max(2, effort // 2)),
    ),
)


def _check_flow(
    name: str,
    runner: Callable[[Mig, int], object],
    base: Mig,
    netlist: Netlist,
    effort: int,
) -> Optional[OracleFailure]:
    mig = base.clone()
    runner(mig, effort)
    mig.check_invariants()
    if not mig_matches_netlist(mig, netlist):
        return OracleFailure(name, "optimized MIG no longer matches reference")
    for realization in (Realization.IMP, Realization.MAJ):
        scratch = rram_costs(mig, realization)
        view_costs = CostView(mig).costs(realization)
        if scratch != view_costs:
            return OracleFailure(
                name,
                f"CostView {realization.value} costs {view_costs.as_row()} "
                f"!= from-scratch {scratch.as_row()} on optimized MIG",
            )
    return None


_PASSES: Tuple[Tuple[str, Callable[[Mig, Optional[CostView]], object]], ...] = (
    ("eliminate", lambda mig, view: eliminate(mig, view=view)),
    ("push_up", lambda mig, view: push_up(mig, view=view)),
    (
        "invprop-maj",
        lambda mig, view: inverter_propagation_pass(
            mig, Realization.MAJ, view=view
        ),
    ),
    (
        "invprop-imp",
        lambda mig, view: inverter_propagation_pass(
            mig, Realization.IMP, cases=None, view=view
        ),
    ),
    (
        "clear-levels-maj",
        lambda mig, view: clear_complemented_levels(
            mig, Realization.MAJ, view=view
        ),
    ),
    (
        "clear-levels-imp",
        lambda mig, view: clear_complemented_levels(
            mig, Realization.IMP, view=view
        ),
    ),
)


def _check_costview_differential(
    base: Mig, netlist: Netlist
) -> Optional[OracleFailure]:
    """Each pass with and without a CostView must be result-identical."""
    for pass_name, runner in _PASSES:
        with_view = base.clone()
        without_view = base.clone()
        view = CostView(with_view)
        changed_with = runner(with_view, view)
        changed_without = runner(without_view, None)
        view.assert_consistent()
        if bool(changed_with) != bool(changed_without):
            return OracleFailure(
                "costview-diff",
                f"pass {pass_name}: changed={bool(changed_with)} with view, "
                f"{bool(changed_without)} without",
            )
        for realization in (Realization.IMP, Realization.MAJ):
            costs_with = rram_costs(with_view, realization)
            costs_without = rram_costs(without_view, realization)
            if costs_with != costs_without:
                return OracleFailure(
                    "costview-diff",
                    f"pass {pass_name}: {realization.value} costs diverge "
                    f"{costs_with.as_row()} (view) vs "
                    f"{costs_without.as_row()} (scratch)",
                )
        if not mig_matches_netlist(with_view, netlist):
            return OracleFailure(
                "costview-diff",
                f"pass {pass_name} with view broke the function",
            )
        if not mig_matches_netlist(without_view, netlist):
            return OracleFailure(
                "costview-diff",
                f"pass {pass_name} without view broke the function",
            )
    return None


def _check_compile(
    base: Mig, netlist: Netlist, realization: Realization, effort: int
) -> Optional[OracleFailure]:
    check = f"compile-{realization.value}"
    mig = base.clone()
    optimize_steps(mig, realization, effort)
    report = compile_mig(mig, realization)
    analytic = rram_costs(mig, realization)
    view_costs = CostView(mig).costs(realization)
    if report.analytic != analytic:
        return OracleFailure(
            check,
            f"compiler analytic {report.analytic.as_row()} != "
            f"rram_costs {analytic.as_row()}",
        )
    if view_costs != analytic:
        return OracleFailure(
            check,
            f"CostView {view_costs.as_row()} != analytic {analytic.as_row()}",
        )
    if not report.steps_match_model:
        return OracleFailure(
            check,
            f"measured steps {report.measured_steps} != model "
            f"S={analytic.steps} (depth {analytic.depth})",
        )
    if not verify_compiled(mig, report):
        return OracleFailure(
            check, "compiled program disagrees with the MIG on the array"
        )
    if not mig_matches_netlist(mig, netlist):
        return OracleFailure(check, "optimize_steps broke the function")
    return None


def _check_plim(base: Mig, netlist: Netlist) -> Optional[OracleFailure]:
    mig = base.clone()
    plim = compile_plim(mig)
    num_inputs = mig.num_pis
    plim.program.validate()
    for chunk in iter_assignment_chunks(num_inputs):
        expected = mig.simulate_words(chunk.slices, chunk.mask)
        actual = execute_program_slices(
            plim.program, chunk.slices, chunk.mask, validate=False
        )
        for expected_word, actual_word in zip(expected, actual):
            mismatch = first_difference(expected_word, actual_word)
            if mismatch >= 0:
                assignment = chunk.start + mismatch
                return OracleFailure(
                    "plim-exec",
                    f"PLiM stream wrong on assignment "
                    f"{assignment:0{num_inputs}b}",
                )
    return None


def _check_crossbar(
    base: Mig, realization: Realization
) -> Optional[OracleFailure]:
    """Sequential-vs-placed differential for one realization."""
    from ..crossbar import MappingError, check_placed, map_program

    check = f"crossbar-{realization.value}"
    mig = base.clone()
    report = compile_mig(mig, realization)
    program = report.program
    try:
        placed = map_program(program)
    except MappingError as error:
        return OracleFailure(
            check, f"auto-fit mapping refused a compilable program: {error}"
        )
    if placed.num_parallel_steps > program.num_steps:
        return OracleFailure(
            check,
            f"parallel schedule ({placed.num_parallel_steps} steps) "
            f"exceeds sequential S={program.num_steps}",
        )
    try:
        check_placed(placed)
    except MappingError as error:
        return OracleFailure(check, f"legality audit failed: {error}")
    parallel = placed.as_program()
    num_inputs = program.num_inputs
    for chunk in iter_assignment_chunks(num_inputs):
        sequential_words = execute_program_slices(
            program, chunk.slices, chunk.mask, validate=False
        )
        parallel_words = execute_program_slices(
            parallel, chunk.slices, chunk.mask, validate=False
        )
        for sequential_word, parallel_word in zip(
            sequential_words, parallel_words
        ):
            mismatch = first_difference(sequential_word, parallel_word)
            if mismatch >= 0:
                assignment = chunk.start + mismatch
                return OracleFailure(
                    check,
                    f"placed schedule diverges on assignment "
                    f"{assignment:0{num_inputs}b}",
                )
    return None


def check_case(
    netlist: Netlist,
    mig: Optional[Mig] = None,
    *,
    effort: int = 4,
    checks: Optional[List[str]] = None,
) -> Optional[OracleFailure]:
    """Run the full differential oracle on one circuit.

    ``mig`` optionally supplies the structured MIG the netlist was
    exported from (it may carry dead nodes the netlist cannot express).
    ``checks`` restricts to a subset of :data:`CHECKS` — the shrinker
    uses this to re-test only the check that originally failed.
    """
    enabled = set(checks) if checks is not None else None

    def on(check: str) -> bool:
        # Prefix-tolerant: a crash inside the representation block is
        # attributed to "xrep", which must still match "xrep-bdd" when
        # the shrinker re-runs only the originally failing check.
        if enabled is None:
            return True
        return any(
            check.startswith(c) or c.startswith(check) for c in enabled
        )

    if on("xrep"):
        failure = _guarded("xrep", lambda: _check_representations(netlist))
        if failure is not None:
            return failure

    base = mig if mig is not None else mig_from_netlist(netlist)

    for name, runner in _FLOWS:
        if not on(name):
            continue
        failure = _guarded(
            name, lambda: _check_flow(name, runner, base, netlist, effort)
        )
        if failure is not None:
            return failure

    if on("costview-diff"):
        failure = _guarded(
            "costview-diff",
            lambda: _check_costview_differential(base, netlist),
        )
        if failure is not None:
            return failure

    for realization in (Realization.IMP, Realization.MAJ):
        check = f"compile-{realization.value}"
        if not on(check):
            continue
        failure = _guarded(
            check,
            lambda: _check_compile(base, netlist, realization, effort),
        )
        if failure is not None:
            return failure

    if on("plim-exec") and len(netlist.inputs) <= 8:
        failure = _guarded("plim-exec", lambda: _check_plim(base, netlist))
        if failure is not None:
            return failure

    if len(netlist.inputs) <= 8:
        for realization in (Realization.IMP, Realization.MAJ):
            check = f"crossbar-{realization.value}"
            if not on(check):
                continue
            failure = _guarded(
                check, lambda: _check_crossbar(base, realization)
            )
            if failure is not None:
                return failure

    return None
