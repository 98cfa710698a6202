"""Cut-based MIG rewriting.

The strongest area pass in the library: for every node, enumerate small
cuts, resynthesize each cut function from scratch with the
decomposition engine (:mod:`repro.mig.resynth`), and commit the
replacement when it strictly frees nodes:

    ``gain = |MFFC(node, cut)| − (new nodes the candidate adds)``

Candidate construction is performed directly in the graph (structural
hashing makes re-used logic free and lets the gain computation count
*actually new* nodes); rejected candidates are simply left dead and are
invisible to all live-node views.

This mirrors the DAG-aware rewriting of the ABC/mockturtle tradition;
the paper's Alg. 1 only has `eliminate` + reshaping, so the pass is an
*extension* — kept out of the paper-faithful algorithms and exposed as
:func:`cut_rewrite` plus the ``optimize_area_plus`` flow (ablated in
``benchmarks/bench_rewriting.py``).
"""

from __future__ import annotations

from ..telemetry import metrics, traced
from .algorithms import (
    OptimizationResult,
    _drive,
    _size_depth,
    clear_complemented_levels,
    eliminate,
    inverter_propagation_pass,
    optimize_steps,
    push_up,
    reshape,
)
from .views import Realization, rram_costs
from .cuts import (
    DEFAULT_CUT_SIZE,
    cut_function,
    enumerate_cuts,
    mffc_size,
)
from .graph import Mig, MigError, signal_node
from .resynth import synthesize_table


@traced("pass.cut_rewrite")
def cut_rewrite(
    mig: Mig,
    *,
    cut_size: int = DEFAULT_CUT_SIZE,
    allow_zero_gain: bool = False,
    max_rounds: int = 4,
) -> bool:
    """One-to-many cut rewriting until no strict improvement remains.

    Returns True when at least one replacement was committed.
    ``allow_zero_gain`` also accepts size-neutral replacements (useful
    as a diversification step before ``eliminate``).
    """
    changed_any = False
    registry = metrics()
    rounds = registry.counter("rewrite.rounds")
    rollbacks = registry.counter("rewrite.rollbacks")
    for _round in range(max_rounds):
        rounds.inc()
        # Round-level undo scope: a tripped monotonicity guard rolls
        # back and compacts (bit-identical to a
        # ``copy_from(round_snapshot)`` restore — both land on
        # ``clone(clone(pre-round state))``); a surviving round commits
        # for free instead of discarding a whole-graph clone.
        token = mig.checkpoint()
        size_before = mig.num_gates()
        changed = False
        cuts = enumerate_cuts(mig, cut_size=cut_size)
        live = set(mig.reachable_nodes())
        for node in list(live):
            if not mig.is_gate(node):
                continue
            if _rewrite_node(
                mig, node, cuts.get(node, []), allow_zero_gain, live
            ):
                changed = True
        mig.sweep_dead()
        if mig.num_gates() > size_before:
            # Local gains did not compose (shared logic shifted under
            # later rewrites): monotonicity guard.
            mig.rollback(token)
            mig.compact()
            rollbacks.inc()
            break
        mig.commit(token)
        if not changed:
            break
        changed_any = True
    return changed_any


def _dead_cone_count(mig: Mig, root_signal: int, live) -> int:
    """Gate nodes in the cone of ``root_signal`` not currently live —
    the true node cost of committing a candidate (fresh allocations and
    resurrected rejects alike)."""
    count = 0
    seen = set()
    stack = [signal_node(root_signal)]
    while stack:
        node = stack.pop()
        if node in seen or node in live or not mig.is_gate(node):
            continue
        seen.add(node)
        count += 1
        for child in mig.children(node):
            stack.append(signal_node(child))
    return count


def _rewrite_node(
    mig: Mig,
    node: int,
    node_cuts,
    allow_zero_gain: bool,
    live,
) -> bool:
    for cut in node_cuts:
        leaves = sorted(cut)
        if len(leaves) < 2 or node in cut:
            continue
        # Stale-cut guards: an earlier rewrite this round may have
        # merged a leaf away entirely (leaves are never traversed by
        # cut_function, so they must be checked for liveness here).
        if not all(mig.is_gate(leaf) or mig.is_pi(leaf) for leaf in leaves):
            continue
        try:
            table = cut_function(mig, node, leaves)
        except ValueError:
            continue  # the cone escaped the stale cut
        budget = mffc_size(mig, node, leaves, live)
        leaf_signals = [leaf << 1 for leaf in leaves]
        try:
            candidate = synthesize_table(mig, table, leaf_signals)
        except (MigError, ValueError):
            continue
        if signal_node(candidate) == node:
            continue
        added = _dead_cone_count(mig, candidate, live)
        gain = budget - added
        if gain < 0 or (gain == 0 and not allow_zero_gain):
            continue
        try:
            mig.substitute(node, candidate)
        except MigError:
            continue
        metrics().counter("rewrite.substitutions").inc()
        # Refresh the live set: the commit both revives the candidate
        # cone and kills the MFFC, and later gain estimates must see
        # the truth (a stale set lets zero-cost "reuse" of dead nodes
        # slip through and the pass can grow the graph).
        live.clear()
        live.update(mig.reachable_nodes())
        return True
    return False


def optimize_area_plus(
    mig: Mig, effort: int = 10, *, cut_size: int = DEFAULT_CUT_SIZE
) -> OptimizationResult:
    """Area optimization with cut rewriting layered over Alg. 1's
    passes (extension flow; see module docstring).

    Uses the same best-snapshot driver as the paper algorithms, so the
    result is never worse than the starting point.
    """

    def body(graph: Mig, cycle: int) -> bool:
        changed = eliminate(graph)
        changed |= cut_rewrite(graph, cut_size=cut_size)
        changed |= reshape(graph, variant=cycle)
        changed |= eliminate(graph)
        return changed

    def objective(graph: Mig):
        size, depth = _size_depth(graph)
        return (size, depth)

    result = _drive(mig, "area+rewrite", effort, body, objective)
    eliminate(mig)
    size, depth = _size_depth(mig)
    result.final_size, result.final_depth = size, depth
    return result


def optimize_rram_plus(
    mig: Mig,
    realization: Realization = Realization.MAJ,
    effort: int = 10,
    *,
    step_budget_factor: float = 1.45,
    cut_size: int = DEFAULT_CUT_SIZE,
) -> OptimizationResult:
    """Alg. 3 with cut rewriting in the loop (extension flow).

    Cut rewriting shrinks the graph, which shrinks level populations and
    therefore ``R = max(K·N_i + C_i)`` directly — the lever the paper's
    conventional area pass mostly lacks.  Same budgeted objective as
    :func:`repro.mig.algorithms.optimize_rram`.
    """
    probe = mig.clone()
    optimize_steps(probe, realization, min(effort, 16))
    budget = int(
        rram_costs(probe, realization).steps * step_budget_factor
    ) + 1

    def objective(graph: Mig):
        costs = rram_costs(graph, realization)
        return (1 if costs.steps > budget else 0, costs.rrams, costs.steps)

    if objective(probe) < objective(mig):
        mig.copy_from(probe)

    def body(graph: Mig, cycle: int) -> bool:
        changed = cut_rewrite(graph, cut_size=cut_size)
        changed |= push_up(graph, use_relevance=False)
        changed |= inverter_propagation_pass(
            graph, realization, cases=(1, 2, 3), steps_weight=2, rram_weight=1
        )
        changed |= clear_complemented_levels(graph, realization)
        changed |= reshape(graph, variant=cycle)
        changed |= eliminate(graph)
        return changed

    return _drive(mig, "rram+rewrite", effort, body, objective)
