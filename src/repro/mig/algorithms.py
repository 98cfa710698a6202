"""The paper's MIG optimization algorithms (Sec. III-C and III-D).

Four entry points, mirroring the paper's Algorithms 1–4:

* :func:`optimize_area`   — conventional size optimization (Alg. 1);
* :func:`optimize_depth`  — conventional depth optimization (Alg. 2);
* :func:`optimize_rram`   — the proposed bi-objective optimization of
  RRAM count and computational steps (Alg. 3);
* :func:`optimize_steps`  — the proposed step-count optimization
  (Alg. 4).

All four mutate the given MIG in place and return an
:class:`OptimizationResult` describing the trajectory.  They iterate up
to ``effort`` cycles (the paper fixes ``effort = 40``) with early exit
once a full cycle makes no structural change — this is result-identical
to running the remaining cycles, which would all be no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry import active_trajectory, span, traced
from .costview import CostView
from .graph import Mig, signal_is_complemented, signal_node
from .rewrite import (
    apply_associativity,
    apply_complementary_associativity,
    apply_distributivity_lr,
    apply_distributivity_rl,
    apply_inverter_propagation,
    apply_relevance,
    inverter_propagation_case,
)
from .views import Realization, level_stats, node_heights, node_levels, rram_costs

DEFAULT_EFFORT = 40


@dataclass
class OptimizationResult:
    """Trajectory of one optimization run."""

    algorithm: str
    cycles_run: int
    initial_size: int
    initial_depth: int
    final_size: int
    final_depth: int
    history: List[Tuple[int, int]] = field(default_factory=list)  # (size, depth)
    #: CostView observability counters (``repro.cli --profile``).
    profile: Optional[Dict[str, int]] = None

    @property
    def size_reduction(self) -> int:
        """Nodes removed by the run (negative = growth)."""
        return self.initial_size - self.final_size

    @property
    def depth_reduction(self) -> int:
        """Levels removed by the run (negative = growth)."""
        return self.initial_depth - self.final_depth


# Every pass accepts an optional CostView; without one it falls back to
# the from-scratch views (same answers, recomputed per call).


def _levels_of(mig: Mig, view: Optional[CostView]) -> Dict[int, int]:
    return view.levels() if view is not None else node_levels(mig)


def _stats_of(mig: Mig, view: Optional[CostView]):
    return view.stats() if view is not None else level_stats(mig)


def _costs_of(mig: Mig, realization: Realization, view: Optional[CostView]):
    return view.costs(realization) if view is not None else rram_costs(
        mig, realization
    )


def _reachable_of(mig: Mig, view: Optional[CostView]) -> List[int]:
    return view.reachable() if view is not None else mig.reachable_nodes()


def _size_depth(
    mig: Mig, view: Optional[CostView] = None
) -> Tuple[int, int]:
    if view is not None:
        return view.size_depth()
    stats = level_stats(mig)
    return stats.size, stats.depth


def _record_trial(
    mig: Mig, view: Optional[CostView], *, rule: str, accepted: bool
) -> None:
    """Feed the active trajectory recorder (no-op when none installed)."""
    recorder = active_trajectory()
    if recorder is not None:
        recorder.record_state(mig, view, rule=rule, accepted=accepted)


# ----------------------------------------------------------------------
# Building-block passes
# ----------------------------------------------------------------------


@traced("pass.eliminate")
def eliminate(
    mig: Mig, *, max_rounds: int = 64, view: Optional[CostView] = None
) -> bool:
    """``Ω.M; Ω.D_{R→L}`` to convergence — the paper's *eliminate*.

    Ω.M is enforced structurally at all times, so the pass reduces to
    repeatedly applying right-to-left distributivity wherever it cannot
    increase the node count.
    """
    changed_any = False
    for _round in range(max_rounds):
        changed = False
        for node in _reachable_of(mig, view):
            if not mig.is_gate(node):
                continue
            if apply_distributivity_rl(mig, node):
                changed = True
        if not changed:
            break
        changed_any = True
    return changed_any


@traced("pass.reshape")
def reshape(
    mig: Mig, *, variant: int = 0, view: Optional[CostView] = None
) -> bool:
    """One ``Ω.A; Ψ.C`` sweep that re-arranges the graph.

    Used by Alg. 1 between eliminations to expose new merging
    opportunities.  ``variant`` alternates the node traversal direction
    between cycles so successive reshapes explore different orders.
    """
    levels = _levels_of(mig, view)
    nodes = _reachable_of(mig, view)
    if variant % 2:
        nodes = list(reversed(nodes))
    changed = False
    for node in nodes:
        if not mig.is_gate(node):
            continue
        if apply_associativity(mig, node, levels, allow_neutral=True):
            changed = True
            levels = _levels_of(mig, view)
        elif apply_complementary_associativity(mig, node, levels):
            changed = True
            levels = _levels_of(mig, view)
    return changed


def _critical_nodes_from(
    mig: Mig, levels: Dict[int, int], view: Optional[CostView] = None
) -> List[int]:
    heights = view.heights() if view is not None else node_heights(mig)
    depth = 0
    for po in mig.pos:
        depth = max(depth, levels.get(signal_node(po), 0))
    nodes = [
        node
        for node in _reachable_of(mig, view)
        if levels[node] + heights.get(node, 0) == depth
    ]
    nodes.sort(key=lambda n: levels[n], reverse=True)
    return nodes


@traced("pass.push_up")
def push_up(
    mig: Mig,
    *,
    use_relevance: bool = True,
    max_sweeps: int = 24,
    view: Optional[CostView] = None,
) -> bool:
    """The paper's *push-up*: drive critical variables to upper levels.

    Per sweep: for every node on a critical path (deepest first), try
    ``Ω.M`` (implicit), ``Ω.D_{L→R}``, ``Ω.A``, ``Ψ.C`` and finally
    ``Ψ.R`` relevance, accepting level-reducing moves.  Sweeps repeat
    while the depth keeps improving.
    """
    changed_any = False
    best_depth: Optional[int] = None
    stale_sweeps = 0
    for _sweep in range(max_sweeps):
        levels = _levels_of(mig, view)
        depth = 0
        for po in mig.pos:
            depth = max(depth, levels.get(signal_node(po), 0))
        if best_depth is None or depth < best_depth:
            best_depth = depth
            stale_sweeps = 0
        else:
            stale_sweeps += 1
            if stale_sweeps >= 2:
                break
        moved = False
        for node in _critical_nodes_from(mig, levels, view):
            if not mig.is_gate(node):
                continue
            if (
                apply_distributivity_lr(mig, node, levels)
                or apply_associativity(mig, node, levels)
                or apply_complementary_associativity(mig, node, levels)
                or (use_relevance and apply_relevance(mig, node, levels))
            ):
                moved = True
        if not moved:
            break
        changed_any = True
    return changed_any


# ----------------------------------------------------------------------
# Inverter propagation pass (Sec. III-C3 / III-D)
# ----------------------------------------------------------------------

def _apply_flip_tracked(
    mig: Mig, node: int, levels: Dict[int, int]
) -> Optional[bool]:
    """Flip ``node`` and report whether incremental tracking survives.

    Returns True when the flip allocated a fresh node (pure polarity
    toggle, level structure untouched), False when the flip merged into
    an existing node (caller must recompute statistics), or None when
    the flip did not apply.
    """
    before_alloc = mig.num_nodes_allocated
    level = levels.get(node)
    if not apply_inverter_propagation(mig, node):
        return None
    fresh = mig.num_nodes_allocated == before_alloc + 1
    if fresh and level is not None:
        levels[mig.num_nodes_allocated - 1] = level
    return fresh


@traced("pass.inverter_propagation")
def inverter_propagation_pass(
    mig: Mig,
    realization: Realization,
    *,
    cases: Optional[Sequence[int]] = (1, 2, 3),
    steps_weight: int = 4,
    rram_weight: int = 1,
    max_rounds: int = 4,
    view: Optional[CostView] = None,
) -> bool:
    """Greedy complement re-placement via Ω.I.

    Scans all gates bottom-up and flips candidates (``M(x,y,z) →
    !M(!x,!y,!z)``) when the *predicted* weighted cost change
    ``steps_weight·ΔS + rram_weight·ΔR`` is an improvement (ties broken
    toward fewer complemented edges on lower levels).

    ``cases`` selects the candidate filter: a sequence restricts flips
    to the paper's Sec. III-C3 cases (nodes with ≥ 2 complemented
    ingoing edges, split 1/2/3 by fanout polarity); ``None`` is the
    *base rule applied to the entire MIG* used by the first round of
    Alg. 4 — any gate is a candidate and the acceptance policy alone
    decides.

    Flips do not move nodes between levels, so ``ΔS``/``ΔR`` are
    predicted exactly from incrementally maintained per-level complement
    counts; the rare flip that merges nodes structurally triggers a full
    recount.
    """
    changed_any = False
    for _round in range(max_rounds):
        stats = _stats_of(mig, view)
        # No defensive copy: node_levels is freshly built per stats()
        # call and excluded from the frozen dataclass hash/compare.
        levels = stats.node_levels
        n_per_level = list(stats.nodes_per_level)
        c_per_level = list(stats.complements_per_level)
        po_complements = stats.po_complements
        k_r = realization.rrams_per_gate

        def total_l(c_levels: List[int], po_c: int) -> int:
            count = sum(1 for c in c_levels[1:] if c > 0)
            return count + (1 if po_c > 0 else 0)

        def total_r(c_levels: List[int]) -> int:
            best = po_complements
            for level in range(1, len(n_per_level)):
                best = max(best, k_r * n_per_level[level] + c_levels[level])
            return best

        def predict_one(node: int, level: int):
            """The post-flip complement histogram ``(new_c, new_po_c)``,
            or None when an attached parent is untracked (dead) or out
            of range — the move is unscorable and is skipped."""
            new_c = list(c_per_level)
            new_po_c = po_complements
            children = mig.children(node)
            non_const = [s for s in children if signal_node(s) != 0]
            old_cin = sum(1 for s in non_const if signal_is_complemented(s))
            new_c[level] += (len(non_const) - old_cin) - old_cin
            for parent in mig.fanout_counts(node):
                parent_level = levels.get(parent)
                if parent_level is None or parent_level >= len(new_c):
                    return None
                for s in mig.children(parent):
                    if signal_node(s) != node:
                        continue
                    new_c[parent_level] += -1 if signal_is_complemented(s) else 1
            for po_index in mig.po_refs(node):
                po = mig.pos[po_index]
                new_po_c += -1 if signal_is_complemented(po) else 1
            return new_c, new_po_c

        changed = False
        for node in _reachable_of(mig, view):
            if not mig.is_gate(node):
                continue
            case = inverter_propagation_case(mig, node)
            if cases is not None and (case is None or case not in cases):
                continue
            level = levels.get(node)
            if level is None or level >= len(c_per_level):
                continue
            # Predict the new complement counts after flipping `node`.
            predicted = predict_one(node, level)
            if predicted is None:
                continue
            new_cost = steps_weight * total_l(predicted[0], predicted[1])
            new_cost += rram_weight * total_r(predicted[0])
            c_own = predicted[0][level]
            old_cost = steps_weight * total_l(c_per_level, po_complements)
            old_cost += rram_weight * total_r(c_per_level)
            if view is not None:
                view.counters.moves_tried += 1
            if new_cost > old_cost:
                continue
            if new_cost == old_cost:
                # Tie-break: prefer pushing complements upward (cases
                # 1/2 shrink the current level's complement population),
                # which is what creates follow-up opportunities
                # (Sec. III-D); refuse neutral case-3 churn.
                if case == 3 or case is None or c_own >= c_per_level[level]:
                    continue
            new_c, new_po_c = predicted
            outcome = _apply_flip_tracked(mig, node, levels)
            if outcome is None:
                continue
            changed = True
            changed_any = True
            if view is not None:
                view.counters.moves_accepted += 1
            if outcome:
                c_per_level = new_c
                po_complements = new_po_c
            else:
                # Structural merge — recount everything.
                stats = _stats_of(mig, view)
                levels = stats.node_levels
                n_per_level = list(stats.nodes_per_level)
                c_per_level = list(stats.complements_per_level)
                po_complements = stats.po_complements
        if not changed:
            break
    return changed_any


def _level_clear_plan(
    mig: Mig, level: int, levels: Dict[int, int]
) -> Optional[Tuple[List[int], List[int]]]:
    """Plan the Ω.I flips that would rid ``level`` of complemented
    ingoing edges, or None when the level is structurally unclearable.

    Strategy per gate of the level: complemented gate-driven edges are
    cleared by flipping the *child* (moving the complement below);
    a gate whose complemented edges are all PI-driven can only be
    cleared by flipping itself, which requires every non-constant edge
    to be complemented.  Pure analysis — no mutation.
    """
    children_to_flip: List[int] = []
    nodes_to_flip: List[int] = []
    found = False
    for node in mig.reachable_nodes():
        if levels.get(node) != level:
            continue
        complemented = [
            s
            for s in mig.children(node)
            if signal_is_complemented(s) and signal_node(s) != 0
        ]
        if not complemented:
            continue
        found = True
        gate_children = [
            signal_node(s) for s in complemented if mig.is_gate(signal_node(s))
        ]
        non_const = sum(
            1 for s in mig.children(node) if signal_node(s) != 0
        )
        if len(gate_children) == len(complemented):
            children_to_flip.extend(gate_children)
        elif len(complemented) == non_const:
            nodes_to_flip.append(node)
        else:
            return None
    if not found:
        return None
    return (list(dict.fromkeys(children_to_flip)), nodes_to_flip)


def _try_clear_level(mig: Mig, level: int, levels: Dict[int, int]) -> bool:
    """Execute a level-clearing plan; see :func:`_level_clear_plan`."""
    plan = _level_clear_plan(mig, level, levels)
    if plan is None:
        return False
    children_to_flip, nodes_to_flip = plan
    for node in children_to_flip:
        if mig.is_gate(node):
            apply_inverter_propagation(mig, node)
    for node in nodes_to_flip:
        if mig.is_gate(node):
            apply_inverter_propagation(mig, node)
    return True


@traced("pass.clear_complemented_levels")
def clear_complemented_levels(
    mig: Mig,
    realization: Realization,
    *,
    max_rounds: int = 16,
    view: Optional[CostView] = None,
) -> bool:
    """Greedy level-clearing: the objective of paper Sec. III-D made
    explicit.

    ``S = K_S·D + L`` counts *levels* with complemented edges, so a
    level is only worth cleaning if every one of its complemented edges
    goes away together.  Each candidate level (cheapest first) is
    attacked with a coordinated group of Ω.I flips; the attempt is
    committed only when the global step count strictly improves (RRAM
    count as tie-break), otherwise rolled back.

    With a :class:`CostView` attached, rejected candidates are scored
    with :meth:`CostView.predict_flip_group` instead of the
    apply/measure/rollback cycle that dominates the whole-set runtime.
    This is result-identical: the prediction is exact unless a strash
    collision is possible (then it falls back to the measured path),
    and the baseline's rollback renumbering — ``copy_from(snapshot)``
    lands on ``clone(clone(state))``, and cloning is *not* idempotent
    because renumbering re-sorts triples and thus reorders the next
    traversal — is reproduced verbatim by ``copy_from(clone())``; the
    trial flips themselves never touch the surviving arrays.
    """
    changed_any = False
    for _round in range(max_rounds):
        stats = _stats_of(mig, view)
        before = (
            stats.step_count(realization),
            stats.rram_count(realization),
        )
        candidates = sorted(
            (count, lvl)
            for lvl, count in enumerate(stats.complements_per_level)
            if count > 0
        )
        if stats.po_complements > 0:
            candidates.append((stats.po_complements, -1))
        improved = False
        node_level_map = stats.node_levels
        # The baseline's rejected-candidate state dance — ``snapshot =
        # clone(); <trial, discarded>; copy_from(snapshot)`` — lands on
        # ``clone(clone(state))``.  One clone is NOT enough (renumbering
        # re-sorts triples, which reorders the next traversal), but the
        # double clone is a fixpoint: ``clone`` is identity on its own
        # double image, so once a round has compacted, every further
        # rejected candidate maps the state back onto itself and the
        # clones can be skipped (tests cross-check this against a
        # reference clone-per-candidate implementation).
        at_fixpoint = False

        def reject_compact() -> None:
            nonlocal at_fixpoint
            if not at_fixpoint:
                mig.compact()
                at_fixpoint = True

        for _count, level in candidates:
            # Cheap structural feasibility check before paying for the
            # snapshot clone (and the exact flip plan for prediction).
            if level == -1:
                flips: List[int] = []
                feasible = True
                for po in mig.pos:
                    if signal_is_complemented(po) and signal_node(po) != 0:
                        driver = signal_node(po)
                        if not mig.is_gate(driver):
                            feasible = False
                            break
                        flips.append(driver)
                if not feasible or not flips:
                    # Baseline clones, fails inside _try_clear_po_level
                    # and rolls back without applying anything.
                    reject_compact()
                    continue
                flips = list(dict.fromkeys(flips))
            else:
                plan = _level_clear_plan(mig, level, node_level_map)
                if plan is None:
                    continue
                flips = plan[0] + plan[1]
            if view is not None:
                view.counters.moves_tried += 1
                predicted = view.predict_flip_group(flips, realization)
                if predicted is not None:
                    if predicted < before:
                        for node in flips:
                            if mig.is_gate(node):
                                apply_inverter_propagation(mig, node)
                        view.counters.moves_accepted += 1
                        improved = True
                        changed_any = True
                        _record_trial(
                            mig, view, rule="clear_level", accepted=True
                        )
                        break
                    view.counters.predicted_skips += 1
                    reject_compact()
                    _record_trial(
                        mig, view, rule="clear_level", accepted=False
                    )
                    continue
            # Measured trial under an O(touched) undo journal; a rejected
            # trial rolls back and compacts, which is bit-identical to a
            # whole-graph ``copy_from(snapshot)`` restore (both land on
            # ``clone(clone(pre-trial state))``, and ``clone`` never
            # reads the dicts whose insertion order a rollback
            # scrambles).
            token = mig.checkpoint()
            if level == -1:
                ok = _try_clear_po_level(mig)
            else:
                ok = _try_clear_level(mig, level, node_level_map)
            if not ok:
                mig.rollback(token)
                mig.compact()
                at_fixpoint = True
                _record_trial(mig, view, rule="clear_level", accepted=False)
                continue
            after_costs = _costs_of(mig, realization, view)
            after = (after_costs.steps, after_costs.rrams)
            if after < before:
                mig.commit(token)
                improved = True
                changed_any = True
                if view is not None:
                    view.counters.moves_accepted += 1
                _record_trial(mig, view, rule="clear_level", accepted=True)
                break
            mig.rollback(token)
            mig.compact()
            at_fixpoint = True
            _record_trial(mig, view, rule="clear_level", accepted=False)
        if not improved:
            break
    return changed_any


def _try_clear_po_level(mig: Mig) -> bool:
    """Clear the virtual output level by flipping complemented-PO
    drivers (gate drivers only)."""
    drivers = []
    for po in mig.pos:
        if signal_is_complemented(po) and signal_node(po) != 0:
            node = signal_node(po)
            if not mig.is_gate(node):
                return False
            drivers.append(node)
    if not drivers:
        return False
    for node in dict.fromkeys(drivers):
        if mig.is_gate(node):
            apply_inverter_propagation(mig, node)
    return True


# ----------------------------------------------------------------------
# Optimization drivers (Algorithms 1–4)
# ----------------------------------------------------------------------
#
# Each driver iterates its cycle body up to `effort` times, tracking the
# best snapshot seen under the algorithm's objective, and finally rolls
# the graph back to that snapshot.  The paper's C++ implementation runs
# a fixed 40 cycles; the reshaping moves are non-monotone (they may
# wander uphill to escape local minima), so best-snapshot tracking is
# what makes the published "effort" loop well-behaved.


@traced("pass.relevance_sweep")
def _relevance_sweep(mig: Mig, view: Optional[CostView] = None) -> bool:
    """Apply Ψ.R across the critical paths (the middle step of Alg. 2)."""
    levels = _levels_of(mig, view)
    changed = False
    for node in _critical_nodes_from(mig, levels, view):
        if not mig.is_gate(node):
            continue
        if apply_relevance(mig, node, levels):
            changed = True
            levels = _levels_of(mig, view)
    return changed


def _drive(
    mig: Mig,
    algorithm: str,
    effort: int,
    cycle_body,
    objective,
    view: Optional[CostView] = None,
) -> OptimizationResult:
    """Shared driver: iterate, snapshot the best, roll back at the end.

    ``cycle_body(mig, cycle) -> bool`` runs one optimization cycle and
    reports whether anything changed; ``objective(mig)`` returns a
    comparable key (smaller is better).
    """
    initial_size, initial_depth = _size_depth(mig, view)
    best_key = objective(mig)
    # Best-snapshot tracking: a checkpoint stays open at the best state
    # seen so far — improving cycles commit it and open a fresh one
    # (O(1)), worse cycles accumulate undo records.  Restoring the best
    # state renumbers like a ``copy_from(best_clone)`` snapshot restore,
    # i.e. ``clone(clone(best))``, reproduced here by rollback + compact.
    token = mig.checkpoint()
    history: List[Tuple[int, int]] = []
    cycles = 0
    stale = 0
    with span(f"optimize.{algorithm}", effort=effort):
        for cycle in range(effort):
            cycles = cycle + 1
            with span(f"{algorithm}.cycle", cycle=cycle):
                changed = cycle_body(mig, cycle)
            history.append(_size_depth(mig, view))
            key = objective(mig)
            improved_cycle = key < best_key
            _record_trial(
                mig, view, rule=f"{algorithm}.cycle", accepted=improved_cycle
            )
            if improved_cycle:
                best_key = key
                mig.commit(token)
                token = mig.checkpoint()
                stale = 0
            else:
                stale += 1
            if not changed or stale >= 3:
                break
        if objective(mig) > best_key:
            mig.rollback(token)
            mig.compact()
            _record_trial(
                mig, view, rule=f"{algorithm}.restore_best", accepted=True
            )
        else:
            mig.commit(token)
    final_size, final_depth = _size_depth(mig, view)
    return OptimizationResult(
        algorithm=algorithm,
        cycles_run=cycles,
        initial_size=initial_size,
        initial_depth=initial_depth,
        final_size=final_size,
        final_depth=final_depth,
        history=history,
        profile=view.profile() if view is not None else None,
    )


def optimize_area(mig: Mig, effort: int = DEFAULT_EFFORT) -> OptimizationResult:
    """Paper Alg. 1: cycles of ``eliminate; Ω.A/Ψ.C reshape; eliminate``.

    Objective: MIG size (node count), depth as tie-break.
    """

    view = CostView(mig)

    def body(graph: Mig, cycle: int) -> bool:
        changed = eliminate(graph, view=view)
        changed |= reshape(graph, variant=cycle, view=view)
        changed |= eliminate(graph, view=view)
        return changed

    def objective(graph: Mig) -> Tuple[int, int]:
        size, depth = _size_depth(graph, view if graph is mig else None)
        return (size, depth)

    result = _drive(mig, "area", effort, body, objective, view)
    eliminate(mig, view=view)
    size, depth = _size_depth(mig, view)
    result.final_size, result.final_depth = size, depth
    result.profile = view.profile()
    return result


def optimize_depth(mig: Mig, effort: int = DEFAULT_EFFORT) -> OptimizationResult:
    """Paper Alg. 2: cycles of ``push-up; Ψ.R; push-up``.

    Objective: MIG depth, size as tie-break.
    """

    view = CostView(mig)

    def body(graph: Mig, cycle: int) -> bool:
        changed = push_up(graph, use_relevance=False, view=view)
        changed |= _relevance_sweep(graph, view)
        changed |= push_up(graph, use_relevance=False, view=view)
        return changed

    def objective(graph: Mig) -> Tuple[int, int]:
        size, depth = _size_depth(graph, view if graph is mig else None)
        return (depth, size)

    return _drive(mig, "depth", effort, body, objective, view)


def optimize_rram(
    mig: Mig,
    realization: Realization = Realization.MAJ,
    effort: int = DEFAULT_EFFORT,
    *,
    step_budget_factor: Optional[float] = None,
) -> OptimizationResult:
    """Paper Alg. 3 (proposed multi-objective RRAM-cost optimization):
    ``push-up; Ω.I_{R→L}(1–3); push-up; Ω.A + Ω.D_{R→L}`` per cycle.

    The bi-objective is realized as RRAM minimization under a step
    budget: a short step-oriented probe first establishes the
    achievable step count ``S*``, then the cycle loop explores with the
    lexicographic objective *(steps ≤ budget, RRAMs, steps)* where
    ``budget = step_budget_factor · S*``.  This reproduces the
    trade-off profile of the paper's Table II Σ row — versus the pure
    step optimizer, roughly 20 % fewer RRAMs for roughly 20–35 % more
    steps.

    The default budget factor is realization-aware: the MAJ realization
    (3 steps/level) can afford generous step slack for RRAM savings;
    under IMP (10 steps/level) steps dominate every other cost and the
    budget stays tight so the flow remains competitive with the
    conventional algorithms on S (the paper's Sec. IV-B claims).
    """
    if step_budget_factor is None:
        step_budget_factor = 1.45 if realization is Realization.MAJ else 1.05
    initial_size, initial_depth = _size_depth(mig)

    # Phase 1 — step-oriented probe (Alg. 3 also opens with push-up and
    # complement management; the probe is the same machinery run to a
    # reduced budget).
    probe = mig.clone()
    probe_result = optimize_steps(probe, realization, min(effort, 16))
    probe_costs = rram_costs(probe, realization)
    budget = int(probe_costs.steps * step_budget_factor) + 1

    view = CostView(mig)

    def objective(graph: Mig) -> Tuple[int, int, int]:
        costs = _costs_of(
            graph, realization, view if graph is mig else None
        )
        return (
            1 if costs.steps > budget else 0,
            costs.rrams,
            costs.steps,
        )

    if objective(probe) < objective(mig):
        mig.copy_from(probe)

    def body(graph: Mig, cycle: int) -> bool:
        changed = push_up(graph, use_relevance=False, view=view)
        changed |= inverter_propagation_pass(
            graph, realization, cases=(1, 2, 3), steps_weight=2,
            rram_weight=1, view=view,
        )
        changed |= clear_complemented_levels(graph, realization, view=view)
        changed |= push_up(graph, use_relevance=False, view=view)
        changed |= reshape(graph, variant=cycle, view=view)
        changed |= eliminate(graph, view=view)
        return changed

    result = _drive(mig, "rram", effort, body, objective, view)
    result.cycles_run += probe_result.cycles_run
    result.initial_size = initial_size
    result.initial_depth = initial_depth
    size, depth = _size_depth(mig, view)
    result.final_size, result.final_depth = size, depth
    result.profile = view.profile()
    if probe_result.profile:
        for key, value in probe_result.profile.items():
            result.profile[key] = result.profile.get(key, 0) + value
    return result


def optimize_steps(
    mig: Mig,
    realization: Realization = Realization.MAJ,
    effort: int = DEFAULT_EFFORT,
) -> OptimizationResult:
    """Paper Alg. 4 (proposed step optimization):
    ``push-up; Ω.I_{R→L}; Ω.I_{R→L}(1–3); push-up`` per cycle.

    Objective: the realization's step count ``S = K_S·D + L``, RRAM
    count as tie-break.
    """

    view = CostView(mig)

    def body(graph: Mig, cycle: int) -> bool:
        changed = push_up(graph, use_relevance=False, view=view)
        changed |= inverter_propagation_pass(
            graph, realization, cases=None, steps_weight=8, rram_weight=1,
            view=view,
        )
        changed |= inverter_propagation_pass(
            graph, realization, cases=(1, 2, 3), steps_weight=8,
            rram_weight=1, view=view,
        )
        changed |= clear_complemented_levels(graph, realization, view=view)
        changed |= push_up(graph, use_relevance=False, view=view)
        return changed

    def objective(graph: Mig) -> Tuple[int, int]:
        costs = _costs_of(
            graph, realization, view if graph is mig else None
        )
        return (costs.steps, costs.rrams)

    result = _drive(mig, "steps", effort, body, objective, view)
    before = objective(mig)
    token = mig.checkpoint()
    push_up(mig, use_relevance=True, view=view)
    if objective(mig) > before:
        mig.rollback(token)
        mig.compact()
    else:
        mig.commit(token)
    size, depth = _size_depth(mig, view)
    result.final_size, result.final_depth = size, depth
    result.profile = view.profile()
    return result


ALGORITHMS = {
    "area": optimize_area,
    "depth": optimize_depth,
    "rram": optimize_rram,
    "steps": optimize_steps,
}
