"""Simulated-annealing complement placement (extension).

Ω.I gives every gate node a free "flip" bit: flipping node *v* toggles
the complement attribute of its three ingoing edges and of every edge
leaving it, preserving the function.  The final complement of an edge
``c → p`` under a flip assignment ``f`` is therefore

    ``orig(c → p) ⊕ f(c) ⊕ f(p)``,

and minimizing the paper's step count ``S = K_S·D + L`` (``L`` = levels
with any complemented edge) is a combinatorial optimization over
``f ∈ {0,1}^nodes`` — one the greedy passes of
:mod:`repro.mig.algorithms` explore only locally.  This module attacks
it with simulated annealing on exactly that state space, evaluating
``ΔS``/``ΔR`` incrementally per candidate flip, then realizes the best
assignment with actual Ω.I applications.

Positioned as an *extension*: the paper's algorithms are greedy; the
bench harness ablates how much annealing adds
(``benchmarks/bench_ablation.py``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..telemetry import active_trajectory, metrics, span
from .graph import Mig, signal_is_complemented, signal_node
from .rewrite import apply_inverter_propagation
from .views import Realization, level_stats


class _ComplementModel:
    """Incremental evaluator of (L, R) under a flip assignment."""

    def __init__(self, mig: Mig, realization: Realization, stats=None) -> None:
        if stats is None:
            stats = level_stats(mig)
        self.depth = stats.depth
        self.k_r = realization.rrams_per_gate
        self.k_s = realization.steps_per_level
        # No defensive copy: level_stats/CostView.stats build the dict
        # fresh per call and the model only reads it.
        self.node_level: Dict[int, int] = stats.node_levels
        self.nodes = mig.reachable_nodes()
        self.n_per_level = list(stats.nodes_per_level)
        # Edges: (child_gate_or_None, parent_level, orig_complement).
        # Grouped per node for delta evaluation: edges where the node is
        # the parent (in-edges) and where it is the child (out-edges).
        self.in_edges: Dict[int, List[Tuple[Optional[int], int, bool]]] = {}
        self.out_edges: Dict[int, List[Tuple[Optional[int], int, bool]]] = {}
        gate_set = set(self.nodes)
        for node in self.nodes:
            level = self.node_level[node]
            for child in mig.children(node):
                child_node = signal_node(child)
                if child_node == 0:
                    continue
                complemented = signal_is_complemented(child)
                child_key = child_node if child_node in gate_set else None
                edge = (child_key, level, complemented)
                self.in_edges.setdefault(node, []).append(edge)
                if child_key is not None:
                    self.out_edges.setdefault(child_node, []).append(
                        (node, level, complemented)
                    )
        # PO edges live on the virtual level depth + 1.
        self.po_level = self.depth + 1
        for po in mig.pos:
            driver = signal_node(po)
            if driver == 0 or driver not in gate_set:
                continue
            self.out_edges.setdefault(driver, []).append(
                (None, self.po_level, signal_is_complemented(po))
            )
        self.flips: Dict[int, bool] = {node: False for node in self.nodes}
        self.c_per_level = [0] * (self.po_level + 1)
        for node in self.nodes:
            for edge in self.in_edges.get(node, []):
                if self._edge_complement(node, edge):
                    self.c_per_level[edge[1]] += 1
        for po in mig.pos:
            driver = signal_node(po)
            if driver != 0 and signal_is_complemented(po):
                self.c_per_level[self.po_level] += 1

    def _edge_complement(self, parent: int, edge) -> bool:
        child_key, _level, orig = edge
        value = orig ^ self.flips[parent]
        if child_key is not None:
            value ^= self.flips[child_key]
        return value

    def costs(self) -> Tuple[int, int]:
        """Current (S, R)."""
        l_count = sum(1 for c in self.c_per_level[1:] if c > 0)
        steps = self.k_s * self.depth + l_count
        rrams = max(
            [self.c_per_level[self.po_level]]
            + [
                self.k_r * self.n_per_level[level] + self.c_per_level[level]
                for level in range(1, self.depth + 1)
            ]
        )
        return steps, rrams

    def flip_delta(self, node: int) -> List[Tuple[int, int]]:
        """(level, delta) complement-count changes of flipping ``node``."""
        deltas: Dict[int, int] = {}
        level = self.node_level[node]
        for edge in self.in_edges.get(node, []):
            change = -1 if self._edge_complement(node, edge) else 1
            deltas[level] = deltas.get(level, 0) + change
        for parent_key, parent_level, orig in self.out_edges.get(node, []):
            value = orig ^ self.flips[node]
            if parent_key is not None:
                value ^= self.flips[parent_key]
            change = -1 if value else 1
            deltas[parent_level] = deltas.get(parent_level, 0) + change
        return list(deltas.items())

    def apply_flip(self, node: int) -> None:
        for level, delta in self.flip_delta(node):
            self.c_per_level[level] += delta
        self.flips[node] = not self.flips[node]


def anneal_complements(
    mig: Mig,
    realization: Realization,
    *,
    iterations: int = 4000,
    seed: int = 0x5A,
    initial_temperature: float = 2.0,
    steps_weight: float = 4.0,
    rram_weight: float = 1.0,
    view=None,
) -> bool:
    """Anneal the flip assignment; apply the best one found.

    Returns True when the realized assignment improved ``(S, R)``.
    ``view`` optionally supplies a :class:`repro.mig.costview.CostView`
    so the before/after cost evaluations reuse the incremental state.
    """
    nodes = view.reachable() if view is not None else mig.reachable_nodes()
    if not nodes:
        return False
    with span("pass.anneal_complements", iterations=iterations, seed=seed):
        return _anneal_complements(
            mig,
            realization,
            nodes,
            iterations=iterations,
            seed=seed,
            initial_temperature=initial_temperature,
            steps_weight=steps_weight,
            rram_weight=rram_weight,
            view=view,
        )


def _anneal_complements(
    mig: Mig,
    realization: Realization,
    nodes: List[int],
    *,
    iterations: int,
    seed: int,
    initial_temperature: float,
    steps_weight: float,
    rram_weight: float,
    view,
) -> bool:
    model = _ComplementModel(
        mig, realization, stats=view.stats() if view is not None else None
    )
    start = model.costs()

    def energy(costs: Tuple[int, int]) -> float:
        steps, rrams = costs
        return steps_weight * steps + rram_weight * rrams / max(
            1, start[1]
        ) * start[0]

    rng = random.Random(seed)
    current_energy = energy(model.costs())
    best_energy = current_energy
    best_flips = dict(model.flips)

    for iteration in range(iterations):
        temperature = initial_temperature * (
            1.0 - iteration / max(1, iterations)
        ) + 1e-3
        node = nodes[rng.randrange(len(nodes))]
        model.apply_flip(node)
        candidate_energy = energy(model.costs())
        delta = candidate_energy - current_energy
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current_energy = candidate_energy
            if candidate_energy < best_energy:
                best_energy = candidate_energy
                best_flips = dict(model.flips)
        else:
            model.apply_flip(node)  # revert

    to_flip = [node for node, flip in best_flips.items() if flip]
    if not to_flip:
        return False
    before = view.stats() if view is not None else level_stats(mig)
    before_costs = (
        before.step_count(realization),
        before.rram_count(realization),
    )
    # Realize the best flip assignment under an undo scope: rejecting
    # it rolls back and compacts, bit-identical to a whole-graph
    # ``copy_from(snapshot)`` restore.
    token = mig.checkpoint()
    for node in to_flip:
        if mig.is_gate(node):
            apply_inverter_propagation(mig, node)
    after = view.stats() if view is not None else level_stats(mig)
    after_costs = (
        after.step_count(realization),
        after.rram_count(realization),
    )
    recorder = active_trajectory()
    if after_costs >= before_costs:
        mig.rollback(token)
        mig.compact()
        metrics().counter("anneal.rejected").inc()
        if recorder is not None:
            recorder.record_state(mig, view, rule="anneal", accepted=False)
        return False
    mig.commit(token)
    metrics().counter("anneal.realized").inc()
    if recorder is not None:
        recorder.record_state(mig, view, rule="anneal", accepted=True)
    return True
