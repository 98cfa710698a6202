"""Incrementally-maintained cost views over a mutating MIG.

The paper's optimizers (Algorithms 1–4, the annealer, cut rewriting)
interleave small structural edits with Table I cost evaluations.  The
from-scratch views in :mod:`repro.mig.views` are O(V·fanin) per call,
which turns every optimizer loop into O(V) *per move* — the dominant
cost on mid-size circuits.  :class:`CostView` keeps the same quantities
(live set, node levels, per-level node/complement histograms, depth,
PO complements) continuously up to date by consuming the structural
event log recorded by :class:`repro.mig.graph.Mig`:

* **liveness** is tracked by reference counting from live parents and
  PO slots, with kill/resurrect cascades on attach/detach/PO events;
* **levels** are repaired with a chaotic-iteration worklist seeded at
  the re-leveled nodes, propagating through fanout until a fixpoint
  (terminates on any DAG; a relaxation budget falls back to a full
  recompute as a safety valve);
* **histograms** (``N_i`` node counts and ``C_i`` ingoing complemented
  edges per level) are moved entry-by-entry as nodes change level,
  die, or resurrect.

When the pending event batch is large relative to the live graph the
view recomputes from scratch instead — delta replay only wins when the
dirty cone is small.  Every public accessor synchronizes first, so the
view is always coherent with the graph; ``assert_consistent()``
cross-checks every quantity against the from-scratch reference and is
exercised by the property tests.

Consumers receive *copies* of the level map (they memoize scratch
entries for speculative nodes into it), so sharing the view cannot
change optimizer decisions: identical inputs produce identical moves,
and the optimized graphs are bit-identical with and without the view.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graph import EVENT_ATTACH, EVENT_DETACH, EVENT_PO, Mig
from .rewrite import apply_inverter_propagation
from .views import LevelStats, Realization, RramCosts, level_stats


class _DeltaOverflow(Exception):
    """Internal: delta replay exceeded its budget; do a full rebuild."""


@dataclass
class CostViewCounters:
    """Observability counters for one optimizer run (``--profile``)."""

    full_recomputes: int = 0
    delta_updates: int = 0
    cache_hits: int = 0
    events_replayed: int = 0
    moves_tried: int = 0
    moves_accepted: int = 0
    predicted_skips: int = 0

    def merge(self, other: "CostViewCounters") -> None:
        self.full_recomputes += other.full_recomputes
        self.delta_updates += other.delta_updates
        self.cache_hits += other.cache_hits
        self.events_replayed += other.events_replayed
        self.moves_tried += other.moves_tried
        self.moves_accepted += other.moves_accepted
        self.predicted_skips += other.predicted_skips

    def as_dict(self) -> Dict[str, int]:
        return {
            "full_recomputes": self.full_recomputes,
            "delta_updates": self.delta_updates,
            "cache_hits": self.cache_hits,
            "events_replayed": self.events_replayed,
            "moves_tried": self.moves_tried,
            "moves_accepted": self.moves_accepted,
            "predicted_skips": self.predicted_skips,
        }


class CostView:
    """A versioned, lazily-revalidated cost view of one :class:`Mig`.

    All accessors are safe to call at any time; each one first folds
    pending structural events into the cached state (or recomputes when
    the dirty cone is large).  The view stays attached to the ``Mig``
    object across ``copy_from`` rollbacks (those force one full
    recompute, signalled through the event-log base jump).
    """

    #: pending-events / live-nodes ratio above which delta replay is
    #: abandoned in favor of a full O(V) rebuild.
    DELTA_THRESHOLD = 0.6

    def __init__(self, mig: Mig) -> None:
        self.mig = mig
        self.counters = CostViewCounters()
        # Baseline of the Mig's monotone transaction/strash counters:
        # profile() reports the deltas accrued during this view's run.
        self._mig_counter_base = self._mig_counters()
        self._cursor = mig.enable_event_log()
        # Per-generation lazy caches (invalidated by any mutation).
        self._order: Optional[List[int]] = None
        self._order_gen = -1
        self._heights: Optional[Dict[int, int]] = None
        self._heights_gen = -1
        self._costs_cache: Dict[Realization, Tuple[int, int]] = {}
        self._full_rebuild()

    # ------------------------------------------------------------------
    # Synchronization machinery
    # ------------------------------------------------------------------

    def _full_rebuild(self) -> None:
        mig = self.mig
        children_arr = mig._children
        order = mig._reachable_cached()
        levels: Dict[int, int] = {}
        live_ref: Dict[int, int] = {}
        in_comp: Dict[int, int] = {}
        n_at: Dict[int, int] = {}
        c_at: Dict[int, int] = {}
        is_pi = mig._is_pi
        for node in order:
            triple = children_arr[node]
            best = 0
            comp = 0
            for s in triple:  # type: ignore[union-attr]
                child = s >> 1
                lvl = levels.get(child, 0)
                if lvl > best:
                    best = lvl
                if s & 1 and child != 0:
                    comp += 1
                if child != 0 and not is_pi[child]:
                    live_ref[child] = live_ref.get(child, 0) + 1
            level = best + 1
            levels[node] = level
            in_comp[node] = comp
            n_at[level] = n_at.get(level, 0) + 1
            if comp:
                c_at[level] = c_at.get(level, 0) + comp
        for po in mig._pos:
            driver = po >> 1
            if driver != 0 and not is_pi[driver]:
                live_ref[driver] = live_ref.get(driver, 0) + 1
        self._levels = levels
        self._live_ref = live_ref
        self._in_comp = in_comp
        self._n_at = n_at
        self._c_at = c_at
        self._order = order
        self._order_gen = mig._generation
        self._refresh_po_summary()
        self._generation = mig._generation
        self._cursor = mig.event_cursor()
        mig.discard_events_upto(self._cursor)
        self._costs_cache.clear()
        self.counters.full_recomputes += 1

    def _refresh_po_summary(self) -> None:
        levels = self._levels
        depth = 0
        po_comp = 0
        for po in self.mig._pos:
            driver = po >> 1
            lvl = levels.get(driver, 0)
            if lvl > depth:
                depth = lvl
            if po & 1 and driver != 0:
                po_comp += 1
        self._depth = depth
        self._po_comp = po_comp

    def _sync(self) -> None:
        mig = self.mig
        if mig._generation == self._generation:
            self.counters.cache_hits += 1
            return
        events = mig.events_since(self._cursor)
        if events is None or len(events) > max(
            64, int(self.DELTA_THRESHOLD * (len(self._levels) + 1))
        ):
            self._full_rebuild()
        else:
            try:
                self._replay(events)
            except _DeltaOverflow:
                self._full_rebuild()
            else:
                self._refresh_po_summary()
                self._generation = mig._generation
                self._cursor += len(events)
                mig.discard_events_upto(self._cursor)
                self._costs_cache.clear()
                self.counters.delta_updates += 1
                self.counters.events_replayed += len(events)

    def _replay(self, events: Sequence[tuple]) -> None:
        mig = self.mig
        children_arr = mig._children
        is_pi = mig._is_pi
        # A transaction rollback pops nodes allocated inside the
        # transaction, so events may reference ids past the end of the
        # (final-state) arrays.  Such ids are always gates (PIs cannot
        # be created inside a transaction) and their triples are always
        # covered by the ``triple_now`` overlay (their ATTACH event
        # precedes any reference to them), so they only need an
        # in-range check before the ``is_pi`` lookup.
        num_nodes = len(is_pi)
        levels = self._levels
        live_ref = self._live_ref
        in_comp = self._in_comp
        n_at = self._n_at
        c_at = self._c_at
        # Nodes that (re)joined the live set and need a level and fresh
        # histogram contributions; also the seeds of level propagation.
        pending: set = set()
        # Point-in-time child triples: ``children_arr`` already shows
        # the *final* state, but ref cascades must see each node's
        # triple as of the event being replayed.  Nodes never touched
        # by the batch are identical in both, so a sparse overlay
        # (maintained from the events themselves) suffices.
        triple_now: Dict[int, Optional[tuple]] = {}

        def current_children(node: int) -> Optional[tuple]:
            if node in triple_now:
                return triple_now[node]
            return children_arr[node]

        def remove_contribution(node: int) -> None:
            comp = in_comp.pop(node, None)
            if comp is None:
                return
            level = levels.pop(node)
            count = n_at[level] - 1
            if count:
                n_at[level] = count
            else:
                del n_at[level]
            if comp:
                count = c_at[level] - comp
                if count:
                    c_at[level] = count
                else:
                    del c_at[level]

        # Pre-seed the overlay with each touched node's start-of-batch
        # triple (a DETACH reveals it; a first-event ATTACH means the
        # node started detached).
        for event in events:
            if event[0] != EVENT_PO and event[1] not in triple_now:
                triple_now[event[1]] = (
                    event[2] if event[0] == EVENT_DETACH else None
                )

        def gain_refs(triple: Iterable[int]) -> None:
            stack = [triple]
            while stack:
                for s in stack.pop():
                    child = s >> 1
                    if child == 0 or (child < num_nodes and is_pi[child]):
                        continue
                    refs = live_ref.get(child, 0)
                    live_ref[child] = refs + 1
                    if refs == 0:
                        children = current_children(child)
                        if children is not None:
                            pending.add(child)  # resurrected
                            stack.append(children)

        def drop_refs(triple: Iterable[int]) -> None:
            stack = [triple]
            while stack:
                for s in stack.pop():
                    child = s >> 1
                    if child == 0 or (child < num_nodes and is_pi[child]):
                        continue
                    refs = live_ref[child] - 1
                    if refs:
                        live_ref[child] = refs
                    else:
                        del live_ref[child]
                        children = current_children(child)
                        if children is not None:
                            remove_contribution(child)  # died
                            pending.discard(child)
                            stack.append(children)

        for event in events:
            kind = event[0]
            if kind == EVENT_ATTACH:
                node = event[1]
                triple_now[node] = event[2]
                if live_ref.get(node):
                    remove_contribution(node)
                    pending.add(node)
                    gain_refs(event[2])
            elif kind == EVENT_DETACH:
                node = event[1]
                triple_now[node] = None
                if live_ref.get(node):
                    remove_contribution(node)
                    pending.discard(node)
                    drop_refs(event[2])
            else:  # EVENT_PO
                old, new = event[2], event[3]
                driver = new >> 1
                if driver != 0 and not (driver < num_nodes and is_pi[driver]):
                    refs = live_ref.get(driver, 0)
                    live_ref[driver] = refs + 1
                    if refs == 0:
                        children = current_children(driver)
                        if children is not None:
                            pending.add(driver)
                            gain_refs(children)
                if old is not None:
                    driver = old >> 1
                    if driver != 0 and not (driver < num_nodes and is_pi[driver]):
                        refs = live_ref[driver] - 1
                        if refs:
                            live_ref[driver] = refs
                        else:
                            del live_ref[driver]
                            children = current_children(driver)
                            if children is not None:
                                remove_contribution(driver)
                                pending.discard(driver)
                                drop_refs(children)

        # Level fixpoint: seed at pending nodes, propagate through live
        # fanout.  Chaotic iteration terminates on a DAG; the budget is
        # the safety valve against pathological re-relaxation.
        fanout = mig._fanout
        queue = deque(pending)
        budget = 8 * (len(levels) + len(pending)) + 64
        while queue:
            budget -= 1
            if budget < 0:
                raise _DeltaOverflow
            node = queue.popleft()
            triple = children_arr[node]
            if triple is None or not live_ref.get(node):
                continue  # died after being enqueued
            best = 0
            for s in triple:
                lvl = levels.get(s >> 1, 0)
                if lvl > best:
                    best = lvl
            level = best + 1
            if levels.get(node) == level:
                continue
            comp = in_comp.get(node)
            if comp is not None:  # histogram move for settled nodes
                old_level = levels[node]
                count = n_at[old_level] - 1
                if count:
                    n_at[old_level] = count
                else:
                    del n_at[old_level]
                n_at[level] = n_at.get(level, 0) + 1
                if comp:
                    count = c_at[old_level] - comp
                    if count:
                        c_at[old_level] = count
                    else:
                        del c_at[old_level]
                    c_at[level] = c_at.get(level, 0) + comp
            levels[node] = level
            for parent in fanout[node]:
                if live_ref.get(parent) and children_arr[parent] is not None:
                    queue.append(parent)
        # Install histogram contributions of (re)joined nodes.
        for node in pending:
            if children_arr[node] is None or not live_ref.get(node):
                continue
            if node in in_comp:
                continue  # already settled via an attach+resurrect pair
            comp = 0
            for s in children_arr[node]:  # type: ignore[union-attr]
                if s & 1 and (s >> 1) != 0:
                    comp += 1
            in_comp[node] = comp
            level = levels[node]
            n_at[level] = n_at.get(level, 0) + 1
            if comp:
                c_at[level] = c_at.get(level, 0) + comp

    # ------------------------------------------------------------------
    # Accessors (all synchronize first)
    # ------------------------------------------------------------------

    def size_depth(self) -> Tuple[int, int]:
        """``(live gate count, depth)`` — the Alg. 1/2 objective pair."""
        self._sync()
        return (len(self._levels), self._depth)

    def levels(self) -> Dict[int, int]:
        """Level map including PIs/constant at 0, as a fresh dict.

        A *copy* by design: optimizer helpers memoize speculative nodes
        into the map they receive (see ``rewrite._local_level``), which
        must never leak back into the view.
        """
        self._sync()
        mig = self.mig
        result = {0: 0}
        for pi in mig._pis:
            result[pi] = 0
        result.update(self._levels)
        return result

    def stats(self) -> LevelStats:
        """Materialize a :class:`LevelStats` equal to the from-scratch one."""
        self._sync()
        depth = self._depth
        nodes_per_level = [0] * (depth + 1)
        complements_per_level = [0] * (depth + 1)
        for level, count in self._n_at.items():
            nodes_per_level[level] = count
        for level, count in self._c_at.items():
            complements_per_level[level] = count
        return LevelStats(
            depth=depth,
            size=len(self._levels),
            nodes_per_level=tuple(nodes_per_level),
            complements_per_level=tuple(complements_per_level),
            po_complements=self._po_comp,
            node_levels=self.levels(),
        )

    def costs(self, realization: Realization) -> RramCosts:
        """Table I ``RramCosts`` straight from the histograms (O(levels))."""
        self._sync()
        cached = self._costs_cache.get(realization)
        if cached is None:
            k_r = realization.rrams_per_gate
            c_at = self._c_at
            best = self._po_comp
            for level, count in self._n_at.items():
                value = k_r * count + c_at.get(level, 0)
                if value > best:
                    best = value
            l_count = len(c_at) + (1 if self._po_comp else 0)
            steps = realization.steps_per_level * self._depth + l_count
            cached = (best, steps)
            self._costs_cache[realization] = cached
        rrams, steps = cached
        return RramCosts(
            realization=realization,
            rrams=rrams,
            steps=steps,
            depth=self._depth,
            size=len(self._levels),
            levels_with_complements=steps
            - realization.steps_per_level * self._depth,
        )

    def reachable(self) -> List[int]:
        """Topological live-node order (cached per generation)."""
        self._sync()
        if self._order_gen != self._generation or self._order is None:
            self._order = self.mig._reachable_cached()
            self._order_gen = self._generation
        else:
            self.counters.cache_hits += 1
        return self._order

    def heights(self) -> Dict[int, int]:
        """Node heights (distance to a PO driver), cached per generation."""
        self._sync()
        if self._heights_gen != self._generation or self._heights is None:
            order = self.reachable()
            heights: Dict[int, int] = {node: 0 for node in order}
            children_arr = self.mig._children
            for node in reversed(order):
                h1 = heights[node] + 1
                for s in children_arr[node]:  # type: ignore[union-attr]
                    child = s >> 1
                    if child in heights and heights[child] < h1:
                        heights[child] = h1
            self._heights = heights
            self._heights_gen = self._generation
        else:
            self.counters.cache_hits += 1
        return dict(self._heights)

    # ------------------------------------------------------------------
    # Speculative scoring
    # ------------------------------------------------------------------

    def predict_flip_group(
        self,
        flips: Sequence[int],
        realization: Realization,
    ) -> Optional[Tuple[int, int]]:
        """Exact ``(S, R)`` after Ω.I-flipping every gate in ``flips``.

        Flips never change node levels, so the outcome is a pure
        complement-histogram delta — *unless* a rewritten triple
        collides in the structural hash, which merges nodes.  Each flip
        looks its negated triple up verbatim.  For a node whose children
        no earlier flip in the group rewrote, a hit means a possible
        merge: this returns ``None`` and the caller must fall back to
        apply-and-measure.  An earlier flip of a child only relabels it
        (``a`` becomes ``!a'``), so for such a node a miss still rules a
        merge out, while a hit may or may not merge; the group is then
        applied to an id-preserving copy of the graph and measured
        there.
        """
        self._sync()
        mig = self.mig
        children_arr = mig._children
        strash = mig._strash
        levels = self._levels
        applied = [f for f in flips if children_arr[f] is not None]
        done: set = set()
        measure = False
        for node in applied:
            triple = children_arr[node]
            negated = tuple(sorted(s ^ 1 for s in triple))  # type: ignore[union-attr]
            if negated in strash:
                if not (
                    (triple[0] >> 1) in done  # type: ignore[index]
                    or (triple[1] >> 1) in done  # type: ignore[index]
                    or (triple[2] >> 1) in done  # type: ignore[index]
                ):
                    return None
                measure = True
            done.add(node)
        if measure:
            return _measure_flip_group(mig, applied, realization)
        flip_set = set(applied)
        c_delta: Dict[int, int] = {}
        po_delta = 0
        fanout = mig._fanout
        for node in applied:
            level = levels.get(node)
            triple = children_arr[node]
            if level is not None:
                # In-edges: every non-const child edge toggles unless the
                # child is flipped too (double toggle cancels).
                for s in triple:  # type: ignore[union-attr]
                    child = s >> 1
                    if child == 0 or child in flip_set:
                        continue
                    c_delta[level] = c_delta.get(level, 0) + (
                        -1 if s & 1 else 1
                    )
            # Out-edges into live unflipped parents.
            for parent in fanout[node]:
                if parent in flip_set:
                    continue
                parent_level = levels.get(parent)
                if parent_level is None:
                    continue
                for s in children_arr[parent]:  # type: ignore[union-attr]
                    if s >> 1 == node:
                        c_delta[parent_level] = c_delta.get(
                            parent_level, 0
                        ) + (-1 if s & 1 else 1)
            # PO edges (virtual level).
            for po in mig._pos:
                if po >> 1 == node:
                    po_delta += -1 if po & 1 else 1
        new_c = dict(self._c_at)
        for level, delta in c_delta.items():
            if not delta:
                continue
            value = new_c.get(level, 0) + delta
            if value:
                new_c[level] = value
            else:
                new_c.pop(level, None)
        new_po = self._po_comp + po_delta
        l_count = len(new_c) + (1 if new_po else 0)
        steps = realization.steps_per_level * self._depth + l_count
        k_r = realization.rrams_per_gate
        best = new_po
        for level, count in self._n_at.items():
            value = k_r * count + new_c.get(level, 0)
            if value > best:
                best = value
        return (steps, best)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------

    def _mig_counters(self) -> Dict[str, int]:
        mig = self.mig
        return {
            "tx_checkpoints": mig.tx_checkpoints,
            "tx_rollbacks": mig.tx_rollbacks,
            "tx_undo_replayed": mig.tx_undo_replayed,
            "strash_hits": mig.strash_hits,
            "strash_misses": mig.strash_misses,
            "compactions": mig.compactions,
        }

    def profile(self) -> Dict[str, int]:
        """One flat counter dict for ``--profile``: the CostView's own
        counters plus the graph's transaction/strash counters accrued
        since this view was created.  Plain ints, so per-worker dicts
        sum key-wise across ``--jobs`` shards."""
        merged = self.counters.as_dict()
        base = self._mig_counter_base
        for key, value in self._mig_counters().items():
            merged[key] = value - base[key]
        # Occupancy gauge (not a delta): summing across --jobs shards
        # totals the node-slot footprint of the whole run.
        merged["nodes_allocated"] = self.mig.num_nodes_allocated
        return merged

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def assert_consistent(self) -> None:
        """Cross-check every cached quantity against the from-scratch
        reference implementation (raises AssertionError on drift)."""
        self._sync()
        reference = level_stats(self.mig)
        mine = self.stats()
        assert mine.depth == reference.depth, (
            f"depth {mine.depth} != {reference.depth}"
        )
        assert mine.size == reference.size, (
            f"size {mine.size} != {reference.size}"
        )
        assert mine.nodes_per_level == reference.nodes_per_level, (
            f"N_i {mine.nodes_per_level} != {reference.nodes_per_level}"
        )
        assert mine.complements_per_level == reference.complements_per_level, (
            f"C_i {mine.complements_per_level} != "
            f"{reference.complements_per_level}"
        )
        assert mine.po_complements == reference.po_complements
        assert mine.node_levels == reference.node_levels, "level map drift"
        for realization in Realization:
            costs = self.costs(realization)
            assert costs.rrams == reference.rram_count(realization)
            assert costs.steps == reference.step_count(realization)


def _measure_flip_group(
    mig: Mig, flips: Sequence[int], realization: Realization
) -> Tuple[int, int]:
    """``(S, R)`` after Ω.I-flipping ``flips`` in order, measured on a
    copy of ``mig`` that keeps its node ids (``clone`` renumbers)."""
    trial = Mig(mig.name)
    trial._children = list(mig._children)
    trial._is_pi = list(mig._is_pi)
    trial._fanout = [dict(parents) for parents in mig._fanout]
    trial._pis = list(mig._pis)
    trial._pi_names = list(mig._pi_names)
    trial._pos = list(mig._pos)
    trial._po_names = list(mig._po_names)
    trial._strash = dict(mig._strash)
    for node in flips:
        if trial.is_gate(node):
            apply_inverter_propagation(trial, node)
    stats = level_stats(trial)
    return (stats.step_count(realization), stats.rram_count(realization))
