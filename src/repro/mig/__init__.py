"""Majority-Inverter Graphs: data structure, axioms, and the paper's
optimization algorithms."""

from .graph import (
    CONST0,
    CONST1,
    Mig,
    MigError,
    Signal,
    batch_enabled,
    graph_engine_name,
    make_signal,
    signal_is_complemented,
    signal_node,
    signal_not,
    transactions_enabled,
)
from .views import (
    LevelStats,
    Realization,
    RramCosts,
    critical_nodes,
    level_stats,
    node_heights,
    node_levels,
    rram_costs,
)
from .costview import CostView, CostViewCounters
from .build import mig_from_netlist, mig_from_truth_tables, mig_to_netlist
from .equivalence import (
    EquivalenceGuard,
    mig_matches_netlist,
    mig_matches_tables,
    migs_equivalent,
)
from .algorithms import (
    ALGORITHMS,
    OptimizationResult,
    eliminate,
    inverter_propagation_pass,
    optimize_area,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    push_up,
    reshape,
)
from .annealing import anneal_complements
from .cuts import cut_function, enumerate_cuts, mffc_size
from .exact import exact_size, synthesize_exact
from .npn import NpnTransform, npn_canonize
from .resynth import synthesize_table
from .rewriting import cut_rewrite, optimize_area_plus, optimize_rram_plus
from .export import save_dot, to_dot
from . import rewrite

__all__ = [
    "CONST0",
    "CONST1",
    "Mig",
    "MigError",
    "Signal",
    "make_signal",
    "signal_is_complemented",
    "signal_node",
    "signal_not",
    "batch_enabled",
    "graph_engine_name",
    "transactions_enabled",
    "CostView",
    "CostViewCounters",
    "LevelStats",
    "Realization",
    "RramCosts",
    "critical_nodes",
    "level_stats",
    "node_heights",
    "node_levels",
    "rram_costs",
    "mig_from_netlist",
    "mig_from_truth_tables",
    "mig_to_netlist",
    "EquivalenceGuard",
    "mig_matches_netlist",
    "mig_matches_tables",
    "migs_equivalent",
    "ALGORITHMS",
    "OptimizationResult",
    "eliminate",
    "inverter_propagation_pass",
    "optimize_area",
    "optimize_depth",
    "optimize_rram",
    "optimize_steps",
    "push_up",
    "reshape",
    "rewrite",
    "save_dot",
    "to_dot",
    "anneal_complements",
    "cut_function",
    "enumerate_cuts",
    "mffc_size",
    "synthesize_table",
    "exact_size",
    "synthesize_exact",
    "NpnTransform",
    "npn_canonize",
    "cut_rewrite",
    "optimize_area_plus",
    "optimize_rram_plus",
]
