"""Partition functions of binary multi-graph models, four ways.

Brute-force enumeration, gauge-transformed series, BP gauges with
edge-contraction sequences, and the loop series all compute or bound the
same partition function and cross-check one another.
"""

from .multigraph import DirectedEdge, EdgeId, GraphError, MultiGraph, NodeId
from .model import (
    Config,
    EnumerationGuardError,
    FactorTable,
    ModelError,
    MultiGM,
    contract_model,
    evaluate_weight,
    exact_summary,
    map_energy_exact,
    partition_exact,
    soft_model,
    soften,
)
from .gauge import (
    GaugeVector,
    gauge_function,
    gauge_matrix,
    h_node,
    q_node,
    transform_factors,
    z_sigma,
)
from .poly import (
    FactoredGaugePoly,
    NodePoly,
    QuadCoeffs,
    bistable_condition_sample,
    build,
    exact_contract_poly,
    node_poly_from_factor,
    quad_coeffs,
    zeta_eval,
)
from .bp import (
    Beliefs,
    BPGauge,
    SolverConfig,
    bethe_free_energy,
    bp_contract_sequence,
    bp_residual,
    bp_value,
    edge_pair_update,
    lagrangian_L,
    marginals_from_gauge,
    saddle_check,
    sequence_decreases,
    solve_bp,
)
from .bethe import minimize_bethe_direct
from .loops import enumerate_generalized_loops, loop_series_sum, loop_term

__all__ = [name for name in dir() if not name.startswith("_")]
