"""Loop series: exact resummation of the partition function at a BP gauge.

At a BP gauge every series term with a node carrying exactly one colored
directed slot cancels, so only generalized loops survive: edge subsets in
which no node has colored degree one, a self-edge counting twice toward its
node's degree (it colors two slots at once, which the cancellation does not
reach).  Summing the surviving terms reproduces the partition function
exactly, for any BP gauge.  Each term is a product of lookups in per-node
colored tables and of the colored edges' beliefs ``beta``; both are built
once per call, the tables by :func:`gauge.slot_map`.
"""

from __future__ import annotations

from typing import Sequence

from .bp import NonConvergenceError, _at_gauge, _Layout
from .gauge import GaugeVector, edge_belief, gauge_function, slot_map
from .model import DEFAULT_ENUMERATION_GUARD, Config, EnumerationGuardError, MultiGM
from .multigraph import EdgeId, MultiGraph, NodeId

CONVERGENCE_THRESHOLD = 1e-6

ColoredTables = dict[NodeId, list[float]]


def enumerate_generalized_loops(
    g: MultiGraph, guard: int = DEFAULT_ENUMERATION_GUARD
) -> list[Config]:
    """All edge subsets whose per-node colored degree is never exactly one.

    Self-edges contribute two to their node's degree.  The empty subset is
    always included.  Depth-first search with degree pruning: once a node's
    last incident edge is decided, a colored degree of one kills the branch.
    Results are returned in ascending configuration-index order.
    """
    if len(g.edges) > guard:
        raise EnumerationGuardError(
            f"{len(g.edges)} edges exceeds the loop enumeration guard {guard}"
        )
    n = len(g.edges)
    degree = {a: 0 for a in g.nodes}
    last_edge_index = {a: -1 for a in g.nodes}
    for j, e in enumerate(g.edges):
        for a in set(g.endpoints[e]):
            last_edge_index[a] = j
    loops: list[Config] = []
    bits = [0] * n

    def extend(j: int) -> None:
        if j == n:
            loops.append(tuple(bits))
            return
        tail, head = g.endpoints[g.edges[j]]
        increments = {tail: 2} if tail == head else {tail: 1, head: 1}
        for value in (0, 1):
            bits[j] = value
            if value:
                for a, inc in increments.items():
                    degree[a] += inc
            dead = any(
                degree[a] == 1 and last_edge_index[a] <= j
                for a in increments
            )
            if not dead:
                extend(j + 1)
            if value:
                for a, inc in increments.items():
                    degree[a] -= inc
        bits[j] = 0

    extend(0)
    return sorted(loops, key=lambda c: sum(b << j for j, b in enumerate(c)))


def _at_bp_gauge(
    m: MultiGM, x_bp: GaugeVector
) -> tuple[ColoredTables, float, dict[EdgeId, float]]:
    """Colored tables ``Q_a``, ``z(x)`` and every edge's belief ``beta``,
    after checking ``x_bp`` is a BP gauge.

    :func:`gauge_function` checks the gauge, the gate reads the solver's
    residual on its layout.  ``Q_a[sigma_a]`` is node ``a``'s table reduced
    at the coloring ``sigma_a`` of its slots, so ``Q_a[0]`` is ``h_a``.
    """
    z_bp = gauge_function(m, x_bp)
    lay = _Layout.of(m)
    res = _at_gauge(lay, lay.column(x_bp))[0]
    if res > CONVERGENCE_THRESHOLD:
        raise NonConvergenceError(
            f"gauge residual {res:.3e} exceeds {CONVERGENCE_THRESHOLD:g}; "
            "loop terms are only meaningful at a BP gauge"
        )
    beta = {e: edge_belief(x_bp, e) for e in m.graph.edges}
    tables = {}
    for a, f in m.factors.items():
        mats = [((1.0, x_bp[d]), (-beta[d.edge], x_bp[d] * (1.0 - beta[d.edge])))
                for d in f.variables]
        tables[a] = slot_map(f.table, mats).tolist()
    return tables, z_bp, beta


def _term(
    m: MultiGM, tables: ColoredTables, z_bp: float, beta: dict[EdgeId, float],
    config: Sequence[int],
) -> float:
    bit = {e: int(config[j]) for j, e in enumerate(m.graph.edges)}
    term = z_bp
    for e, b in bit.items():
        if b:
            term /= beta[e] * (1.0 - beta[e])
    for a, f in m.factors.items():
        sigma = sum(bit[d.edge] << j for j, d in enumerate(f.variables))
        if sigma:
            term *= tables[a][sigma] / tables[a][0]
    return term


def loop_term(m: MultiGM, x_bp: GaugeVector, config: Sequence[int]) -> float:
    """One generalized-loop contribution at a converged BP gauge.

    ``z(x) * prod_a Q_a[sigma_a] / h_a / prod_colored_edges beta(1-beta)``;
    the empty loop contributes ``z(x)`` itself.  Equals the corresponding
    series term ``z(sigma|x)``.
    """
    return _term(m, *_at_bp_gauge(m, x_bp), config)


def loop_series_sum(
    m: MultiGM, x_bp: GaugeVector, guard: int = DEFAULT_ENUMERATION_GUARD
) -> float:
    """Sum of all generalized-loop terms: the exact partition function."""
    tables, z_bp, beta = _at_bp_gauge(m, x_bp)
    total = 0.0
    for config in enumerate_generalized_loops(m.graph, guard=guard):
        total += _term(m, tables, z_bp, beta, config)
    return total
