"""Model generators: random instances, trees, and bipartite matching families.

Random factor entries are drawn log-uniformly from [0.1, 10] so that seeded
runs are reproducible and documented.  Matching models put the one-hot
(perfect matching / permanent) or at-most-one (monomer-dimer) indicator on
each node, with edge weights absorbed into the row-side factors; their node
polynomials are degree one, the textbook bi-stable family.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .model import FactorTable, MultiGM
from .multigraph import MultiGraph

ENTRY_RANGE = (0.1, 10.0)


def _random_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    lo, hi = np.log(ENTRY_RANGE[0]), np.log(ENTRY_RANGE[1])
    return np.exp(rng.uniform(lo, hi, size=n))


def random_soft_model(
    rng: np.random.Generator,
    n_edges: int,
    n_nodes: int | None = None,
    p_self: float = 0.25,
) -> MultiGM:
    """Random soft model with a mix of self-edges, normal and parallel edges.

    Without ``n_nodes`` a one-node draw is possible: all self-edges, one
    ``2 * n_edges``-slot table, whose solve can take tens of seconds.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(1, max(2, n_edges) + 1))
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for j in range(n_edges):
        if n_nodes == 1 or rng.random() < p_self:
            a = nodes[int(rng.integers(n_nodes))]
            edges.append((f"e{j}", a, a))
        else:
            a, b = rng.choice(n_nodes, size=2, replace=False)
            edges.append((f"e{j}", nodes[int(a)], nodes[int(b)]))
    graph = MultiGraph.build(nodes, edges)
    return attach_random_factors(graph, rng)


def attach_random_factors(graph: MultiGraph, rng: np.random.Generator) -> MultiGM:
    """Fill every node of ``graph`` with log-uniform positive factor entries."""
    factors = {
        a: FactorTable.from_values(
            a,
            graph.incidence[a],
            _random_entries(rng, 2 ** len(graph.incidence[a])),
        )
        for a in graph.nodes
    }
    return MultiGM.from_tables(graph, factors)


def random_tree_model(rng: np.random.Generator, n_edges: int) -> MultiGM:
    """Random tree: each new node attaches to a uniformly chosen earlier one."""
    nodes = [f"n{i}" for i in range(n_edges + 1)]
    edges = []
    for j in range(1, n_edges + 1):
        parent = int(rng.integers(j))
        edges.append((f"e{j - 1}", nodes[parent], nodes[j]))
    graph = MultiGraph.build(nodes, edges)
    return attach_random_factors(graph, rng)


def _matching_table(k: int, weights: Sequence[float], perfect: bool) -> np.ndarray:
    """Indicator table over k slots: weight on one-hot rows, 0 or 1 elsewhere."""
    table = np.zeros(2**k)
    if not perfect:
        table[0] = 1.0
    for i in range(k):
        table[1 << i] = weights[i]
    return table


def matching_model(
    rows: int,
    cols: int,
    weights: np.ndarray | None = None,
    edges: Sequence[tuple[int, int]] | None = None,
    perfect: bool = False,
) -> MultiGM:
    """Bipartite matching model; ``perfect=True`` gives the permanent model.

    One binary edge per ``(row, col)`` pair (all pairs by default), oriented
    row to column.  Row factors carry the edge weights; column factors are
    plain indicators.  With ``perfect`` the partition function is the
    permanent of the weight matrix; otherwise it sums all partial matchings.
    """
    if weights is None:
        weights = np.ones((rows, cols))
    weights = np.asarray(weights, dtype=float)
    if edges is None:
        edges = [(i, j) for i in range(rows) for j in range(cols)]
    node_ids = [f"r{i}" for i in range(rows)] + [f"c{j}" for j in range(cols)]
    edge_triples = [(f"m{i}_{j}", f"r{i}", f"c{j}") for i, j in edges]
    graph = MultiGraph.build(node_ids, edge_triples)
    factors = {}
    for a in graph.nodes:
        incident = graph.incidence[a]
        if a.startswith("r"):
            i = int(a[1:])
            w = [weights[i, int(d.edge.split("_")[1])] for d in incident]
        else:
            w = [1.0] * len(incident)
        factors[a] = FactorTable.from_values(
            a, incident, _matching_table(len(incident), w, perfect)
        )
    return MultiGM.from_tables(graph, factors)


def permanent_model(weights: np.ndarray) -> MultiGM:
    """Perfect-matching model whose partition function is ``perm(weights)``."""
    weights = np.asarray(weights, dtype=float)
    return matching_model(
        weights.shape[0], weights.shape[1], weights=weights, perfect=True
    )


def permanent_bruteforce(weights: np.ndarray) -> float:
    """Permanent by expansion over permutations (tiny matrices only)."""
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    return float(
        sum(
            np.prod([weights[i, p[i]] for i in range(n)])
            for p in itertools.permutations(range(n))
        )
    )
