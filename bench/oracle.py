"""Reference computations the benchmark checks the program's outputs against.

Each one is written from the definitions and shares no code with
``gaugepf`` beyond reading a model's graph and raw factor tables.  They
run outside every timed region.
"""

from __future__ import annotations

import math

import numpy as np


def _edge_index(m) -> dict:
    return {e: j for j, e in enumerate(m.graph.edges)}


def _slot_edges(m, a) -> list:
    return [d.edge for d in m.factors[a].variables]


def _bits(k: int) -> np.ndarray:
    """Row ``i`` holds the bits of ``i``, bit ``j`` in column ``j``."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def einsum_z(m) -> float:
    """``Z`` as one tensor contraction of all factor tables.

    Every edge is one index.  A table's axis ``i`` is its ``i``-th slot, bit
    ``i`` of the flat index; a self-edge appears twice within one operand,
    which makes einsum read the diagonal.
    """
    index = _edge_index(m)
    operands = []
    for a in m.graph.nodes:
        edges = _slot_edges(m, a)
        table = np.asarray(m.factors[a].table, dtype=float)
        # C order puts the last axis fastest, so reverse the slot list
        operands.append(table.reshape((2,) * len(edges)))
        operands.append([index[e] for e in reversed(edges)])
    return float(np.einsum(*operands, [], optimize="greedy"))


def loop_count(m) -> int:
    """Edge subsets in which no node has degree exactly one, by brute force.

    A self-edge adds two to its node's degree.
    """
    nodes = {a: i for i, a in enumerate(m.graph.nodes)}
    incidence = np.zeros((len(m.graph.edges), len(nodes)), dtype=np.int64)
    for j, e in enumerate(m.graph.edges):
        tail, head = m.graph.endpoints[e]
        incidence[j, nodes[tail]] += 1
        incidence[j, nodes[head]] += 1
    degree = _bits(len(m.graph.edges)) @ incidence
    return int(np.sum(~np.any(degree == 1, axis=1)))


def log_z_and_gradient(m, x) -> tuple[float, dict]:
    """``log z(x)`` and its gradient in ``x``, one entry per directed slot.

    ``z(x) = prod_a h_a / prod_e (1 + x_p x_q)`` with
    ``h_a = sum_s f_a(s) prod_i x_i**s_i``, summed over a bit matrix.
    """
    pair = {}
    for d, v in x.items():
        pair[d.edge] = pair.get(d.edge, 1.0) * v
    log_z = -sum(math.log1p(pair[e]) for e in m.graph.edges)
    grad = {}
    for a in m.graph.nodes:
        f = m.factors[a]
        bits = _bits(len(f.variables))
        xs = np.array([x[d] for d in f.variables], dtype=float)
        w = np.asarray(f.table, dtype=float) * np.prod(np.where(bits, xs, 1.0), axis=1)
        h = w.sum()
        log_z += math.log(h)
        slot_mass = bits.T @ w
        for i, d in enumerate(f.variables):
            p = pair[d.edge]
            grad[d] = (slot_mass[i] / h - p / (1.0 + p)) / xs[i]
    return log_z, grad


def config_weight(m, config) -> float:
    """Product of each node's table entry at ``config`` (bit ``j`` is edge ``j``)."""
    index = _edge_index(m)
    w = 1.0
    for a in m.graph.nodes:
        local = sum(int(config[index[e]]) << i for i, e in enumerate(_slot_edges(m, a)))
        w *= float(m.factors[a].table[local])
    return w


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
