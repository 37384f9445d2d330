"""Gauge transformations in the positive x-representation.

Every undirected edge carries a pair of positive parameters, one per
orientation.  They induce a 2x2 matrix per directed edge whose product with
the sibling's transpose is the identity, which is exactly the condition
under which reshuffling factors leaves the partition function invariant.
The singled-out all-zeros term of the transformed series is the gauge
function ``z(x)``; general terms ``z(sigma|x)`` factor through the per-node
quantities computed by :func:`q_node`.  Tables are mapped through one 2x2
matrix per slot by :func:`slot_map` (gauges, loop-series colored tables)
and reduced against gauge weights by :func:`node_weights`, the table times
the node's weight vector :func:`monomials` (residuals and beliefs, and
:func:`q_node`, which so checks the loop terms independently).  The BP
solver's sweeps read the weights of a node's not-yet-updated slots off
prefixes of that one vector.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .model import FactorTable, ModelError, MultiGM
from .multigraph import DirectedEdge, NodeId

MIN_GAUGE_VALUE = 1e-12

GaugeVector = Mapping[DirectedEdge, float]


def _check_positive(value: float, what: str, floor: float = 0.0) -> None:
    ok = (value >= floor if floor else value > 0.0) and np.isfinite(value)
    if not ok:
        bound = f">= {floor:g}" if floor else "> 0"
        raise ValueError(f"{what} must be {bound} and finite, got {value!r}")


def check_gauge(m: MultiGM, x: GaugeVector) -> None:
    """Verify that ``x`` assigns a strictly positive value to every directed edge."""
    for d in m.graph.directed_edges():
        if d not in x:
            raise ValueError(f"gauge vector missing directed edge {d}")
        _check_positive(x[d], f"gauge value at {d}")


def gauge_matrix(x_p: float, x_q: float) -> np.ndarray:
    """2x2 gauge matrix for a directed edge with values ``(x_p, x_q)``.

    ``x_p`` is the edge's own value and ``x_q`` its sibling's; the sibling's
    matrix is the same formula with the arguments swapped, which makes
    ``G(x_p, x_q).T @ G(x_q, x_p)`` the identity.  Rows are the transformed
    bit, columns the original bit.  The identity is recovered in the
    ``x_p = x_q -> 0`` limit; values below ``MIN_GAUGE_VALUE`` are refused
    (take the limit with an explicit small value instead).
    """
    _check_positive(x_p, "x_p", floor=MIN_GAUGE_VALUE)
    _check_positive(x_q, "x_q", floor=MIN_GAUGE_VALUE)
    # Grouped by the ratio and product of the pair: keeps the sibling
    # orthogonality cancellation exact in floats across wide value ranges.
    r = (x_p / x_q) ** 0.25
    s = np.sqrt(x_p * x_q)
    n = np.sqrt(1.0 + x_p * x_q)
    return np.array(
        [
            [1.0 / (r * n), s * r / n],
            [-s / (r * n), r / n],
        ]
    )


def slot_map(table: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """``out[t] = sum_s table[s] prod_j mats[j][t_j, s_j]``; ``t_j`` is bit ``j`` of ``t``.

    One in-place butterfly per slot on a copy of the table: ``O(k * 2**k)``.
    """
    out = np.array(table, dtype=float)
    for j, g in enumerate(mats):
        v = out.reshape(-1, 2, 1 << j)  # [higher slots, bit j, lower slots]
        s0, s1 = v[:, 0].copy(), v[:, 1]
        v[:, 0] = g[0][0] * s0 + g[0][1] * s1
        v[:, 1] = g[1][0] * s0 + g[1][1] * s1
    return out


def transform_factors(m: MultiGM, x: GaugeVector) -> MultiGM:
    """Apply the gauge transformation to every factor table.

    The result is a model over the same graph whose entries may be
    negative; summing its weights over all configurations returns the
    original partition function for any positive ``x``.
    """
    check_gauge(m, x)
    factors = {}
    for a in m.graph.nodes:
        f = m.factors[a]
        mats = [gauge_matrix(x[d], x[d.sibling]) for d in f.variables]
        factors[a] = FactorTable.from_values(
            a, f.variables, slot_map(f.table, mats), allow_negative=True
        )
    return MultiGM(graph=m.graph, factors=factors)


def monomials(
    w1: np.ndarray, w0: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Every configuration's weight product: the node's weight vector.

    ``w1`` and ``w0`` have shape ``(..., k)``: one weight pair per slot for
    each row, under any leading batch axes (``w0`` defaults to ones).
    Returns the ``(..., 2**k)`` array ``V[..., i] = prod_j (w1[..., j] if
    bit j of i else w0[..., j])``, written into ``out`` if given.  It is
    built by doubling one vector slot by slot from bit 0 up, in place, so
    ``V[..., :2**b]`` is the weight vector of the low ``b`` slots alone: the
    BP solver reads the weights of a node's not-yet-updated slots off such
    prefixes, and rewrites the vectors of all nodes with the same slot count
    in one call per sweep, into the same stack.
    """
    *lead, k = w1.shape
    if out is None:
        out = np.empty((*lead, 1 << k))
    out[..., 0] = 1.0
    for j in range(k):
        n = 1 << j
        np.multiply(out[..., :n], w1[..., j, None], out=out[..., n : 2 * n])
        if w0 is not None:
            out[..., :n] *= w0[..., j, None]
    return out


def node_weights(
    table: np.ndarray, w1: np.ndarray, w0: np.ndarray | None = None
) -> np.ndarray:
    """The node-table kernel: every configuration's weighted table entry.

    ``W[r, i] = table[i] * V[r, i]`` with ``V`` the :func:`monomials` of
    ``w1`` and ``w0``; memory is one ``(R, 2**k)`` array.  Sums of ``W``
    give every reduction of the node against the weights: :func:`slot_sums`
    and ``W.sum(axis=1)`` for the full contraction.
    """
    out = monomials(w1, w0)
    out *= table
    return out


def slot_sums(w: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """``(R, k, 2)``: for every slot, the sums of rows of ``W`` over its bit = 0, 1.

    ``W`` is a :func:`node_weights` result.  Works from the top slot down:
    the two halves of the current array hold the top bit's two sums, and
    adding them folds that bit away.  About ``3 * 2**k`` additions per row,
    all over contiguous blocks.  With ``overwrite`` each fold is written
    into its first half, so ``w`` is used as scratch and nothing table-sized
    is allocated; the sums are the same, bit for bit.
    """
    rows, n = w.shape
    k = n.bit_length() - 1
    out = np.empty((rows, k, 2))
    for i in reversed(range(k)):
        halves = w.reshape(rows, 2, 1 << i)
        np.add.reduce(halves, axis=2, out=out[:, i])
        low = halves[:, 0]
        w = np.add(low, halves[:, 1], out=low if overwrite else None)
    return out


def _reduce_one(
    f: FactorTable, w1: Sequence[float], w0: Sequence[float] | None = None
) -> float:
    """Full contraction of one factor table against one weight pair per slot."""
    w0_row = None if w0 is None else np.array([w0], dtype=float)
    return float(node_weights(f.table, np.array([w1], dtype=float), w0_row)[0].sum())


def h_node(m: MultiGM, a: NodeId, x: GaugeVector) -> float:
    """Node polynomial ``sum_s f_a(s) prod_d x_d**s_d`` at the node's gauge values."""
    f = m.factors[a]
    for d in f.variables:
        _check_positive(x[d], f"gauge value at {d}")
    return _reduce_one(f, [x[d] for d in f.variables])


def gauge_function(m: MultiGM, x: GaugeVector) -> float:
    """The all-zeros term of the transformed series.

    ``prod_a h_a(x_a) / prod_edges (1 + x_plus * x_minus)``; positive for
    soft models at any positive gauge.  Summed as logs with ``math.fsum``,
    so it stays finite wherever the value does, even when the product of
    the ``h_a`` alone would overflow; a value beyond the float range is
    ``inf``, and a node with ``h_a = 0`` makes it 0.
    """
    check_gauge(m, x)
    # h_node per node, without checking every slot again
    factors = [m.factors[a] for a in m.graph.nodes]
    h = np.array([_reduce_one(f, [x[d] for d in f.variables]) for f in factors])
    prod = [x[DirectedEdge(e, True)] * x[DirectedEdge(e, False)] for e in m.graph.edges]
    with np.errstate(divide="ignore", over="ignore"):
        log_z = math.fsum(np.log(h).tolist()) - math.fsum(np.log1p(prod).tolist())
        return float(np.exp(log_z))


def edge_belief(x: GaugeVector, edge: str) -> float:
    """Edge marginal ``x_plus * x_minus / (1 + x_plus * x_minus)``."""
    prod = x[DirectedEdge(edge, True)] * x[DirectedEdge(edge, False)]
    return prod / (1.0 + prod)


def q_node(m: MultiGM, x: GaugeVector, a: NodeId, colored: Sequence[int]) -> float:
    """Per-node building block of the sigma-term series.

    ``colored`` has one bit per incident directed slot (a colored self-edge
    sets both of its slots).  Colored slots swap their monomial weight
    ``x**s`` for ``x**s * (s - beta)`` and contribute a ``1/beta``
    prefactor, with ``beta`` the edge belief of the slot's undirected edge.
    At sigma = 0 this reduces to :func:`h_node`.
    """
    f = m.factors[a]
    if len(colored) != len(f.variables):
        raise ModelError(
            f"colored vector for node {a!r}: expected {len(f.variables)} bits"
        )
    prefactor = 1.0
    w0, w1 = [], []
    for d, bit in zip(f.variables, colored):
        _check_positive(x[d], f"gauge value at {d}")
        if bit:
            beta = edge_belief(x, d.edge)
            prefactor /= beta
            w0.append(-beta)
            w1.append(x[d] * (1.0 - beta))
        else:
            w0.append(1.0)
            w1.append(x[d])
    return prefactor * _reduce_one(f, w1, w0)


def z_sigma(m: MultiGM, x: GaugeVector, config: Sequence[int]) -> float:
    """Single term ``z(sigma|x)`` of the gauge-transformed series.

    Summing over all configurations recovers the partition function; at the
    all-zeros configuration this is :func:`gauge_function`.
    """
    check_gauge(m, x)
    if len(config) != len(m.graph.edges):
        raise ModelError(
            f"config length {len(config)} != edge count {len(m.graph.edges)}"
        )
    bit = {e: int(config[j]) for j, e in enumerate(m.graph.edges)}
    scale = 1.0
    for e in m.graph.edges:
        prod = x[DirectedEdge(e, True)] * x[DirectedEdge(e, False)]
        scale *= prod ** bit[e] / (1.0 + prod)
    term = scale
    for a in m.graph.nodes:
        colored = [bit[d.edge] for d in m.factors[a].variables]
        term *= q_node(m, x, a, colored)
    return term
