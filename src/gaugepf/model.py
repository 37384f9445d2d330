"""Multi-graph graphical models: factor tables, brute-force oracles, contraction.

A model places one nonnegative factor table on each node, indexed by the
bit-configuration of the node's incident directed edges.  The global weight
of an edge configuration is the product of factor values, with each directed
slot reading the bit of its undirected edge (a self-edge reads its bit
twice).  ``partition_exact`` and ``map_energy_exact`` enumerate all
configurations and are the reference oracles for everything downstream;
``exact_summary`` gives both from one pass.

Enumeration runs over blocks of ``2**16`` consecutive configuration indices
on a plan built once per model.  A node's table index splits into an offset
from edge bits 16 and up, one number per block, and a part from the low 16
edge bits that is the same in every block.  A block's weights are viewed as
a grid with one length-2 axis per edge bit 8-15 (highest first) and a last
axis for edge bits 0-7.  The plan keeps each node's low part on that grid,
with length 1 on every axis the node does not read; per block, the node's
table, shifted by its offset, is gathered through its grid and broadcast
into the block's weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .multigraph import DirectedEdge, EdgeId, GraphError, MultiGraph, NodeId

DEFAULT_ENUMERATION_GUARD = 24

Config = tuple[int, ...]

# brute force runs over blocks of 2**_BLOCK_BITS consecutive configurations
_BLOCK_BITS = 16


class ModelError(ValueError):
    """Invalid factor data or operation on a model."""


class EnumerationGuardError(ModelError):
    """Refused brute-force enumeration beyond the configured edge guard."""


@dataclass(frozen=True)
class FactorTable:
    """Dense factor over a node's incident directed edges.

    ``table`` has length ``2**len(variables)``; entry ``i`` is the factor
    value at the bit-configuration where variable ``j`` carries bit
    ``(i >> j) & 1`` (variable 0 is the fastest-varying bit).
    """

    node: NodeId
    variables: tuple[DirectedEdge, ...]
    table: np.ndarray

    @classmethod
    def from_values(
        cls,
        node: NodeId,
        variables: Sequence[DirectedEdge],
        values: Iterable[float],
        allow_negative: bool = False,
    ) -> "FactorTable":
        variables = tuple(variables)
        if isinstance(values, np.ndarray):
            table = np.array(values, dtype=float)  # one copy; the caller's stays as is
        else:
            table = np.asarray(list(values), dtype=float)
        if table.shape != (2 ** len(variables),):
            raise ModelError(
                f"factor at node {node!r}: table length {table.size} "
                f"!= 2**{len(variables)}"
            )
        if not np.all(np.isfinite(table)):
            raise ModelError(f"factor at node {node!r}: non-finite entry")
        if not allow_negative and np.any(table < 0):
            raise ModelError(f"factor at node {node!r}: negative entry")
        table.setflags(write=False)
        return cls(node=node, variables=variables, table=table)

    @property
    def is_soft(self) -> bool:
        return bool(np.all(self.table > 0))

    def as_array(self) -> np.ndarray:
        """Table reshaped to one binary axis per variable (axis i = variable i)."""
        return self.table.reshape((2,) * len(self.variables), order="F")

    def value(self, bits: Sequence[int]) -> float:
        if len(bits) != len(self.variables):
            raise ModelError(
                f"factor at node {self.node!r}: expected {len(self.variables)} bits"
            )
        idx = sum((1 << i) for i, b in enumerate(bits) if b)
        return float(self.table[idx])


@dataclass(frozen=True)
class MultiGM:
    """A multi-graph plus one factor table per node."""

    graph: MultiGraph
    factors: Mapping[NodeId, FactorTable]

    @classmethod
    def from_tables(
        cls, graph: MultiGraph, factors: Mapping[NodeId, FactorTable]
    ) -> "MultiGM":
        for a in graph.nodes:
            if a not in factors:
                raise ModelError(f"missing factor for node {a!r}")
            if factors[a].variables != graph.incidence[a]:
                raise ModelError(
                    f"factor at node {a!r}: variable order "
                    f"{[str(d) for d in factors[a].variables]} does not match "
                    f"incidence {[str(d) for d in graph.incidence[a]]}"
                )
        extra = set(factors) - set(graph.nodes)
        if extra:
            raise ModelError(f"factors for unknown nodes: {sorted(extra)}")
        return cls(graph=graph, factors=dict(factors))

    @property
    def is_soft(self) -> bool:
        return all(f.is_soft for f in self.factors.values())


def _check_config(m: MultiGM, config: Sequence[int]) -> None:
    if len(config) != len(m.graph.edges):
        raise ModelError(
            f"config length {len(config)} != edge count {len(m.graph.edges)}"
        )


def evaluate_weight(m: MultiGM, config: Sequence[int]) -> float:
    """Product of factor values at one edge configuration."""
    _check_config(m, config)
    bit = {e: int(config[j]) for j, e in enumerate(m.graph.edges)}
    w = 1.0
    for a in m.graph.nodes:
        f = m.factors[a]
        w *= f.value([bit[d.edge] for d in f.variables])
    return w


def _check_guard(m: MultiGM, guard: int) -> None:
    if len(m.graph.edges) > guard:
        raise EnumerationGuardError(
            f"{len(m.graph.edges)} edges exceeds the enumeration guard {guard}"
        )


@dataclass
class _BlockPlan:
    """Per-model set-up of the brute-force enumeration.

    ``nodes`` holds, per node in node order, its table, its grid of table
    index parts from edge bits 0-15, and the ``(edge bit, slot)`` pairs of
    edge bits 16 and up.  A grid has one axis per edge bit 8-15 of the
    model, highest bit first, and a last axis for edge bits 0-7; it has
    length 1 on the axes of bits the node does not read.  ``weights`` is
    one block's weights on the full grid shape, reused by every block.
    """

    nodes: list[tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]]
    weights: np.ndarray


def _block_plan(m: MultiGM) -> _BlockPlan:
    pos = {e: j for j, e in enumerate(m.graph.edges)}
    low_bits = min(len(m.graph.edges), _BLOCK_BITS)
    shape = (2,) * max(low_bits - 8, 0) + (1 << min(low_bits, 8),)
    # bits[p]: edge bit p of the block's configurations, broadcastable to shape
    byte0 = np.arange(shape[-1], dtype=np.intp)
    bits = [(byte0 >> p) & 1 for p in range(min(low_bits, 8))]
    for p in range(8, low_bits):
        axes = [1] * len(shape)
        axes[low_bits - 1 - p] = 2
        bits.append(np.arange(2, dtype=np.intp).reshape(axes))
    nodes = []
    for a in m.graph.nodes:
        f = m.factors[a]
        grid = np.zeros((1,) * len(shape), dtype=np.intp)
        high = []
        for i, d in enumerate(f.variables):
            p = pos[d.edge]
            if p < low_bits:
                grid = grid | (bits[p] << i)
            else:
                high.append((p, i))
        nodes.append((f.table, grid, tuple(high)))
    return _BlockPlan(nodes, np.empty(shape))


def _block_weights(plan: _BlockPlan, lo: int) -> np.ndarray:
    """Weights of configurations ``lo, lo + 1, ...`` over one block.

    Each node's table, shifted by the offset of ``lo``'s high edge bits, is
    gathered through the node's grid and broadcast into the weights: the
    first node's values are copied in, each later node's multiply them, in
    node order.  Returns a flat view of ``plan.weights``, overwritten by the
    next call.
    """
    w = plan.weights
    if not plan.nodes:
        w.fill(1.0)
    for k, (table, grid, high) in enumerate(plan.nodes):
        offset = sum(((lo >> p) & 1) << i for p, i in high)
        gathered = table[offset:][grid]
        if k == 0:
            np.copyto(w, gathered)
        else:
            w *= gathered
    return w.reshape(-1)


def _scan(m: MultiGM, guard: int) -> tuple[float, float, int]:
    """One pass over all configurations: (sum, largest weight, its index)."""
    _check_guard(m, guard)
    plan = _block_plan(m)
    n = 1 << len(m.graph.edges)
    total = 0.0
    best = -math.inf
    best_idx = 0
    for lo in range(0, n, plan.weights.size):
        w = _block_weights(plan, lo)
        total += float(w.sum())
        j = int(np.argmax(w))
        if w[j] > best:
            best = float(w[j])
            best_idx = lo + j
    return total, best, best_idx


def partition_exact(m: MultiGM, guard: int = DEFAULT_ENUMERATION_GUARD) -> float:
    """Brute-force partition function: sum over all ``2**|E|`` configurations.

    Bit j of a configuration's index is the bit of edge j.  The sum runs
    over blocks of ``2**16`` consecutive indices in ascending order, on the
    block plan of the module docstring: a block's weights are the products
    of its nodes' gathered table values, taken in node order starting from
    the first node's value; numpy sums each block, and the block sums are
    added one after another.  Results are reproducible bit-for-bit.
    """
    return _scan(m, guard)[0]


def exact_summary(
    m: MultiGM, guard: int = DEFAULT_ENUMERATION_GUARD
) -> tuple[float, float, Config]:
    """``(Z, map_energy, argmax)`` from one brute-force pass.

    Equals ``partition_exact`` and ``map_energy_exact`` bit for bit, and
    raises as the latter does when every configuration has zero weight.
    """
    z, best, best_idx = _scan(m, guard)
    if best <= 0:
        raise ModelError("all configurations have zero weight")
    config = tuple((best_idx >> j) & 1 for j in range(len(m.graph.edges)))
    return z, -math.log(best), config


def map_energy_exact(
    m: MultiGM, guard: int = DEFAULT_ENUMERATION_GUARD
) -> tuple[float, Config]:
    """MAP energy ``-log max_sigma f(sigma)`` with its argmax configuration.

    Ties resolve to the smallest configuration index.  Raises if every
    configuration has zero weight.
    """
    _, energy, config = exact_summary(m, guard)
    return energy, config


def soften(m: MultiGM, eps: float) -> MultiGM:
    """Clamp every table entry to at least ``eps`` times its table maximum."""
    if eps <= 0:
        raise ModelError("softening epsilon must be positive")
    factors = {}
    for a, f in m.factors.items():
        top = float(f.table.max())
        if top <= 0:
            raise ModelError(f"factor at node {a!r} is identically zero")
        factors[a] = FactorTable.from_values(
            a, f.variables, np.maximum(f.table, eps * top)
        )
    return MultiGM(graph=m.graph, factors=factors)


def contract_model(m: MultiGM, edge: EdgeId) -> MultiGM:
    """Sum the edge variable out of the model; the partition function is kept.

    For a normal edge the endpoint tables are merged into the surviving
    node's table over the union of their remaining variables (survivor's
    first); for a self-edge the diagonal of the two slots is summed.
    """
    if edge not in m.graph.endpoints:
        raise GraphError(f"unknown edge {edge!r}")
    g2 = m.graph.contract_edge(edge)
    tail, head = m.graph.endpoints[edge]
    factors = {a: f for a, f in m.factors.items() if a in g2.incidence}

    if tail == head:
        node = tail
        f = m.factors[node]
        arr = f.as_array()
        ip = f.variables.index(DirectedEdge(edge, True))
        iq = f.variables.index(DirectedEdge(edge, False))
        d0 = np.take(np.take(arr, 0, axis=max(ip, iq)), 0, axis=min(ip, iq))
        d1 = np.take(np.take(arr, 1, axis=max(ip, iq)), 1, axis=min(ip, iq))
        merged = d0 + d1
        new_vars = tuple(d for d in f.variables if d.edge != edge)
    else:
        node, absorbed = (tail, head) if tail <= head else (head, tail)
        fs, fa = m.factors[node], m.factors[absorbed]
        slot_s = next(i for i, d in enumerate(fs.variables) if d.edge == edge)
        slot_a = next(i for i, d in enumerate(fa.variables) if d.edge == edge)
        parts = []
        for v in (0, 1):
            s_part = np.take(fs.as_array(), v, axis=slot_s)
            a_part = np.take(fa.as_array(), v, axis=slot_a)
            parts.append(np.multiply.outer(s_part, a_part))
        merged = parts[0] + parts[1]
        new_vars = tuple(d for d in fs.variables if d.edge != edge) + tuple(
            d for d in fa.variables if d.edge != edge
        )

    factors[node] = FactorTable.from_values(
        node, new_vars, merged.reshape(-1, order="F")
    )
    return MultiGM.from_tables(g2, factors)
