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
table, shifted by its offset, is gathered through its grid.  The node-order
product of the gathered values is carried on the running shape, the
broadcast of the grids seen so far, so the first nodes' products run over
only the edge bits they read, and only the products after the shape
reaches the full block run over all ``2**16`` configurations.

``contract_model`` reads tables as C-order views, whose axes hold the
variables last first; its merged tables come out in the ``FactorTable``
layout without a transposed copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .multigraph import DirectedEdge, EdgeId, GraphError, MultiGraph, NodeId

DEFAULT_ENUMERATION_GUARD = 24

# the floor of :func:`soft_model`, relative to each table's maximum
SOFTEN_EPS = 1e-12

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
        if isinstance(values, np.ndarray):
            table = np.array(values, dtype=float)  # one copy; the caller's stays as is
        else:
            table = np.asarray(list(values), dtype=float)
        return cls._adopt(node, variables, table, allow_negative)

    @classmethod
    def _adopt(
        cls,
        node: NodeId,
        variables: Sequence[DirectedEdge],
        table: np.ndarray,
        allow_negative: bool = False,
    ) -> "FactorTable":
        """Check a float array that no one else holds and make it the table
        as it is, without a copy; it is made read-only."""
        variables = tuple(variables)
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
    index parts from edge bits 0-15, the ``(edge bit, slot)`` pairs of edge
    bits 16 and up, and where its running product goes.  A grid has one
    axis per edge bit 8-15 of the model, highest bit first, and a last axis
    for edge bits 0-7; it has length 1 on the axes of bits the node does
    not read.  A node's running shape is the broadcast of its grid's shape
    with those of the nodes before it, and its output is ``None`` while
    that shape stays the previous node's, else a buffer view of the new
    shape.  The views alternate, from the last backwards, between a
    full-block buffer and a second buffer, so a product never writes the
    buffer it reads; the second holds only shapes short of the full block,
    so at most half a block.  ``size`` is the block's configuration count.
    """

    nodes: list[
        tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...], np.ndarray | None]
    ]
    size: int


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
    nodes, running = [], []
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
        running.append(np.broadcast_shapes(running[-1] if running else (), grid.shape))
    grows = [k for k in range(1, len(nodes)) if running[k] != running[k - 1]]
    outs = [None] * len(nodes)
    # the last growth reaches the full block; the one before it, and every
    # other one going back, goes to the second buffer
    for ks in (grows[::-2], grows[-2::-2]):
        if ks:
            buffer = np.empty(max(math.prod(running[k]) for k in ks))
            for k in ks:
                outs[k] = buffer[: math.prod(running[k])].reshape(running[k])
    return _BlockPlan([(*node, out) for node, out in zip(nodes, outs)], 1 << low_bits)


def _block_weights(plan: _BlockPlan, lo: int) -> np.ndarray:
    """Weights of configurations ``lo, lo + 1, ...`` over one block.

    Each node's table, shifted by the offset of ``lo``'s high edge bits, is
    gathered through the node's grid.  The running product starts as the
    first node's gathered values and takes each later node's in node order,
    on the node's running shape: in place while that shape stays the same,
    into the node's plan buffer when it grows.  Only the products after it
    reaches the full block run over every configuration, and each entry
    gets the same multiplications in the same order as on the full block.
    Returns a flat array, a view of a plan buffer (overwritten by the next
    call) unless the first node reads every low edge bit.
    """
    w = None
    for table, grid, high, out in plan.nodes:
        offset = sum(((lo >> p) & 1) << i for p, i in high)
        # each gather is a temporary that dies with its product
        values = table[offset:]
        if w is None:
            w = values[grid]
        elif out is None:
            w *= values[grid]
        else:
            w = np.multiply(w, values[grid], out=out)
    return np.ones(1) if w is None else w.reshape(-1)


def _scan(m: MultiGM, guard: int) -> tuple[float, float, int]:
    """One pass over all configurations: (sum, largest weight, its index)."""
    _check_guard(m, guard)
    plan = _block_plan(m)
    n = 1 << len(m.graph.edges)
    total = 0.0
    best = -math.inf
    best_idx = 0
    for lo in range(0, n, plan.size):
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
    the first node's value (on the running shape, which changes where a
    product is computed but not its operands or their order); numpy sums
    each block, and the block sums are added one after another.  Results
    are reproducible bit-for-bit.
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
    """Clamp every table entry to at least ``eps`` times its table maximum.

    A table with no entry below that floor is kept as it is, the same
    :class:`FactorTable` object.
    """
    if eps <= 0:
        raise ModelError("softening epsilon must be positive")
    factors = {}
    for a, f in m.factors.items():
        top = float(f.table.max())
        if top <= 0:
            raise ModelError(f"factor at node {a!r} is identically zero")
        floor = eps * top
        if f.table.min() < floor:
            f = FactorTable._adopt(a, f.variables, np.maximum(f.table, floor))
        factors[a] = f
    return MultiGM(graph=m.graph, factors=factors)


def soft_model(m: MultiGM) -> MultiGM:
    """``m`` itself when every entry is positive, else ``soften(m, SOFTEN_EPS)``.

    The one rule by which the BP solver, its contraction sequences, the
    command line and the direct Bethe minimizer make a hard model soft;
    ``soft_model(m) is not m`` says that it did.  A soft model is taken as
    given, even with entries below the floor.
    """
    return m if m.is_soft else soften(m, SOFTEN_EPS)


def _at_bit(f: FactorTable, slots: Sequence[int], bit: int) -> np.ndarray:
    """View of ``f``'s table with each of ``slots`` fixed at ``bit``.

    The view is of the table's C-order shape ``(2,) * k``, whose axis ``i``
    holds variable ``k - 1 - i``, so its axes hold the remaining variables
    last first, and a product or sum of such views flattens in C order to
    a table in the ``FactorTable`` layout.
    """
    k = len(f.variables)
    index = [slice(None)] * k
    for i in slots:
        index[k - 1 - i] = bit
    return f.table.reshape((2,) * k)[(*index, Ellipsis)]


# contract_model adds a normal edge's bit-1 part in slices of at least
# 2**_SLICE_BITS entries (32 KiB): smaller merged tables take one slice
_SLICE_BITS = 12


def contract_model(m: MultiGM, edge: EdgeId) -> MultiGM:
    """Sum the edge variable out of the model; the partition function is kept.

    For a normal edge the endpoint tables are merged into the surviving
    node's table over the union of their remaining variables (survivor's
    first); for a self-edge the diagonal of the two slots is summed.  Both
    tables are read as C-order views (:func:`_at_bit`): the normal edge's
    outer product of the absorbed node's part with the survivor's, and the
    self-edge's diagonal sum, come out in the merged table's own layout, so
    no transposed copy is made.  The bit-1 part of a normal edge is added
    in place into the bit-0 part, slice by slice over the smaller operand,
    so the only scratch is one slice the size of the larger operand (at
    least ``2**_SLICE_BITS`` entries); each entry is still ``a0 b0 + a1 b1``
    rounded as one outer product and one sum would round it.  The merged
    array becomes the new table without a copy; an overflow raises
    :class:`ModelError`.
    """
    if edge not in m.graph.endpoints:
        raise GraphError(f"unknown edge {edge!r}")
    g2 = m.graph.contract_edge(edge)
    tail, head = m.graph.endpoints[edge]
    factors = {a: f for a, f in m.factors.items() if a in g2.incidence}

    node, absorbed = min(tail, head), max(tail, head)  # the same on a self-edge
    f = m.factors[node]
    new_vars = tuple(d for d in f.variables if d.edge != edge)
    try:
        with np.errstate(over="raise"):
            if tail == head:
                slots = [f.variables.index(DirectedEdge(edge, s)) for s in (True, False)]
                merged = _at_bit(f, slots, 0) + _at_bit(f, slots, 1)
            else:
                fa = m.factors[absorbed]
                slot_s = [next(i for i, d in enumerate(f.variables) if d.edge == edge)]
                slot_a = [next(i for i, d in enumerate(fa.variables) if d.edge == edge)]
                a0, a1 = _at_bit(fa, slot_a, 0), _at_bit(fa, slot_a, 1)
                s0, s1 = _at_bit(f, slot_s, 0), _at_bit(f, slot_s, 1)
                # out= keeps a 0-slot result an array, not a numpy scalar
                merged = np.multiply.outer(a0, s0, out=np.empty(a0.shape + s0.shape))
                # the bit-1 part in slices over merged's leading axes (the
                # absorbed node's), at most one per smaller operand's entry
                lead = merged.ndim - max(a1.ndim, s1.ndim, _SLICE_BITS)
                for i in itertools.product((0, 1), repeat=max(lead, 0)):
                    merged[i] += np.multiply.outer(a1[i], s1)
                new_vars += tuple(d for d in fa.variables if d.edge != edge)
    except FloatingPointError:
        raise ModelError(
            f"contracting {edge!r} overflows the merged table at node {node!r}"
        ) from None

    # the merged array is new and held nowhere else, so it becomes the table
    factors[node] = FactorTable._adopt(node, new_vars, merged.reshape(-1))
    return MultiGM.from_tables(g2, factors)
