"""BP gauges: stationary points of the gauge function and everything on top.

The solver runs Gauss-Seidel sweeps over edges.  For one edge, with
all other gauge values frozen, the numerator polynomial is a quadratic in
the edge's orientation pair and the stationary pair has a closed form; the
sweep applies it edge by edge until the gradient of ``log z`` vanishes.
Stationary points are saddles in each orientation pair, and the largest
converged value across random restarts is the variational estimate of the
partition function (exact on trees, a lower bound on bi-stable families).

Each random restart runs in two phases.  It first takes full, undamped
steps, at most ``_UNDAMPED_SWEEPS`` (100) of them, and stops at
``_UNDAMPED_TIGHTEN`` (1e-2) times the tolerance.  Damping only cures BP
that oscillates, and a stable fixed point needs none (Murphy, Weiss &
Jordan 1999).  A restart that does not converge so, such as every restart
on the 2x2 all-ones permanent, runs again from its initial draw with the
configured damping.  That fallback gets up to ``max_sweeps`` sweeps of its
own, and the restart's ``sweeps`` counts both phases.  With ``damping=0``
there is one undamped phase, of up to ``max_sweeps`` sweeps, to the
tolerance itself.

All restarts run in lockstep as the columns of one ``(darts, restarts)``
gauge array, each stopping at its own convergence sweep.  Rows are
pair-major in sweep order: edge ``i``'s positive and negative darts are
rows ``2i`` and ``2i + 1``, so every per-edge quantity is a contiguous
vector over the restarts and an edge update is a few numpy calls on a
``(2, restarts)`` block.  Each node's table is transposed once per solve
so that its slots run in the order the sweep touches them, the
first-touched slot on the top bit, and the nodes with the same slot count
``k`` share one ``(n_k, 2**k)`` table stack.  A sweep walks one chain per
node, DMRG style: the chain is the table with the slots already updated
summed out under their new weights, so an edge's coefficients are the
chain's top bits reduced against the node's weight vector
(:func:`gauge.monomials`) on the low bits, the slots not reached yet.
Chains and weight vectors keep the restarts first, so each reduction is
one ``matmul``.  The sweep takes the edges in sorted-id order, except on a
bipartite graph whose nodes all have the same slot count ``k`` (the
``K_{n,n}`` matching and permanent models): its edges split into ``k``
perfect matchings (König 1916; :meth:`MultiGraph.perfect_matchings`),
swept one after another.  The edges of a matching share no node, so the
whole matching is one step on the ``(n, rows, 2**g)`` stack of all ``n``
nodes' chains: one stacked ``matmul``, one ``divide`` for every node's
ratio and one ``take`` of the partners' ratios into the matching's rows of
``x``, the same ufuncs and iterates as its edges stepped one by one (the
chromatic schedule of Gonzalez, Low & Guestrin 2009).  On a normal edge the local quadratic factorises into the
tail's and the head's sums, ``h_pq = a_p b_q``, and its stationary pair
is BP's message ratio ``(b1 / b0, a1 / a0)``; only a self-edge's 2x2
block takes the general closed form.  The weight vectors are rewritten
once per sweep and slot count, for the gauge the next sweep starts from;
so a sweep costs about two table passes per node, whatever the node's
degree.  The residual pass reduces each slot count's weighted stack in one
:func:`gauge.slot_sums` call, one more table pass per node, folding it in
the buffer the tables were weighed into, so it allocates nothing
table-sized; it runs only when a restart may have converged: the first
edge's chain sums, read again at the gauge the sweep ends on, give that
edge's residual exactly, a lower bound on the restart's, and while it
exceeds the tolerance by a margin in every restart the pass is skipped,
after damped and full steps alike.  The pass also holds every node's
total ``h_a``, from which a restart's value ``z(x)`` is taken when it
stops.  Every array an edge
step writes belongs to a sweep plan (:class:`_Plan`) that a batch
allocates once and rebuilds only when restarts retire, together with each
edge step's views of it, so a normal edge's step is a fixed list of ufunc
calls that allocate nothing; the bound, the clamp-hit count and the
weight vectors' gather, once a sweep on ``(2, rows)``-sized blocks, are
plain numpy expressions.  Memory is ``O(rows * 2**k)`` for a ``k``-slot
node; the restarts are split into batches that keep it bounded on large
tables.  A large node alone in its slot count keeps its ``FactorTable``
array in the layout, as a transposed view; only a sweep copies it, into
the contiguous stack its chains start from.  The single-gauge entry points
are the same code on one column: ``_at_gauge`` is the one place a single
gauge column is evaluated, by a residual pass in the column's own weight
vectors that reads such a table in place, so on a one-node stage it holds
one table-sized array; :func:`bp_residual`, a warm stage's check and the
loop series' convergence gate call it on the solver's layout,
``_Layout.of``'s default, so they read the residual the solver stopped on.
:func:`saddle_check` reads an edge's quadratic from the first step of a
one-column sweep plan and takes the profile's Hessian in closed form.
:func:`bp_contract_sequence` solves its first stage with restarts and each
later one with a single restart started from the previous stage's gauge,
falling back to restarts when that one does not converge or its value
drops.  After a normal-edge contraction the start is already a BP gauge,
as :func:`bp_value` of a normal edge is ``h00 + h11``, the exact
elimination's value: that warm stage checks it with one ``_at_gauge`` pass
and keeps it unswept when it is within the tolerance.  After a self-edge
contraction the start is swept without a check.  The warm restart takes
full, undamped steps, capped at the sweeps stage 0's chosen restart took,
and has no damped phase: it starts next to its fixed point, and damping
only slows it there.
The direct Bethe minimizer that cross-checks the solver lives apart from
it, in :mod:`gaugepf.bethe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import gauge as gauge_mod
from .gauge import (
    GaugeVector,
    check_gauge,
    edge_belief,
    monomials,
    node_weights,
    slot_sums,
)
from .bethe import _xlogx
from .model import ModelError, MultiGM, contract_model, soft_model
from .multigraph import DirectedEdge, EdgeId, GraphError, NodeId
from .poly import QuadCoeffs


class DegenerateEdgeError(ModelError):
    """Closed-form edge update hit a zero linear coefficient.

    Happens only for hard (zero-containing) factors; soften the model
    (``soft_model(m)``, as :func:`solve_bp` does) to proceed.
    """


class NonConvergenceError(ModelError):
    """An operation required a converged BP gauge but none was supplied."""


class ConfigError(ValueError):
    """A :class:`SolverConfig` field is out of range."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve_bp`.

    ``damping`` is the weight kept on the old value at each edge update of
    the fallback phase (0 means full steps).  Each random restart first
    runs undamped, for at most ``min(max_sweeps, _UNDAMPED_SWEEPS)`` sweeps
    and to ``tolerance * _UNDAMPED_TIGHTEN``; only a restart that does not
    converge so runs again from its initial draw with ``damping``, for up to
    ``max_sweeps`` more sweeps.  So ``max_sweeps`` bounds each phase, and
    with ``damping=0`` the undamped phase is the whole solve, to
    ``tolerance`` in up to ``max_sweeps`` sweeps.  The warm stages of
    :func:`bp_contract_sequence` take full steps only, capped at stage 0's
    sweeps.  Initial gauges are drawn log-uniformly from ``_INIT_RANGE``
    per restart.  No field sets the softening of a hard model: that floor
    is fixed at ``model.SOFTEN_EPS`` (see :func:`model.soft_model`).
    """

    damping: float = 0.5
    tolerance: float = 1e-10
    max_sweeps: int = 10_000
    restarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for ok, name, rule in (
            (0.0 <= self.damping < 1.0, "damping", "lie in [0, 1)"),
            (0.0 < self.tolerance < math.inf, "tolerance", "be positive and finite"),
            (self.max_sweeps >= 1, "max_sweeps", "be at least 1"),
            (self.restarts >= 1, "restarts", "be at least 1"),
        ):
            if not ok:
                raise ConfigError(f"{name} must {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class BPGauge:
    """A solved gauge: values, diagnostics, and the restart survey."""

    x: dict[DirectedEdge, float]
    residual: float
    value: float
    sweeps: int
    converged: bool
    softened: bool = False
    stationary_values: tuple[float, ...] = ()
    # sweeps that ended with a gauge value on a _CLAMP bound, in the phase
    # that gave ``x`` (the damped one after a fallback)
    clamped: int = 0
    fallbacks: int = 0  # restarts that did not converge undamped and ran damped


@dataclass(frozen=True)
class Beliefs:
    """Node beliefs (same bit layout as factor tables) and edge marginals."""

    node_beliefs: dict[NodeId, np.ndarray]
    edge_marginals: dict[EdgeId, float]

    def interior_margin(self) -> float:
        """Distance of the closest edge marginal to the polytope boundary."""
        if not self.edge_marginals:
            return 0.5
        return min(min(b, 1.0 - b) for b in self.edge_marginals.values())


# -- gauge arrays ------------------------------------------------------------

# Entries of one slot count's arrays per node across a batch of restarts:
# the solver runs at most ``_BATCH_ENTRIES >> k`` restarts together when the
# largest node has ``k`` slots.  A batch's sweep plan keeps two
# ``(rows, 2**k)`` arrays per ``k``-slot node, its weight vector and one
# buffer that the residual pass weighs the table into and folds it in, and
# a sweep folds the node's chain into (the folds halve, so they fit).  So a
# batch peaks at about two such arrays per node, beside the one contiguous
# copy of each table that its chains start from (``_Layout.stacks``), which
# bounds its memory on large tables.
_BATCH_ENTRIES = 1 << 18

# every restart's initial gauge values are drawn log-uniformly from this range
_INIT_RANGE = (0.25, 4.0)

# wide clamp on every update: keeps extreme near-hard iterates representable
_CLAMP = (1e-18, 1e18)

# A node alone in its slot count keeps its table in place in the layout
# from 2**_IN_PLACE_BITS entries (32 KiB) up.  On smaller tables the copy's
# memory does not matter, and a pass over the transposed view costs more
# than the copy saves (64 entries: 1.9 us against 0.5 us for the flat
# product and 0.4 us for the copy); at 2**12 entries the two cost the same.
_IN_PLACE_BITS = 12


@dataclass(frozen=True)
class _Layout:
    """Where each directed edge lives in a ``(darts, rows)`` gauge array, and
    the node tables with their slots in the order a sweep touches them.

    Edge ``i`` of the sweep keeps its positive and negative darts on rows
    ``2i`` and ``2i + 1``, one restart per column.  The nodes with ``k``
    slots share one ``(n_k, 2**k)`` table stack, each table with its
    first-touched slot on the top bit.  A slot count ``k >=
    _IN_PLACE_BITS`` held by one node keeps that node's
    ``FactorTable.table`` in place instead, as a read-only ``(1, 2, ...,
    2)`` view with its axes in that bit order, top bit first;
    :attr:`stacks` copies it only for a sweep.
    """

    darts: tuple[DirectedEdge, ...]  # the dart on each gauge row
    # slot count k -> (n_k, 2**k) tables, or one node's (1,) + (2,) * k view
    tables: dict[int, np.ndarray]
    slots: dict[int, np.ndarray]  # k -> (n_k, k) gauge row of each table bit
    place: dict[NodeId, tuple[int, int]]  # node -> (k, its row in the stack)
    # per edge: tail, head, and whether each one's chain is read again later
    steps: tuple[tuple[NodeId, NodeId, bool, bool], ...]
    # the edges, in order, form this many perfect matchings of equal size,
    # which a sweep steps one at a time; 0 when it steps edge by edge
    matchings: int

    @classmethod
    def of(cls, m: MultiGM, edges: Sequence[EdgeId] | None = None) -> "_Layout":
        """Layout for a sweep over ``edges`` in order, edge by edge.

        By default the sweep is the solver's: the graph's perfect matchings
        one after another (:meth:`MultiGraph.perfect_matchings`), each
        stepped at once, or when it has none the edges sorted by id.  A
        self-edge's two slots are adjacent, its positive one above.
        """
        matchings = None
        if edges is None:
            matchings = m.graph.perfect_matchings()
            edges = sorted(m.graph.edges) if matchings is None else sum(matchings, [])
        # the graph's own darts: a gauge keyed by them is read by identity
        pos = {e: 2 * i for i, e in enumerate(edges)}
        darts = tuple(sorted(m.graph.directed_edges(),
                             key=lambda d: pos[d.edge] + (not d.positive)))
        col = {d: j for j, d in enumerate(darts)}
        groups: dict[int, list[NodeId]] = {}
        for a in m.graph.nodes:
            groups.setdefault(len(m.factors[a].variables), []).append(a)
        tables, slots, place = {}, {}, {}
        for k, nodes in groups.items():
            alone = k >= _IN_PLACE_BITS and len(nodes) == 1
            if not alone:
                tables[k] = np.empty((len(nodes), 1 << k))
            slots[k] = np.empty((len(nodes), k), dtype=np.intp)
            for i, a in enumerate(nodes):
                f = m.factors[a]
                rows = [col[d] for d in f.variables]
                # bit j of the new table is slot bits[j]: the last touched at bit 0
                bits = sorted(range(k), key=rows.__getitem__, reverse=True)
                if alone:  # read in place: C order puts bit j on axis k - 1 - j
                    tables[k] = f.as_array().transpose(bits[::-1])[None]
                else:
                    table = tables[k][i].reshape((2,) * k, order="F")
                    table[...] = f.as_array().transpose(bits)
                slots[k][i] = [rows[j] for j in bits]
                place[a] = (k, i)
        ends = [m.graph.endpoints[e] for e in edges]
        last = {a: i for i, pair in enumerate(ends) for a in pair}
        steps = tuple((t, h, i < last[t], i < last[h]) for i, (t, h) in enumerate(ends))
        return cls(darts=darts, tables=tables, slots=slots, place=place, steps=steps,
                   matchings=len(matchings) if matchings else 0)

    @cached_property
    def stacks(self) -> dict[int, np.ndarray]:
        """Per slot count the tables as a contiguous ``(n_k, 2**k)`` stack,
        made on first use: the sweep's chains start as it.  Only a one-node
        count's view is copied."""
        return {k: t.reshape(len(t), -1) for k, t in self.tables.items()}

    def column(self, x: GaugeVector) -> np.ndarray:
        """Gauge ``x`` as a one-column array, one row per dart."""
        return np.array([float(x[d]) for d in self.darts]).reshape(-1, 1)

    @cached_property
    def by_name(self) -> list[int]:
        """Gauge rows in name order of their darts, sorted on first use."""
        return sorted(range(len(self.darts)), key=lambda j: str(self.darts[j]))

    def gauge(self, col: np.ndarray) -> dict[DirectedEdge, float]:
        """The gauge held in column ``col``, its darts in name order."""
        values = col.reshape(-1)[self.by_name].tolist()
        return {self.darts[j]: v for j, v in zip(self.by_name, values)}

    def weight_vectors(self, x: np.ndarray) -> dict[int, np.ndarray]:
        """Per slot count, the ``(n_k, rows, 2**k)`` weight vectors
        ``prod_j (1, x_j)`` over the bits of its tables."""
        return {k: monomials(x[s].transpose(0, 2, 1)) for k, s in self.slots.items()}


# -- residuals ------------------------------------------------------------


def _residual_parts(
    lay: _Layout, x: np.ndarray, mono: Mapping[int, np.ndarray],
    weighted: Mapping[int, np.ndarray] | None = None,
    tables: Mapping[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per restart the residual, the larger of the gradient norm and the
    coloring residual (NaN read as inf); per slot, the gradient of ``log z``
    and the normalized coloring residual; and every node's total ``h_a``.

    ``mono`` holds the weight vectors of ``x`` (:meth:`_Layout.weight_vectors`
    or a :class:`_Plan`'s), and ``weighted``, if given, one buffer of the
    same shape per slot count for the weighted tables; it may be ``mono``
    itself, when the caller no longer needs the weight vectors.  The pass
    weighs the tables into it, or into a fresh product, and folds them there
    (:func:`gauge.slot_sums` with ``overwrite``), so it allocates nothing
    table-sized beyond that product.  The tables are ``lay.tables`` unless
    ``tables`` (:attr:`_Layout.stacks`) is given; a one-node count's view is
    weighed through its ``(2,) * k`` shape, the same elementwise products.
    One pass per slot count covers every slot of every node and row: with
    the slot's own weight included, the bit-1 sum over the node total is the
    slot's tilted mean ``x_d * dh/dx_d / h``.  Each node's total comes once,
    from its top slot (``(nodes, rows)``, in slot-count order); a 0-slot
    node's is its constant.
    """
    tables = lay.tables if tables is None else tables
    mean = np.empty_like(x)
    totals = []
    for k, rows in lay.slots.items():
        t, v = tables[k][:, None], mono[k]
        w = None if weighted is None else weighted[k]
        if t.ndim > 3:  # a one-node view
            shape = (1, x.shape[1], *t.shape[2:])
            v = v.reshape(shape)
            w = np.empty(shape) if w is None else w.reshape(shape)
        w = np.multiply(v, t, out=w)
        if not k:
            totals.append(w[:, :, 0])
            continue
        s = slot_sums(w.reshape(-1, 1 << k), overwrite=True)
        s = s.reshape(*w.shape[:2], k, 2)
        tot = s[:, :, -1, 0] + s[:, :, -1, 1]
        mean[rows] = (s[..., 1] / tot[..., None]).transpose(0, 2, 1)
        totals.append(tot)
    pairs = x.reshape(-1, 2, x.shape[1])  # [edge, (+, -), row]
    prod = pairs[:, :1] * pairs[:, 1:]
    beta = prod / (1.0 + prod)
    grad = mean / x - (pairs[:, ::-1] / (1.0 + prod)).reshape(x.shape)
    # inf or nan where beta is 0 or not finite
    with np.errstate(divide="ignore", invalid="ignore"):
        coloring = (np.abs(mean.reshape(pairs.shape) - beta) / beta).reshape(x.shape)
    res = np.maximum(np.abs(grad).max(axis=0, initial=0.0),
                     coloring.max(axis=0, initial=0.0))
    res[np.isnan(res)] = math.inf
    return res, grad, coloring, np.concatenate(totals)


def _values(totals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``z(x) = prod_a h_a / prod_e (1 + x_+ x_-)`` per column, from the totals.

    Summed in the log domain with ``math.fsum``, so a column's value does
    not depend on the others beside it; a value beyond the float range is
    ``inf``, as the product would be.
    """
    log_h = np.log(totals).T.tolist()
    log_d = np.log1p(x[0::2] * x[1::2]).T.tolist()
    log_z = [math.fsum(h) - math.fsum(d) for h, d in zip(log_h, log_d)]
    with np.errstate(over="ignore"):
        return np.exp(log_z)


def _at_gauge(lay: _Layout, col: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Gauge column ``col``'s residual, ``log z``'s gradient column and
    every node's total ``h_a``.

    One residual pass on ``lay.tables``, a one-node count's table read in
    place, folded in the column's own weight vectors; that buffer is freed
    on return, and nothing else table-sized is made.
    """
    mono = lay.weight_vectors(col)
    res, grad, _, totals = _residual_parts(lay, col, mono, mono)
    return float(res[0]), grad, totals


def bp_residual(m: MultiGM, x: GaugeVector) -> dict[DirectedEdge, float]:
    """Stationarity residual: the gradient of ``log z(x)``, one entry per slot.

    Vanishes exactly at BP gauges.  Requires a soft model so every node
    polynomial is positive.
    """
    if not m.is_soft:
        raise ModelError("residuals need a soft model; soften it first")
    check_gauge(m, x)
    lay = _Layout.of(m)
    return lay.gauge(_at_gauge(lay, lay.column(x))[1])


# -- closed-form edge update ----------------------------------------------


def _check_linear(lowest: np.ndarray) -> None:
    """Raise if any linear coefficient ``h10`` or ``h01`` in ``lowest`` is <= 0."""
    if (lowest <= 0).any():
        raise DegenerateEdgeError(
            "linear coefficient vanished (h10 or h01 = 0); soften the model"
        )


def _pair_update(h: np.ndarray, out: np.ndarray, scale: float = 0.5) -> None:
    """Physical stationary pairs of ``h/(1+x_p x_q)``, one per column, into ``out``.

    ``h`` is ``(4, rows)``: ``h00, h01, h10, h11``, the row being
    ``2 * bit_p + bit_q``; ``out`` is ``(2, rows)``, ``x_p`` then ``x_q``,
    each times ``2 * scale``.  The linear coefficients must be positive
    (see :func:`_check_linear`).
    """
    diff = h[3] - h[0]
    cross = h[1] * h[2]
    cross *= 4.0
    root = diff * diff
    root += cross
    np.sqrt(root, out=root)
    # diff + root, or where diff < 0 its conjugate form cross / (root - diff):
    # no cancellation when the cross product is tiny relative to diff**2
    num = np.abs(diff)
    num += root
    np.copyto(num, cross / num, where=diff < 0)
    np.divide(num, h[2], out=out[0])
    np.divide(num, h[1], out=out[1])
    out *= scale


def edge_pair_update(c: QuadCoeffs) -> tuple[float, float]:
    """Physical stationary pair of ``h/(1+x_p x_q)`` for one edge's quadratic."""
    h = np.array([[c.h00], [c.h01], [c.h10], [c.h11]], dtype=float)
    _check_linear(h[1:3])
    out = np.empty((2, 1))
    _pair_update(h, out)
    return float(out[0, 0]), float(out[1, 0])


def bp_value(c: QuadCoeffs) -> float:
    """Value of ``h/(1+x_p x_q)`` at the physical pair.

    Equals ``h00 + h11`` when the quadratic factorizes (normal edge).
    """
    _check_linear(np.array([c.h10, c.h01]))
    root = math.sqrt((c.h11 - c.h00) ** 2 + 4.0 * c.h01 * c.h10)
    return 0.5 * (c.h11 + c.h00 + root)


def _chain_operands(
    t: np.ndarray, mono: np.ndarray, g: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``matmul`` operands whose ``(R, 2**g, 1)`` product is chain ``t``
    per pattern of its top ``g`` bits.

    Its low bits, the slots not updated yet this sweep, are reduced against
    the matching prefix of the node's weight vector ``mono``.
    """
    low = t.shape[-1] >> g
    return t.reshape(-1, 1 << g, low), mono[:, :low, None]


# -- solver ----------------------------------------------------------------


class _Plan:
    """Every array one batch's edge steps write, and each step's views of them.

    ``x`` is the batch's ``(darts, rows)`` gauge array, swept in place.  Per
    slot count the plan holds the weight vectors, rewritten from ``x`` once
    a sweep (:meth:`weigh`), and a stack of the same shape that the
    residual pass weighs the tables into and folds them in, and a sweep
    folds the nodes' chains into.  ``sums`` holds an edge's chain sums: the tail's and the
    head's ``(bit 0, bit 1)`` sums on a normal edge, the 2x2 block
    ``h[row, bit_p, bit_q]`` on a self-edge.  ``steps`` holds, per edge in
    sweep order, the ``matmul`` operands that fill ``sums``, the ratio's
    numerator and denominator (``None`` on a self-edge), the edge's
    ``(2, rows)`` block of ``x``, and each fold's two halves, weights and
    output.  On a layout with matchings it holds one step per matching
    instead (:meth:`_matching_steps`).  :func:`_unconverged` reads the
    first edge's chain sums again (:meth:`read_first`, edge by edge on
    either layout) and sets ``bound``, the last per-row bound.  A batch
    whose rows change gets a new plan.
    """

    def __init__(self, lay: _Layout, x: np.ndarray) -> None:
        rows = x.shape[1]
        self.lay, self.x = lay, x
        self.mono = {k: np.empty((len(s), rows, 1 << k)) for k, s in lay.slots.items()}
        self.weighted = {k: np.empty_like(v) for k, v in self.mono.items()}
        self.sums = np.empty((rows, 2, 2))
        if lay.matchings:
            n = len(lay.place)
            self.node_sums = np.empty((n, rows, 2, 1))  # [node, row, bit]
            self.lowest = np.empty_like(self.node_sums)
            # every node's ratio, its own dart's new value, and a matching's
            # n darts' damped steps
            self.ratio, self.own, self.step = (np.empty((n, rows)) for _ in range(3))
            self.steps = self._matching_steps()
            tables = {a: lay.stacks[k][i] for a, (k, i) in lay.place.items()}
            self.first = self._reads(0, tables)
        else:
            self.step = np.empty((2, rows))
            self.lowest = np.empty((rows, 2, 2))
            self.steps = self._steps()
            self.first = self.steps[0][0]
        self.weigh()

    def weigh(self) -> None:
        """Rewrite the weight vectors ``prod_j (1, x_j)`` from ``x``, in place."""
        for k, s in self.lay.slots.items():
            monomials(self.x[s].transpose(0, 2, 1), out=self.mono[k])

    def read_first(self) -> None:
        """The first edge's chain sums at the weight vectors, into ``sums``."""
        for t, w, out in self.first:
            np.matmul(t, w, out=out)

    def _reads(self, i: int, chain: Mapping[NodeId, np.ndarray]) -> tuple:
        """Edge ``i``'s ``matmul`` operands and outputs in ``sums``, its
        endpoints' chains in ``chain``."""
        tail, head, *_ = self.lay.steps[i]
        sums, rows = self.sums, self.x.shape[1]

        def read(a: NodeId, g: int, out: np.ndarray) -> tuple:
            k, j = self.lay.place[a]
            return (*_chain_operands(chain[a], self.mono[k][j], g), out)

        if tail == head:  # bits (+, -), + on top: h's order
            return (read(tail, 2, sums.reshape(rows, 4, 1)),)
        return read(tail, 1, sums[:, 0, :, None]), read(head, 1, sums[:, 1, :, None])

    def _steps(self) -> tuple:
        lay, x, sums = self.lay, self.x, self.sums
        rows = x.shape[1]
        # per node: its chain, which starts as its table
        chain = {a: lay.stacks[k][i] for a, (k, i) in lay.place.items()}
        # a sweep's folds reuse the weighted-table buffer, free until the
        # residual pass: each fold halves the chain, so all of them fit
        spare = {a: self.weighted[k][i].reshape(-1) for a, (k, i) in lay.place.items()}
        steps = []
        for i, (tail, head, more_tail, more_head) in enumerate(lay.steps):
            pair = x[2 * i : 2 * i + 2]
            reads = self._reads(i, chain)
            # (b1, a1) / (b0, a0) on a normal edge
            ratio = None if tail == head else (sums[:, ::-1, 1], sums[:, ::-1, 0])
            folds = []
            # a self-edge folds its positive slot, then the one below it
            for a, w, more in ((tail, pair[0], more_tail), (head, pair[1], more_head)):
                if more:
                    top = chain[a].reshape(-1, 2, chain[a].shape[-1] // 2)
                    n = rows * top.shape[-1]
                    chain[a], spare[a] = spare[a][:n].reshape(rows, -1), spare[a][n:]
                    folds.append((top[:, 1], w[:, None], top[:, 0], chain[a]))
            steps.append((reads, ratio, pair, tuple(folds)))
        return tuple(steps)

    def _matching_steps(self) -> tuple:
        """Per perfect matching: the ``matmul`` operands that read every
        node's chain sums into ``node_sums``, the node whose ratio each dart
        of the matching takes, the matching's ``(n, rows)`` block of ``x``,
        and unless it is the last matching, each node's own dart in that
        block and the fold's two halves and output.

        All ``n`` nodes have ``k`` slots, so they share one table stack, and
        a matching reaches each node once: the nodes' chains are one
        ``(n, rows, 2**g)`` stack with the matching's slot on the top bit,
        folded into the weighted-table buffer as the edge steps' chains are.
        """
        lay, x = self.lay, self.x
        ((k, stack),) = lay.stacks.items()
        n, rows = len(stack), x.shape[1]
        chain, spare, mono = stack[:, None], self.weighted[k].reshape(-1), self.mono[k]
        steps = []
        for c in range(lay.matchings):
            # the node of each dart: edge j's tail on row 2j, its head below
            edges = lay.steps[c * n // 2 : (c + 1) * n // 2]
            owner = np.array([lay.place[a][1] for tail, head, *_ in edges
                              for a in (tail, head)])
            low = chain.shape[-1] // 2
            top = chain.reshape(n, -1, 2, low)
            fold = None
            if c + 1 < lay.matchings:
                size = n * rows * low
                chain, spare = spare[:size].reshape(n, rows, low), spare[size:]
                fold = (np.argsort(owner), top[:, :, 1], top[:, :, 0], chain)
            # a dart takes its partner's ratio: (b1 / b0, a1 / a0)
            partner = owner.reshape(-1, 2)[:, ::-1].ravel()
            read = (top, mono[:, :, :low, None])
            steps.append((read, partner, x[c * n : (c + 1) * n], fold))
        return tuple(steps)


def _sweep(plan: _Plan, cfg: SolverConfig) -> None:
    """One damped Gauss-Seidel sweep over the edges, in place on ``plan.x``.

    ``plan.mono`` holds the weight vectors of ``plan.x``.  Each node's chain
    starts as its table; an edge's chain sums come from the top bits of its
    endpoints' chains, which then fold its slots in under the new values.
    On a normal edge the quadratic factorises, ``h_pq = a_p b_q``, and the
    stationary pair is the message ratio ``(b1 / b0, a1 / a0)``; a
    self-edge's 2x2 block takes the general closed form.  Without damping
    the new pair is written straight into ``x``.  On a layout with
    matchings the edges of one matching share no node, so each matching is
    stepped at once, with the same ufuncs on every node's chain: the same
    iterates as its edges stepped one by one.
    """
    rows = plan.x.shape[1]
    sums, step, lowest = plan.sums, plan.step, plan.lowest
    keep_old, scale = cfg.damping, 1.0 - cfg.damping
    lo, hi = _CLAMP
    # the running minimum of the linear coefficients: on a normal edge
    # h01 = a0 b1 and h10 = a1 b0 are positive exactly when all four sums are
    lowest.fill(math.inf)
    # a vanished linear coefficient divides by zero; it is raised below
    with np.errstate(divide="ignore", invalid="ignore"):
        if plan.lay.matchings:
            sums, ratio, own = plan.node_sums, plan.ratio, plan.own
            for (t, w), partner, pairs, fold in plan.steps:
                np.matmul(t, w, out=sums)
                np.fmin(lowest, sums, out=lowest)
                np.divide(sums[:, :, 1, 0], sums[:, :, 0, 0], out=ratio)
                new = step if keep_old else pairs
                ratio.take(partner, axis=0, out=new, mode="clip")
                if keep_old:
                    step *= scale
                    pairs *= keep_old
                    pairs += step
                np.maximum(pairs, lo, out=pairs)
                np.minimum(pairs, hi, out=pairs)
                if fold:
                    darts, top, bottom, out = fold
                    pairs.take(darts, axis=0, out=own, mode="clip")
                    np.multiply(top, own[:, :, None], out=out)
                    out += bottom
        else:
            h = sums.reshape(rows, 4).T  # a self-edge's h00, h01, h10, h11
            linear = lowest.reshape(rows, 4).T[1:3]
            for reads, ratio, pair, folds in plan.steps:
                for t, w, out in reads:
                    np.matmul(t, w, out=out)
                new = step if keep_old else pair  # a full step writes x directly
                if ratio is None:
                    np.fmin(linear, h[1:3], out=linear)
                    _pair_update(h, new, 0.5 * scale)
                else:
                    np.fmin(lowest, sums, out=lowest)
                    np.divide(*ratio, out=new.T)
                    if keep_old:
                        step *= scale
                if keep_old:
                    pair *= keep_old
                    pair += step
                np.maximum(pair, lo, out=pair)
                np.minimum(pair, hi, out=pair)
                for top, w, bottom, out in folds:
                    np.multiply(top, w, out=out)
                    out += bottom
    _check_linear(lowest)


# The full residual pass is skipped only when every row's first-edge bound
# exceeds this factor times the tolerance: the bound and the pass sum in
# different orders, and the margin keeps a rounding difference between them
# from hiding a row that has converged.
_MARGIN = 2.0


def _unconverged(plan: _Plan, tol: float) -> bool:
    """Whether the sweep's first edge shows every row's residual above
    ``_MARGIN * tol``, from its chain sums at the weight vectors of the
    gauge the sweep ended on (``plan.weigh`` has run).

    The first edge's slots are the top bits of both its endpoints' tables,
    and every other slot is reduced at its final value, so each of its
    darts' tilted means ``S1 / (S0 + S1)`` is exact: ``S = (a0, x_p a1)``
    at a normal edge's tail and ``(b0, x_q b1)`` at its head; ``(h00 + h01
    x_q, x_p (h10 + h11 x_q))`` and its mirror on a self-edge.  With ``beta =
    x_p x_q / (1 + x_p x_q)`` a dart's gradient ``mean / x - x_sib / (1 +
    x_p x_q)`` is ``(mean - beta) / x`` and its coloring residual
    ``|mean - beta| / beta``, so the larger of the two is ``|mean - beta| /
    min(x, beta)``: the residual pass's value on that dart, a lower bound on
    its row's.  The larger over the two darts goes into ``plan.bound``; a NaN
    bound counts as possibly converged.  The first edge rather than the
    last: a full step leaves the last edge exactly stationary, so its bound
    would read 0 after every undamped sweep, while every later step of the
    sweep moves the first edge's residual.
    """
    plan.read_first()
    x = plan.x[:2]  # the first edge's pair
    ends = plan.sums.transpose(1, 2, 0)  # [dart, bit, row] on a normal edge
    tail, head, *_ = plan.lay.steps[0]
    if tail == head:  # sum the 2x2 block h[bit_p, bit_q] over the other dart
        ends = np.stack((ends[:, 1] * x[1] + ends[:, 0], ends[1] * x[0] + ends[0]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = ends[:, 1] * x
        mean /= mean + ends[:, 0]
        beta = x[0] * x[1]
        beta /= beta + 1.0
        plan.bound = (np.abs(mean - beta) / np.minimum(x, beta)).max(axis=0)
    return bool(plan.bound.min() > _MARGIN * tol)


def _lockstep(lay: _Layout, x: np.ndarray, cfg: SolverConfig) -> list[BPGauge]:
    """Sweep a batch of restarts together, each until its own convergence.

    Column ``r`` of ``x``, laid out by ``lay``, is restart ``r``'s initial
    gauge.  Returns per restart its :class:`BPGauge`: the final gauge,
    residual, value ``z(x)``, sweep count, convergence flag and the number
    of sweeps that ended with a value on a ``_CLAMP`` bound.  A restart
    leaves the batch after the sweep that brings its residual within the
    tolerance, so its iterates are exactly those of a solve on its own; the
    batch then gets a new :class:`_Plan` for the rows that remain.  The
    full residual pass runs only after a sweep whose first edge, read again
    at the new gauge, leaves some row within ``_MARGIN`` times the
    tolerance (:func:`_unconverged`), and after the last sweep; the others
    cannot stop a row, so skipping them changes no result.
    """
    x = x.copy()
    n = x.shape[1]
    final, res, value = np.empty_like(x), np.empty(n), np.empty(n)
    sweeps, clamped = np.empty(n, dtype=int), np.empty(n, dtype=int)
    active, hits = np.arange(n), np.zeros(n, dtype=int)
    plan = _Plan(lay, x)
    for sweep in range(1, cfg.max_sweeps + 1):
        _sweep(plan, cfg)
        hits += ((x <= _CLAMP[0]) | (x >= _CLAMP[1])).any(axis=0)
        plan.weigh()
        if sweep < cfg.max_sweeps and _unconverged(plan, cfg.tolerance):
            continue
        r, _, _, totals = _residual_parts(lay, x, plan.mono, plan.weighted, lay.stacks)
        stop = (r <= cfg.tolerance) | (sweep == cfg.max_sweeps)
        if stop.any():
            done, keep = active[stop], ~stop
            final[:, done], res[done], sweeps[done] = x[:, stop], r[stop], sweep
            value[done] = _values(totals[:, stop], x[:, stop])
            clamped[done] = hits[stop]
            x, active, hits = np.ascontiguousarray(x[:, keep]), active[keep], hits[keep]
            if not len(active):
                break
            del plan  # free the batch's buffers before the smaller plan's
            plan = _Plan(lay, x)
    converged = res <= cfg.tolerance
    return [BPGauge(x=lay.gauge(final[:, i]), residual=float(res[i]),
                    value=float(value[i]), sweeps=int(sweeps[i]),
                    converged=bool(converged[i]), clamped=int(clamped[i]))
            for i in range(n)]


# A cold restart's undamped phase: at most this many sweeps, to this factor
# times the tolerance.  Full steps stop farther from the fixed point than
# damped ones at the same residual; the tighter stop keeps the value as
# close to the fixed point's as a damped solve's (on the softened 3x3
# all-ones permanent, a stop at the tolerance itself moves it by 1.2e-12).
_UNDAMPED_SWEEPS = 100
_UNDAMPED_TIGHTEN = 1e-2


def _restarts(m: MultiGM, cfg: SolverConfig) -> list[BPGauge]:
    """Every restart's own result, in restart order, on a soft model with edges.

    With ``cfg.damping > 0`` each batch runs undamped first; the restarts
    that do not converge in that phase run again from their initial draws
    with ``cfg``, and their ``sweeps`` count both phases.
    """
    lay = _Layout.of(m)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = np.log(_INIT_RANGE[0]), np.log(_INIT_RANGE[1])
    # one draw per restart and dart, restart-major, darts in name order (the
    # stream of drawing each restart's gauge in turn); rows in layout order
    draws = np.exp(rng.uniform(lo, hi, size=(cfg.restarts, len(lay.darts))))
    x0 = draws.T[np.argsort(lay.by_name)]
    k = max(len(f.variables) for f in m.factors.values())
    batch = max(1, _BATCH_ENTRIES >> k)
    first = cfg
    if cfg.damping:
        first = replace(
            cfg, damping=0.0, max_sweeps=min(cfg.max_sweeps, _UNDAMPED_SWEEPS),
            # a positive tolerance, even when the product underflows
            tolerance=max(cfg.tolerance * _UNDAMPED_TIGHTEN, math.ulp(0.0)),
        )
    out = []
    for start in range(0, cfg.restarts, batch):
        x = x0[:, start : start + batch]
        runs = _lockstep(lay, x, first)
        redo = [i for i, g in enumerate(runs) if not g.converged]
        if first is not cfg and redo:
            for i, g in zip(redo, _lockstep(lay, x[:, redo], cfg)):
                runs[i] = replace(g, sweeps=runs[i].sweeps + g.sweeps, fallbacks=1)
        out += runs
    return out


def _warm_solve(
    m: MultiGM, start: GaugeVector, cfg: SolverConfig, check: bool
) -> BPGauge:
    """One restart on a soft model with edges, from ``start``'s values on
    its darts; a converged result's stationary values are its own value.

    :func:`bp_contract_sequence` passes a ``cfg`` with ``damping=0`` and
    ``max_sweeps`` capped at stage 0's sweeps, so a warm stage takes full
    steps and gives up after no more sweeps than stage 0's cold solve took.
    With ``check`` the start is checked first, by :func:`_at_gauge`'s one
    residual pass in the start's weight vectors: a start within the
    tolerance is the result as it is, with 0 sweeps, and any other is
    swept, the check's buffer freed before the sweep plan is built.
    Without it the start is swept straight away.
    """
    lay = _Layout.of(m)
    x0 = lay.column(start)
    if check:
        res, _, totals = _at_gauge(lay, x0)
        if res <= cfg.tolerance:
            value = float(_values(totals, x0)[0])
            return BPGauge(x=lay.gauge(x0), residual=res, value=value,
                           sweeps=0, converged=True, stationary_values=(value,))
    (g,) = _lockstep(lay, x0, cfg)
    return replace(g, stationary_values=(g.value,) if g.converged else ())


def _tied(a: float, b: float) -> bool:
    """Two stationary values equal within a relative 1e-8 of the smaller."""
    return abs(a - b) <= 1e-8 * max(min(abs(a), abs(b)), 1e-300)


def solve_bp(m: MultiGM, cfg: SolverConfig = SolverConfig()) -> BPGauge:
    """Find a maximal BP gauge by Gauss-Seidel with restarts.

    Solves ``soft_model(m)``: a hard model is softened at ``SOFTEN_EPS``
    and the result's ``softened`` says so; a soft one, such as a model the
    caller has softened, is solved as given.  Each restart starts
    from a fresh log-uniform gauge and takes full steps; one that does not
    converge within ``min(cfg.max_sweeps, _UNDAMPED_SWEEPS)`` sweeps runs
    again from that gauge with ``cfg.damping`` (see :class:`SolverConfig`).
    The result's ``sweeps`` are the chosen restart's, both phases counted,
    and its ``fallbacks`` the number of restarts that needed the damped
    phase.  Among converged restarts the gauge with the largest ``z(x)``
    wins.  Values within a relative 1e-8 of each other are one stationary
    value, and the first restart to reach it is kept.
    A result with ``converged=False`` reports the best residual reached -
    callers decide whether that is fatal.
    """
    soft = soft_model(m)
    softened = soft is not m
    m = soft

    if not m.graph.edges:
        value = 1.0
        for a in m.graph.nodes:
            value *= float(m.factors[a].table[0])
        return BPGauge(
            x={}, residual=0.0, value=value, sweeps=0, converged=True,
            softened=softened, stationary_values=(value,),
        )

    best: BPGauge | None = None
    lowest: BPGauge | None = None
    values: list[float] = []
    runs = _restarts(m, cfg)
    fallbacks = sum(a.fallbacks for a in runs)
    for attempt in runs:
        if attempt.converged:
            values.append(attempt.value)
            if best is None or (
                attempt.value > best.value and not _tied(attempt.value, best.value)
            ):
                best = attempt
        elif lowest is None or attempt.residual < lowest.residual:
            lowest = attempt

    distinct: list[float] = []
    for v in sorted(values, reverse=True):
        if not distinct or not _tied(distinct[-1], v):
            distinct.append(v)
    chosen = best if best is not None else lowest
    assert chosen is not None
    return replace(chosen, softened=softened, stationary_values=tuple(distinct),
                   fallbacks=fallbacks)


# -- beliefs and free energy ------------------------------------------------


def marginals_from_gauge(m: MultiGM, x: GaugeVector) -> Beliefs:
    """Node beliefs ``b_a proportional to f_a prod x**s`` and edge marginals."""
    check_gauge(m, x)
    node_beliefs = {}
    for a in m.graph.nodes:
        f = m.factors[a]
        w = node_weights(f.table, np.array([[x[d] for d in f.variables]]))[0]
        node_beliefs[a] = w / w.sum()
    marginals = {e: edge_belief(x, e) for e in m.graph.edges}
    return Beliefs(node_beliefs=node_beliefs, edge_marginals=marginals)


# check_polytope's tolerance: a gauge's beliefs pass when its residual, which
# bounds every |node marginal - beta| / beta, is within it (up to rounding)
POLYTOPE_TOL = 1e-9


def check_polytope(m: MultiGM, bel: Beliefs, tol: float = POLYTOPE_TOL) -> None:
    """Verify normalization and node/edge marginal consistency."""
    for a in m.graph.nodes:
        b = bel.node_beliefs[a]
        f = m.factors[a]
        if b.shape != f.table.shape:
            raise ModelError(f"belief at node {a!r} has wrong length")
        if abs(float(b.sum()) - 1.0) > tol:
            raise ModelError(f"belief at node {a!r} does not sum to 1")
        for d, marg in zip(f.variables, slot_sums(b[None])[0, :, 1]):
            if abs(float(marg) - bel.edge_marginals[d.edge]) > tol:
                raise ModelError(
                    f"belief at node {a!r} violates edge consistency on {d}"
                )


def bethe_free_energy(m: MultiGM, bel: Beliefs) -> float:
    """Bethe free energy ``E - S`` at beliefs on the marginal polytope.

    ``E`` is minus the expected log-factor; ``S`` is the node entropy minus
    one edge entropy per undirected edge (0 log 0 := 0).  At the beliefs
    induced by a BP gauge this equals ``-log z(x)``.
    """
    if not m.is_soft:
        raise ModelError("Bethe free energy needs a soft model")
    check_polytope(m, bel)
    energy = 0.0
    node_neg_entropy = 0.0
    for a in m.graph.nodes:
        b = bel.node_beliefs[a]
        energy -= float(np.sum(b * np.log(m.factors[a].table)))
        node_neg_entropy += float(np.sum(_xlogx(b)))
    edge_neg_entropy = sum(
        float(_xlogx(beta) + _xlogx(1.0 - beta))
        for beta in bel.edge_marginals.values()
    )
    entropy = -node_neg_entropy + edge_neg_entropy
    return energy - entropy


def lagrangian_L(
    m: MultiGM, beta: Mapping[EdgeId, float], x: GaugeVector
) -> float:
    """Max-min Lagrangian of the variational representation.

    ``(prod_e beta**beta (1-beta)**(1-beta)) * prod_a h_a / prod_slots
    x**beta``; its sup-min over (beta, x) is the variational estimate, and
    at a BP gauge with its induced marginals it equals ``z(x)``.
    """
    check_gauge(m, x)
    log_val = 0.0
    for e in m.graph.edges:
        be = float(beta[e])
        if not 0.0 <= be <= 1.0:
            raise ModelError(f"edge marginal for {e!r} outside [0, 1]")
        log_val += float(_xlogx(be) + _xlogx(1.0 - be))
    for a in m.graph.nodes:
        log_val += math.log(gauge_mod.h_node(m, a, x))
        for d in m.factors[a].variables:
            log_val -= beta[d.edge] * math.log(x[d])
    return math.exp(log_val)


# -- saddle diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class SaddleReport:
    """Closed-form curvature of ``h/(1+x_p x_q)`` in one edge pair."""

    edge: EdgeId
    hessian: np.ndarray
    determinant: float
    mixed: float

    @property
    def det_negative(self) -> bool:
        return self.determinant < 0

    @property
    def mixed_negative(self) -> bool:
        return self.mixed < 0


def saddle_check(m: MultiGM, x_bp: GaugeVector, edge: EdgeId) -> SaddleReport:
    """The 2x2 Hessian of the edge-pair profile ``f = h/D``, exact, at a gauge.

    With the edge's quadratic ``h = h00 + h10 x_p + h01 x_q + h11 x_p x_q``
    and ``D = 1 + x_p x_q``, ``f_p = (h10 + (h11 - h00) x_q - h01 x_q**2) /
    D**2``; so ``f_pp = -2 x_q f_p / D``, ``f_pq = ((h11 - h00) - 2 h01 x_q)
    / D**2 - 2 x_p f_p / D``, and ``f_q``, ``f_qq`` swap ``p`` and ``q``.  At
    an interior BP gauge the slopes and ``f_pp``, ``f_qq`` vanish, and the
    cross term ``(h11 - value) / D`` is strictly negative on soft models: a
    saddle, falling along the symmetric direction.
    """
    if edge not in m.graph.endpoints:
        raise GraphError(f"unknown edge {edge!r}")
    # the chain sums of a one-row sweep's first step, the edge's slots on top;
    # other nodes' factors are omitted, a positive constant on soft models
    lay = _Layout.of(m, sorted(m.graph.edges, key=lambda e: e != edge))
    plan = _Plan(lay, lay.column(x_bp))
    plan.read_first()
    tail, head = m.graph.endpoints[edge]
    s = plan.sums[0]  # h[bit_p, bit_q] on a self-edge, (a, b) on a normal one
    h00, h01, h10, h11 = (s if tail == head else np.outer(s[0], s[1])).ravel().tolist()
    xp, xq = plan.x[:2, 0].tolist()
    d = 1.0 + xp * xq
    fp = (h10 + (h11 - h00) * xq - h01 * xq * xq) / (d * d)
    fq = (h01 + (h11 - h00) * xp - h10 * xp * xp) / (d * d)
    fpq = ((h11 - h00) - 2.0 * h01 * xq) / (d * d) - 2.0 * xp * fp / d
    fpp, fqq = -2.0 * xq * fp / d, -2.0 * xp * fq / d
    hessian = np.array([[fpp, fpq], [fpq, fqq]])
    return SaddleReport(edge, hessian, determinant=fpp * fqq - fpq**2, mixed=fpq)


# -- contraction sequence ----------------------------------------------------


@dataclass(frozen=True)
class ContractionStage:
    """One entry of the BP-over-contraction table."""

    index: int
    eliminated: EdgeId | None
    n_edges: int
    z_vbp: float
    converged: bool
    gauge: BPGauge = field(repr=False)
    model: MultiGM = field(repr=False)
    warm: bool  # solved by one restart from the previous stage's gauge


# relative slack of a stage value below the previous one before it counts as
# a decrease, in :func:`sequence_decreases` and for a warm stage's fallback
_SLACK = 1e-9


def bp_contract_sequence(
    m: MultiGM, order: Sequence[EdgeId], cfg: SolverConfig = SolverConfig()
) -> list[ContractionStage]:
    """Re-solve BP after each exact contraction along ``order``.

    The model is made soft once up front by :func:`model.soft_model`, the
    rule :func:`solve_bp` applies: a hard model (one with a zero entry) is
    softened and a soft one is contracted as given.  Stage 0 is solved by
    :func:`solve_bp`, so its gauge and value are those of
    ``solve_bp(m, cfg)``, and every stage's gauge is ``softened`` when ``m``
    was.  Every later stage that still has
    edges is solved warm: one restart started from the previous stage's
    gauge on the darts that survive the contraction, which keep their ids.  That start is deterministic, so the sequence
    stays reproducible, and the warm stage's ``stationary_values`` holds
    its one value.  After the contraction of a normal edge the start is
    already a BP gauge: :func:`bp_value` of a normal edge is ``h00 + h11``,
    the exact elimination's value, so the merged node's total is the two old
    totals' product over the edge's ``1 + x_p x_q``, every surviving dart
    keeps its tilted mean, and the previous stage's BP gauge is one of this
    stage.  So such
    a stage checks its start first: a start whose residual pass reads
    within ``cfg.tolerance`` is the stage's gauge, with 0 sweeps and the
    value of that pass, and any other is swept.  After a self-edge
    contraction the start is swept without the check, since the edge's
    removal moves its node's stationary point and the check would fail.
    The warm restart is the corrector step of a continuation: it starts
    next to its fixed point, so it takes full steps (``damping=0``) and gets
    no more sweeps than stage 0's chosen restart took, nor than
    ``cfg.max_sweeps``; ``cfg.damping`` applies to the damped phase of stage
    0 and of the fallbacks only.  A stage falls back to :func:`solve_bp`,
    the random restarts of ``cfg``, when the warm restart does not converge
    within those sweeps or its value lies below the previous stage's by more than
    :func:`sequence_decreases`' default slack; on bi-stable families such a
    drop points to the wrong stationary point.
    The final stage has no edges left, so its value is the exact partition
    function.  Decreases along the sequence are reported by
    :func:`sequence_decreases`, not raised.

    Later stage models are exact contractions of the (softened) model,
    still strictly positive, since contraction only adds and multiplies; so
    the final stage's value is that model's exact ``Z``: ``Z`` of ``m``
    itself when ``m`` is soft.
    """
    m.graph.check_order(order)
    stages = []
    current = soft_model(m)
    softened = current is not m
    for i in range(len(order) + 1):
        warm = False
        if stages and current.graph.edges:
            prev = stages[-1].gauge
            g = _warm_solve(current, prev.x, warm_cfg, normal)
            warm = g.converged and g.value >= prev.value * (1.0 - _SLACK)
        if not warm:
            g = solve_bp(current, cfg)
        if not i and current.graph.edges:
            warm_cfg = replace(cfg, damping=0.0,
                               max_sweeps=min(cfg.max_sweeps, g.sweeps))
        stages.append(
            ContractionStage(
                index=i,
                eliminated=order[i - 1] if i else None,
                n_edges=len(current.graph.edges),
                z_vbp=g.value,
                converged=g.converged,
                gauge=replace(g, softened=softened),
                model=current,
                warm=warm,
            )
        )
        if i < len(order):
            normal = not current.graph.is_self_edge(order[i])
            current = contract_model(current, order[i])
    return stages


def sequence_decreases(
    stages: Sequence[ContractionStage], rel_slack: float = _SLACK
) -> list[tuple[int, float, float]]:
    """Adjacent decreases beyond the slack: ``(index, z_before, z_after)``."""
    out = []
    for s0, s1 in zip(stages, stages[1:]):
        if s1.z_vbp < s0.z_vbp * (1.0 - rel_slack):
            out.append((s0.index, s0.z_vbp, s1.z_vbp))
    return out
