"""BP gauges: stationary points of the gauge function and everything on top.

The solver runs damped Gauss-Seidel sweeps over edges.  For one edge, with
all other gauge values frozen, the numerator polynomial is a quadratic in
the edge's orientation pair and the stationary pair has a closed form; the
sweep applies it edge by edge until the gradient of ``log z`` vanishes.
Stationary points are saddles in each orientation pair, and the largest
converged value across random restarts is the variational estimate of the
partition function (exact on trees, a lower bound on bi-stable families).

All restarts run in lockstep as the rows of one ``(restarts, darts)`` gauge
array, each stopping at its own convergence sweep.  Each node's table is
transposed once per solve so that its slots run in the order the sweep
touches them, the first-touched slot on the top bit.  A sweep then walks
one chain per node, DMRG style: the chain is the table with the slots
already updated summed out under their new weights, so an edge's
coefficients are the chain's top bits reduced against the node's weight
vector (:func:`gauge.monomials`) on the low bits, the slots not reached
yet.  That vector is built once per sweep, by the residual pass at the end
of the previous one, so a sweep costs about two table passes per node plus
the residual pass, whatever the node's degree.  Memory is
``O(rows * 2**k)`` for a ``k``-slot node; the restarts are split into
batches that keep it bounded on large tables.  The single-gauge entry
points (:func:`residual_norm`, :func:`bp_residual`, :func:`saddle_check`,
...) are the same code on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import gauge as gauge_mod
from .gauge import (
    GaugeVector,
    check_gauge,
    edge_belief,
    gauge_function,
    monomials,
    node_weights,
    slot_sums,
)
from .model import FactorTable, ModelError, MultiGM, contract_model, soften
from .multigraph import DirectedEdge, EdgeId, GraphError, NodeId
from .poly import FactoredGaugePoly, QuadCoeffs, exact_contract_poly


class DegenerateEdgeError(ModelError):
    """Closed-form edge update hit a zero linear coefficient.

    Happens only for hard (zero-containing) factors; soften the model
    (``soften(m, 1e-12)`` or the solver's ``soften_eps``) to proceed.
    """


class NonConvergenceError(ModelError):
    """An operation required a converged BP gauge but none was supplied."""


class PolySelfEdgeError(ModelError):
    """BP normal-edge contraction was asked to eliminate a self-edge."""


class ConfigError(ValueError):
    """A :class:`SolverConfig` field is out of range."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve_bp`.

    ``damping`` is the weight kept on the old value at each edge update
    (0 means full steps).  Initial gauges are drawn log-uniformly from
    ``init_range`` per restart.
    """

    damping: float = 0.5
    tolerance: float = 1e-10
    max_sweeps: int = 10_000
    restarts: int = 16
    seed: int = 0
    soften_eps: float = 1e-12
    init_range: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self) -> None:
        lo, hi = self.init_range
        for ok, name, rule in (
            (0.0 <= self.damping < 1.0, "damping", "lie in [0, 1)"),
            (0.0 < self.tolerance < math.inf, "tolerance", "be positive and finite"),
            (self.max_sweeps >= 1, "max_sweeps", "be at least 1"),
            (self.restarts >= 1, "restarts", "be at least 1"),
            (0.0 < self.soften_eps < math.inf, "soften_eps", "be positive and finite"),
            (0.0 < lo <= hi < math.inf, "init_range", "be finite with 0 < lo <= hi"),
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
    clamped: int = 0  # sweeps that ended with a gauge value on a _CLAMP bound


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

# Entries of one node-sized array across a batch of restarts: the solver
# runs at most ``_BATCH_ENTRIES >> k`` restarts together when the largest
# node has ``k`` slots.  A sweep holds at most about three such arrays per
# node (weight vectors for the old and new gauge, the chain, the weighted
# table of the residual pass), which bounds its memory on large tables.
_BATCH_ENTRIES = 1 << 18

# wide clamp on every update: keeps extreme near-hard iterates representable
_CLAMP = (1e-18, 1e18)


@dataclass(frozen=True)
class _Layout:
    """Where each directed edge lives in a ``(rows, darts)`` gauge array, and
    each node's table with its slots in the order a sweep touches them."""

    col: dict[DirectedEdge, int]
    sibling: np.ndarray  # column of each column's sibling
    tables: dict[NodeId, np.ndarray]  # first-touched slot on the top bit
    slots: dict[NodeId, np.ndarray]  # column of each bit of those tables

    @classmethod
    def of(
        cls, m: MultiGM, darts: Sequence[DirectedEdge], edges: Sequence[EdgeId]
    ) -> "_Layout":
        """Layout for a sweep over ``edges`` in order.

        A self-edge's two slots are adjacent, its positive one above.
        """
        col = {d: j for j, d in enumerate(darts)}
        rank = {e: i for i, e in enumerate(edges)}
        tables, slots = {}, {}
        for a in m.graph.nodes:
            f = m.factors[a]
            v = f.variables
            touched = sorted(
                range(len(v)), key=lambda i: (rank[v[i].edge], not v[i].positive)
            )
            bits = touched[::-1]  # bit j of the new table is slot bits[j]
            tables[a] = f.as_array().transpose(bits).reshape(-1, order="F")
            slots[a] = np.array([col[v[i]] for i in bits], dtype=np.intp)
        sibling = np.array([col[d.sibling] for d in darts], dtype=np.intp)
        return cls(col=col, sibling=sibling, tables=tables, slots=slots)

    @classmethod
    def for_gauge(
        cls, m: MultiGM, x: GaugeVector, first: EdgeId | None = None
    ) -> tuple["_Layout", np.ndarray]:
        """Layout in incidence order and the one-row array holding ``x``.

        The sweep starts at edge ``first``, if given, so that its slots are
        the top bits of its endpoints' tables.
        """
        edges = sorted(m.graph.edges, key=lambda e: e != first)
        lay = cls.of(m, m.graph.directed_edges(), edges)
        return lay, np.array([[float(x[d]) for d in lay.col]])

    def weight_vectors(self, x: np.ndarray) -> dict[NodeId, np.ndarray]:
        """Each node's weight vector ``prod_j (1, x_j)`` over its table's bits."""
        return {a: monomials(x[:, cols]) for a, cols in self.slots.items()}


# -- residuals ------------------------------------------------------------


def _residual_parts(
    lay: _Layout, x: np.ndarray, mono: Mapping[NodeId, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ``log z`` and normalized single-colored residual per slot.

    ``mono`` holds :meth:`_Layout.weight_vectors` of ``x``.  One pass per
    node covers every slot of every row: with the slot's own weight
    included, the bit-1 sum over the node sum is the slot's tilted mean
    ``x_d * dh/dx_d / h``.
    """
    sib = x[:, lay.sibling]
    prod = x * sib
    beta = prod / (1.0 + prod)
    mean = np.empty_like(x)
    for a, cols in lay.slots.items():
        s = slot_sums(mono[a] * lay.tables[a])
        mean[:, cols] = s[:, :, 1] / s.sum(axis=2)
    grad = mean / x - sib / (1.0 + prod)
    ok = (beta > 0) & np.isfinite(beta)
    coloring = np.full_like(x, math.inf)
    coloring[ok] = np.abs(mean[ok] - beta[ok]) / beta[ok]
    return grad, coloring


def _residual_rows(
    lay: _Layout, x: np.ndarray, mono: Mapping[NodeId, np.ndarray]
) -> np.ndarray:
    """Per row: max of the gradient norm and the normalized coloring residual."""
    if x.shape[1] == 0:
        return np.zeros(len(x))
    grad, coloring = _residual_parts(lay, x, mono)
    res = np.maximum(np.abs(grad).max(axis=1), coloring.max(axis=1))
    return np.where(np.isnan(res), math.inf, res)


def bp_residual(m: MultiGM, x: GaugeVector) -> dict[DirectedEdge, float]:
    """Stationarity residual: the gradient of ``log z(x)``, one entry per slot.

    Vanishes exactly at BP gauges.  Requires a soft model so every node
    polynomial is positive.
    """
    if not m.is_soft:
        raise ModelError("residuals need a soft model; soften it first")
    check_gauge(m, x)
    lay, row = _Layout.for_gauge(m, x)
    grad, _ = _residual_parts(lay, row, lay.weight_vectors(row))
    return {d: float(grad[0, j]) for d, j in lay.col.items()}


def residual_norm(m: MultiGM, x: GaugeVector) -> float:
    """Max of the gradient norm and the normalized coloring residual."""
    lay, row = _Layout.for_gauge(m, x)
    return float(_residual_rows(lay, row, lay.weight_vectors(row))[0])


# -- closed-form edge update ----------------------------------------------


def _pair_update(
    h00: np.ndarray, h10: np.ndarray, h01: np.ndarray, h11: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Physical stationary pairs of ``h/(1+x_p x_q)``, one per row."""
    if (h10 <= 0).any() or (h01 <= 0).any():
        raise DegenerateEdgeError(
            "linear coefficient vanished (h10 or h01 = 0); soften the model"
        )
    diff = h11 - h00
    cross = 4.0 * h01 * h10
    root = np.sqrt(diff * diff + cross)
    num = diff + root
    neg = diff < 0
    if neg.any():
        # conjugate form: avoids cancellation when the cross product is
        # tiny relative to (h11 - h00)**2
        num[neg] = cross[neg] / (root[neg] - diff[neg])
    return num / (2.0 * h10), num / (2.0 * h01)


def edge_pair_update(c: QuadCoeffs) -> tuple[float, float]:
    """Physical stationary pair of ``h/(1+x_p x_q)`` for one edge's quadratic."""
    x_p, x_q = _pair_update(*(np.array([v], dtype=float) for v in c.as_tuple()))
    return float(x_p[0]), float(x_q[0])


def bp_value(c: QuadCoeffs) -> float:
    """Value of ``h/(1+x_p x_q)`` at the physical pair.

    Equals ``h00 + h11`` when the quadratic factorizes (normal edge).
    """
    if c.h10 <= 0 or c.h01 <= 0:
        raise DegenerateEdgeError(
            "linear coefficient vanished (h10 or h01 = 0); soften the model"
        )
    root = math.sqrt((c.h11 - c.h00) ** 2 + 4.0 * c.h01 * c.h10)
    return 0.5 * (c.h11 + c.h00 + root)


def _chain_sums(t: np.ndarray, mono: np.ndarray, g: int) -> np.ndarray:
    """``(R, 2**g)``: chain ``t`` per pattern of its top ``g`` bits.

    Its low bits, the slots not updated yet this sweep, are reduced against
    the matching prefix of the node's weight vector ``mono``.
    """
    low = t.shape[-1] >> g
    return np.matmul(t.reshape(-1, 1 << g, low), mono[:, :low, None])[:, :, 0]


def _fold(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chain ``t`` with its top bit summed away under weights ``(1, w)`` per row."""
    top = t.reshape(-1, 2, t.shape[-1] // 2)
    return top[:, 0] + w[:, None] * top[:, 1]


def _edge_quad(
    chain: Mapping[NodeId, np.ndarray], mono: Mapping[NodeId, np.ndarray],
    tail: NodeId, head: NodeId,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(h00, h10, h01, h11)`` of the edge's local quadratic.

    The edge's slots are the top bits of its endpoints' chains.  Other
    nodes' factors are omitted: a positive constant for soft models, it
    leaves the stationary pair be.
    """
    if tail == head:
        c = _chain_sums(chain[tail], mono[tail], 2)  # bits (+, -), + on top
        return c[:, 0], c[:, 2], c[:, 1], c[:, 3]
    (a0, a1), (b0, b1) = (_chain_sums(chain[a], mono[a], 1).T for a in (tail, head))
    return a0 * b0, a1 * b0, a0 * b1, a1 * b1


# -- solver ----------------------------------------------------------------


def _lockstep(
    m: MultiGM, lay: _Layout, edges: Sequence[EdgeId], x: np.ndarray,
    cfg: SolverConfig,
) -> list[tuple[np.ndarray, float, int, bool, int]]:
    """Sweep a batch of restarts together, each until its own convergence.

    ``lay`` is laid out for a sweep over ``edges``.  Row ``r`` of ``x`` is
    restart ``r``'s initial gauge.  Returns per row the final gauge,
    residual, sweep count, convergence flag and the number of sweeps that
    ended with a value on a ``_CLAMP`` bound.  A row leaves the batch after
    the sweep that brings its residual within the tolerance, so its
    iterates are exactly those of a solve on its own.
    """
    x = x.copy()
    n = len(x)
    final, res = np.empty_like(x), np.empty(n)
    sweeps, clamped = np.empty(n, dtype=int), np.empty(n, dtype=int)
    active, hits = np.arange(n), np.zeros(n, dtype=int)
    keep_old, take_new = cfg.damping, 1.0 - cfg.damping
    lo, hi = _CLAMP
    ends = [m.graph.endpoints[e] for e in edges]
    cols = [(lay.col[DirectedEdge(e, True)], lay.col[DirectedEdge(e, False)])
            for e in edges]
    mono = lay.weight_vectors(x)
    for sweep in range(1, cfg.max_sweeps + 1):
        chain = dict(lay.tables)
        for (tail, head), (c_p, c_q) in zip(ends, cols):
            xp, xq = _pair_update(*_edge_quad(chain, mono, tail, head))
            for c, target in ((c_p, xp), (c_q, xq)):
                step = keep_old * x[:, c] + take_new * target
                x[:, c] = np.minimum(np.maximum(step, lo), hi)
            # a self-edge folds its positive slot, then the one below it
            chain[tail] = _fold(chain[tail], x[:, c_p])
            chain[head] = _fold(chain[head], x[:, c_q])
        hits += ((x <= lo) | (x >= hi)).any(axis=1)
        mono = lay.weight_vectors(x)
        r = _residual_rows(lay, x, mono)
        stop = (r <= cfg.tolerance) | (sweep == cfg.max_sweeps)
        if stop.any():
            rows, keep = active[stop], ~stop
            final[rows], res[rows], sweeps[rows] = x[stop], r[stop], sweep
            clamped[rows] = hits[stop]
            x, active, hits = x[keep], active[keep], hits[keep]
            if not len(active):
                break
            mono = {a: v[keep] for a, v in mono.items()}
    converged = res <= cfg.tolerance
    return [(final[i], float(res[i]), int(sweeps[i]), bool(converged[i]),
             int(clamped[i])) for i in range(n)]


def _restarts(m: MultiGM, cfg: SolverConfig) -> list[BPGauge]:
    """Every restart's own result, in restart order, on a soft model with edges."""
    darts = sorted(m.graph.directed_edges(), key=str)
    edges = sorted(m.graph.edges)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = np.log(cfg.init_range[0]), np.log(cfg.init_range[1])
    # one draw per restart and dart, restart-major: the same stream and
    # order as drawing each restart's gauge in turn
    x0 = np.exp(rng.uniform(lo, hi, size=(cfg.restarts, len(darts))))
    lay = _Layout.of(m, darts, edges)
    k = max(len(f.variables) for f in m.factors.values())
    batch = max(1, _BATCH_ENTRIES >> k)
    out = []
    for start in range(0, cfg.restarts, batch):
        for row, res, sweeps, converged, clamped in _lockstep(
            m, lay, edges, x0[start : start + batch], cfg
        ):
            x = dict(zip(darts, row.tolist()))
            out.append(BPGauge(
                x=x, residual=res, value=gauge_function(m, x), sweeps=sweeps,
                converged=converged, clamped=clamped,
            ))
    return out


def solve_bp(m: MultiGM, cfg: SolverConfig = SolverConfig()) -> BPGauge:
    """Find a maximal BP gauge by damped Gauss-Seidel with restarts.

    Auto-softens hard models with ``cfg.soften_eps``.  Each restart starts
    from a fresh log-uniform gauge; among converged restarts the gauge with
    the largest ``z(x)`` wins (ties keep the first).  A result with
    ``converged=False`` reports the best residual reached - callers decide
    whether that is fatal.
    """
    softened = not m.is_soft
    if softened:
        m = soften(m, cfg.soften_eps)

    if not m.graph.edges:
        value = 1.0
        for a in m.graph.nodes:
            value *= float(m.factors[a].table[0])
        return BPGauge(
            x={}, residual=0.0, value=value, sweeps=0, converged=True,
            softened=softened, stationary_values=(value,),
        )

    best: BPGauge | None = None
    fallback: BPGauge | None = None
    values: list[float] = []
    for attempt in _restarts(m, cfg):
        if attempt.converged:
            values.append(attempt.value)
            if best is None or attempt.value > best.value:
                best = attempt
        elif fallback is None or attempt.residual < fallback.residual:
            fallback = attempt

    distinct: list[float] = []
    for v in sorted(values, reverse=True):
        if not distinct or abs(distinct[-1] - v) > 1e-8 * max(abs(v), 1e-300):
            distinct.append(v)
    chosen = best if best is not None else fallback
    assert chosen is not None
    return BPGauge(
        x=chosen.x, residual=chosen.residual, value=chosen.value,
        sweeps=chosen.sweeps, converged=chosen.converged,
        softened=softened, stationary_values=tuple(distinct),
        clamped=chosen.clamped,
    )


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


def _xlogx(v: np.ndarray | float) -> np.ndarray | float:
    return np.where(np.asarray(v) > 0, np.asarray(v) * np.log(np.maximum(v, 1e-300)), 0.0)


def check_polytope(m: MultiGM, bel: Beliefs, tol: float = 1e-9) -> None:
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
    """Finite-difference curvature of ``h/(1+x_p x_q)`` in one edge pair."""

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


def saddle_check(
    m: MultiGM, x_bp: GaugeVector, edge: EdgeId, step: float = 1e-5
) -> SaddleReport:
    """Central-difference 2x2 Hessian of the edge-pair profile at a gauge.

    At an interior BP gauge the pure second derivatives vanish (the profile
    is Moebius in each variable separately, so stationarity in one variable
    makes it flat in it) and the cross term is the whole story: the profile
    is an indefinite product form with negative determinant.  The cross
    term itself is ``(h11 - value)/(1 + x_p x_q)``, strictly negative for
    soft models: the profile falls along the symmetric direction and rises
    along the antisymmetric one.

    The reported signs are noise-limited when the true cross term is
    smaller than the profile's float resolution, which happens for nearly
    factorized edges at very large gauge values (the curvature shrinks
    like ``h01 h10 / (h11 (1 + x_p x_q))``).
    """
    if edge not in m.graph.endpoints:
        raise GraphError(f"unknown edge {edge!r}")
    # the sweep's first chain step on one row, the edge's slots on top
    lay, row = _Layout.for_gauge(m, x_bp, first=edge)
    quad = _edge_quad(lay.tables, lay.weight_vectors(row), *m.graph.endpoints[edge])
    c = QuadCoeffs(*(float(v[0]) for v in quad))
    xp0 = x_bp[DirectedEdge(edge, True)]
    xq0 = x_bp[DirectedEdge(edge, False)]
    # steps scale with the coordinates: an absolute 1e-5 step drowns in
    # rounding once gauge values reach ~1e2
    hp = step * max(1.0, abs(xp0))
    hq = step * max(1.0, abs(xq0))

    def profile(xp: float, xq: float) -> float:
        h = c.h00 + c.h10 * xp + c.h01 * xq + c.h11 * xp * xq
        return h / (1.0 + xp * xq)

    f00 = profile(xp0, xq0)
    dpp = (profile(xp0 + hp, xq0) - 2 * f00 + profile(xp0 - hp, xq0)) / hp**2
    dqq = (profile(xp0, xq0 + hq) - 2 * f00 + profile(xp0, xq0 - hq)) / hq**2
    dpq = (
        profile(xp0 + hp, xq0 + hq)
        - profile(xp0 + hp, xq0 - hq)
        - profile(xp0 - hp, xq0 + hq)
        + profile(xp0 - hp, xq0 - hq)
    ) / (4 * hp * hq)
    hess = np.array([[dpp, dpq], [dpq, dqq]])
    return SaddleReport(
        edge=edge,
        hessian=hess,
        determinant=float(np.linalg.det(hess)),
        mixed=float(dpq),
    )


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


def bp_contract_sequence(
    m: MultiGM, order: Sequence[EdgeId], cfg: SolverConfig = SolverConfig()
) -> list[ContractionStage]:
    """Re-solve BP after each exact contraction along ``order``.

    The model is softened once up front if needed; every stage solves from
    scratch for reproducibility.  The final stage has no edges left, so its
    value is the exact partition function.  Decreases along the sequence
    are reported by :func:`sequence_decreases`, not raised.

    Every stage model is re-clamped to the ``soften_eps`` relative floor:
    a no-op for generic soft tables, but it stops near-hard entries from
    compounding toward underflow across repeated table merges.  Each
    re-clamp moves the stage partition function by at most
    ``(1 + eps)**nodes`` relative, far inside the monotonicity slack.
    """
    if sorted(order) != sorted(m.graph.edges):
        raise GraphError("order must list every edge exactly once")
    stages = []
    current = m
    for i in range(len(order) + 1):
        current = soften(current, cfg.soften_eps)
        g = solve_bp(current, cfg)
        stages.append(
            ContractionStage(
                index=i,
                eliminated=order[i - 1] if i else None,
                n_edges=len(current.graph.edges),
                z_vbp=g.value,
                converged=g.converged,
                gauge=g,
                model=current,
            )
        )
        if i < len(order):
            current = contract_model(current, order[i])
    return stages


def sequence_decreases(
    stages: Sequence[ContractionStage], rel_slack: float = 1e-9
) -> list[tuple[int, float, float]]:
    """Adjacent decreases beyond the slack: ``(index, z_before, z_after)``."""
    out = []
    for s0, s1 in zip(stages, stages[1:]):
        if s1.z_vbp < s0.z_vbp * (1.0 - rel_slack):
            out.append((s0.index, s0.z_vbp, s1.z_vbp))
    return out


def bp_normal_contract(h: FactoredGaugePoly, edge: EdgeId) -> FactoredGaugePoly:
    """BP elimination of a normal edge; identical to the exact operator.

    Exposed separately because for self-edges the BP reduction is a
    fractional, not polynomial, function and no such operator exists.
    """
    d_p, d_q = DirectedEdge(edge, True), DirectedEdge(edge, False)
    if h.factor_of(d_p) == h.factor_of(d_q):
        raise PolySelfEdgeError(
            f"edge {edge!r} is a self-edge: BP contraction of a self-edge "
            "is not polynomial"
        )
    return exact_contract_poly(h, edge)


# -- independent direct Bethe minimizer --------------------------------------


def _bit_matrix(k: int) -> np.ndarray:
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _node_inner_min(
    f: FactorTable,
    beta: np.ndarray,
    theta0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 80,
) -> tuple[float, np.ndarray]:
    """Minimize ``log h_a(x_a) - sum_d beta_d log x_d`` over positive ``x_a``.

    Convex in ``theta = log x``; Newton steps, since the gradient is the
    node's bit-marginal vector minus ``beta`` and the Hessian its bit
    covariance under the tilted distribution.
    """
    k = len(f.variables)
    if k == 0:
        return math.log(float(f.table[0])), np.zeros(0)
    bits = _bit_matrix(k)
    log_table = np.log(f.table)

    def split(theta):
        logw = log_table + bits @ theta
        top = logw.max()
        w = np.exp(logw - top)
        total = w.sum()
        value = top + math.log(total) - float(beta @ theta)
        return value, w / total

    theta = theta0.copy() if theta0 is not None else np.zeros(k)
    value, p = split(theta)
    eye = np.eye(k)
    lam = 1e-9
    for _ in range(max_iter):
        mu = bits.T @ p
        grad = mu - beta
        if np.abs(grad).max() <= tol:
            break
        cov = bits.T @ (p[:, None] * bits) - np.outer(mu, mu)
        # adaptively damped Newton: large damping degrades to small
        # gradient steps, which always descend on this convex objective
        accepted = False
        while lam < 1e18:
            step = np.linalg.solve(cov + lam * eye, grad)
            cand_value, cand_p = split(theta - step)
            if cand_value < value:
                theta, value, p = theta - step, cand_value, cand_p
                lam = max(lam * 0.25, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
    return value, theta


def minimize_bethe_direct(
    m: MultiGM,
    delta: float = 1e-6,
    grid: int = 13,
    sweeps: int = 12,
    restarts: int = 2,
    seed: int = 0,
) -> float:
    """Variational estimate by direct coordinate ascent on edge marginals.

    Cross-validation oracle for :func:`solve_bp`: maximizes the max-min
    Lagrangian over ``beta in [delta, 1-delta]`` per edge, with the inner
    gauge minimization solved per node (it separates across nodes).
    Intended for small models; per coordinate, a grid scan brackets the
    optimum and golden-section refines it.
    """
    if not m.is_soft:
        m = soften(m, 1e-12)
    edges = sorted(m.graph.edges)
    nodes = list(m.graph.nodes)
    rng = np.random.default_rng(seed)
    # per node: (beta key, inner value, inner argmin) for reuse when a
    # coordinate move leaves the node's marginals untouched
    cache: dict[NodeId, tuple[tuple[float, ...], float, np.ndarray]] = {}

    def objective(beta: dict[EdgeId, float]) -> float:
        total = 0.0
        for e in edges:
            total += float(_xlogx(beta[e]) + _xlogx(1.0 - beta[e]))
        for a in nodes:
            f = m.factors[a]
            key = tuple(beta[d.edge] for d in f.variables)
            hit = cache.get(a)
            if hit is not None and hit[0] == key:
                total += hit[1]
                continue
            theta0 = hit[2] if hit is not None else None
            value, theta = _node_inner_min(f, np.array(key), theta0)
            cache[a] = (key, value, theta)
            total += value
        return total

    def line_max(beta: dict[EdgeId, float], e: EdgeId) -> float:
        points = np.linspace(delta, 1.0 - delta, grid)
        scores = []
        for p in points:
            beta[e] = float(p)
            scores.append(objective(beta))
        k = int(np.argmax(scores))
        a = float(points[max(0, k - 1)])
        b = float(points[min(grid - 1, k + 1)])
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - phi * (b - a), a + phi * (b - a)
        beta[e] = c
        fc = objective(beta)
        beta[e] = d
        fd = objective(beta)
        for _ in range(32):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                beta[e] = c
                fc = objective(beta)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                beta[e] = d
                fd = objective(beta)
        beta[e] = float((a + b) / 2)
        return objective(beta)

    best = -math.inf
    for r in range(max(1, restarts)):
        if r == 0:
            beta = {e: 0.5 for e in edges}
        else:
            beta = {e: float(rng.uniform(0.2, 0.8)) for e in edges}
        cache.clear()
        current = objective(beta)
        for _ in range(sweeps):
            previous = current
            for e in edges:
                current = line_max(beta, e)
            if abs(current - previous) < 1e-9:
                break
        best = max(best, current)
    return math.exp(best)
