"""The lockstep solver against a restart-by-restart reference.

The reference below is the solver as it was before restarts were batched:
one restart after another, each node-table reduction a chain of
``tensordot`` calls and each edge update scalar arithmetic.  It replays the
solver's schedule per restart: full steps first, then the damped solve
from the same draw when those do not converge.  It shares no
numerical code with ``gaugepf.bp``.  Reductions now sum in another order,
so values agree to a relative 1e-9, not bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

import gaugepf.bp as bp_mod
from gaugepf import soft_model
from gaugepf.bp import SolverConfig, _restarts, solve_bp
from gaugepf.families import matching_model, random_soft_model, random_tree_model
from gaugepf.multigraph import DirectedEdge

REL = 1e-9


# -- reference: one restart at a time, tensordot reductions -------------------


def _reduce(f, x, keep=()):
    """Contract the table with ``(1, x_d)`` on every slot not in ``keep``."""
    arr = f.as_array()
    for i in reversed(range(len(f.variables))):
        if f.variables[i] not in keep:
            w = np.array([1.0, x[f.variables[i]]])
            arr = np.tensordot(arr, w, axes=([i], [0]))
    return arr


def _gauge_function(m, x):
    num = math.prod(float(_reduce(m.factors[a], x)) for a in m.graph.nodes)
    den = math.prod(
        1.0 + x[DirectedEdge(e, True)] * x[DirectedEdge(e, False)] for e in m.graph.edges
    )
    return num / den


def _residual_norm(m, x):
    worst = 0.0
    for a in m.graph.nodes:
        f = m.factors[a]
        for d in f.variables:
            v = _reduce(f, x, keep=(d,))
            h = v[0] + x[d] * v[1]
            prod = x[d] * x[d.sibling]
            beta = prod / (1.0 + prod)
            grad = v[1] / h - x[d.sibling] / (1.0 + prod)
            coloring = abs(x[d] * v[1] / h - beta) / beta
            worst = max(worst, abs(grad), coloring)
    return worst


def _edge_quad(m, x, edge):
    tail, head = m.graph.endpoints[edge]
    d_p, d_q = DirectedEdge(edge, True), DirectedEdge(edge, False)
    if tail == head:
        f = m.factors[tail]
        arr = _reduce(f, x, keep=(d_p, d_q))
        if f.variables.index(d_p) > f.variables.index(d_q):
            arr = arr.T
        return arr[0, 0], arr[1, 0], arr[0, 1], arr[1, 1]
    a0, a1 = _reduce(m.factors[tail], x, keep=(d_p,))
    b0, b1 = _reduce(m.factors[head], x, keep=(d_q,))
    return a0 * b0, a1 * b0, a0 * b1, a1 * b1


def _pair_update(h00, h10, h01, h11):
    assert h10 > 0 and h01 > 0
    diff = h11 - h00
    root = math.sqrt(diff * diff + 4.0 * h01 * h10)
    num = diff + root if diff >= 0 else 4.0 * h01 * h10 / (root - diff)
    return num / (2.0 * h10), num / (2.0 * h01)


def _reference_run(m, edges, x, cfg):
    """One restart from gauge ``x``, updated in place:
    (x, residual, value, sweeps, converged)."""
    converged, res = False, math.inf
    for sweeps in range(1, cfg.max_sweeps + 1):
        for e in edges:
            xp, xq = _pair_update(*_edge_quad(m, x, e))
            d_p, d_q = DirectedEdge(e, True), DirectedEdge(e, False)
            for d, target in ((d_p, xp), (d_q, xq)):
                step = cfg.damping * x[d] + (1.0 - cfg.damping) * target
                x[d] = min(max(step, 1e-18), 1e18)
        res = _residual_norm(m, x)
        if res <= cfg.tolerance:
            converged = True
            break
    return x, res, _gauge_function(m, x), sweeps, converged


def reference_restarts(m, cfg):
    """Per restart, in order: (x, residual, value, sweeps, converged, fell_back).

    With ``cfg.damping > 0`` a restart first takes full steps, at most
    ``_UNDAMPED_SWEEPS`` of them, to ``_UNDAMPED_TIGHTEN`` times the
    tolerance; if that does not converge it runs again from its draw with
    ``cfg``, and its sweeps count both runs.
    """
    darts = sorted(m.graph.directed_edges(), key=str)
    edges = sorted(m.graph.edges)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = np.log(bp_mod._INIT_RANGE[0]), np.log(bp_mod._INIT_RANGE[1])
    first = cfg
    if cfg.damping:
        first = dataclasses.replace(
            cfg, damping=0.0, max_sweeps=min(cfg.max_sweeps, bp_mod._UNDAMPED_SWEEPS),
            tolerance=cfg.tolerance * bp_mod._UNDAMPED_TIGHTEN,
        )
    out = []
    for _ in range(cfg.restarts):
        x0 = {d: float(np.exp(rng.uniform(lo, hi))) for d in darts}
        run = _reference_run(m, edges, dict(x0), first)
        if run[4] or first is cfg:
            out.append((*run, False))
            continue
        x, res, value, sweeps, converged = _reference_run(m, edges, x0, cfg)
        out.append((x, res, value, run[3] + sweeps, converged, True))
    return out


def reference_choice(runs):
    """Index of the restart the solver reports: best converged, else lowest residual."""
    converged = [i for i, r in enumerate(runs) if r[4]]
    if converged:
        return max(converged, key=lambda i: (runs[i][2], -i))
    return min(range(len(runs)), key=lambda i: (runs[i][1], i))


# -- models -------------------------------------------------------------------


def _loopy(seed, n_edges, n_nodes):
    """Soft model with at least one self-edge and one parallel pair."""
    rng = np.random.default_rng(seed)
    while True:
        m = random_soft_model(rng, n_edges, n_nodes=n_nodes)
        ends = [m.graph.endpoints[e] for e in m.graph.edges]
        pairs = [tuple(sorted(p)) for p in ends if p[0] != p[1]]
        if len(pairs) < len(ends) and len(set(pairs)) < len(pairs):
            return m


MODELS = {
    "loopy_6": lambda: _loopy(1, 6, 3),
    "loopy_9": lambda: _loopy(2, 9, 5),
    "tree_7": lambda: random_tree_model(np.random.default_rng(3), 7),
    "hard_k33": lambda: matching_model(
        3, 3, weights=np.exp(np.random.default_rng(4).uniform(-0.7, 0.7, (3, 3)))
    ),
}


def _assert_same_runs(m, cfg):
    soft = soft_model(m)
    ref = reference_restarts(soft, cfg)
    new = _restarts(soft, cfg)
    assert [r[4] for r in ref] == [g.converged for g in new]
    assert [int(r[5]) for r in ref] == [g.fallbacks for g in new]
    for (x, res, value, sweeps, conv, _), g in zip(ref, new):
        assert g.value == pytest.approx(value, rel=REL)
        assert g.sweeps == sweeps
        if conv:
            assert g.residual <= cfg.tolerance
        else:
            assert g.residual == pytest.approx(res, rel=1e-6)
    return ref, new


@pytest.mark.parametrize("name", sorted(MODELS))
def test_restarts_match_reference(name):
    m = MODELS[name]()
    cfg = SolverConfig()
    ref, new = _assert_same_runs(m, cfg)
    g = solve_bp(m, cfg)
    assert g.softened == (not m.is_soft)
    assert g.converged
    i = reference_choice(ref)
    assert g.value == pytest.approx(ref[i][2], rel=REL)
    distinct = []
    for v in sorted((r[2] for r in ref if r[4]), reverse=True):
        if not distinct or abs(distinct[-1] - v) > 1e-8 * abs(v):
            distinct.append(v)
    assert g.stationary_values == pytest.approx(distinct, rel=REL)


def test_capped_run_falls_back_to_lowest_residual():
    m = MODELS["loopy_9"]()
    cfg = SolverConfig(max_sweeps=3)
    ref, new = _assert_same_runs(m, cfg)
    assert not any(r[4] for r in ref)
    g = solve_bp(m, cfg)
    i = reference_choice(ref)
    assert not g.converged
    # the undamped run and the damped one, each stopped at max_sweeps
    assert g.sweeps == 2 * cfg.max_sweeps
    assert g.fallbacks == cfg.restarts
    assert g.residual == min(a.residual for a in new)
    assert g.residual == pytest.approx(ref[i][1], rel=1e-6)
    assert g.value == pytest.approx(ref[i][2], rel=REL)
    assert g.stationary_values == ()


def test_batches_equal_one_batch(monkeypatch):
    m = MODELS["loopy_9"]()
    k = max(len(f.variables) for f in m.factors.values())
    cfg = SolverConfig(restarts=7)
    whole = _restarts(m, cfg)
    # three restarts per batch: batches of 3, 3 and 1
    monkeypatch.setattr(bp_mod, "_BATCH_ENTRIES", 3 << k)
    split = _restarts(m, cfg)
    assert [(g.x, g.residual, g.value, g.sweeps, g.converged) for g in split] == [
        (g.x, g.residual, g.value, g.sweeps, g.converged) for g in whole
    ]
