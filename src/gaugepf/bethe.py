"""Direct minimization of the Bethe free energy, an oracle for the BP solver.

BP fixed points are the Bethe free energy's stationary points, so this
independent minimizer must reproduce ``bp.solve_bp``'s value.  It imports
nothing from ``bp``, ``gauge``, ``loops`` or ``poly``; a test checks that.
"""

from __future__ import annotations

import math

import numpy as np

from .model import FactorTable, MultiGM, soft_model
from .multigraph import EdgeId, NodeId

# edge marginals lie in [_DELTA, 1 - _DELTA]; per coordinate a _GRID-point
# scan, _SWEEPS sweeps and _RESTARTS restarts at most; the inner Newton
# solve's gradient tolerance and step cap
_DELTA, _GRID, _SWEEPS, _RESTARTS = 1e-6, 13, 12, 2
_INNER_TOL, _INNER_ITERS = 1e-12, 80


def _xlogx(v: np.ndarray | float) -> np.ndarray | float:
    return np.where(np.asarray(v) > 0, np.asarray(v) * np.log(np.maximum(v, 1e-300)), 0.0)


def _bit_matrix(k: int) -> np.ndarray:
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _node_inner_min(
    f: FactorTable, beta: np.ndarray, theta0: np.ndarray | None = None
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
    for _ in range(_INNER_ITERS):
        mu = bits.T @ p
        grad = mu - beta
        if np.abs(grad).max() <= _INNER_TOL:
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


def minimize_bethe_direct(m: MultiGM, seed: int = 0) -> float:
    """Variational estimate by direct coordinate ascent on edge marginals.

    Cross-validation oracle for :func:`bp.solve_bp`: maximizes the max-min
    Lagrangian over ``beta in [_DELTA, 1 - _DELTA]`` per edge, with the inner
    gauge minimization solved per node (it separates across nodes).
    Intended for small models; per coordinate, a grid scan brackets the
    optimum and golden-section refines it.  The first restart starts from
    ``beta = 1/2``, the others from draws seeded by ``seed``.
    """
    m = soft_model(m)
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
        points = np.linspace(_DELTA, 1.0 - _DELTA, _GRID)
        scores = []
        for p in points:
            beta[e] = float(p)
            scores.append(objective(beta))
        k = int(np.argmax(scores))
        a = float(points[max(0, k - 1)])
        b = float(points[min(_GRID - 1, k + 1)])
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
    for r in range(_RESTARTS):
        if r == 0:
            beta = {e: 0.5 for e in edges}
        else:
            beta = {e: float(rng.uniform(0.2, 0.8)) for e in edges}
        cache.clear()
        current = objective(beta)
        for _ in range(_SWEEPS):
            previous = current
            for e in edges:
                current = line_max(beta, e)
            if abs(current - previous) < 1e-9:
                break
        best = max(best, current)
    return math.exp(best)
