"""The first-edge residual bound that lets the solver skip its residual pass.

After a sweep, ``bp._unconverged`` reads the chain sums of the sweep's first
edge at the new weight vectors and writes, per restart, the residual on that
edge's two darts into the plan's ``bound`` buffer.  It must be the residual
pass's value on those darts, hence a lower bound on the row's residual,
whether the first edge is a normal edge or a self-edge.  Skipping the pass
when every row's bound is above the tolerance must change no result: the
solver with the bound switched off (the full pass after every sweep) is the
reference, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugepf.bp as bp_mod
from gaugepf import soft_model
from gaugepf.bp import SolverConfig, _restarts, solve_bp
from gaugepf.families import (
    attach_random_factors,
    random_soft_model,
    random_tree_model,
)
from gaugepf.multigraph import MultiGraph

from conftest import k44_stage
from test_batched_solver import MODELS as LOOPY_MODELS

REL = 1e-12


# -- the bound against the residual pass -----------------------------------------


@st.composite
def first_edge_models(draw, self_first):
    """A random soft multigraph model whose sorted first edge ``a`` is a
    self-edge or a normal edge; the other edges may be either, and parallel."""
    n_nodes = draw(st.integers(1 if self_first else 2, 4))
    nodes = [f"n{i}" for i in range(n_nodes)]
    node = st.sampled_from(nodes)
    others = draw(st.lists(st.tuples(node, node), max_size=5))
    tail = draw(node)
    head = tail if self_first else draw(node.filter(lambda a: a != tail))
    edges = [("a", tail, head)] + [(f"e{i}", t, h) for i, (t, h) in enumerate(others)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return attach_random_factors(MultiGraph.build(nodes, edges), rng)


@given(
    self_first=st.booleans(),
    data=st.data(),
    rows=st.integers(1, 4),
    sweeps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_bound_is_first_edge_residual(self_first, data, rows, sweeps, seed):
    m = data.draw(first_edge_models(self_first))
    lay = bp_mod._Layout.of(m, sorted(m.graph.edges))
    assert (lay.steps[0][0] == lay.steps[0][1]) == self_first
    shape = (len(lay.darts), rows)
    x = np.exp(np.random.default_rng(seed).uniform(np.log(0.25), np.log(4.0), shape))
    plan = bp_mod._Plan(lay, x)
    cfg = SolverConfig()
    for _ in range(sweeps):
        bp_mod._sweep(plan, cfg)
        plan.weigh()
    bp_mod._unconverged(plan, cfg.tolerance)
    bound = plan.bound.copy()

    r, *_ = bp_mod._residual_parts(lay, x, plan.mono, plan.weighted)
    assert np.all(bound <= r * (1.0 + REL))
    _, grad, coloring, _ = bp_mod._residual_parts(lay, x, plan.mono)
    first = np.maximum(np.abs(grad[:2]), coloring[:2]).max(axis=0)
    np.testing.assert_allclose(bound, first, rtol=1e-9)
    # the pass is never skipped when it would stop a row, nor when a row's
    # first-edge residual meets the tolerance (the margin is at least 1)
    assert not bp_mod._unconverged(plan, r.min())
    assert not bp_mod._unconverged(plan, first.min())


# -- skipping the pass changes no result ------------------------------------------


def _full_pass_every_sweep(monkeypatch):
    monkeypatch.setattr(bp_mod, "_unconverged", lambda plan, tol: False)


CASES = {
    **{name: (make, SolverConfig(restarts=6)) for name, make in LOOPY_MODELS.items()},
    "loopy_10": (lambda: random_soft_model(np.random.default_rng(5), 10, n_nodes=5),
                 SolverConfig(restarts=6, seed=3)),
    "tree_9": (lambda: random_tree_model(np.random.default_rng(9), 9), SolverConfig(restarts=6)),
    "k44_16_slots": (lambda: k44_stage(16), SolverConfig(restarts=8)),
    "capped": (LOOPY_MODELS["loopy_9"], SolverConfig(max_sweeps=3)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_skipping_matches_full_pass_bit_for_bit(name, monkeypatch):
    make, cfg = CASES[name]
    m = make()
    soft = soft_model(m)
    skipped = _restarts(soft, cfg), solve_bp(m, cfg)
    _full_pass_every_sweep(monkeypatch)
    full = _restarts(soft, cfg), solve_bp(m, cfg)
    assert skipped == full
    if name == "hard_k33":
        assert skipped[1].softened


def test_skipping_matches_full_pass_with_clamp_hits(monkeypatch):
    """As ``test_clamp_hits_counted``: a narrow clamp that most sweeps hit."""
    m = random_soft_model(np.random.default_rng(20240811), 5)
    cfg = SolverConfig(restarts=3, max_sweeps=20)
    monkeypatch.setattr(bp_mod, "_CLAMP", (0.9, 1.1))
    skipped = _restarts(m, cfg)
    assert any(g.clamped for g in skipped)
    _full_pass_every_sweep(monkeypatch)
    assert _restarts(m, cfg) == skipped


def test_residual_pass_runs_on_a_minority_of_sweeps(monkeypatch):
    """On the damped solve and on the undamped one: the first edge's bound
    reads its residual after damped and full steps alike."""
    m = LOOPY_MODELS["loopy_9"]()
    lay = bp_mod._Layout.of(m, sorted(m.graph.edges))
    shape = (len(lay.darts), 1)
    x0 = np.exp(np.random.default_rng(0).uniform(np.log(0.25), np.log(4.0), shape))
    counts = {"sweeps": 0, "passes": 0}
    real_sweep, real_pass = bp_mod._sweep, bp_mod._residual_parts

    def sweep(*args):
        counts["sweeps"] += 1
        return real_sweep(*args)

    def residual_pass(*args):
        counts["passes"] += 1
        return real_pass(*args)

    monkeypatch.setattr(bp_mod, "_sweep", sweep)
    monkeypatch.setattr(bp_mod, "_residual_parts", residual_pass)
    for damping, least in ((0.5, 30), (0.0, 10)):
        counts.update(sweeps=0, passes=0)
        cfg = SolverConfig(damping=damping)
        (g,) = bp_mod._lockstep(lay, x0, cfg)
        assert g.converged
        assert counts["sweeps"] == g.sweeps >= least
        assert counts["passes"] < counts["sweeps"] / 2
