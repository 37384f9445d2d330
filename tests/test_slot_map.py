"""``gauge.slot_map`` and its two users against the code they replaced.

The references below are ``transform_factors`` and the loop term as they
were before both moved onto ``slot_map``: one ``tensordot`` per slot over
the table reshaped to one axis per slot.  They share no code with
``slot_map``.  Summation order differs, so values agree to a tolerance,
not bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugepf import (
    FactorTable,
    MultiGM,
    enumerate_generalized_loops,
    gauge_function,
    loop_series_sum,
    loop_term,
    partition_exact,
    transform_factors,
)
from gaugepf.bp import SolverConfig, solve_bp
from gaugepf.families import random_soft_model
from gaugepf.gauge import edge_belief, gauge_matrix, h_node, slot_map
from gaugepf.loops import _at_bp_gauge, _term


# -- references: tensordot per slot ----------------------------------------


def _transform_reference(m, x):
    factors = {}
    for a in m.graph.nodes:
        f = m.factors[a]
        arr = f.as_array()
        for i, d in enumerate(f.variables):
            g = gauge_matrix(x[d], x[d.sibling])
            arr = np.moveaxis(np.tensordot(g, arr, axes=([1], [i])), 0, i)
        factors[a] = FactorTable.from_values(
            a, f.variables, arr.reshape(-1, order="F"), allow_negative=True
        )
    return MultiGM(graph=m.graph, factors=factors)


def _term_reference(m, x_bp, z_bp, config):
    bit = {e: int(config[j]) for j, e in enumerate(m.graph.edges)}
    term = z_bp
    for e, b in bit.items():
        if b:
            beta = edge_belief(x_bp, e)
            term /= beta * (1.0 - beta)
    for a in m.graph.nodes:
        f = m.factors[a]
        colored = [bit[d.edge] for d in f.variables]
        if not any(colored):
            continue
        arr = f.as_array()
        for i in reversed(range(len(f.variables))):
            d = f.variables[i]
            if colored[i]:
                beta = edge_belief(x_bp, d.edge)
                w = np.array([-beta, x_bp[d] * (1.0 - beta)])
            else:
                w = np.array([1.0, x_bp[d]])
            arr = np.tensordot(arr, w, axes=([i], [0]))
        term *= float(arr) / h_node(m, a, x_bp)
    return term


def _random_gauge(m, rng, lo=0.25, hi=4.0):
    return {
        d: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for d in sorted(m.graph.directed_edges(), key=str)
    }


# -- the primitive ----------------------------------------------------------


def _matrix(rng, kind):
    g = rng.normal(size=(2, 2))
    if kind == "rank_one":
        g[1] = rng.normal() * g[0]
    elif kind == "zero_row":
        g[int(rng.integers(2))] = 0.0
    elif kind == "zero":
        g[:] = 0.0
    return g


@given(
    k=st.integers(0, 10),
    kinds=st.lists(st.sampled_from(["general", "rank_one", "zero_row", "zero"]),
                   min_size=10, max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_slot_map_matches_brute_force(k, kinds, seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=1 << k)
    mats = [_matrix(rng, kind) for kind in kinds[:k]]
    # K[t, s] = prod_j mats[j][t_j, s_j], over every pair of configurations
    idx = np.arange(1 << k)
    kernel = np.ones((1 << k, 1 << k))
    for j, g in enumerate(mats):
        bits = (idx >> j) & 1
        kernel *= g[bits[:, None], bits[None, :]]
    expected = kernel @ table
    scale = np.abs(kernel) @ np.abs(table)
    got = slot_map(table, mats)
    assert got.shape == table.shape
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


# -- gauge transformation ---------------------------------------------------


def test_transformed_tables_match_reference():
    """C01's draw: 100 models with self- and parallel edges, 10 gauges each."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = random_soft_model(rng, int(rng.integers(1, 9)))
        for _ in range(10):
            x = _random_gauge(m, rng)
            got = transform_factors(m, x)
            ref = _transform_reference(m, x)
            for a in m.graph.nodes:
                assert got.factors[a].variables == ref.factors[a].variables
                g, r = got.factors[a].table, ref.factors[a].table
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())


# -- loop terms -------------------------------------------------------------


def test_loop_terms_match_reference():
    """C09's draw: every generalized loop of 100 models at a BP gauge."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for i in range(100):
        n_edges = int(rng.integers(2, 11))
        m = random_soft_model(
            rng, n_edges, n_nodes=max(2, (2 * n_edges) // 3), p_self=0.2
        )
        g = solve_bp(m, SolverConfig(restarts=2, seed=int(rng.integers(1 << 31))))
        assert g.converged
        z = partition_exact(m)
        tables, z_bp, beta = _at_bp_gauge(m, g.x)
        assert z_bp == gauge_function(m, g.x)
        configs = enumerate_generalized_loops(m.graph)
        total = 0.0
        for config in configs:
            term = _term(m, tables, z_bp, beta, config)
            assert type(term) is float
            total += term
            worst = max(worst, abs(term - _term_reference(m, g.x, z_bp, config)) / z)
        assert loop_series_sum(m, g.x) == total
        if i % 10 == 0:
            for config in configs:
                assert loop_term(m, g.x, config) == _term(m, tables, z_bp, beta, config)
    assert worst <= 1e-12, f"worst term difference {worst:.2e} * Z"

