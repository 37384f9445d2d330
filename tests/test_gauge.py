import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugepf import (
    evaluate_weight,
    gauge_function,
    h_node,
    partition_exact,
    q_node,
    transform_factors,
    z_sigma,
)
from gaugepf.bp import SolverConfig, marginals_from_gauge, solve_bp
from gaugepf.families import random_soft_model, random_tree_model
from gaugepf.gauge import (
    MIN_GAUGE_VALUE,
    edge_belief,
    gauge_matrix,
    monomials,
    node_weights,
    slot_sums,
)
from gaugepf.multigraph import DirectedEdge as D

from conftest import make_model

# 1e-13 entrywise orthogonality holds within a 4-decade value range; the
# cancelling product terms grow like sqrt(x_p/x_q), so arbitrary ratios
# cannot meet it in float64.
positive = st.floats(min_value=1e-2, max_value=1e2)


def random_gauge(m, rng, lo=0.25, hi=4.0):
    return {
        d: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for d in sorted(m.graph.directed_edges(), key=str)
    }


class TestGaugeMatrix:
    def test_identity_limit(self):
        t = 1e-8
        np.testing.assert_allclose(gauge_matrix(t, t), np.eye(2), atol=2e-8)

    def test_unit_point(self):
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(gauge_matrix(1.0, 1.0), expected, rtol=1e-15)

    def test_orthogonality_spot(self):
        prod = gauge_matrix(2.0, 0.5).T @ gauge_matrix(0.5, 2.0)
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-14)

    @given(positive, positive)
    @settings(max_examples=300)
    def test_orthogonality_property(self, x_p, x_q):
        prod = gauge_matrix(x_p, x_q).T @ gauge_matrix(x_q, x_p)
        assert np.abs(prod - np.eye(2)).max() <= 1e-13

    def test_orthogonality_thousand_pairs(self, rng):
        worst = 0.0
        for _ in range(1000):
            x_p, x_q = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2))
            prod = gauge_matrix(x_p, x_q).T @ gauge_matrix(x_q, x_p)
            worst = max(worst, float(np.abs(prod - np.eye(2)).max()))
        assert worst <= 1e-13

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gauge_matrix(-1.0, 1.0)
        with pytest.raises(ValueError):
            gauge_matrix(MIN_GAUGE_VALUE / 10, 1.0)


class TestTransformFactors:
    def test_identity_limit_recovers_factors(self, rng):
        m = random_soft_model(rng, 4)
        t = 1e-8
        x = {d: t for d in m.graph.directed_edges()}
        mt = transform_factors(m, x)
        for a in m.graph.nodes:
            np.testing.assert_allclose(
                mt.factors[a].table, m.factors[a].table, atol=1e-6
            )

    def test_invariance_random(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 5)
            z = partition_exact(m)
            for _ in range(3):
                x = random_gauge(m, rng)
                zt = partition_exact(transform_factors(m, x))
                assert zt == pytest.approx(z, rel=1e-9)

    def test_two_node_unit_gauge(self, two_node_model):
        x = {D("e1", True): 1.0, D("e1", False): 1.0}
        mt = transform_factors(two_node_model, x)
        assert partition_exact(mt) == pytest.approx(11.0, rel=1e-12)


class TestHNode:
    def test_linear(self, two_node_model):
        assert h_node(two_node_model, "a", {D("e1", True): 3.0}) == pytest.approx(7.0)

    def test_self_edge_sum(self, self_edge_model):
        x = {D("e", True): 1.0, D("e", False): 1.0}
        assert h_node(self_edge_model, "s", x) == pytest.approx(15.0)

    def test_zero_limit(self, self_edge_model):
        x = {D("e", True): 1e-12, D("e", False): 1e-12}
        assert h_node(self_edge_model, "s", x) == pytest.approx(2.0, abs=1e-10)


class TestGaugeFunction:
    def test_zero_limit(self, rng):
        m = random_soft_model(rng, 4)
        x = {d: 1e-9 for d in m.graph.directed_edges()}
        constant = np.prod([float(f.table[0]) for f in m.factors.values()])
        assert gauge_function(m, x) == pytest.approx(constant, rel=1e-6)

    def test_two_node_value(self, two_node_model):
        x = {D("e1", True): 3.0, D("e1", False): 2.0}
        assert gauge_function(two_node_model, x) == pytest.approx(11.0, rel=1e-12)

    def test_equals_zero_term(self, rng):
        m = random_soft_model(rng, 5)
        x = random_gauge(m, rng)
        zero = (0,) * len(m.graph.edges)
        assert gauge_function(m, x) == pytest.approx(
            z_sigma(m, x, zero), rel=1e-12
        )

    def test_positive_for_soft_models(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 4)
            assert gauge_function(m, random_gauge(m, rng, 0.05, 20.0)) > 0


    def test_finite_past_product_overflow(self):
        """Summed as logs: on this tree the product of the ``h_a`` overflows at
        ``x = 1``, where ``z = exp(483.41...)``, and at the BP gauge."""
        m = random_tree_model(np.random.default_rng(0), 400)
        ones = {d: 1.0 for d in m.graph.directed_edges()}
        assert math.prod(h_node(m, a, ones) for a in m.graph.nodes) == math.inf
        assert math.log(gauge_function(m, ones)) == pytest.approx(483.41, abs=5e-3)
        g = solve_bp(m, SolverConfig(restarts=1))
        assert 1e200 < g.value < math.inf
        assert gauge_function(m, g.x) == pytest.approx(g.value, rel=1e-12)

class TestZSigma:
    def test_sum_recovers_partition(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 5)
            z = partition_exact(m)
            for _ in range(2):
                x = random_gauge(m, rng)
                total = sum(
                    z_sigma(m, x, bits)
                    for bits in itertools.product((0, 1), repeat=5)
                )
                assert total == pytest.approx(z, rel=1e-9)

    def test_term_matches_transformed_tables(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 4)
            x = random_gauge(m, rng)
            mt = transform_factors(m, x)
            for bits in itertools.product((0, 1), repeat=4):
                via_q = z_sigma(m, x, bits)
                direct = evaluate_weight(mt, bits)
                assert via_q == pytest.approx(
                    direct, rel=1e-10, abs=1e-10 * partition_exact(m)
                )


class TestQNode:
    def test_uncolored_is_h_node(self, rng):
        m = random_soft_model(rng, 4)
        x = random_gauge(m, rng)
        for a in m.graph.nodes:
            k = len(m.factors[a].variables)
            assert q_node(m, x, a, [0] * k) == pytest.approx(
                h_node(m, a, x), rel=1e-12
            )

    def test_hand_expanded_single_colored(self, two_node_model):
        # f_a = (1, 2), own value 3, sibling value chosen freely
        x, x_bar = 3.0, 0.7
        xs = {D("e1", True): x, D("e1", False): x_bar}
        beta = x * x_bar / (1 + x * x_bar)
        expected = (1 + x * x_bar) / (x * x_bar) * (
            1.0 * (0 - beta) + 2.0 * x * (1 - beta)
        )
        assert q_node(two_node_model, xs, "a", [1]) == pytest.approx(
            expected, rel=1e-12
        )

    def test_single_colored_vanishes_at_bp(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 4)
            g = solve_bp(m, SolverConfig(restarts=4, seed=int(rng.integers(1 << 31))))
            assert g.converged
            for a in m.graph.nodes:
                f = m.factors[a]
                h_a = h_node(m, a, g.x)
                for i in range(len(f.variables)):
                    colored = [int(j == i) for j in range(len(f.variables))]
                    assert abs(q_node(m, g.x, a, colored)) <= 1e-8 * h_a


class TestEdgeBelief:
    def test_formula(self):
        x = {D("e", True): 2.0, D("e", False): 0.5}
        assert edge_belief(x, "e") == pytest.approx(0.5)

    def test_matches_bp_stationarity(self, two_node_model):
        x = {D("e1", True): 4.0 / 3.0, D("e1", False): 2.0}
        beta = edge_belief(x, "e1")
        # node marginal x * dh/dx / h of the colored state equals beta at
        # the BP gauge, for both endpoints
        beliefs = marginals_from_gauge(two_node_model, x)
        for a in ("a", "b"):
            marg = beliefs.node_beliefs[a][1]
            assert marg == pytest.approx(beta, rel=1e-12)


class TestNodeWeights:
    """The node-table kernel against brute-force sums over configurations."""

    @given(
        k=st.integers(0, 12),
        rows=st.integers(1, 4),
        with_w0=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_brute_force(self, k, rows, with_w0, seed):
        rng = np.random.default_rng(seed)
        table = np.exp(rng.uniform(-2.3, 2.3, 1 << k))
        w1 = np.exp(rng.uniform(-2.3, 2.3, (rows, k)))
        w0 = np.exp(rng.uniform(-2.3, 2.3, (rows, k))) if with_w0 else None
        w0_full = w0 if with_w0 else np.ones((rows, k))

        brute = np.zeros((rows, 1 << k))
        for c in range(1 << k):
            weight = np.full(rows, table[c])
            for j in range(k):
                weight = weight * (w1[:, j] if (c >> j) & 1 else w0_full[:, j])
            brute[:, c] = weight
        bits = [[(c >> j) & 1 for j in range(k)] for c in range(1 << k)]

        w = node_weights(table, w1, w0)
        np.testing.assert_allclose(w.sum(axis=1), brute.sum(axis=1), rtol=1e-12)
        for i in range(k):
            expected = np.stack(
                [brute[:, [b[i] == v for b in bits]].sum(axis=1) for v in (0, 1)], axis=1
            )
            np.testing.assert_allclose(slot_sums(w)[:, i], expected, rtol=1e-12)
        # folding in place, into a copy of ``w``, gives the same sums bit for bit
        np.testing.assert_array_equal(slot_sums(w.copy(), overwrite=True), slot_sums(w))

        for r in range(rows):
            one = node_weights(table, w1[r : r + 1], None if w0 is None else w0[r : r + 1])
            np.testing.assert_array_equal(one[0], w[r])
            np.testing.assert_array_equal(one.sum(axis=1)[0], w.sum(axis=1)[r])
            np.testing.assert_array_equal(slot_sums(one)[0], slot_sums(w)[r])

        # leading batch axes: the same weight vectors, bit for bit
        stacked = monomials(
            np.stack([w1, w1[::-1]]), None if w0 is None else np.stack([w0, w0[::-1]])
        )
        np.testing.assert_array_equal(stacked[0] * table, w)
        np.testing.assert_array_equal(stacked[1] * table, w[::-1])
