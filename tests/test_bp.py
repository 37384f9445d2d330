import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugepf import (
    FactorTable,
    ModelError,
    bethe_free_energy,
    bp_contract_sequence,
    bp_residual,
    bp_value,
    build,
    contract_model,
    edge_pair_update,
    exact_contract_poly,
    gauge_function,
    lagrangian_L,
    marginals_from_gauge,
    minimize_bethe_direct,
    partition_exact,
    saddle_check,
    sequence_decreases,
    soft_model,
    soften,
    solve_bp,
)
import gaugepf.bp as bp_mod
from gaugepf.bp import (
    BPGauge,
    ConfigError,
    DegenerateEdgeError,
    SolverConfig,
    _restarts,
    check_polytope,
)
from gaugepf.families import (
    matching_model,
    permanent_bruteforce,
    permanent_model,
    random_soft_model,
    random_tree_model,
)
from gaugepf.gauge import h_node
from gaugepf.model import SOFTEN_EPS
from gaugepf.multigraph import DirectedEdge as D
from gaugepf.poly import QuadCoeffs, quad_coeffs

from conftest import make_model

FAST = SolverConfig(restarts=4)


def random_gauge(m, rng, lo=0.25, hi=4.0):
    return {
        d: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for d in sorted(m.graph.directed_edges(), key=str)
    }


def solver_column(m, x):
    """The solver's layout of ``m`` and ``x`` as its column."""
    lay = bp_mod._Layout.of(m)
    return lay, lay.column(x)


class TestResidual:
    def test_zero_at_bp_gauge(self, two_node_model):
        x = {D("e1", True): 4.0 / 3.0, D("e1", False): 2.0}
        res = bp_residual(two_node_model, x)
        assert max(abs(v) for v in res.values()) <= 1e-12

    def test_nonzero_off_stationarity(self, two_node_model, rng):
        x = random_gauge(two_node_model, rng)
        res = bp_residual(two_node_model, x)
        assert max(abs(v) for v in res.values()) > 1e-6

    def test_matches_finite_differences_of_log_z(self, rng):
        step = 1e-6
        for _ in range(5):
            m = random_soft_model(rng, 4)
            x = random_gauge(m, rng)
            res = bp_residual(m, x)
            for d, r in res.items():
                x_hi = dict(x)
                x_lo = dict(x)
                x_hi[d] = x[d] + step
                x_lo[d] = x[d] - step
                fd = (
                    math.log(gauge_function(m, x_hi))
                    - math.log(gauge_function(m, x_lo))
                ) / (2 * step)
                assert r == pytest.approx(fd, abs=1e-5)

    def test_hard_model_rejected(self):
        m = matching_model(2, 2, perfect=True)
        x = {d: 1.0 for d in m.graph.directed_edges()}
        with pytest.raises(ModelError):
            bp_residual(m, x)

    def test_solver_layout_reads_the_solved_residual_and_value(self):
        # with 11 or more edges, e10 sorts before e2: the solver's edge order
        # is not construction order, and a residual pass in construction
        # order sums differently; on the solver's layout both the residual
        # and z(x) of a converged gauge come out bit for bit
        rng = np.random.default_rng(11)
        for _ in range(30):
            n_edges = int(rng.integers(11, 15))
            m = random_soft_model(rng, n_edges, n_nodes=max(2, 2 * n_edges // 3))
            assert list(m.graph.edges) != sorted(m.graph.edges)
            g = solve_bp(m, FAST)
            assert g.converged
            lay, col = solver_column(m, g.x)
            res, _, totals = bp_mod._at_gauge(lay, col)
            assert res == g.residual
            assert bp_mod._values(totals, col)[0] == g.value
        # K_{3,3} and K_{4,4} sweep their perfect matchings in turn
        for n in (3, 4):
            m = soft_model(matching_model(n, n, weights=np.exp(rng.uniform(-0.7, 0.7, (n, n)))))
            g = solve_bp(m, FAST)
            assert g.converged
            lay, col = solver_column(m, g.x)
            assert lay.matchings == n
            res, _, totals = bp_mod._at_gauge(lay, col)
            assert res == g.residual
            assert bp_mod._values(totals, col)[0] == g.value


@pytest.mark.parametrize(
    "field",
    [
        {"damping": -0.1}, {"damping": 1.0}, {"tolerance": 0.0},
        {"tolerance": math.inf}, {"max_sweeps": 0}, {"restarts": 0},
    ],
)
def test_solver_config_rejects(field):
    with pytest.raises(ConfigError):
        SolverConfig(**field)


class TestEdgePairUpdate:
    def test_spot_values(self):
        x_p, x_q = edge_pair_update(QuadCoeffs(1, 2, 3, 6))
        assert (x_p, x_q) == (3.0, 2.0)

    def test_symmetric_case(self):
        x_p, x_q = edge_pair_update(QuadCoeffs(1, 2, 2, 2))
        expected = (1 + math.sqrt(17)) / 4
        assert x_p == pytest.approx(expected)
        assert x_q == pytest.approx(expected)

    def test_softened_degenerate(self):
        x_p, x_q = edge_pair_update(QuadCoeffs(1, 1e-12, 1e-12, 1))
        assert x_p == pytest.approx(1.0)
        assert x_q == pytest.approx(1.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateEdgeError, match="soften"):
            edge_pair_update(QuadCoeffs(1, 0, 0, 1))

    def test_solves_both_stationarity_conditions(self, rng):
        for _ in range(20):
            h00, h10, h01, h11 = np.exp(rng.uniform(np.log(0.1), np.log(10), 4))
            x_p, x_q = edge_pair_update(QuadCoeffs(h00, h10, h01, h11))

            def h(p, q):
                return h00 + h10 * p + h01 * q + h11 * p * q

            def z(p, q):
                return h(p, q) / (1 + p * q)

            eps = 1e-7
            dp = (z(x_p + eps, x_q) - z(x_p - eps, x_q)) / (2 * eps)
            dq = (z(x_p, x_q + eps) - z(x_p, x_q - eps)) / (2 * eps)
            scale = z(x_p, x_q)
            assert abs(dp) <= 1e-6 * scale
            assert abs(dq) <= 1e-6 * scale


    @given(a=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
           b=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_factorized_pair_is_message_ratio(self, a, b):
        """On a normal edge ``h_pq = a_p b_q``, and the sweep takes the
        stationary pair as the ratio ``(b1 / b0, a1 / a0)``.  Both are a few
        float64 operations from the same sums: 1e-14 is tens of ulps."""
        a0, a1 = np.exp(a)
        b0, b1 = np.exp(b)
        x_p, x_q = edge_pair_update(QuadCoeffs(a0 * b0, a1 * b0, a0 * b1, a1 * b1))
        assert x_p == pytest.approx(b1 / b0, rel=1e-14)
        assert x_q == pytest.approx(a1 / a0, rel=1e-14)

class TestBPValue:
    def test_factorized_equals_h00_plus_h11(self):
        assert bp_value(QuadCoeffs(1, 2, 3, 6)) == pytest.approx(7.0)

    def test_non_factorized_exceeds(self):
        v = bp_value(QuadCoeffs(1, 2, 2, 2))
        assert v == pytest.approx((3 + math.sqrt(17)) / 2)
        assert v > 3.0

    def test_self_edge_table(self):
        v = bp_value(QuadCoeffs(2, 5, 5, 3))
        assert v == pytest.approx((5 + math.sqrt(101)) / 2)

    def test_matches_update_point(self, rng):
        for _ in range(10):
            c = QuadCoeffs(*np.exp(rng.uniform(np.log(0.1), np.log(10), 4)))
            x_p, x_q = edge_pair_update(c)
            direct = (c.h00 + c.h10 * x_p + c.h01 * x_q + c.h11 * x_p * x_q) / (
                1 + x_p * x_q
            )
            assert bp_value(c) == pytest.approx(direct, rel=1e-12)


class TestSolveBP:
    def test_two_node(self, two_node_model):
        g = solve_bp(two_node_model, FAST)
        assert g.converged
        assert g.value == pytest.approx(11.0, rel=1e-9)

    def test_tree_exactness(self, rng):
        for _ in range(10):
            m = random_tree_model(rng, int(rng.integers(1, 8)))
            g = solve_bp(m, FAST)
            assert g.converged
            assert g.value == pytest.approx(partition_exact(m), rel=1e-6)

    def test_bouquet_closed_form(self, self_edge_model):
        g = solve_bp(self_edge_model, FAST)
        assert g.converged
        assert g.value == pytest.approx(bp_value(QuadCoeffs(2, 5, 5, 3)), rel=1e-9)

    def test_hard_model_softened(self):
        m = permanent_model(np.ones((2, 2)))
        g = solve_bp(m, FAST)
        assert g.softened
        assert g.converged
        assert g.value <= 2.0

    def test_fallbacks_counted(self, two_node_model):
        # one full step solves a one-edge model; undamped BP never converges
        # on the softened 2x2 all-ones permanent, so every restart runs damped
        assert solve_bp(two_node_model, FAST).fallbacks == 0
        m = permanent_model(np.ones((2, 2)))
        g = solve_bp(m, FAST)
        assert g.converged
        assert g.fallbacks == FAST.restarts
        assert g.sweeps > bp_mod._UNDAMPED_SWEEPS
        # without damping there is one phase and nothing to fall back to
        undamped = solve_bp(m, dataclasses.replace(FAST, damping=0.0, max_sweeps=300))
        assert not undamped.converged
        assert undamped.fallbacks == 0
        assert undamped.sweeps == 300

    def test_subnormal_tolerance_runs(self, two_node_model):
        # the undamped phase's tolerance is a hundredth of this, which
        # rounds to 0; one full step solves the edge exactly
        g = solve_bp(two_node_model, SolverConfig(tolerance=5e-324, restarts=2))
        assert g.converged
        assert g.fallbacks == 0

    def test_nonconvergence_reported_not_raised(self, loopy_model):
        cfg = SolverConfig(tolerance=1e-30, max_sweeps=5, restarts=2)
        g = solve_bp(loopy_model, cfg)
        assert not g.converged
        assert g.residual > 0

    def test_zero_edge_model(self):
        m = make_model(["a"], [], {"a": [4.0]})
        g = solve_bp(m, FAST)
        assert g.converged
        assert g.value == pytest.approx(4.0)

    def test_clamp_hits_counted(self, rng, monkeypatch):
        m = random_soft_model(rng, 5)
        cfg = SolverConfig(restarts=3, max_sweeps=20)
        monkeypatch.setattr(bp_mod, "_CLAMP", (0.9, 1.1))
        runs = _restarts(m, cfg)
        assert all(0 < a.clamped <= a.sweeps for a in runs)
        g = solve_bp(m, cfg)
        assert g.clamped == next(a.clamped for a in runs if a.x == g.x)

    def test_no_clamp_hits_on_c07_models(self):
        rng = np.random.default_rng(107)  # C07's direct-minimizer models
        for _ in range(20):
            m = random_soft_model(rng, int(rng.integers(2, 5)))
            runs = _restarts(m, SolverConfig(restarts=8, seed=int(rng.integers(1 << 31))))
            rng.integers(1 << 31)  # C07's seed for the direct minimizer
            assert all(a.converged and a.clamped == 0 for a in runs)

    @staticmethod
    def _crafted(monkeypatch, m, runs):
        """Make ``_restarts`` return one converged gauge per (value, sweeps)."""
        darts = m.graph.directed_edges()
        gauges = [
            BPGauge(x={d: float(i + 1) for d in darts}, residual=0.0, value=v,
                    sweeps=sweeps, converged=True)
            for i, (v, sweeps) in enumerate(runs)
        ]
        monkeypatch.setattr(bp_mod, "_restarts", lambda m, cfg: gauges)
        return gauges

    def test_equal_values_keep_first_restart(self, two_node_model, monkeypatch):
        runs = [(0.5, 3), (2.0, 5), (2.0 * (1 + 1e-12), 9), (2.0 * (1 - 5e-9), 7)]
        gauges = self._crafted(monkeypatch, two_node_model, runs)
        g = solve_bp(two_node_model, FAST)
        assert (g.x, g.value, g.sweeps) == (gauges[1].x, 2.0, 5)
        assert g.stationary_values == (runs[2][0], 0.5)

    def test_larger_value_beyond_tie_wins(self, two_node_model, monkeypatch):
        runs = [(2.0, 5), (2.0 * (1 + 1e-6), 9), (2.0 * (1 + 1e-6 + 1e-12), 4)]
        gauges = self._crafted(monkeypatch, two_node_model, runs)
        g = solve_bp(two_node_model, FAST)
        assert (g.x, g.sweeps) == (gauges[1].x, 9)
        assert g.stationary_values == (runs[2][0], 2.0)

    def test_value_finite_past_product_overflow(self):
        """The node totals are summed as logs: prod_a h_a alone overflows here."""
        m = random_tree_model(np.random.default_rng(0), 400)
        ones = {d: 1.0 for d in m.graph.directed_edges()}
        assert math.prod(h_node(m, a, ones) for a in m.graph.nodes) == math.inf
        g = solve_bp(m, SolverConfig(restarts=1))
        assert g.converged
        assert 1e200 < g.value < math.inf

    def test_deterministic_given_seed(self, rng):
        m = random_soft_model(rng, 5)
        g1 = solve_bp(m, SolverConfig(restarts=3, seed=11))
        g2 = solve_bp(m, SolverConfig(restarts=3, seed=11))
        assert g1.value == g2.value
        assert g1.x == g2.x


class TestMarginals:
    def test_edge_consistency_at_convergence(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 5)
            g = solve_bp(m, FAST)
            assert g.converged
            bel = marginals_from_gauge(m, g.x)
            for a in m.graph.nodes:
                f = m.factors[a]
                arr = bel.node_beliefs[a].reshape(
                    (2,) * len(f.variables), order="F"
                )
                for i, d in enumerate(f.variables):
                    node_marg = float(np.take(arr, 1, axis=i).sum())
                    assert node_marg == pytest.approx(
                        bel.edge_marginals[d.edge], abs=1e-8
                    )

    def test_small_gauge_concentrates_on_zero(self, self_edge_model):
        x = {d: 1e-6 for d in self_edge_model.graph.directed_edges()}
        bel = marginals_from_gauge(self_edge_model, x)
        assert bel.edge_marginals["e"] < 1e-11
        assert bel.node_beliefs["s"][0] > 1 - 1e-5

    def test_uniform_single_edge(self):
        m = make_model(["a", "b"], [("e", "a", "b")], {"a": [1, 1], "b": [1, 1]})
        x = {D("e", True): 1.0, D("e", False): 1.0}
        bel = marginals_from_gauge(m, x)
        assert bel.edge_marginals["e"] == pytest.approx(0.5)


class TestBetheFreeEnergy:
    def test_value_identity(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 5)
            g = solve_bp(m, FAST)
            assert g.converged
            bel = marginals_from_gauge(m, g.x)
            before = {a: b.copy() for a, b in bel.node_beliefs.items()}
            check_polytope(m, bel)
            for a, b in before.items():  # the check reads the beliefs only
                np.testing.assert_array_equal(bel.node_beliefs[a], b)
            f_bp = bethe_free_energy(m, bel)
            assert f_bp == pytest.approx(-math.log(g.value), abs=1e-8)

    def test_tree_equals_minus_log_z(self, rng):
        m = random_tree_model(rng, 5)
        g = solve_bp(m, FAST)
        f_bp = bethe_free_energy(m, marginals_from_gauge(m, g.x))
        assert f_bp == pytest.approx(-math.log(partition_exact(m)), abs=1e-6)

    def test_interior_margin_positive(self, rng):
        m = random_soft_model(rng, 4)
        g = solve_bp(m, FAST)
        bel = marginals_from_gauge(m, g.x)
        assert bel.interior_margin() > 1e-6

    def test_polytope_violation_rejected(self, two_node_model, rng):
        g = solve_bp(two_node_model, FAST)
        bel = marginals_from_gauge(two_node_model, g.x)
        bel.edge_marginals["e1"] += 1e-3
        with pytest.raises(ModelError):
            bethe_free_energy(two_node_model, bel)

    def test_hard_model_rejected(self):
        m = permanent_model(np.ones((2, 2)))
        soft = soften(m, 1e-12)
        g = solve_bp(soft, FAST)
        bel = marginals_from_gauge(soft, g.x)
        with pytest.raises(ModelError):
            bethe_free_energy(m, bel)


class TestLagrangian:
    def test_equals_gauge_function_at_bp(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 4)
            g = solve_bp(m, FAST)
            assert g.converged
            beta = marginals_from_gauge(m, g.x).edge_marginals
            assert lagrangian_L(m, beta, g.x) == pytest.approx(
                g.value, rel=1e-8
            )

    def test_bp_gauge_minimizes_over_local_grid(self, rng):
        m = random_soft_model(rng, 2)
        g = solve_bp(m, FAST)
        beta = marginals_from_gauge(m, g.x).edge_marginals
        at_bp = lagrangian_L(m, beta, g.x)
        darts = sorted(m.graph.directed_edges(), key=str)
        factors = (0.8, 1.0, 1.25)
        import itertools

        for combo in itertools.product(factors, repeat=len(darts)):
            x = {d: g.x[d] * c for d, c in zip(darts, combo)}
            assert lagrangian_L(m, beta, x) >= at_bp * (1 - 1e-9)

    def test_sibling_rescaling_is_first_order_flat(self, two_node_model):
        # d/dt L(beta_bp, t*x_plus, x_minus/t) = 0 at t = 1: the beta
        # exponents see only the product x_plus * x_minus, and the h-factor
        # derivatives cancel by stationarity
        g = solve_bp(two_node_model, FAST)
        beta = marginals_from_gauge(two_node_model, g.x).edge_marginals

        def along(t):
            x = dict(g.x)
            x[D("e1", True)] *= t
            x[D("e1", False)] /= t
            return lagrangian_L(two_node_model, beta, x)

        eps = 1e-6
        derivative = (along(1 + eps) - along(1 - eps)) / (2 * eps)
        assert abs(derivative) <= 1e-6 * along(1.0)

    def test_invalid_beta_rejected(self, two_node_model):
        g = solve_bp(two_node_model, FAST)
        with pytest.raises(ModelError):
            lagrangian_L(two_node_model, {"e1": 1.5}, g.x)


class TestSaddle:
    def test_self_edge_spot(self, self_edge_model):
        g = solve_bp(self_edge_model, FAST)
        rep = saddle_check(self_edge_model, g.x, "e")
        assert rep.det_negative
        # cross term is (h11 - value)/(1 + x_p x_q) = (3 - 7.5249...)/(1 + x*x)
        x = g.x[list(g.x)[0]]
        import math
        expected = (3 - (5 + math.sqrt(101)) / 2) / (1 + x * x)
        assert rep.mixed == pytest.approx(expected, rel=1e-4)

    def test_normal_edge_spot(self):
        # h = (1 + 2 x_p)(1 + 3 x_q) has quad coeffs (1, 2, 3, 6); the BP
        # pair from the factorized closed form is (3, 2)
        m = make_model(["a", "b"], [("e", "a", "b")], {"a": [1, 2], "b": [1, 3]})
        x = {D("e", True): 3.0, D("e", False): 2.0}
        assert max(abs(v) for v in bp_residual(m, x).values()) <= 1e-12
        rep = saddle_check(m, x, "e")
        assert rep.det_negative

    def test_random_models_cross_term_structure(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 4)
            g = solve_bp(m, FAST)
            assert g.converged
            for e in m.graph.edges:
                rep = saddle_check(m, g.x, e)
                assert rep.det_negative
                assert rep.mixed_negative
                # diagonal entries vanish at a stationary pair
                assert abs(rep.hessian[0, 0]) <= 1e-4 * abs(rep.mixed)
                assert abs(rep.hessian[1, 1]) <= 1e-4 * abs(rep.mixed)

    def test_mixed_term_matches_symbolic_quadratic(self):
        # on every edge of converged random soft models, the cross term is
        # (h11 - value)/(1 + x_p x_q), with h the edge's quadratic from the
        # polynomial layer and the other nodes' factors divided out
        rng = np.random.default_rng(808)
        self_edges = parallel = 0
        for _ in range(15):
            m = random_soft_model(rng, int(rng.integers(2, 7)))
            g = solve_bp(m, SolverConfig(restarts=4, seed=int(rng.integers(1 << 31))))
            assert g.converged
            poly = build(m)
            ends = [tuple(sorted(m.graph.endpoints[e])) for e in m.graph.edges]
            normal = [(t, h) for t, h in ends if t != h]
            self_edges += len(ends) - len(normal)
            parallel += len(normal) - len(set(normal))
            for e in m.graph.edges:
                own = {poly.factor_of(D(e, True)), poly.factor_of(D(e, False))}
                rest = math.prod(
                    p.evaluate(g.x) for j, p in enumerate(poly.factors) if j not in own
                )
                c = quad_coeffs(poly, e, g.x)
                c = QuadCoeffs(c.h00 / rest, c.h10 / rest, c.h01 / rest, c.h11 / rest)
                xpq = g.x[D(e, True)] * g.x[D(e, False)]
                expected = (c.h11 - bp_value(c)) / (1 + xpq)
                assert saddle_check(m, g.x, e).mixed == pytest.approx(expected, rel=1e-4)
        assert self_edges and parallel

    def test_hessian_matches_central_differences(self):
        # at a random, non-stationary gauge, where the diagonal entries do
        # not vanish, every entry of the closed form matches central
        # differences of the profile h/(1 + x_p x_q), with h the edge's
        # quadratic from the polynomial layer, the other nodes' factors
        # divided out
        rng = np.random.default_rng(909)
        self_edges = normal = 0
        for _ in range(6):
            m = random_soft_model(rng, int(rng.integers(2, 7)))
            x = random_gauge(m, rng, 0.5, 2.0)
            poly = build(m)
            for e in m.graph.edges:
                tail, head = m.graph.endpoints[e]
                self_edges += tail == head
                normal += tail != head
                own = {poly.factor_of(D(e, True)), poly.factor_of(D(e, False))}
                rest = math.prod(
                    p.evaluate(x) for j, p in enumerate(poly.factors) if j not in own
                )
                c = quad_coeffs(poly, e, x)
                xp0, xq0 = x[D(e, True)], x[D(e, False)]

                def profile(xp, xq):
                    h = c.h00 + c.h10 * xp + c.h01 * xq + c.h11 * xp * xq
                    return h / (1.0 + xp * xq) / rest

                hp, hq = 1e-4 * max(1.0, xp0), 1e-4 * max(1.0, xq0)
                f = profile(xp0, xq0)
                fpp = (profile(xp0 + hp, xq0) - 2 * f + profile(xp0 - hp, xq0)) / hp**2
                fqq = (profile(xp0, xq0 + hq) - 2 * f + profile(xp0, xq0 - hq)) / hq**2
                fpq = (
                    profile(xp0 + hp, xq0 + hq) - profile(xp0 + hp, xq0 - hq)
                    - profile(xp0 - hp, xq0 + hq) + profile(xp0 - hp, xq0 - hq)
                ) / (4 * hp * hq)
                fd = np.array([[fpp, fpq], [fpq, fqq]])
                rep = saddle_check(m, x, e)
                # relative to the largest entry: a central difference's
                # error scales with the profile, not with the entry
                np.testing.assert_allclose(
                    rep.hessian, fd, rtol=0, atol=1e-5 * np.abs(fd).max()
                )
                assert (np.sign(rep.hessian) == np.sign(fd)).all()
                assert fpp and fqq
                assert rep.mixed == rep.hessian[0, 1]
                scale = np.abs(fd).max() ** 2
                assert rep.determinant == pytest.approx(
                    np.linalg.det(rep.hessian), rel=1e-9, abs=1e-12 * scale
                )
        assert self_edges and normal


class TestContractSequence:
    def test_tree_constant(self, rng):
        m = random_tree_model(rng, 4)
        z = partition_exact(m)
        stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
        assert all(s.converged for s in stages)
        for s in stages:
            assert s.z_vbp == pytest.approx(z, rel=1e-6)
        assert not sequence_decreases(stages, rel_slack=1e-6)

    def test_two_by_two_permanent(self):
        m = permanent_model(np.ones((2, 2)))
        order = m.graph.normal_first_order()
        stages = bp_contract_sequence(m, order, FAST)
        assert all(s.converged for s in stages)
        assert not sequence_decreases(stages)
        assert stages[0].z_vbp <= 2.0
        assert stages[-1].z_vbp == pytest.approx(2.0, rel=1e-9)

    def test_adversarial_self_edge_decrease_reported(self, self_edge_model):
        stages = bp_contract_sequence(self_edge_model, ["e"], FAST)
        drops = sequence_decreases(stages)
        assert len(drops) == 1
        assert stages[0].z_vbp == pytest.approx((5 + math.sqrt(101)) / 2, rel=1e-9)
        assert stages[-1].z_vbp == pytest.approx(5.0, rel=1e-9)

    def test_invalid_order_rejected(self, two_node_model):
        from gaugepf import GraphError

        with pytest.raises(GraphError):
            bp_contract_sequence(two_node_model, ["e1", "e1"], FAST)

    @staticmethod
    def _convex_models():
        rng = np.random.default_rng(12)
        models = []
        for n in (3, 4):
            w = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (n, n)))
            models.append(matching_model(n, n, weights=w))
        models.append(permanent_model(np.ones((3, 3))))
        return models

    def test_warm_stages_match_cold_solves(self):
        # matching and permanent models have one BP fixed point, so the warm
        # start must land on the value the random restarts find
        for m in self._convex_models():
            stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
            assert not stages[0].warm and not stages[-1].warm
            for s in stages[1:]:
                if not s.n_edges:
                    continue
                assert s.warm and s.converged
                assert s.gauge.stationary_values == (s.z_vbp,)
                cold = solve_bp(s.model, FAST)
                assert s.z_vbp == pytest.approx(cold.value, rel=1e-12)

    def test_warm_stages_sweep_at_most_stage_zero(self):
        for m in self._convex_models():
            stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
            warm = [s for s in stages if s.warm]
            assert warm
            assert all(s.gauge.sweeps <= stages[0].gauge.sweeps for s in warm)

    def test_warm_try_capped_at_stage_zero_sweeps(self, monkeypatch):
        # the 2-edge stage of the 4x4 all-ones permanent does not converge,
        # so its warm try runs to the cap and the stage falls back
        warm_solve = bp_mod._warm_solve
        tried = {}

        def recorded(m, *args):
            tried[len(m.graph.edges)] = g = warm_solve(m, *args)
            return g

        monkeypatch.setattr(bp_mod, "_warm_solve", recorded)
        m = permanent_model(np.ones((4, 4)))
        stages = bp_contract_sequence(
            m, m.graph.normal_first_order(), dataclasses.replace(FAST, max_sweeps=400)
        )
        assert not tried[2].converged
        assert tried[2].sweeps == min(400, stages[0].gauge.sweeps)
        (stage,) = [s for s in stages if s.n_edges == 2]
        assert not stage.warm

    def test_sequence_leaves_cold_solves_unchanged(self):
        # warm stages take full steps; the damped random restarts of a later
        # solve_bp must not see any of it
        m = random_soft_model(np.random.default_rng(3), 10, n_nodes=7)
        before = solve_bp(m, FAST)
        for seq in self._convex_models():
            bp_contract_sequence(seq, seq.graph.normal_first_order(), FAST)
        assert solve_bp(m, FAST) == before

    def test_normal_edge_stages_keep_their_start(self):
        # a normal-edge contraction is BP's own elimination, so the previous
        # stage's gauge on the surviving darts is a BP gauge of the next
        # stage: the stage checks it and takes no sweep, while a stage after
        # a self-edge contraction has to sweep
        tol = FAST.tolerance
        models = [matching_model(a, b) for a, b in ((2, 3), (3, 3), (4, 4), (3, 5))]
        for seed in range(8):
            models.append(random_soft_model(np.random.default_rng(seed), 8, n_nodes=5))
        for m in models:
            stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
            for prev, s in zip(stages, stages[1:]):
                if not s.n_edges:
                    continue
                tail, head = prev.model.graph.endpoints[s.eliminated]
                if tail == head:
                    assert s.gauge.sweeps >= 1, s.index
                    continue
                assert s.warm and s.gauge.sweeps == 0, s.index
                assert set(s.gauge.x) == set(s.model.graph.directed_edges())
                assert s.gauge.x == {d: prev.gauge.x[d] for d in s.gauge.x}
                assert s.gauge.residual <= tol
                assert bp_mod._at_gauge(*solver_column(s.model, s.gauge.x))[0] <= tol
                assert s.z_vbp == pytest.approx(gauge_function(s.model, s.gauge.x),
                                                rel=1e-12, abs=0.0)
                # the contraction keeps z(x), and the stage model is exactly
                # the previous one contracted
                before = contract_model(prev.model, s.eliminated)
                assert gauge_function(before, s.gauge.x) == pytest.approx(
                    prev.z_vbp, rel=1e-12, abs=0.0)

    def test_only_normal_edge_stages_check_their_start(self, monkeypatch):
        # a stage after a self-edge contraction sweeps its start straight
        # away: the check would fail there, and the sweep is the same one
        warm_solve = bp_mod._warm_solve
        calls = []

        def recorded(*args):
            calls.append(args)
            return warm_solve(*args)

        monkeypatch.setattr(bp_mod, "_warm_solve", recorded)
        m = matching_model(3, 3)
        stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
        normal = [not prev.model.graph.is_self_edge(s.eliminated)
                  for prev, s in zip(stages, stages[1:]) if s.n_edges]
        assert [check for *_, check in calls] == normal
        assert True in normal and False in normal
        for model, start, cfg, check in calls:
            if not check:
                assert warm_solve(model, start, cfg, True) == warm_solve(
                    model, start, cfg, False)

    def test_stages_are_exact_contractions_of_the_softened_model(self):
        # the model is softened once; every later stage is the previous one
        # contracted, so the final stage is the softened model's exact Z
        models = [matching_model(a, b) for a, b in ((3, 3), (4, 4), (3, 5))]
        rng = np.random.default_rng(0)
        models.append(permanent_model(np.exp(rng.uniform(-1.5, 1.5, (3, 3)))))
        for m in models:
            soft = soft_model(m)
            stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
            assert stages[-1].z_vbp == pytest.approx(partition_exact(soft),
                                                     rel=1e-14, abs=0.0)
            for prev, s in zip(stages, stages[1:]):
                contracted = contract_model(prev.model, s.eliminated)
                assert s.model.factors.keys() == contracted.factors.keys()
                for a, f in s.model.factors.items():
                    assert f.variables == contracted.factors[a].variables
                    assert np.array_equal(f.table, contracted.factors[a].table)
                tail, head = prev.model.graph.endpoints[s.eliminated]
                if s.n_edges and tail != head and not s.gauge.sweeps:
                    assert s.z_vbp == pytest.approx(prev.z_vbp, rel=1e-14, abs=0.0)

    def test_stage_gauges_state_the_softening(self):
        # stage 0's gauge is solve_bp's on the model as given, softened flag
        # included, and every later stage's gauge carries the same flag
        cfg = SolverConfig(restarts=2)
        hard = matching_model(2, 2)
        soft = random_soft_model(np.random.default_rng(0), 4, n_nodes=3)
        for m, softened in ((hard, True), (soft, False)):
            stages = bp_contract_sequence(m, m.graph.normal_first_order(), cfg)
            assert stages[0].gauge == solve_bp(m, cfg)
            assert [s.gauge.softened for s in stages] == [softened] * len(stages)

    def test_soft_model_is_contracted_as_given(self):
        # an entry below SOFTEN_EPS * max is kept on a soft model, as
        # soft_model keeps it, so the final stage is the model's own exact Z
        for seed in range(3):
            m = random_soft_model(np.random.default_rng(seed), 5, n_nodes=3)
            a = m.graph.nodes[0]
            f = m.factors[a]
            table = f.table.copy()
            table[0] = 1e-15 * table.max()
            m = dataclasses.replace(m, factors={
                **m.factors, a: FactorTable.from_values(a, f.variables, table)})
            assert m.is_soft
            assert soften(m, SOFTEN_EPS).factors[a].table[0] > table[0]
            stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
            assert stages[0].model is m
            assert stages[0].gauge == solve_bp(m, FAST)
            assert stages[-1].z_vbp == pytest.approx(partition_exact(m),
                                                     rel=1e-14, abs=0.0)

    @staticmethod
    def _assert_cold_fallbacks(stages):
        # the stage models are contractions of the softened (hard) model, and
        # every stage's gauge says it was softened
        assert not any(s.warm for s in stages)
        for s in stages:
            assert s.gauge == dataclasses.replace(solve_bp(s.model, FAST), softened=True)

    def test_unconverged_warm_restart_falls_back(self, monkeypatch):
        warm_solve = bp_mod._warm_solve
        monkeypatch.setattr(
            bp_mod, "_warm_solve",
            lambda *a: dataclasses.replace(warm_solve(*a), converged=False),
        )
        m = self._convex_models()[0]
        self._assert_cold_fallbacks(
            bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
        )

    def test_decreasing_warm_value_falls_back(self, monkeypatch):
        warm_solve = bp_mod._warm_solve
        offered = []

        def dropped(*args):
            g = warm_solve(*args)
            offered.append(0.5 * g.value)
            return dataclasses.replace(g, value=offered[-1])

        monkeypatch.setattr(bp_mod, "_warm_solve", dropped)
        m = self._convex_models()[0]
        stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
        # stage i + 1's warm value was offered after stage i was solved
        assert len(offered) == len(stages) - 2
        for s, value in zip(stages, offered):
            assert value < s.z_vbp * (1.0 - 1e-9)
        self._assert_cold_fallbacks(stages)


# For a nonnegative n x n matrix A, perm_B(A) <= perm(A) <= 2**(n/2) perm_B(A)
# (Gurvits 2011, the upper side via Schrijver's inequality).  Entries are
# log-uniform in e**(+-1.5), drawn from a seed so that hypothesis cannot
# shrink towards the all-ones matrix, whose 4 x 4 sequence has a stage that
# never converges.  Up to n = 3 the check covers every stage of the
# sequence, stage 0 being solve_bp's solve; a 4 x 4 sequence takes seconds,
# so at n = 4 it covers solve_bp alone.  Softened permanents take hundreds
# to thousands of sweeps, so the examples are few and fixed.
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_permanent_bounds(n, seed):
    a = np.exp(np.random.default_rng(seed).uniform(-1.5, 1.5, (n, n)))
    perm = permanent_bruteforce(a)
    m = permanent_model(a)
    if n <= 3:
        stages = bp_contract_sequence(m, m.graph.normal_first_order(), FAST)
        values = [s.gauge for s in stages]
    else:
        values = [solve_bp(m, FAST)]
    for g in values:
        assert g.converged
        assert g.value <= perm * (1 + 1e-9)
        assert perm <= 2 ** (n / 2) * g.value * (1 + 1e-9)


class TestBPNormalContract:
    def test_two_node_constant(self, two_node_model):
        h = exact_contract_poly(build(two_node_model), "e1")
        assert h.evaluate({}) == pytest.approx(11.0)


class TestReductionBound:
    def test_holds_on_condition_sample_reports(self, rng):
        # whenever the sampled product condition passes at a point, the
        # closed-form edge reduction cannot exceed the exact one there
        from gaugepf import bistable_condition_sample

        for _ in range(10):
            m = random_soft_model(rng, 4)
            h = build(m)
            for e in m.graph.edges:
                report = bistable_condition_sample(h, e, 25, rng_seed=7)
                for c in report.samples:
                    if c.h01 * c.h10 <= c.h00 * c.h11 * (1 + 1e-12):
                        assert bp_value(c) <= (c.h00 + c.h11) * (1 + 1e-12)


class TestDirectBethe:
    def test_matches_solver_on_small_models(self, rng):
        for _ in range(3):
            m = random_soft_model(rng, 3)
            z_solver = solve_bp(m, SolverConfig(restarts=8)).value
            z_direct = minimize_bethe_direct(m, seed=5)
            assert z_direct == pytest.approx(z_solver, rel=1e-4)

    def test_tree_recovers_z(self, two_node_model):
        assert minimize_bethe_direct(two_node_model) == pytest.approx(
            11.0, rel=1e-5
        )
