import numpy as np
import pytest

import gaugepf.poly as poly_mod
from gaugepf import (
    FactorTable,
    MultiGraph,
    bistable_condition_sample,
    build,
    contract_model,
    exact_contract_poly,
    gauge_function,
    node_poly_from_factor,
    partition_exact,
    quad_coeffs,
    zeta_eval,
)
from gaugepf.families import matching_model, random_soft_model
from gaugepf.multigraph import DirectedEdge as D
from gaugepf.poly import (
    MAX_NODE_POLY_VARS,
    FactoredGaugePoly,
    NodePoly,
    PolyError,
    check_contraction_sizes,
)

from conftest import make_model


def random_gauge_for(h, rng, lo=0.25, hi=4.0):
    return {
        d: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for d in sorted(h.live_variables(), key=str)
    }


class TestNodePolyFromFactor:
    def test_linear(self, two_node_model):
        p = node_poly_from_factor(two_node_model.factors["a"])
        assert p.coeffs == {0: 1.0, 1: 2.0}

    def test_self_edge_quadratic(self, self_edge_model):
        p = node_poly_from_factor(self_edge_model.factors["s"])
        assert p.coeffs == {0: 2.0, 1: 5.0, 2: 5.0, 3: 3.0}

    def test_evaluation_at_one_is_table_sum(self, rng):
        m = random_soft_model(rng, 4)
        for a in m.graph.nodes:
            p = node_poly_from_factor(m.factors[a])
            ones = {d: 1.0 for d in p.variables}
            assert p.evaluate(ones) == pytest.approx(
                float(m.factors[a].table.sum()), rel=1e-12
            )

    def test_variable_cap(self):
        g = MultiGraph.build(
            ["a"], [(f"e{j}", "a", "a") for j in range(11)]
        )  # 22 directed slots > 20
        f = FactorTable.from_values("a", g.incidence["a"], np.ones(2**22))
        with pytest.raises(PolyError):
            node_poly_from_factor(f)


class TestQuadCoeffs:
    def test_two_node_pairing(self, two_node_model):
        # h = (1 + 2 x_p)(3 + 4 x_q): pairing depends on slot ownership
        c = quad_coeffs(build(two_node_model), "e1", {})
        assert c.as_tuple() == (3.0, 6.0, 4.0, 8.0)
        assert c.h00 * c.h11 == c.h10 * c.h01

    def test_self_edge_reads_table(self, self_edge_model):
        c = quad_coeffs(build(self_edge_model), "e", {})
        assert c.as_tuple() == (2.0, 5.0, 5.0, 3.0)

    def test_factorization_identity_random(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 5)
            h = build(m)
            for e in m.graph.edges:
                if m.graph.is_self_edge(e):
                    continue
                x = random_gauge_for(h, rng)
                c = quad_coeffs(h, e, x)
                assert abs(c.h00 * c.h11 - c.h10 * c.h01) <= 1e-12 * abs(
                    c.h00 * c.h11
                )

    def test_missing_value_rejected(self, rng):
        m = random_soft_model(rng, 3, n_nodes=2)
        h = build(m)
        with pytest.raises(PolyError):
            quad_coeffs(h, m.graph.edges[0], {})


class TestExactContractPoly:
    def test_two_node_constant(self, two_node_model):
        h = exact_contract_poly(build(two_node_model), "e1")
        assert len(h.edges) == 0
        assert h.evaluate({}) == pytest.approx(11.0)

    def test_self_edge_diagonal(self, self_edge_model):
        h = exact_contract_poly(build(self_edge_model), "e")
        assert h.evaluate({}) == pytest.approx(5.0)

    def test_kronecker_values(self):
        # (1 + d_p d_q) applied to x_p x_q and to x_p alone, at 0
        p, q = D("e", True), D("e", False)
        cross = FactoredGaugePoly(
            factors=(NodePoly("a", (p, q), {3: 1.0}),), edges=("e",)
        )
        assert exact_contract_poly(cross, "e").evaluate({}) == 1.0
        single = FactoredGaugePoly(
            factors=(NodePoly("a", (p, q), {1: 1.0}),), edges=("e",)
        )
        assert exact_contract_poly(single, "e").evaluate({}) == 0.0

    def test_commutes_with_model_contraction(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 5)
            for e in m.graph.edges:
                pa = exact_contract_poly(build(m), e)
                pb = build(contract_model(m, e))
                assert len(pa.factors) == len(pb.factors)
                for qa, qb in zip(pa.factors, pb.factors):
                    assert qa.node == qb.node
                    assert qa.variables == qb.variables
                    assert set(qa.coeffs) == set(qb.coeffs)
                    for mask, c in qa.coeffs.items():
                        assert c == pytest.approx(qb.coeffs[mask], rel=1e-12)

    def test_full_contraction_is_partition(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 6)
            z = partition_exact(m)
            order = list(m.graph.edges)
            rng.shuffle(order)
            h = build(m)
            for e in order:
                h = exact_contract_poly(h, e)
            assert zeta_eval(h, {}) == pytest.approx(z, rel=1e-10)

    def test_multilinearity_preserved(self, rng):
        m = random_soft_model(rng, 5)
        h = build(m)
        for e in list(m.graph.edges)[:3]:
            h = exact_contract_poly(h, e)
        for p in h.factors:
            for mask in p.coeffs:
                assert mask < (1 << len(p.variables))

    def test_unknown_edge(self, two_node_model):
        from gaugepf import GraphError

        with pytest.raises(GraphError):
            exact_contract_poly(build(two_node_model), "nope")


    def test_size_dry_run_raises_as_contraction_does(self, rng, monkeypatch):
        monkeypatch.setattr(poly_mod, "MAX_NODE_POLY_VARS", 5)
        raised = 0
        for _ in range(30):
            m = random_soft_model(rng, int(rng.integers(1, 8)), n_nodes=3)
            order = list(m.graph.edges)
            rng.shuffle(order)
            try:
                h = build(m)
                for e in order:
                    h = exact_contract_poly(h, e)
                expected = None
            except PolyError as exc:
                expected = str(exc)
            try:
                check_contraction_sizes(m.graph, order)
                got = None
            except PolyError as exc:
                got = str(exc)
            assert got == expected
            raised += expected is not None
        assert 0 < raised < 30


class TestZetaEval:
    def test_uncontracted_equals_gauge_function(self, rng):
        m = random_soft_model(rng, 5)
        h = build(m)
        for _ in range(5):
            x = random_gauge_for(h, rng)
            assert zeta_eval(h, x) == pytest.approx(
                gauge_function(m, x), rel=1e-12
            )

    def test_stagewise_equivalence_with_contracted_model(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 5)
            order = list(m.graph.edges)
            rng.shuffle(order)
            h = build(m)
            current = m
            for e in order:
                h = exact_contract_poly(h, e)
                current = contract_model(current, e)
                for _ in range(10):
                    x = random_gauge_for(h, rng)
                    assert zeta_eval(h, x) == pytest.approx(
                        gauge_function(current, x), rel=1e-10
                    )

    def test_fully_contracted_scalar(self, triangle_model):
        h = build(triangle_model)
        for e in triangle_model.graph.edges:
            h = exact_contract_poly(h, e)
        assert zeta_eval(h, {}) == pytest.approx(8.0, rel=1e-12)


class TestBistableConditionSample:
    def test_normal_edge_always_passes(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 4, n_nodes=3, p_self=0.0)
            h = build(m)
            for e in m.graph.edges:
                if m.graph.is_self_edge(e):
                    continue
                report = bistable_condition_sample(h, e, 50, rng_seed=3)
                assert report.all_pass
                assert report.worst_ratio == pytest.approx(1.0, rel=1e-9)

    def test_generic_self_edge_fails(self, self_edge_model):
        # constant coefficients: 5*5 > 2*3 at every point
        report = bistable_condition_sample(build(self_edge_model), "e", 25, rng_seed=0)
        assert report.n_pass == 0
        assert report.worst_ratio == pytest.approx(25.0 / 6.0)

    def test_matching_derived_self_edge_passes(self):
        # contract the 2x2 permanent model down to one self-edge; the
        # surviving polynomial is 1 + x_plus x_minus
        m = matching_model(2, 2, perfect=True)
        h = build(m)
        for e in ("m0_0", "m1_1", "m0_1"):
            h = exact_contract_poly(h, e)
        assert h.edges == ("m1_0",)
        report = bistable_condition_sample(h, "m1_0", 50, rng_seed=1)
        assert report.all_pass
        # and the final contraction gives the permanent of the all-ones matrix
        assert zeta_eval(exact_contract_poly(h, "m1_0"), {}) == pytest.approx(2.0)

    def test_variable_cap_error_message(self):
        g = MultiGraph.build(
            [f"n{i}" for i in range(2)],
            [(f"e{j:02d}", "n0", "n1") for j in range(MAX_NODE_POLY_VARS // 2 + 2)],
        )
        tables = {
            a: np.ones(2 ** len(g.incidence[a])) for a in g.nodes
        }
        m = make_model(list(g.nodes), [(e, *g.endpoints[e]) for e in g.edges], tables)
        h = build(m)
        with pytest.raises(PolyError, match="reduce the instance size"):
            exact_contract_poly(h, "e00")
