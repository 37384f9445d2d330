import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gaugepf import (
    EnumerationGuardError,
    FactorTable,
    ModelError,
    MultiGM,
    MultiGraph,
    contract_model,
    evaluate_weight,
    map_energy_exact,
    partition_exact,
    soften,
)
from gaugepf.families import random_soft_model

from conftest import make_model


class TestEvaluateWeight:
    def test_self_edge_reads_bit_twice(self, self_edge_model):
        # off-diagonal entries are never read by exact evaluation
        assert evaluate_weight(self_edge_model, (1,)) == 3.0
        assert evaluate_weight(self_edge_model, (0,)) == 2.0

    def test_normal_edge(self, two_node_model):
        assert evaluate_weight(two_node_model, (1,)) == 8.0

    def test_all_zero_config(self, rng):
        m = random_soft_model(rng, 5)
        expected = np.prod([float(f.table[0]) for f in m.factors.values()])
        assert evaluate_weight(m, (0,) * 5) == pytest.approx(expected, rel=1e-14)

    def test_size_mismatch(self, two_node_model):
        with pytest.raises(ModelError):
            evaluate_weight(two_node_model, (0, 1))

    def test_multiplicative_over_components(self, rng):
        m1 = random_soft_model(rng, 3, n_nodes=2)
        m2 = random_soft_model(rng, 2, n_nodes=2)
        nodes = [f"a.{a}" for a in m1.graph.nodes] + [f"b.{a}" for a in m2.graph.nodes]
        edges = [
            (f"a.{e}", f"a.{t}", f"a.{h}")
            for e, (t, h) in ((e, m1.graph.endpoints[e]) for e in m1.graph.edges)
        ] + [
            (f"b.{e}", f"b.{t}", f"b.{h}")
            for e, (t, h) in ((e, m2.graph.endpoints[e]) for e in m2.graph.edges)
        ]
        tables = {f"a.{a}": m1.factors[a].table for a in m1.graph.nodes}
        tables.update({f"b.{a}": m2.factors[a].table for a in m2.graph.nodes})
        joint = make_model(nodes, edges, tables)
        assert partition_exact(joint) == pytest.approx(
            partition_exact(m1) * partition_exact(m2), rel=1e-12
        )


class TestPartitionExact:
    def test_self_edge(self, self_edge_model):
        assert partition_exact(self_edge_model) == 5.0

    def test_two_node(self, two_node_model):
        assert partition_exact(two_node_model) == 11.0

    def test_uniform_triangle(self, triangle_model):
        assert partition_exact(triangle_model) == 8.0

    def test_matches_itertools_enumeration(self, rng):
        m = random_soft_model(rng, 6)
        brute = sum(
            evaluate_weight(m, bits)
            for bits in itertools.product((0, 1), repeat=6)
        )
        assert partition_exact(m) == pytest.approx(brute, rel=1e-12)

    def test_guard(self, rng):
        m = random_soft_model(rng, 5)
        with pytest.raises(EnumerationGuardError):
            partition_exact(m, guard=4)


class TestMapEnergy:
    def test_two_node(self, two_node_model):
        energy, argmax = map_energy_exact(two_node_model)
        assert energy == pytest.approx(-math.log(8.0))
        assert argmax == (1,)

    def test_uniform_ties_to_smallest(self, triangle_model):
        energy, argmax = map_energy_exact(triangle_model)
        assert energy == pytest.approx(0.0)
        assert argmax == (0, 0, 0)

    def test_self_edge(self, self_edge_model):
        energy, argmax = map_energy_exact(self_edge_model)
        assert energy == pytest.approx(-math.log(3.0))
        assert argmax == (1,)

    def test_all_zero(self):
        m = make_model(["a"], [("e", "a", "a")], {"a": [0, 0, 0, 0]})
        with pytest.raises(ModelError):
            map_energy_exact(m)


class TestSoften:
    def test_already_soft_unchanged(self, two_node_model):
        s = soften(two_node_model, 1e-9)
        for a in two_node_model.graph.nodes:
            np.testing.assert_array_equal(
                s.factors[a].table, two_node_model.factors[a].table
            )

    def test_zero_entry_clamped(self):
        m = make_model(["a", "b"], [("e", "a", "b")], {"a": [0, 1], "b": [1, 1]})
        s = soften(m, 1e-12)
        assert s.factors["a"].table[0] == 1e-12
        assert s.is_soft

    def test_all_zero_table(self):
        m = make_model(["a"], [("e", "a", "a")], {"a": [0, 0, 0, 0]})
        with pytest.raises(ModelError):
            soften(m, 1e-12)

    def test_nonpositive_eps(self, two_node_model):
        with pytest.raises(ModelError):
            soften(two_node_model, 0.0)

    def test_upper_bound_on_z_change(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 4)
            eps = 1e-3
            z0, z1 = partition_exact(m), partition_exact(soften(m, eps))
            n = len(m.graph.nodes)
            assert z0 <= z1 <= z0 * (1 + eps) ** n


class TestContractModel:
    def test_normal_edge_scalar(self, two_node_model):
        c = contract_model(two_node_model, "e1")
        assert c.graph.nodes == ("a",)
        assert c.graph.edges == ()
        np.testing.assert_allclose(c.factors["a"].table, [11.0])

    def test_self_edge_scalar(self, self_edge_model):
        c = contract_model(self_edge_model, "e")
        np.testing.assert_allclose(c.factors["s"].table, [5.0])

    def test_partition_invariance_random(self, rng):
        for _ in range(20):
            m = random_soft_model(rng, 4)
            z = partition_exact(m)
            for e in m.graph.edges:
                assert partition_exact(contract_model(m, e)) == pytest.approx(
                    z, rel=1e-12
                )

    def test_full_contraction_any_order(self, rng):
        for _ in range(10):
            m = random_soft_model(rng, 5)
            z = partition_exact(m)
            order = list(m.graph.edges)
            rng.shuffle(order)
            current = m
            for e in order:
                current = contract_model(current, e)
            scalar = np.prod(
                [float(current.factors[a].table[0]) for a in current.graph.nodes]
            )
            assert scalar == pytest.approx(z, rel=1e-12)

    def test_unknown_edge(self, two_node_model):
        from gaugepf import GraphError

        with pytest.raises(GraphError):
            contract_model(two_node_model, "nope")


class TestFactorTable:
    def test_length_validation(self):
        g = MultiGraph.build(["a"], [("e", "a", "a")])
        with pytest.raises(ModelError):
            FactorTable.from_values("a", g.incidence["a"], [1, 2, 3])

    def test_negative_rejected_by_default(self):
        g = MultiGraph.build(["a", "b"], [("e", "a", "b")])
        with pytest.raises(ModelError):
            FactorTable.from_values("a", g.incidence["a"], [-1, 2])

    def test_order_mismatch_rejected(self):
        g = MultiGraph.build(["a", "b"], [("e", "a", "b")])
        wrong = FactorTable.from_values("a", g.incidence["b"], [1, 2])
        with pytest.raises(ModelError):
            MultiGM.from_tables(
                g, {"a": wrong, "b": FactorTable.from_values("b", g.incidence["b"], [3, 4])}
            )

    def test_array_copied_once(self):
        """A 2**20 table is one copy of the caller's array, not a list of floats."""
        g = MultiGraph.build(["a"], [(f"s{i}", "a", "a") for i in range(10)])
        values = np.linspace(0.5, 2.0, 1 << 20)
        before = values.copy()
        tracemalloc.start()
        try:
            f = FactorTable.from_values("a", g.incidence["a"], values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * values.nbytes
        assert values.flags.writeable
        np.testing.assert_array_equal(values, before)
        np.testing.assert_array_equal(f.table, before)
        assert not np.shares_memory(f.table, values)
        assert not f.table.flags.writeable
