import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gaugepf import (
    DirectedEdge,
    EnumerationGuardError,
    FactorTable,
    ModelError,
    MultiGM,
    MultiGraph,
    contract_model,
    evaluate_weight,
    exact_summary,
    map_energy_exact,
    partition_exact,
    soft_model,
    soften,
)
from gaugepf.families import random_soft_model
from gaugepf.model import SOFTEN_EPS

from conftest import k44_stages, make_model


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

    def test_scratch_memory_bound(self):
        """A pass keeps one full-block buffer (512 KiB) and at most one
        half-block buffer beside the per-node grids, whatever the edge count."""
        for seed in range(4):
            m = random_soft_model(np.random.default_rng(seed), 22, n_nodes=10)
            tracemalloc.start()
            try:
                exact_summary(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20


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

    def test_keeps_tables_with_nothing_to_clamp(self):
        # an entry exactly at the floor is not clamped; one below it is
        m = make_model(["a", "b"], [("e", "a", "b")],
                       {"a": [1e-12, 1.0], "b": [0.0, 1.0]})
        s = soften(m, 1e-12)
        assert s.factors["a"] is m.factors["a"]
        b = s.factors["b"]
        assert b is not m.factors["b"] and b.table is not m.factors["b"].table
        np.testing.assert_array_equal(b.table, [1e-12, 1.0])
        np.testing.assert_array_equal(m.factors["b"].table, [0.0, 1.0])
        assert not b.table.flags.writeable

    def test_all_zero_table(self):
        m = make_model(["a"], [("e", "a", "a")], {"a": [0, 0, 0, 0]})
        with pytest.raises(ModelError):
            soften(m, 1e-12)

    def test_soft_model_softens_only_hard_models(self):
        # a soft model is kept, entries below the floor included; a hard one
        # is softened at SOFTEN_EPS
        soft = make_model(["a", "b"], [("e", "a", "b")],
                          {"a": [1e-15, 1.0], "b": [1.0, 1.0]})
        assert soft.factors["a"].table[0] < SOFTEN_EPS * soft.factors["a"].table.max()
        assert soft_model(soft) is soft
        hard = make_model(["a", "b"], [("e", "a", "b")],
                          {"a": [0.0, 2.0], "b": [1.0, 1.0]})
        s, ref = soft_model(hard), soften(hard, SOFTEN_EPS)
        assert s is not hard and s.is_soft
        for a in hard.graph.nodes:
            np.testing.assert_array_equal(s.factors[a].table, ref.factors[a].table)

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

    @pytest.mark.parametrize("edge,entry", [("e", 1e300), ("s", 1e308)])
    def test_overflow_named_without_warning(self, edge, entry):
        # a normal edge overflows the product, a self-edge the diagonal sum
        m = make_model(
            ["a", "b"], [("e", "a", "b"), ("s", "a", "a")],
            {"a": [entry] * 8, "b": [entry] * 2},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ModelError) as exc:
                contract_model(m, edge)
        assert str(exc.value) == (
            f"contracting {edge!r} overflows the merged table at node 'a'"
        )

    def test_unknown_edge(self, two_node_model):
        from gaugepf import GraphError

        with pytest.raises(GraphError):
            contract_model(two_node_model, "nope")

    def test_matches_transposed_reference(self, rng):
        """Self-edges at every ordered slot pair, parallel edges and 0-slot
        results: every edge, then a whole normal-first sequence."""
        models = [random_soft_model(rng, n, n_nodes=3) for n in (2, 4, 6, 7)]
        models += [random_soft_model(rng, 5, n_nodes=1)]
        for k in (3, 4):
            for i, j in itertools.permutations(range(k), 2):
                models.append(_self_edge_at(rng, k, i, j))
        for m in models:
            for e in m.graph.edges:
                _assert_same_model(contract_model(m, e), _ref_contract_model(m, e))
            for e in m.graph.normal_first_order():
                c = contract_model(m, e)
                _assert_same_model(c, _ref_contract_model(m, e))
                m = c
            assert all(f.table.size == 1 for f in m.factors.values())

    def test_k44_sequence_matches_reference(self):
        for e, stage in k44_stages():
            _assert_same_model(contract_model(stage, e), _ref_contract_model(stage, e))

    def test_merged_table_memory(self):
        """The bit-0 outer product is the merged table and the bit-1 part is
        added into it slice by slice, so no transposed copy or second table
        is made, and the merged array becomes the new table without a copy:
        a large stage peaks at the merged table and one slice, the larger
        operand's size, plus the model's bookkeeping."""
        for e, stage in k44_stages():
            tail, head = stage.graph.endpoints[e]
            node = min(tail, head)
            tracemalloc.start()
            try:
                c = contract_model(stage, e)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if len(c.factors[node].variables) >= 14:
                assert peak <= 2.25 * c.factors[node].table.nbytes, e

    @pytest.mark.parametrize("big", ["a", "b"])
    def test_sliced_merge_matches_reference(self, big, rng):
        """A merged table past ``2**_SLICE_BITS`` entries takes its bit-1
        part in slices, whether the larger operand is the survivor's (``a``)
        or the absorbed node's (``b``); every entry is the reference's, bit
        for bit."""
        from gaugepf.families import attach_random_factors
        from gaugepf.model import _SLICE_BITS

        small = "b" if big == "a" else "a"
        edges = [(f"s{i}", big, big) for i in range(6)] + [("e", "a", "b")]
        edges += [("t", small, small)]
        m = attach_random_factors(MultiGraph.build(["a", "b"], edges), rng)
        c = contract_model(m, "e")
        assert c.factors["a"].table.size > 2**_SLICE_BITS
        _assert_same_model(c, _ref_contract_model(m, "e"))


def _ref_contract_model(m, edge):
    """``contract_model`` as written before the C-order views: F-order
    arrays, ``np.take`` and a transposed ``reshape(-1, order="F")`` copy."""
    g2 = m.graph.contract_edge(edge)
    tail, head = m.graph.endpoints[edge]
    factors = {a: f for a, f in m.factors.items() if a in g2.incidence}
    if tail == head:
        node = tail
        f = m.factors[node]
        arr = f.as_array()
        ip = f.variables.index(DirectedEdge(edge, True))
        iq = f.variables.index(DirectedEdge(edge, False))
        d0 = np.take(np.take(arr, 0, axis=max(ip, iq)), 0, axis=min(ip, iq))
        d1 = np.take(np.take(arr, 1, axis=max(ip, iq)), 1, axis=min(ip, iq))
        merged = d0 + d1
        new_vars = tuple(d for d in f.variables if d.edge != edge)
    else:
        node, absorbed = (tail, head) if tail <= head else (head, tail)
        fs, fa = m.factors[node], m.factors[absorbed]
        slot_s = next(i for i, d in enumerate(fs.variables) if d.edge == edge)
        slot_a = next(i for i, d in enumerate(fa.variables) if d.edge == edge)
        parts = []
        for v in (0, 1):
            s_part = np.take(fs.as_array(), v, axis=slot_s)
            a_part = np.take(fa.as_array(), v, axis=slot_a)
            parts.append(np.multiply.outer(s_part, a_part))
        merged = parts[0] + parts[1]
        new_vars = tuple(d for d in fs.variables if d.edge != edge) + tuple(
            d for d in fa.variables if d.edge != edge
        )
    factors[node] = FactorTable.from_values(
        node, new_vars, merged.reshape(-1, order="F")
    )
    return MultiGM.from_tables(g2, factors)


def _assert_same_model(got, want):
    assert got.graph == want.graph
    assert set(got.factors) == set(want.factors)
    for a, f in want.factors.items():
        assert got.factors[a].variables == f.variables
        assert np.array_equal(got.factors[a].table, f.table), a


def _self_edge_at(rng, k, i, j):
    """Node ``a`` with ``k`` slots: self-edge ``s`` with its positive slot at
    ``i`` and its negative one at ``j``, the others parallel edges to ``b``."""
    parallel = [(f"p{n}", *("ab" if n % 2 else "ba")) for n in range(k - 2)]
    g = MultiGraph.build(["a", "b"], [("s", "a", "a")] + parallel)
    rest = [d for d in g.incidence["a"] if d.edge != "s"]
    order = {i: DirectedEdge("s", True), j: DirectedEdge("s", False)}
    incidence = dict(g.incidence)
    incidence["a"] = tuple(order[n] if n in order else rest.pop(0) for n in range(k))
    g = MultiGraph(g.nodes, g.edges, g.endpoints, incidence)
    factors = {
        a: FactorTable.from_values(a, ds, rng.uniform(0.5, 2.0, 2 ** len(ds)))
        for a, ds in g.incidence.items()
    }
    return MultiGM.from_tables(g, factors)


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
