import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugepf.multigraph import DirectedEdge, GraphError, MultiGraph


def path_graph():
    return MultiGraph.build(["a", "b"], [("e1", "a", "b")])


class TestSibling:
    def test_reversal(self):
        g = path_graph()
        assert g.sibling(DirectedEdge("e1", True)) == DirectedEdge("e1", False)

    @given(st.text(min_size=1, max_size=8), st.booleans())
    def test_involution(self, edge, positive):
        d = DirectedEdge(edge, positive)
        assert d.sibling.sibling == d

    def test_unknown_edge(self):
        with pytest.raises(GraphError):
            path_graph().sibling(DirectedEdge("nope", True))

    def test_parse_roundtrip(self):
        for name in ("e1+", "e1-", "x+"):
            assert str(DirectedEdge.parse(name)) == name
        with pytest.raises(ValueError):
            DirectedEdge.parse("e1")


class TestIncidence:
    def test_normal_edge_polarity(self):
        g = path_graph()
        assert g.incidence["a"] == (DirectedEdge("e1", True),)
        assert g.incidence["b"] == (DirectedEdge("e1", False),)
        assert g.owner(DirectedEdge("e1", True)) == "a"

    def test_self_edge_owns_both(self):
        g = MultiGraph.build(["s"], [("e", "s", "s")])
        assert g.incidence["s"] == (
            DirectedEdge("e", True),
            DirectedEdge("e", False),
        )
        assert g.is_self_edge("e")

    def test_every_directed_edge_once(self):
        g = MultiGraph.build(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "b", "b"), ("e3", "c", "a")],
        )
        all_darts = g.directed_edges()
        assert len(all_darts) == len(set(all_darts)) == 2 * len(g.edges)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph.build(["a", "a"], [])
        with pytest.raises(GraphError):
            MultiGraph.build(["a"], [("e", "a", "a"), ("e", "a", "a")])
        with pytest.raises(GraphError):
            MultiGraph.build(["a"], [("e", "a", "zzz")])


class TestContraction:
    def test_path_collapses(self):
        g = path_graph().contract_edge("e1")
        assert g.nodes == ("a",)
        assert g.edges == ()

    def test_parallel_edge_becomes_self_edge(self):
        g = MultiGraph.build(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        g2 = g.contract_edge("e1")
        assert g2.nodes == ("a",)
        assert g2.edges == ("e2",)
        assert g2.is_self_edge("e2")
        assert g2.incidence["a"] == (
            DirectedEdge("e2", True),
            DirectedEdge("e2", False),
        )

    def test_triangle_to_bouquet_any_order(self):
        g = MultiGraph.build(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")],
        )
        assert g.cycle_rank() == 1
        for first, second in [("e1", "e2"), ("e2", "e3"), ("e3", "e1")]:
            h = g.contract_edge(first).contract_edge(second)
            assert len(h.nodes) == 1
            assert len(h.edges) == 1
            assert h.is_self_edge(h.edges[0])

    def test_smaller_id_survives(self):
        g = MultiGraph.build(["z", "b"], [("e1", "z", "b")])
        assert g.contract_edge("e1").nodes == ("b",)

    def test_counts(self):
        g = MultiGraph.build(["a", "b"], [("e1", "a", "b"), ("e2", "a", "a")])
        g_normal = g.contract_edge("e1")
        assert (len(g_normal.nodes), len(g_normal.edges)) == (1, 1)
        g_self = g.contract_edge("e2")
        assert (len(g_self.nodes), len(g_self.edges)) == (2, 1)

    def test_unknown_edge(self):
        with pytest.raises(GraphError):
            path_graph().contract_edge("nope")


class TestCheckOrder:
    @staticmethod
    def graph():
        return MultiGraph.build(
            ["a", "b"], [("e1", "a", "b"), ("e2", "b", "a"), ("e3", "a", "a")]
        )

    def test_accepts_every_permutation(self):
        g = self.graph()
        for order in itertools.permutations(g.edges):
            g.check_order(order)

    def test_names_missing_repeated_and_unknown_edges(self):
        g = self.graph()
        with pytest.raises(GraphError) as err:
            g.check_order(["e1", "zz", "e3", "e1"])
        assert str(err.value) == (
            "order must list every edge exactly once: "
            "missing 'e2'; repeated 'e1'; unknown 'zz'"
        )
        with pytest.raises(GraphError, match=r"missing 'e1', 'e2', 'e3'$"):
            g.check_order([])


class TestNormalFirstOrder:
    def test_tree_all_normal_smallest_first(self):
        g = MultiGraph.build(
            ["a", "b", "c", "d"],
            [("e3", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
        )
        assert g.normal_first_order() == ["e1", "e2", "e3"]

    def test_triangle_two_normal_then_self(self):
        g = MultiGraph.build(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")],
        )
        order = g.normal_first_order()
        assert order == ["e1", "e2", "e3"]
        h = g.contract_edge("e1").contract_edge("e2")
        assert h.is_self_edge("e3")

    def test_bouquet_in_id_order(self):
        g = MultiGraph.build(
            ["s"], [("e2", "s", "s"), ("e1", "s", "s"), ("e3", "s", "s")]
        )
        assert g.normal_first_order() == ["e1", "e2", "e3"]

    def test_prefix_keeps_normal_first(self, rng):
        for _ in range(20):
            g = _random_graph(rng)
            current = g
            for e in g.normal_first_order():
                has_normal = any(not current.is_self_edge(x) for x in current.edges)
                if has_normal:
                    assert not current.is_self_edge(e)
                current = current.contract_edge(e)


def _random_graph(rng, max_nodes=5, max_edges=7):
    n = int(rng.integers(1, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for j in range(int(rng.integers(0, max_edges + 1))):
        a, b = rng.integers(0, n, size=2)
        edges.append((f"e{j}", nodes[int(a)], nodes[int(b)]))
    return MultiGraph.build(nodes, edges)


class TestBouquetInvariance:
    def test_final_self_edge_count(self, rng):
        for _ in range(50):
            g = _random_graph(rng)
            expected = len(g.edges) - len(g.nodes) + g.connected_components()
            current = g
            n_normal = 0
            for e in g.normal_first_order():
                if not current.is_self_edge(e):
                    n_normal += 1
                    current = current.contract_edge(e)
                else:
                    break
            assert len(current.edges) == expected
            assert all(current.is_self_edge(e) for e in current.edges)
