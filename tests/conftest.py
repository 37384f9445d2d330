import numpy as np
import pytest

from gaugepf import FactorTable, MultiGM, MultiGraph, contract_model, soft_model
from gaugepf.families import matching_model


def make_model(nodes, edges, tables):
    """Model from node ids, (edge, tail, head) triples, and per-node tables."""
    g = MultiGraph.build(nodes, edges)
    factors = {
        a: FactorTable.from_values(a, g.incidence[a], tables[a]) for a in g.nodes
    }
    return MultiGM.from_tables(g, factors)


def k44_model():
    """The K_{4,4} monomer-dimer model with weights log-uniform in ``[1/2,
    2]``, softened once by ``soft_model``."""
    w = np.exp(np.random.default_rng(44).uniform(np.log(0.5), np.log(2.0), (4, 4)))
    return soft_model(matching_model(4, 4, weights=w))


def k44_stages():
    """``(edge, stage)`` along the normal-first sequence of :func:`k44_model`,
    built as ``bp_contract_sequence`` builds it: contracted exactly, ``edge``
    being the one contracted next."""
    stage = k44_model()
    for e in stage.graph.normal_first_order():
        yield e, stage
        stage = contract_model(stage, e)


def k44_stage(slots):
    """The first stage of :func:`k44_stages` whose largest node has ``slots`` slots."""
    for _, stage in k44_stages():
        if max(len(f.variables) for f in stage.factors.values()) == slots:
            return stage
    raise AssertionError(f"no {slots}-slot stage")


@pytest.fixture
def two_node_model():
    """One normal edge, f_a = (1, 2), f_b = (3, 4); Z = 1*3 + 2*4 = 11."""
    return make_model(["a", "b"], [("e1", "a", "b")], {"a": [1, 2], "b": [3, 4]})


@pytest.fixture
def self_edge_model():
    """Single node with one self-edge, table (2, 5, 5, 3); Z = 2 + 3 = 5."""
    return make_model(["s"], [("e", "s", "s")], {"s": [2, 5, 5, 3]})


@pytest.fixture
def loopy_model():
    """Six random soft edges on three nodes.  Loopy, so unlike the one-edge
    models above no single full sweep solves it exactly."""
    from gaugepf.families import random_soft_model

    return random_soft_model(np.random.default_rng(1), 6, n_nodes=3)


@pytest.fixture
def triangle_model():
    """Triangle with all factor entries 1; Z = 2**3 = 8."""
    tables = {a: [1, 1, 1, 1] for a in "abc"}
    return make_model(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")],
        tables,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
