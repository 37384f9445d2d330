"""Brute-force enumeration on the block plan against the per-block rebuild.

The reference below is the enumeration as it was before the block plan:
every block rebuilds each node's table index from the edge bits of the
global configuration indices, and ``Z`` and the MAP configuration come from
two separate passes.  It multiplies the nodes' values in the product order
it derives from the edge positions (the block plan's rule, written out
again), so the gathered values and the order of the products and sums are
the same on both sides, and results must agree bit for bit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugepf.model as model_mod
from gaugepf import (
    ModelError,
    MultiGraph,
    evaluate_weight,
    exact_summary,
    map_energy_exact,
    partition_exact,
    transform_factors,
)
from gaugepf.cli import EXIT_INPUT, EXIT_OK, main, model_digest, serialize_model
from gaugepf.families import attach_random_factors, random_soft_model

from conftest import make_model


# -- reference: rebuild every node index in every block ----------------------


def _grid_axes(m):
    """Per node, the axes of a block's grid its table reads: ``"byte"`` for
    edge bits 0-7 (one axis of ``2**min(|E|, 8)`` entries) and the edge bit
    for each of bits 8-15.  Edge bits 16 and up are one value per block."""
    pos = {e: j for j, e in enumerate(m.graph.edges)}
    return [
        {"byte" if pos[d.edge] < 8 else pos[d.edge]
         for d in m.graph.incidence[a] if pos[d.edge] < 16}
        for a in m.graph.nodes
    ]


def _size(m, axes):
    """Entries of a grid with the given axes."""
    byte = 2 ** min(len(m.graph.edges), 8)
    return math.prod(byte if x == "byte" else 2 for x in axes)


def _products(m, order):
    """Elementwise products of multiplying in ``order``: the sum of the
    running shapes' sizes."""
    axes = _grid_axes(m)
    seen, total = set(), 0
    for k in order:
        seen |= axes[k]
        total += _size(m, seen)
    return total


def _product_order(m):
    """Node positions in smallest-growth order (ties to the earlier node)
    when that takes fewer elementwise products than node order, else in
    node order."""
    axes = _grid_axes(m)
    left, greedy, seen = list(range(len(axes))), [], set()
    while left:
        sizes = [_size(m, seen | axes[k]) for k in left]
        k = left.pop(sizes.index(min(sizes)))
        greedy.append(k)
        seen |= axes[k]
    plain = list(range(len(axes)))
    return greedy if _products(m, greedy) < _products(m, plain) else plain


def _ref_block_weights(m, idx, order):
    pos = {e: j for j, e in enumerate(m.graph.edges)}
    nodes = list(m.graph.nodes)
    w = np.ones(idx.shape, dtype=float)
    for k in order:
        f = m.factors[nodes[k]]
        local = np.zeros(idx.shape, dtype=np.int64)
        for i, d in enumerate(f.variables):
            local |= ((idx >> pos[d.edge]) & 1) << i
        w *= f.table[local]
    return w


def _ref_blocks(m, order=None):
    """Blocks of indices and weights, multiplied in ``order`` (by default
    the product order)."""
    order = _product_order(m) if order is None else order
    n = 1 << len(m.graph.edges)
    block = 1 << 16
    for lo in range(0, n, block):
        idx = np.arange(lo, min(lo + block, n), dtype=np.int64)
        yield idx, _ref_block_weights(m, idx, order)


def _ref_partition(m, order=None):
    total = 0.0
    for _, w in _ref_blocks(m, order):
        total += float(w.sum())
    return total


def _ref_map_energy(m, order=None):
    best = -math.inf
    best_idx = 0
    for idx, w in _ref_blocks(m, order):
        j = int(np.argmax(w))
        if w[j] > best:
            best = float(w[j])
            best_idx = int(idx[j])
    if best <= 0:
        raise ModelError("all configurations have zero weight")
    config = tuple((best_idx >> j) & 1 for j in range(len(m.graph.edges)))
    return -math.log(best), config


# -- models -------------------------------------------------------------------


def _isolated_nodes():
    return make_model(["a", "b"], [], {"a": [7.0], "b": [0.5]})


def _random(n_edges, n_nodes, seed):
    return random_soft_model(np.random.default_rng(seed), n_edges, n_nodes=n_nodes)


def _self_edge_straddles_bit_16():
    # edges e0-e14 all touch the hub (slots 0-14), e15 joins two leaves, and
    # e16 is a self-edge of the hub: edge bit 16, table slots 15 and 16
    leaves = ["l0", "l1", "l2", "l3"]
    edges = [(f"e{j}", "hub", leaves[j % 4]) for j in range(15)]
    edges += [("e15", "l0", "l1"), ("e16", "hub", "hub")]
    graph = MultiGraph.build(["hub"] + leaves, edges)
    return attach_random_factors(graph, np.random.default_rng(5))


def _node_with_only_high_bits():
    # node "h" reads edges 16-19 only, all above the block's low 16 bits
    edges = [(f"e{j}", f"n{j % 5}", f"n{(j + 1) % 5}") for j in range(16)]
    edges += [(f"e{j}", "h", f"n{j % 5}") for j in range(16, 19)]
    edges += [("e19", "h", "h")]
    graph = MultiGraph.build([f"n{i}" for i in range(5)] + ["h"], edges)
    return attach_random_factors(graph, np.random.default_rng(6))


def _negative_entries():
    m = _random(17, 7, 7)
    rng = np.random.default_rng(8)
    x = {d: float(rng.uniform(0.25, 4.0)) for d in m.graph.directed_edges()}
    mt = transform_factors(m, x)
    assert any(np.any(f.table < 0) for f in mt.factors.values())
    return mt


def _tie_across_blocks():
    # edge 16 is a self-edge of "t" whose diagonal is (1, 1): every weight in
    # block 1 equals its counterpart in block 0, so the argmax is in block 0
    base = _random(16, 6, 9)
    nodes = list(base.graph.nodes) + ["t"]
    edges = [(e, *base.graph.endpoints[e]) for e in base.graph.edges]
    edges.append(("e16", "t", "t"))
    tables = {a: base.factors[a].table for a in base.graph.nodes}
    tables["t"] = [1.0, 3.0, 3.0, 1.0]
    return make_model(nodes, edges, tables)


def _node_with_only_byte_1():
    # node "h" reads edges 8-11 only: length 1 on its grid's last axis
    edges = [(f"e{j}", f"n{j % 4}", f"n{(j + 1) % 4}") for j in range(8)]
    edges += [(f"e{j}", "h", f"n{j % 4}") for j in range(8, 12)]
    graph = MultiGraph.build([f"n{i}" for i in range(4)] + ["h"], edges)
    return attach_random_factors(graph, np.random.default_rng(10))


def _self_edge_in_byte_1():
    # e11 is a self-edge of "n2": edge bit 11 sets table slots on one axis
    edges = [(f"e{j}", f"n{j % 5}", f"n{(j + 2) % 5}") for j in range(14)]
    edges[11] = ("e11", "n2", "n2")
    graph = MultiGraph.build([f"n{i}" for i in range(5)], edges)
    return attach_random_factors(graph, np.random.default_rng(11))


def _zero_slot_node_first():
    # "z" has no slots and comes first, so it fills every block with 2.5
    base = _random(20, 8, 12)
    nodes = ["z"] + list(base.graph.nodes)
    edges = [(e, *base.graph.endpoints[e]) for e in base.graph.edges]
    tables = {a: base.factors[a].table for a in base.graph.nodes}
    tables["z"] = [2.5]
    return make_model(nodes, edges, tables)


MODELS = {
    "E0": _isolated_nodes,
    "E1": lambda: _random(1, 2, 1),
    "E15": lambda: _random(15, 6, 15),
    "E16": lambda: _random(16, 7, 16),
    "E17": lambda: _random(17, 7, 17),
    "E20": lambda: _random(20, 8, 20),
    "E21": lambda: _random(21, 9, 21),
    "E22": lambda: _random(22, 11, 22),
    "self_edge_bit_16": _self_edge_straddles_bit_16,
    "only_high_bits": _node_with_only_high_bits,
    "negative_entries": _negative_entries,
    "tie_across_blocks": _tie_across_blocks,
    "E8": lambda: _random(8, 4, 8),
    "E9": lambda: _random(9, 5, 9),
    "only_byte_1": _node_with_only_byte_1,
    "self_edge_byte_1": _self_edge_in_byte_1,
    "zero_slot_node_E20": _zero_slot_node_first,
    # the smallest-growth order takes 1.20 times node order's products here
    "node_order_kept": lambda: _random(20, 12, 14),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_matches_reference_exactly(name):
    m = MODELS[name]()
    z_ref = _ref_partition(m)
    energy_ref, config_ref = _ref_map_energy(m)
    assert partition_exact(m) == z_ref
    assert map_energy_exact(m) == (energy_ref, config_ref)
    assert exact_summary(m) == (z_ref, energy_ref, config_ref)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_product_order_moves_only_last_bits(name):
    """Against node order's products, Z moves by at most 1e-15 relative and
    the argmax not at all."""
    m = MODELS[name]()
    plain = range(len(m.graph.nodes))
    z_plain = _ref_partition(m, plain)
    z, _, config = exact_summary(m)
    assert abs(z - z_plain) <= 1e-15 * abs(z_plain)
    assert config == _ref_map_energy(m, plain)[1]


@st.composite
def small_models(draw):
    """A model with 0-18 edges on 1-6 nodes of at most 12 slots each,
    self-edges and parallel edges included, whose tables may hold zeros."""
    n_edges = draw(st.sampled_from(range(19)))
    n_nodes = draw(st.integers(max(1, -(-n_edges // 6)), 6))
    # slots left per node; the total stays even, so a free slot always remains
    free = [12] * n_nodes
    pairs = []
    for _ in range(n_edges):
        ends = []
        for _ in range(2):
            a = draw(st.sampled_from([a for a in range(n_nodes) if free[a]]))
            free[a] -= 1
            ends.append(a)
        pairs.append(tuple(ends))
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = [(f"e{j}", nodes[t], nodes[h]) for j, (t, h) in enumerate(pairs)]
    graph = MultiGraph.build(nodes, edges)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.floats(0.0, 0.5))
    tables = {}
    for a in nodes:
        table = np.exp(rng.uniform(-30.0, 30.0, 1 << len(graph.incidence[a])))
        table[rng.random(table.size) < zeros] = 0.0
        tables[a] = table
    return make_model(nodes, edges, tables)


@given(small_models())
@settings(max_examples=60, deadline=None)
def test_random_models_match_reference_exactly(m):
    z_ref = _ref_partition(m)
    try:
        energy_ref, config_ref = _ref_map_energy(m)
    except ModelError:
        assert partition_exact(m) == z_ref
        with pytest.raises(ModelError):
            exact_summary(m)
        return
    assert exact_summary(m) == (z_ref, energy_ref, config_ref)


def _check_product_order(m):
    """The plan's order takes no more elementwise products than node order,
    and a node that reads no low edge bit (no slots, or only bits 16 and up)
    is multiplied before every node that reads one, unless node order is
    kept."""
    order = model_mod._block_plan(m).order
    plain = tuple(range(len(m.graph.nodes)))
    assert sorted(order) == list(plain)
    assert _products(m, order) <= _products(m, plain)
    if order != plain:
        axes = _grid_axes(m)
        reads = [bool(axes[k]) for k in order]
        assert reads == sorted(reads)


@given(small_models())
@settings(max_examples=60, deadline=None)
def test_product_order_never_costs_more(m):
    _check_product_order(m)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_product_order_never_costs_more_on_corpus(name):
    _check_product_order(MODELS[name]())


def test_tie_resolves_to_first_block():
    m = _tie_across_blocks()
    _, _, config = exact_summary(m)
    assert config[16] == 0
    flipped = list(config)
    flipped[16] = 1
    assert evaluate_weight(m, flipped) == evaluate_weight(m, config)


def test_all_zero_model():
    m = make_model(
        ["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")],
        {"a": [0.0] * 4, "b": [1.0] * 4},
    )
    assert partition_exact(m) == 0.0
    with pytest.raises(ModelError):
        map_energy_exact(m)
    with pytest.raises(ModelError):
        exact_summary(m)


# -- the exact command ----------------------------------------------------------


def test_cli_report_multi_block(capsys, tmp_path):
    m = _random(20, 8, 20)
    path = tmp_path / "m20.json"
    path.write_text(serialize_model(m))
    assert main(["exact", str(path)]) == EXIT_OK
    energy, config = _ref_map_energy(m)
    report = {
        "command": "exact",
        "model_digest": model_digest(m),
        "results": {
            "Z": _ref_partition(m),
            "map_energy": energy,
            "argmax": "".join(str(b) for b in config),
            "edge_order": list(m.graph.edges),
        },
    }
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected


def test_cli_all_zero_model_exit_three(capsys, tmp_path):
    m = make_model(["a", "b"], [("e1", "a", "b")], {"a": [0.0, 0.0], "b": [1.0, 2.0]})
    path = tmp_path / "zero.json"
    path.write_text(serialize_model(m))
    assert main(["exact", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero weight" in captured.err


def test_cli_guard_before_enumeration(capsys, tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(model_mod, "_block_weights", fail)
    path = tmp_path / "m20.json"
    path.write_text(serialize_model(_random(20, 8, 20)))
    assert main(["exact", str(path), "--guard", "19"]) == EXIT_INPUT
    assert "enumeration guard" in capsys.readouterr().err


def test_cli_guard_then_report_in_one_process(capsys, tmp_path):
    # main reuses one parser: the first call's --guard must not carry over
    m = _random(20, 8, 20)
    path = tmp_path / "m20.json"
    path.write_text(serialize_model(m))
    assert main(["exact", str(path), "--guard", "19"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["exact", str(path)]) == EXIT_OK
    energy, config = _ref_map_energy(m)
    report = {
        "command": "exact",
        "model_digest": model_digest(m),
        "results": {
            "Z": _ref_partition(m),
            "map_energy": energy,
            "argmax": "".join(str(b) for b in config),
            "edge_order": list(m.graph.edges),
        },
    }
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"
