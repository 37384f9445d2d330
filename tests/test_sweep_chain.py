"""The solver's sweep-ordered node chains against from-scratch reductions.

The reference rebuilds a node's weighted table at every edge update with
``node_weights`` (the edge's own slots weighted by one) and then folds away
every slot but the edge's, top slot first.  It uses no chain code of
``gaugepf.bp``.  The chain sums each edge step leaves in the sweep plan's
``sums`` buffer are recorded and replayed: a normal edge's two endpoint
sums ``a``, ``b`` through the message ratio ``(b1 / b0, a1 / a0)``, a
self-edge's 2x2 block ``h`` through ``_pair_update``.  So each recorded
input is compared with the reference (``a`` times ``b`` on a normal edge)
at exactly the gauge the solver had when it read it.  Gauges are laid out
as the solver keeps them: one column per restart, edge ``i``'s positive
and negative darts on rows ``2i`` and ``2i + 1``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugepf.bp as bp_mod
from gaugepf.bp import (
    DegenerateEdgeError,
    SolverConfig,
    _restarts,
    bp_contract_sequence,
    solve_bp,
)
from gaugepf.families import attach_random_factors, matching_model
from gaugepf.gauge import gauge_function, monomials, node_weights
from gaugepf.multigraph import DirectedEdge, MultiGraph

from conftest import k44_model, k44_stage
from test_batched_solver import reference_restarts

REL = 1e-12


# -- reference ----------------------------------------------------------------


def _fold_all_but(w, keep):
    """Rows of ``W`` summed over every slot not in ``keep``, top slot first.

    Returns ``(R, 2**len(keep))``; bit ``t`` of the index is the bit of the
    ``t``-th smallest slot in ``keep``.
    """
    rows, n = w.shape
    for s in reversed(range(n.bit_length() - 1)):
        if s not in keep:
            v = w.reshape(rows, -1, 2, 1 << s)
            w = (v[:, :, 0] + v[:, :, 1]).reshape(rows, -1)
    return w


def _reference_quad(m, col, x, edge):
    """``(R, 2, 2)`` local quadratic ``h[b_plus, b_minus]`` of ``edge`` from scratch.

    ``x`` holds one gauge per column, its rows placed by ``col``.
    """
    tail, head = m.graph.endpoints[edge]
    d_p, d_q = DirectedEdge(edge, True), DirectedEdge(edge, False)
    sums = {}
    for a in {tail, head}:
        f = m.factors[a]
        w1 = x[[col[d] for d in f.variables]].T.copy()
        mine = [i for i, d in enumerate(f.variables) if d.edge == edge]
        w1[:, mine] = 1.0
        sums[a] = _fold_all_but(node_weights(f.table, w1), mine)
    if tail == head:
        f = m.factors[tail]
        h = sums[tail].reshape(-1, 2, 2)  # [higher slot's bit, lower slot's bit]
        plus_low = f.variables.index(d_p) < f.variables.index(d_q)
        return h.transpose(0, 2, 1) if plus_low else h
    return sums[tail][:, :, None] * sums[head][:, None, :]


def _check_chain(m, x0, cfg, monkeypatch):
    """Run ``_lockstep`` and check every edge's chain sums against the reference.

    Also checks each restart's final gauge bit for bit against the replay,
    and its value against ``gauge_function``.  Returns the solver's
    per-restart results.
    """
    edges = sorted(m.graph.edges)
    lay = bp_mod._Layout.of(m, edges)
    row_of = {d: j for j, d in enumerate(lay.darts)}
    calls = []
    real_sweep = bp_mod._sweep

    def spy(plan, cfg):
        steps = plan.steps

        def recording():
            for step in steps:
                yield step
                calls.append(plan.sums.copy())  # what the step just read

        plan.steps = recording()
        real_sweep(plan, cfg)
        plan.steps = steps

    monkeypatch.setattr(bp_mod, "_sweep", spy)
    out = bp_mod._lockstep(lay, x0, cfg)
    monkeypatch.undo()

    sweeps = np.array([g.sweeps for g in out])
    x = x0.copy()
    calls = iter(calls)
    lo, hi = bp_mod._CLAMP
    for sweep in range(1, sweeps.max() + 1):
        active = np.flatnonzero(sweeps >= sweep)
        for i, e in enumerate(edges):
            got = next(calls)
            ref = _reference_quad(m, row_of, x[:, active], e)
            tail, head = m.graph.endpoints[e]
            if tail == head:  # got is h[row, bit_p, bit_q]
                np.testing.assert_allclose(got, ref, rtol=REL)
                target = np.empty((2, len(active)))
                bp_mod._pair_update(got.reshape(-1, 4).T.copy(), target)
            else:  # got holds the endpoint sums a = got[:, 0], b = got[:, 1]
                a, b = got[:, 0], got[:, 1]
                np.testing.assert_allclose(a[:, :, None] * b[:, None, :], ref, rtol=REL)
                target = np.stack([b[:, 1] / b[:, 0], a[:, 1] / a[:, 0]])
            rows = [2 * i, 2 * i + 1]
            step = cfg.damping * x[np.ix_(rows, active)] + (1.0 - cfg.damping) * target
            x[np.ix_(rows, active)] = np.minimum(np.maximum(step, lo), hi)
        for r in active[sweeps[active] == sweep]:
            np.testing.assert_array_equal(lay.column(out[r].x)[:, 0], x[:, r])
    assert next(calls, None) is None
    for g in out:
        assert g.value == pytest.approx(gauge_function(m, g.x), rel=REL)
    return out


def _x0(m, rows, seed):
    shape = (2 * len(m.graph.edges), rows)
    return np.exp(np.random.default_rng(seed).uniform(np.log(0.25), np.log(4.0), shape))


# -- models -------------------------------------------------------------------


def _model(edges, seed, contract=(), isolated=()):
    nodes = sorted({a for _, t, h in edges for a in (t, h)}) + list(isolated)
    g = MultiGraph.build(nodes, edges)
    for e in contract:
        g = g.contract_edge(e)
    return attach_random_factors(g, np.random.default_rng(seed))


MODELS = {
    # hub's self-edge on its table's low slots; swept last
    "self_low": lambda: _model(
        [("z", "h", "h"), ("a", "h", "p"), ("b", "p", "h"), ("c", "h", "q")], 1
    ),
    # self-edge on the high slots; swept first
    "self_high": lambda: _model(
        [("b", "h", "p"), ("c", "q", "h"), ("d", "h", "p"), ("a", "h", "h")], 2
    ),
    # contracting "a" turns its parallel partner "m" into a self-edge with
    # two other slots between its own; swept in the middle
    "self_split": lambda: _model(
        [("b", "h", "q"), ("a", "h", "p"), ("c", "p", "q"), ("x", "p", "q"),
         ("m", "h", "p")], 3, contract=["a"],
    ),
    # three parallel edges and a two-edge cycle
    "parallel": lambda: _model(
        [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "v"), ("d", "v", "w"),
         ("e", "w", "v")], 4,
    ),
    # 13-slot hub: five normal edges (two parallel) and four self-edges
    "hub": lambda: _model(
        [("s1", "h", "h"), ("n1", "h", "a"), ("s2", "h", "h"), ("n2", "b", "h"),
         ("n3", "h", "b"), ("s3", "h", "h"), ("n4", "h", "c"), ("n5", "d", "h"),
         ("s4", "h", "h")], 5,
    ),
    # every slot count from 0 to 4: an isolated node, a leaf, a class of
    # three 2-slot nodes on a cycle, and a hub with a self-edge.  Edges "s"
    # and "s," put the str-sorted darts (s+, s,+, s,-, s-) in another order
    # than the sweep's rows (s+, s-, s,+, s,-).
    "mixed": lambda: _model(
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "a"),
         ("s", "h", "h"), ("s,", "h", "a"), ("l", "h", "leaf")], 6, isolated=["iso"],
    ),
}


def test_models_cover_slot_positions():
    def positions(m, node, edge):
        v = m.factors[node].variables
        return [i for i, d in enumerate(v) if d.edge == edge], len(v)

    assert positions(MODELS["self_low"](), "h", "z") == ([0, 1], 5)
    assert positions(MODELS["self_high"](), "h", "a") == ([3, 4], 5)
    split, _ = positions(MODELS["self_split"](), "h", "m")
    assert split[1] - split[0] > 1
    hub = MODELS["hub"]()
    assert max(len(f.variables) for f in hub.factors.values()) >= 12
    mixed = MODELS["mixed"]()
    lay = bp_mod._Layout.of(mixed, sorted(mixed.graph.edges))
    assert {k: len(t) for k, t in lay.tables.items()} == {0: 1, 1: 1, 2: 3, 3: 1, 4: 1}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_two_sweeps_match_reference(name, rows, monkeypatch):
    m = MODELS[name]()
    cfg = SolverConfig(max_sweeps=2)
    out = _check_chain(m, _x0(m, rows, seed=rows), cfg, monkeypatch)
    assert [g.sweeps for g in out] == [2] * rows


def test_row_retiring_mid_solve(monkeypatch):
    m = MODELS["self_split"]()
    g = solve_bp(m, SolverConfig(restarts=2))
    assert g.converged
    darts = bp_mod._Layout.of(m, sorted(m.graph.edges)).darts
    x0 = _x0(m, 3, seed=7)
    x0[:, 1] = [g.x[d] for d in darts]  # a fixed point: done after one sweep
    out = _check_chain(m, x0, SolverConfig(max_sweeps=3), monkeypatch)
    assert [g.sweeps for g in out] == [3, 1, 3]
    assert out[1].converged


# -- the chain step on its own ---------------------------------------------------


def _chain_sums(t, mono, g):
    """``(R, 2**g)``: chain ``t`` per pattern of its top ``g`` bits, through
    the operands an edge step multiplies."""
    return np.matmul(*bp_mod._chain_operands(t, mono, g))[:, :, 0]


@given(
    k=st.integers(2, 10),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_chain_sums_match_brute_force(k, rows, seed, data):
    """Pair and single-slot sums of a table with two slots moved to the top."""
    rng = np.random.default_rng(seed)
    table = np.exp(rng.uniform(-2.3, 2.3, 1 << k))
    w1 = np.exp(rng.uniform(-2.3, 2.3, (rows, k)))
    i, j = data.draw(
        st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
    )

    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    others = [s for s in range(k) if s not in (i, j)]
    weight = np.prod(np.where(bits[None, :, others], w1[:, None, others], 1.0), axis=2)
    brute = np.array([[[(table * weight[r])[(bits[:, i] == u) & (bits[:, j] == v)].sum()
                        for v in (0, 1)] for u in (0, 1)] for r in range(rows)])

    # slot i on the top bit, slot j below it, the others in order below
    order = others + [j, i]
    top = table.reshape((2,) * k, order="F").transpose(order).reshape(-1, order="F")
    mono = monomials(w1[:, others])
    pair = _chain_sums(top, mono, 2)
    np.testing.assert_allclose(pair.reshape(-1, 2, 2), brute, rtol=1e-12)
    # slot i alone on top, slot j weighted among the low bits
    single = _chain_sums(top, monomials(w1[:, others + [j]]), 1)
    wj = w1[:, j, None]
    np.testing.assert_allclose(single, brute[:, :, 0] + wj * brute[:, :, 1], rtol=1e-12)
    # slot i folded away under its weight, as a sweep step folds it: slot j
    # is the chain's top bit
    halves = top.reshape(2, -1)
    folded = halves[0] + w1[:, i, None] * halves[1]
    after = _chain_sums(folded, mono, 1)
    wi = w1[:, i, None]
    np.testing.assert_allclose(after, brute[:, 0] + wi * brute[:, 1], rtol=1e-12)

    for r in range(rows):
        one = monomials(w1[r : r + 1, others])
        np.testing.assert_array_equal(_chain_sums(top, one, 2)[0], pair[r])
        np.testing.assert_array_equal(
            _chain_sums(folded[r : r + 1], one, 1)[0], after[r]
        )


# -- a large table against the restart-by-restart reference ----------------------


def test_k44_eighteen_slot_stage_matches_reference():
    """The 18-slot stage of the softened K_{4,4} normal-first sequence."""
    cfg = SolverConfig(restarts=1, max_sweeps=5)
    stage = k44_stage(18)
    assert [len(f.variables) for f in stage.factors.values()] == [18]

    (x, _, value, sweeps, *_), = reference_restarts(stage, cfg)
    (g,) = _restarts(stage, cfg)
    assert g.sweeps == sweeps
    assert g.value == pytest.approx(value, rel=1e-9)
    assert g.x == pytest.approx(x, rel=1e-9)


def test_mixed_slot_counts_match_reference():
    """Every slot-count stack, a 0-slot node's constant in the value, and the
    initial gauges drawn in str-sorted dart order."""
    m = MODELS["mixed"]()
    cfg = SolverConfig(restarts=3)
    ref = reference_restarts(m, cfg)
    new = _restarts(m, cfg)
    for (x, _, value, sweeps, converged, _), g in zip(ref, new):
        assert g.converged == converged
        assert g.sweeps == sweeps
        assert g.value == pytest.approx(value, rel=1e-9)
        assert g.x == pytest.approx(x, rel=1e-9)


def test_hard_model_raises_degenerate_edge():
    """The sweep's own check: a one-slot column node of a perfect matching
    has table (0, 1), so every edge's ``h10`` is 0."""
    m = matching_model(1, 2, perfect=True)
    assert not m.is_soft
    with pytest.raises(DegenerateEdgeError, match="soften"):
        _restarts(m, SolverConfig(restarts=2))


def test_plan_memory_bound():
    """A batch keeps two ``(rows, 2**k)`` arrays per ``k``-slot node (see
    ``_BATCH_ENTRIES``): the weight vectors, and the buffer that the
    residual pass weighs the table into and folds it in, and a sweep folds
    the chain into.  The contiguous copy of the table that the chains start
    from (``_Layout.stacks``; the layout itself reads the one-node table in
    place) adds a quarter of one.  The 16-slot stage of the softened
    K_{4,4} normal-first sequence runs its 16 restarts in batches of 4."""
    cfg = SolverConfig(restarts=16, max_sweeps=3)
    stage = k44_stage(16)
    k = max(len(f.variables) for f in stage.factors.values())
    rows = bp_mod._BATCH_ENTRIES >> k
    assert (k, rows) == (16, 4)

    tracemalloc.start()
    try:
        _restarts(stage, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rows * 2**k * 8


def test_checked_stage_memory_bound():
    """A checked warm start and ``bp_residual`` weigh the table into the
    weight vector and fold it there, reading the one-node table in place:
    they peak at one table-sized array, the weight vector.  The 18-slot
    stage of the softened K_{4,4} normal-first sequence follows its last
    normal-edge contraction, so the previous stage's gauge passes the check."""
    cfg = SolverConfig(restarts=2)
    m = k44_model()
    stages = bp_contract_sequence(m, m.graph.normal_first_order(), cfg)
    stage = k44_stage(18)
    (kept,) = [s for s in stages if s.n_edges == len(stage.graph.edges)]
    assert kept.warm and kept.gauge.sweeps == 0

    def peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    table = 2**18 * 8
    _, residual_peak = peak(lambda: bp_mod.bp_residual(stage, kept.gauge.x))
    assert residual_peak <= 1.1 * table
    g, check_peak = peak(lambda: bp_mod._warm_solve(stage, kept.gauge.x, cfg, True))
    assert g.sweeps == 0
    assert check_peak <= 1.1 * table


def test_k44_sequence_memory_bound():
    """The whole softened K_{4,4} normal-first sequence peaks at its checked
    18-slot stage: that stage's table, the check's weight vector and the
    tables of the stages before it, under 2.5 tables of ``2**18`` entries."""
    m = k44_model()
    order = m.graph.normal_first_order()
    tracemalloc.start()
    try:
        bp_contract_sequence(m, order, SolverConfig(restarts=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**18 * 8


def test_one_node_table_read_in_place(monkeypatch):
    """A slot count ``k >= _IN_PLACE_BITS`` held by one node, the hub's 13,
    keeps that node's ``FactorTable.table`` in the layout as a view, with no
    copy; smaller counts, one-node or not, are stacked as before.  The sweep
    plan's chains and the lockstep's residual passes read
    ``_Layout.stacks``, a contiguous copy of the view, and every table
    holds the same entries in both."""
    m = MODELS["hub"]()
    lay = bp_mod._Layout.of(m)
    assert {k: len(t) for k, t in lay.tables.items()} == {13: 1, 1: 3, 2: 1}
    for a, (k, i) in lay.place.items():
        view = lay.tables[k]
        assert np.shares_memory(view, m.factors[a].table) == (k == 13)
        assert view.shape == ((1,) + (2,) * k if k == 13 else (len(view), 1 << k))
        stack = lay.stacks[k]
        assert stack.flags.c_contiguous and stack.shape == (len(view), 1 << k)
        assert not np.shares_memory(stack, m.factors[a].table)
        np.testing.assert_array_equal(view.reshape(stack.shape), stack)
    assert bp_mod._IN_PLACE_BITS <= 13

    x = _x0(m, 2, seed=0)
    plan = bp_mod._Plan(lay, x)
    for t, _, _ in plan.steps[0][0]:  # the first edge's chains are whole tables
        assert any(np.shares_memory(t, s) for s in lay.stacks.values())
    passes, real_pass = [], bp_mod._residual_parts

    def spy(*args):
        passes.append(args[4])
        return real_pass(*args)

    monkeypatch.setattr(bp_mod, "_residual_parts", spy)
    bp_mod._lockstep(lay, x, SolverConfig(max_sweeps=3))
    assert passes and all(tables is lay.stacks for tables in passes)
