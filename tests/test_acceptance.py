"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; every expected value is either a hand-derived constant or computed by
the brute-force enumeration oracles in this file.
"""

import itertools
import json
import math

import numpy as np
import pytest

import gaugepf.gauge
from gaugepf import (
    bethe_free_energy,
    bp_contract_sequence,
    bp_value,
    build,
    contract_model,
    enumerate_generalized_loops,
    exact_contract_poly,
    edge_pair_update,
    gauge_function,
    h_node,
    loop_term,
    loop_series_sum,
    marginals_from_gauge,
    minimize_bethe_direct,
    partition_exact,
    q_node,
    quad_coeffs,
    saddle_check,
    sequence_decreases,
    solve_bp,
    transform_factors,
    z_sigma,
    zeta_eval,
)
from gaugepf.bp import SolverConfig
from gaugepf.cli import main as cli_main
from gaugepf.cli import serialize_model, parse_model
from gaugepf.families import (
    matching_model,
    permanent_bruteforce,
    permanent_model,
    random_soft_model,
    random_tree_model,
)
from gaugepf.multigraph import DirectedEdge as D
from gaugepf.poly import QuadCoeffs

from conftest import make_model


def _criterion(n, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {n:02d}: {description}{suffix}")
    assert ok, f"criterion {n:02d} {description}: {detail}"


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _random_gauge(m, rng, lo=0.25, hi=4.0):
    return {
        d: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for d in sorted(m.graph.directed_edges(), key=str)
    }


@pytest.fixture(scope="module")
def solved_pool():
    """Fifty random soft models with converged maximal gauges (criteria 6-8)."""
    rng = np.random.default_rng(808)
    pool = []
    for _ in range(50):
        m = random_soft_model(rng, int(rng.integers(2, 7)))
        g = solve_bp(m, SolverConfig(restarts=4, seed=int(rng.integers(1 << 31))))
        assert g.converged
        pool.append((m, g))
    return pool


def test_c01_gauge_invariance():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = random_soft_model(rng, int(rng.integers(1, 9)))
        z = partition_exact(m)
        for _ in range(10):
            x = _random_gauge(m, rng)
            zt = partition_exact(transform_factors(m, x))
            worst = max(worst, _rel(zt, z))
    _criterion(
        1,
        "gauge invariance over 100 models x 10 gauges",
        worst <= 1e-9,
        f"max rel err {worst:.2e}",
    )


def test_c02_orthogonality():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        x_p, x_q = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2))
        prod = gaugepf.gauge.gauge_matrix(x_p, x_q).T @ gaugepf.gauge.gauge_matrix(
            x_q, x_p
        )
        worst = max(worst, float(np.abs(prod - np.eye(2)).max()))
    _criterion(
        2,
        "gauge-matrix orthogonality over 1000 pairs",
        worst <= 1e-13,
        f"max entrywise err {worst:.2e}",
    )


def test_c03_c04_differentiate_marginalize_and_equivalence():
    rng = np.random.default_rng(103)
    worst_scalar = 0.0
    worst_stage = 0.0
    for _ in range(100):
        m = random_soft_model(rng, int(rng.integers(1, 9)))
        z = partition_exact(m)
        order = list(m.graph.edges)
        rng.shuffle(order)
        h = build(m)
        current = m
        for e in order:
            h = exact_contract_poly(h, e)
            current = contract_model(current, e)
            for _ in range(10):
                x = _random_gauge(current, rng)
                worst_stage = max(
                    worst_stage,
                    _rel(zeta_eval(h, x), gauge_function(current, x)),
                )
        worst_scalar = max(worst_scalar, _rel(zeta_eval(h, {}), z))
    _criterion(
        3,
        "differentiate+marginalize recovers Z on 100 models",
        worst_scalar <= 1e-10,
        f"max rel err {worst_scalar:.2e}",
    )
    _criterion(
        4,
        "algebraic/graphical equivalence at every stage, 10 points",
        worst_stage <= 1e-10,
        f"max rel err {worst_stage:.2e}",
    )


def test_c05_tree_exactness():
    rng = np.random.default_rng(105)
    worst = 0.0
    loops_ok = True
    for _ in range(100):
        m = random_tree_model(rng, int(rng.integers(1, 11)))
        g = solve_bp(m, SolverConfig(restarts=2, seed=int(rng.integers(1 << 31))))
        assert g.converged
        worst = max(worst, _rel(g.value, partition_exact(m)))
        loops_ok = loops_ok and enumerate_generalized_loops(m.graph) == [
            (0,) * len(m.graph.edges)
        ]
    _criterion(
        5,
        "tree exactness on 100 random trees + empty-loop enumeration",
        worst <= 1e-6 and loops_ok,
        f"max rel err {worst:.2e}, loops {'ok' if loops_ok else 'WRONG'}",
    )


def test_c06_no_loose_coloring(solved_pool):
    worst = 0.0
    for m, g in solved_pool:
        for a in m.graph.nodes:
            f = m.factors[a]
            h_a = h_node(m, a, g.x)
            for i in range(len(f.variables)):
                colored = [int(j == i) for j in range(len(f.variables))]
                worst = max(worst, abs(q_node(m, g.x, a, colored)) / h_a)
    _criterion(
        6,
        "no loose coloring at every converged gauge",
        worst <= 1e-8,
        f"max |Q|/h {worst:.2e}",
    )


def test_c07_value_identity_and_direct_minimizer(solved_pool):
    worst_identity = 0.0
    for m, g in solved_pool:
        f_bp = bethe_free_energy(m, marginals_from_gauge(m, g.x))
        worst_identity = max(worst_identity, abs(f_bp + math.log(g.value)))
    rng = np.random.default_rng(107)
    worst_direct = 0.0
    for _ in range(20):
        m = random_soft_model(rng, int(rng.integers(2, 5)))
        g = solve_bp(m, SolverConfig(restarts=8, seed=int(rng.integers(1 << 31))))
        assert g.converged
        z_direct = minimize_bethe_direct(m, seed=int(rng.integers(1 << 31)))
        worst_direct = max(worst_direct, _rel(z_direct, g.value))
    _criterion(
        7,
        "value identity -log z = F_bp and independent Bethe minimizer",
        worst_identity <= 1e-8 and worst_direct <= 1e-4,
        f"identity gap {worst_identity:.2e}, direct rel {worst_direct:.2e}",
    )


def test_c08_saddle(solved_pool):
    worst_det = -math.inf
    for m, g in solved_pool:
        for e in m.graph.edges:
            worst_det = max(worst_det, saddle_check(m, g.x, e).determinant)
    _criterion(
        8,
        "edge-pair Hessian determinant < 0 at 50 converged gauges",
        worst_det < 0,
        f"max det {worst_det:.2e}",
    )


def test_c09_loop_series():
    rng = np.random.default_rng(109)
    worst_sum = 0.0
    worst_term = 0.0
    for _ in range(100):
        n_edges = int(rng.integers(2, 11))
        m = random_soft_model(
            rng, n_edges, n_nodes=max(2, (2 * n_edges) // 3), p_self=0.2
        )
        g = solve_bp(m, SolverConfig(restarts=2, seed=int(rng.integers(1 << 31))))
        assert g.converged
        z = partition_exact(m)
        worst_sum = max(worst_sum, _rel(loop_series_sum(m, g.x), z))
        for config in enumerate_generalized_loops(m.graph):
            term = loop_term(m, g.x, config)
            reference = z_sigma(m, g.x, config)
            worst_term = max(worst_term, abs(term - reference) / max(z, 1e-300))
    _criterion(
        9,
        "loop series resums Z on 100 models; terms match sigma-terms",
        worst_sum <= 1e-8 and worst_term <= 1e-9,
        f"sum rel {worst_sum:.2e}, term rel {worst_term:.2e}",
    )


def test_c10_normal_edge_bp_exactness():
    # BP's closed-form value of a normal edge's quadratic, at any positive
    # point, equals the exact operator's contracted polynomial there
    rng = np.random.default_rng(110)
    points = np.random.default_rng(1110)
    worst = 0.0
    checked = 0
    for _ in range(100):
        m = random_soft_model(rng, int(rng.integers(1, 7)), p_self=0.2)
        h = build(m)
        for e in m.graph.edges:
            if m.graph.is_self_edge(e):
                continue
            checked += 1
            x = _random_gauge(m, points)
            bp = bp_value(quad_coeffs(h, e, x))
            exact = exact_contract_poly(h, e).evaluate(x)
            worst = max(worst, _rel(bp, exact))
    _criterion(
        10,
        "BP normal-edge contraction is the exact operator",
        worst <= 1e-12 and checked > 100,
        f"{checked} normal edges, bp_value vs exact operator rel {worst:.2e}",
    )


def test_c11_matching_monotonicity():
    rng = np.random.default_rng(111)
    cfg = SolverConfig(restarts=2, seed=17)
    cases = []
    for n in range(1, 5):
        for m_cols in range(n, 5):
            w = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (n, m_cols)))
            cases.append((f"K{n}{m_cols} monomer-dimer", matching_model(n, m_cols, weights=w)))
    for _ in range(4):
        n = int(rng.integers(1, 5))
        m_cols = int(rng.integers(1, 5))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(m_cols)
            if rng.random() < 0.7
        ] or [(0, 0)]
        cases.append(
            (f"random bipartite {n}x{m_cols}", matching_model(n, m_cols, edges=edges))
        )
    cases.append(("permanent 2x2 ones", permanent_model(np.ones((2, 2)))))
    cases.append(("permanent 3x3 ones", permanent_model(np.ones((3, 3)))))

    ok = True
    details = []
    for name, m in cases:
        stages = bp_contract_sequence(m, m.graph.normal_first_order(), cfg)
        drops = sequence_decreases(stages, rel_slack=1e-9)
        z = partition_exact(m)
        start_ok = stages[0].z_vbp <= z * (1 + 1e-9)
        final_ok = _rel(stages[-1].z_vbp, z) <= 1e-9
        conv_ok = all(s.converged for s in stages)
        case_ok = not drops and start_ok and final_ok and conv_ok
        ok = ok and case_ok
        if not case_ok:
            details.append(
                f"{name}: drops={drops} start_ok={start_ok} "
                f"final_ok={final_ok} conv={conv_ok}"
            )
    perm2 = permanent_model(np.ones((2, 2)))
    z2 = partition_exact(perm2)
    perm2_ok = (
        z2 == permanent_bruteforce(np.ones((2, 2))) == 2.0
        and solve_bp(perm2, cfg).value <= 2.0 * (1 + 1e-9)
    )
    _criterion(
        11,
        f"BP monotone under contraction on {len(cases)} matching models",
        ok and perm2_ok,
        "; ".join(details) if details else "all sequences non-decreasing, exact at the end",
    )


def _variational_lhs(c, beta, stages=4, points=21):
    """beta**beta (1-beta)**(1-beta) * grid-min of h/(x_p x_q)**beta."""
    center_p = center_q = 0.0
    half = math.log(1e4)
    best = math.inf
    for _ in range(stages):
        ps = np.exp(center_p + np.linspace(-half, half, points))
        qs = np.exp(center_q + np.linspace(-half, half, points))
        P, Q = np.meshgrid(ps, qs, indexing="ij")
        vals = (c.h00 + c.h10 * P + c.h01 * Q + c.h11 * P * Q) / (P * Q) ** beta
        k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = float(vals[k])
        center_p = math.log(ps[k[0]])
        center_q = math.log(qs[k[1]])
        half = 2.0 * (2.0 * half / (points - 1))
    weight = math.exp(
        beta * math.log(beta) + (1 - beta) * math.log(1 - beta)
    )
    return weight * best


def test_c12_reduction_bound():
    rng = np.random.default_rng(112)
    points = []
    while len(points) < 1000:
        m = random_soft_model(rng, int(rng.integers(2, 6)))
        h = build(m)
        for e in m.graph.edges:
            x_rest = {
                d: float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
                for d in h.live_variables()
                if d.edge != e
            }
            points.append(quad_coeffs(h, e, x_rest))
    points = points[:1000]

    bound_ok = True
    n_passing = 0
    worst_var = 0.0
    beta_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    for c in points:
        if c.h01 * c.h10 > c.h00 * c.h11 * (1 + 1e-12):
            continue
        n_passing += 1
        bound = c.h00 + c.h11
        bound_ok = bound_ok and bp_value(c) <= bound * (1 + 1e-12)
        for beta in beta_grid:
            ratio = _variational_lhs(c, beta) / bound
            worst_var = max(worst_var, ratio)
    _criterion(
        12,
        f"BP reduction bound on {n_passing}/1000 condition-passing points",
        bound_ok and worst_var <= 1 + 1e-3 and n_passing > 500,
        f"bp_value bound ok={bound_ok}, variational max ratio {worst_var:.6f}",
    )


def test_c13_closed_form_spot_values():
    pair = edge_pair_update(QuadCoeffs(1, 2, 3, 6))
    v1 = bp_value(QuadCoeffs(1, 2, 3, 6))
    v2 = bp_value(QuadCoeffs(2, 5, 5, 3))
    m = make_model(["s"], [("e", "s", "s")], {"s": [2, 5, 5, 3]})
    z = partition_exact(m)
    ok = (
        pair == (3.0, 2.0)
        and v1 == pytest.approx(7.0, rel=1e-14)
        and v2 == pytest.approx((5 + math.sqrt(101)) / 2, rel=1e-14)
        and z == 5.0
    )
    _criterion(
        13,
        "closed-form spot values",
        ok,
        f"pair={pair}, values=({v1:.6f}, {v2:.6f}), Z={z}",
    )


def test_c14_cli_round_trip_determinism_exit_codes(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(114)
    m = random_soft_model(rng, 5)
    round_trip = parse_model(json.loads(serialize_model(m)))
    rt_ok = all(
        np.array_equal(round_trip.factors[a].table, m.factors[a].table)
        and round_trip.factors[a].variables == m.factors[a].variables
        for a in m.graph.nodes
    ) and round_trip.graph.edges == m.graph.edges

    path = tmp_path / "model.json"
    path.write_text(serialize_model(m))
    outs = {}
    for cmd in (
        ["exact", str(path)],
        ["contract", str(path), "--seed", "3", "--restarts", "2"],
        ["loops", str(path), "--seed", "3", "--restarts", "2"],
    ):
        code_a = cli_main(cmd)
        out_a = capsys.readouterr().out
        code_b = cli_main(cmd)
        out_b = capsys.readouterr().out
        outs[cmd[0]] = (code_a == code_b == 0) and out_a == out_b
    determinism_ok = all(outs.values())

    code_ok = cli_main(["exact", str(path)]) == 0
    capsys.readouterr()
    code_nonconv = (
        cli_main(
            ["bp", str(path), "--tol", "1e-30", "--max-sweeps", "2", "--restarts", "1"]
        )
        == 2
    )
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code_parse = cli_main(["exact", str(bad)]) == 3
    capsys.readouterr()

    true_matrix = gaugepf.gauge.gauge_matrix

    def corrupted(x_p, x_q):
        g = true_matrix(x_p, x_q).copy()
        g[1, 0] = -g[1, 0]
        return g

    monkeypatch.setattr(gaugepf.gauge, "gauge_matrix", corrupted)
    code_mutated = (
        cli_main(
            ["verify", "--random", "1", "--edges", "3", "--seed", "1",
             "--restarts", "2"]
        )
        == 1
    )
    monkeypatch.undo()
    capsys.readouterr()

    ok = rt_ok and determinism_ok and code_ok and code_nonconv and code_parse and code_mutated
    _criterion(
        14,
        "CLI round-trip, seeded byte-determinism, exit codes under mutation",
        ok,
        f"round_trip={rt_ok} determinism={determinism_ok} codes="
        f"{[code_ok, code_nonconv, code_parse, code_mutated]}",
    )
