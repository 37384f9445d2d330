"""The benchmark's four workloads.

Each workload is a set of functions:

* ``build(seed, workdir)`` makes the cases through the program itself
  (``families`` generators, ``serialize_model`` for model files).  This is
  the set-up that ``setup_s`` times, together with importing ``gaugepf``.
* ``run(case)`` is one call into the workload's entry point, the unit that
  ``case_ms_p50`` times.
* ``failed(output)`` says whether the program itself reported a failure.
* ``check(case, output)`` compares the output with the reference
  computations in ``oracle``; it runs outside every timed region and returns
  a list of problems (empty when the output is right).
* ``fingerprint(output)`` is what must come out the same when a case runs
  again, since every call is deterministic.

A case is an operation that *fails* when its call raises or ``failed`` is
true (a solve that did not converge, a nonzero exit code); ``check`` covers
the outputs of the operations that did not fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle
from gaugepf import SolverConfig, bp, cli, families

# Entry points are called through their modules (bp.solve_bp, not a name
# imported here), so that the traced run's wrappers see these calls too.

# Largest node table of a bp_solve loopy model, in slots.  Without a cap,
# random_soft_model now and then puts every edge on one node, and a single
# 18-slot table turns a one-second solve into a 45-second one.
BP_MAX_SLOTS = 4
CONTRACT_RESTARTS = 2
LOOPS_RESTARTS = "4"
REL_SLACK = 1e-9


@dataclass
class Case:
    name: str
    model: Any
    path: str = ""
    tree: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str], list]
    run: Callable[[Case], Any]
    failed: Callable[[Any], bool]
    check: Callable[[Case, Any], list]
    fingerprint: Callable[[Any], Any]
    reference: tuple  # names of the reference kernels like its work


def _shape(m) -> str:
    slots = max((len(f.variables) for f in m.factors.values()), default=0)
    return f"{len(m.graph.edges)}e/{len(m.graph.nodes)}n/max{slots}"


# -- bp_solve ------------------------------------------------------------------


def _loopy_model(rng: np.random.Generator, n_edges: int, n_nodes: int):
    """A random soft model with a self-edge and a parallel pair, small tables."""
    while True:
        m = families.random_soft_model(rng, n_edges, n_nodes=n_nodes)
        g = m.graph
        ends = [g.endpoints[e] for e in g.edges]
        pairs = [tuple(sorted(p)) for p in ends if p[0] != p[1]]
        has_self = len(pairs) < len(ends)
        has_parallel = len(set(pairs)) < len(pairs)
        small = max(len(v) for v in g.incidence.values()) <= BP_MAX_SLOTS
        if has_self and has_parallel and small:
            return m


# Models per round.  The run seed draws the tables, and a model's sweep count
# follows its tables: over ten seeds the total sweeps of six models spread
# by 10% (IQR over median), of eighteen by 4%.
BP_MODELS = 18


def build_bp_solve(seed: int, workdir: str) -> list:
    """BP_MODELS models with 8-12 edges; every third one is a random tree.

    The graphs are fixed (structure seeds 1000 onwards), so that every seed
    does about the same number of sweeps; the run seed draws the tables.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(BP_MODELS):
        n_edges = 8 + i % 5
        structure = np.random.default_rng(1000 + i)
        if i % 3 == 2:
            graph, kind = families.random_tree_model(structure, n_edges).graph, "tree"
        else:
            graph = _loopy_model(structure, n_edges, 2 * n_edges // 3 + 1).graph
            kind = "loopy"
        m = families.attach_random_factors(graph, rng)
        cases.append(Case(f"{kind}{i}", m, tree=kind == "tree"))
    return cases


def run_bp_solve(case: Case):
    return bp.solve_bp(case.model, SolverConfig())


def check_bp_solve(case: Case, g) -> list:
    m = case.model
    log_z, grad = oracle.log_z_and_gradient(m, g.x)
    problems = []
    worst = max(abs(v) for v in grad.values())
    if worst > 1e-8:
        problems.append(f"gradient of log z is {worst:.2e} at the returned gauge")
    if oracle.rel_err(g.value, math.exp(log_z)) > 1e-10:
        problems.append(f"value {g.value!r} != z(x) {math.exp(log_z)!r}")
    if case.tree:
        z = oracle.einsum_z(m)
        if oracle.rel_err(g.value, z) > 1e-8:
            problems.append(f"tree value {g.value!r} != Z {z!r}")
    return problems


# -- contract_matching -----------------------------------------------------------

# (rows, cols) of the complete bipartite graphs, in run order.  K_{4,4}
# contracts to one 18-slot table along normal_first_order and takes about
# 19 s, so a run has one round.  The median case is then one of the eight
# K_{3,3} models (about 0.9 s each), four before K_{4,4} and four after it,
# so that it is a median over samples spread through the round.  With a
# single mid-size model there (K_{3,5}, one 5-second sample per run), the
# median case spread 0.22 over ten seeds.
MATCHING_SHAPES = [(3, 3)] * 4 + [(4, 4)] + [(3, 3)] * 4


def build_contract_matching(seed: int, workdir: str) -> list:
    """Monomer-dimer models with log-uniform weights in [0.5, 2], as in C11."""
    rng = np.random.default_rng(seed)
    cases = []
    for i, (rows, cols) in enumerate(MATCHING_SHAPES):
        w = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=(rows, cols)))
        cases.append(Case(f"K{rows}{cols}_{i}", families.matching_model(rows, cols, weights=w)))
    return cases


def run_contract_matching(case: Case):
    m = case.model
    order = m.graph.normal_first_order()
    return bp.bp_contract_sequence(m, order, SolverConfig(restarts=CONTRACT_RESTARTS))


def check_contract_matching(case: Case, stages) -> list:
    z = oracle.einsum_z(case.model)
    problems = []
    if stages[-1].n_edges != 0 or oracle.rel_err(stages[-1].z_vbp, z) > REL_SLACK:
        problems.append(f"final stage {stages[-1].z_vbp!r} != Z {z!r}")
    if stages[0].z_vbp > z * (1.0 + REL_SLACK):
        problems.append(f"stage 0 value {stages[0].z_vbp!r} exceeds Z {z!r}")
    for s0, s1 in zip(stages, stages[1:]):
        if s1.z_vbp < s0.z_vbp * (1.0 - REL_SLACK):
            problems.append(f"stage {s1.index} decreased: {s0.z_vbp!r} -> {s1.z_vbp!r}")
    return problems


# -- CLI workloads -----------------------------------------------------------------


def _write_model(m, workdir: str, name: str) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.serialize_model(m))
    return path


def _run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_failed(output) -> bool:
    return output[0] != cli.EXIT_OK


# (edges, nodes, structure seed).  The graphs are fixed, so every seed does
# the same loop-term work; the run seed draws their factor tables.  Loop
# counts are 219, 428 and 782.
LOOP_STRUCTURES = [(9, 4, 30), (10, 4, 2), (10, 3, 2)]


def build_loops_cli(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    for i, (n_edges, n_nodes, structure) in enumerate(LOOP_STRUCTURES):
        graph = families.random_soft_model(
            np.random.default_rng(structure), n_edges, n_nodes=n_nodes
        ).graph
        m = families.attach_random_factors(graph, rng)
        name = f"loops{i}"
        cases.append(Case(name, m, _write_model(m, workdir, name)))
    return cases


def run_loops_cli(case: Case):
    return _run_cli(["loops", case.path, "--restarts", LOOPS_RESTARTS])


def check_loops_cli(case: Case, output) -> list:
    results = json.loads(output[1])["results"]
    z = oracle.einsum_z(case.model)
    problems = []
    if oracle.rel_err(results["Z"], z) > 1e-10:
        problems.append(f"reported Z {results['Z']!r} != {z!r}")
    if oracle.rel_err(results["sum"], z) > 1e-8:
        problems.append(f"loop sum {results['sum']!r} != Z {z!r}")
    count = oracle.loop_count(case.model)
    if results["loop_count"] != count:
        problems.append(f"loop_count {results['loop_count']} != {count}")
    return problems


# (edges, nodes): just under the 24-edge guard.  partition_exact and
# map_energy_exact cost one table lookup per slot per configuration, so the
# work depends on these sizes alone and not on the seed.
EXACT_SHAPES = [(20, 8), (20, 12), (21, 9), (21, 11), (22, 10), (22, 11)]


def build_exact_guard(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    for i, (n_edges, n_nodes) in enumerate(EXACT_SHAPES):
        m = families.random_soft_model(rng, n_edges, n_nodes=n_nodes)
        name = f"exact{i}"
        cases.append(Case(name, m, _write_model(m, workdir, name)))
    return cases


def run_exact_guard(case: Case):
    return _run_cli(["exact", case.path])


def check_exact_guard(case: Case, output) -> list:
    m = case.model
    results = json.loads(output[1])["results"]
    z = oracle.einsum_z(m)
    problems = []
    if oracle.rel_err(results["Z"], z) > 1e-10:
        problems.append(f"reported Z {results['Z']!r} != {z!r}")
    config = [int(b) for b in results["argmax"]]
    best = oracle.config_weight(m, config)
    energy = results["map_energy"]
    if abs(-math.log(best) - energy) > 1e-9 * max(1.0, abs(energy)):
        problems.append(f"argmax weighs exp({-math.log(best)!r}), map_energy {energy!r}")
    for j in range(len(config)):
        flipped = list(config)
        flipped[j] ^= 1
        if oracle.config_weight(m, flipped) > best * (1.0 + 1e-12):
            problems.append(f"flipping edge {j} beats the reported argmax")
    return problems


def _gauge_fingerprint(g) -> tuple:
    return g.value, tuple(sorted((str(d), v) for d, v in g.x.items()))


def _stages_fingerprint(stages) -> tuple:
    return tuple(s.z_vbp for s in stages)


def _cli_fingerprint(output) -> tuple:
    return output  # exit code and report text


WORKLOADS = {
    "bp_solve": Workload(
        "bp_solve", build_bp_solve, run_bp_solve,
        lambda g: not g.converged, check_bp_solve, _gauge_fingerprint,
        ("small_tables",),
    ),
    "contract_matching": Workload(
        "contract_matching", build_contract_matching, run_contract_matching,
        lambda stages: not all(s.converged for s in stages), check_contract_matching,
        _stages_fingerprint, ("small_tables", "large_arrays"),
    ),
    "loops_cli": Workload(
        "loops_cli", build_loops_cli, run_loops_cli, _cli_failed, check_loops_cli,
        _cli_fingerprint, ("small_tables",),
    ),
    "exact_guard": Workload(
        "exact_guard", build_exact_guard, run_exact_guard, _cli_failed,
        check_exact_guard, _cli_fingerprint, ("large_arrays",),
    ),
}


def describe(case: Case) -> str:
    return f"{case.name} ({_shape(case.model)})"
