#!/usr/bin/env python3
"""Quick self-test of the reference computations in ``oracle``.

Checks them against ``partition_exact`` and the definitions on tiny seeded
models, so that the benchmark's checks rest on something checked:

    python3 bench/selftest.py

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from gaugepf import SolverConfig, partition_exact, solve_bp  # noqa: E402
from gaugepf.families import matching_model, random_soft_model, random_tree_model  # noqa: E402
from gaugepf.loops import enumerate_generalized_loops  # noqa: E402

MODELS = 30


def tiny_models():
    rng = np.random.default_rng(2024)
    for i in range(MODELS):
        yield random_soft_model(rng, int(rng.integers(1, 9)))
    yield random_tree_model(rng, 6)
    yield matching_model(2, 3, weights=np.exp(rng.uniform(-0.7, 0.7, size=(2, 3))))


def main() -> int:
    worst = {"einsum_z": 0.0, "config_weight": 0.0, "z_at_bp_tree": 0.0,
             "gradient_vs_differences": 0.0}
    loop_mismatches = 0
    rng = np.random.default_rng(7)
    for m in tiny_models():
        z = partition_exact(m)
        worst["einsum_z"] = max(worst["einsum_z"], oracle.rel_err(oracle.einsum_z(m), z))
        total = sum(oracle.config_weight(m, c)
                    for c in product((0, 1), repeat=len(m.graph.edges)))
        worst["config_weight"] = max(worst["config_weight"], oracle.rel_err(total, z))
        if oracle.loop_count(m) != len(enumerate_generalized_loops(m.graph)):
            loop_mismatches += 1
        if not m.is_soft or not m.graph.edges:
            continue
        x = {d: float(np.exp(rng.uniform(-1.0, 1.0))) for d in m.graph.directed_edges()}
        _, grad = oracle.log_z_and_gradient(m, x)
        for d in x:
            h = 1e-6 * x[d]
            up, down = dict(x), dict(x)
            up[d] += h
            down[d] -= h
            diff = (oracle.log_z_and_gradient(m, up)[0]
                    - oracle.log_z_and_gradient(m, down)[0]) / (2 * h)
            err = abs(diff - grad[d]) / max(1.0, abs(grad[d]))
            worst["gradient_vs_differences"] = max(worst["gradient_vs_differences"], err)
        if m.graph.cycle_rank() == 0:
            g = solve_bp(m, SolverConfig(restarts=2))
            z_bp = math.exp(oracle.log_z_and_gradient(m, g.x)[0])
            worst["z_at_bp_tree"] = max(worst["z_at_bp_tree"], oracle.rel_err(z_bp, z))

    limits = {"einsum_z": 1e-12, "config_weight": 1e-12, "z_at_bp_tree": 1e-8,
              "gradient_vs_differences": 1e-6}
    ok = True
    for name, value in worst.items():
        passed = value <= limits[name]
        ok = ok and passed
        print(f"[{'pass' if passed else 'FAIL'}] {name}: worst {value:.2e} "
              f"(limit {limits[name]:.0e})")
    print(f"[{'pass' if not loop_mismatches else 'FAIL'}] loop_count: "
          f"{loop_mismatches} mismatches with enumerate_generalized_loops")
    return 0 if ok and not loop_mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
