"""Command-line driver: model files, reports, and the verification suite.

Commands print one JSON report to stdout (optionally copied to a file).
Reports carry no timestamps and use sorted keys, so a fixed seed and flags
reproduce them byte for byte.  Exit codes: 0 success or informative,
1 invariant failure, 2 solver non-convergence, 3 input error (a bad model
file, a missing command, a flag value that does not parse or is out of
range, a flag the command does not take (``exact --seed 1``), or a model
too large for ``verify``'s symbolic check), 4 a
non-finite value in the report (then no report is printed).  A ratio to a
brute-force ``Z`` of 0 is reported as ``null``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, NoReturn, Sequence

import numpy as np

from . import bp as bp_mod
from . import gauge as gauge_mod
from . import loops as loops_mod
from . import poly as poly_mod
from .families import random_soft_model
from .model import (
    DEFAULT_ENUMERATION_GUARD,
    FactorTable,
    ModelError,
    MultiGM,
    contract_model,
    exact_summary,
    partition_exact,
    soft_model,
)
from .multigraph import DirectedEdge, GraphError, MultiGraph

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_NONCONVERGENCE = 2
EXIT_INPUT = 3
EXIT_NONFINITE = 4


class ModelFileError(ModelError):
    """Malformed model file; the message names the offending field."""


class NonFiniteReportError(ValueError):
    """A report holds an infinite or NaN value, which JSON cannot carry."""


class UsageError(ValueError):
    """The command line does not parse: a missing command, a bad flag value."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` instead of exiting with argparse's 2,
    which is the non-convergence code here."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


# -- model file format -------------------------------------------------------


def _bit_keys(k: int) -> list[str]:
    """The ``2**k`` bitstring keys of a ``k``-slot table: key ``i`` has, at
    character ``j``, bit ``j`` of ``i``."""
    keys = [""]
    for _ in range(k):
        keys = [s + "0" for s in keys] + [s + "1" for s in keys]
    return keys


def _bulk_table(table_field: dict, k: int) -> np.ndarray | None:
    """A ``k``-slot table's values by index, read in bulk: the keys decoded
    as one byte array and the values converted by one ``np.array`` call;
    missing keys read as 0.  ``None`` unless every key is ``k`` characters
    of ``0``/``1`` and every value a finite non-negative number."""
    keys = list(table_field)
    values = list(table_field.values())
    if not all(issubclass(t, (int, float)) for t in set(map(type, values))):
        return None
    # a key that is no string or not ASCII, or an integer beyond float range
    # (OverflowError), is left to :func:`_bad_entry`
    try:
        if not set(map(len, keys)) <= {k}:
            return None
        codes = np.frombuffer("".join(keys).encode("ascii"), np.uint8)
        floats = np.array(values, dtype=float)
    except (TypeError, UnicodeEncodeError, OverflowError):
        return None
    bits = codes.reshape(len(keys), k) - ord("0")  # other characters read above 1
    lo, hi = floats.min(initial=0), floats.max(initial=0)  # a NaN fails both tests
    if bits.max(initial=0) > 1 or not (0 <= lo and hi < math.inf):
        return None
    # byte b of a packed row holds bits 8b to 8b + 7 of the entry's index
    packed = np.packbits(bits, axis=1, bitorder="little")
    table = np.zeros(2**k)
    table[packed @ 256 ** np.arange(packed.shape[1])] = floats
    return table


def _bad_entry(a: str, table_field: dict, k: int) -> NoReturn:
    """Raise :class:`ModelFileError` at the first entry, in document order,
    that keeps :func:`_bulk_table` from reading the table."""
    keys = set(_bit_keys(k))
    for key, value in table_field.items():
        if key not in keys:
            raise ModelFileError(
                f"factor at node {a!r}: malformed bitstring key {key!r} "
                f"(need length {k} over 0/1)"
            )
        try:
            finite = isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond float range
            finite = False
        if not finite:
            raise ModelFileError(
                f"factor at node {a!r}, entry {key!r}: not a finite number"
            )
        if value < 0:
            raise ModelFileError(
                f"factor at node {a!r}, entry {key!r}: negative value"
            )
    raise ModelFileError(f"factor at node {a!r}: unreadable table")


def parse_model(doc: Any) -> MultiGM:
    """Parse the JSON model document into a model.

    A table maps bitstring keys to finite non-negative numbers; key ``i`` of a
    ``k``-slot table has, at character ``j``, bit ``j`` of ``i``.  Each table
    is decoded in bulk (:func:`_bulk_table`); only when that fails are its
    entries looked at one by one, and a bad key or value raises
    :class:`ModelFileError` naming the node and the first offending entry in
    document order.
    """
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(a, str) for a in nodes):
        raise ModelFileError('"nodes" must be a list of node-id strings')
    edges_field = doc.get("edges")
    if not isinstance(edges_field, list):
        raise ModelFileError('"edges" must be a list of {id, tail, head} objects')
    triples = []
    for i, e in enumerate(edges_field):
        if not isinstance(e, dict) or not {"id", "tail", "head"} <= set(e):
            raise ModelFileError(f'edge #{i}: need "id", "tail" and "head"')
        triples.append((str(e["id"]), str(e["tail"]), str(e["head"])))
    try:
        graph = MultiGraph.build(nodes, triples)
    except GraphError as exc:
        raise ModelFileError(str(exc)) from None

    factors_field = doc.get("factors")
    if not isinstance(factors_field, dict):
        raise ModelFileError('"factors" must map node ids to factor objects')
    factors = {}
    for a in graph.nodes:
        entry = factors_field.get(a)
        if entry is None:
            raise ModelFileError(f"factor for node {a!r} is missing")
        if not isinstance(entry, dict):
            raise ModelFileError(f"factor for node {a!r} must be an object")
        order = entry.get("order")
        expected = [str(d) for d in graph.incidence[a]]
        if order != expected:
            raise ModelFileError(
                f"factor at node {a!r}: order {order!r} does not match the "
                f"incidence list {expected!r}"
            )
        k = len(expected)
        table_field = entry.get("table")
        if not isinstance(table_field, dict):
            raise ModelFileError(f"factor at node {a!r}: missing table object")
        values = _bulk_table(table_field, k)
        if values is None:
            _bad_entry(a, table_field, k)
        if len(table_field) < 2**k and entry.get("soft") is not False:
            raise ModelFileError(
                f"factor at node {a!r}: sparse table (missing keys default "
                'to 0) requires an explicit "soft": false marker'
            )
        factors[a] = FactorTable.from_values(a, graph.incidence[a], values)
    return MultiGM.from_tables(graph, factors)


def _written_factors(
    m: MultiGM,
) -> dict[str, tuple[tuple[DirectedEdge, ...], np.ndarray]]:
    """Node -> ``(order, table)`` as the model file holds the factor: ``order``
    is the incidence that :meth:`MultiGraph.build` gives the model's edge
    list, which :func:`parse_model` requires, and ``table`` is permuted to
    match.  Contraction leaves a merged node's darts in another order; every
    other factor is returned as it is."""
    g = m.graph
    built = MultiGraph.build(g.nodes, [(e, *g.endpoints[e]) for e in g.edges])
    written = {}
    for a in g.nodes:
        f, order = m.factors[a], built.incidence[a]
        table = f.table
        if order != f.variables:
            perm = [f.variables.index(d) for d in order]
            table = f.as_array().transpose(perm).reshape(-1, order="F")
        written[a] = (order, table)
    return written


def model_to_doc(m: MultiGM) -> dict:
    """JSON document for a model: complete tables, keys as in
    :func:`parse_model`, built once per slot count per call, and each
    factor in the order of :func:`_written_factors`."""
    keys: dict[int, list[str]] = {}
    doc: dict[str, Any] = {
        "nodes": list(m.graph.nodes),
        "edges": [
            {"id": e, "tail": m.graph.endpoints[e][0], "head": m.graph.endpoints[e][1]}
            for e in m.graph.edges
        ],
        "factors": {},
    }
    for a, (order, table) in _written_factors(m).items():
        k = len(order)
        if k not in keys:
            keys[k] = _bit_keys(k)
        doc["factors"][a] = {
            "order": [str(d) for d in order],
            "table": dict(zip(keys[k], table.tolist())),
            "soft": m.factors[a].is_soft,
        }
    return doc


def _json_block(opening: str, items: list[str], closing: str, indent: int) -> str:
    """A JSON array or object as ``json.dumps(..., indent=2)`` lays it out at
    depth ``indent // 2``, from its already indented items."""
    if not items:
        return opening + closing
    return f"{opening}\n" + ",\n".join(items) + f"\n{' ' * indent}{closing}"


def _json_strings(strings: Sequence[str], indent: int) -> str:
    pad = " " * (indent + 2)
    items = [pad + encode_basestring_ascii(s) for s in strings]
    return _json_block("[", items, "]", indent)


def serialize_model(m: MultiGM) -> str:
    """The model file's text: ``json.dumps(model_to_doc(m), sort_keys=True,
    indent=2)`` and a newline, written directly, since ``indent`` makes
    ``json.dumps`` run its pure-Python encoder.

    A ``k``-slot table's sorted keys are the binary numerals ``r`` with ``k``
    digits, in order; numeral ``r`` is the key of entry ``bitreverse_k(r)``,
    so the values in key order are the C-order ravel of the table's
    ``as_array`` view.  They fill a ``%r`` template of the keys, made once
    per slot count per call, so floats are written by ``float.__repr__`` as
    in ``json.dumps``; strings are written by ``json.dumps``'s
    ``encode_basestring_ascii``.
    """
    g, q = m.graph, encode_basestring_ascii
    written = _written_factors(m)
    templates: dict[int, str] = {}
    factors = []
    for a in sorted(written):
        order, table = written[a]
        k = len(order)
        if k not in templates:
            numerals = map("".join, itertools.product("01", repeat=k))
            templates[k] = '        "' + '": %r,\n        "'.join(numerals) + '": %r'
        values = table.reshape((2,) * k, order="F").ravel().tolist()
        entries = templates[k] % tuple(values)
        soft = "true" if m.factors[a].is_soft else "false"
        factors.append(
            f"    {q(a)}: {{\n"
            f'      "order": {_json_strings([str(d) for d in order], 6)},\n'
            f'      "soft": {soft},\n'
            f'      "table": {{\n{entries}\n      }}\n'
            "    }"
        )
    edges = [
        f'    {{\n      "head": {q(g.endpoints[e][1])},\n      "id": {q(e)},\n'
        f'      "tail": {q(g.endpoints[e][0])}\n    }}'
        for e in g.edges
    ]
    return (
        "{\n"
        f'  "edges": {_json_block("[", edges, "]", 2)},\n'
        f'  "factors": {_json_block("{", factors, "}", 2)},\n'
        f'  "nodes": {_json_strings(g.nodes, 2)}\n'
        "}\n"
    )


def load_model(path: str) -> MultiGM:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path!r} line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ModelFileError(
            f"{path!r} byte {exc.start}: not UTF-8 text ({exc.reason})"
        ) from None
    except RecursionError:
        raise ModelFileError(f"{path!r}: JSON nested too deeply") from None
    return parse_model(doc)


def model_digest(m: MultiGM) -> str:
    return hashlib.sha256(serialize_model(m).encode()).hexdigest()


# -- reports -----------------------------------------------------------------


def _nonfinite_field(doc: Any, path: str = "") -> str | None:
    """Dotted path of the first non-finite float in a report, if any."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return None
    for key, value in items:
        found = _nonfinite_field(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _emit(report: dict, json_path: str | None) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteReportError(
            f"non-finite value in the report at {_nonfinite_field(report)}"
        ) from None
    sys.stdout.write(text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# the tolerance of the check a command runs on its solved gauge: a looser
# ``--tol`` could converge and then fail it, so it is refused
_TOL_CHECKS = {"bp": ("bp.POLYTOPE_TOL", bp_mod.POLYTOPE_TOL),
               "verify": ("bp.POLYTOPE_TOL", bp_mod.POLYTOPE_TOL),
               "loops": ("loops.CONVERGENCE_THRESHOLD", loops_mod.CONVERGENCE_THRESHOLD)}


def _solver_config(args: argparse.Namespace) -> bp_mod.SolverConfig:
    name, limit = _TOL_CHECKS.get(args.command, ("", math.inf))
    if args.tol > limit:
        raise UsageError(f"gaugepf {args.command}: --tol {args.tol:g} is looser than "
                         f"{name} ({limit:g}), the check on the solved gauge")
    return bp_mod.SolverConfig(
        damping=args.damping,
        tolerance=args.tol,
        max_sweeps=args.max_sweeps,
        restarts=args.restarts,
        seed=args.seed,
    )


# -- commands ----------------------------------------------------------------
# Each model command returns its report's ``results`` and the exit code;
# :func:`main` wraps them in the report.


def cmd_exact(m: MultiGM, args: argparse.Namespace) -> tuple[dict, int]:
    z, energy, argmax = exact_summary(m, guard=args.guard)
    return {
        "Z": z,
        "map_energy": energy,
        "argmax": "".join(str(b) for b in argmax),
        "edge_order": list(m.graph.edges),
    }, EXIT_OK


def cmd_bp(m: MultiGM, args: argparse.Namespace) -> tuple[dict, int]:
    cfg = _solver_config(args)
    msoft = soft_model(m)
    g = bp_mod.solve_bp(msoft, cfg)
    results: dict[str, Any] = {
        "Z_vbp": g.value,
        "converged": g.converged,
        "residual": g.residual,
        "sweeps": g.sweeps,
        "softened": msoft is not m,
        "clamped": g.clamped,
        "fallbacks": g.fallbacks,
        "gauge": {str(d): v for d, v in g.x.items()},
        "stationary_values": list(g.stationary_values),
    }
    if g.converged:
        beliefs = bp_mod.marginals_from_gauge(msoft, g.x)
        results["beta"] = beliefs.edge_marginals
        results["bethe_free_energy"] = bp_mod.bethe_free_energy(msoft, beliefs)
        results["interior_margin"] = beliefs.interior_margin()
    if len(m.graph.edges) <= args.guard:
        z = partition_exact(m, guard=args.guard)
        results["Z"] = z
        results["ratio"] = g.value / z if z > 0 else None
        results["exact"] = bool(z > 0 and abs(g.value - z) <= 1e-6 * z)
    return results, EXIT_OK if g.converged else EXIT_NONCONVERGENCE


def _resolve_order(m: MultiGM, choice: str) -> list[str]:
    if choice == "normal-first":
        return m.graph.normal_first_order()
    if choice == "ids":
        return sorted(m.graph.edges)
    return [token.strip() for token in choice.split(",") if token.strip()]


def cmd_contract(m: MultiGM, args: argparse.Namespace) -> tuple[dict, int]:
    order = _resolve_order(m, args.order)
    if args.mode == "exact":  # bp_contract_sequence checks its own order
        m.graph.check_order(order)
        z0 = partition_exact(m, guard=args.guard)
        steps = [{"step": 0, "eliminated": None, "Z": z0}]
        current = m
        constant = True
        for i, e in enumerate(order, start=1):
            current = contract_model(current, e)
            z = partition_exact(current, guard=args.guard)
            constant = constant and abs(z - z0) <= 1e-12 * max(abs(z0), 1.0)
            steps.append({"step": i, "eliminated": e, "Z": z})
        results = {"mode": "exact", "order": order, "steps": steps, "z_constant": constant}
        code = EXIT_OK if constant else EXIT_INVARIANT
    else:
        cfg = _solver_config(args)
        stages = bp_mod.bp_contract_sequence(m, order, cfg)
        decreases = bp_mod.sequence_decreases(stages)
        slots = [[len(f.variables) for f in s.model.factors.values()] for s in stages]
        results = {
            "mode": "bp-sequence",
            "order": order,
            "stages": [
                {
                    "step": s.index,
                    "eliminated": s.eliminated,
                    "edges_left": s.n_edges,
                    "Z_vbp": s.z_vbp,
                    "converged": s.converged,
                    "start": "warm" if s.warm else "cold",
                    "sweeps": s.gauge.sweeps,
                    "fallbacks": s.gauge.fallbacks,
                    "max_slots": max(k, default=0),
                    "table_entries": sum(1 << j for j in k),
                }
                for s, k in zip(stages, slots)
            ],
            "non_decreasing": not decreases,
            "decreases": [
                {"step": i, "before": a, "after": b} for i, a, b in decreases
            ],
            "final_Z": stages[-1].z_vbp,
            "softened": stages[0].gauge.softened,
        }
        code = (
            EXIT_OK
            if all(s.converged for s in stages)
            else EXIT_NONCONVERGENCE
        )
    return results, code


def cmd_loops(m: MultiGM, args: argparse.Namespace) -> tuple[dict, int]:
    cfg = _solver_config(args)
    msoft = soft_model(m)
    g = bp_mod.solve_bp(msoft, cfg)
    if not g.converged:
        return {
            "converged": False, "residual": g.residual, "fallbacks": g.fallbacks,
        }, EXIT_NONCONVERGENCE
    configs = loops_mod.enumerate_generalized_loops(m.graph, guard=args.guard)
    terms = [
        {
            "edges": [m.graph.edges[j] for j, b in enumerate(c) if b],
            "term": loops_mod.loop_term(msoft, g.x, c),
        }
        for c in configs
    ]
    total = 0.0
    for t in terms:  # in enumeration order, as loop_series_sum adds them
        total += t["term"]
    # Z of the model as given, the sum of the softened one: on a hard model,
    # relative_error includes the softening bias
    z = partition_exact(m, guard=args.guard)
    return {
        "converged": True,
        "fallbacks": g.fallbacks,
        "loop_count": len(configs),
        "terms": sorted(terms, key=lambda t: -abs(t["term"])),
        "sum": total,
        "Z": z,
        "relative_error": abs(total - z) / z if z > 0 else None,
    }, EXIT_OK


# -- verification suite -------------------------------------------------------


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _random_gauge(m: MultiGM, rng: np.random.Generator) -> dict[DirectedEdge, float]:
    darts = sorted(m.graph.directed_edges(), key=str)
    lo, hi = np.log(bp_mod._INIT_RANGE[0]), np.log(bp_mod._INIT_RANGE[1])
    return {d: float(np.exp(rng.uniform(lo, hi))) for d in darts}


def _verify_one_model(
    m: MultiGM, cfg: bp_mod.SolverConfig, rng: np.random.Generator
) -> dict[str, tuple[bool, str]]:
    """Run every invariant on one model; returns name -> (passed, detail)."""
    out: dict[str, tuple[bool, str]] = {}
    gauges = [_random_gauge(m, rng) for _ in range(3)]
    order = list(m.graph.edges)
    rng.shuffle(order)
    # refuse a model too large for the symbolic check before any brute force
    for e in m.graph.edges:
        poly_mod.check_contraction_sizes(m.graph, [e])
    poly_mod.check_contraction_sizes(m.graph, order)
    z = partition_exact(m)

    worst = 0.0
    for x in gauges:
        zt = partition_exact(gauge_mod.transform_factors(m, x))
        worst = max(worst, _rel_err(zt, z))
    out["gauge_invariance"] = (worst <= 1e-9, f"max rel err {worst:.2e}")

    h0 = poly_mod.build(m)
    worst = 0.0
    ok = True
    for e in m.graph.edges:
        pa = poly_mod.exact_contract_poly(h0, e)
        pb = poly_mod.build(contract_model(m, e))
        for qa, qb in zip(pa.factors, pb.factors):
            if qa.variables != qb.variables or set(qa.coeffs) != set(qb.coeffs):
                ok = False
                continue
            for mask, c in qa.coeffs.items():
                worst = max(worst, _rel_err(c, qb.coeffs[mask]))
    out["contract_commutes"] = (
        ok and worst <= 1e-12, f"max coeff rel err {worst:.2e}"
    )

    h = h0
    current = m
    worst = 0.0
    for e in order:
        h = poly_mod.exact_contract_poly(h, e)
        current = contract_model(current, e)
        for _ in range(3):
            x = _random_gauge(current, rng)
            worst = max(
                worst,
                _rel_err(
                    poly_mod.zeta_eval(h, x), gauge_mod.gauge_function(current, x)
                ),
            )
    scalar = poly_mod.zeta_eval(h, {})
    out["algebraic_graphical"] = (worst <= 1e-10, f"max rel err {worst:.2e}")
    out["diff_marg_recovery"] = (
        _rel_err(scalar, z) <= 1e-10, f"rel err {_rel_err(scalar, z):.2e}"
    )

    msoft = soft_model(m)
    g = bp_mod.solve_bp(msoft, cfg)
    out["solver_convergence"] = (g.converged, f"residual {g.residual:.2e}")
    if not g.converged:
        return out

    worst = 0.0
    for a in msoft.graph.nodes:
        f = msoft.factors[a]
        h_a = gauge_mod.h_node(msoft, a, g.x)
        for i in range(len(f.variables)):
            colored = [1 if j == i else 0 for j in range(len(f.variables))]
            worst = max(worst, abs(gauge_mod.q_node(msoft, g.x, a, colored)) / h_a)
    out["no_loose_coloring"] = (worst <= 1e-8, f"max |Q|/h {worst:.2e}")

    saddle_ok = True
    worst_det = -math.inf
    for e in msoft.graph.edges:
        rep = bp_mod.saddle_check(msoft, g.x, e)
        saddle_ok = saddle_ok and rep.det_negative
        worst_det = max(worst_det, rep.determinant)
    out["saddle"] = (saddle_ok, f"max det {worst_det:.2e}")

    total = loops_mod.loop_series_sum(msoft, g.x)
    zs = z if msoft is m else partition_exact(msoft)
    out["loop_sum"] = (_rel_err(total, zs) <= 1e-8, f"rel err {_rel_err(total, zs):.2e}")

    beliefs = bp_mod.marginals_from_gauge(msoft, g.x)
    f_bp = bp_mod.bethe_free_energy(msoft, beliefs)
    gap = abs(f_bp + math.log(g.value))
    out["value_identity"] = (gap <= 1e-8, f"|F + log z| = {gap:.2e}")

    if m.graph.cycle_rank() == 0:
        out["tree_exactness"] = (
            _rel_err(g.value, z) <= 1e-6, f"rel err {_rel_err(g.value, z):.2e}"
        )
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _solver_config(args)
    rng = np.random.default_rng(args.seed)
    models: list[MultiGM] = []
    if args.model:
        models.append(load_model(args.model))
    else:
        for _ in range(args.random):
            models.append(random_soft_model(rng, args.edges))

    worst = 0.0
    for _ in range(1000):
        x_p, x_q = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2))
        err = np.abs(
            gauge_mod.gauge_matrix(x_p, x_q).T @ gauge_mod.gauge_matrix(x_q, x_p)
            - np.eye(2)
        ).max()
        worst = max(worst, float(err))
    # orthogonality involves no model, so its details have one entry; every
    # other check's have one per model, None where it did not run on it
    checks: list[dict[str, Any]] = [{
        "name": "orthogonality", "passed": worst <= 1e-13,
        "details": [f"max entry err {worst:.2e}"],
    }]
    runs = [_verify_one_model(m, cfg, rng) for m in models]
    for name in dict.fromkeys(name for run in runs for name in run):
        outcomes = [run.get(name) for run in runs]
        checks.append({
            "name": name,
            "passed": all(o[0] for o in outcomes if o is not None),
            "details": [None if o is None else o[1] for o in outcomes],
        })
    all_passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "seed": args.seed,
        "n_models": len(models),
        "checks": checks,
        "all_passed": all_passed,
    }
    _emit(report, args.json)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        details = "; ".join("not run" if d is None else d for d in c["details"])
        print(f"[{status}] {c['name']}: {details}", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_INVARIANT


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaugepf",
        description="Partition functions of binary multi-graph models: exact, "
        "BP, contraction sequences, and the loop series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver = bp_mod.SolverConfig()
    for name in ("exact", "bp", "contract", "loops", "verify"):
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("model", nargs="?", help="model JSON file")
            p.add_argument("--random", type=int, default=10, metavar="N",
                           help="number of random models when no file is given")
            p.add_argument("--edges", type=int, default=6,
                           help="edges per random model; a one-node draw has a "
                           "2*EDGES-slot table, whose solve can take tens of seconds")
        else:
            p.add_argument("model", help="model JSON file")
        if name != "exact":  # the solver's flags, with its defaults
            p.add_argument("--tol", type=float, default=solver.tolerance)
            p.add_argument("--damping", type=float, default=solver.damping,
                           help="damping of the fallback solve: a random restart "
                           "takes full steps first and runs damped only if those "
                           "do not converge; 0 gives one undamped solve")
            p.add_argument("--restarts", type=int, default=solver.restarts)
            p.add_argument("--max-sweeps", type=int, default=solver.max_sweeps,
                           help="sweeps per solve phase: the undamped phase takes "
                           f"at most min({bp_mod._UNDAMPED_SWEEPS}, MAX_SWEEPS), "
                           "the damped fallback MAX_SWEEPS")
            p.add_argument("--seed", type=int, default=solver.seed)
        if name != "verify":
            p.add_argument("--guard", type=int, default=DEFAULT_ENUMERATION_GUARD)
        p.add_argument("--json", metavar="PATH", help="also write the report here")
        if name == "contract":
            p.add_argument("--order", default="normal-first",
                           help="normal-first | ids | comma-separated edge ids")
            p.add_argument("--mode", choices=("exact", "bp-sequence"),
                           default="exact")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` keeps no state in it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:  # left by the command's own parser, so named here
            raise UsageError(f"gaugepf {args.command}: unrecognized arguments: "
                             f"{' '.join(extra)}")
        if args.command == "verify":
            return cmd_verify(args)
        m = load_model(args.model)
        # looked up per call, so a rebound ``cmd_*`` is the one that runs
        results, code = globals()[f"cmd_{args.command}"](m, args)
        report = {"command": args.command, "model_digest": model_digest(m),
                  "results": results}
        if "seed" in args:
            report["seed"] = args.seed
        _emit(report, args.json)
        return code
    except (
        UsageError, ModelError, GraphError, bp_mod.ConfigError, poly_mod.PolyError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonFiniteReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


if __name__ == "__main__":
    sys.exit(main())
