"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the module-level functions through which one
part of ``gaugepf`` calls another with wrappers that record a span per
call: layer, parent span, case and start and end times.  A function is
rebound in every ``gaugepf`` module that imported it (``residual_norm`` in
both ``bp`` and ``loops``, for instance), so no call slips past.  Spans are
kept in memory and summarised or written out after the run; ``uninstall``
puts the original functions back, so untraced rounds run the program as is.

A layer's self time is its spans' time minus the part covered by their
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# layer -> the functions it wraps, as "module:attribute".  Calls of every
# listed function count toward the layer's ``calls``, except those listed in
# UNCOUNTED, which add time to a call counted elsewhere.
LAYERS = {
    "bp.solve": ["bp:solve_bp"],
    "bp.edge_update": ["bp:_edge_quad_local", "bp:edge_pair_update"],
    "bp.residual": ["bp:residual_norm"],
    "gauge.gauge_function": ["gauge:gauge_function"],
    "gauge.h_node": ["gauge:h_node"],
    "model.contract": ["model:contract_model"],
    "model.soften": ["model:soften"],
    "model.partition_exact": ["model:partition_exact"],
    "model.map_energy": ["model:map_energy_exact"],
    "model.block": ["model:_block_weights"],
    "multigraph.contract_edge": ["multigraph:MultiGraph.contract_edge"],
    "multigraph.normal_first_order": ["multigraph:MultiGraph.normal_first_order"],
    "loops.enumerate": ["loops:enumerate_generalized_loops"],
    "loops.term": ["loops:_term"],
    "cli.command": ["cli:cmd_loops", "cli:cmd_exact"],
    "cli.load": ["cli:load_model"],
    "cli.digest": ["cli:model_digest"],
    "cli.emit": ["cli:_emit"],
}
UNCOUNTED = {"bp:edge_pair_update"}

# derived metrics: unit of each
DERIVED = {
    "bp.sweep.calls": "count",
    "bp.restart.calls": "count",
    "bp.sweeps_per_restart": "ratio",
    "loops.loop_count": "count",
    "loops.terms_per_loop": "ratio",
    "loops.residual_per_command": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units.update(DERIVED)
    units["trace.overhead_s"] = "s"
    return units


def _resolve(target: str):
    """(owner object, attribute name, function) or None when it is gone."""
    module_name, attr = target.split(":")
    try:
        owner = importlib.import_module(f"gaugepf.{module_name}")
    except ModuleNotFoundError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    def __init__(self) -> None:
        self.targets = [t for targets in LAYERS.values() for t in targets]
        self.layer_of = {t: layer for layer, ts in LAYERS.items() for t in ts}
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self._stack: list[int] = []
        self.request = -1
        # one entry per span
        self.target_id: list[int] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.size: list[int] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, tid: int, fn, measure_len: bool):
        stack, clock = self._stack, time.perf_counter
        target_id, parent, req = self.target_id, self.parent, self.req
        start, end, size = self.start, self.end, self.size

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            target_id.append(tid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request)
            end.append(0.0)
            size.append(-1)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if measure_len:
                size[sid] = len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, in every gaugepf module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gaugepf" or n.startswith("gaugepf."))]
        self.absent = []
        for tid, target in enumerate(self.targets):
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, name, fn = found
            wrapper = self._wrap(tid, fn, target == "loops:enumerate_generalized_loops")
            bindings = [(owner, name)] if isinstance(owner, type) else [
                (mod, key) for mod in modules
                for key, value in list(vars(mod).items()) if value is fn
            ]
            for obj, key in bindings:
                self._patches.append((obj, key, fn))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._patches):
            setattr(obj, key, fn)
        self._patches = []

    # -- summary ----------------------------------------------------------

    def _arrays(self, requests: range):
        req = np.asarray(self.req)
        keep = (req >= requests.start) & (req < requests.stop)
        idx = np.flatnonzero(keep)
        return {
            "tid": np.asarray(self.target_id)[idx],
            "parent": np.asarray(self.parent)[idx],
            "dur": (np.asarray(self.end) - np.asarray(self.start))[idx],
            "size": np.asarray(self.size)[idx],
            "idx": idx,
        }

    def summarise(self, requests: range) -> dict:
        """Per-layer counts and self times (ms) of the spans of some requests."""
        a = self._arrays(requests)
        n_all = len(self.start)
        dur_all = np.asarray(self.end) - np.asarray(self.start)
        parent_all = np.asarray(self.parent)
        child = np.zeros(n_all)
        has_parent = parent_all >= 0
        np.add.at(child, parent_all[has_parent], dur_all[has_parent])
        self_ms = 1e3 * (a["dur"] - child[a["idx"]])
        tid_all = np.asarray(self.target_id)
        out = {}
        for layer, targets in LAYERS.items():
            ids = [self.targets.index(t) for t in targets]
            counted = [self.targets.index(t) for t in targets if t not in UNCOUNTED]
            out[f"{layer}.calls"] = int(np.isin(a["tid"], counted).sum())
            out[f"{layer}.self_ms"] = float(self_ms[np.isin(a["tid"], ids)].sum())

        def layer_of_parent(layer: str) -> np.ndarray:
            ids = [self.targets.index(t) for t in LAYERS[layer]]
            p = a["parent"]
            return (p >= 0) & np.isin(tid_all[np.maximum(p, 0)], ids)

        tid_of = {t: i for i, t in enumerate(self.targets)}
        residual = a["tid"] == tid_of["bp:residual_norm"]
        under_solve = layer_of_parent("bp.solve")
        under_command = layer_of_parent("cli.command")
        sweeps = int((residual & under_solve).sum())
        restarts = int(((a["tid"] == tid_of["gauge:gauge_function"]) & under_solve).sum())
        out["bp.sweep.calls"] = sweeps
        out["bp.restart.calls"] = restarts
        out["bp.sweeps_per_restart"] = sweeps / restarts if restarts else 0.0

        # loops per `loops` command: the largest enumeration made under it
        enum = np.flatnonzero(a["tid"] == tid_of["loops:enumerate_generalized_loops"])
        per_command: dict[int, int] = {}
        for i in enum:
            cmd = int(a["parent"][i])
            while cmd >= 0 and self.layer_of[self.targets[tid_all[cmd]]] != "cli.command":
                cmd = int(parent_all[cmd])
            per_command[cmd] = max(per_command.get(cmd, 0), int(a["size"][i]))
        loops = sum(per_command.values())
        commands = len([c for c in per_command if c >= 0])
        out["loops.loop_count"] = loops
        out["loops.terms_per_loop"] = out["loops.term.calls"] / loops if loops else 0.0
        out["loops.residual_per_command"] = (
            int((residual & under_command).sum()) / commands if commands else 0.0
        )
        return out

    def dump(self, path: str, requests: range, cases: list) -> None:
        """Write the spans of some requests, one column per field."""
        a = self._arrays(requests)
        start = np.asarray(self.start)[a["idx"]]
        t0 = float(start.min()) if len(start) else 0.0
        remap = {int(old): new for new, old in enumerate(a["idx"])}
        doc = {
            "fields": "target, parent span (-1 for none), request, start_us, end_us",
            "targets": self.targets,
            "absent": self.absent,
            "requests": {str(r): cases[r % len(cases)] for r in requests},
            "target": a["tid"].tolist(),
            "parent": [remap.get(int(p), -1) for p in a["parent"]],
            "request": np.asarray(self.req)[a["idx"]].tolist(),
            "start_us": np.round((start - t0) * 1e6, 1).tolist(),
            "end_us": np.round((start + a["dur"] - t0) * 1e6, 1).tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
