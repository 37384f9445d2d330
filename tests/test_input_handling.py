"""Properties of the model file format and the input-error exit code.

Any model, self-edges and parallel edges included, survives a
serialize/parse round trip bit for bit, and serializes to the same text as
the per-character key construction below and as ``json.dumps`` of
``model_to_doc``.  A contracted model reads back as the same model, each
merged factor in the order the edge list builds.  Every way of breaking a valid
document or file, and every out-of-range solver flag, makes each command
exit 3 with an ``error:`` line on stderr and nothing on stdout.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugepf import FactorTable, MultiGM, MultiGraph, contract_model
from gaugepf.cli import (
    EXIT_INPUT,
    main,
    model_digest,
    model_to_doc,
    parse_model,
    serialize_model,
)
from gaugepf.model import ModelError, evaluate_weight, partition_exact

from conftest import make_model

# ids with the characters a dart name, a list or a JSON string could trip
# over: a quote, a backslash, a non-ASCII letter and a control character
IDS = st.text(alphabet='ab01_+-, "\\\u00e9\x01', min_size=1, max_size=3)

# entries at the ends of the float range, written by float.__repr__
EXTREMES = [5e-324, 1e-300, 1e300]


@st.composite
def models(draw):
    """A model on 1-4 nodes, edgeless or with a self-edge and a parallel
    pair, edges only between the first ``ends`` nodes (the rest have 0
    slots), and tables that may hold zeros (``"soft": false``) and the
    entries of ``EXTREMES``."""
    nodes = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    ends = draw(st.integers(1, len(nodes)))
    node = st.sampled_from(nodes[:ends])
    pairs = []
    if draw(st.integers(0, 5)):
        pairs = draw(st.lists(st.tuples(node, node), max_size=3))
        a, b = draw(node), draw(node)
        pairs += [(a, a), (a, b), (b, a)]
    ids = draw(st.lists(IDS, min_size=len(pairs), max_size=len(pairs), unique=True))
    graph = MultiGraph.build(nodes, [(e, t, h) for e, (t, h) in zip(ids, pairs)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.floats(0.0, 0.5))
    extremes = draw(st.sampled_from([0.0, 0.0, 0.2]))
    factors = {}
    for v in graph.nodes:
        k = len(graph.incidence[v])
        table = np.exp(rng.uniform(-30.0, 30.0, 1 << k))
        table[rng.random(1 << k) < zeros] = 0.0
        special = rng.random(1 << k) < extremes
        table[special] = rng.choice(EXTREMES, int(special.sum()))
        factors[v] = FactorTable.from_values(v, graph.incidence[v], table)
    return MultiGM.from_tables(graph, factors)


def _contracted(m, data):
    """``m`` after up to two contractions of drawn edges.  A merged node's
    darts then stand in contraction order, not in the order the edge list
    builds.  A contraction whose merged table overflows (two ``1e300``
    entries) raises a ``ModelError``, and the model before it is kept."""
    for _ in range(data.draw(st.integers(0, 2))):
        if not m.graph.edges:
            break
        edge = data.draw(st.sampled_from(sorted(m.graph.edges)))
        try:
            m = contract_model(m, edge)
        except ModelError:
            break
    return m


@given(models(), st.data())
@settings(max_examples=80, deadline=None)
def test_round_trip(m, data):
    m = _contracted(m, data)
    text = serialize_model(m)
    m2 = parse_model(json.loads(text))
    assert serialize_model(m2) == text
    assert m2.graph.nodes == m.graph.nodes
    assert m2.graph.edges == m.graph.edges
    assert dict(m2.graph.endpoints) == dict(m.graph.endpoints)
    for config in itertools.product((0, 1), repeat=len(m.graph.edges)):
        assert _same(evaluate_weight(m2, config), evaluate_weight(m, config))
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 entries overflow
        assert _same(partition_exact(m2), partition_exact(m))
    built = MultiGraph.build(
        m.graph.nodes, [(e, *m.graph.endpoints[e]) for e in m.graph.edges]
    )
    if dict(built.incidence) == dict(m.graph.incidence):
        assert dict(m2.graph.incidence) == dict(m.graph.incidence)
        for v in m.graph.nodes:
            assert m2.factors[v].variables == m.factors[v].variables
            assert m2.factors[v].table.tobytes() == m.factors[v].table.tobytes()


def _same(x, y):
    """Equal floats, NaN (an ``inf * 0`` of extreme entries) included."""
    return x == y or (math.isnan(x) and math.isnan(y))


def reference_doc(m):
    """The model document with every key built one character at a time."""
    factors = {}
    for a in m.graph.nodes:
        f = m.factors[a]
        k = len(f.variables)
        table = {
            "".join("1" if idx >> i & 1 else "0" for i in range(k)): float(v)
            for idx, v in enumerate(f.table)
        }
        factors[a] = {
            "order": [str(d) for d in f.variables],
            "table": table,
            "soft": f.is_soft,
        }
    return {
        "nodes": list(m.graph.nodes),
        "edges": [
            {"id": e, "tail": m.graph.endpoints[e][0], "head": m.graph.endpoints[e][1]}
            for e in m.graph.edges
        ],
        "factors": factors,
    }


@given(models(), st.data())
@settings(max_examples=80, deadline=None)
def test_serialize_matches_reference_text(m, data):
    text = serialize_model(m)
    assert text == json.dumps(reference_doc(m), sort_keys=True, indent=2) + "\n"
    c = _contracted(m, data)
    assert serialize_model(c) == json.dumps(model_to_doc(c), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("m, digest", [
    (make_model(["a", "b"], [("e1", "a", "b")], {"a": [1, 2], "b": [3, 4]}),
     "40ada5403f19159977b725f6c546da7686ce8efbf6465a3580f63e7381464ff5"),
    (make_model(["s", "z"], [("e", "s", "s")], {"s": [2, 5, 7, 3], "z": [7.5]}),
     "e0d5b56d4fdbfc88499d987451dd8e4c3ecce4ace57a04908c6c007cd2e2c05b"),
], ids=["two_node", "self_edge_and_zero_slot_node"])
def test_model_digest_pinned(m, digest):
    assert model_digest(m) == digest


# -- exit 3 ---------------------------------------------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_input_error(command, text, flags=()):
    """``text`` is the file's content: a string written as UTF-8, or bytes."""
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [command, path, *flags]
        if command == "contract":
            argv += ["--mode", "bp-sequence"]
        code, out, err = _run(argv)
    assert code == EXIT_INPUT, (argv, err)
    assert out == ""
    assert err.startswith("error: ")


JUNK = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def broken_documents(draw):
    """The text of a valid model's document broken in one of ten ways."""
    text = serialize_model(draw(models()))
    doc = json.loads(text)
    kinds = [
        "truncated", "not an object", "missing section", "missing factor",
        "bad entry", "bad key", "wrong order",
    ]
    if doc["edges"]:
        kinds += ["unknown node", "duplicate edge", "incomplete edge"]
        edge = draw(st.sampled_from(doc["edges"]))
    kind = draw(st.sampled_from(kinds))
    node = draw(st.sampled_from(sorted(doc["factors"])))
    factor = doc["factors"][node]
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text.rstrip()) - 1))]
    if kind == "not an object":
        return json.dumps(draw(st.one_of(st.integers(), st.text(), st.lists(st.integers()))))
    if kind == "missing section":
        del doc[draw(st.sampled_from(["nodes", "edges", "factors"]))]
    elif kind == "missing factor":
        del doc["factors"][node]
    elif kind == "bad entry":
        key = draw(st.sampled_from(sorted(factor["table"])))
        bad_number = st.floats(allow_nan=True).filter(lambda v: not math.isfinite(v) or v < 0)
        factor["table"][key] = draw(st.one_of(bad_number, JUNK))
    elif kind == "bad key":
        k = len(factor["order"])
        factor["table"][draw(st.text(alphabet="01x", max_size=k + 1).filter(
            lambda s: len(s) != k or "x" in s))] = 1.0
    elif kind == "unknown node":
        edge[draw(st.sampled_from(["tail", "head"]))] = draw(
            IDS.filter(lambda v: v not in doc["nodes"]))
    elif kind == "wrong order":
        order = factor["order"]
        wrong = [order + ["x+"], order[1:], "".join(order) or "x+", None]
        factor["order"] = draw(st.sampled_from([o for o in wrong + [order[::-1]] if o != order]))
    elif kind == "duplicate edge":
        doc["edges"].append(dict(edge))
    else:
        del edge[draw(st.sampled_from(["id", "tail", "head"]))]
    return json.dumps(doc, allow_nan=True)


COMMANDS = st.sampled_from(["exact", "bp", "contract", "loops"])


@given(broken_documents(), COMMANDS)
@settings(max_examples=120, deadline=None)
def test_broken_document_exits_three(text, command):
    _assert_input_error(command, text)


BAD_FLAGS = st.one_of(
    st.tuples(st.just("--tol"),
              st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))),
    st.tuples(st.just("--damping"), st.one_of(
        st.floats(min_value=1.0), st.floats(max_value=0.0, exclude_max=True),
        st.just(math.nan))),
    st.tuples(st.sampled_from(["--restarts", "--max-sweeps"]), st.integers(max_value=0)),
)

TWO_NODE = serialize_model(
    make_model(["a", "b"], [("e1", "a", "b")], {"a": [1, 2], "b": [3, 4]})
)


@given(BAD_FLAGS, st.sampled_from(["bp", "contract", "loops", "verify"]))
@settings(max_examples=60, deadline=None)
def test_bad_solver_flag_exits_three(flag, command):
    name, value = flag
    _assert_input_error(command, TWO_NODE, [f"{name}={value!r}"])


def _huge_integer_entry():
    doc = json.loads(TWO_NODE)
    doc["factors"]["a"]["table"]["0"] = 10**400
    return json.dumps(doc)


BROKEN_FILES = {
    "not UTF-8": b"\xff\xfe",
    "integer beyond float range": _huge_integer_entry(),
    "nested past the recursion limit": "[" * 200_000,
}


@pytest.mark.parametrize("command", ["exact", "bp", "contract", "loops"])
@pytest.mark.parametrize("kind", sorted(BROKEN_FILES))
def test_broken_file_exits_three(kind, command):
    _assert_input_error(command, BROKEN_FILES[kind])
