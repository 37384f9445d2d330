import dataclasses
import json
import math
import re

import numpy as np
import pytest

import gaugepf.bp
import gaugepf.cli
import gaugepf.gauge
import gaugepf.loops
import gaugepf.model
import gaugepf.multigraph
from gaugepf.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_NONCONVERGENCE,
    EXIT_NONFINITE,
    EXIT_OK,
    ModelFileError,
    load_model,
    main,
    model_to_doc,
    parse_model,
    serialize_model,
)
from gaugepf.families import matching_model, permanent_model, random_soft_model
from gaugepf.model import soft_model

from conftest import make_model


@pytest.fixture
def two_node_file(tmp_path, two_node_model):
    path = tmp_path / "two_node.json"
    path.write_text(serialize_model(two_node_model))
    return str(path)


@pytest.fixture
def self_edge_file(tmp_path, self_edge_model):
    path = tmp_path / "self_edge.json"
    path.write_text(serialize_model(self_edge_model))
    return str(path)


@pytest.fixture
def loopy_file(tmp_path, loopy_model):
    path = tmp_path / "loopy.json"
    path.write_text(serialize_model(loopy_model))
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    """One edge whose tables (1, 0) and (0, 1) never agree: Z = 0."""
    m = make_model(["a", "b"], [("e", "a", "b")], {"a": [1.0, 0.0], "b": [0.0, 1.0]})
    path = tmp_path / "zero.json"
    path.write_text(serialize_model(m))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.out


class TestModelFormat:
    def test_round_trip_identity(self, rng):
        for _ in range(5):
            m = random_soft_model(rng, 5)
            m2 = parse_model(json.loads(serialize_model(m)))
            assert m2.graph.nodes == m.graph.nodes
            assert m2.graph.edges == m.graph.edges
            assert m2.graph.incidence == m.graph.incidence
            for a in m.graph.nodes:
                assert m2.factors[a].variables == m.factors[a].variables
                np.testing.assert_array_equal(
                    m2.factors[a].table, m.factors[a].table
                )

    def test_serialize_stable_bytes(self, two_node_model):
        assert serialize_model(two_node_model) == serialize_model(two_node_model)

    def test_sparse_table_needs_marker(self, two_node_model):
        doc = model_to_doc(two_node_model)
        del doc["factors"]["a"]["table"]["0"]
        doc["factors"]["a"]["soft"] = True
        with pytest.raises(ModelFileError, match='"soft": false'):
            parse_model(doc)
        doc["factors"]["a"]["soft"] = False
        m = parse_model(doc)
        assert m.factors["a"].table[0] == 0.0

    def test_malformed_bitstring_names_node(self, two_node_model):
        doc = model_to_doc(two_node_model)
        doc["factors"]["b"]["table"]["2"] = 1.0
        with pytest.raises(ModelFileError, match="'b'"):
            parse_model(doc)

    def test_wrong_order_names_node(self, two_node_model):
        doc = model_to_doc(two_node_model)
        doc["factors"]["a"]["order"] = ["e1-"]
        with pytest.raises(ModelFileError, match="'a'"):
            parse_model(doc)

    def test_negative_entry_rejected(self, two_node_model):
        doc = model_to_doc(two_node_model)
        doc["factors"]["a"]["table"]["0"] = -1.0
        with pytest.raises(ModelFileError, match="negative"):
            parse_model(doc)

    def test_load_missing_file(self):
        with pytest.raises(ModelFileError):
            load_model("/nonexistent/model.json")

    @pytest.mark.parametrize(
        "path,value",
        [
            ((), 17),
            (("nodes",), "ab"),
            (("nodes",), [1, 2]),
            (("edges",), {"e1": ["a", "b"]}),
            (("edges", 0), {"id": "e1"}),
            (("edges", 0, "tail"), "zz"),
            (("factors",), []),
            (("factors", "a"), 42),
            (("factors", "a"), {}),
            (("factors", "a", "order"), "e1+"),
            (("factors", "a", "order"), ["e1-"]),
            (("factors", "a", "table"), [1.0, 2.0]),
            (("factors", "a", "table"), {"00": 1.0}),
            (("factors", "a", "table"), {"0": "x", "1": 2.0}),
            (("factors", "a", "table"), {"0": float("nan"), "1": 2.0}),
            (("factors", "a", "table"), {"0": -1.0, "1": 2.0}),
            (("factors", "a", "table"), {"2": 1.0}),
            (("factors", "a", "table"), {"0": float("inf"), "1": 2.0}),
            (("factors", "a", "table"), {"0": 10**400, "1": 2.0}),
            (("factors", "a", "table"), {"0": 1.0, "10": 2.0}),
        ],
    )
    def test_structural_mutations_rejected(self, two_node_model, path, value):
        import copy

        doc = json.loads(serialize_model(two_node_model))
        if not path:
            doc = value
        else:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        with pytest.raises(ModelFileError):
            parse_model(doc)

    @pytest.mark.parametrize(
        "table,message",
        [
            ({"0": 1.0, "x": 2.0}, "malformed bitstring key 'x' (need length 1 over 0/1)"),
            ({"0": 1.0, "10": 2.0}, "malformed bitstring key '10' (need length 1 over 0/1)"),
            ({"0": 1.0, "1": "2"}, "entry '1': not a finite number"),
            ({"0": float("nan"), "1": 2.0}, "entry '0': not a finite number"),
            ({"0": 1.0, "1": float("inf")}, "entry '1': not a finite number"),
            ({"0": 1.0, "1": -0.5}, "entry '1': negative value"),
            ({"0": 10**400, "1": 2.0}, "entry '0': not a finite number"),
            ({"1": "x", "0": -1.0}, "entry '1': not a finite number"),
            ({"1": 2.0}, 'sparse table (missing keys default to 0) requires an '
                         'explicit "soft": false marker'),
        ],
        ids=["malformed key", "key length", "string", "NaN", "Infinity",
             "negative", "huge integer", "document order", "sparse"],
    )
    def test_bad_entry_message(self, two_node_model, table, message):
        # a table that fails the bulk read is looked at entry by entry, to
        # name the first offending entry in document order
        doc = json.loads(serialize_model(two_node_model))
        doc["factors"]["a"]["table"] = table
        with pytest.raises(ModelFileError) as exc:
            parse_model(doc)
        sep = ": " if message.startswith(("malformed", "sparse")) else ", "
        assert str(exc.value) == f"factor at node 'a'{sep}{message}"

    def test_booleans_and_integers_read_as_floats(self, two_node_model):
        doc = json.loads(serialize_model(two_node_model))
        doc["factors"]["a"]["table"] = {"0": True, "1": 2**60 + 1}
        doc["factors"]["b"]["table"] = {"0": 3, "1": False}
        doc["factors"]["b"]["soft"] = False
        m = parse_model(doc)
        assert m.factors["a"].table.tolist() == [1.0, float(2**60 + 1)]
        assert m.factors["b"].table.tolist() == [3.0, 0.0]
        assert all(type(v) is float for f in m.factors.values() for v in f.table.tolist())

    def test_empty_sparse_table_reads_as_zeros(self, two_node_model):
        doc = json.loads(serialize_model(two_node_model))
        doc["factors"]["a"]["table"] = {}
        doc["factors"]["a"]["soft"] = False
        doc["nodes"].append("lone")
        doc["factors"]["lone"] = {"order": [], "table": {}, "soft": False}
        m = parse_model(doc)
        assert m.factors["a"].table.tolist() == [0.0, 0.0]
        assert m.factors["lone"].table.tolist() == [0.0]
        assert m.factors["b"].table.tolist() == two_node_model.factors["b"].table.tolist()

    def test_isolated_node_empty_bitstring(self):
        # a degree-0 node has a single-entry table keyed by the empty string
        m = make_model(
            ["a", "b", "lone"],
            [("e1", "a", "b")],
            {"a": [1, 2], "b": [3, 4], "lone": [7.0]},
        )
        doc = json.loads(serialize_model(m))
        assert doc["factors"]["lone"]["table"] == {"": 7.0}
        m2 = parse_model(doc)
        assert float(m2.factors["lone"].table[0]) == 7.0


class TestCmdExact:
    def test_two_node(self, capsys, two_node_file):
        code, report, _ = run(capsys, ["exact", two_node_file])
        assert code == EXIT_OK
        assert report["results"]["Z"] == 11.0
        assert report["results"]["map_energy"] == pytest.approx(-math.log(8.0))
        assert report["results"]["argmax"] == "1"

    def test_triangle_all_ones(self, capsys, tmp_path, triangle_model):
        path = tmp_path / "tri.json"
        path.write_text(serialize_model(triangle_model))
        code, report, _ = run(capsys, ["exact", str(path)])
        assert code == EXIT_OK
        assert report["results"]["Z"] == 8.0

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": "oops"}')
        code, report, _ = run(capsys, ["exact", str(bad)])
        assert code == EXIT_INPUT
        assert report is None

    def test_guard_exceeded(self, capsys, two_node_file):
        code, _, _ = run(capsys, ["exact", two_node_file, "--guard", "0"])
        assert code == EXIT_INPUT


class TestCmdBP:
    def test_tree_flagged_exact(self, capsys, two_node_file):
        code, report, _ = run(capsys, ["bp", two_node_file, "--restarts", "4"])
        assert code == EXIT_OK
        assert report["results"]["exact"] is True
        assert report["results"]["Z_vbp"] == pytest.approx(11.0, rel=1e-8)

    def test_bouquet_ratio(self, capsys, self_edge_file):
        code, report, _ = run(capsys, ["bp", self_edge_file, "--restarts", "4"])
        assert code == EXIT_OK
        r = report["results"]
        assert r["Z_vbp"] == pytest.approx((5 + math.sqrt(101)) / 2, rel=1e-9)
        assert r["Z"] == 5.0
        assert r["ratio"] == pytest.approx(r["Z_vbp"] / 5.0)
        assert r["exact"] is False

    def test_clamp_hits_reported(self, capsys, two_node_file, monkeypatch):
        _, report, _ = run(capsys, ["bp", two_node_file, "--restarts", "2"])
        assert report["results"]["clamped"] == 0
        monkeypatch.setattr(gaugepf.bp, "_CLAMP", (0.9, 1.1))
        _, report, _ = run(
            capsys, ["bp", two_node_file, "--restarts", "2", "--max-sweeps", "5"]
        )
        assert report["results"]["clamped"] == 5
        # each sweep ends on the lower bound of (10, 1e18), or on the upper one of (1e-18, 0.1)
        for window in ((10.0, 1e18), (1e-18, 0.1)):
            monkeypatch.setattr(gaugepf.bp, "_CLAMP", window)
            _, report, _ = run(
                capsys, ["bp", two_node_file, "--restarts", "2", "--max-sweeps", "5"]
            )
            assert report["results"]["clamped"] == 5

    def test_fallbacks_reported(self, capsys, tmp_path, two_node_file):
        _, report, _ = run(capsys, ["bp", two_node_file, "--restarts", "2"])
        assert report["results"]["fallbacks"] == 0
        path = tmp_path / "perm.json"
        path.write_text(serialize_model(permanent_model(np.ones((2, 2)))))
        code, report, _ = run(capsys, ["bp", str(path), "--restarts", "2"])
        assert code == EXIT_OK
        assert report["results"]["converged"] is True
        assert report["results"]["fallbacks"] == 2

    def test_nan_value_exits_four(self, capsys, tmp_path, two_node_file, monkeypatch):
        real = gaugepf.bp.solve_bp
        monkeypatch.setattr(
            gaugepf.bp, "solve_bp",
            lambda m, cfg: dataclasses.replace(real(m, cfg), value=math.nan),
        )
        copy = tmp_path / "report.json"
        code = main(["bp", two_node_file, "--restarts", "2", "--json", str(copy)])
        captured = capsys.readouterr()
        assert code == EXIT_NONFINITE
        assert captured.out == ""
        assert captured.err == "error: non-finite value in the report at results.Z_vbp\n"
        assert not copy.exists()

    def test_zero_partition_reports_null_ratio(self, capsys, zero_file):
        code, report, _ = run(capsys, ["bp", zero_file, "--restarts", "2"])
        assert code == EXIT_OK
        r = report["results"]
        assert r["Z"] == 0.0
        assert r["ratio"] is None
        assert r["exact"] is False
        assert math.isfinite(r["Z_vbp"])

    def test_nonconvergence_exit_two(self, capsys, loopy_file):
        code, report, _ = run(
            capsys,
            ["bp", loopy_file, "--tol", "1e-30", "--max-sweeps", "3",
             "--restarts", "2"],
        )
        assert code == EXIT_NONCONVERGENCE
        assert report["results"]["converged"] is False

    def test_hard_model_softened_lower_bound(self, capsys, tmp_path):
        # all-ones 2x2 perfect-matching model: Z = 2, report says softened
        # and the variational value stays below Z
        from gaugepf.families import permanent_model

        path = tmp_path / "perm.json"
        path.write_text(serialize_model(permanent_model(np.ones((2, 2)))))
        code, report, _ = run(capsys, ["bp", str(path), "--restarts", "4"])
        assert code == EXIT_OK
        r = report["results"]
        assert r["softened"] is True
        assert r["Z"] == 2.0
        assert r["Z_vbp"] <= 2.0 * (1 + 1e-9)
        assert r["ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "command", ["bp", "loops", "verify", "contract --mode bp-sequence"]
)
def test_hard_model_softened_once(capsys, monkeypatch, tmp_path, command):
    """Each solver command softens a hard model once, before it solves, and
    leaves a soft model as it is."""
    soften = gaugepf.model.soften
    calls = []

    def counted(m, eps):
        calls.append(eps)
        return soften(m, eps)

    # in every module that binds it, so a call from outside soft_model counts
    for module in (gaugepf.model, gaugepf.bp, gaugepf.cli):
        if hasattr(module, "soften"):
            monkeypatch.setattr(module, "soften", counted)
    for m, softens in ((matching_model(3, 3), 1),
                       (random_soft_model(np.random.default_rng(5), 6, n_nodes=4), 0)):
        path = tmp_path / "model.json"
        path.write_text(serialize_model(m))
        calls.clear()
        code, _, _ = run(capsys, [*command.split(), str(path), "--restarts", "2"])
        assert code == EXIT_OK
        assert len(calls) == softens


@pytest.mark.parametrize(
    "flags",
    [["--tol", "-1"], ["--damping", "1.5"], ["--restarts", "0"], ["--max-sweeps", "0"]],
)
def test_invalid_solver_flag_exit_three(capsys, two_node_file, flags):
    code = main(["bp", two_node_file, *flags])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,check,limit",
    [
        (["bp", "MODEL", "--tol", "1e-6"], "bp.POLYTOPE_TOL", 1e-9),
        (["verify", "--random", "2", "--edges", "5", "--seed", "1", "--tol", "1e-6"],
         "bp.POLYTOPE_TOL", 1e-9),
        (["loops", "MODEL", "--tol", "1e-3"], "loops.CONVERGENCE_THRESHOLD", 1e-6),
    ],
)
def test_tol_looser_than_later_check_refused(capsys, monkeypatch, tmp_path, argv,
                                             check, limit):
    # at these --tol values each solve converges, but its gauge can fail the
    # check the command runs on it (bp and verify the belief consistency of
    # bethe_free_energy, loops the loop series' residual gate), so the flag
    # is refused before the solve; at the check's own tolerance the command
    # runs to the end
    path = tmp_path / "m.json"
    m = random_soft_model(np.random.default_rng(0), 6, n_nodes=3)
    path.write_text(serialize_model(m))
    argv = [str(path) if a == "MODEL" else a for a in argv]

    def refused(*args):
        raise AssertionError("solved before the --tol check")

    monkeypatch.setattr(gaugepf.bp, "solve_bp", refused)
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: gaugepf {argv[0]}: --tol {float(argv[-1]):g} is looser than "
        f"{check} ({limit:g}), the check on the solved gauge\n"
    )
    monkeypatch.undo()
    code, report, _ = run(capsys, [*argv[:-1], str(limit)])
    assert code == EXIT_OK
    if argv[0] == "verify":
        assert report["all_passed"] is True


@pytest.mark.parametrize("argv", [["bp", "m.json"], ["contract", "m.json"],
                                  ["loops", "m.json"], ["verify"]])
def test_default_flags_are_solver_defaults(argv):
    args = gaugepf.cli.build_parser().parse_args(argv)
    assert gaugepf.cli._solver_config(args) == gaugepf.bp.SolverConfig()


@pytest.mark.parametrize(
    "argv",
    [
        ["bp", "x.json", "--restarts", "abc"],
        ["bp", "x.json", "--tol", "-1e-05"],
        [],
        ["bogus", "x.json"],
        # each command takes only the flags it reads
        ["exact", "x.json", "--seed", "1"],
        ["verify", "--guard", "5"],
        # the softening floor is fixed, not a flag
        ["bp", "x.json", "--soften", "1e-12"],
    ],
)
def test_unparsable_command_line_exit_three(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: gaugepf")


def test_unparsable_value_names_the_flag(capsys):
    # a bad value, and a flag the command does not take: both name the command
    for argv, message in (
        (["bp", "x.json", "--restarts", "abc"],
         "gaugepf bp: argument --restarts: invalid int value: 'abc'"),
        (["exact", "x.json", "--seed", "1"],
         "gaugepf exact: unrecognized arguments: --seed 1"),
        (["verify", "--guard", "5"], "gaugepf verify: unrecognized arguments: --guard"),
    ):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: gaugepf" in capsys.readouterr().out


def test_cached_parser_keeps_no_state(capsys, monkeypatch, two_node_file):
    seen = []
    cmd_bp = gaugepf.cli.cmd_bp

    def spy(m, args):
        seen.append(vars(args))
        return cmd_bp(m, args)

    monkeypatch.setattr(gaugepf.cli, "cmd_bp", spy)
    assert gaugepf.cli._parser() is gaugepf.cli._parser()
    assert main(["bp", two_node_file, "--restarts", "2"]) == EXIT_OK
    assert main(["bp", two_node_file]) == EXIT_OK
    capsys.readouterr()
    assert seen[0]["restarts"] == 2
    assert seen[1] == vars(gaugepf.cli.build_parser().parse_args(["bp", two_node_file]))
    assert seen[1]["restarts"] == 16


@pytest.mark.parametrize(
    "flags",
    [
        ["bp", "--restarts", "2"],
        ["contract", "--mode", "exact"],
        ["contract", "--mode", "bp-sequence", "--restarts", "2"],
        ["loops", "--restarts", "2"],
        ["loops", "--restarts", "2", "--max-sweeps", "1"],
    ],
)
def test_solver_command_envelope(capsys, loopy_file, flags):
    # the exact report, which takes no --seed, is pinned in test_exact_blocks
    code, report, _ = run(capsys, [flags[0], loopy_file, *flags[1:], "--seed", "7"])
    assert code == (EXIT_NONCONVERGENCE if "--max-sweeps" in flags else EXIT_OK)
    assert set(report) == {"command", "model_digest", "results", "seed"}
    assert report["command"] == flags[0]
    assert report["model_digest"] == gaugepf.cli.model_digest(load_model(loopy_file))
    assert report["seed"] == 7


class TestCmdContract:
    def test_exact_mode_constant(self, capsys, self_edge_file):
        code, report, _ = run(capsys, ["contract", self_edge_file])
        assert code == EXIT_OK
        assert report["results"]["z_constant"] is True
        assert all(s["Z"] == 5.0 for s in report["results"]["steps"])

    def test_bp_sequence_decrease_informative(self, capsys, self_edge_file):
        code, report, _ = run(
            capsys,
            ["contract", self_edge_file, "--mode", "bp-sequence",
             "--restarts", "4"],
        )
        assert code == EXIT_OK
        assert report["results"]["non_decreasing"] is False
        assert len(report["results"]["decreases"]) == 1
        assert report["results"]["final_Z"] == pytest.approx(5.0, rel=1e-9)

    def test_explicit_order(self, capsys, tmp_path, triangle_model):
        path = tmp_path / "tri.json"
        path.write_text(serialize_model(triangle_model))
        code, report, _ = run(
            capsys, ["contract", str(path), "--order", "e2,e1,e3"]
        )
        assert code == EXIT_OK
        assert report["results"]["order"] == ["e2", "e1", "e3"]

    def test_invalid_order_member(self, capsys, two_node_file):
        code, _, _ = run(capsys, ["contract", two_node_file, "--order", "zz"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("mode", ["exact", "bp-sequence"])
    def test_invalid_order_names_its_edges(
        self, capsys, tmp_path, triangle_model, mode
    ):
        path = tmp_path / "tri.json"
        path.write_text(serialize_model(triangle_model))
        code = main(["contract", str(path), "--mode", mode, "--order", "e1,e1,zz"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "missing 'e2', 'e3'; repeated 'e1'; unknown 'zz'" in err

    def test_order_checked_once(self, capsys, tmp_path, triangle_model, monkeypatch):
        """``contract --order`` leaves the check to the library: one call in
        each mode."""
        path = tmp_path / "tri.json"
        path.write_text(serialize_model(triangle_model))
        real = gaugepf.multigraph.MultiGraph.check_order
        calls = []

        def counting(self, order):
            calls.append(list(order))
            return real(self, order)

        monkeypatch.setattr(gaugepf.multigraph.MultiGraph, "check_order", counting)
        for mode in ("exact", "bp-sequence"):
            calls.clear()
            code, _, _ = run(
                capsys, ["contract", str(path), "--mode", mode, "--order", "e2,e1,e3"]
            )
            assert code == EXIT_OK
            assert calls == [["e2", "e1", "e3"]]

    def test_bp_sequence_reports_start_and_sweeps(self, capsys, tmp_path):
        path = tmp_path / "k23.json"
        path.write_text(serialize_model(matching_model(2, 3)))
        code, report, _ = run(
            capsys, ["contract", str(path), "--mode", "bp-sequence", "--restarts", "2"]
        )
        assert code == EXIT_OK
        stages = report["results"]["stages"]
        # stage 0 and the edgeless last stage are solved cold, the rest warm
        assert [s["start"] for s in stages] == (
            ["cold"] + ["warm"] * (len(stages) - 2) + ["cold"]
        )
        # K_{2,3}'s four normal-edge contractions keep a BP gauge, so their
        # stages check their start and take no sweep; the self-edge stage
        # sweeps, and the edgeless last stage has nothing to sweep
        sweeps = [s["sweeps"] for s in stages]
        assert len(sweeps) == 7
        assert sweeps[0] > 0 and sweeps[1:5] == [0] * 4 and sweeps[5] > 0
        assert sweeps[6] == 0
        # each stage's largest table and its entries over all tables: two
        # 3-slot and three 2-slot tables; the first left node takes in the
        # three right ones, then the other left node, and the two
        # self-edges that leaves are contracted last
        assert [(s["max_slots"], s["table_entries"]) for s in stages] == [
            (3, 28), (3, 24), (3, 20), (3, 16), (4, 16), (2, 4), (0, 1)
        ]

    def test_bp_sequence_reports_softening(self, capsys, tmp_path, rng):
        for m, softened in ((matching_model(2, 2), True),
                            (random_soft_model(rng, 3, n_nodes=2), False)):
            path = tmp_path / "model.json"
            path.write_text(serialize_model(m))
            code, report, _ = run(
                capsys, ["contract", str(path), "--mode", "bp-sequence", "--restarts", "2"]
            )
            assert code == EXIT_OK
            assert report["results"]["softened"] is softened

    def test_bp_sequence_reports_fallbacks(self, capsys, tmp_path):
        """Stage 0 of the 2x2 all-ones permanent falls back on every restart;
        the warm stages have no damped phase to fall back to."""
        path = tmp_path / "perm.json"
        path.write_text(serialize_model(permanent_model(np.ones((2, 2)))))
        code, report, _ = run(
            capsys, ["contract", str(path), "--mode", "bp-sequence", "--restarts", "2"]
        )
        assert code == EXIT_OK
        stages = report["results"]["stages"]
        assert [s["fallbacks"] for s in stages] == [2] + [0] * (len(stages) - 1)

    def test_id_order(self, capsys, tmp_path, triangle_model):
        path = tmp_path / "tri.json"
        path.write_text(serialize_model(triangle_model))
        code, report, _ = run(capsys, ["contract", str(path), "--order", "ids"])
        assert code == EXIT_OK
        assert report["results"]["order"] == ["e1", "e2", "e3"]
        assert report["results"]["z_constant"] is True


class TestCmdLoops:
    def test_tree_single_loop(self, capsys, two_node_file):
        code, report, _ = run(capsys, ["loops", two_node_file, "--restarts", "4"])
        assert code == EXIT_OK
        r = report["results"]
        assert r["loop_count"] == 1
        assert r["sum"] == pytest.approx(11.0, rel=1e-8)
        assert r["relative_error"] <= 1e-8

    def test_self_edge_two_loops_sorted(self, capsys, self_edge_file):
        code, report, _ = run(capsys, ["loops", self_edge_file, "--restarts", "4"])
        assert code == EXIT_OK
        r = report["results"]
        assert r["loop_count"] == 2
        terms = r["terms"]
        assert abs(terms[0]["term"]) >= abs(terms[1]["term"])
        assert r["sum"] == pytest.approx(5.0, rel=1e-8)

    def test_zero_partition_reports_null_error(self, capsys, zero_file):
        code, report, _ = run(capsys, ["loops", zero_file, "--restarts", "2"])
        assert code == EXIT_OK
        r = report["results"]
        assert r["Z"] == 0.0
        assert r["relative_error"] is None
        assert math.isfinite(r["sum"])

    def test_nonconvergence_exit_two(self, capsys, loopy_file):
        code, _, _ = run(
            capsys,
            ["loops", loopy_file, "--tol", "1e-30", "--max-sweeps", "3",
             "--restarts", "2"],
        )
        assert code == EXIT_NONCONVERGENCE

    def test_fallbacks_reported(self, capsys, tmp_path, two_node_file, loopy_file):
        _, report, _ = run(capsys, ["loops", two_node_file, "--restarts", "2"])
        assert report["results"]["fallbacks"] == 0
        path = tmp_path / "perm.json"
        path.write_text(serialize_model(permanent_model(np.ones((2, 2)))))
        code, report, _ = run(capsys, ["loops", str(path), "--restarts", "2"])
        assert code == EXIT_OK
        assert report["results"]["fallbacks"] == 2
        # an unconverged solve reports them too
        code, report, _ = run(
            capsys,
            ["loops", loopy_file, "--tol", "1e-30", "--max-sweeps", "3",
             "--restarts", "2"],
        )
        assert code == EXIT_NONCONVERGENCE
        assert report["results"] == {
            "converged": False, "residual": report["results"]["residual"],
            "fallbacks": 2,
        }

    @pytest.mark.parametrize(
        "make",
        [lambda: random_soft_model(np.random.default_rng(5), 10, n_nodes=5),
         lambda: matching_model(3, 3)],
        ids=["soft", "hard"],
    )
    def test_sum_is_loop_series_sum_bit_for_bit(self, capsys, tmp_path, make):
        """The reported sum adds the reported terms in enumeration order,
        as loop_series_sum does on the (softened) model."""
        path = tmp_path / "m.json"
        path.write_text(serialize_model(make()))
        code, report, _ = run(capsys, ["loops", str(path), "--restarts", "4"])
        assert code == EXIT_OK
        m = load_model(str(path))
        msoft = soft_model(m)
        g = gaugepf.bp.solve_bp(msoft, gaugepf.bp.SolverConfig(restarts=4))
        assert report["results"]["sum"] == gaugepf.loops.loop_series_sum(msoft, g.x)


def test_missing_dart_named(two_node_model):
    """A gauge without one dart is refused by name, by the loop series and
    the residual alike."""
    g = gaugepf.bp.solve_bp(two_node_model, gaugepf.bp.SolverConfig(restarts=2))
    for d in g.x:
        x = {k: v for k, v in g.x.items() if k != d}
        match = f"missing directed edge {re.escape(str(d))}"
        with pytest.raises(ValueError, match=match):
            gaugepf.loops.loop_term(two_node_model, x, (0,))
        with pytest.raises(ValueError, match=match):
            gaugepf.bp.bp_residual(two_node_model, x)


class TestDeterminism:
    def test_exact_byte_identical(self, capsys, two_node_file):
        _, _, out1 = run(capsys, ["exact", two_node_file])
        _, _, out2 = run(capsys, ["exact", two_node_file])
        assert out1 == out2

    def test_loops_byte_identical(self, capsys, self_edge_file):
        args = ["loops", self_edge_file, "--seed", "3", "--restarts", "4"]
        _, _, out1 = run(capsys, args)
        _, _, out2 = run(capsys, args)
        assert out1 == out2

    def test_contract_byte_identical(self, capsys, self_edge_file):
        args = ["contract", self_edge_file, "--mode", "bp-sequence",
                "--seed", "5", "--restarts", "4"]
        _, _, out1 = run(capsys, args)
        _, _, out2 = run(capsys, args)
        assert out1 == out2

    def test_json_flag_writes_same_bytes(self, capsys, tmp_path, two_node_file):
        out_path = tmp_path / "report.json"
        _, _, out = run(capsys, ["exact", two_node_file, "--json", str(out_path)])
        assert out_path.read_text() == out


class TestCmdVerify:
    def test_random_suite_passes(self, capsys):
        code, report, _ = run(
            capsys,
            ["verify", "--random", "3", "--edges", "5", "--seed", "7",
             "--restarts", "4"],
        )
        assert code == EXIT_OK
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {
            "orthogonality", "gauge_invariance", "contract_commutes",
            "algebraic_graphical", "diff_marg_recovery", "no_loose_coloring",
            "saddle", "loop_sum", "value_identity",
        } <= names

    def test_soft_model_brute_forced_once(self, capsys, monkeypatch):
        """The loop_sum check on a soft model reuses its Z, with the same report."""
        real, real_sum = gaugepf.cli.partition_exact, gaugepf.loops.loop_series_sum
        calls = []
        sums = []

        def counting(m, *args, **kwargs):
            calls.append((m, real(m, *args, **kwargs)))
            return calls[-1][1]

        def summing(m, *args, **kwargs):
            sums.append((m, real_sum(m, *args, **kwargs)))
            return sums[-1][1]

        monkeypatch.setattr(gaugepf.cli, "partition_exact", counting)
        monkeypatch.setattr(gaugepf.loops, "loop_series_sum", summing)
        code, report, _ = run(
            capsys, ["verify", "--random", "1", "--edges", "6", "--seed", "7"]
        )
        assert code == EXIT_OK
        # Z, then the three gauge-transformed models; none brute-forced twice
        assert len(calls) == 4
        assert len({id(m) for m, _ in calls}) == 4
        m, z = calls[0]
        (msoft, total), = sums
        assert msoft is m
        # the report reads as it did with a fresh brute-force pass for loop_sum
        zs = real(msoft)
        assert zs == z
        details = {c["name"]: c["details"] for c in report["checks"]}["loop_sum"]
        assert details == [f"rel err {gaugepf.cli._rel_err(total, zs):.2e}"]

    def test_details_kept_per_model(self, capsys, monkeypatch):
        """A check that fails on the first of two models keeps both models'
        details, in model order."""
        real_sum = gaugepf.loops.loop_series_sum
        calls = []

        def off_on_first(m, *args, **kwargs):
            calls.append(m)
            total = real_sum(m, *args, **kwargs)
            return 2.0 * total if len(calls) == 1 else total

        monkeypatch.setattr(gaugepf.loops, "loop_series_sum", off_on_first)
        code = main(
            ["verify", "--random", "2", "--edges", "5", "--seed", "7", "--restarts", "4"]
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == EXIT_INVARIANT
        assert report["all_passed"] is False
        checks = {c["name"]: c for c in report["checks"]}
        loop_sum = checks["loop_sum"]
        assert loop_sum["passed"] is False
        first, second = loop_sum["details"]
        assert first == "rel err 1.00e+00"
        assert float(second.removeprefix("rel err ")) <= 1e-8
        assert len(checks.pop("orthogonality")["details"]) == 1
        assert all(len(c["details"]) == 2 for c in checks.values())
        assert f"[FAIL] loop_sum: {first}; {second}" in captured.err

    @staticmethod
    def _failed_checks(capsys):
        """Run a two-model ``verify``; return its exit code and the names of
        the checks that failed."""
        code = main(
            ["verify", "--random", "2", "--edges", "5", "--seed", "7", "--restarts", "4"]
        )
        report = json.loads(capsys.readouterr().out)
        return code, {c["name"] for c in report["checks"] if not c["passed"]}

    def test_gauge_invariance_fails_on_a_wrong_entry(self, capsys, monkeypatch):
        """A gauge-transformed model with one entry off by 1e-6 fails
        gauge_invariance and no other check."""
        real = gaugepf.gauge.transform_factors

        def off_by_one_entry(m, x):
            t = real(m, x)
            a = t.graph.nodes[0]
            f = t.factors[a]
            table = f.table.copy()
            table[0] += 1e-6
            factors = dict(t.factors)
            factors[a] = gaugepf.model.FactorTable.from_values(
                a, f.variables, table, allow_negative=True
            )
            return gaugepf.model.MultiGM(t.graph, factors)

        monkeypatch.setattr(gaugepf.gauge, "transform_factors", off_by_one_entry)
        assert self._failed_checks(capsys) == (EXIT_INVARIANT, {"gauge_invariance"})

    def test_value_identity_fails_on_a_wrong_free_energy(self, capsys, monkeypatch):
        """A Bethe free energy off by 1e-6 fails value_identity and no other
        check."""
        real = gaugepf.bp.bethe_free_energy
        monkeypatch.setattr(
            gaugepf.bp, "bethe_free_energy", lambda m, bel: real(m, bel) + 1e-6
        )
        assert self._failed_checks(capsys) == (EXIT_INVARIANT, {"value_identity"})

    def test_tree_corpus_exactness(self, capsys, tmp_path, rng):
        from gaugepf.families import random_tree_model
        from gaugepf.cli import serialize_model as ser

        path = tmp_path / "tree.json"
        path.write_text(ser(random_tree_model(rng, 5)))
        code, report, _ = run(capsys, ["verify", str(path), "--restarts", "4"])
        assert code == EXIT_OK
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["tree_exactness"] is True

    def test_too_large_for_symbolic_check_exit_three(self, capsys, tmp_path):
        from gaugepf.families import matching_model

        path = tmp_path / "k45.json"
        path.write_text(serialize_model(matching_model(4, 5)))
        code = main(["verify", str(path), "--restarts", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "22 variables" in captured.err

    def test_too_large_refused_before_brute_force(self, capsys, tmp_path, monkeypatch):
        from gaugepf.families import matching_model

        def fail(*args, **kwargs):
            raise AssertionError("brute force ran before the size check")

        monkeypatch.setattr(gaugepf.cli, "partition_exact", fail)
        path = tmp_path / "k45.json"
        path.write_text(serialize_model(matching_model(4, 5)))
        code = main(["verify", str(path), "--restarts", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert "22 variables" in captured.err

    def test_corrupted_gauge_matrix_fails_exit_one(self, capsys, monkeypatch):
        true_matrix = gaugepf.gauge.gauge_matrix

        def corrupted(x_p, x_q):
            g = true_matrix(x_p, x_q).copy()
            g[1, 0] = -g[1, 0]  # break the sibling sign convention
            return g

        monkeypatch.setattr(gaugepf.gauge, "gauge_matrix", corrupted)
        code, report, _ = run(
            capsys,
            ["verify", "--random", "1", "--edges", "3", "--seed", "1",
             "--restarts", "2"],
        )
        assert code == EXIT_INVARIANT
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["orthogonality"] is False
