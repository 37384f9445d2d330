"""The direct Bethe minimizer stays independent of the code it checks."""

import ast
from pathlib import Path

import gaugepf.bethe

# the solver (bp), the node-table kernels (gauge), the loop series and the
# polynomial layer are what the oracle cross-checks, so it may import none
# of them
ALLOWED = {"__future__", "math", "typing", "numpy", ".model", ".multigraph"}


def _imports(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_oracle_imports_only_the_allowlist():
    source = Path(gaugepf.bethe.__file__).read_text(encoding="utf-8")
    assert _imports(source) <= ALLOWED, _imports(source) - ALLOWED


def test_import_scan_sees_relative_and_nested_imports():
    source = "from . import bp\ndef f():\n    from .gauge import node_weights\n"
    assert _imports(source) == {".", ".gauge"}
