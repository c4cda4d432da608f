"""Checks on the source of the package itself."""

import ast
from pathlib import Path

import cellcoh


def test_no_assert_statements_in_package():
    # witness and invariant checks must survive `python -O`, which strips
    # assert statements
    root = Path(cellcoh.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
