"""Checks on the source of the package itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cellcoh

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps these names from outside; a rename in the
    # package must not leave one dangling.  Resolved as Tracer.install()
    # does: a module attribute, or a method in the class's own __dict__.
    if not SPANS.is_file():
        pytest.skip("no benchmark tracer in this checkout")
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    dangling = []
    for targets in spans.TARGETS.values():
        for target in targets:
            modname, attr = target.split(":")
            mod = importlib.import_module(f"cellcoh.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                ok = cls is not None and meth in vars(cls)
            else:
                ok = callable(getattr(mod, attr, None))
            if not ok:
                dangling.append(target)
    assert dangling == []
