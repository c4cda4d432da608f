"""Checks on the source of the package itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cellcoh
from cellcoh import linalg as la

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


def test_samplers_make_no_per_draw_rng_calls():
    # diffcoh and cli draw every sample through diffcoh._randbelow, which
    # reads the words of randint, randrange and choice without their calls
    root = Path(cellcoh.__file__).parent
    found = []
    for name in ("diffcoh.py", "cli.py"):
        tree = ast.parse((root / name).read_text(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("randint", "randrange", "choice")]
    assert found == []


def _load_spans():
    if not SPANS.is_file():
        pytest.skip("no benchmark tracer in this checkout")
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # the benchmark's tracer wraps these names from outside; a rename in the
    # package must not leave one dangling.  Resolved as Tracer.install()
    # does: a module attribute, or a method in the class's own __dict__.
    spans = _load_spans()
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


def test_benchmark_tracer_reads_the_smith_form():
    # a `--trace 1` run counts entries, unit diagonals and big entries off
    # each SmithForm from outside the package
    spans = _load_spans()
    tracer = spans.Tracer()
    small = np.array([[2, 0, 0], [0, 1, 0]], dtype=np.int64)
    big = np.array([[1, 0], [0, 2 ** 64 + 1]], dtype=object)
    for A in (small, big):
        spans._after_snf(tracer, None, (A,), {}, la.smith_normal_form(A))
    c = tracer.counters
    assert c["linalg.snf.entries"] == 2 * 3 + 2 * 2
    assert (c["snf_unit_diag"], c["snf_nonzero_diag"]) == (2, 4)
    assert c["linalg.snf.big_entry_calls"] == 1
