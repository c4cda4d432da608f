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


def test_exact_modules_hold_no_floating_point():
    # the exact layers multiply integers on int64 or Python ints only
    root = Path(cellcoh.__file__).parent
    banned = {"float64", "float32", "einsum"}
    found = []
    for name in ("linalg.py", "chains.py", "cells.py", "tot.py", "diffcoh.py"):
        tree = ast.parse((root / name).read_text(), filename=name)
        for node in ast.walk(tree):
            word = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if word in banned:
                found.append(f"{name}:{node.lineno}")
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


def _forwarding_twins(root: Path, exempt: set) -> list:
    """Public functions and methods whose body, docstring aside, is one
    `return g(p1, ..., pn)` passing exactly their own parameters in order:
    a second name for g."""
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [("", node) for node in tree.body]
        defs += [(f"{cls.name}.", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body]
        for prefix, node in defs:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")
                    or (path.stem, prefix + node.name) in exempt):
                continue
            body = node.body[ast.get_docstring(node) is not None:]
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args]
            if (len(body) != 1 or not isinstance(body[0], ast.Return)
                    or not isinstance(body[0].value, ast.Call)
                    or a.vararg or a.kwarg or a.kwonlyargs):
                continue
            call = body[0].value
            passed = [x.id if isinstance(x, ast.Name) else None
                      for x in call.args]
            if passed == params and not call.keywords:
                found.append(f"{path.name}:{prefix}{node.name}")
    return found


def test_no_forwarding_twins():
    # one name per operation: a public function that only hands its own
    # parameters on to another is a twin of it.  The benchmark's span
    # targets are exempt, since its tracer wraps them by name.
    spans = _load_spans()
    exempt = {tuple(target.split(":")) for targets in spans.TARGETS.values()
              for target in targets}
    assert _forwarding_twins(Path(cellcoh.__file__).parent, exempt) == []


def test_the_twin_guard_flags_forwarding_functions(tmp_path):
    (tmp_path / "m.py").write_text(
        'def f(a, b):\n    """Doc."""\n    return g(a, b)\n\n\n'
        'def swapped(a, b):\n    return g(b, a)\n\n\n'
        'class C:\n    """Doc."""\n\n    def m(self, x):\n'
        '        return g(self, x)\n')
    assert _forwarding_twins(tmp_path, set()) == ["m.py:f", "m.py:C.m"]
    assert _forwarding_twins(tmp_path, {("m", "f")}) == ["m.py:C.m"]
