"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each `cellcoh` layer.  A
module-level function is rebound in every `cellcoh.*` module that holds
the same function object, so `from .linalg import mm` call sites are
caught too; methods are wrapped on their class.  Each outermost call
opens a span (name, start, end, parent span, op id).  A call made while a
span of the same name is open folds into it, which covers recursion and
pairs such as `mv` -> `mm`.  Spans stay in memory and `save()` writes them
out at the end of the run.

Self time is a span's duration minus the wall time of its child wrappers,
so the tracer's own bookkeeping is charged to no layer.  Every span is made
inside an op, so each carries the op id that `per_layer` uses to calibrate
its self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

INT64_MAX = 2 ** 63 - 1

# span name -> the functions it wraps, as "module:attribute" or
# "module:Class.method".  Names are `<layer>.<function>`.
TARGETS = {
    "linalg.mixed_solve": ["linalg:MixedSolver.solve"],
    "linalg.mixed_factor": ["linalg:MixedSolver.__init__"],
    "linalg.rat_solve": ["linalg:RatSolver.solve"],
    "linalg.rat_factor": ["linalg:RatSolver.__init__"],
    "linalg.rat_rank": ["linalg:rat_rank"],
    "linalg.solve_int": ["linalg:solve_int", "linalg:solve_int_many"],
    "linalg.mm": ["linalg:mm", "linalg:mv"],
    "linalg.snf": ["linalg:smith_normal_form"],
    "chains.complex_new": ["chains:Complex.__init__"],
    "chains.chainmap_new": ["chains:ChainMap.__post_init__"],
    "chains.compose": ["chains:ChainMap.compose"],
    "chains.homology": ["chains:HomologyData.__init__", "chains:homology"],
    "chains.express": ["chains:HomologyData.express"],
    "chains.class_is_zero": ["chains:HomologyData.class_is_zero"],
    "cells.cellcomplex_new": ["cells:CellComplex.__init__"],
    "cells.subcomplex": ["cells:subcomplex"],
    "cells.product": ["cells:_product"],
    "cells.fiber_integrate": ["cells:_fiber_integrate",
                              "cells:fiber_integrate_prism",
                              "cells:fiber_integrate_circle"],
    "cells.pullback": ["cells:pullback", "cells:CellularMap.pullback"],
    "tot.cech_double": ["tot:cech_double"],
    "tot.check_identities": [
        "tot:CosimplicialComplexTrunc.check_identities",
        "tot:SimplicialComplexOfComplexes.check_identities"],
    "tot.assemble": ["tot:_tot"],
    "tot.simplex_resolution": ["tot:simplex_resolution"],
    "diffcoh.equal_classes": ["diffcoh:equal_classes"],
    "diffcoh.class_solver": ["diffcoh:class_solver"],
    "diffcoh.hexagon_ctor": ["diffcoh:Hexagon.__init__"],
    "diffcoh.qz_cohomology": ["diffcoh:QZCohomology.__init__",
                              "diffcoh:qz_cohomology"],
    "diffcoh.dhat": ["diffcoh:dhat", "diffcoh:DifferentialCochain.dhat"],
    "diffcoh.sampling": ["diffcoh:random_rational",
                         "diffcoh:random_rational_vector",
                         "diffcoh:random_int_vector",
                         "diffcoh:random_cocycle",
                         "diffcoh:random_reduced_cocycle",
                         "diffcoh:random_coboundary",
                         "diffcoh:QZCohomology.random_class"],
    "exprs.evaluate": ["exprs:evaluate"],
    "exprs.symbolic_d": ["exprs:symbolic_d"],
    "exprs.parse": ["exprs:parse_expr"],
    "bundles.transport": ["bundles:transport"],
    "bundles.evaluate_at": ["bundles:SmoothConnection.evaluate_at"],
    "bundles.loop_velocity": ["bundles:Loop.velocity"],
    "bundles.loop_point": ["bundles:Loop.point"],
    "bundles.quadrature_eval": ["bundles:QuadratureCoefficient.eval"],
    "bundles.chern_character": ["bundles:chern_character_form"],
    "lattice.cycle_map_check": ["lattice:cycle_map_homotopy_check"],
    "lattice.discretize": ["lattice:discretize_connection"],
    "lattice.cs_property": ["lattice:cs_property_check"],
}


def _has_big_entry(a) -> bool:
    if a.dtype != object:
        return False
    return any(abs(int(x)) > INT64_MAX for x in a.flat)


def _after_snf(tracer, frame, args, kwargs, snf):
    c = tracer.counters
    c["linalg.snf.entries"] += snf.D.shape[0] * snf.D.shape[1]
    nonzero = [d for d in snf.diag if d != 0]
    c["snf_nonzero_diag"] += len(nonzero)
    c["snf_unit_diag"] += sum(1 for d in nonzero if d == 1)
    if any(_has_big_entry(m) for m in (snf.U, snf.V, snf.D)):
        c["linalg.snf.big_entry_calls"] += 1


def _after_chainmap_new(tracer, frame, args, kwargs, result):
    parent = frame[3]
    if parent is not None and parent[2] == "chains.compose":
        tracer.counters["chainmap_from_compose"] += 1


def _after_mixed_factor(tracer, frame, args, kwargs, result):
    # mark the enclosing class_solver call as one that built a solver
    for f in reversed(tracer.stack):
        if f[2] == "diffcoh.class_solver":
            f[4] = True
            break


def _after_class_solver(tracer, frame, args, kwargs, result):
    if not frame[4]:
        tracer.counters["class_solver_reused"] += 1


def _after_transport(tracer, frame, args, kwargs, result):
    steps = kwargs["steps"] if "steps" in kwargs else args[4]
    tracer.counters["bundles.rk4_steps"] += int(steps)


AFTER = {
    "linalg.snf": _after_snf,
    "chains.chainmap_new": _after_chainmap_new,
    "linalg.mixed_factor": _after_mixed_factor,
    "diffcoh.class_solver": _after_class_solver,
    "bundles.transport": _after_transport,
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        # open spans: [span index, child wall time, name, parent frame, flag]
        self.stack: list = []
        self.active: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self.op_labels: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.active[name] = 0
            self.calls[name] = 0
        return self._name_ids[name]

    def begin_op(self, label: str):
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def span(self, name: str, fn, after=None):
        """Call wrapper that records a span around each outermost call."""
        nid = self._name_id(name)
        active, stack, calls = self.active, self.stack, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            w0 = perf_counter()
            parent = stack[-1] if stack else None
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_self.append(0.0)
            frame = [idx, 0.0, name, parent, False]
            stack.append(frame)
            active[name] += 1
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.span_self[idx] = (t1 - t0) - frame[1]
                calls[name] += 1
                if ok and after is not None:
                    after(self, frame, args, kwargs, result)
                if parent is not None:
                    parent[1] += perf_counter() - w0

        return traced

    def install(self):
        """Wrap every target in TARGETS; the program's behaviour is unchanged."""
        for name in TARGETS:
            self._name_id(name)
        mods = [m for n, m in list(sys.modules.items())
                if n == "cellcoh" or n.startswith("cellcoh.")]
        for name, targets in TARGETS.items():
            after = AFTER.get(name)
            for target in targets:
                modname, attr = target.split(":")
                mod = importlib.import_module(f"cellcoh.{modname}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.span(name, orig, after))
                    continue
                orig = getattr(mod, attr)
                wrapped = self.span(name, orig, after)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    def per_layer(self, op_factors) -> dict:
        """Calls and self seconds per span name, plus counters and ratios.

        Each span's self time is multiplied by the load factor of its op
        (see `run.load_factors`), so the seconds are calibrated like the
        end-to-end ones.
        """
        ops = np.frombuffer(self.span_op, dtype=np.int32)
        weights = (np.frombuffer(self.span_self, dtype=np.float64)
                   * np.asarray(op_factors)[ops])
        self_s = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                             weights=weights, minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = float(self_s[nid])
        c = self.counters
        out["linalg.snf.entries"] = c.get("linalg.snf.entries", 0)
        out["linalg.snf.big_entry_calls"] = c.get(
            "linalg.snf.big_entry_calls", 0)
        out["linalg.snf.unit_diag_ratio"] = _ratio(
            c.get("snf_unit_diag", 0), c.get("snf_nonzero_diag", 0))
        out["chains.chainmap_new.from_compose_ratio"] = _ratio(
            c.get("chainmap_from_compose", 0),
            self.calls["chains.chainmap_new"])
        out["diffcoh.class_solver.reuse_ratio"] = _ratio(
            c.get("class_solver_reused", 0),
            self.calls["diffcoh.class_solver"])
        out["bundles.rk4_steps"] = c.get("bundles.rk4_steps", 0)
        return out

    def save(self, path):
        """Write every span, with the name and op tables, as one .npz file."""
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 self_time=np.frombuffer(self.span_self, dtype=np.float64),
                 names=np.array(self.names), ops=np.array(self.op_labels))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
