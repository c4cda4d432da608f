"""Command-line front end.

Every subcommand loads JSON inputs, dispatches to the library and emits a
JSON or table report.  Exit codes: 0 on success (all checks pass), 1 when
a verification fails, 2 on input errors.  All randomized suites accept
--seed and --samples, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bundles as bd
from . import cells as cl
from . import chains as ch
from . import diffcoh as dc
from . import lattice as lt
from . import tot as tt
from .exprs import EvalError, ParseError


class InputError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at offset {e.pos}: {e.msg}")


def _load_complex_arg(arg) -> cl.CellComplex:
    """A triangulation/cell JSON path, or the name of a bundled complex."""
    if "/" not in str(arg) and not str(arg).endswith(".json"):
        try:
            K = cl.bundled_complex(arg)
            K.labels["name"] = str(arg)
            return K
        except FileNotFoundError:
            raise InputError(f"unknown bundled complex {arg!r}")
    try:
        K = cl.load_complex(arg)
    except FileNotFoundError:
        raise InputError(f"no such file: {arg}")
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as e:
        raise InputError(f"{arg}: {e}")
    K.labels["name"] = str(arg)
    return K


def _window(text, default):
    if text is None:
        return default
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad window {text!r}; expected LO:HI")


def _emit(obj, fmt: str, table_lines):
    if fmt == "json":
        print(json.dumps(obj, indent=1, default=str))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_homology(args) -> int:
    obj = _load_json(args.input) if str(args.input).endswith(".json") \
        else None
    if obj is not None and "ring" in obj and "ranks" in obj:
        try:
            C = ch.Complex.from_json(obj)
        except (ValueError, KeyError, TypeError) as e:
            raise InputError(f"{args.input}: {e}")
    else:
        K = _load_complex_arg(args.input)
        C = cl.cochain_complex(K, args.ring)
    lo, hi = _window(args.window, (C.lo, C.hi))
    rows = {n: str(ch.homology(C, n)) for n in range(lo, hi + 1)}
    _emit({"ring": C.ring, "homology": rows}, args.format,
          [f"H{n} = {g}" for n, g in rows.items()])
    return 0


def cmd_hexagon(args) -> int:
    K = _load_complex_arg(args.input)
    if args.m < 1 or args.m > K.dim + 1:
        raise InputError(f"m = {args.m} out of range for a {K.dim}-complex "
                         f"(need 1 <= m <= {K.dim + 1})")
    rep = dc.hexagon_exactness(K, args.m, samples=args.samples, seed=args.seed)
    lines = [f"hexagon {args.input} m={args.m} samples={args.samples} "
             f"seed={args.seed}"]
    for node, grp in rep["nodes"].items():
        lines.append(f"  node {node}: {grp}")
    for c in rep["checks"]:
        lines.append(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['check']}"
                     + (f" ({c['detail']})" if c.get("detail") else ""))
    lines.append("PASS" if rep["passed"] else "FAIL")
    _emit(rep, args.format, lines)
    if not rep["passed"]:
        raise CheckFailure("hexagon exactness failed")
    return 0


def cmd_holonomy(args) -> int:
    conn = _load_connection(args.connection)
    loop = _load_loop(args.loop)
    U = bd.holonomy(conn, loop, steps=args.steps)
    tr = complex(np.trace(U))
    rep = {"trace": [tr.real, tr.imag],
           "matrix": [[[z.real, z.imag] for z in row] for row in U]}
    lines = [f"trace = {tr.real:.12g}" +
             (f" + {tr.imag:.3g}i" if abs(tr.imag) > 1e-9 else "")]
    for row in U:
        lines.append("  " + "  ".join(f"{z.real:+.9f}{z.imag:+.9f}i"
                                      for z in row))
    _emit(rep, args.format, lines)
    return 0


def cmd_descent(args) -> int:
    K = _load_complex_arg(args.input)
    rep = tt.descent_check(K, cl.star_cover(K), args.ring,
                           window=_window(args.window, (0, K.dim)))
    lines = [f"descent {args.input} ring={args.ring} "
             f"(star cover, {rep['cover_size']} elements)"]
    for n, row in rep["degrees"].items():
        mark = "PASS" if row["match"] else "FAIL"
        lines.append(f"  [{mark}] H{n}: direct {row['direct']} vs "
                     f"Cech {row['cech']}")
    lines.append("PASS" if rep["match"] else "FAIL")
    _emit(rep, args.format, lines)
    if not rep["match"]:
        raise CheckFailure("descent comparison failed")
    return 0


def cmd_homotopy_formula(args) -> int:
    import random
    K = _load_complex_arg(args.input)
    P = cl.prism(K)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.samples):
        x = dc.random_cocycle(P.complex, args.m, rng)
        r = dc.homotopy_formula_check(P, x)
        failures += 0 if r["passed"] else 1
    # the projection pullback must give a strict zero
    y = dc.random_cocycle(K, args.m, rng)
    xp = dc.DifferentialCochain(
        P.complex, args.m, args.m,
        dc.pullback_cochain(P.proj, y.c, args.m),
        dc.pullback_cochain(P.proj, y.h, args.m - 1),
        dc.pullback_cochain(P.proj, y.omega, args.m))
    strict = dc.homotopy_formula_check(P, xp, expect_strict_zero=True)["passed"]
    rep = {"samples": args.samples, "failures": failures,
           "projection_strict_zero": strict,
           "passed": failures == 0 and strict}
    _emit(rep, args.format,
          [f"homotopy formula on prism({args.input}) m={args.m}: "
           f"{args.samples - failures}/{args.samples} witnesses found",
           f"projection pullback strictly zero: {strict}",
           "PASS" if rep["passed"] else "FAIL"])
    if not rep["passed"]:
        raise CheckFailure("homotopy formula failed")
    return 0


def cmd_s1_integrate(args) -> int:
    import random
    K = _load_complex_arg(args.input)
    if args.m < 2:
        raise InputError("s1-integrate needs m >= 2 (target truncation >= 1)")
    S = cl.circle_product(K)
    rng = random.Random(args.seed)
    ok = True
    out = None
    for _ in range(args.samples):
        x = dc.random_reduced_cocycle(S, args.m, rng)
        out = dc.s1_integrate(S, x)
        ok &= out.is_cocycle()
        fib = cl.fiber_integrate_circle(
            S, cl.Cochain(S.complex, x.n, "Q", x.omega))
        ok &= dc.is_zero(dc.curvature_R(out) - fib.values)
    rep = {"samples": args.samples, "passed": bool(ok),
           "last_result": out.to_json() if out is not None else None}
    _emit(rep, args.format,
          [f"s1-integrate on S1 x {args.input} m={args.m}: "
           f"{'PASS' if ok else 'FAIL'} ({args.samples} reduced cocycles)"])
    if not ok:
        raise CheckFailure("s1 integration failed")
    return 0


def cmd_underlying_point(args) -> int:
    lo, hi = _window(args.window, (-1, 2))
    try:
        rep = tt.underlying_at_point(args.m, args.level, (lo, hi))
    except tt.InsufficientTruncation as e:
        raise InputError(str(e))
    rows = {n: {"group": str(v["group"]), "stable": v["stable"]}
            for n, v in rep.items()}
    ok = all(v["stable"] for v in rep.values())
    _emit({"m": args.m, "N": args.level, "degrees": rows, "stable": ok},
          args.format,
          [f"H{n} = {r['group']} ({'stable' if r['stable'] else 'UNSTABLE'})"
           for n, r in rows.items()])
    if not ok:
        raise CheckFailure("cohomology did not stabilize at this level")
    return 0


def cmd_ch(args) -> int:
    conn = _load_connection(args.connection)
    form = bd.chern_character_form(conn)
    resid = bd.closedness_residual(form, conn)
    const = form.constant_value()
    rep = {"terms": [{"b_power": k,
                      "components": {" ".join(map(str, idx)): str(c)
                                     for idx, c in f.comps.items()}}
                     for k, f in form.terms],
           "constant": None if const is None else str(const),
           "closedness_residual": resid}
    lines = []
    for k, f in form.terms:
        for idx, c in f.comps.items():
            wedge = "^".join(f"d{conn.coords[i]}" for i in idx) or "1"
            lines.append(f"b^{k} * ({c.re}) {wedge}"
                         + (f" + i({c.im})" if not str(c.im) == "0" else ""))
    if const is not None:
        lines.append(f"constant value: {const}")
    lines.append(f"closedness residual (numeric): {resid:.3e}")
    _emit(rep, args.format, lines)
    return 0


def cmd_transgress(args) -> int:
    conn = _load_connection(args.connection)
    form, converged = bd.transgress_ch(conn, steps=args.steps)
    if not converged:
        raise CheckFailure(
            "transgression quadrature did not converge at this step count")
    base = tuple(c for c in conn.coords if c != "u")
    samples = {}
    probe = bd.SmoothConnection(1, base, {c: conn.domain[c] for c in base}, {})
    pts = probe.sample_points(3) if base else [{}]
    lines = [f"transgression over u with {args.steps} quadrature nodes "
             f"(converged)"]
    if not form.terms:
        lines.append("identically zero")
    for k, f in form.terms:
        for idx in f.comps:
            vals = [f.eval_component(idx, env) for env in pts]
            key = f"b^{k} " + ("^".join(f"d{base[i]}" for i in idx) or "1")
            samples[key] = [[v.real, v.imag] for v in vals]
            lines.append(f"{key}: " + ", ".join(f"{v.real:+.6e}" for v in vals))
    _emit({"steps": args.steps, "converged": converged,
           "zero": not form.terms, "samples_at_points": samples},
          args.format, lines)
    return 0


def cmd_lattice_class(args) -> int:
    obj = _load_json(args.bundle)
    try:
        L = lt.LatticeLineBundle.from_json(obj)
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"{args.bundle}: {e}")
    x = lt.lattice_class(L)
    hd = dc.integral_cohomology(L.complex, 2)
    coords, _ = dc.underlying_I(x, hd)
    rep = {"class": x.to_json(),
           "underlying_class": [str(c) for c in coords],
           "total_flux": str(L.total_flux())}
    _emit(rep, args.format,
          [f"underlying class coordinates: {[str(c) for c in coords]}",
           f"total curvature pairing: {L.total_flux()}"])
    return 0


def cmd_character(args) -> int:
    import random
    obj = _load_json(args.bundle)
    try:
        L = lt.LatticeLineBundle.from_json(obj)
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"{args.bundle}: {e}")
    lines, rep = [], {}
    if args.cycle:
        zobj = _load_json(args.cycle)
        try:
            z = np.array([ch.parse_int(v) for v in zobj["cycle"]],
                         dtype=object)
            val = lt.differential_character(L, z)
        except (ValueError, KeyError, TypeError) as e:
            raise InputError(f"{args.cycle}: {e}")
        rep["character"] = str(val)
        lines.append(f"character value: {val} (mod 1)")
    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.samples):
        w = dc.random_int_vector(rng, L.complex.n_cells(2))
        ok &= lt.cs_property_check(L, w)
    rep["cs_property_samples"] = args.samples
    rep["cs_property_passed"] = bool(ok)
    lines.append(f"character-curvature property on {args.samples} random "
                 f"2-chains: {'PASS' if ok else 'FAIL'}")
    _emit(rep, args.format, lines)
    if not ok:
        raise CheckFailure("differential character property failed")
    return 0


def cmd_cycle_map_check(args) -> int:
    conn = _load_connection(args.connection)
    try:
        chart = lt.SurfaceChart.load(args.chart)
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"{args.chart}: {e}")
    rep = lt.cycle_map_homotopy_check(conn, chart, steps=args.steps)
    lines = [f"cycle map homotopy check: "
             f"{'PASS' if rep['passed'] else 'FAIL'}"]
    if rep.get("error"):
        lines.append(f"  {rep['error']}")
    _emit(rep, args.format, lines)
    if not rep["passed"]:
        raise CheckFailure(rep.get("error") or "cycle map check failed")
    return 0


def _load_connection(path) -> bd.SmoothConnection:
    obj = _load_json(path)
    try:
        return bd.SmoothConnection.from_json(obj)
    except (ParseError, EvalError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"{path}: {e}")


def _load_loop(path) -> bd.Loop:
    obj = _load_json(path)
    try:
        return bd.Loop.from_json(obj)
    except (ParseError, EvalError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"{path}: {e}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _common(p, samples=100, steps=4096):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=samples)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--format", choices=("json", "table"), default="table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and each tree is cyclic garbage once dropped."""
    ap = argparse.ArgumentParser(
        prog="cellcoh",
        description="Exact differential cohomology on finite cell complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="Smith-form cohomology of a complex")
    p.add_argument("input")
    p.add_argument("--ring", choices=("Z", "Q"), default="Z")
    p.add_argument("--window")
    _common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("hexagon", help="hexagon exactness report")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    _common(p)
    p.set_defaults(func=cmd_hexagon)

    p = sub.add_parser("holonomy", help="holonomy matrix and trace of a loop")
    p.add_argument("connection")
    p.add_argument("loop")
    _common(p)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("descent", help="Cech star-cover descent comparison")
    p.add_argument("input")
    p.add_argument("--ring", choices=("Z", "Q"), default="Z")
    p.add_argument("--window")
    _common(p)
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("homotopy-formula",
                       help="prism homotopy formula with witnesses")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    _common(p)
    p.set_defaults(func=cmd_homotopy_formula)

    p = sub.add_parser("s1-integrate",
                       help="integration over the circle factor")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    _common(p, samples=25)
    p.set_defaults(func=cmd_s1_integrate)

    p = sub.add_parser("underlying-point",
                       help="cohomology of the truncated-forms functor at "
                            "the point")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--level", type=int, default=8,
                   help="simplicial truncation level N")
    p.add_argument("--window")
    _common(p)
    p.set_defaults(func=cmd_underlying_point)

    p = sub.add_parser("ch", help="character form of a connection")
    p.add_argument("connection")
    _common(p)
    p.set_defaults(func=cmd_ch)

    p = sub.add_parser("transgress",
                       help="transgressed character form of a path")
    p.add_argument("connection")
    _common(p, steps=64)
    p.set_defaults(func=cmd_transgress)

    p = sub.add_parser("lattice-class",
                       help="differential class of a lattice bundle")
    p.add_argument("bundle")
    _common(p)
    p.set_defaults(func=cmd_lattice_class)

    p = sub.add_parser("character",
                       help="holonomy character of a lattice bundle")
    p.add_argument("bundle")
    p.add_argument("--cycle", help="JSON file with a 1-cycle vector")
    _common(p)
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("cycle-map-check",
                       help="discretized cycle-map homotopy formula")
    p.add_argument("connection")
    p.add_argument("chart")
    _common(p, steps=24)
    p.set_defaults(func=cmd_cycle_map_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "samples", 1) < 1:
            raise InputError("--samples must be at least 1")
        if getattr(args, "steps", 1) < 1:
            raise InputError("--steps must be at least 1")
        return args.func(args)
    except (InputError, ValueError) as e:
        # bad input to the geometry commands can show only where they
        # evaluate it: an open loop, a pole, an overflow
        if not isinstance(e, InputError) and args.command not in (
                "holonomy", "ch", "transgress", "cycle-map-check"):
            raise
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
