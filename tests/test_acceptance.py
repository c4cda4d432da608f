"""Acceptance suite: one criterion per test, one pass/fail line per
criterion on stdout, every tolerance pinned where the criterion states it.
Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import math
import random
import time
from importlib import resources

from cellcoh import bundles as bd
from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import diffcoh as dc
from cellcoh import lattice as lt
from cellcoh import linalg as la
from cellcoh import tot as tt

from conftest import random_chain_map, random_complex


def data(path):
    return str(resources.files("cellcoh").joinpath("data/" + path))


def report(num, name, passed, extra=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, line


def test_criterion_1_hexagon_exactness():
    worst = 0.0
    ok = True
    for name, m in (("circle3", 1), ("octahedron", 2),
                    ("csaszar_torus", 2), ("rp2_6", 2)):
        t0 = time.monotonic()
        rep = dc.hexagon_exactness(cl.bundled_complex(name), m,
                                   samples=100, seed=0)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok &= rep["passed"] and dt < 10.0
    report(1, "hexagon exactness on all four complexes, 100 samples, "
              "seed 0, exact arithmetic", ok, f"slowest {worst:.1f}s < 10s")


def test_criterion_2_homotopy_formula():
    rng = random.Random(0)
    ok = True
    for name in ("circle3", "octahedron"):
        K = cl.bundled_complex(name)
        P = cl.prism(K)
        for m in (1, 2):
            for _ in range(100):
                x = dc.random_cocycle(P.complex, m, rng)
                r = dc.homotopy_formula_check(P, x)
                ok &= r["passed"]
            # integration annihilates projection pullbacks identically:
            # pi_! pr* = 0 as a matrix in every degree
            for deg in range(1, P.complex.dim + 1):
                z = P.proj.pullback(la.eye(K.n_cells(deg)), deg)
                ok &= la.is_zero(cl.fiber_integrate_prism(P, z, deg))
            xp = dc.differential_pullback(
                P.proj, dc.random_cocycle(K, m, rng))
            ok &= dc.homotopy_formula_check(
                P, xp, expect_strict_zero=True)["passed"]
    report(2, "homotopy formula witnesses on 100 random prism cocycles, "
              "m in {1,2}, and integration kills projection pullbacks "
              "identically, zero tolerance", ok)


def test_criterion_3_homotopification_at_the_point():
    t0 = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        rep = tt.underlying_at_point(m, 8, (-1, 2))
        for n, row in rep.items():
            want = "Q" if n == 0 else "0"
            ok &= str(row["group"]) == want and row["stable"]
    dt = time.monotonic() - t0
    report(3, "evaluation at the point of the truncated functor: H0 = Q, "
              "0 elsewhere, all degrees stable, m in {1,2,3}, N = 8",
           ok and dt < 60.0, f"{dt:.1f}s < 60s")


def test_criterion_4_descent():
    ok = True
    for name in ("circle3", "octahedron", "csaszar_torus", "rp2_6"):
        K = cl.bundled_complex(name)
        for ring in ("Z", "Q"):
            rep = tt.descent_check(K, cl.star_cover(K), ring)
            ok &= rep["match"]
    report(4, "star-cover Cech tot matches direct cohomology on all four "
              "complexes, Z and Q coefficients, zero tolerance", ok)


def test_criterion_5_paper_numerics():
    t0 = time.monotonic()
    conn = bd.SmoothConnection.load(data("connections/rotation_plane.json"))
    ok = bd.chern_character_form(conn).constant_value() == 2

    path = bd.SmoothConnection.load(data("connections/rotation_path.json"))
    form, converged = bd.transgress_ch(path, steps=64)
    ok &= converged
    base_domain = {c: path.domain[c] for c in ("s", "t")}
    probe = bd.SmoothConnection(1, ("s", "t"), base_domain, {})
    for env in probe.sample_points(5):
        ok &= form.max_abs(env) < 1e-9

    for rho, name in ((0.3, "circle_r03"), (0.5, "circle_r05"),
                      (0.8, "circle_r08")):
        loop = bd.Loop.load(data(f"loops/{name}.json"))
        tr = bd.bch_zero(conn, loop, steps=4096)
        ok &= abs(tr - 2 * math.cos(math.pi * rho * rho)) < 1e-6

    clock = bd.SmoothConnection.load(data("connections/circle_clock.json"))
    full = bd.Loop.load(data("loops/full_circle.json"))
    ok &= abs(bd.bch_zero(clock, full, steps=4096) - 2 * math.cos(1)) < 1e-8
    dt = time.monotonic() - t0
    report(5, "character form constant 2, vanishing transgression (1e-9), "
              "area-law traces (1e-6), full-circle trace 2cos(1) (1e-8)",
           ok and dt < 30.0, f"{dt:.1f}s < 30s")


def test_criterion_6_monopole_classification():
    K = cl.bundled_complex("octahedron")
    hd = dc.integral_cohomology(K, 2)
    fund = lt.fundamental_cycle(K)
    gen = hd.gens[:, 0]
    if sum(int(a) * int(b) for a, b in zip(gen, fund)) < 0:
        gen = -gen
    rng = random.Random(0)
    ok = True
    for d in range(-2, 3):
        L = lt.monopole(K, d)
        x = lt.lattice_class(L)
        ok &= hd.classes_equal(x.c, d * gen)
        ok &= L.total_flux() == d
        lam = dc.random_rational_vector(rng, K.n_cells(0))
        mu = dc.random_int_vector(rng, K.n_cells(1))
        eq, _ = dc.equal_classes(lt.lattice_class(lt.gauge_transform(L, lam, mu)),
                                 x)
        ok &= eq
    report(6, "octahedron monopoles of charge -2..2: underlying class is "
              "d times the generator, total curvature pairing d exactly, "
              "gauge-equivalent data give equal classes", ok)


def test_criterion_7_character_curvature_property():
    rng = random.Random(0)
    ok = True
    for name in ("octahedron", "csaszar_torus"):
        K = cl.bundled_complex(name)
        for _ in range(100):
            L = lt.LatticeLineBundle(
                K, dc.random_int_vector(rng, K.n_cells(2)),
                dc.random_rational_vector(rng, K.n_cells(1)))
            w = dc.random_int_vector(rng, K.n_cells(2))
            ok &= lt.cs_property_check(L, w)
    report(7, "holonomy of a boundary equals the curvature integral mod 1 "
              "on 100 random (bundle, 2-chain) pairs per closed oriented "
              "surface, exact", ok)


def test_criterion_8_torsion_sanity():
    K = cl.bundled_complex("rp2_6")
    qz = dc.qz_cohomology(K, 1)
    hd = dc.integral_cohomology(K, 2)
    ok = str(qz.group) == "Z/2" and str(hd.group) == "Z/2"
    lift, order = qz.torsion_lifts[0]                # u = lift / order
    ok &= order == 2
    ok &= not hd.class_is_zero(qz.bockstein(lift, order))   # Bockstein nonzero
    x = dc.flat_include(K, 2, 2, lift, order)
    ok &= x.is_cocycle() and la.is_zero(dc.curvature_R(x))
    ok &= not hd.class_is_zero(x.c)                  # nontrivial I on a flat class
    triv, _ = dc.class_is_trivial(x)
    ok &= not triv
    report(8, "on the projective plane the Bockstein Z/2 -> Z/2 is nonzero "
              "and a flat class with nontrivial underlying class exists", ok)


def test_criterion_9_structural_suites():
    t0 = time.monotonic()
    rng = random.Random(0)
    ok = True

    # d o d = 0 on random complexes and their shifts/cones
    for _ in range(10):
        C = random_complex(rng)
        ok &= all(la.is_zero(la.mm(C.diff(n + 1), C.diff(n)))
                  for n in C.degrees())
        S = ch.shift(C, rng.randint(-2, 2))
        ok &= all(la.is_zero(la.mm(S.diff(n + 1), S.diff(n)))
                  for n in S.degrees())

    # cone long exact sequence
    checks = 0
    while checks < 10:
        A = random_complex(rng, length=3)
        B = random_complex(rng, length=3)
        f = random_chain_map(A, B, rng)
        cone, incl, proj = ch.cone(f)
        for n in cone.degrees():
            ok &= cone.rank(n) == B.rank(n) + A.rank(n + 1)
            ok &= ch.exact_at_middle(incl, proj, n)
        checks += 1

    # tot signs: d^2 = 0 holds by construction on Cech objects of covers
    K = cl.bundled_complex("octahedron")
    A = tt.cech_double(K, cl.star_cover(K), "Z", N=4)
    tt.total_complex(A, (0, 2))

    # Stokes identities and the pullback chain-map identity, as matrices:
    # each map applied to the batch of all unit cochains (la.eye) is its
    # matrix, and delta from degree d is the transposed boundary
    delta = lambda X, d: X.boundary_matrix(d + 1).T
    for name in ("circle3", "octahedron"):
        Kc = cl.bundled_complex(name)
        P = cl.prism(Kc)
        S = cl.circle_product(Kc)
        e0, e1 = P.sections["end0"], P.sections["end1"]
        for deg in range(1, P.complex.dim + 1):
            z = la.eye(P.complex.n_cells(deg))
            lhs = (cl.fiber_integrate_prism(P, delta(P.complex, deg), deg + 1)
                   + la.mm(delta(Kc, deg - 1),
                           cl.fiber_integrate_prism(P, z, deg)))
            ok &= la.is_zero(lhs - e1.pullback(z, deg) + e0.pullback(z, deg))
            w = la.eye(S.complex.n_cells(deg))
            ok &= la.is_zero(
                cl.fiber_integrate_circle(S, delta(S.complex, deg), deg + 1)
                + la.mm(delta(Kc, deg - 1),
                        cl.fiber_integrate_circle(S, w, deg)))

    # pullback is a chain map
    K = cl.bundled_complex("circle3")
    P = cl.prism(K)
    for f in (P.sections["end0"], P.sections["end1"], P.proj):
        for deg in range(f.target.dim):
            z = la.eye(f.target.n_cells(deg))
            ok &= la.is_zero(f.pullback(delta(f.target, deg), deg + 1)
                             - la.mm(delta(f.source, deg), f.pullback(z, deg)))

    dt = time.monotonic() - t0
    report(9, "structural suites: d o d = 0, cone long exact sequence, tot "
              "signs, Stokes identities, pullback chain-map identity, "
              "seed 0", ok and dt < 60.0, f"{dt:.1f}s < 60s")
