import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import diffcoh as dc
from cellcoh import linalg as la
from cellcoh.linalg import is_zero, mv, zeros

BUNDLED = ["circle3", "octahedron", "csaszar_torus", "rp2_6"]


def octa():
    return cl.bundled_complex("octahedron")


def test_dhat_of_zero_and_a_image():
    K = octa()
    z = dc.DifferentialCochain.zero(K, 2, 2)
    assert z.dhat().is_zero()
    rng = random.Random(0)
    for _ in range(20):
        alpha = dc.random_rational_vector(rng, K.n_cells(1))
        assert dc.forms_a(K, 2, 2, *la.to_numerators(alpha)).dhat().is_zero()


def test_dhat_squared_zero_randomized():
    K = octa()
    rng = random.Random(1)
    for _ in range(30):
        deg = rng.choice([1, 2])
        x = dc.DifferentialCochain(
            K, 2, deg,
            dc.random_int_vector(rng, K.n_cells(deg)),
            dc.random_rational_vector(rng, K.n_cells(deg - 1)),
            dc.random_rational_vector(rng, K.n_cells(deg)) if deg >= 2
            else zeros(K.n_cells(deg), 1).reshape(-1))
        assert x.dhat().dhat().is_zero()


def test_omega_truncation_enforced():
    K = octa()
    with pytest.raises(ValueError, match="omega"):
        dc.DifferentialCochain(
            K, 2, 1,
            zeros(K.n_cells(1), 1).reshape(-1),
            zeros(K.n_cells(0), 1).reshape(-1),
            np.array([Fraction(1)] * K.n_cells(1), dtype=object))


def test_fundamental_cocycle_class_on_sphere():
    from cellcoh.lattice import fundamental_cycle
    K = octa()
    fund = fundamental_cycle(K)
    first = next(i for i, v in enumerate(fund) if v == 1)
    c = np.array([1 if i == first else 0 for i in range(len(fund))],
                 dtype=object)
    x = dc.DifferentialCochain(K, 2, 2, c, zeros(K.n_cells(1), 1).reshape(-1),
                               c * Fraction(1))
    assert x.is_cocycle()
    coords, hd = dc.underlying_I(x)
    assert str(hd.group) == "Z"
    assert not hd.class_is_zero(x.c)
    pairing = sum(Fraction(w) * int(z) for w, z in zip(dc.curvature_R(x), fund))
    assert pairing == 1


def test_a_of_exact_form_is_trivial_class():
    K = octa()
    rng = random.Random(2)
    d0 = K.boundary_matrix(1).T
    for _ in range(10):
        beta = dc.random_rational_vector(rng, K.n_cells(0))
        x = dc.forms_a(K, 2, 2, *la.to_numerators(mv(d0, beta)))
        triv, wit = dc.class_is_trivial(x)
        assert triv and wit is not None


def test_R_after_a_is_delta():
    K = octa()
    rng = random.Random(3)
    d1 = K.boundary_matrix(2).T
    for _ in range(50):
        alpha = dc.random_rational_vector(rng, K.n_cells(1))
        x = dc.forms_a(K, 2, 2, *la.to_numerators(alpha))
        assert (dc.curvature_R(x) == mv(d1, alpha)).all()


def test_curvature_rejects_non_cocycles():
    K = octa()
    x = dc.DifferentialCochain(
        K, 2, 2, zeros(K.n_cells(2), 1).reshape(-1),
        np.array([Fraction(1)] + [Fraction(0)] * (K.n_cells(1) - 1),
                 dtype=object),
        zeros(K.n_cells(2), 1).reshape(-1))
    with pytest.raises(ValueError, match="cocycle"):
        dc.curvature_R(x)


def test_equal_classes_reflexive_and_shift_by_coboundary():
    K = octa()
    rng = random.Random(4)
    for _ in range(10):
        x = dc.random_cocycle(K, 2, rng)
        eq, wit = dc.equal_classes(x, x)
        assert eq and wit.dhat().is_zero()
        y = x + dc.random_coboundary(K, 2, rng)
        eq, wit = dc.equal_classes(x, y)
        assert eq
        assert ((x - y) - wit.dhat()).is_zero()


def test_equal_classes_symmetric_transitive_on_samples():
    K = octa()
    rng = random.Random(5)
    for _ in range(5):
        x = dc.random_cocycle(K, 2, rng)
        y = x + dc.random_coboundary(K, 2, rng)
        z = y + dc.random_coboundary(K, 2, rng)
        assert dc.equal_classes(y, x)[0]
        assert dc.equal_classes(x, z)[0]


def test_truncation_blocks_omega_witness_on_circle():
    # (0, 0, delta alpha) vs 0 at m = 1: the omega part of a degree-0
    # witness is forbidden by the truncation, so the classes agree exactly
    # when delta alpha = 0
    K = cl.bundled_complex("circle3")
    d0 = K.boundary_matrix(1).T
    solvable = np.array([Fraction(1)] * 3, dtype=object)      # constant
    unsolvable = np.array([Fraction(1), Fraction(0), Fraction(0)],
                          dtype=object)
    for alpha, want in ((solvable, True), (unsolvable, False)):
        x = dc.DifferentialCochain(K, 1, 1, zeros(3, 1).reshape(-1),
                                   zeros(3, 1).reshape(-1), mv(d0, alpha))
        got, _ = dc.class_is_trivial(x)
        assert got == want


def test_flat_part_of_a_closed_form():
    K = cl.bundled_complex("circle3")
    rng = random.Random(6)
    qz = dc.qz_cohomology(K, 0)
    theta = Fraction(2, 5)
    h = np.array([theta] * 3, dtype=object)
    x = dc.DifferentialCochain(K, 1, 1, zeros(3, 1).reshape(-1), h,
                               zeros(3, 1).reshape(-1))
    fp = dc.flat_part(x)
    assert fp is not None
    assert qz.class_is_zero(*la.to_numerators(fp + h))   # [fp] = [-h]
    # the group of flat classes of the circle in degree one is Q/Z
    assert str(qz.group) == "Q/Z"
    # nonflat input has no flat part
    y = dc.random_cocycle(K, 1, rng)
    if not is_zero(y.omega):
        assert dc.flat_part(y) is None


def test_rp2_flat_class_with_nontrivial_underlying_class():
    K = cl.bundled_complex("rp2_6")
    qz = dc.qz_cohomology(K, 1)
    assert str(qz.group) == "Z/2"
    lift, order = qz.torsion_lifts[0]        # u = lift / order
    assert order == 2
    x = dc.flat_include(K, 2, 2, lift, order)
    assert x.is_cocycle()
    assert is_zero(dc.curvature_R(x))
    hd = dc.integral_cohomology(K, 2)
    assert str(hd.group) == "Z/2"
    assert not hd.class_is_zero(x.c)          # nontrivial underlying class
    # Bockstein hits the generator: Z/2 -> Z/2 nonzero
    assert not hd.class_is_zero(qz.bockstein(lift, order))


def test_hexagon_m_out_of_range():
    with pytest.raises(ValueError):
        dc.Hexagon(octa(), 0)
    with pytest.raises(ValueError):
        dc.Hexagon(octa(), 5)


def test_hexagon_exactness_small_samples():
    for name, m in (("circle3", 1), ("rp2_6", 2)):
        rep = dc.hexagon_exactness(cl.bundled_complex(name), m,
                                   samples=20, seed=0)
        assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]


def test_hexagon_octahedron_m3_degenerate_top():
    rep = dc.hexagon_exactness(octa(), 3, samples=20, seed=0)
    assert rep["passed"]
    assert rep["nodes"]["closed_forms"] == "Q^0"


def test_circle_hexagon_nodes():
    hx = dc.Hexagon(cl.bundled_complex("circle3"), 1)
    nodes = hx.node_groups()
    assert nodes["forms_mod_exact"] == "Q^3"
    assert nodes["closed_forms"] == "Q^3"
    assert nodes["H_low_QZ"] == "Q/Z"
    assert nodes["H_high_Z"] == "Z"


def test_homotopy_formula_randomized():
    rng = random.Random(7)
    for name, ms in (("circle3", (1,)), ("octahedron", (1, 2))):
        K = cl.bundled_complex(name)
        P = cl.prism(K)
        for m in ms:
            for _ in range(10):
                x = dc.random_cocycle(P.complex, m, rng)
                r = dc.homotopy_formula_check(P, x)
                assert r["passed"]
                assert r["explicit_witness_exact"]


def test_homotopy_formula_strict_zero_on_projection_pullbacks():
    rng = random.Random(8)
    K = octa()
    P = cl.prism(K)
    for m in (1, 2):
        xp = dc.differential_pullback(P.proj, dc.random_cocycle(K, m, rng))
        r = dc.homotopy_formula_check(P, xp, expect_strict_zero=True)
        assert r["passed"]


def test_omega_concentrated_on_prism_cells_gives_exact_equality():
    # a cocycle (0, h, omega) whose h lives on the two end copies (with
    # closed values on each) has omega concentrated on prism cells, and the
    # end difference equals a(pi_! omega) exactly at the cochain level
    K = cl.bundled_complex("circle3")
    P = cl.prism(K)
    rng = random.Random(9)
    m = 1
    h0 = dc.random_rational(rng) * np.array([1, 1, 1], dtype=object)
    h1 = dc.random_rational(rng) * np.array([1, 1, 1], dtype=object)
    h = zeros(P.complex.n_cells(0), 1).reshape(-1)
    for s in K.cells(0):
        h[P.complex.index[(("v", 0), s)]] = h0[K.index[s]]
        h[P.complex.index[(("v", 1), s)]] = h1[K.index[s]]
    x = dc.DifferentialCochain(
        P.complex, m, m, zeros(P.complex.n_cells(1), 1).reshape(-1), h,
        mv(P.complex.boundary_matrix(1).T, h))
    assert x.is_cocycle()
    for cell in P.complex.cells(1):
        if cell[0][0] != "e":
            assert x.omega[P.complex.index[cell]] == 0   # prism-concentrated
    diff = (dc.differential_pullback(P.sections["end1"], x)
            - dc.differential_pullback(P.sections["end0"], x))
    fib = cl.fiber_integrate_prism(P, x.wn, 1)
    assert (diff - dc.forms_a(K, m, m, fib, x.L)).is_zero()


def test_s1_integrate_requires_truncation_and_reduction():
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    rng = random.Random(10)
    x = dc.random_reduced_cocycle(S, 2, rng)
    with pytest.raises(ValueError, match="m >= 2"):
        bad = dc.DifferentialCochain(S.complex, 1, 2, x.c, x.h, x.omega)
        dc.s1_integrate(S, bad)
    xp = dc.differential_pullback(S.proj, dc.random_cocycle(K, 2, rng))
    # projection pullbacks restrict to y on the base section
    with pytest.raises(ValueError, match="reduced"):
        dc.s1_integrate(S, xp)
    # but their fiber integrals vanish identically componentwise
    assert is_zero(cl.fiber_integrate_circle(S, xp.wn, 2))


def test_s1_integrate_random_reduced_cocycles():
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    rng = random.Random(11)
    for _ in range(25):
        x = dc.random_reduced_cocycle(S, 2, rng)
        out = dc.s1_integrate(S, x)
        assert out.m == 1 and out.n == 1
        assert out.is_cocycle()
        fib = cl.fiber_integrate_circle(S, x.wn, 2)
        assert (dc.curvature_R(out) == la.from_numerators(fib, x.L)).all()


def test_s1_integrate_fundamental_times_cocycle():
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    z = zeros(K.n_cells(1), 1).reshape(-1)
    z[0] = 1
    cvec = zeros(S.complex.n_cells(2), 1).reshape(-1)
    edge0 = S.fiber_cycle[0][0]
    for s in K.cells(1):
        cvec[S.complex.index[(edge0, s)]] = z[K.index[s]]
    x = dc.DifferentialCochain(
        S.complex, 2, 2, cvec,
        zeros(S.complex.n_cells(1), 1).reshape(-1), cvec * Fraction(1))
    out = dc.s1_integrate(S, x)
    hd = dc.integral_cohomology(K, 1)
    assert hd.classes_equal(out.c, z)


def test_s1_integrate_in_degree_one():
    # a reduced cocycle of degree n = 1 < m = 2: omega = 0, so
    # c = -delta h, with h an integral 0-cochain that vanishes on the base
    # section; its h integrates to the empty degree -1 cochain
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    h = zeros(S.complex.n_cells(0), 1).reshape(-1)
    h[S.complex.index[(("v", 1), K.cells(0)[0])]] = 1
    c = -mv(S.complex.boundary_matrix(1).T, h)
    x = dc.DifferentialCochain(S.complex, 2, 1, c, h,
                               zeros(S.complex.n_cells(1), 1).reshape(-1))
    out = dc.s1_integrate(S, x)
    assert (out.m, out.n) == (1, 0)
    assert out.hn.shape == (0,) and out.is_cocycle()
    batch = dc.s1_integrate(S, x._as_batch())
    assert batch.hn.shape == (0, 1) and batch.is_cocycle().all()


def test_cocycle_samplers_refuse_degrees_below_m():
    # below m, omega = c + delta h must vanish, which no sample has
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    rng = random.Random(3)
    with pytest.raises(ValueError, match="random_reduced_cocycles: degree"):
        dc.random_reduced_cocycles(S, 2, rng, 3, n=1)
    with pytest.raises(ValueError, match="random_reduced_cocycles: degree"):
        dc.random_reduced_cocycle(S, 2, rng, n=1)
    with pytest.raises(ValueError, match="random_cocycles: degree"):
        dc.random_cocycles(K, 2, rng, 3, n=1)
    with pytest.raises(ValueError, match="random_cocycles: degree"):
        dc.random_cocycle(K, 2, rng, n=1)


def test_pullback_classification_reports():
    for name, m, witnesses in (("circle3", 1, 1), ("octahedron", 2, 0),
                               ("csaszar_torus", 2, 2)):
        rep = dc.pullback_classification_check(
            cl.bundled_complex(name), m, samples=15, seed=0)
        assert rep["passed"]
        detail = rep["checks"][-1]["detail"]
        assert detail.startswith(str(witnesses))
        # characteristic map has one column per integral generator
        phi = rep["characteristic_map"]
        if name == "octahedron":
            assert phi == [["1"]] or phi == [["-1"]]


def test_curvature_commutes_with_dhat_on_components():
    # the omega component of dhat is the coboundary of the omega component
    K = octa()
    rng = random.Random(13)
    for _ in range(20):
        x = dc.DifferentialCochain(
            K, 1, 1,
            dc.random_int_vector(rng, K.n_cells(1)),
            dc.random_rational_vector(rng, K.n_cells(0)),
            dc.random_rational_vector(rng, K.n_cells(1)))
        want = mv(K.boundary_matrix(2).T, x.omega)
        assert (x.dhat().omega == want).all()


def test_differential_cochain_json_round_trip():
    K = octa()
    rng = random.Random(12)
    x = dc.random_cocycle(K, 2, rng)
    y = dc.DifferentialCochain.from_json(K, x.to_json())
    assert (x - y).is_zero()


def test_differential_cochain_json_rejects_non_integral_c():
    K = octa()
    obj = dc.random_cocycle(K, 2, random.Random(12)).to_json()
    obj["c"][0] = "1/2"
    with pytest.raises(ValueError, match="non-integer"):
        dc.DifferentialCochain.from_json(K, obj)


@pytest.mark.parametrize("key", ["c", "h", "omega"])
def test_differential_cochain_json_rejects_zero_denominators(key):
    K = octa()
    obj = dc.random_cocycle(K, 2, random.Random(12)).to_json()
    obj[key][0] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        dc.DifferentialCochain.from_json(K, obj)


@pytest.mark.parametrize("key", ["m", "n"])
def test_differential_cochain_json_rejects_fractional_degrees(key):
    K = octa()
    obj = dc.random_cocycle(K, 2, random.Random(12)).to_json()
    obj[key] = 2.5
    with pytest.raises(ValueError, match="non-integer"):
        dc.DifferentialCochain.from_json(K, obj)


def _not_kept():
    pytest.fail("the random cocycle kernel basis was not kept")


def test_cached_matrices_and_solver_factors_are_read_only():
    # the solvers' int64 forms are copies made once, so nothing they were
    # made from may change afterwards
    K = octa()
    S = cl.circle_product(cl.bundled_complex("circle3"))
    rng = random.Random(11)
    dc.random_cocycle(K, 2, rng)
    dc.random_reduced_cocycle(S, 2, rng)
    # at n = m class equality is Q/Z membership in degree n - 1, above the
    # truncation degree an integral solve against the coboundary; both are
    # the solvers the complex already keeps
    member = dc.class_solver(K, 2, 2)
    assert member is dc.qz_cohomology(K, 1)._member
    cobound = dc.class_solver(K, 1, 2)
    assert cobound is cl.cochain_complex(K).int_solver(1)
    # the Q/Z membership solver has no factors of its own: it reads those
    # of delta^0 that the complex keeps
    rat = member.rat
    assert rat.int is cl.cochain_complex(K).int_solver(0)
    cached = [K.boundary_matrix(d) for d in range(1, K.dim + 1)] + [
        K.kept(("zker", 2), _not_kept),
        S.complex.kept(("zker_reduced", 2), _not_kept),
        rat.A, rat.scales, rat.int.snf.U, rat.int.snf.V,
        cobound.A, cobound.snf.U, cobound.snf.V]
    for a in cached:
        assert a.size
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 7
        with pytest.raises(ValueError, match="read-only"):
            a.T[(0,) * a.ndim] += 1
    for a in (rat.A, rat.int.snf.U, rat.int.snf.V, cobound.A, cobound.snf.U,
              cobound.snf.V):
        assert a.dtype == np.int64


def _mixed_reference(A_int, A_rat):
    """Whether A_int u + A_rat v = b has u integral and v rational, as a
    function of b, decided without MixedSolver: the integer rows P of the
    left null space of A_rat remove v and leave the integer question
    (P A_int) u = P b."""
    P = la.RatSolver(A_rat.T).kernel_basis().T
    solver = la.IntSolver(la.mm(P, A_int))
    return lambda b: solver.solve(mv(P, b)) is not None


class _NegatedU:
    """A Q/Z membership solver that negates the integral part u of every
    solution it returns.  The real solver's own checks pass, so only the
    class-equality witness check can catch it."""

    def __init__(self, real):
        self.real = real

    def solve_numerators(self, n, L):
        sol = self.real.solve_numerators(n, L)
        return None if sol is None else (-sol[0], *sol[1:])


def test_qz_class_is_zero_decides_integral_classes():
    # reference: "z = b + delta s with b an integral cocycle" as the mixed
    # system [I; delta^(m-1)] b + [delta^(m-2); 0] s = [z; 0]
    rng = random.Random(5)
    verdicts = set()
    for name in BUNDLED:
        K = cl.bundled_complex(name)
        for m in range(1, K.dim + 2):
            hx = dc.Hexagon(K, m)
            n_low, n_m = K.n_cells(m - 1), K.n_cells(m)
            solvable = _mixed_reference(
                np.concatenate([la.eye(n_low), hx.delta_a], axis=0),
                np.concatenate([hx.delta_below,
                                zeros(n_m, hx.delta_below.shape[1])], axis=0))
            cocycles = la.IntSolver(hx.delta_a).kernel_basis()
            gens = hx.h_low_q.gens
            for _ in range(20):
                z = zeros(n_low, 1).reshape(-1)
                for j in range(gens.shape[1]):
                    z = z + Fraction(rng.randint(-6, 6), rng.randint(1, 3)) \
                        * gens[:, j]
                s_ = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(hx.delta_below.shape[1])]
                z = z + mv(hx.delta_below, np.array(s_, dtype=object))
                for j in range(cocycles.shape[1]):
                    z = z + rng.randint(-2, 2) * cocycles[:, j]
                assert is_zero(mv(hx.delta_a, z))
                rhs = np.concatenate([z, zeros(n_m, 1).reshape(-1)])
                want = solvable(rhs)
                assert hx.h_low_qz.class_is_zero(*la.to_numerators(z)) \
                    == want, (name, m)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_hexagon_factors_each_matrix_once_however_many_samples(monkeypatch):
    calls = []
    snf = la.smith_normal_form

    def counted(A):
        calls.append(1)
        return snf(A)

    for mod in (la, ch):
        monkeypatch.setattr(mod, "smith_normal_form", counted)
    counts = []
    for samples in (5, 20):
        calls.clear()
        assert dc.hexagon_exactness(cl.bundled_complex("circle3"), 1,
                                    samples=samples)["passed"]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# the truncation degree of each bundled complex's hexagon in the classes
# workload of the benchmark
HEXAGON_M = {"circle3": 1, "octahedron": 2, "csaszar_torus": 2, "rp2_6": 2}


@pytest.mark.parametrize("name", BUNDLED)
def test_hexagon_factors_no_solver_matrix_twice(name, monkeypatch):
    # each coboundary is factored once per complex and shared by the
    # homology over Z and Q, the Q/Z cohomology, the hexagon's solvers and
    # the random cocycles, so no IntSolver factors a matrix that another
    # one already factored; the relations of H^m are factored once for
    # both rings, and at m = dim K, where d^m = 0, they are delta^(m-1)
    # itself and read off its IntSolver
    inputs, building = [], []
    snf, init = la.smith_normal_form, la.IntSolver.__init__

    def counted(A):
        A = la.as_matrix(A)
        inputs.append(((A.shape, tuple(int(x) for x in A.flat)),
                       bool(building)))
        return snf(A)

    def solver_init(self, A):
        building.append(self)
        try:
            init(self, A)
        finally:
            building.pop()

    for mod in (la, ch):
        monkeypatch.setattr(mod, "smith_normal_form", counted)
    monkeypatch.setattr(la.IntSolver, "__init__", solver_init)
    K = cl.bundled_complex(name)
    assert dc.hexagon_exactness(K, HEXAGON_M[name], samples=10)["passed"]
    factored = [key for key, by_solver in inputs if by_solver]
    assert len(factored) == len(set(factored))
    assert len(inputs) <= 4


def test_equal_classes_with_a_corrupted_class_solver_fails_its_witness_check(
        monkeypatch):
    K = octa()
    # m = 1 puts degree 2 above the truncation degree (the coboundary's
    # IntSolver decides), m = 2 at it (the Q/Z membership solver decides)
    for m in (1, 2):
        x = dc.random_coboundary(K, m, random.Random(3), n=2)
        assert not is_zero(x.c)
        zero = dc.DifferentialCochain.zero(K, m, 2)
        assert dc.equal_classes(x, zero)[0]
        solver = dc.class_solver(K, m, 2)
        # with the integral part negated the solver's own checks pass, but
        # the integral part it returns is no witness for x = dhat(w)
        if m == 1:
            corrupted = la.IntSolver(-solver.A)
        else:
            corrupted = _NegatedU(solver)
        with monkeypatch.context() as patch:
            patch.setattr(dc, "class_solver", lambda K, m, n: corrupted)
            with pytest.raises(RuntimeError, match="witness does not verify"):
                dc.equal_classes(x, zero)


# ---------------------------------------------------------------------------
# Class equality against the mixed block system for x - y = dhat(w)
# ---------------------------------------------------------------------------

_COMPLEXES, _BLOCK_SYSTEMS = {}, {}


def _bundled(name):
    if name not in _COMPLEXES:
        _COMPLEXES[name] = cl.bundled_complex(name)
    return _COMPLEXES[name]


def _block_system(name, m, n):
    """The whole system d = dhat(w) for d of degree n as one mixed system:
    integral unknown c_w, rational unknowns h_w and (when n - 1 >= m)
    omega_w, and one row block for each of the c-, h- and (when n >= m)
    omega-equations of dhat(w) = (delta c_w, omega_w - c_w - delta h_w,
    delta omega_w).  Returns its solvability as a function of the
    right-hand side (see _mixed_reference), and whether the omega-equations
    are present."""
    key = (name, m, n)
    if key not in _BLOCK_SYSTEMS:
        K = _bundled(name)
        rn, rn1, rn2 = K.n_cells(n), K.n_cells(n - 1), K.n_cells(n - 2)
        d_n1, d_n2 = K.boundary_matrix(n).T, K.boundary_matrix(n - 1).T
        has_omega_w, has_omega_eq = n - 1 >= m, n >= m
        rows = rn + rn1 + (rn if has_omega_eq else 0)
        A_int = zeros(rows, rn1)
        A_rat = zeros(rows, rn2 + (rn1 if has_omega_w else 0))
        A_int[:rn] = d_n1
        A_int[rn:rn + rn1] = -la.eye(rn1)
        A_rat[rn:rn + rn1, :rn2] = -d_n2
        if has_omega_w:
            A_rat[rn:rn + rn1, rn2:] = la.eye(rn1)
            if has_omega_eq:
                A_rat[rn + rn1:, rn2:] = d_n1
        _BLOCK_SYSTEMS[key] = (_mixed_reference(A_int, A_rat), has_omega_eq)
    return _BLOCK_SYSTEMS[key]


def _random_element(K, m, n, rng):
    """A random differential cochain of degree n, almost never a cocycle."""
    return dc.DifferentialCochain(
        K, m, n, dc.random_int_vector(rng, K.n_cells(n)),
        dc.random_rational_vector(rng, K.n_cells(n - 1)),
        dc.random_rational_vector(rng, K.n_cells(n)) if n >= m
        else zeros(K.n_cells(n), 1).reshape(-1))


def _combination(gens, rng, coeff):
    out = zeros(gens.shape[0], 1).reshape(-1)
    for j in range(gens.shape[1]):
        out = out + coeff(rng) * gens[:, j]
    return out


def _difference(K, m, n, kind, rng):
    """A difference of the given kind between two elements of degree n."""
    if kind == "coboundary":
        return dc.random_coboundary(K, m, rng, n)
    if kind == "flat":
        # trivial exactly when [u] = 0 in H^(n-1)(K; Q/Z)
        un, L = dc.qz_cohomology(K, n - 1).random_class(rng)
        return dc.flat_include(K, m, n, un, L)
    if kind == "forms":
        # a(alpha) for a closed alpha with small denominators
        alpha = _combination(dc.rational_cohomology(K, n - 1).gens, rng,
                             lambda r: Fraction(r.randint(-3, 3),
                                                r.randint(1, 2)))
        alpha = alpha + mv(K.boundary_matrix(n - 1).T,
                           dc.random_rational_vector(rng, K.n_cells(n - 2)))
        return dc.forms_a(K, m, n, *la.to_numerators(alpha))
    if kind == "integral" and n >= m:
        # (z, 0, z) for an integral cocycle z, torsion classes included
        z = _combination(dc.integral_cohomology(K, n).gens, rng,
                         lambda r: r.randint(-2, 2))
        return dc.DifferentialCochain(K, m, n, z,
                                      zeros(K.n_cells(n - 1), 1).reshape(-1),
                                      z * Fraction(1))
    if kind == "perturbed":
        # a coboundary off by one unit in one entry of one part
        e = dc.random_coboundary(K, m, rng, n)
        parts = [p for p in ("c", "h", "omega") if getattr(e, p).size
                 and (p != "omega" or n >= m)]
        if parts:
            vecs = {p: getattr(e, p) for p in ("c", "h", "omega")}
            part = vecs[rng.choice(parts)]
            part[rng.randrange(part.size)] += 1
            e = dc.DifferentialCochain(K, m, n, vecs["c"], vecs["h"],
                                       vecs["omega"])
        return e
    return _random_element(K, m, n, rng)


CLASS_KINDS = ("coboundary", "flat", "forms", "integral", "perturbed",
               "random")


@st.composite
def class_pairs(draw):
    name = draw(st.sampled_from(BUNDLED))
    dim = _bundled(name).dim
    return (name, draw(st.integers(1, dim + 1)), draw(st.integers(1, dim + 1)),
            draw(st.sampled_from(CLASS_KINDS)), draw(st.integers(0, 2 ** 32)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=class_pairs())
@example(case=("octahedron", 1, 3, "coboundary", 0))   # n - 1 > m, n > dim
@example(case=("rp2_6", 1, 2, "integral", 1))          # n - 1 = m, torsion
@example(case=("csaszar_torus", 2, 2, "flat", 2))       # n = m
@example(case=("octahedron", 3, 2, "forms", 3))        # n < m
@example(case=("circle3", 1, 1, "flat", 4))            # n - 2 < 0
@example(case=("csaszar_torus", 2, 2, "perturbed", 5))  # non-cocycles
@example(case=("rp2_6", 1, 3, "random", 6))
def test_equal_classes_agrees_with_the_mixed_block_system(case):
    name, m, n, kind, seed = case
    K, rng = _bundled(name), random.Random(seed)
    if n >= m and rng.random() < 0.5:
        x = dc.random_cocycle(K, m, rng, n)
    else:
        x = _random_element(K, m, n, rng)
    y = x + _difference(K, m, n, kind, rng)
    d = x - y
    solvable, has_omega_eq = _block_system(name, m, n)
    rhs = np.concatenate([d.c, d.h] + ([d.omega] if has_omega_eq else []))
    want = solvable(rhs)
    eq, w = dc.equal_classes(x, y)
    assert eq == want
    if kind == "coboundary":
        assert eq
    if eq:
        assert w.n == n - 1 and (d - w.dhat()).is_zero()
    else:
        assert w is None


def test_complex_is_freed_without_the_cyclic_collector():
    # the per-complex cache holds the Q/Z cohomology, which must not hold
    # the complex back, or every hexagon run leaves its complex, homology
    # data and solvers to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        K = cl.bundled_complex("circle3")
        assert dc.hexagon_exactness(K, 1, samples=2)["passed"]
        ref = weakref.ref(K)
        del K
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Vector lengths, Fraction counts and stored bounds
# ---------------------------------------------------------------------------

def test_homology_classes_equal_rejects_a_vector_of_the_wrong_length():
    # a length-1 vector must not broadcast against the other one
    K = cl.bundled_complex("csaszar_torus")
    hd = dc.integral_cohomology(K, 1)
    full = zeros(K.n_cells(1), 1).reshape(-1)
    assert hd.classes_equal(full, full)
    for v, w in (([0], full), (full, [0])):
        with pytest.raises(ValueError, match="expected vector of length 21"):
            hd.classes_equal(v, w)


def test_qz_class_is_zero_rejects_a_vector_of_the_wrong_length():
    K = cl.bundled_complex("csaszar_torus")
    qz = dc.qz_cohomology(K, 1)
    un, L = qz.random_class(random.Random(0))
    assert qz.class_is_zero(un - un, L)
    for v in ([1], np.array([[1], [0]], dtype=object)):
        with pytest.raises(ValueError, match="length 21"):
            qz.class_is_zero(v, 2)


def test_hexagon_builds_few_fractions(monkeypatch):
    # cochains, samples and solves stay on integer numerators; Fractions are
    # built only where a vector leaves diffcoh.  17643 before, 0 now
    K = cl.bundled_complex("csaszar_torus")
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert dc.hexagon_exactness(K, 2, samples=10, seed=0)["passed"]
    monkeypatch.undo()
    assert len(built) <= 4410


def test_mm_scans_only_unstored_int64_factors(monkeypatch):
    scanned = []
    amax = la._amax

    def counted(a):
        scanned.append(a.shape)
        return amax(a)

    A = la.int_storage(np.array([[1, -2, 3], [4, 5, -6]]))
    B = la.int_storage(np.array([[1, 0], [0, 1], [2, 3]]))
    monkeypatch.setattr(la, "_amax", counted)
    # a stored factor, its transpose and a slice of it use the stored bound
    for P, Q in ((A, B), (B.T, A.T), (A[:, :2], B[:2]), (B, A)):
        assert (la.mm(P, Q) == P.astype(object) @ Q.astype(object)).all()
    assert scanned == []
    # a Python-int operand gets its bound from its int32 cast, not a scan,
    # and one past the cast multiplies on Python ints
    for v in (np.array([7, -2 ** 31, 2 ** 31 - 1], dtype=object),
              np.array([7, 2 ** 31, -2 ** 70], dtype=object)):
        want = [sum(a * x for a, x in zip(row, v)) for row in A.tolist()]
        assert la.int_mv(A, v).tolist() == want
        assert la.mv(A, v).tolist() == want
        assert la.mm(v.reshape(1, -1), B).tolist() == \
            [[sum(x * b for x, b in zip(v, col)) for col in B.T.tolist()]]
    assert scanned == []
    # a writable operand is scanned on every product, so changing it is safe
    W = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.int64)
    assert (la.mm(A, W) == [[2, 2], [3, 3]]).all()
    assert scanned == [(3, 2)]
    W[0, 0] = 2 ** 62
    assert la.mm(A, W)[0, 0] == 2 ** 62 + 1
    assert la.mm(W.T, A.T)[0, 0] == 2 ** 62 + 1
    assert scanned == [(3, 2), (3, 2), (2, 3)]
    # a read-only view of a writable array is kept as it is, and its bound
    # is not recorded: the array under it may still change
    W[0, 0] = 1
    V = W[:, :1]
    V.setflags(write=False)
    S = la.int_storage(V)
    W[0, 0] = 2 ** 62
    assert S is V and la.mm(la.int_storage(np.array([[4, 0, 0]])), S)[0, 0] \
        == 2 ** 64


def test_hexagon_scans_few_product_operands(monkeypatch):
    # stored matrices keep the bound found when they were stored, and
    # Python-int numerators get theirs from an int32 cast: a product scans
    # only the int64 intermediates of the solves.  900 scans before, 81 now
    K = cl.bundled_complex("csaszar_torus")
    assert dc.hexagon_exactness(K, 2, samples=10, seed=0)["passed"]
    scanned = []
    amax = la._amax

    def counted(a):
        frame = sys._getframe(1)
        for _ in range(3):
            if frame.f_code is la._int_product.__code__:
                scanned.append(a.shape)
                break
            frame = frame.f_back
        return amax(a)

    monkeypatch.setattr(la, "_amax", counted)
    assert dc.hexagon_exactness(K, 2, samples=10, seed=0)["passed"]
    monkeypatch.undo()
    assert len(scanned) <= 100


def test_hexagon_product_count_does_not_grow_with_samples(monkeypatch):
    # each check runs its maps, solves and witness checks once, on the
    # batch of its samples: 884 products for 10 samples when every sample
    # ran its own, 115 now, for 10 samples as for 40
    K = cl.bundled_complex("csaszar_torus")
    assert dc.hexagon_exactness(K, 2, samples=10, seed=0)["passed"]
    calls = []
    product = la._int_product

    def counted(A, B):
        calls.append(1)
        return product(A, B)

    monkeypatch.setattr(la, "_int_product", counted)
    counts = []
    for samples in (10, 40):
        calls.clear()
        assert dc.hexagon_exactness(K, 2, samples=samples, seed=0)["passed"]
        counts.append(len(calls))
    assert counts[0] <= 250
    assert counts[1] <= counts[0] + 5


def test_pullback_classification_product_count_does_not_grow_with_samples(
        monkeypatch):
    # the two sampled checks run once, on the batch of their samples: 265
    # products for 10 samples and 895 for 40 when every sample ran its own
    K = cl.bundled_complex("csaszar_torus")
    assert dc.pullback_classification_check(K, 2, samples=10, seed=0)[
        "passed"]
    calls = []
    product = la._int_product

    def counted(A, B):
        calls.append(1)
        return product(A, B)

    monkeypatch.setattr(la, "_int_product", counted)
    counts = []
    for samples in (10, 40):
        calls.clear()
        assert dc.pullback_classification_check(
            K, 2, samples=samples, seed=0)["passed"]
        counts.append(len(calls))
    assert counts[1] <= counts[0] + 5


# ---------------------------------------------------------------------------
# Verdicts per column: one planted bad column of a batch
# ---------------------------------------------------------------------------

def test_a_bad_column_fails_only_the_hexagon_check_that_samples_it(
        monkeypatch):
    # column 3 of the right diamond's random cocycles gets a free integral
    # class added to c, so there [omega - L c]_Q = -L [z] is not zero
    K = cl.bundled_complex("csaszar_torus")
    free = dc.integral_cohomology(K, 2).gens[:, 0]
    batches, sample = [], dc.random_cocycles

    def one_bad_column(*args):
        x = sample(*args)
        x.c[:, 3] = x.c[:, 3] + free
        batches.append(x)
        return x

    monkeypatch.setattr(dc, "random_cocycles", one_bad_column)
    rep = dc.hexagon_exactness(K, 2, samples=10, seed=0)
    assert [c["check"] for c in rep["checks"] if not c["passed"]] == [
        "right_diamond_commutes"]
    assert not rep["passed"]
    x, = batches
    verdicts = dc.rational_cohomology(K, 2).class_is_zero(x.wn - x.L * x.c)
    assert verdicts.tolist() == [j != 3 for j in range(x.c.shape[1])]


class _Refusing:
    """A class solver that reports the given columns of every batch as
    unsolved, and solves the others as the real one does."""

    def __init__(self, real, columns):
        self.real, self.columns = real, columns

    def _refuse(self, *sol):
        ok = sol[-1].copy()
        ok[self.columns] = False
        return (*sol[:-1], ok)

    def solve_many(self, B):
        return self._refuse(*self.real.solve_many(B))

    def solve_numerators(self, N, L):
        return self._refuse(*self.real.solve_numerators(N, L))


@pytest.mark.parametrize("name, m", [("circle3", 1), ("octahedron", 2)])
def test_homotopy_formula_counts_the_failed_columns(name, m, monkeypatch,
                                                    capsys):
    from cellcoh import cli
    class_solver = dc.class_solver
    monkeypatch.setattr(dc, "class_solver", lambda K, m, n: _Refusing(
        class_solver(K, m, n), [1, 4]))
    argv = ["homotopy-formula", name, "--m", str(m), "--samples", "6",
            "--seed", "1", "--format", "json"]
    assert cli.main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["failures"] == 2 and not rep["passed"]
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


# trivial classes dhat(e) in a batch of six; class_is_trivial finds every
# witness, then, with the integral part u of column 4 negated by the Q/Z
# membership solver, must refuse that column's witness
CORRUPTED_WITNESS_COLUMN = """
import random
from cellcoh import cells as cl, diffcoh as dc
K = cl.bundled_complex("octahedron")
rng = random.Random(3)
x = dc._stack(K, 2, 2, [dc.random_coboundary(K, 2, rng, n=2)
                        for _ in range(6)])
if not (dc.class_is_trivial(x)[0].all() and x.c[:, 4].any()):
    raise SystemExit("bad sample")
real = dc.class_solver(K, 2, 2)

class NegatedColumn:
    def solve_numerators(self, N, L):
        u, v, L, ok = real.solve_numerators(N, L)
        u = u.copy()
        u[:, 4] = -u[:, 4]
        return u, v, L, ok

dc.class_solver = lambda K, m, n: NegatedColumn()
try:
    dc.class_is_trivial(x)
except RuntimeError as e:
    print(e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_corrupted_witness_column_raises_also_under_python_O(flags):
    src = str(Path(dc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, *flags, "-c", CORRUPTED_WITNESS_COLUMN], env=env,
        check=True, capture_output=True, text=True, timeout=120).stdout
    assert out == "class-equality witness does not verify\n"


# ---------------------------------------------------------------------------
# A single input is the batch of its one column
# ---------------------------------------------------------------------------

def test_homology_classes_equal_gives_one_verdict_per_column():
    # a vector against a batch is compared with every column, on either side
    hd = dc.integral_cohomology(octa(), 2)
    z = zeros(hd.gens.shape[0], 1).reshape(-1)
    batch = np.stack([z, hd.gens[:, 0]], axis=1)
    assert hd.classes_equal(z, batch).tolist() == [True, False]
    assert hd.classes_equal(batch, z).tolist() == [True, False]


@pytest.mark.parametrize("name", ["circle3", "octahedron"])
def test_a_single_cochain_against_a_batch_is_its_one_column(name):
    # on circle3 (3 cells, 3 columns) the single cochain once broadcast
    # along the sample axis, elsewhere numpy refused the shapes
    K = cl.bundled_complex(name)
    X = dc.random_cocycles(K, 1, random.Random(5), 3)
    for x, y in ((X, X.column(0)), (X.column(0), X)):
        assert dc.equal_classes(x, y)[0].tolist() == [True, False, False]
        assert (x - y).is_zero().tolist() == [True, False, False]
    Y = dc.random_cocycles(K, 1, random.Random(6), 2)
    for x, y in ((X, Y), (Y, X)):
        with pytest.raises(ValueError, match="incompatible differential"):
            x + y
        with pytest.raises(ValueError, match="incompatible differential"):
            dc.equal_classes(x, y)


def _same_cochain(x, y):
    return (x.L == y.L and x.c.tolist() == y.c.tolist()
            and x.hn.tolist() == y.hn.tolist()
            and x.wn.tolist() == y.wn.tolist())


@pytest.mark.parametrize("name, m", [("circle3", 1), ("csaszar_torus", 2)])
def test_a_batch_gives_the_results_of_its_columns(name, m):
    K = cl.bundled_complex(name)
    rng = random.Random(7)
    cols = lambda B: [B[:, j] for j in range(B.shape[1])]
    # Q/Z classes over one L: random ones, a zero one and a half generator
    qz = dc.qz_cohomology(K, m - 1)
    draws = [qz.random_class(rng) for _ in range(4)]
    L = draws[0][1]
    gen = qz.rational.gens[:, 0] * (L // 2)
    U = np.stack([un for un, _ in draws] + [0 * gen, gen], axis=1)
    verdicts = qz.class_is_zero(U, L)
    assert verdicts.tolist() == [qz.class_is_zero(u, L) for u in cols(U)]
    assert set(verdicts.tolist()) == {True, False}
    assert [b.tolist() for b in cols(qz.bockstein(U, L))] == [
        qz.bockstein(u, L).tolist() for u in cols(U)]
    for make in (dc.forms_a, dc.flat_include):
        x = make(K, m, m, U, L)
        for j, u in enumerate(cols(U)):
            assert _same_cochain(x.column(j), make(K, m, m, u, L))
    # integral classes of degree m: cocycles, their sums with a generator
    hd = dc.integral_cohomology(K, m)
    X = dc.random_cocycles(K, m, rng, 3)
    C = np.concatenate([X.c, X.c[:, :1] + hd.gens[:, :1], 0 * X.c[:, :1]],
                       axis=1)
    assert hd.class_is_zero(C).tolist() == [
        hd.class_is_zero(c) for c in cols(C)]
    for v in (C[:, 0], C[:, ::-1]):
        want = [hd.classes_equal(v if v.ndim == 1 else v[:, j], c)
                for j, c in enumerate(cols(C))]
        assert hd.classes_equal(v, C).tolist() == want
    assert set(hd.classes_equal(C[:, 0], C).tolist()) == {True, False}
    # class equality of differential cochains, batch against batch and a
    # single cochain against a batch
    Y = dc._stack(K, m, m, [X.column(0), X.column(0),
                            X.column(2) + dc.random_coboundary(K, m, rng)])
    for x, y in ((X, Y), (X.column(0), Y), (Y, X.column(2))):
        want = [dc.equal_classes(
            x if x.c.ndim == 1 else x.column(j),
            y if y.c.ndim == 1 else y.column(j))[0] for j in range(3)]
        assert dc.equal_classes(x, y)[0].tolist() == want
        assert set(want) == {True, False}


# ---------------------------------------------------------------------------
# Numerator cochains against a Fraction reference
# ---------------------------------------------------------------------------

# 2^31 - 1 and 2^61 - 1 are prime, so two entries over them put the lcm of
# the denominators past 2^63
BIG_DENOMINATORS = (2 ** 31 - 1, 2 ** 61 - 1, 3 ** 40)


def _ref_delta(K, deg, v):
    rows = K.boundary_matrix(deg + 1).T.tolist()
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows]


def _ref_dhat(K, n, x):
    c, h, w = x
    return (_ref_delta(K, n, c),
            [a - b - e for a, b, e in zip(w, c, _ref_delta(K, n - 1, h))],
            _ref_delta(K, n, w))


def _ref_combine(x, y, sign):
    return tuple([a + sign * b for a, b in zip(p, q)] for p, q in zip(x, y))


def _ref_of(x):
    return (list(x.c), list(map(Fraction, x.h)), list(map(Fraction, x.omega)))


def _matches(x, ref):
    """x has the reference values, c as ints and h and omega as ints where
    integral, Fractions elsewhere."""
    for got, want in zip((x.c, x.h, x.omega), ref):
        assert list(got) == want
        assert [type(v) for v in got] == [
            int if Fraction(f).denominator == 1 else Fraction for f in want]


@st.composite
def numerator_cases(draw):
    name = draw(st.sampled_from(BUNDLED))
    K = _bundled(name)
    m, n = draw(st.integers(1, K.dim + 1)), draw(st.integers(1, K.dim + 1))
    frac = st.builds(Fraction, st.integers(-40, 40),
                     st.one_of(st.integers(1, 12),
                               st.sampled_from(BIG_DENOMINATORS)))

    def vec(k, elems):
        return draw(st.lists(elems, min_size=k, max_size=k))

    def element(deg):
        omega = (vec(K.n_cells(deg), frac) if deg >= m
                 else [Fraction(0)] * K.n_cells(deg))
        return (vec(K.n_cells(deg), st.integers(-5, 5)),
                vec(K.n_cells(deg - 1), frac), omega)

    x = element(n)
    # y = x + a difference that is a coboundary, an integral (z, 0, z) with
    # z = delta b (never a class at n = m unless z = 0), or arbitrary
    kind = draw(st.sampled_from(("coboundary", "integral", "random")))
    if kind == "coboundary":
        diff = _ref_dhat(K, n - 1, element(n - 1))
    elif kind == "integral" and n >= m:
        z = _ref_delta(K, n - 1, vec(K.n_cells(n - 1), st.integers(-3, 3)))
        diff = ([int(v) for v in z], [Fraction(0)] * K.n_cells(n - 1), z)
    else:
        diff = element(n)
    return name, m, n, x, _ref_combine(x, diff, 1), draw(
        st.integers(0, 2 ** 32))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=numerator_cases())
@example(case=("octahedron", 2, 2,
               ([1, 0, 0, 0, 0, 0, 0, 0],
                [Fraction(1, 2 ** 61 - 1)] + [Fraction(0)] * 11,
                [Fraction(3, 2 ** 31 - 1)] + [Fraction(0)] * 7),
               ([1, 0, 0, 0, 0, 0, 0, 0],
                [Fraction(1, 2 ** 61 - 1)] + [Fraction(0)] * 11,
                [Fraction(3, 2 ** 31 - 1)] + [Fraction(0)] * 7), 0))
def test_numerator_cochains_agree_with_a_fraction_reference(case):
    name, m, n, xr, yr, seed = case
    K = _bundled(name)
    x, y = (dc.DifferentialCochain(K, m, n, *r) for r in (xr, yr))
    _matches(x, xr)
    _matches(y, yr)
    _matches(x.dhat(), _ref_dhat(K, n, xr))
    _matches(x + y, _ref_combine(xr, yr, 1))
    _matches(x - y, _ref_combine(xr, yr, -1))
    _matches(-x, _ref_combine(xr, xr, -2))
    dr = _ref_combine(xr, yr, -1)
    assert (x - y).is_zero() == (not any(map(any, dr)))
    assert x.is_cocycle() == (not any(map(any, _ref_dhat(K, n, xr))))
    # JSON carries the reference values as strings and reads them back
    obj = x.to_json()
    assert obj["h"] == [str(f) for f in xr[1]]
    assert obj["omega"] == [str(f) for f in xr[2]]
    _matches(dc.DifferentialCochain.from_json(K, obj), xr)
    # omega vanishes below the truncation degree, however it is built
    if n < m and K.n_cells(n):
        bad = [Fraction(1, 3)] + [Fraction(0)] * (K.n_cells(n) - 1)
        with pytest.raises(ValueError, match="omega must vanish"):
            dc.DifferentialCochain(K, m, n, xr[0], xr[1], bad)
        obj["omega"] = [str(f) for f in bad]
        with pytest.raises(ValueError, match="omega must vanish"):
            dc.DifferentialCochain.from_json(K, obj)
    # the verdict of the block system, and a witness the reference verifies
    solvable, has_omega_eq = _block_system(name, m, n)
    rhs = np.array(dr[0] + dr[1] + (dr[2] if has_omega_eq else []),
                   dtype=object)
    eq, w = dc.equal_classes(x, y)
    assert eq == solvable(rhs)
    if eq:
        assert w.n == n - 1 and (n - 1 >= m or not any(w.omega))
        assert not any(map(any, _ref_combine(
            dr, _ref_dhat(K, n - 1, _ref_of(w)), -1)))
        # a class solver whose integral part is negated still solves its
        # own system, so only the witness check can catch it
        if any(w.c):
            real = dc.class_solver(K, m, n)
            bad = (la.IntSolver(-real.A) if n - 1 >= m
                   else _NegatedU(real))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dc, "class_solver", lambda K, m, n: bad)
                with pytest.raises(RuntimeError, match="does not verify"):
                    dc.equal_classes(x, y)
    else:
        assert w is None
    # the numerator samplers draw what the Fraction samplers drew, from the
    # same rng calls: p / q with p in -9..9 and q in 1..6, p drawn first
    rng, ref = random.Random(seed), random.Random(seed)
    k = K.n_cells(n)
    want = [Fraction(ref.randint(-9, 9), ref.randint(1, 6)) for _ in range(k)]
    assert list(dc.random_numerators(rng, k) * Fraction(1, dc.SAMPLE_DEN)) \
        == want
    assert dc.random_rational_vector(random.Random(seed), k).tolist() == want
    assert dc.random_rational(rng) == Fraction(ref.randint(-9, 9),
                                               ref.randint(1, 6))
    # random_class draws a p / q per rational generator, a residue below
    # each torsion order, p / q per entry of g and an integer z in -9..9
    qz = dc.qz_cohomology(K, n - 1)
    un, L = qz.random_class(rng)
    pq = lambda: Fraction(ref.randint(-9, 9), ref.randint(1, 6))
    gens = qz.rational.gens
    u = zeros(qz.n_cells, 1).reshape(-1)
    for j in range(gens.shape[1]):
        u = u + pq() * gens[:, j]
    for b, order in qz.torsion_lifts:
        u = u + Fraction(ref.randrange(order), order) * b
    g = np.array([pq() for _ in range(qz.delta_below.shape[1])], dtype=object)
    u = u + mv(qz.delta_below, g) + np.array(
        [ref.randint(-9, 9) for _ in range(qz.n_cells)], dtype=object)
    assert list(un * Fraction(1, L)) == list(u)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("circles, lifts", [(0, 1), (1, 2), (2, 4)])
def test_torsion_lifts_solve_every_generator_at_once(circles, lifts):
    # the lifts b / k of the torsion generators t of H^(n+1)(Z), k t =
    # delta b, come from one batched solve: the same b as one solve per
    # generator, also where there is no torsion generator at all
    K = cl.bundled_complex("rp2_6")
    for _ in range(circles):
        K = cl.circle_product(K).complex
    found = 0
    for n in range(K.dim + 1):
        qz = dc.qz_cohomology(K, n)
        hz = qz.integral_next
        tor = [i for i, k in enumerate(hz.orders) if k]
        assert len(qz.torsion_lifts) == len(tor)
        for (b, k), i in zip(qz.torsion_lifts, tor):
            t = hz.gens[:, i]
            assert k == hz.orders[i]
            assert b.tolist() == qz.primitive.solve(k * t).tolist()
            assert is_zero(mv(qz.delta, b) - k * t)
        found += len(tor)
    # Z/2 in H^2 of RP^2; Z/2 in H^2 and H^3 of S^1 x RP^2; Z/2 in H^2,
    # (Z/2)^2 in H^3 and Z/2 in H^4 of S^1 x S^1 x RP^2
    assert found == lifts


DRAW_WIDTHS = [1, 2, 6, 7, 19, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 70 + 3]


@pytest.mark.parametrize("widths", [[w] * 5 for w in DRAW_WIDTHS] + [
    DRAW_WIDTHS, DRAW_WIDTHS[::-1], [19, 6] * 7 + [2, 7, 1] + [19] * 9, []])
def test_draw_primitive_matches_randrange(widths):
    # the same values from the same Mersenne Twister words as one randrange
    # per width, leaving the generator in the same state, so seeded samples
    # and the reports on them do not depend on which of the two drew them
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        assert dc._randbelow(rng, widths) == [ref.randrange(w) for w in widths]
        assert rng.getstate() == ref.getstate()


class _FewWords(random.Random):
    """A generator that gives out at most 100 words, so that a draw loop
    that never ends fails instead."""

    def getrandbits(self, k):
        self.words = getattr(self, "words", 0) + 1
        if self.words > 100:
            raise RuntimeError("draw loop does not end")
        return super().getrandbits(k)


@pytest.mark.parametrize("width", [0, -1])
def test_draw_primitive_refuses_empty_ranges(width):
    # getrandbits(0) is 0, so a width below 1 would loop forever; like
    # randrange, the primitive raises, after the draws before it
    rng, ref = _FewWords(3), random.Random(3)
    with pytest.raises(ValueError):
        dc._randbelow(rng, [7, width, 7])
    ref.randrange(7)
    with pytest.raises(ValueError):
        ref.randrange(width)
    assert rng.getstate() == ref.getstate()
