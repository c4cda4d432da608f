import json
import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from cellcoh import bundles as bd
from cellcoh import cells as cl
from cellcoh import diffcoh as dc
from cellcoh import lattice as lt
from cellcoh.linalg import is_zero, mv, zeros


def data(path):
    return str(resources.files("cellcoh").joinpath("data/" + path))


def flat_chart():
    with open(data("charts/csaszar_flat.json")) as fh:
        return lt.SurfaceChart.from_json(json.load(fh))


def test_fundamental_cycle_unimodular_on_surfaces():
    for name in ("octahedron", "csaszar_torus"):
        K = cl.bundled_complex(name)
        z = lt.fundamental_cycle(K)
        assert all(abs(int(v)) == 1 for v in z)
        assert is_zero(mv(K.boundary_matrix(2), z))
        # one Smith form per complex, shared read-only by every bundle on it
        assert lt.fundamental_cycle(K) is z and not z.flags.writeable
        L = lt.monopole(K, 2)
        moved = lt.gauge_transform(L, zeros(K.n_cells(0), 1),
                                   zeros(K.n_cells(1), 1))
        assert L._fund is z and moved._fund is z


def test_fundamental_cycle_rejects_nonorientable():
    with pytest.raises(ValueError):
        lt.fundamental_cycle(cl.bundled_complex("rp2_6"))


def test_trivial_bundle_class_is_zero():
    K = cl.bundled_complex("octahedron")
    L = lt.LatticeLineBundle(K, zeros(K.n_cells(2), 1).reshape(-1),
                             zeros(K.n_cells(1), 1).reshape(-1))
    x = lt.lattice_class(L)
    assert x.is_zero() and x.is_cocycle()


def test_monopole_classification():
    K = cl.bundled_complex("octahedron")
    hd = dc.integral_cohomology(K, 2)
    fund = lt.fundamental_cycle(K)
    gen = hd.gens[:, 0]
    pairing = sum(int(a) * int(b) for a, b in zip(gen, fund))
    assert abs(pairing) == 1
    gen_plus = gen if pairing == 1 else -gen   # generator of positive pairing
    for d in range(-2, 3):
        L = lt.monopole(K, d)
        x = lt.lattice_class(L)
        assert x.is_cocycle()
        assert hd.classes_equal(x.c, d * gen_plus)
        assert L.total_flux() == d


def test_lattice_class_structure_maps():
    K = cl.bundled_complex("csaszar_torus")
    rng = random.Random(0)
    n = dc.random_int_vector(rng, K.n_cells(2))
    a = dc.random_rational_vector(rng, K.n_cells(1))
    L = lt.LatticeLineBundle(K, n, a)
    x = lt.lattice_class(L)
    assert x.is_cocycle()
    assert (dc.curvature_R(x) ==
            mv(K.boundary_matrix(2).T, a) + n).all()
    hd = dc.integral_cohomology(K, 2)
    assert hd.classes_equal(x.c, n)


def test_gauge_transformation_preserves_class():
    K = cl.bundled_complex("octahedron")
    rng = random.Random(1)
    for d in (0, 1, 2):
        L = lt.monopole(K, d)
        lam = dc.random_rational_vector(rng, K.n_cells(0))
        mu = dc.random_int_vector(rng, K.n_cells(1))
        L2 = lt.gauge_transform(L, lam, mu)
        assert (L2.curvature() == L.curvature()).all()
        eq, wit = dc.equal_classes(lt.lattice_class(L), lt.lattice_class(L2))
        assert eq and wit is not None


def test_character_on_boundaries_matches_curvature():
    K = cl.bundled_complex("octahedron")
    rng = random.Random(2)
    L = lt.LatticeLineBundle(K, dc.random_int_vector(rng, K.n_cells(2)),
                             dc.random_rational_vector(rng, K.n_cells(1)))
    for _ in range(20):
        w = dc.random_int_vector(rng, K.n_cells(2))
        bnd = mv(K.boundary_matrix(2), w)
        chi = lt.differential_character(L, bnd)
        pairing = sum(Fraction(x) * int(c)
                      for x, c in zip(L.curvature(), w)) % 1
        assert chi == pairing


def test_character_rejects_non_cycles():
    K = cl.bundled_complex("octahedron")
    L = lt.monopole(K, 1)
    z = zeros(K.n_cells(1), 1).reshape(-1)
    z[0] = 1
    with pytest.raises(ValueError, match="cycle"):
        lt.differential_character(L, z)


def test_monopole_with_zero_connection_has_integral_pairings():
    K = cl.bundled_complex("octahedron")
    L = lt.monopole(K, 2)
    # the character vanishes on every cycle since a = 0
    from cellcoh.linalg import IntSolver
    cycles = IntSolver(K.boundary_matrix(1)).kernel_basis()
    for j in range(cycles.shape[1]):
        assert lt.differential_character(L, cycles[:, j]) == 0
    assert L.total_flux() == 2


def test_cs_property_randomized():
    rng = random.Random(3)
    for name in ("octahedron", "csaszar_torus"):
        K = cl.bundled_complex(name)
        for _ in range(100):
            L = lt.LatticeLineBundle(
                K, dc.random_int_vector(rng, K.n_cells(2)),
                dc.random_rational_vector(rng, K.n_cells(1)))
            w = dc.random_int_vector(rng, K.n_cells(2))
            assert lt.cs_property_check(L, w)


def test_torus_wilson_lines():
    # flat bundle a = theta * (generator cocycle): character is theta on a
    # dual cycle and 0 on a complementary one
    K = cl.bundled_complex("csaszar_torus")
    h1 = dc.integral_cohomology(K, 1)
    from cellcoh.linalg import IntSolver
    cycles = IntSolver(K.boundary_matrix(1)).kernel_basis()
    theta = Fraction(1, 3)

    def pairing(cvec, zvec):
        return sum(int(a) * int(b) for a, b in zip(cvec, zvec))

    g0, g1 = h1.gens[:, 0], h1.gens[:, 1]
    dual0 = next(cycles[:, j] * (1 if pairing(g0, cycles[:, j]) == 1 else -1)
                 for j in range(cycles.shape[1])
                 if abs(pairing(g0, cycles[:, j])) == 1
                 and pairing(g1, cycles[:, j]) == 0)
    other = next(cycles[:, j] for j in range(cycles.shape[1])
                 if pairing(g0, cycles[:, j]) == 0
                 and abs(pairing(g1, cycles[:, j])) == 1)
    L = lt.LatticeLineBundle(K, zeros(K.n_cells(2), 1).reshape(-1),
                             g0 * theta)
    assert lt.differential_character(L, dual0) == theta
    assert lt.differential_character(L, other) == 0
    # flat Wilson lines: curvature vanishes
    assert is_zero(mv(K.boundary_matrix(2).T, L.a) + L.n)


def test_chart_geometry_consistency():
    chart = flat_chart()
    K = chart.complex
    # lifted triangle edges match the standalone edge lifts
    for f in K.cells(2):
        p = dict(zip(f, chart.face_triangle(f)))
        for e in [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])]:
            pa, pb = chart.edge_segment(e)
            da = (Fraction(pb[0]) - Fraction(pa[0]),
                  Fraction(pb[1]) - Fraction(pa[1]))
            db = (p[e[1]][0] - p[e[0]][0], p[e[1]][1] - p[e[0]][1])
            assert da == db
    # the float geometry the quadratures use is lifted once per chart
    start, d = chart.edge_geometry
    assert chart.edge_geometry[0] is start and not d.flags.writeable
    assert chart.face_geometry[0] is chart.face_geometry[0]
    assert start.tolist() == [[float(x) for x in chart.edge_segment(e)[0]]
                              for e in K.cells(1)]
    # triangles tile the torus: total unsigned area is 1
    total = Fraction(0)
    for f in K.cells(2):
        p0, p1, p2 = chart.face_triangle(f)
        det = (p1[0] - p0[0]) * (p2[1] - p0[1]) \
            - (p1[1] - p0[1]) * (p2[0] - p0[0])
        total += abs(det) / 2
    assert total == 1


def test_discretization_of_flat_wilson_connection():
    chart = flat_chart()
    path = bd.SmoothConnection.load(data("connections/torus_wilson_path.json"))
    L0 = lt.discretize_connection(path, chart, 0)
    assert is_zero(L0.a) and is_zero(L0.n)
    L1 = lt.discretize_connection(path, chart, 1)
    assert is_zero(L1.n)
    assert L1.total_flux() == 0
    # holonomy along the horizontal 1/7-step cycle: 7 edges of ds-length 1/7
    # each contributes (1/3)(1/7); plus dt-steps contribute (2/7)(1/7)
    assert not is_zero(L1.a)


def test_cycle_map_homotopy_formula_on_wilson_path():
    chart = flat_chart()
    path = bd.SmoothConnection.load(data("connections/torus_wilson_path.json"))
    rep = lt.cycle_map_homotopy_check(path, chart)
    assert rep["passed"] and rep["transgression_converged"]


def test_cycle_map_constant_path_both_sides_zero():
    chart = flat_chart()
    const = bd.SmoothConnection.from_json(
        {"rank": 1, "coords": ["u", "s", "t"],
         "domain": {"u": ["0", "1"], "s": ["0", "1"], "t": ["0", "1"]},
         "A": {}})
    rep = lt.cycle_map_homotopy_check(const, chart)
    assert rep["passed"]


def test_cycle_map_rejects_monopole_number_change():
    chart = flat_chart()
    path = bd.SmoothConnection.load(data("connections/torus_wilson_path.json"))
    T = chart.complex
    L0 = lt.LatticeLineBundle(T, zeros(T.n_cells(2), 1).reshape(-1),
                              zeros(T.n_cells(1), 1).reshape(-1))
    L1 = lt.monopole(T, 1)
    rep = lt.cycle_map_homotopy_check(path, chart, endpoints=(L0, L1))
    assert not rep["passed"]
    assert "underlying class" in rep["error"]


def test_nearest_rational():
    assert lt.nearest_rational(1 / 3) == Fraction(1, 3)
    assert lt.nearest_rational(0.25) == Fraction(1, 4)
    x = lt.nearest_rational(float(np.pi), max_den=100)
    assert x.denominator <= 100


def test_bundle_json():
    K = cl.bundled_complex("octahedron")
    obj = {"complex": "octahedron",
           "n": [0] * K.n_cells(2),
           "a": ["1/2"] + ["0"] * (K.n_cells(1) - 1)}
    L = lt.LatticeLineBundle.from_json(obj)
    assert L.a[0] == Fraction(1, 2)


def test_character_check_builds_no_fraction_per_sample(monkeypatch):
    # a bundle keeps integer numerators over one denominator, so the
    # character-curvature check is integer arithmetic: 25 samples build as
    # many Fractions as one (it built 133 per sample when it summed them)
    K = cl.bundled_complex("csaszar_torus")
    rng = random.Random(4)
    L = lt.LatticeLineBundle(K, dc.random_int_vector(rng, K.n_cells(2)),
                             dc.random_rational_vector(rng, K.n_cells(1)))
    new = Fraction.__new__
    counts = []
    for samples in (1, 25):
        built = []

        def counted(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        chains = [dc.random_int_vector(rng, K.n_cells(2))
                  for _ in range(samples)]
        monkeypatch.setattr(Fraction, "__new__", counted)
        ok = all(lt.cs_property_check(L, w) for w in chains)
        monkeypatch.undo()
        assert ok
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_cycle_map_check_computes_the_curvature_once(monkeypatch):
    # both endpoint discretizations and the transgression read the one
    # curvature that the connection keeps
    calls = []
    one_form = bd.SmoothConnection.one_form
    monkeypatch.setattr(bd.SmoothConnection, "one_form",
                        lambda self: calls.append(self) or one_form(self))
    path = bd.SmoothConnection.load(data("connections/torus_wilson_path.json"))
    chart = flat_chart()
    assert lt.cycle_map_homotopy_check(path, chart)["passed"]
    assert calls == [path]
    assert lt.cycle_map_homotopy_check(path, chart)["passed"]
    assert calls == [path]
    assert bd.curvature(path) is bd.curvature(path)


def _nearest(p, q, periods):
    """The representative of q nearest p by Fraction arithmetic, ties to
    even as round() breaks them."""
    return tuple(y - round((y - x) / per) * per
                 for x, y, per in zip(p, q, periods))


@pytest.mark.parametrize("periods", [(Fraction(1), Fraction(1)),
                                     (Fraction(-1, 2), Fraction(3, 4)),
                                     (Fraction(2, 3), Fraction(-1))])
def test_chart_lifts_match_fraction_arithmetic(periods):
    # positions on a grid of quarters, so that many differences are half a
    # period: the lifts on integer numerators break ties as round() does
    K = cl.bundled_complex("csaszar_torus")
    rng = random.Random(7)
    pos = {v[0]: tuple(Fraction(rng.randint(-8, 8), 4) for _ in "st")
           for v in K.cells(0)}
    chart = lt.SurfaceChart(K, ("s", "t"), pos, periods)
    ties = 0
    for cell in K.cells(1) + K.cells(2):
        want = (pos[cell[0]],) + tuple(_nearest(pos[cell[0]], pos[v], periods)
                                       for v in cell[1:])
        got = (chart.edge_segment if len(cell) == 2 else chart.face_triangle)(
            cell)
        assert got == want
        ties += sum((y - x) / per % 1 == Fraction(1, 2)
                    for v in cell[1:]
                    for x, y, per in zip(pos[cell[0]], pos[v], periods))
    assert ties > 0
    start, d = chart.edge_geometry
    for k, (a, b) in enumerate(chart.edge_segment(e) for e in K.cells(1)):
        assert start[k].tolist() == [float(x) for x in a]
        assert d[k].tolist() == [float(y - x) for x, y in zip(a, b)]
    p0, e1, e2 = chart.face_geometry
    for k, (a, b, c) in enumerate(chart.face_triangle(f) for f in K.cells(2)):
        assert p0[k].tolist() == [float(x) for x in a]
        assert e1[k].tolist() == [float(y - x) for x, y in zip(a, b)]
        assert e2[k].tolist() == [float(y - x) for x, y in zip(a, c)]


def test_chart_with_a_zero_period_is_refused():
    with open(data("charts/csaszar_flat.json")) as fh:
        obj = json.load(fh)
    obj["periods"] = ["0", "1"]
    with pytest.raises(ValueError, match="periods must be nonzero"):
        lt.SurfaceChart.from_json(obj)
