import random
from fractions import Fraction

import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh.linalg import is_zero


def rand_cochain(rng, X, deg):
    z = cl.Cochain.zero(X, deg, "Q")
    for i in range(len(z.values)):
        z.values[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return z


def test_triangle_boundary_counts():
    K = cl.simplicial_from_facets([(0, 1), (1, 2), (0, 2)])
    assert (K.n_cells(0), K.n_cells(1)) == (3, 3)
    assert is_zero(K.boundary_matrix(0) @ K.boundary_matrix(1))


def test_euler_characteristics():
    assert cl.bundled_complex("octahedron").euler_characteristic() == 2
    assert cl.bundled_complex("csaszar_torus").euler_characteristic() == 0
    K = cl.bundled_complex("csaszar_torus")
    assert (K.n_cells(0), K.n_cells(1), K.n_cells(2)) == (7, 21, 14)


def test_duplicate_facets_collapse():
    K = cl.simplicial_from_facets([(0, 1, 2), (2, 1, 0)])
    assert K.n_cells(2) == 1


def test_facet_with_repeated_vertex_rejected():
    with pytest.raises(ValueError):
        cl.simplicial_from_facets([(0, 0, 1)])


def test_prism_of_point_is_interval():
    P = cl.prism(cl.simplicial_from_facets([(0,)]))
    assert (P.complex.n_cells(0), P.complex.n_cells(1)) == (2, 1)
    edge = P.complex.cells(1)[0]
    bnd = dict(P.complex.boundary[edge])
    v0, v1 = (("v", 0), (0,)), (("v", 1), (0,))
    assert bnd[v1] == 1 and bnd[v0] == -1


def test_prism_euler_characteristic_and_dd():
    for name in ("circle3", "octahedron"):
        K = cl.bundled_complex(name)
        P = cl.prism(K)
        assert P.complex.euler_characteristic() == K.euler_characteristic()
        # dd = 0 is asserted by the constructor; re-check the top dimension
        d = P.complex.dim
        assert is_zero(P.complex.boundary_matrix(d - 1)
                       @ P.complex.boundary_matrix(d))


def test_prism_stokes_identity_randomized():
    rng = random.Random(0)
    K = cl.bundled_complex("octahedron")
    P = cl.prism(K)
    e0, e1 = P.sections["end0"], P.sections["end1"]
    for _ in range(200):
        deg = rng.randint(1, P.complex.dim)
        z = rand_cochain(rng, P.complex, deg)
        lhs = cl.fiber_integrate_prism(P, z.delta()) \
            + cl.fiber_integrate_prism(P, z).delta()
        rhs = e1.pullback(z) - e0.pullback(z)
        assert (lhs - rhs).is_zero()


def test_prism_projection_identities():
    rng = random.Random(1)
    K = cl.bundled_complex("octahedron")
    P = cl.prism(K)
    pr, e0, e1 = P.proj, P.sections["end0"], P.sections["end1"]
    for _ in range(40):
        deg = rng.randint(0, K.dim)
        y = rand_cochain(rng, K, deg)
        assert (e0.pullback(pr.pullback(y)) - y).is_zero()
        assert (e1.pullback(pr.pullback(y)) - y).is_zero()
        if deg >= 1:
            assert cl.fiber_integrate_prism(P, pr.pullback(y)).is_zero()
        diff = e1.pullback(pr.pullback(y)) - e0.pullback(pr.pullback(y))
        assert diff.is_zero()


def test_indicator_prism_cell_integrates_to_indicator():
    K = cl.bundled_complex("circle3")
    P = cl.prism(K)
    sigma = K.cells(1)[0]
    z = cl.Cochain.indicator(P.complex, (("e", 0), sigma))
    out = cl.fiber_integrate_prism(P, z)
    want = cl.Cochain.indicator(K, sigma)
    assert (out - cl.Cochain(K, 1, "Z", want.values)).is_zero()


def test_circle_product_point_is_circle():
    S = cl.circle_product(cl.simplicial_from_facets([(0,)]))
    assert (S.complex.n_cells(0), S.complex.n_cells(1)) == (3, 3)


def test_circle_product_euler_and_torus_cohomology():
    for name in ("circle3", "octahedron", "csaszar_torus", "rp2_6"):
        S = cl.circle_product(cl.bundled_complex(name))
        assert S.complex.euler_characteristic() == 0
    T = cl.circle_product(cl.bundled_complex("circle3"))
    C = cl.cochain_complex(T.complex, "Q")
    assert [str(ch.homology(C, n)) for n in range(3)] == ["Q", "Q^2", "Q"]


def test_homology_of_product_ladders():
    # S^1 x S^1 x T is a 4-torus and I x S^1 x T has the cohomology of a
    # 3-torus; each has up to 567 cells in one degree
    T = cl.bundled_complex("csaszar_torus")
    S1T = cl.circle_product(T).complex
    for K, want in ((cl.circle_product(S1T).complex,
                     ["Z", "Z^4", "Z^6", "Z^4", "Z"]),
                    (cl.prism(S1T).complex, ["Z", "Z^3", "Z^3", "Z", "0"])):
        C = cl.cochain_complex(K, "Z")
        assert [str(ch.homology(C, n)) for n in range(5)] == want


def test_closed_fiber_stokes_randomized():
    rng = random.Random(2)
    S = cl.circle_product(cl.bundled_complex("octahedron"))
    for _ in range(200):
        deg = rng.randint(1, S.complex.dim)
        z = rand_cochain(rng, S.complex, deg)
        lhs = cl.fiber_integrate_circle(S, z.delta()) \
            + cl.fiber_integrate_circle(S, z).delta()
        assert lhs.is_zero()


def test_circle_fundamental_cocycle_times_pullback():
    rng = random.Random(3)
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    edge0 = S.fiber_cycle[0][0]
    for deg in (0, 1):
        eta = rand_cochain(rng, K, deg)
        z = cl.Cochain.zero(S.complex, deg + 1, "Q")
        for s in K.cells(deg):
            z.values[S.complex.index[(edge0, s)]] = eta[s]
        out = cl.fiber_integrate_circle(S, z)
        assert (out - eta).is_zero()
    # proj-pullbacks integrate to zero
    for deg in (1,):
        y = rand_cochain(rng, K, deg)
        assert cl.fiber_integrate_circle(S, S.proj.pullback(y)).is_zero()


def test_pullback_commutes_with_delta_randomized():
    rng = random.Random(4)
    K = cl.bundled_complex("circle3")
    P = cl.prism(K)
    maps = [P.sections["end0"], P.sections["end1"], P.proj]
    for f in maps:
        src_dim = f.target.dim
        for _ in range(30):
            deg = rng.randint(0, src_dim - 1)
            z = rand_cochain(rng, f.target, deg)
            assert (f.pullback(z.delta()) - f.pullback(z).delta()).is_zero()


def test_fiber_integration_rejects_degree_zero():
    P = cl.prism(cl.bundled_complex("circle3"))
    z = cl.Cochain.zero(P.complex, 0, "Q")
    with pytest.raises(ValueError, match="degree"):
        cl.fiber_integrate_prism(P, z)


def test_subcomplex_closure_validation():
    K = cl.bundled_complex("circle3")
    with pytest.raises(ValueError):
        cl.subcomplex(K, {(0, 1)})   # edge without its vertices


def test_star_cover_covers():
    for name in ("circle3", "octahedron", "rp2_6"):
        K = cl.bundled_complex(name)
        cover = cl.star_cover(K)
        assert set().union(*cover) == set(K.dim_of)


def test_cell_json_round_trip():
    K = cl.bundled_complex("rp2_6")
    K2 = cl.CellComplex.from_json(K.to_json())
    assert K2.dim_of == K.dim_of
    for d in range(K.dim + 1):
        assert (K2.boundary_matrix(d) == K.boundary_matrix(d)).all() \
            or K.n_cells(d) == 0


def test_cochain_complex_is_transpose_of_boundary():
    K = cl.bundled_complex("octahedron")
    C = cl.cochain_complex(K, "Z")
    for n in range(K.dim):
        assert (C.diff(n) == K.boundary_matrix(n + 1).T).all()


def test_reading_a_ladder_complex_builds_no_fraction(monkeypatch):
    # dimensions and incidences given as JSON ints are taken as they are
    obj = cl.circle_product(cl.bundled_complex("circle3")).complex.to_json()
    new, built = Fraction.__new__, []
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs:
                        built.append(1) or new(cls, *args, **kwargs))
    K = cl.CellComplex.from_json(obj)
    monkeypatch.undo()
    assert not built
    assert K.to_json() == obj


def test_parse_int_takes_ints_and_parses_strings():
    assert [ch.parse_int(x) for x in (7, -2 ** 70, "12", "-4/2")] == \
        [7, -2 ** 70, 12, -2]
    for x, message in ((True, "Invalid literal for Fraction: 'True'"),
                       (None, "Invalid literal for Fraction: 'None'"),
                       (1.5, "non-integer value 1.5"),
                       ("3/2", "non-integer value '3/2'")):
        with pytest.raises(ValueError, match=message):
            ch.parse_int(x)
