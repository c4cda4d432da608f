import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh.linalg import eye, is_zero, mm

BUNDLED = ("circle3", "octahedron", "csaszar_torus", "rp2_6")

# The Stokes, projection and pullback tests check maps as matrices: a
# cochain map applied to eye(n), the batch of all n unit cochains of a
# degree, is its matrix.


def delta(X, d):
    """The coboundary of X from degree d."""
    return X.boundary_matrix(d + 1).T


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


def test_prism_stokes_identity_on_all_cochains():
    # pi_!(delta z) + delta(pi_! z) = end1* z - end0* z as matrices
    for name in BUNDLED:
        K = cl.bundled_complex(name)
        P = cl.prism(K)
        e0, e1 = P.sections["end0"], P.sections["end1"]
        for d in range(1, P.complex.dim + 1):
            z = eye(P.complex.n_cells(d))
            lhs = (cl.fiber_integrate_prism(P, delta(P.complex, d), d + 1)
                   + mm(delta(K, d - 1), cl.fiber_integrate_prism(P, z, d)))
            assert (lhs == e1.pullback(z, d) - e0.pullback(z, d)).all()


def test_prism_projection_identities():
    # end_i* pr* = id and pi_! pr* = 0 as matrices, in every degree
    K = cl.bundled_complex("octahedron")
    P = cl.prism(K)
    pr, e0, e1 = P.proj, P.sections["end0"], P.sections["end1"]
    for d in range(K.dim + 1):
        y = eye(K.n_cells(d))
        up = pr.pullback(y, d)
        assert (e0.pullback(up, d) == y).all()
        assert (e1.pullback(up, d) == y).all()
        if d >= 1:
            assert is_zero(cl.fiber_integrate_prism(P, up, d))


def test_indicator_prism_cell_integrates_to_indicator():
    K = cl.bundled_complex("circle3")
    P = cl.prism(K)
    sigma = K.cells(1)[0]
    z = np.zeros(P.complex.n_cells(2), dtype=object)
    z[P.complex.index[(("e", 0), sigma)]] = 1
    want = np.zeros(K.n_cells(1), dtype=object)
    want[K.index[sigma]] = 1
    assert (cl.fiber_integrate_prism(P, z, 2) == want).all()


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


def test_closed_fiber_stokes_on_all_cochains():
    # pi_!(delta z) + delta(pi_! z) = 0 as matrices
    for name in BUNDLED:
        K = cl.bundled_complex(name)
        S = cl.circle_product(K)
        for d in range(1, S.complex.dim + 1):
            z = eye(S.complex.n_cells(d))
            lhs = (cl.fiber_integrate_circle(S, delta(S.complex, d), d + 1)
                   + mm(delta(K, d - 1), cl.fiber_integrate_circle(S, z, d)))
            assert is_zero(lhs)


def test_circle_fundamental_cocycle_times_pullback():
    # pi_!(e x eta) = eta for every eta at once, e the first fiber edge
    K = cl.bundled_complex("circle3")
    S = cl.circle_product(K)
    edge0 = S.fiber_cycle[0][0]
    for deg in (0, 1):
        z = np.zeros((S.complex.n_cells(deg + 1), K.n_cells(deg)), dtype=int)
        for i, s in enumerate(K.cells(deg)):
            z[S.complex.index[(edge0, s)], i] = 1
        out = cl.fiber_integrate_circle(S, z, deg + 1)
        assert (out == eye(K.n_cells(deg))).all()
    # proj-pullbacks integrate to zero
    up = S.proj.pullback(eye(K.n_cells(1)), 1)
    assert is_zero(cl.fiber_integrate_circle(S, up, 1))


def test_pullback_commutes_with_delta_on_all_cochains():
    # f* delta = delta f* as matrices, for the structure maps of both
    # products
    K = cl.bundled_complex("circle3")
    P, S = cl.prism(K), cl.circle_product(K)
    for f in (P.sections["end0"], P.sections["end1"], P.proj,
              S.sections["base"], S.proj):
        for d in range(f.target.dim):
            z = eye(f.target.n_cells(d))
            assert (cl.pullback(f, delta(f.target, d), d + 1)
                    == mm(delta(f.source, d), f.pullback(z, d))).all()


def test_fiber_integration_rejects_degree_zero():
    P = cl.prism(cl.bundled_complex("circle3"))
    z = np.zeros(P.complex.n_cells(0), dtype=object)
    with pytest.raises(ValueError, match="degree"):
        cl.fiber_integrate_prism(P, z, 0)


def test_a_corrupted_product_fails_its_stokes_check():
    # a fiber cycle that is not the fundamental one, or swapped ends, break
    # pi_! delta + delta pi_! = end1* - end0* (0 on the circle), and the
    # product refuses them where it is made
    for name in ("circle3", "octahedron"):
        K = cl.bundled_complex(name)
        P, S = cl.prism(K), cl.circle_product(K)
        with pytest.raises(ValueError, match="Stokes identity fails"):
            dataclasses.replace(P, fiber_cycle=((("e", 0), 2),))
        with pytest.raises(ValueError, match="Stokes identity fails"):
            dataclasses.replace(P, sections={"end0": P.sections["end1"],
                                             "end1": P.sections["end0"]})
        for drop in range(3):
            cycle = S.fiber_cycle[:drop] + S.fiber_cycle[drop + 1:]
            with pytest.raises(ValueError, match="Stokes identity fails"):
                dataclasses.replace(S, fiber_cycle=cycle)


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


def test_pullback_and_fiber_integration_reject_non_integers():
    # numerators must be integers: a cast to int32 would truncate 1/2 to 0
    P = cl.prism(cl.bundled_complex("octahedron"))
    S = cl.circle_product(cl.bundled_complex("octahedron"))
    f = P.sections["end0"]
    n = P.complex.n_cells(1)
    for half in ([0.5] * n, np.full(n, Fraction(1, 2), dtype=object)):
        for call in (lambda: f.pullback(half, 1),
                     lambda: cl.pullback(f, half, 1),
                     lambda: cl.fiber_integrate_prism(P, half, 1)):
            with pytest.raises(TypeError, match="non-integer entry"):
                call()
    half = np.full(S.complex.n_cells(2), Fraction(1, 2), dtype=object)
    with pytest.raises(TypeError, match="non-integer entry"):
        cl.fiber_integrate_circle(S, half, 2)
    assert f.pullback([1] * n, 1).tolist() == [1] * f.source.n_cells(1)
