"""Integer matrices are stored once, read-only and on int64, where they enter
the system; entries past linalg.INT_BOUND keep them on Python integers, and
every check still runs on the int64 form."""

from fractions import Fraction

import numpy as np
import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import linalg as la
from cellcoh import tot

BOUND = la.INT_BOUND


def assert_stored_int64(*mats):
    for m in mats:
        assert m.dtype == np.int64
        assert not m.flags.writeable


def components(f):
    """The matrices of a chain map: its dense components, or those built
    from the indices of a selection map."""
    return [f.component(n) for n in (f.mats if f.index is None else f.index)]


def test_cell_matrices_are_read_only_int64():
    K = cl.bundled_complex("octahedron")
    assert_stored_int64(*(K.boundary_matrix(d) for d in range(K.dim + 2)))
    P = cl.prism(cl.bundled_complex("circle3"))
    assert_stored_int64(*(P.proj.chain_matrix(d)
                          for d in range(P.complex.dim + 1)))


@pytest.mark.parametrize("values", [
    [1, -1, 1],                                 # a repeated cell
    [BOUND - 1, 1, -3],                         # a sum at the bound
    [2 ** 62, 2 ** 62, 5],                      # partial sums past int64
    [-2 ** 63, -1, 7],
    [2 ** 64 + 1, -(2 ** 64), 2],               # planted torsion sizes
])
def test_triples_are_summed_exactly_into_the_stored_form(values):
    # a matrix built from (row, col, value) triples equals the entry-by-
    # entry sum on Python ints, stored by int_storage: int64 below the
    # bound, Python ints from it
    triples = [(0, 1, values[0]), (0, 1, values[1]), (1, 0, values[2]),
               (1, 1, values[1])]
    want = np.zeros((2, 3), dtype=object)
    for i, j, v in triples:
        want[i, j] += v
    got = la.int_triples((2, 3), triples)
    stored = la.int_storage(want)
    assert got.dtype == stored.dtype and not got.flags.writeable
    assert got.tolist() == want.tolist()
    assert la.int_triples((2, 0), []).shape == (2, 0)


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_integral_differentials_and_chain_maps_are_read_only_int64(ring):
    C = cl.cochain_complex(cl.bundled_complex("rp2_6"), ring)
    assert_stored_int64(*C.diffs)
    cone, incl, proj = ch.cone(ch.ChainMap.identity(C))
    assert_stored_int64(*cone.diffs, *ch.shift(C, 1).diffs)
    for f in (ch.ChainMap.identity(C), incl, proj):
        assert_stored_int64(*components(f))
    assert_stored_int64(*ch.Complex.from_json(C.to_json()).diffs)


def test_rational_entries_stay_object():
    C = ch.Complex("Q", 0, [1, 1], [[[Fraction(1, 2)]]])
    assert C.diffs[0].dtype == object and not C.diffs[0].flags.writeable


def test_whole_fractions_over_q_are_stored_int64():
    C = ch.Complex("Q", 0, [2, 1], [[[Fraction(4, 2), -1]]])
    assert_stored_int64(*C.diffs)
    assert C.diffs[0].tolist() == [[2, -1]]


def test_solver_factors_past_the_bound_are_stored_as_python_ints(monkeypatch):
    # one bound for every stored matrix, solver factors too: the Smith
    # transform V of [[2^40 + 1, 2^40]] has entries near 2^40
    solver = la.IntSolver(la.as_matrix([[2 ** 40 + 1, 2 ** 40]]))
    assert_stored_int64(solver.snf.U)
    for M in (solver.A, solver.snf.V, solver.snf.Vinv):
        assert M.dtype == object and not M.flags.writeable
        assert max(abs(x) for x in M.flat) >= BOUND
    # the mixed solver on it keeps no factor of its own
    assert la.MixedSolver(la.RatSolver(solver)).rat.int is solver
    scanned = []
    entry_kind, amax = la._entry_kind, la._amax
    monkeypatch.setattr(la, "_entry_kind",
                        lambda a: scanned.append(a) or entry_kind(a))
    monkeypatch.setattr(la, "_amax", lambda a: scanned.append(a) or amax(a))
    for b in (7, -2 ** 45, 2 ** 70 + 3):
        x = solver.solve([b])
        assert (2 ** 40 + 1) * x[0] + 2 ** 40 * x[1] == b
    assert scanned and not any(a is M or a.base is M for a in scanned
                               for M in (solver.snf.U, solver.snf.V))


def test_kernel_basis_is_the_stored_view_and_is_not_scanned(monkeypatch):
    # the kernel basis is the read-only int64 columns V[:, r:] of the Smith
    # form, sharing V's memory, so a product with it takes V's recorded
    # bound and scans nothing
    K = cl.bundled_complex("csaszar_torus")
    solver = cl.cochain_complex(K).int_solver(1)
    ker = solver.kernel_basis()
    assert_stored_int64(ker)
    assert ker.shape == (solver.A.shape[1], solver.A.shape[1] - solver.rank)
    assert np.shares_memory(ker, solver.snf.V)
    assert (ker == solver.snf.V[:, solver.rank:]).all()
    coefs = la.int_storage(np.arange(2 * ker.shape[1]).reshape(-1, 2))
    amax, scanned = la._amax, []
    monkeypatch.setattr(la, "_amax", lambda a: scanned.append(a) or amax(a))
    product = la._int_mv(ker, coefs)
    assert scanned == []
    assert product.tolist() == (ker.astype(object) @ coefs.astype(object)
                                ).tolist()


@pytest.mark.parametrize("x, fits", [
    (2 ** 31 - 1, True), (-2 ** 31, True), (2 ** 31, False),
    (2 ** 31 + 1, False), (-2 ** 31 - 1, False), (2 ** 70, False)])
def test_the_int32_cast_of_python_ints_checks_the_range(x, fits):
    # products take the bound of a Python-int operand from this cast; a
    # numpy that wrapped out-of-range values here would give wrong products
    a = np.array([3, x, -4], dtype=object)
    if fits:
        assert a.astype(np.int32).tolist() == [3, x, -4]
    else:
        with pytest.raises(OverflowError):
            a.astype(np.int32)


EDGES = [-2 ** 31, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 40, 2 ** 62,
         2 ** 70]


def _forms(a):
    """a as Python ints, stored, and (where it fits) as writable int64."""
    out = [a, la.int_storage(a)]
    if all(abs(x) < 2 ** 63 for x in a.flat):
        out.append(a.astype(np.int64))
    return out


@pytest.mark.parametrize("x", EDGES)
def test_products_at_and_past_the_bound_match_python_integers(x):
    A = np.array([[x, 1, -1], [2, -x, 3]], dtype=object)
    B = np.array([[x, 0], [-1, x], [5, 1]], dtype=object)
    want = [[sum(a * b for a, b in zip(row, col)) for col in B.T.tolist()]
            for row in A.tolist()]
    for P in _forms(A):
        for Q in _forms(B):
            assert la.mm(P, Q).tolist() == want
            for j in range(2):
                col = [row[j] for row in want]
                assert la.int_mv(P, Q[:, j]).tolist() == col
                assert la.mv(P, Q[:, j]).tolist() == col


def test_python_int_factors_multiply_on_int64_not_int32():
    # both int32 casts succeed, but an int32 accumulator would wrap
    a = 2 ** 31 - 1
    A = np.array([[a, a]], dtype=object)
    B = np.array([[a], [a]], dtype=object)
    assert la.mm(A, B).tolist() == [[2 * a * a]]
    assert la.int_mv(A, B[:, 0]).tolist() == [2 * a * a]
    assert la.mm(A.astype(np.int64), B).tolist() == [[2 * a * a]]


def test_unsigned_factors_are_not_wrapped_to_int64():
    # a cast of uint64 to int64 would wrap 2^63 to -2^63
    big = la.mm(np.array([[2 ** 63]], dtype=np.uint64),
                np.array([[1]], dtype=object))
    assert big.tolist() == [[2 ** 63]]
    assert la.int_mv(np.array([[2 ** 64 - 1]], dtype=np.uint64),
                     np.array([-1], dtype=object)).tolist() == [-2 ** 64 + 1]
    # a small unsigned dtype fits int64 and multiplies as before
    small = la.mm(np.array([[200, 7]], dtype=np.uint8),
                  np.array([[3], [2]], dtype=object))
    assert small.dtype == object and small.tolist() == [[614]]


def test_read_only_views_of_stored_matrices_take_the_recorded_bound(
        monkeypatch):
    # the levels of a simplex resolution are leading-block views of the
    # coboundaries of the standard simplex, stored once by int_storage; a
    # view is stored with the bound recorded for that base, not scanned
    amax, views = la._amax, []
    monkeypatch.setattr(la, "_amax",
                        lambda a: views.append(a.base is not None) or amax(a))
    tot.simplex_resolution(1, 8)
    assert views and not any(views)
    # a read-only view of a writable array is scanned: its base may change
    w = np.array([[1, 2], [3, BOUND]], dtype=np.int64)
    v = w[:1]
    v.setflags(write=False)
    views.clear()
    assert_stored_int64(la.int_storage(v))
    assert views == [True]
    # a view of a stored matrix past the bound would leave int64: the
    # stored matrix is then an object array, so no bound is recorded
    stored = la.int_storage(w)
    assert stored.dtype == object and la._recorded_bound(stored) is None


def test_cech_levels_cofaces_and_total_complex_are_read_only_int64():
    K = cl.bundled_complex("circle3")
    A = tot.cech_double(K, cl.star_cover(K), "Z", N=4)
    for level in A.levels:
        assert_stored_int64(*level.diffs)
    for maps in A.maps:
        for f in maps:
            assert_stored_int64(*components(f))
    assert_stored_int64(*tot.total_complex(A, (0, 1)).diffs)
    res = tot.simplex_resolution(1, 4)
    assert_stored_int64(*tot.total_complex(res, (0, 1)).diffs)


def _point(entry):
    """One copy of Z in degree 0 and the chain map multiplying it by entry."""
    P = ch.atom("Z", 0)
    return P, ch.ChainMap(P, P, {0: [[entry]]})


@pytest.mark.parametrize("b", [BOUND - 1, BOUND, 2 ** 63 - 1, 2 ** 63, 2 ** 70])
def test_entries_at_and_past_the_bound_give_the_same_groups(b):
    # at the bound on int64, past it on Python integers: the groups are the
    # ones known by construction either way
    stored = np.int64 if b < BOUND else object
    C = ch.Complex("Z", 0, [1, 1], [[[b]]])
    assert C.diffs[0].dtype == stored
    assert [str(ch.homology(C, n)) for n in (0, 1)] == ["0", f"Z/{b}"]
    S = ch.shift(C, 1)
    assert S.diffs[0].dtype == stored and S.diffs[0][0, 0] == -b
    assert [str(ch.homology(S, n)) for n in (-1, 0)] == ["0", f"Z/{b}"]
    P, f = _point(-b)
    assert f.component(0).dtype == stored
    cone, _, _ = ch.cone(f)
    assert cone.diffs[0].dtype == stored and cone.diffs[0][0, 0] == b
    assert [str(ch.homology(cone, n)) for n in (-1, 0)] == ["0", f"Z/{b}"]
    # every coface is f, so the cosimplicial identities hold (f f = f f);
    # the map from level q to q + 1 of the total complex is f times the
    # alternating sum of q + 2 ones: 0, f, 0, f, ...
    N = 4
    A = tot.CosimplicialComplexTrunc(
        N, [P] * (N + 1), [[f] * (q + 2) for q in range(N)])
    T = tot.total_complex(A, (0, 2))
    with_b = [d for d in T.diffs if d.size and (abs(d) == b).any()]
    assert with_b and all(d.dtype == stored for d in with_b)
    assert [str(ch.homology(T, n)) for n in (0, 1, 2)] == ["Z", "0", f"Z/{b}"]


@pytest.mark.parametrize("b", [BOUND - 1, 2 ** 62])
def test_alternating_sums_of_face_maps_stay_exact(b):
    # with f f = 0, cofaces d_i = (-1)^i f satisfy the identities, and the
    # map from level q to q + 1 of the total complex is (q + 2) f: past 2^63
    # for b = 2^62, where a sum on int64 would wrap
    P = ch.Complex("Z", 0, [2], [])
    f, g = (ch.ChainMap(P, P, {0: [[0, s * b], [0, 0]]}) for s in (1, -1))
    N = 4
    A = tot.CosimplicialComplexTrunc(
        N, [P] * (N + 1), [[(f, g)[i % 2] for i in range(q + 2)]
                           for q in range(N)])
    T = tot.total_complex(A, (0, 2))
    assert [str(ch.homology(T, n)) for n in (0, 1, 2)] == \
        ["Z", f"Z/{2 * b}", f"Z/{3 * b}"]


def test_planted_bigint_torsion_reaches_the_big_integer_smith_form():
    t = 2 ** 64 + 1
    C = ch.Complex("Z", 0, [2, 2], [[[1, 0], [0, t]]])
    assert C.diffs[0].dtype == object
    assert str(ch.homology(C, 1)) == f"Z/{t}"
    snf = la.smith_normal_form(C.diffs[0])
    assert snf.D.dtype == object and snf.diag == [1, t]
    assert [M.dtype for M in (snf.U, snf.V, snf.Uinv, snf.Vinv)] == \
        [np.int64] * 4


def test_broken_int64_inputs_still_fail_their_checks():
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="d o d != 0"):
        ch.Complex("Z", 0, [1, 1, 1], [one, one])
    P = ch.atom("Z", 0)
    C = ch.Complex("Z", 0, [1, 1], [one])
    with pytest.raises(ValueError, match="does not commute with d"):
        ch.ChainMap(C, C, {0: one, 1: 2 * one})
    f, g = _point(2)[1], _point(3)[1]
    with pytest.raises(ValueError, match="cosimplicial identity fails"):
        tot.CosimplicialComplexTrunc(2, [P] * 3, [[f, g], [f, f, g]])
    with pytest.raises(ValueError, match="not a chain map"):
        K = cl.bundled_complex("circle3")
        cl.CellularMap(K, K, {c: ((c, 1),) for c in K.cells(1)})
