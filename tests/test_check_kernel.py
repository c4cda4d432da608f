"""The one kernel of the identity checks, linalg.vanishes, and the int64
product rule it shares with linalg.mm.

Every structural identity (d o d = 0 of a complex, dd = 0 of a cell
complex, chain maps, cellular maps, the Stokes identity of a product, the
(co)simplicial identities of tot) is decided by vanishes: dense products
on int64 below linalg._JOIN_WORK multiply-adds, a join of the nonzero
entries from there, Python ints and Fractions for other operands.  The
kernel must give what is_zero of the summed mm products gives, and each
check must refuse one planted wrong entry with its message on both sides
of the switch.  A product of int64 factors joins by the same rule and must
give the product of Python integers.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import linalg as la
from cellcoh import tot as tt


# ---------------------------------------------------------------------------
# The kernel against the expression it replaces
# ---------------------------------------------------------------------------

def _sparse(rng, shape, density, top):
    """int64 matrix with about density * size nonzero entries in
    [-top, top]."""
    m = rng.integers(-top, top, shape, endpoint=True)
    return np.where(rng.random(shape) < density, m, 0)


@st.composite
def kernel_cases(draw):
    """(A, B, C, D) with C D = A B through a permuted shared index, but for
    a planted wrong entry of D or C D = -A B in some cases."""
    kind = draw(st.sampled_from(["small", "large", "near 2^31", "beyond 2^64",
                                 "fraction"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "small":
        m, k, n = (int(x) for x in rng.integers(0, 7, 3))
        A, B = _sparse(rng, (m, k), 0.5, 3), _sparse(rng, (k, n), 0.5, 3)
    elif kind == "large":   # 80 * 48 * 80 multiply-adds and up
        m, k, n = (int(x) for x in rng.integers((80, 48, 80), (120, 64, 120)))
        density = draw(st.sampled_from([0.01, 0.05, 0.2, 1.0]))
        A = _sparse(rng, (m, k), density, 2)
        B = _sparse(rng, (k, n), density, 2)
    elif kind == "near 2^31":   # |a| |b| k around 2^61, 2^18 multiply-adds
        k = draw(st.sampled_from([1, 4]))
        m = 512 if k == 1 else 256     # m k m = 2^18
        top = 2 ** draw(st.sampled_from([28, 29, 30, 31])) - 1
        A = _sparse(rng, (m, k), 0.02, top)
        B = _sparse(rng, (k, m), 0.02, top)
        A[0, 0] = B[0, 0] = top
    else:
        m, k, n = (int(x) for x in rng.integers(1, 6, 3))
        A = _sparse(rng, (m, k), 0.6, 4).astype(object)
        B = _sparse(rng, (k, n), 0.6, 4).astype(object)
        if kind == "beyond 2^64":
            A[0, 0] = 2 ** 64 + 1
        else:
            A = A * Fraction(1, 3)
            B[-1, -1] = Fraction(5, 7)
    perm = rng.permutation(A.shape[1])
    C, D = A[:, perm].copy(), B[perm].copy()
    plant = draw(st.sampled_from(["none", "entry", "sign"]))
    if plant == "entry" and D.size:
        D[draw(st.integers(0, D.shape[0] - 1)),
          draw(st.integers(0, D.shape[1] - 1))] += draw(st.sampled_from(
              [1, -1, 2 ** 31 - 1, Fraction(1, 2)] if kind == "fraction"
              else [1, -1, 2 ** 31 - 1]))
    elif plant == "sign":
        C = -C
    return A, B, C, D


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@example((np.array([[2 ** 31 - 1] * 4], dtype=np.int64),
          np.full((4, 1), 2 ** 31 - 1, dtype=np.int64),
          np.array([[2 ** 31 - 1] * 4], dtype=np.int64),
          np.full((4, 1), 2 ** 31 - 1, dtype=np.int64)))
@example((np.zeros((3, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
          np.zeros((3, 1), dtype=np.int64), np.ones((1, 2), dtype=np.int64)))
@given(kernel_cases())
def test_kernel_is_is_zero_of_the_summed_products(case):
    A, B, C, D = case
    M = la.mm(C, D)
    want = la.is_zero(la.mm(A, B) - M)
    assert la.vanishes([(1, A, B), (-1, C, D)]) is want
    # a plain matrix term: M - A B, with M as mm gives it
    assert la.vanishes([(1, M), (-1, A, B)]) is want


@st.composite
def product_cases(draw):
    """int64 factors (A, B) of at least _JOIN_WORK multiply-adds: B a
    matrix, a vector or a batch of a few columns; each factor sparse or
    dense, with some empty rows, and in some cases entries up to the
    largest top with top^2 k < 2^61 (or one more), on a dense row of A and
    column of B."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["matrix", "vector", "batch"]))
    if kind == "matrix":
        m, k, n = (int(x) for x in rng.integers((80, 48, 80), (120, 64, 120)))
    elif kind == "vector":
        m, k, n = int(rng.integers(512, 700)), int(rng.integers(512, 700)), 1
    else:
        m, k, n = (int(x) for x in rng.integers((200, 150, 9), (300, 250, 12)))
    near = draw(st.sampled_from([None, 0, 1]))
    top = 3 if near is None else math.isqrt((2 ** 61 - 1) // k) + near
    A = _sparse(rng, (m, k), draw(st.sampled_from([0.002, 0.02, 0.2, 1.0])),
                top)
    B = _sparse(rng, (k, n), draw(st.sampled_from([0.002, 0.02, 0.2, 1.0])),
                top)
    A[rng.random(m) < 0.2] = 0
    B[rng.random(k) < 0.2] = 0
    if near is not None:
        A[0], B[:, 0] = top, top
    return A, B[:, 0] if kind == "vector" else B


@pytest.fixture
def join_products(monkeypatch):
    """Whether each join of a product ran (False: too dense, and @ ran)."""
    calls = []
    join = la._join

    def recorded(*args):
        got = join(*args)
        calls.append(got is not None)
        return got

    monkeypatch.setattr(la, "_join", recorded)
    return calls


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(product_cases())
def test_join_product_is_the_product_of_python_integers(case):
    A, B = case
    assert A.shape[0] * B.size >= la._JOIN_WORK
    want = (A.astype(object) @ B.astype(object)).tolist()
    fits = int(abs(A).max()) * int(abs(B).max()) * A.shape[1] < 2 ** 61
    assert la.mm(A, B).dtype == (np.int64 if fits else object)
    for got in (la.mm(A, B), la.int_mv(A, B)):
        assert got.shape == (A.shape[0],) + B.shape[1:]
        assert got.tolist() == want


def test_join_product_paths(join_products):
    rng = np.random.default_rng(1)
    A, B = _sparse(rng, (100, 64), 0.02, 5), _sparse(rng, (64, 100), 0.02, 5)
    A[::3] = 0                  # empty rows of both factors
    B[::4] = 0
    want = (A.astype(object) @ B.astype(object)).tolist()
    assert la.mm(A, B).tolist() == want and join_products == [True]
    # one key per multiply-add: @ instead
    A, B = _sparse(rng, (100, 64), 1.0, 5), _sparse(rng, (64, 100), 1.0, 5)
    assert la.mm(A, B).tolist() == (A.astype(object) @ B.astype(object)
                                    ).tolist()
    assert join_products == [True, False]
    # below the switch, @ without a join
    assert la.mm(A[:40], B).dtype == np.int64 and len(join_products) == 2


@pytest.fixture
def joins(monkeypatch):
    """The answers of every join of the kernel (None: the factors were too
    dense, and the dense products ran)."""
    calls = []
    join = la._join_vanishes

    def recorded(*args):
        calls.append(join(*args))
        return calls[-1]

    monkeypatch.setattr(la, "_join_vanishes", recorded)
    return calls


def test_kernel_paths(joins):
    rng = np.random.default_rng(0)
    # below the switch: dense, no join
    A, B = _sparse(rng, (60, 60), 0.05, 1), _sparse(rng, (60, 60), 0.05, 1)
    assert 60 ** 3 < la._JOIN_WORK
    assert la.vanishes([(1, A, B), (-1, A @ B)]) and joins == []
    # above it: sparse factors join, dense ones fall back to the products
    A, B = _sparse(rng, (70, 70), 0.05, 1), _sparse(rng, (70, 70), 0.05, 1)
    assert 70 ** 3 >= la._JOIN_WORK
    P = A @ B
    assert la.vanishes([(1, A, B), (-1, P)]) and joins == [True]
    P[3, 4] += 1
    assert not la.vanishes([(1, A, B), (-1, P)]) and joins == [True, False]
    A, B = _sparse(rng, (70, 70), 1.0, 1), _sparse(rng, (70, 70), 1.0, 1)
    assert la.vanishes([(1, A, B), (-1, A @ B)]) and joins[2:] == [None]
    # past 2^61 the terms leave int64 altogether
    A[0, 0] = B[0, 0] = 2 ** 31 - 1
    assert la.vanishes([(1, A, B), (-1, la.mm(A, B))]) and len(joins) == 3
    with pytest.raises(ValueError, match="matmul mismatch"):
        la.vanishes([(1, A, B.T[:3])])


# ---------------------------------------------------------------------------
# Each check refuses one planted entry, below the switch and above it
# ---------------------------------------------------------------------------

def _planted(m, i, j, delta=1):
    bad = np.array(m, dtype=np.int64)
    bad[i, j] += delta
    return bad


def _work(terms):
    return sum(A.shape[0] * B.size for A, B in terms)


@pytest.fixture(scope="module")
def simplex10():
    """The 10-simplex (2047 cells) and its cochain complex."""
    K = cl.simplicial_from_facets([tuple(range(11))])
    return K, cl.cochain_complex(K)


@pytest.fixture(scope="module")
def ladder():
    """S1 x S1 x T and its circle product S1 x S1 x S1 x T on the
    7-vertex torus T."""
    T2 = cl.circle_product(cl.circle_product(
        cl.bundled_complex("csaszar_torus")).complex).complex
    return T2, cl.circle_product(T2)


def test_the_rung_four_product_is_built_and_checked(ladder):
    # 9,072 cells, each check joined: under 1 s, where dense float64
    # products took 20-22 s on a shared 2-core machine
    T2, S = ladder
    P = S.complex
    assert [P.n_cells(d) for d in range(P.dim + 1)] == \
        [189, 1134, 2646, 3024, 1701, 378]
    assert sum(P.n_cells(d) for d in range(P.dim + 1)) == 9072
    assert P.euler_characteristic() == 0


@pytest.mark.parametrize("large", [False, True])
def test_complex_refuses_a_planted_entry(simplex10, large, joins):
    C = simplex10[1] if large else cl.cochain_complex(
        cl.bundled_complex("octahedron"))
    n = 4 if large else 1
    d, e = C.diff(n), C.diff(n + 1)
    assert (_work([(e, d)]) >= la._JOIN_WORK) is large
    ch.Complex("Z", C.lo, C.ranks, C.diffs)
    diffs = list(C.diffs)
    diffs[n] = _planted(d, 2, 3)
    with pytest.raises(ValueError, match=f"d o d != 0 at degree {n - 1}"):
        ch.Complex("Z", C.lo, C.ranks, diffs)
    assert (False in joins) is large


@pytest.mark.parametrize("large", [False, True])
def test_chain_map_refuses_a_planted_entry(simplex10, large, joins):
    C = simplex10[1] if large else cl.cochain_complex(
        cl.bundled_complex("octahedron"))
    n = 4 if large else 1
    mats = {k: la.eye(C.rank(k)) for k in C.degrees()}
    assert (_work([(mats[n + 1], C.diff(n))]) >= la._JOIN_WORK) is large
    ch.ChainMap(C, C, mats)
    mats[n] = _planted(mats[n], 0, 1)
    with pytest.raises(ValueError, match="does not commute with d in degree"):
        ch.ChainMap(C, C, mats)
    assert (False in joins) is large


@pytest.mark.parametrize("large", [False, True])
def test_cell_complex_refuses_a_planted_incidence(simplex10, large, joins):
    K = simplex10[0] if large else cl.bundled_complex("octahedron")
    d = 5 if large else 2
    assert (_work([(K.boundary_matrix(d - 1), K.boundary_matrix(d))])
            >= la._JOIN_WORK) is large
    cells = [(c, K.dim_of[c], K.boundary[c]) for c in K.dim_of]
    k = next(i for i, (c, dim, _) in enumerate(cells) if dim == d)
    c, _, bnd = cells[k]
    (b, inc), rest = bnd[0], bnd[1:]
    cells[k] = (c, d, ((b, -inc),) + rest)
    with pytest.raises(ValueError, match=f"dd != 0 in dimension {d}"):
        cl.CellComplex(cells)
    assert (False in joins) is large


@pytest.mark.parametrize("large", [False, True])
def test_cellular_map_refuses_a_planted_coefficient(ladder, large, joins):
    S = ladder[1] if large else cl.prism(cl.bundled_complex("octahedron"))
    f = S.sections["base" if large else "end0"]
    K, P = f.source, f.target
    assert (_work([(P.boundary_matrix(2), f.chain_matrix(2))])
            >= la._JOIN_WORK) is large
    cl.CellularMap(K, P, f.images)
    s = K.cells(2)[0]
    (t, inc), = f.images[s]
    with pytest.raises(ValueError, match="not a chain map in dimension 2"):
        cl.CellularMap(K, P, {**f.images, s: ((t, 2 * inc),)})
    assert (False in joins) is large


@pytest.mark.parametrize("large", [False, True])
def test_product_refuses_a_planted_fiber_entry(ladder, large, joins):
    S = ladder[1] if large else cl.prism(cl.bundled_complex("octahedron"))
    d = 2
    assert (_work([(S.fiber_matrix(d), S.complex.boundary_matrix(d).T)])
            >= la._JOIN_WORK) is large
    dataclasses.replace(S)
    key = ("fiber", S.fiber_cycle, d)
    good = S.complex._kept[key]
    S.complex._kept[key] = la.int_storage(_planted(good, 0, 0))
    try:
        with pytest.raises(ValueError,
                           match=f"Stokes identity fails in degree {d - 1}"):
            dataclasses.replace(S)
    finally:
        S.complex._kept[key] = good
    assert (False in joins) is large


def _degree_slice(A, p):
    """The levels of a truncated object A in inner degree p alone, as
    complexes with no differential, and the components of its maps there:
    a (co)simplicial object of the same kind, whose identities are those
    of A in degree p."""
    levels = [ch.Complex(L.ring, p, [L.rank(p)], []) for L in A.levels]
    step = A.step
    maps = [[ch.ChainMap(*(levels[q:q + 2][::step]), {p: f.component(p)})
             for f in fs] for q, fs in enumerate(A.maps)]
    return type(A)(A.N, levels, maps)


@pytest.mark.parametrize("large", [False, True])
@pytest.mark.parametrize("kind", ["cosimplicial", "simplicial"])
def test_tot_identities_refuse_a_planted_entry(kind, large, joins):
    if kind == "cosimplicial":
        K = cl.bundled_complex("csaszar_torus" if large else "circle3")
        A = _degree_slice(tt.cech_double(K, cl.star_cover(K), "Z",
                                         N=3 if large else 2), 0)
    else:
        A = _degree_slice(tt.simplex_resolution(1, 8 if large else 4),
                          3 if large else 2)
    # the last list of maps meets only the identities of level N - 2
    q = A.N - 1
    first, second = A.maps[q - 1:q + 1][::A.step]
    assert (_work([(second[0].component(A.levels[0].lo),
                    first[0].component(A.levels[0].lo))])
            >= la._JOIN_WORK) is large
    f = A.maps[q][1]
    bad = ch.ChainMap(f.source, f.target, {
        n: _planted(f.component(n), 0, 0) for n in f.source.degrees()})
    maps = [list(fs) for fs in A.maps]
    maps[q][1] = bad
    with pytest.raises(ValueError, match=f"{kind} identity fails at level "
                                         f"{q - 1}"):
        type(A)(A.N, A.levels, maps)
    assert (False in joins) is large
