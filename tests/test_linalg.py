import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cellcoh import linalg as la


def rand_int_matrix(rng, rows, cols, bound=6):
    return np.array([[rng.randint(-bound, bound) for _ in range(cols)]
                     for _ in range(rows)], dtype=object)


def test_smith_form_decomposition_and_divisibility():
    rng = random.Random(0)
    for _ in range(40):
        A = rand_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        snf = la.smith_normal_form(A)
        assert ((la.mm(la.mm(snf.U, A), snf.V)) == snf.D).all()
        assert (la.mm(snf.U, snf.Uinv) == la.eye(A.shape[0])).all()
        d = snf.diag
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_smith_form_matches_sympy_elementary_divisors():
    # independent oracle for the canonical form
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(1)
    for _ in range(15):
        A = rand_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ours = [d for d in la.smith_normal_form(A).diag if d != 0]
        theirs = sympy_snf(Matrix(A.tolist()), domain=ZZ)
        tdiag = [abs(int(theirs[i, i])) for i in range(min(theirs.shape))
                 if theirs[i, i] != 0]
        assert ours == sorted(tdiag, key=abs) or ours == tdiag


def test_smith_form_big_integers_fall_back_exactly():
    big = 10 ** 30
    A = np.array([[big, 1], [0, big]], dtype=object)
    snf = la.smith_normal_form(A)
    assert ((la.mm(la.mm(snf.U, A), snf.V)) == snf.D).all()
    assert snf.diag[0] * snf.diag[1] == big * big  # |det| preserved


def test_solve_int_complete_against_enumeration():
    rng = random.Random(2)
    for _ in range(30):
        A = rand_int_matrix(rng, 2, 2, bound=3)
        b = np.array([rng.randint(-4, 4), rng.randint(-4, 4)], dtype=object)
        got = la.solve_int(A, b)
        brute = None
        for x in range(-30, 31):
            for y in range(-30, 31):
                if (A[0, 0] * x + A[0, 1] * y == b[0]
                        and A[1, 0] * x + A[1, 1] * y == b[1]):
                    brute = (x, y)
                    break
            if brute:
                break
        if brute is not None and got is None:
            # solver claims unsolvable; enumeration window found a solution
            raise AssertionError("missed an integer solution")
        if got is not None:
            assert (la.mv(A, got) == b).all()


def test_int_kernel_basis_spans_kernel():
    rng = random.Random(3)
    for _ in range(20):
        A = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = la.IntSolver(A).kernel_basis()
        if ker.shape[1]:
            assert la.is_zero(la.mm(A, ker))


def test_rat_solver_and_kernel():
    A = np.array([[Fraction(1, 2), 1], [1, 2]], dtype=object)
    s = la.RatSolver(A)
    assert s.rank == 1
    ker = s.kernel_basis()
    assert ker.shape[1] == 1
    assert la.is_zero(A @ ker)
    b = np.array([Fraction(3, 2), 3], dtype=object)
    x = s.solve(b)
    assert (A @ x == b).all()
    assert s.solve(np.array([1, 0], dtype=object)) is None


def test_mixed_solve_spec_examples():
    # u + 0 v = b: b itself when it is integral, else no solution
    solver = la.MixedSolver(np.zeros((1, 0), dtype=object))
    assert solver.solve([4])[0].tolist() == [4]
    assert solver.solve([Fraction(3, 2)]) is None
    # u + 2 v = 3/2: u = 0 and v = 3/4
    u, v = la.MixedSolver([[2]]).solve([Fraction(3, 2)])
    assert u.tolist() == [0] and v.tolist() == [Fraction(3, 4)]


def test_mixed_solve_dimension_mismatch_is_error():
    with pytest.raises(ValueError):
        la.MixedSolver([[1], [2]]).solve([1])


def test_mixed_solve_randomized_soundness_and_completeness():
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(0, 3)
        A = np.array([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(cols)] for _ in range(rows)],
                     dtype=object).reshape(rows, cols)
        # build a solvable instance from a known solution
        u0 = np.array([rng.randint(-3, 3) for _ in range(rows)], dtype=object)
        v0 = np.array([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(cols)], dtype=object)
        b = u0 + (A @ v0 if cols else 0)
        sol = la.MixedSolver(A).solve(b)
        assert sol is not None
        u, v = sol
        resid = u + (A @ v if cols else 0) - b
        assert all(Fraction(x) == 0 for x in np.atleast_1d(resid).flat)


def test_mixed_solve_unsolvable_instance():
    # u1 + 2 v = 1/2 and u2 + 2 v = 0 force u1 = u2 + 1/2: no integral u
    assert la.MixedSolver([[2], [2]]).solve([Fraction(1, 2), 0]) is None
    # u + 2 v = 1/2 alone is solvable
    assert la.MixedSolver([[2]]).solve([Fraction(1, 2)]) is not None


def test_fundamental_cocycle_not_a_coboundary_on_sphere():
    # image membership of the fundamental 2-cocycle under delta^1 is empty
    from cellcoh import cells as cl
    K = cl.bundled_complex("octahedron")
    d1 = K.boundary_matrix(2).T
    from cellcoh.lattice import fundamental_cycle
    z = fundamental_cycle(K)
    # the cochain dual to the fundamental cycle pairs to 2 != 0 with it
    target = np.array([1 if c == 1 else 0 for c in z], dtype=object)
    assert la.solve_int(d1, target) is None
    assert la.RatSolver(d1).solve(target) is None


def test_rat_rank_via_integerization():
    A = np.array([[Fraction(1, 3), Fraction(2, 3)], [2, 4]], dtype=object)
    assert la.rat_rank(A) == 1


# ---------------------------------------------------------------------------
# Properties of the Smith-form rational and mixed solvers
# ---------------------------------------------------------------------------

BIG = 2 ** 63
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
INTS = st.integers(-4, 4)
RATS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _matrix(draw, rows, cols, entries, big=False):
    """rows x cols object matrix; with big=True one entry lies beyond 2^63,
    so the Smith form takes its big-integer path."""
    A = np.array([[draw(entries) for _ in range(cols)] for _ in range(rows)],
                 dtype=object).reshape(rows, cols)
    if big and A.size:
        A[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = \
            BIG + draw(st.integers(0, 3))
    return A


def _apply(A, x):
    """A @ x by plain Python sums, independent of linalg.mv."""
    return [sum((A[i, j] * x[j] for j in range(A.shape[1])), Fraction(0))
            for i in range(A.shape[0])]


@st.composite
def integer_matrices(draw):
    return _matrix(draw, draw(st.integers(0, 5)), draw(st.integers(0, 5)),
                   INTS, big=draw(st.booleans()))


@PROPERTY
# starts on int64 and moves to big integers in the middle of the reduction
@example(np.array([[2 ** 40, 1], [1, 2 ** 40]], dtype=object))
@given(integer_matrices())
def test_smith_form_invariants(A):
    # products in plain object arithmetic, independent of linalg.mm
    snf = la.smith_normal_form(A)
    m, n = A.shape
    D = snf.U @ A @ snf.V
    assert (D == snf.D).all()
    assert all(D[i, j] == 0 for i in range(m) for j in range(n) if i != j)
    assert (snf.U @ snf.Uinv == np.eye(m, dtype=int)).all()
    assert (snf.V @ snf.Vinv == np.eye(n, dtype=int)).all()
    assert (snf.Vinv @ snf.V == np.eye(n, dtype=int)).all()
    d = snf.diag
    assert d == [D[i, i] for i in range(min(m, n))]
    assert all(x >= 0 for x in d)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    assert snf.rank == sum(1 for x in d if x)
    if A.size:
        from sympy import Matrix
        assert snf.rank == Matrix(A.tolist()).rank()


@st.composite
def rational_matrices(draw):
    return _matrix(draw, draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                   RATS, big=draw(st.booleans()))


@PROPERTY
@given(rational_matrices(), st.data())
def test_mixed_solver_solves_planted_systems(A, data):
    u0 = [data.draw(INTS) for _ in range(A.shape[0])]
    v0 = [data.draw(RATS) for _ in range(A.shape[1])]
    b = np.array([x + y for x, y in zip(u0, _apply(A, v0))],
                 dtype=object).reshape(A.shape[0])
    sol = la.MixedSolver(A).solve(b)
    assert sol is not None
    u, v = sol
    assert all(isinstance(x, int) for x in u)
    resid = [x + y - z for x, y, z in zip(u, _apply(A, v), b)]
    assert all(x == 0 for x in resid)


@PROPERTY
@given(rational_matrices())
def test_mixed_solver_rejects_non_integral_projection(A):
    solver = la.MixedSolver(A)
    # the rows of the Smith transform U below the rank span the left null
    # space of A; b solves exactly when P b is integral
    P = solver.rat.int.snf.U[solver.rat.rank:].astype(object)
    assume(P.shape[0] > 0)
    # rows of a unimodular matrix are primitive, so the first row of P has
    # an odd entry; half the matching unit vector makes P b non-integral,
    # and then no (u, v) can solve the system
    j = next(j for j in range(P.shape[1]) if P[0, j] % 2)
    b = np.array([Fraction(1, 2) if i == j else 0 for i in range(P.shape[1])],
                 dtype=object)
    assert Fraction(_apply(P, b)[0]).denominator != 1
    assert solver.solve(b) is None


@PROPERTY
@given(rational_matrices())
def test_rat_solver_rank_kernel_and_left_nullspace(A):
    s = la.RatSolver(A)
    m, n = A.shape
    assert s.rank == la.rat_rank(A)
    if A.size:
        from sympy import Matrix
        assert s.rank == Matrix(A.tolist()).rank()
    ker = s.kernel_basis()
    assert ker.shape == (n, n - s.rank)
    assert all(x == 0 for j in range(ker.shape[1])
               for x in _apply(A, ker[:, j]))
    if ker.shape[1]:
        assert la.rat_rank(ker) == ker.shape[1]
    # the rows of U below the rank, which MixedSolver's membership test reads
    left = s.int.snf.U[s.rank:].astype(object)
    assert left.shape == (m - s.rank, m)
    assert all(isinstance(x, int) for x in left.flat)
    assert all(x == 0 for i in range(left.shape[0])
               for x in _apply(A.T, left[i, :]))
    if left.shape[0]:
        assert la.rat_rank(left) == left.shape[0]


@PROPERTY
@given(rational_matrices(), st.data())
def test_rat_solver_solves_consistent_systems(A, data):
    x0 = [data.draw(RATS) for _ in range(A.shape[1])]
    b = np.array(_apply(A, x0), dtype=object).reshape(A.shape[0])
    x = la.RatSolver(A).solve(b)
    assert x is not None
    assert _apply(A, x) == list(b)


# ---------------------------------------------------------------------------
# Invariant factors by unit-pivot reduction, against the full Smith form
# ---------------------------------------------------------------------------

FACTOR_FAMILIES = {
    "sparse unit": st.sampled_from([0, 0, 0, 1, -1]),
    "dense small": st.integers(-6, 6),
    "even": st.integers(-3, 3).map(lambda x: 2 * x),
    "big": st.sampled_from([0, 1, -1, BIG, -BIG - 5, 3 * BIG]),
}


@st.composite
def factor_inputs(draw):
    """Integer matrices from one family, with some rows and columns set to
    zero; shapes include 0 x n and m x 0."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    family = draw(st.sampled_from(sorted(FACTOR_FAMILIES)))
    A = _matrix(draw, rows, cols, FACTOR_FAMILIES[family])
    if rows and draw(st.booleans()):
        A[draw(st.integers(0, rows - 1)), :] = 0
    if cols and draw(st.booleans()):
        A[:, draw(st.integers(0, cols - 1))] = 0
    return A


@PROPERTY
@example(2 * la.eye(3))
@example(np.array([[4, 6], [6, 4], [0, 2]], dtype=object))
@example(np.array([[1, BIG], [BIG, 1]], dtype=object))
@example(la.zeros(0, 3))
@example(la.zeros(3, 0))
@example(la.zeros(2, 2))
@given(factor_inputs())
def test_invariant_factors_match_the_smith_form(A):
    snf = la.smith_normal_form(A)
    got = la.invariant_factors(A)
    assert got == snf.diag[:snf.rank]
    assert all(type(x) is int for x in got)
    assert la.invariant_factors(A.T) == got


@PROPERTY
@given(rational_matrices())
def test_rat_rank_matches_sympy(A):
    from sympy import Matrix
    want = Matrix(A.tolist()).rank() if A.size else 0
    assert la.rat_rank(A) == want


def test_invariant_factors_factor_only_a_unit_free_core(monkeypatch):
    # the +-1 pivots go first: what is left for the smallest-entry pivots
    # holds no unit, and nothing at all for the boundaries of a sphere
    cores = []
    core = la._Elimination._core

    def spy(self):
        cores.append([v for row in self.rows.values() for v in row.values()])
        core(self)

    monkeypatch.setattr(la._Elimination, "_core", spy)
    rng = random.Random(5)
    D = la.zeros(5, 5)
    for i, d in enumerate([1, 1, 1, 2, 6]):
        D[i, i] = d
    A = la.mm(la.mm(la.random_unimodular(5, rng), D),
              la.random_unimodular(5, rng))
    assert la.invariant_factors(A) == [1, 1, 1, 2, 6]
    assert cores[0] and all(abs(v) != 1 for v in cores[0])
    from cellcoh import cells as cl
    K = cl.bundled_complex("octahedron")
    cores.clear()
    assert [len(la.invariant_factors(K.boundary_matrix(q)))
            for q in (1, 2)] == [5, 7]
    assert la.invariant_factors(la.eye(4)) == [1, 1, 1, 1]
    assert cores == [[], [], []]


# ---------------------------------------------------------------------------
# Properties of the exact products mm and mv
# ---------------------------------------------------------------------------

SAFE = 2 ** 61
ENTRY_FAMILIES = st.sampled_from([
    INTS,
    RATS,
    st.one_of(INTS, RATS),
    st.integers(-4, 4).map(np.int64),
    # entries that fit int64 whose products do not
    st.one_of(st.integers(2 ** 32, 2 ** 40), st.integers(-2 ** 40, -2 ** 32)),
    # entries at and beyond the int64 bound
    st.one_of(INTS, st.integers(SAFE, 2 ** 66), st.integers(-2 ** 66, -SAFE)),
    st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64)),
])


@st.composite
def exact_matrices(draw, rows, cols):
    return _matrix(draw, rows, cols, draw(ENTRY_FAMILIES))


def _exact(x):
    return Fraction(int(x) if isinstance(x, np.integer) else x)


def _product(A, B):
    """A @ B as plain Python Fraction sums of products."""
    return [[sum((_exact(A[i, t]) * _exact(B[t, j]) for t in range(A.shape[1])),
                 Fraction(0)) for j in range(B.shape[1])]
            for i in range(A.shape[0])]


def _exact_convention(x):
    return type(x) is (int if Fraction(x).denominator == 1 else Fraction)


@st.composite
def products(draw):
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    if draw(st.booleans()):     # both factors from one family
        entries = draw(ENTRY_FAMILIES)
        return (_matrix(draw, m, k, entries), _matrix(draw, k, n, entries))
    return draw(exact_matrices(m, k)), draw(exact_matrices(k, n))


@PROPERTY
@example((np.array([[2 ** 60, 2 ** 60]], dtype=object),
          np.array([[1], [1]], dtype=object)))          # a b k = 2^61
@example((np.array([[2 ** 40, 2 ** 40]], dtype=object),
          np.array([[2 ** 22], [2 ** 22]], dtype=object)))  # sum 2^63
@example((np.array([[-2 ** 63]], dtype=object), np.array([[2]], dtype=object)))
@example((np.array([[-2 ** 63, 3]], dtype=object),
          np.array([[0], [Fraction(1, 3)]], dtype=object)))
@example((np.array([[2 ** 70]], dtype=object), np.array([[0]], dtype=object)))
@given(products())
def test_mm_and_mv_match_a_fraction_reference(pair):
    A, B = pair
    want = _product(A, B)
    got = la.mm(A, B)
    assert got.dtype == object and got.shape == (A.shape[0], B.shape[1])
    assert got.tolist() == want
    assert all(_exact_convention(x) for x in got.flat)
    for j in range(B.shape[1]):
        col = [row[j] for row in want]
        for prod in (la.mv(A, B[:, j]), la.mm(A, B[:, j])):
            assert prod.shape == (A.shape[0],) and prod.tolist() == col
            assert all(_exact_convention(x) for x in prod)
    if all(type(x) is int and abs(x) < 2 ** 63 for x in A.flat):
        # an int64 factor skips the scan and gives the same product
        assert la.mm(A.astype(np.int64), B).tolist() == want


INT64_MAX = 2 ** 63 - 1
INT64_ENTRIES = st.sampled_from([
    INTS,
    st.integers(-2 ** 31, 2 ** 31),
    # the ends of the int64 range, and products past 2^61
    st.sampled_from([INT64_MAX, -INT64_MAX, -2 ** 63, 0, 1, -1]),
    st.one_of(INTS, st.integers(2 ** 29, 2 ** 32)),
])


@st.composite
def int64_products(draw):
    """(A, B) with int64 entries as object matrices; B may be a vector."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    entries = draw(INT64_ENTRIES)
    B = _matrix(draw, k, n, entries)
    return _matrix(draw, m, k, entries), (B[:, 0] if n and draw(st.booleans())
                                          else B)


def _int64_product_fits(A, B):
    """Whether the int64 x int64 product stays on int64: |a| |b| k < 2^61."""
    amax = max((abs(int(x)) for x in A.flat), default=0)
    bmax = max((abs(int(x)) for x in B.flat), default=0)
    return amax * bmax * A.shape[1] < 2 ** 61


@PROPERTY
@example((np.array([[2 ** 60, 2 ** 60]], dtype=object),
          np.array([[1], [1]], dtype=object)))           # a b k = 2^61
@example((np.array([[2 ** 60 - 1, 2 ** 60 - 1]], dtype=object),
          np.array([[1], [1]], dtype=object)))           # just below
@example((np.array([[2 ** 52, 2 ** 52]], dtype=object),
          np.array([[1], [-1]], dtype=object)))          # a b k = 2^53
@example((np.array([[INT64_MAX, -2 ** 63]], dtype=object),
          np.array([[-2 ** 63], [INT64_MAX]], dtype=object)))
@example((np.array([[-2 ** 63]], dtype=object), np.array([1], dtype=object)))
@example((np.zeros((2, 0), dtype=object), np.zeros((0, 3), dtype=object)))
@given(int64_products())
def test_int64_products_match_a_fraction_reference(pair):
    A, B = pair
    B2 = B if B.ndim == 2 else B.reshape(-1, 1)
    want = [[row[j] for j in range(B2.shape[1])] for row in _product(A, B2)]
    if B.ndim == 1:
        want = [row[0] for row in want]
    iA, iB = A.astype(np.int64), B.astype(np.int64)
    fits = _int64_product_fits(A, B2)
    # neither, one and both factors on int64; the object and the int64
    # form of one matrix give the same product
    for X, Y in [(A, B), (iA, B), (A, iB), (iA, iB)]:
        for got in (la.mm(X, Y), la.mv(X, Y) if Y.ndim == 1 else la.mm(X, Y)):
            both = X.dtype == Y.dtype == np.int64
            assert got.dtype == (np.int64 if both and fits else object)
            assert got.shape == (A.shape[0],) + B.shape[1:]
            assert got.tolist() == want
            if got.dtype == object:
                assert all(type(x) is int for x in got.flat)


@pytest.mark.parametrize("bits", [1, 20, 23, 24, 27, 28, 40])
def test_large_int64_products_match_python_integers(bits):
    # 48 x 65 by 65 x 40 is below the join (_JOIN_WORK): int64 @ while
    # |a| |b| k < 2^61 (bits <= 27), then Python integers.  Entry (0, 0) is
    # a sum of 65 odd products: for bits = 24 it is odd and above 2^53, and
    # for bits = 27 it is within a factor 2^4 of 2^63.
    rng = np.random.default_rng(bits)
    top = 2 ** bits
    A = rng.integers(-top, top, (48, 65), endpoint=True)
    B = rng.integers(-top, top, (65, 40), endpoint=True)
    A[1, 0] = B[0, 1] = top             # one entry at the full bound
    A[0], B[:, 0] = top - 1, top - 1
    want = (A.astype(object) @ B.astype(object)).tolist()
    fits = top * top * 65 < 2 ** 61
    for X, Y in [(A, B), (A.astype(object), B), (A, B.astype(object))]:
        got = la.mm(X, Y)
        both = X.dtype == Y.dtype == np.int64
        assert got.dtype == (np.int64 if both and fits else object)
        assert got.tolist() == want
        assert la.mv(X, Y[:, 0]).tolist() == [row[0] for row in want]


def test_int_mv_rejects_non_integers():
    # an object operand passes the int32 range check of _bounded by a cast,
    # which would truncate a Fraction or a float
    for v in ([Fraction(3, 2), 1], [Fraction(1, 2), Fraction(1, 2)],
              np.array([0.5, -0.5], dtype=object), np.array([2.0, 1.0]),
              np.array([[1, 2], [Fraction(1, 3), 0]], dtype=object)):
        with pytest.raises(TypeError, match="non-integer entry"):
            la.int_mv(la.eye(2), v)
    with pytest.raises(TypeError, match="non-integer entry"):
        la.int_mv(np.array([[Fraction(1, 2), 0], [0, 1]]), la.eye(2)[0])
    assert la.int_mv(la.eye(2), [3, 1]).tolist() == [3, 1]
    big = np.array([[2 ** 70, 1], [np.int64(2), True]], dtype=object)
    assert la.int_mv(la.eye(2), big).tolist() == [[2 ** 70, 1], [2, 1]]


def test_mm_and_mv_reject_inexact_entries():
    ok = np.array([[1, Fraction(1, 2)], [0, 3]], dtype=object)
    bad = np.array([[1, 0.5], [0, 3]], dtype=object)
    for A, B in [(bad, ok), (ok, bad), (ok, np.ones((2, 2))),
                 (np.ones((2, 2)), ok)]:
        with pytest.raises(TypeError, match="not an exact scalar"):
            la.mm(A, B)
    with pytest.raises(TypeError, match="not an exact scalar"):
        la.mv(ok, [1, 0.5])



# ---------------------------------------------------------------------------
# The solvers against a Fraction reference
# ---------------------------------------------------------------------------

# common denominators at and past 2^62 and 2^63: small numerators over a
# denominator that int64 cannot hold take the big-integer division
BIG_DENOMINATORS = [2 ** 62 + 1, 3 * 2 ** 62, 2 ** 63 + 3]


def _exact(v):
    return Fraction(int(v)) if isinstance(v, np.integer) else Fraction(v)


def _sympy(M):
    from sympy import Matrix
    return Matrix(M.shape[0], M.shape[1], [_exact(x) for x in M.flat])


def _factors(rows, cols):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    D = sympy_snf(Matrix(len(rows), cols, [x for r in rows for x in r]),
                  domain=ZZ)
    return sorted(abs(int(D[i, i])) for i in range(min(D.shape))
                  if D[i, i] != 0)


def _solvable_over_z(M, c) -> bool:
    """Whether M u = c has an integer solution u.  Each equation is scaled
    to integers first, which keeps the solutions.  The lattice spanned by
    the columns of M lies in that of [M | c], and the two are equal exactly
    when they have the same invariant factors (their product is the index
    in the common saturation), read off sympy's Smith form."""
    if M.shape[0] == 0:
        return True
    rows = []
    for i in range(M.shape[0]):
        row = [_exact(x) for x in M[i]] + [_exact(c[i])]
        s = lcm(*(x.denominator for x in row))
        rows.append([int(x * s) for x in row])
    return _factors([r[:-1] for r in rows], M.shape[1]) == \
        _factors(rows, M.shape[1] + 1)


def _solvable_over_q(A, b) -> bool:
    """rank A == rank [A | b] over Q (sympy)."""
    if A.shape[0] == 0:
        return True
    Ab = np.concatenate([A, np.array(list(b), dtype=object).reshape(-1, 1)],
                        axis=1)
    return _sympy(A).rank() == _sympy(Ab).rank()


def _solvable_mixed(A_int, A_rat, b) -> bool:
    """Whether A_int u + A_rat v = b has u integral and v rational: the
    rows of a basis Y of the left null space of A_rat over Q (sympy) remove
    v and leave the integer question (Y A_int) u = Y b."""
    m = A_rat.shape[0]
    Y = [[Fraction(int(x.p), int(x.q)) for x in y]
         for y in _sympy(A_rat).T.nullspace()] if A_rat.shape[1] else \
        [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    Y = np.array(Y, dtype=object).reshape(len(Y), m)
    YA = np.array([_apply(Y, A_int[:, j]) for j in range(A_int.shape[1])],
                  dtype=object).T.reshape(Y.shape[0], A_int.shape[1])
    return _solvable_over_z(YA, _apply(Y, [_exact(x) for x in b]))


@st.composite
def right_hand_sides(draw, A, unknowns):
    """b = A x0 for a drawn x0, plus, half of the time, a drawn perturbation
    that may leave the column span (or the lattice).  Some b are divided by
    a common denominator of at least 2^62, some have a numerator of at
    least 2^63, and integer ones may come as int64."""
    m = A.shape[0]
    b = _apply(A, [draw(unknowns) for _ in range(A.shape[1])])
    if draw(st.booleans()):
        b = [x + draw(RATS) for x in b]
    kind = draw(st.sampled_from(["plain", "big denominator",
                                 "big numerator"]))
    if kind == "big denominator":
        L = draw(st.sampled_from(BIG_DENOMINATORS))
        b = [x / L for x in b]
    elif kind == "big numerator" and m:
        b[draw(st.integers(0, m - 1))] += BIG * draw(st.integers(1, 3))
    b = [int(x) if x.denominator == 1 else x for x in b]
    if all(type(x) is int and abs(x) < BIG for x in b) and draw(st.booleans()):
        return np.array(b, dtype=np.int64).reshape(m)
    return np.array(b, dtype=object).reshape(m)


def _draw_matrix(draw, rows, cols, entries):
    """A drawn matrix, sometimes with an entry past 2^63, sometimes zero
    (rank 0)."""
    A = _matrix(draw, rows, cols, entries, big=draw(st.booleans()))
    return A * 0 if draw(st.integers(0, 3)) == 0 else A


def _assert_exact_solution(A, x, b):
    assert _apply(A, x) == [_exact(v) for v in b]


def _assert_output_convention(x):
    """A plain int wherever an entry is integral, else a Fraction."""
    for v in x:
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


SOLVER_PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                           database=None)


@SOLVER_PROPERTY
@given(st.data())
def test_int_solver_against_the_reference(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    A = _draw_matrix(data.draw, rows, cols, INTS)
    b, c = (data.draw(right_hand_sides(A, INTS)) for _ in range(2))
    solver = la.IntSolver(A)
    x = solver.solve(b)
    assert (x is None) == (not _solvable_over_z(A, b))
    if x is not None:
        assert all(type(v) is int for v in x)
        _assert_exact_solution(A, x, b)
    B = np.stack([np.array(list(v), dtype=object) for v in (b, c)], axis=1)
    if data.draw(st.booleans()) and all(type(v) is int and abs(v) < BIG
                                        for v in B.flat):
        B = B.astype(np.int64)
    X, ok = solver.solve_many(B)
    assert X.shape == (cols, 2) and all(type(v) is int for v in X.flat)
    for j, v in enumerate((b, c)):
        assert ok[j] == _solvable_over_z(A, v)
        if ok[j]:
            _assert_exact_solution(A, X[:, j], v)


@SOLVER_PROPERTY
@given(st.data())
def test_rat_solver_against_the_reference(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    A = _draw_matrix(data.draw, rows, cols, RATS)
    b = data.draw(right_hand_sides(A, RATS))
    solvers = [la.RatSolver(A)]
    if all(Fraction(v).denominator == 1 for v in A.flat):
        # an integer matrix: the RatSolver on its IntSolver shares that
        # factorization
        solvers.append(la.RatSolver(la.IntSolver(A)))
    for solver in solvers:
        x = solver.solve(b)
        assert (x is None) == (not _solvable_over_q(A, b))
        if x is not None:
            _assert_output_convention(x)
            _assert_exact_solution(A, x, b)


@SOLVER_PROPERTY
@given(st.data())
def test_mixed_solver_against_the_reference(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
    A = _draw_matrix(data.draw, rows, cols,
                     data.draw(st.sampled_from([INTS, RATS])))
    I = np.eye(rows, dtype=object)
    IA = np.concatenate([I, A], axis=1)
    b = data.draw(right_hand_sides(IA, st.one_of(INTS, RATS)))
    solvers = [la.MixedSolver(A)]
    if all(Fraction(v).denominator == 1 for v in A.flat):
        # an integer matrix: the solver on the RatSolver of its IntSolver
        # shares that factorization
        solvers.append(la.MixedSolver(la.RatSolver(la.IntSolver(A))))
    for solver in solvers:
        sol = solver.solve(b)
        assert (sol is None) == (not _solvable_mixed(I, A, b))
        if sol is not None:
            u, v = sol
            assert all(type(x) is int for x in u)
            _assert_output_convention(v)
            _assert_exact_solution(IA, list(u) + list(v), b)


def test_mixed_solver_with_a_corrupted_factor_fails_its_residual_check():
    # u + 2 v = 3/2: u = 0, v = 3/4
    solver = la.MixedSolver([[2]])
    u, v = solver.solve([Fraction(3, 2)])
    assert u.tolist() == [0] and v.tolist() == [Fraction(3, 4)]
    # a wrong transform V in the factorization gives v = 3/2, and the
    # residual u = 3/2 - 2 v = -3/2 that the solve returns is not integral
    solver.rat.int.snf.V = 2 * solver.rat.int.snf.V
    with pytest.raises(RuntimeError, match="non-integral residual"):
        solver.solve([Fraction(3, 2)])


def test_rat_and_mixed_solvers_take_a_column_batch():
    # 2 x = 2, 3 y = 3 and 2 x = 4, 3 y = 6
    A = np.array([[2, 0], [0, 3]], dtype=object)
    N = np.array([[2, 4], [3, 6]], dtype=object)
    X, L, ok = la.RatSolver(la.IntSolver(A)).solve_numerators(N, 1)
    assert ok.tolist() == [True, True]
    assert la.from_numerators(X, L).tolist() == [[1, 2], [1, 2]]
    U, V, L, ok = la.MixedSolver(A).solve_numerators(N, 1)
    assert ok.tolist() == [True, True]
    assert (U + la.mm(A, la.from_numerators(V, L)) == N).all()


def _entry(rng, rational):
    return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rational
            else rng.randint(-4, 4))


def test_batch_solves_match_single_column_solves():
    # A ends in a zero row, and the planted column has 1/2 there, so no
    # solver solves it; every other column gets from the batch solve the
    # answer of its own k = 1 solve, solutions included
    rng = random.Random(22)
    for trial in range(60):
        rational = trial % 2 == 1
        rows, cols, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(2, 5)
        A = np.array([[_entry(rng, rational) for _ in range(cols)]
                      for _ in range(rows)] + [[0] * cols],
                     dtype=object).reshape(rows + 1, cols)
        columns = []
        for _ in range(k):
            x = np.array([_entry(rng, rng.random() < 0.5)
                          for _ in range(cols)], dtype=object)
            b = la.mv(A, x)
            if rng.random() < 0.5:
                b = b + np.array([_entry(rng, True) for _ in range(rows + 1)],
                                 dtype=object)
            columns.append(b)
        bad = rng.randrange(k)
        columns[bad][-1] = Fraction(1, 2)
        B = np.stack(columns, axis=1)
        N, L = la.to_numerators(B)
        rat = la.RatSolver(A)
        if not rational:
            solver = la.IntSolver(A)
            X, ok = solver.solve_many(B)
            assert not ok[bad]
            for j, b in enumerate(columns):
                x = solver.solve(b)
                assert ok[j] == (x is not None)
                if ok[j]:
                    assert X[:, j].tolist() == x.tolist()
                    _assert_exact_solution(A, x, b)
            rat = la.RatSolver(solver)
        X, LX, ok = rat.solve_numerators(N, L)
        assert not ok[bad]
        for j, b in enumerate(columns):
            x = rat.solve(b)
            assert ok[j] == (x is not None)
            if ok[j]:
                assert la.from_numerators(X[:, j], LX).tolist() == x.tolist()
                _assert_exact_solution(A, x, b)
        mixed = la.MixedSolver(rat)
        U, V, LV, ok = mixed.solve_numerators(N, L)
        assert not ok[bad]
        for j, b in enumerate(columns):
            sol = mixed.solve(b)
            assert ok[j] == (sol is not None)
            if ok[j]:
                u, v = sol
                assert U[:, j].tolist() == u.tolist()
                assert la.from_numerators(V[:, j], LV).tolist() == v.tolist()
                assert all(type(e) is int for e in u)
                _assert_exact_solution(
                    np.concatenate([np.eye(rows + 1, dtype=object), A],
                                   axis=1), list(u) + list(v), b)


def test_solvable_is_the_verdict_of_the_solve_without_the_solution(
        monkeypatch):
    # IntSolver.solvable gives the ok of solve_many and RatSolver.solvable
    # that of solve_numerators, and neither multiplies by V: the solution
    # is never built
    rng = random.Random(34)
    product = la._int_product
    operands, verdicts = [], set()
    monkeypatch.setattr(la, "_int_product", lambda A, B: (
        operands.append(A) or product(A, B)))
    for trial in range(60):
        rational = trial % 2 == 1
        rows, cols, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 5)
        A = np.array([[_entry(rng, rational) for _ in range(cols)]
                      for _ in range(rows)] + [[0] * cols],
                     dtype=object).reshape(rows + 1, cols)
        columns = []
        for _ in range(k):
            x = np.array([_entry(rng, rng.random() < 0.5)
                          for _ in range(cols)], dtype=object)
            b = la.mv(A, x)
            if rng.random() < 0.5:
                b = b + np.array([_entry(rng, True) for _ in range(rows + 1)],
                                 dtype=object)
            columns.append(b)
        B = np.stack(columns, axis=1)
        rat = la.RatSolver(A)
        solvers = [(rat, rat.solve_numerators(*la.to_numerators(B))[-1])]
        if not rational:
            solver = la.IntSolver(A)
            solvers.append((solver, solver.solve_many(B)[1]))
        for solver, ok in solvers:
            operands.clear()
            assert solver.solvable(B).tolist() == ok.tolist()
            V = (solver.int if solver is rat else solver).snf.V
            assert not any(np.shares_memory(a, V) for a in operands)
            verdicts.update(ok.tolist())
    assert verdicts == {True, False}



# ---------------------------------------------------------------------------
# The sparse elimination against the dense Smith kernel it replaced
# ---------------------------------------------------------------------------

class _DenseSnf:
    """The dense Smith kernel that smith_normal_form ran before the sparse
    elimination, as the reference: U, D, V, U^-1 and V^-1 on int64 while a
    bound proves every update exact, else on Python ints; the pivot is the
    smallest |entry| of the trailing block, off-pivot entries are reduced
    modulo it, and a row is added to restore the divisibility chain."""

    def __init__(self, A):
        A = la.check_int_entries(la.as_matrix(A))
        m, n = A.shape
        D, bound = la._bounded(A)
        self.obj = bound is None or bound >= 2 ** 61
        self.maxdim = max(m, n, 1)
        dtype = object if self.obj else np.int64
        self.D = D.astype(dtype)
        self.U, self.Uinv = np.eye(m, dtype=dtype), np.eye(m, dtype=dtype)
        self.V, self.Vinv = np.eye(n, dtype=dtype), np.eye(n, dtype=dtype)
        for t in range(min(m, n)):
            self._step(t)
        self.U, self.D, self.V, self.Uinv, self.Vinv = (
            a.astype(object) for a in (self.U, self.D, self.V, self.Uinv,
                                       self.Vinv))
        self.diag = [int(self.D[i, i]) for i in range(min(m, n))]
        self.rank = sum(1 for d in self.diag if d)

    @staticmethod
    def _amax(a):
        if not isinstance(a, np.ndarray):
            return abs(int(a))
        return max((abs(int(x)) for x in a.flat), default=0)

    def _guard(self, qmax):
        if self.obj:
            return
        entries = max(map(self._amax, (self.D, self.U, self.Uinv, self.V,
                                       self.Vinv)))
        if (entries + 1) * (self._amax(qmax) + 1) * (self.maxdim + 1) \
                >= 2 ** 61:
            self.D, self.U, self.Uinv, self.V, self.Vinv = (
                a.astype(object) for a in (self.D, self.U, self.Uinv, self.V,
                                           self.Vinv))
            self.obj = True

    def _q(self, q):
        return q.astype(object) if self.obj else q

    def _step(self, t):
        while True:
            block = self.D[t:, t:]
            nz = [(abs(int(v)), i, j) for (i, j), v in np.ndenumerate(block)
                  if v != 0]
            if not nz:
                return
            _, i, j = min(nz)
            i, j = i + t, j + t
            self.D[[t, i], :] = self.D[[i, t], :]
            self.U[[t, i], :] = self.U[[i, t], :]
            self.Uinv[:, [t, i]] = self.Uinv[:, [i, t]]
            self.D[:, [t, j]] = self.D[:, [j, t]]
            self.V[:, [t, j]] = self.V[:, [j, t]]
            self.Vinv[[t, j], :] = self.Vinv[[j, t], :]
            if self.D[t, t] < 0:
                self.D[t, :] = -self.D[t, :]
                self.U[t, :] = -self.U[t, :]
                self.Uinv[:, t] = -self.Uinv[:, t]
            p = int(self.D[t, t])
            col = self.D[t + 1:, t]
            if col.size and (col != 0).any():
                q = col // p
                self._guard(q)
                q = self._q(q)
                self.D[t + 1:, :] -= np.outer(q, self.D[t, :])
                self.U[t + 1:, :] -= np.outer(q, self.U[t, :])
                self.Uinv[:, t] += self.Uinv[:, t + 1:] @ q
            row = self.D[t, t + 1:]
            if row.size and (row != 0).any():
                q = row // p
                self._guard(q)
                q = self._q(q)
                self.D[:, t + 1:] -= np.outer(self.D[:, t], q)
                self.V[:, t + 1:] -= np.outer(self.V[:, t], q)
                self.Vinv[t, :] += q @ self.Vinv[t + 1:, :]
            if (self.D[t + 1:, t] != 0).any() or \
                    (self.D[t, t + 1:] != 0).any():
                continue
            rest = self.D[t + 1:, t + 1:]
            bad = np.argwhere(rest % p != 0) if rest.size else []
            if not len(bad):
                return
            k = int(bad[0][0]) + t + 1
            self._guard(1)
            self.D[t, :] += self.D[k, :]
            self.U[t, :] += self.U[k, :]
            self.Uinv[:, k] -= self.Uinv[:, t]

    def solvable(self, b) -> bool:
        """Whether A x = b has an integer solution: U b is integral,
        vanishes below the rank and has row i divisible by d_i."""
        y = [sum((Fraction(int(u)) * _exact(x) for u, x in zip(row, b)),
                 Fraction(0)) for row in self.U]
        return all(v.denominator == 1 for v in y) and \
            all(v == 0 for v in y[self.rank:]) and \
            all(v % d == 0 for v, d in zip(y, self.diag[:self.rank]))


def _in_lattice(basis, v) -> bool:
    """Whether v is an integer combination of the columns of basis,
    verified by the product."""
    x = la.IntSolver(basis).solve(v)
    return x is not None and _apply(basis, x) == [_exact(c) for c in v]


def _assert_inverse_pair(M, Minv):
    n = M.shape[0]
    assert (M.astype(object) @ Minv.astype(object)
            == np.eye(n, dtype=object)).all()


# a unit pivot whose column clearing puts 2^70 into V, V^-1 and U^-1
PAST_INT64 = np.array([[2 ** 70, 1, 0], [1, 0, 3], [0, 2, 2 ** 66]],
                      dtype=object)


@st.composite
def smith_inputs(draw):
    """An integer matrix, from the Smith-form and the factor strategies,
    with two right-hand sides."""
    A = draw(st.one_of(integer_matrices(), factor_inputs()))
    return A, [draw(right_hand_sides(A, INTS)) for _ in range(2)]


@SOLVER_PROPERTY
# the reference starts on int64 and moves to big integers during the dense
# reduction
@example((np.array([[2 ** 30, 1], [1, 2 ** 30]], dtype=object),
          [[2 ** 30 + 1, 2 ** 30 + 1], [1, 0]]))
# past the storage bound: V and V^-1 hold 2^40 and are stored as object
@example((np.array([[2 ** 40, 1], [1, 2 ** 40]], dtype=object),
          [[2 ** 40 + 1, 2 ** 40 + 1], [1, 0]]))
@example((PAST_INT64, [_apply(PAST_INT64, [1, -1, 2]), [1, 0, 0]]))
@given(smith_inputs())
def test_sparse_elimination_against_the_dense_kernel(case):
    A, rhs = case
    ref, snf = _DenseSnf(A), la.smith_normal_form(A)
    assert snf.diag == ref.diag and snf.rank == ref.rank
    assert (snf.U.astype(object) @ A @ snf.V.astype(object) == snf.D).all()
    _assert_inverse_pair(snf.U, snf.Uinv)
    _assert_inverse_pair(snf.V, snf.Vinv)
    for M in (snf.U, snf.D, snf.V, snf.Uinv, snf.Vinv):
        assert not M.flags.writeable
        assert (M.dtype == object) == \
            any(abs(int(x)) >= la.INT_BOUND for x in M.flat)
    solver = la.IntSolver(A)
    for b in rhs:
        x = solver.solve(b)
        assert (x is None) == (not ref.solvable(b))
        if x is not None:
            _assert_exact_solution(A, x, b)
    # the kernel lattices are equal: each basis solves in the other
    ker, ker_ref = solver.kernel_basis(), ref.V[:, ref.rank:]
    assert ker.shape == ker_ref.shape
    assert all(_in_lattice(ker, ker_ref[:, j]) and
               _in_lattice(ker_ref, ker[:, j]) for j in range(ker.shape[1]))


def test_transforms_past_int64_are_stored_as_object_and_solve_exactly():
    snf = la.smith_normal_form(PAST_INT64)
    assert snf.V.dtype == object and snf.Vinv.dtype == object
    assert max(abs(x) for x in snf.V.flat) >= 2 ** 70
    solver = la.IntSolver(PAST_INT64)
    assert solver.snf.V.dtype == object
    for x0 in ([1, -1, 2], [0, 5, -3], [7, 0, 1]):
        b = _apply(PAST_INT64, x0)
        x = solver.solve(b)
        assert x is not None and _apply(PAST_INT64, x) == b
    assert solver.solve([1, 0, 0]) is None
    assert solver.kernel_basis().shape == (3, 0)


# Hashes the five matrices of the Smith form of every coboundary of the
# 7-vertex torus; run with a given PYTHONHASHSEED.
TRANSFORM_DIGEST = """
import hashlib
from cellcoh import cells, linalg
C = cells.cochain_complex(cells.bundled_complex("csaszar_torus"))
h = hashlib.sha256()
for n in C.degrees():
    snf = linalg.smith_normal_form(C.diff(n))
    for M in (snf.U, snf.D, snf.V, snf.Uinv, snf.Vinv):
        h.update(repr((M.shape, M.tolist())).encode())
print(h.hexdigest())
"""


def test_smith_transforms_do_not_depend_on_the_hash_seed():
    # the pivot order follows the iteration order of dicts and sets, which
    # for integer keys does not depend on the hash seed
    src = str(Path(la.__file__).resolve().parents[1])
    digests = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        digests.append(subprocess.run(
            [sys.executable, "-c", TRANSFORM_DIGEST], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert digests[0] == digests[1] != ""
