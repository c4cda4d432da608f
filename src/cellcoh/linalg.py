"""Exact linear algebra over Z and Q.

Every result here is exact.  An integer matrix is stored once, where it
enters the system (int_storage): read-only on int64 when every entry lies
below INT_BOUND in absolute value, with its max |entry| recorded so that no
product rescans it, else as an object array of Python ints.  Rational
matrices are object arrays of Python ints and fractions.Fraction entries; a
rational vector inside the package is its integer numerators over one
denominator (to_numerators), and from_numerators builds it where it leaves.
The entry checks pass an int64 matrix through, and a product of two int64
matrices stays on int64 while a bound proves it exact.  Other products
split each factor into integer numerators and denominators: every row of
the left factor and every column of the right one is scaled to integers by
the lcm of its denominators.  The numerators are multiplied on int64 under
the same bound, else as Python integers; an array of Python ints gets its
bound from a cast to int32, not from a scan.  Each entry of the result is
divided once, coming back as a plain int where it is integral and as a
Fraction elsewhere.  The identity checks of the package (d o d = 0, chain
maps, Stokes) go through one kernel, vanishes, which decides whether a
signed sum of products and matrices is zero.  Products and checks on int64
share one size rule: numpy's @ when they are small, and a join of the
nonzero entries on the shared index when they are large and sparse.  No
floating point is used.

One elimination on sparse rows of Python ints gives the Smith normal form
U A V = D: the +-1 pivots, nearly all of a cellular or total differential,
go first, then the smallest entry of what is left.  smith_normal_form
applies each step to U, U^-1, V and V^-1 and stores them like any integer
matrix; invariant_factors (behind rat_rank) builds none, nor does
chains.Complex.factors, which sweeps a complex up its degrees and
eliminates each differential less the columns at the rows of the +-1
pivots of the one below.

Every exact solve goes through a solver object that factors its matrix once
and is reused across right-hand sides; the ring is chosen by the class.
IntSolver runs one Smith normal form and gives rank, integer kernel,
integer solutions and coordinates in the kernel.  RatSolver holds the
IntSolver of its matrix with the columns scaled to integers and gives rank,
kernel and solutions over Q.  MixedSolver, the Q/Z membership solver behind
QZCohomology and the flat half of class equality, solves u + A v = b with
u integral and v rational; it has no factorization of its own and reads
the answer off the RatSolver of A.  A RatSolver can be built on the
IntSolver of an integer matrix and a MixedSolver on a RatSolver, sharing
their factorization: a complex keeps the IntSolver of each integral
differential (chains.Complex.int_solver), shared with the same complex
over the other ring, and a cell complex keeps its cochain complexes
(cells.cochain_complex), so the homology over both rings and the solvers
of diffcoh share one factorization of each coboundary.  The solvers store
their fixed integer factors once, by int_storage.  A solve
takes its right-hand sides as the columns of one matrix of integer
numerators over one denominator, multiplies only integers against the
fixed factors, checks integrality as divisibility and returns numerators
with one verdict per column (solve_many, kernel_coordinates,
solve_numerators); solve, on one vector, is the batch of its one column,
and builds Fractions only for a non-integral entry of the returned
solution.  IntSolver.kernel_basis is the stored V[:, r:] itself, a read-only
view that a product reads with V's recorded bound.  solve_int and
solve_int_many factor for one call.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

_INT64_SAFE = 2 ** 61
# multiply-adds from which int64 products and checks join the nonzero
# entries instead of running @ (on the checks of bundled complexes, @ takes
# 5-10 us to the join's 45-50 at 6.7k multiply-adds, 43-81 to 62-65 at 78k
# and 720-1400 to 120-140 at 1.3M)
_JOIN_WORK = 2 ** 18
# ... unless the join makes more than work / _JOIN_DENSITY keys (measured
# on +-1 checks of 160 x 160 factors: even at about work / 220)
_JOIN_DENSITY = 256
INT_BOUND = 2 ** 31


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=object)


def int_zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def block_zeros(rows: int, cols: int, blocks) -> np.ndarray:
    """Zero matrix to assemble the given blocks into: int64 when every
    block is int64, else object."""
    return np.zeros((rows, cols), dtype=np.result_type(np.int64, *blocks))


def int_storage(a: np.ndarray) -> np.ndarray:
    """The stored form of a matrix of integers, made once where it enters
    the system: read-only int64 when every |entry| < INT_BOUND = 2^31, else
    a read-only object array of Python ints.  A writable int64 input is
    copied, so that no caller can change it afterwards.

    The bound makes every elementwise operation the package applies to
    stored matrices exact on int64, whose range is [-2^63, 2^63):

    * negation (shift, the cone differential, the sign (-1)^q of a level
      in a total complex) keeps |x| < 2^31; the one value whose negation
      wraps, -2^63, is never stored on int64;
    * the alternating sum of the q + 2 maps between levels q and q + 1 of a
      total complex is below (q + 2) 2^31 <= 2^63 for q + 2 <= 2^32.  A
      truncated object of level N holds lists of 2, 3, ..., N + 1 maps, so
      N >= 2^32 would need N (N + 3) / 2 > 2^63 list slots of 8 bytes,
      more than a 64-bit address space holds;
    * the identity and commutation checks (vanishes) sum their products
      and terms on int64 only while the sum of their bounds is below 2^61.

    A sum that leaves the bound (a total differential with larger entries)
    is stored again through this function and becomes an object array.
    """
    if a.dtype != np.int64:
        try:
            a = a.astype(np.int64)
        except OverflowError:
            a = a.astype(object)
            a.setflags(write=False)
            return a
    elif a.flags.writeable:
        a = a.copy()
    amax = _recorded_bound(a)
    if amax is None:
        amax = _amax(a)
    if amax >= INT_BOUND:
        a = a.astype(object)
    a.setflags(write=False)
    if a.dtype == np.int64 and a.base is None:   # a view may change
        key = id(a)
        _BOUNDS[key] = (weakref.ref(a, lambda _, k=key: _BOUNDS.pop(k, None)),
                        amax)
    return a


# (weak reference, max |entry|) by id of each int64 matrix stored above;
# facts about read-only matrices, so every caller may share them
_BOUNDS: dict[int, tuple] = {}


def _recorded_bound(a: np.ndarray):
    """The max |entry| int_storage recorded for a read-only int64 matrix,
    or for the base of a read-only view of one (a bound on the view's), or
    None: a writable array, or a view of one, may change."""
    if a.flags.writeable:
        return None
    for owner in (a, a.base):
        ref, bound = _BOUNDS.get(id(owner), (None, None))
        if ref is not None and ref() is owner and not owner.flags.writeable:
            return bound
    return None


def int_triples(shape, triples) -> np.ndarray:
    """The stored form (int_storage) of the integer matrix of the given
    shape whose entry (i, j) is the sum of the values v of a list of
    triples (i, j, v).  The sums run on int64 when len(triples) max |v| <
    2^63 bounds every partial sum (np.add.at wraps without warning), else
    on Python ints."""
    m = np.zeros(shape, dtype=np.int64)
    if triples:
        try:    # OverflowError for a value outside int64
            t = np.fromiter(chain.from_iterable(triples), dtype=np.int64,
                            count=3 * len(triples)).reshape(-1, 3)
        except OverflowError:
            t = None
        if t is not None and _amax(t[:, 2]) * len(t) < 2 ** 63:
            np.add.at(m, (t[:, 0], t[:, 1]), t[:, 2])
        else:
            m = m.astype(object)
            for i, j, v in triples:
                m[i, j] += int(v)
    m.setflags(write=False)     # owned here: int_storage need not copy
    return int_storage(m)


def as_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce nested lists / arrays to an object-dtype matrix; an int64
    array is kept as it is."""
    if isinstance(entries, np.ndarray) and entries.dtype == np.int64:
        m = entries
    else:
        m = np.array(entries, dtype=object)
    if m.ndim == 1 and rows is not None and cols is not None:
        m = m.reshape(rows, cols)
    if m.ndim != 2:
        if m.size == 0:
            m = m.reshape(rows if rows is not None else 0,
                          cols if cols is not None else 0)
        else:
            raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def as_vector(entries, length: int | None = None) -> np.ndarray:
    v = np.array(entries, dtype=object)
    if v.ndim == 2 and 1 in v.shape:
        v = v.reshape(-1)
    if v.ndim != 1:
        if v.size == 0:
            v = v.reshape(length if length is not None else 0)
        else:
            raise ValueError("expected a vector")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"expected vector of length {length}, got {v.shape[0]}")
    return v


def is_zero(a: np.ndarray) -> bool:
    return a.size == 0 or bool((a == 0).all())


def zero_columns(a: np.ndarray):
    """Whether each column of the matrix a vanishes, a bool array (True for
    every column of a matrix without rows); for a vector, one bool."""
    return (a == 0).all(axis=0) if a.ndim == 2 else is_zero(a)


def as_columns(b, length: int | None = None):
    """(B, batch): the right-hand sides b as the columns of a (length, k)
    matrix B, and whether b was given as such a batch (a 2-D array).  Any
    other b is one vector, the batch of its one column."""
    if isinstance(b, np.ndarray) and b.ndim == 2:
        if length is not None and b.shape[0] != length:
            raise ValueError(f"expected columns of length {length}, "
                             f"got {b.shape[0]}")
        return b, True
    return as_vector(b, length).reshape(-1, 1), False


def _entry_kind(a: np.ndarray):
    """int when every entry of a is a plain int, Fraction when every entry
    is an int or a Fraction, None otherwise (numpy scalars, floats, ...)."""
    types = set(map(type, a.ravel().tolist()))
    if types <= {int}:
        return int
    if types <= {int, Fraction}:
        return Fraction
    return None


def _checked(a: np.ndarray, integral: bool):
    """(a validated, whether every entry is an integer).  Integers become
    plain ints and whole Fractions are normalized to ints, so that integer
    fast paths still apply to rational matrices that happen to be integral;
    other Fractions are kept unless integral is set, and int64 passes
    through unscanned.  Any other entry raises TypeError."""
    if a.dtype == np.int64:
        return a, True
    if _entry_kind(a) is int:
        return a.astype(object), True
    out = np.empty(a.shape, dtype=object)
    whole = True
    for idx, x in np.ndenumerate(a):
        if isinstance(x, (int, np.integer)) or (
                isinstance(x, Fraction) and x.denominator == 1):
            out[idx] = int(x)
        elif integral:
            raise TypeError(f"non-integer entry {x!r}")
        elif isinstance(x, Fraction):
            out[idx], whole = x, False
        else:
            raise TypeError(
                f"not an exact scalar: {x!r} of type {type(x).__name__}")
    return out, whole


def check_int_entries(a: np.ndarray) -> np.ndarray:
    """a with every entry a plain int (int64 passes through unscanned);
    TypeError for a non-integer entry."""
    return _checked(a, integral=True)[0]


def exact_storage(a: np.ndarray, integral: bool) -> np.ndarray:
    """The validated stored form of an exact matrix: int_storage when every
    entry is an integer, else (rationals allowed unless integral) a
    read-only object array of ints and Fractions."""
    a, whole = _checked(a, integral)
    if whole:
        return int_storage(a)
    a.setflags(write=False)
    return a


def _numerators(a: np.ndarray, axis: int):
    """(N, lcms): the integer matrix N = a scaled by the lcm of the
    denominators of each column (axis=0) or each row (axis=1), and those
    lcms, or None when every entry is already an integer.  int64 arrays
    pass through unscanned; a non-exact entry raises TypeError."""
    if a.dtype == np.int64:
        return a, None
    kind = _entry_kind(a)
    if kind is None:
        a, whole = _checked(a, integral=False)
        kind = int if whole else Fraction
    if kind is int:
        return a, None
    lines = (a.T if axis == 0 else a).tolist()
    lcms = [lcm(*(x.denominator for x in line)) for line in lines]
    nums = np.array([[x.numerator * (s // x.denominator) for x in line]
                     for line, s in zip(lines, lcms)], dtype=object)
    return (nums.T if axis == 0 else nums), lcms


def _amax(a: np.ndarray) -> int:
    """max |entry| of an int64 array.  abs wraps -2^63 to itself, whose
    uint64 view is 2^63, so one reduction gives every magnitude."""
    return int(np.abs(a).view(np.uint64).max()) if a.size else 0


def _bounded(a: np.ndarray):
    """(a on int64, a bound on its max |entry|) for an integer matrix, or
    (a, None) for an object one with an entry outside [-2^31, 2^31).

    * An int64 matrix that int_storage stored, or a read-only view of one,
      has the bound recorded there; any other int64 array is scanned.
    * An object array of Python ints is cast to int32, which raises
      OverflowError for an entry outside [-2^31, 2^31), so a cast that
      succeeds proves the bound INT_BOUND without a scan.  The int32 cast
      is a range check only: products run on int64, because int32 @ would
      accumulate on int32.
    * Any other integer dtype is cast to int64 and scanned when int64
      holds all its values, else (uint64, whose cast to int64 would wrap
      2^63 and above) made Python ints and taken as an object array.
    """
    if a.dtype == object:
        try:
            return a.astype(np.int32).astype(np.int64), INT_BOUND
        except OverflowError:
            return a, None
    if a.dtype != np.int64:
        if not np.can_cast(a.dtype, np.int64):
            return _bounded(a.astype(object))
        a = a.astype(np.int64)
    bound = _recorded_bound(a)
    return a, _amax(a) if bound is None else bound


def _to_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


def _int_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for integer matrices (B may be a vector or a column batch), on
    int64 when the bounds a and b of the factors (_bounded) give |a| |b| k
    < 2^61, which bounds every partial sum and so every sum per entry of a
    join, else on Python integers (object).  On int64: A @ B below
    _JOIN_WORK multiply-adds, else the products of _join summed per entry,
    unless there are more than work / _JOIN_DENSITY of them."""
    A, a = _bounded(A)
    B, b = _bounded(B)
    if a is None or b is None or a * b * A.shape[1] >= _INT64_SAFE:
        return _to_object(A) @ _to_object(B)
    work = A.shape[0] * B.size
    if work >= _JOIN_WORK:
        cols = B.reshape(B.shape[0], -1)
        joined = _join(A, cols, work // _JOIN_DENSITY)
        if joined is not None:
            out = np.zeros(A.shape[0] * cols.shape[1], dtype=np.int64)
            np.add.at(out, *joined)
            return out.reshape(A.shape[:1] + B.shape[1:])
    return A @ B


def vanishes(terms) -> bool:
    """Whether the sum of the terms is the zero matrix: a term (s, A, B)
    stands for s A B and a term (s, C) for s C, with s = 1 or -1.  The
    answer is is_zero of the same sum of mm products; this is the one
    kernel of the identity checks (d o d = 0, chain maps, Stokes).

    * An operand that is not int64 (Python ints, Fractions): the sum of
      the mm products, on Python ints and Fractions.
    * int64 operands whose bounds (_bounded) give sum |a| |b| k + sum |c|
      below 2^61: the rules of _int_product on the multiply-adds of all
      the terms, with every term joined at once (_join_vanishes).
    * int64 operands past that bound: the mm path.
    """
    work, shape, int64 = 0, None, True
    for t in terms:
        A = t[1]
        if len(t) == 3:
            B = t[2]
            if A.shape[1] != B.shape[0]:
                raise ValueError(f"matmul mismatch {A.shape} @ {B.shape}")
            work += A.shape[0] * B.size
            got = (A.shape[0], B.shape[1])
            int64 = int64 and B.dtype == np.int64
        else:
            got = A.shape
        int64 = int64 and A.dtype == np.int64
        if shape is None:
            shape = got
        elif got != shape:
            raise ValueError(f"terms of shapes {shape} and {got}")
    if int64:
        if 0 in shape:
            return True
        bounded, total = [], 0
        for t in terms:
            A, a = _bounded(t[1])
            B = None
            if len(t) == 3:
                B, b = _bounded(t[2])
                a *= b * A.shape[1]
            bounded.append((t[0], A, B))
            total += a
        if total < _INT64_SAFE:
            if work >= _JOIN_WORK:
                joined = _join_vanishes(bounded, shape, work)
                if joined is not None:
                    return joined
            acc = None
            for s, A, B in bounded:
                x = A if B is None else A @ B
                if acc is None:
                    acc = x if s > 0 else -x
                else:
                    acc = acc + x if s > 0 else acc - x
            return not np.count_nonzero(acc)
    acc = np.zeros(shape, dtype=object)
    for t in terms:
        x = _to_object(t[1] if len(t) == 2 else mm(t[1], t[2]))
        acc = acc + x if t[0] > 0 else acc - x
    return is_zero(acc)


def _join_vanishes(terms, shape, work):
    """vanishes for int64 terms (s, A, B or None) whose sum is below 2^61:
    the products of _join and the nonzero entries c_ij of plain terms,
    keyed by i * cols + j and summed per key (_nonzero_key); None, for the
    dense products, past work / _JOIN_DENSITY keys."""
    budget = work // _JOIN_DENSITY
    keys, vals = [], []
    for s, A, B in terms:
        if B is None:               # its flat index is the key of an entry
            f = np.flatnonzero(A != 0)
            joined = f, A.ravel()[f]
        else:
            joined = _join(A, B, budget)
        if joined is None or joined[0].size > budget:
            return None
        budget -= joined[0].size
        keys.append(joined[0])
        vals.append(joined[1] if s > 0 else -joined[1])
    return _nonzero_key(keys, vals) is None


def _nonzero_key(keys, vals):
    """The least key whose values do not sum to zero, or None: the int64
    keys of a list of arrays and their values (int64 or exact objects),
    sorted and summed per key (np.add.reduceat)."""
    keys = np.concatenate(keys)
    if not keys.size:
        return None
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    bad = np.flatnonzero(np.add.reduceat(np.concatenate(vals)[order], starts))
    return int(keys[starts[bad[0]]]) if bad.size else None


def _join(A: np.ndarray, B: np.ndarray, budget: int):
    """The products a_ik b_kj of the nonzero entries of two int64 matrices,
    row by row of A as in Gustavson's sparse product: (keys i * cols + j,
    values), or None when there are more than budget of them."""
    i, k = _entries(A)
    kb, j = _entries(B)                 # row by row: sorted by k
    count = np.bincount(kb, minlength=B.shape[0])
    rep = count[k]                      # partners of each entry of A
    size = int(rep.sum())
    if size > budget:
        return None
    a = np.repeat(np.arange(k.size), rep)   # entry of A, per partner
    first = np.cumsum(count) - count        # where row k of B starts
    b = (np.arange(size) - np.repeat(np.cumsum(rep) - rep, rep)
         + np.repeat(first[k], rep))
    return i[a] * B.shape[1] + j[b], A[i, k][a] * B[kb, j][b]


def _entries(a: np.ndarray):
    """(rows, cols) of the nonzero entries of a matrix with columns, row by
    row (np.nonzero of a bool array is several times faster than of int64,
    and one flat index faster than two)."""
    return np.divmod(np.flatnonzero(a != 0), a.shape[1])


def _div(n: int, d: int):
    """n / d as a plain int when d divides n, else as a Fraction."""
    q, r = divmod(n, d)
    return q if r == 0 else Fraction(n, d)


def mm(A, B) -> np.ndarray:
    """Exact product of matrices of ints and Fractions (B may be a vector).

    Two int64 factors are multiplied as they are and give an int64 product
    when |a| |b| k < 2^61, else an object one.  Otherwise the numerators
    of A (scaled per row) and of B (scaled per column) are multiplied under
    the same bound, and each entry of the object result is divided by its
    two lcms.
    """
    A = A if isinstance(A, np.ndarray) else as_matrix(A)
    B = B if isinstance(B, np.ndarray) else as_matrix(B)
    if A.shape[-1] != B.shape[0]:
        raise ValueError(f"matmul mismatch {A.shape} @ {B.shape}")
    if A.dtype == np.int64 and B.dtype == np.int64:
        return _int_product(A, B)
    shape = (A.shape[0], B.shape[1]) if B.ndim == 2 else (A.shape[0],)
    B = B if B.ndim == 2 else B.reshape(-1, 1)
    if A.size == 0 or B.size == 0:
        return np.zeros(shape, dtype=object)
    nA, dA = _numerators(A, 1)
    nB, dB = _numerators(B, 0)
    N = _to_object(_int_product(nA, nB))
    if dA is not None or dB is not None:
        dA = dA or [1] * N.shape[0]
        dB = dB or [1] * N.shape[1]
        N = np.array([[_div(x, p * q) for x, q in zip(row, dB)]
                      for row, p in zip(N.tolist(), dA)], dtype=object)
    return N.reshape(shape)


def mv(A, v) -> np.ndarray:
    """Exact matrix-vector product (the same path as mm)."""
    v = v if isinstance(v, np.ndarray) else as_vector(v)
    return mm(A, v.reshape(-1, 1)).reshape(-1)


def to_numerators(b: np.ndarray):
    """(n, L) with b = n / L: numerators n, Python ints, over the lcm L of
    the denominators of the entries of b (TypeError for an inexact one)."""
    n, lcms = _numerators(b.reshape(-1, 1), 0)
    return _to_object(n).reshape(b.shape), (lcms[0] if lcms else 1)


def from_numerators(n: np.ndarray, L: int) -> np.ndarray:
    """The array n / L, an int where L divides the entry, else a Fraction."""
    return np.array([_div(x, L) for x in n.ravel().tolist()],
                    dtype=object).reshape(n.shape)


def int_mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v as Python ints for integer arrays A and v (v a vector or a column
    batch): A (v / L) over L.  TypeError for a Fraction or float entry,
    which the int32 cast of _bounded would truncate."""
    return _int_mv(check_int_entries(np.asarray(A)),
                   check_int_entries(np.asarray(v)))


def _int_mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """int_mv, unscanned, of operands the package built or validated."""
    return _to_object(_int_product(A, v))


def divide_columns(Y: np.ndarray, L: int):
    """(Y // L, ok) for an integer array Y: ok says, per column of a matrix
    (zero_columns), whether L divides every entry; the quotient holds only
    there."""
    if L == 1:
        return Y, zero_columns(Y[:0])   # no rows: True for every column
    if Y.dtype != object and L >= 2 ** 63:
        Y = Y.astype(object)
    return Y // L, zero_columns(Y % L)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithForm:
    """Decomposition U @ A @ V == D with U, V unimodular, D diagonal.

    The diagonal entries are non-negative and each divides the next.
    Uinv and Vinv are the exact inverses of U and V.  All five matrices
    are stored by int_storage.
    """

    __slots__ = ("U", "D", "V", "Uinv", "Vinv", "diag", "rank")

    def __init__(self, U, D, V, Uinv, Vinv):
        self.U, self.D, self.V, self.Uinv, self.Vinv = U, D, V, Uinv, Vinv
        self.diag = [int(D[i, i]) for i in range(min(D.shape))]
        self.rank = sum(1 for d in self.diag if d != 0)


def _axpy(x: dict, y: dict, f: int):
    """x -= f y for sparse vectors (dicts of index -> nonzero int), f != 0."""
    for l, v in y.items():
        w = x.get(l, 0) - f * v
        if w:
            x[l] = w
        else:
            del x[l]


class _Elimination:
    """An integer matrix reduced to Smith normal form by unimodular row and
    column operations on sparse rows of Python ints, exact at any size.

    rows[i] maps each column to the nonzero entry of row i, cols[j] is the
    set of rows with an entry in column j, and pivots lists (row, column,
    d) for each diagonal entry d split off, in order: those of the unit
    phase (_units), all +-1 and units in number, then those of the core
    left over (_core).  With transforms, each operation is applied to U and
    V^-1, kept as sparse rows, and to U^-1 and V, kept as sparse columns,
    from the identity on, so that U A V is the reduced matrix throughout.
    """

    def __init__(self, A: np.ndarray, transforms: bool):
        m, n = A.shape
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        r, c = np.nonzero(A)
        for i, j, v in zip(r.tolist(), c.tolist(), A[r, c].tolist()):
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        self.pivots: list[tuple[int, int, int]] = []
        self.transforms = transforms
        if transforms:
            self.U, self.Uinv = ([{i: 1} for i in range(m)] for _ in range(2))
            self.V, self.Vinv = ([{j: 1} for j in range(n)] for _ in range(2))
        self._units()
        self.units = len(self.pivots)
        self._core()

    def _negate_row(self, i: int):
        for vec in ((self.rows[i], self.U[i], self.Uinv[i])
                    if self.transforms else (self.rows[i],)):
            for l in vec:
                vec[l] = -vec[l]

    def _row_sub(self, k: int, i: int, f: int):
        """row k -= f row i."""
        rk, cols = self.rows[k], self.cols
        for l, v in self.rows[i].items():
            w = rk.get(l, 0) - f * v
            if w:
                rk[l] = w
                cols[l].add(k)
            else:
                del rk[l]
                cols[l].discard(k)
        if not rk:
            del self.rows[k]
        if self.transforms:
            _axpy(self.U[k], self.U[i], f)
            _axpy(self.Uinv[i], self.Uinv[k], -f)

    def _col_sub(self, l: int, j: int, f: int):
        """column l -= f column j."""
        rows, cl = self.rows, self.cols[l]
        for k in self.cols[j]:
            rk = rows[k]
            w = rk.get(l, 0) - f * rk[j]
            if w:
                rk[l] = w
                cl.add(k)
            else:
                del rk[l]
                cl.discard(k)
        if self.transforms:
            _axpy(self.V[l], self.V[j], f)
            _axpy(self.Vinv[j], self.Vinv[l], -f)

    def _retire(self, i: int, j: int):
        """Split off the pivot (i, j), alone in its column and dividing its
        row: column operations clear the row, which touches no other row."""
        row = self.rows.pop(i)
        d = row.pop(j)
        del self.cols[j]
        for l, v in row.items():
            self.cols[l].discard(i)
            if self.transforms:
                _axpy(self.V[l], self.V[j], v // d)
                _axpy(self.Vinv[j], self.Vinv[l], -v // d)
        self.pivots.append((i, j, d))

    def _units(self):
        """Passes over the rows by index, while one pivots: on the +-1 entry
        whose column has the fewest nonzeros (ties by index).  Clearing the
        column leaves A ~ [1] + (Schur complement)."""
        rows, cols = self.rows, self.cols
        pivoted = True
        while pivoted:
            pivoted = False
            for i in sorted(rows):
                row = rows.get(i)
                if row is None:
                    continue
                cand = [(len(cols[j]), j) for j, v in row.items()
                        if v in (1, -1)]
                if not cand:
                    continue
                j = min(cand)[1]
                if row[j] == -1:
                    self._negate_row(i)
                for k in cols[j] - {i}:
                    self._row_sub(k, i, rows[k][j])
                self._retire(i, j)
                pivoted = True

    def _core(self):
        """Pivot on the smallest |entry| (ties by row, then column), made
        positive, and reduce its column and row modulo it, until no
        remainder is left.  Split it off if it divides every other entry;
        else add the first row with an entry it does not divide to its row."""
        rows, cols = self.rows, self.cols
        while rows:
            _, i, j = min((abs(v), i, j) for i, row in rows.items()
                          for j, v in row.items())
            if rows[i][j] < 0:
                self._negate_row(i)
            p = rows[i][j]
            for k in sorted(cols[j] - {i}):
                self._row_sub(k, i, rows[k][j] // p)
            for l in sorted(rows[i].keys() - {j}):
                self._col_sub(l, j, rows[i][l] // p)
            if len(cols[j]) > 1 or len(rows[i]) > 1:
                continue
            bad = min((k for k, row in rows.items()
                       if k != i and any(v % p for v in row.values())),
                      default=None)
            if bad is None:
                self._retire(i, j)
            else:
                self._row_sub(i, bad, -1)


def _stored(vecs, shape: tuple[int, int], columns: bool = False):
    """The matrix with the sparse vectors vecs as its rows (or columns),
    stored by int_triples."""
    return int_triples(shape, [(l, t, x) if columns else (t, l, x)
                               for t, vec in enumerate(vecs)
                               for l, x in vec.items()])


def smith_normal_form(A) -> SmithForm:
    """Smith normal form of an integer matrix, with U, V and their
    inverses.  The pivots of the elimination, in order, take the leading
    diagonal positions; the rows and columns left over follow by index."""
    A = check_int_entries(as_matrix(A))
    m, n = A.shape
    e = _Elimination(A, transforms=True)
    pr = [i for i, _, _ in e.pivots]
    pc = [j for _, j, _ in e.pivots]
    pr += sorted(set(range(m)).difference(pr))
    pc += sorted(set(range(n)).difference(pc))
    return SmithForm(
        _stored([e.U[i] for i in pr], (m, m)),
        _stored([{t: d} for t, (_, _, d) in enumerate(e.pivots)], (m, n)),
        _stored([e.V[j] for j in pc], (n, n), columns=True),
        _stored([e.Uinv[i] for i in pr], (m, m), columns=True),
        _stored([e.Vinv[j] for j in pc], (n, n)))


def invariant_factors(A) -> list[int]:
    """The nonzero diagonal of the Smith normal form of an integer matrix
    (its length is the rank), by the same elimination, building no transform.
    The differentials of a complex are reduced together instead, by
    chains.Complex.factors.

    >>> invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    [2, 6, 12]
    >>> invariant_factors([[1, 2], [3, 4], [5, 6]])
    [1, 2]
    """
    e = _Elimination(check_int_entries(as_matrix(A)), transforms=False)
    return [d for _, _, d in e.pivots]


class IntSolver:
    """Rank, integer kernel and integer solutions of an integer matrix A,
    all read off one Smith normal form and reusable across right-hand sides.

    With U A V = diag(d_1, ..., d_r, 0, ...), A x = b has an integer
    solution exactly when U b is integral, vanishes below row r and has
    row i < r divisible by d_i; then x = V ((U b)[:r] / d).  The columns
    V[:, r:] are a basis of the kernel lattice, a direct summand of Z^n
    because V is unimodular.

    A is stored by int_storage, like the transforms of its Smith form snf,
    which the solver keeps: kernel_basis is a read-only view of the stored
    V, and chains.HomologyData reads U and U^-1 of the solver of its
    relations.  A solve writes its right-hand side once as integer
    numerators n over one denominator L and multiplies only integers: U b
    is integral exactly when L divides every entry of U n.  So a solve
    scans no fixed factor, only the entry types of its right-hand side and
    the int64 array (U n)[:r] / d.  A RatSolver, and a MixedSolver on it,
    can be built on this factorization instead of factoring A again.
    """

    __slots__ = ("A", "snf", "rank", "diag", "_d")

    def __init__(self, A):
        self.A = int_storage(check_int_entries(as_matrix(A)))
        snf = self.snf = smith_normal_form(self.A)
        self.rank = snf.rank
        self.diag = snf.diag[:snf.rank]
        self._d = int_storage(np.array(self.diag, dtype=object).reshape(-1, 1))

    def solve(self, b):
        """One integer solution of A x = b, or None.  b may have rational
        entries; the system is then unsolvable unless U b is integral."""
        X, ok = self.solve_many(
            as_vector(b, self.snf.U.shape[0]).reshape(-1, 1))
        return X[:, 0] if ok[0] else None

    def solve_many(self, B):
        """(X, ok): for each column j of B, ok[j] says whether A x = B[:, j]
        has an integer solution, and then X[:, j] is one (X is zero in the
        other columns).  B may have rational entries."""
        N, L = to_numerators(as_matrix(B))
        Y, ok = divide_columns(_int_product(self.snf.U, N), L)
        r = self.rank
        ok = ok & zero_columns(Y[r:]) & zero_columns(Y[:r] % self._d)
        X = _to_object(_int_product(self.snf.V[:, :r], Y[:r] // self._d))
        X[:, ~ok] = 0
        return X, ok

    def kernel_basis(self) -> np.ndarray:
        """Columns form a basis of the integer kernel lattice: the stored
        columns V[:, r:] themselves, a read-only view (on int64, it takes
        the bound int_storage recorded for V, so no product scans it)."""
        return self.snf.V[:, self.rank:]

    def kernel_coordinates(self, B):
        """(X, ok): ok[j] says whether column j of B lies in the kernel, and
        then B[:, j] = kernel_basis() @ X[:, j]; the rows of V^-1 B above r
        vanish exactly on the kernel.  B may have rational entries."""
        Y = mm(self.snf.Vinv, B)
        return Y[self.rank:], zero_columns(Y[:self.rank])


def solve_int(A, b):
    """One integer solution of A x = b, or None."""
    return IntSolver(A).solve(b)


def solve_int_many(A, B):
    """Solve A X = B column by column over Z; None if any column fails."""
    X, ok = IntSolver(A).solve_many(B)
    return X if ok.all() else None


# ---------------------------------------------------------------------------
# Rational and mixed systems, on the same Smith normal form
# ---------------------------------------------------------------------------

def integerize_rows(A) -> np.ndarray:
    """Scale each row by the lcm of its denominators (rank and kernel are
    unchanged); result has plain integer entries."""
    return _numerators(as_matrix(A), 1)[0]


def rat_rank(A) -> int:
    """Rank over Q: the number of invariant factors once the rows are
    scaled to integers."""
    return len(invariant_factors(integerize_rows(A)))


class RatSolver:
    """Rank, kernel and solutions of a rational matrix A, all read off one
    Smith normal form and reusable across right-hand sides.

    Column j is scaled by the lcm s_j of its denominators, which keeps the
    column span.  With S = diag(s) and the IntSolver of A S,
    U (A S) V = diag(d_1, ..., d_r, 0, ...), a solution of A x = b is
    S V[:, :r] ((U b)[:r] / d) when (U b)[r:] vanishes, and the kernel is
    spanned by S V[:, r:].  Given the IntSolver of an integer matrix in
    place of A, the RatSolver shares its factorization (S = 1).

    A solve stays on integers: with b = n / L (one denominator L), D the
    lcm of d_1, ..., d_r, y = U n, w_i = y_i D / d_i and t = V[:, :r] w,
    the solution is x = S t / (L D).
    """

    __slots__ = ("A", "scales", "rank", "int", "_D", "_w")

    def __init__(self, A):
        if isinstance(A, IntSolver):
            self.int, self.A, lcms = A, A.A, None
        else:
            A = exact_storage(as_matrix(A), integral=False)
            nums, lcms = _numerators(A, 0)
            self.int, self.A = IntSolver(nums), A
        # the column scales and the row weights D / d_i, as columns
        self.scales = np.array(lcms or [1] * self.A.shape[1],
                               dtype=object).reshape(-1, 1)
        self.scales.setflags(write=False)
        self.rank = self.int.rank
        self._D = lcm(*self.int.diag)
        self._w = np.array([self._D // d for d in self.int.diag],
                           dtype=object).reshape(-1, 1)
        self._w.setflags(write=False)

    def _split(self, N: np.ndarray):
        """(Y[r:], T) for the columns b = N[:, j] / L with Y = U N (see the
        class docstring): column j lies in the column span exactly when
        Y[r:, j] vanishes."""
        Y = _int_product(self.int.snf.U, N)
        r = self.rank
        return Y[r:], _int_product(self.int.snf.V[:, :r], Y[:r] * self._w)

    def solve_numerators(self, N: np.ndarray, L: int):
        """(X, L', ok) for the columns b_j = N[:, j] / L of a (rows, k)
        matrix N: ok[j] says whether A x = b_j has a rational solution, and
        then X[:, j] / L' is one."""
        rest, T = self._split(N)
        return self.scales * T, L * self._D, zero_columns(rest)

    def solve(self, b):
        """One rational solution of A x = b, or None."""
        n, L = to_numerators(as_vector(b, self.A.shape[0]))
        X, L, ok = self.solve_numerators(n.reshape(-1, 1), L)
        return from_numerators(X[:, 0], L) if ok[0] else None

    def kernel_basis(self) -> np.ndarray:
        """Columns form a basis of the rational null space."""
        return self.int.snf.V[:, self.rank:] * self.scales


class MixedSolver:
    """Solver for  u + A v = b  with u integral and v rational: whether b
    lies in Z^m + im_Q(A), the Q/Z membership question.

    It is read off the RatSolver of A, with no factorization of its own.
    U is unimodular and U (A S) V = diag(d_1, ..., d_r, 0, ...), so b
    solves exactly when (U b)[r:] is integral: when L divides y[r:] for
    b = n / L and y = U n.  Then v = S t / (L D) is the RatSolver's
    solution of the first r rows, and u = b - A v = (D n - N t) / (L D),
    with N = A S the integer matrix the RatSolver factored, is
    U^-1[:, r:] y[r:] / L, integral by construction; the solve checks that
    and raises RuntimeError if it fails.  A may be given as its RatSolver,
    whose factorization is then shared.
    """

    __slots__ = ("rat",)

    def __init__(self, A):
        self.rat = A if isinstance(A, RatSolver) else RatSolver(A)

    def solve_numerators(self, N: np.ndarray, L: int):
        """(U, V, L', ok) for the columns b_j = N[:, j] / L of a (rows, k)
        matrix N: ok[j] says whether b_j solves, and then U[:, j] and
        V[:, j] / L' are its u and v (U is zero in the other columns)."""
        rest, T = self.rat._split(N)
        ok = divide_columns(rest, L)[1]
        D = self.rat._D
        U, whole = divide_columns(
            D * _to_object(N[:, ok]) - _int_mv(self.rat.int.A, T[:, ok]),
            L * D)
        if not whole.all():
            raise RuntimeError("mixed solve left a non-integral residual u")
        out = np.zeros(N.shape, dtype=object)
        out[:, ok] = U
        return out, self.rat.scales * T, L * D, ok

    def solve(self, b):
        """Return (u, v) with u + A v = b exactly, or None."""
        n, L = to_numerators(as_vector(b, self.rat.A.shape[0]))
        U, V, L, ok = self.solve_numerators(n.reshape(-1, 1), L)
        return (U[:, 0], from_numerators(V[:, 0], L)) if ok[0] else None


# ---------------------------------------------------------------------------
# Small utilities shared by the tests and the random suites
# ---------------------------------------------------------------------------

def random_unimodular(n: int, rng, steps: int = 12) -> np.ndarray:
    """Product of random elementary matrices; determinant +-1, on Python
    integers."""
    m = np.eye(n, dtype=object)
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        m[i, :] = m[i, :] + q * m[j, :]
        if rng.random() < 0.3:
            m[[i, j], :] = m[[j, i], :]
    return m

