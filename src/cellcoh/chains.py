"""Bounded cochain complexes of finite-rank free modules over Z or Q.

Grading is cohomological: the differential of a complex raises degree by
one.  A complex stores an explicit degree window [lo, hi]; degrees outside
the window are zero.  Conventions pinned here once and used everywhere:

* shift:  (C[k])^n = C^(n+k) with differential (-1)^k d,
* atom(G, k) places one rank in degree -k,
* cone(f: A -> B) = B + A[1] with differential d(b, a) = (db - f(a), -da),
* fiber(f) = cone(f)[-1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import (_JOIN_WORK, IntSolver, RatSolver, _Elimination, _entries,
                     _int_mv, _nonzero_key, as_columns, as_matrix,
                     block_zeros, check_int_entries, exact_storage, int_zeros,
                     integerize_rows, is_zero, mm, to_numerators, vanishes,
                     zero_columns)
# chains runs no Smith form of its own, every one is an IntSolver's; the name
# stays importable here for callers that count Smith forms by patching it
from .linalg import smith_normal_form  # noqa: F401

RING_Z = "Z"
RING_Q = "Q"


def _check_ring(ring: str) -> str:
    if ring not in (RING_Z, RING_Q):
        raise ValueError(f"unknown ring {ring!r}")
    return ring


class Complex:
    """Bounded cochain complex with exact differential matrices.

    ranks[i] is the rank in degree lo + i; diffs[i] is the matrix of
    d^(lo+i): rank(lo+i) -> rank(lo+i+1), acting on column vectors, stored
    read-only, on int64 when it is integral (see linalg.int_storage).
    d o d = 0 is checked where a complex enters the program, by
    Complex(...) (the total complexes of tot included) and from_json,
    which raise ValueError where it fails.  A complex derived from checked
    ones (over, window, shift, direct_sum, cone, cells.cochain_complex,
    the levels of tot) is built by _derived, which does not check again,
    because its d o d = 0 follows from theirs.
    What is derived from the differentials is kept in one store, once it is
    built, and shared with the same complex over the other ring (over): the
    IntSolver of an integral differential (int_solver), the invariant
    factors of each differential (factors) and the IntSolver of the
    relations of each H^n (HomologyData).  factors reduces the whole
    complex in one sweep, reading the diag of a kept IntSolver, so homology
    eliminates each basis element once, not as a row of d^n and again as a
    column of d^(n+1).
    """

    __slots__ = ("ring", "lo", "hi", "ranks", "diffs", "_solvers")

    def __init__(self, ring: str, lo: int, ranks, diffs):
        self._store(ring, lo, ranks, diffs, {})
        for i, (d, e) in enumerate(zip(self.diffs, self.diffs[1:])):
            if not vanishes([(1, e, d)]):
                raise ValueError(f"d o d != 0 at degree {self.lo + i}")

    @classmethod
    def _derived(cls, ring: str, lo: int, ranks, diffs, store=None):
        """A complex built from differentials whose d o d = 0 the caller
        knows: stored and shape-checked as by Complex(...), with no
        product; store is shared when given (over)."""
        C = cls.__new__(cls)
        C._store(ring, lo, ranks, diffs, {} if store is None else store)
        return C

    def _store(self, ring, lo, ranks, diffs, store):
        """Store and shape-check the differentials; store holds what is
        derived from them."""
        self.ring = _check_ring(ring)
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            ranks = (0,)
            diffs = [int_zeros(0, 0)]
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        self.lo = int(lo)
        self.hi = self.lo + len(ranks) - 1
        self.ranks = ranks
        diffs = list(diffs)
        if len(diffs) == len(ranks) - 1:
            diffs.append(int_zeros(0, ranks[-1]))
        if len(diffs) != len(ranks):
            raise ValueError("need one differential per degree")
        mats = []
        for i, d in enumerate(diffs):
            want_rows = ranks[i + 1] if i + 1 < len(ranks) else 0
            m = exact_storage(as_matrix(d, want_rows, ranks[i]),
                              integral=self.ring == RING_Z)
            if m.shape != (want_rows, ranks[i]):
                raise ValueError(
                    f"differential in degree {self.lo + i} has shape "
                    f"{m.shape}, expected {(want_rows, ranks[i])}")
            mats.append(m)
        self.diffs = tuple(mats)
        self._solvers = store

    # -- access --------------------------------------------------------

    def rank(self, n: int) -> int:
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def diff(self, n: int) -> np.ndarray:
        if self.lo <= n <= self.hi:
            return self.diffs[n - self.lo]
        return int_zeros(self.rank(n + 1), 0)

    def int_solver(self, n: int) -> IntSolver | None:
        """The IntSolver of diff(n), factored on first use and kept; None
        over Q unless diff(n) is stored on int64 (an integer matrix)."""
        s = self._solvers.get(n)
        if s is None:
            d = self.diff(n)
            if self.ring == RING_Q and d.dtype != np.int64:
                return None
            s = self._solvers[n] = IntSolver(d)
        return s

    def factors(self, n: int) -> tuple[int, ...]:
        """The invariant factors of diff(n) with its rows scaled to
        integers, as many as its rank over Q (all that is meaningful over
        Q); () outside [lo, hi), where diff(hi) has no rows.  One ascending
        sweep finds them for every degree on first use and keeps them.  A degree with a kept IntSolver
        gives its diag; any other eliminates its differential, less the
        columns the degree below dropped, with no transform, and drops the
        columns of diff(n + 1) at the rows of its +-1 pivots.  The unit
        phase only negates pivot rows and subtracts their multiples from
        other rows, so in its basis the other columns of diff(n + 1) are
        unchanged and, as d o d = 0, the pivot columns are zero.  A core
        pivot's row is never dropped: the core adds rows to other rows.
        """
        if not self.lo <= n < self.hi:
            return ()
        if ("factors", n) not in self._solvers:
            keep = slice(None)
            for m in range(self.lo, self.hi):
                s = self._solvers.get(m)
                if s is not None:
                    f, keep = tuple(s.diag), slice(None)
                else:
                    d = integerize_rows(self.diff(m))[:, keep]
                    e = _Elimination(check_int_entries(d), transforms=False)
                    f = tuple(p for _, _, p in e.pivots)
                    keep = np.ones(len(d), dtype=bool)
                    keep[[i for i, _, _ in e.pivots[:e.units]]] = False
                self._solvers["factors", m] = f
        return self._solvers["factors", n]

    def _selecting(self, n: int, part: str):
        """A part of diff(n) kept for selection maps, each built on first
        use: "pos", the positions of degree n in the basis of all degrees
        after a -1; "nonzeros", the rows, columns and values of its nonzero
        entries, row by row; "starts", where each row's entries start among
        them, then their count; "pad", diff(n) with a zero row and column
        appended."""
        s = self._solvers.get(("selecting", part, n))
        if s is None:
            d = self.diff(n)
            if part == "pos":
                start = sum(self.ranks[:max(n - self.lo, 0)])
                s = np.arange(start - 1, start + d.shape[1])
                s[0] = -1
            elif part == "nonzeros":
                r, c = _entries(d)
                s = r, c, d[r, c]
            elif part == "starts":
                s = np.searchsorted(self._selecting(n, "nonzeros")[0],
                                    np.arange(d.shape[0] + 1))
            else:
                s = np.zeros((d.shape[0] + 1, d.shape[1] + 1), d.dtype)
                s[:-1, :-1] = d
            self._solvers["selecting", part, n] = s
        return s

    def over(self, ring: str) -> "Complex":
        """This complex over ring, with the same differentials and the same
        store: a Smith form does not depend on the ring.  The differentials
        are this complex's, so d o d = 0 holds."""
        if ring == self.ring:
            return self
        return Complex._derived(ring, self.lo, self.ranks, self.diffs,
                                store=self._solvers)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks)

    def trim(self) -> "Complex":
        """Drop zero ranks at the ends of the window."""
        lo, hi = self.lo, self.hi
        while lo < hi and self.rank(lo) == 0:
            lo += 1
        while hi > lo and self.rank(hi) == 0:
            hi -= 1
        return self.window(lo, hi)

    def window(self, lo: int, hi: int) -> "Complex":
        """Restriction to [lo, hi] (degrees outside become zero).  Each
        differential is this complex's or zero, so d o d = 0 holds."""
        if hi < lo:
            raise ValueError("empty window")
        ranks = [self.rank(n) for n in range(lo, hi + 1)]
        diffs = [self.diff(n) if n < hi else int_zeros(0, self.rank(hi))
                 for n in range(lo, hi + 1)]
        return Complex._derived(self.ring, lo, ranks, diffs)

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        a, b = self.trim(), other.trim()
        if (a.ring, a.lo, a.ranks) != (b.ring, b.lo, b.ranks):
            return False
        return all((da == db).all() or (da.size == 0 and db.size == 0)
                   for da, db in zip(a.diffs, b.diffs))

    def __repr__(self):
        return (f"Complex({self.ring}, window=[{self.lo},{self.hi}], "
                f"ranks={list(self.ranks)})")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ring": self.ring,
            "lo": self.lo,
            "hi": self.hi,
            "ranks": list(self.ranks),
            "differentials": [[_entry_str(x) for x in d.ravel().tolist()]
                              for d in self.diffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Complex":
        ring = _check_ring(obj["ring"])
        lo, hi = parse_int(obj["lo"]), parse_int(obj["hi"])
        if hi < lo:
            raise ValueError("empty window")
        ranks = [parse_int(r) for r in obj["ranks"]]
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be non-negative")
        if len(ranks) != hi - lo + 1:
            raise ValueError("ranks do not match the window")
        diffs = []
        raw = obj["differentials"]
        if len(raw) > len(ranks):
            raise ValueError(f"{len(raw)} differentials for a window of "
                             f"{len(ranks)} degrees")
        for i in range(len(ranks)):
            rows = ranks[i + 1] if i + 1 < len(ranks) else 0
            flat = [parse_entry(x) for x in raw[i]] if i < len(raw) else []
            if len(flat) != rows * ranks[i]:
                raise ValueError(f"differential {i} has {len(flat)} entries, "
                                 f"expected {rows * ranks[i]}")
            diffs.append(as_matrix(np.array(flat, dtype=object), rows, ranks[i]))
        return cls(ring, lo, ranks, diffs)


def _entry_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_entry(x):
    """Entries in JSON are decimal strings (unbounded), 'p/q' strings or ints
    (not booleans)."""
    if isinstance(x, str):
        f = parse_rational(x)
    elif isinstance(x, int) and not isinstance(x, bool):
        f = Fraction(x)
    else:
        raise ValueError(f"bad matrix entry {x!r}")
    return int(f) if f.denominator == 1 else f


def parse_int(x) -> int:
    """An integer given in JSON as an int or a decimal or 'p/q' string; a
    non-integral value is an error, never truncated."""
    f = x if type(x) is int else parse_rational(x)
    if f.denominator != 1:
        raise ValueError(f"non-integer value {x!r}")
    return int(f)


def parse_rational(x) -> Fraction:
    """A rational given in JSON as a number or a decimal or 'p/q' string; a
    zero denominator is a ValueError, like every other malformed value."""
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


@dataclass(frozen=True)
class ChainMap:
    """Degreewise matrices commuting with the differentials, stored like
    the differentials of a Complex; construction raises ValueError where
    a component does not commute with d.  A selection map has index =
    {n: idx} in place of mats: row r of component(n) is source basis vector
    idx[r], or zero where idx[r] = -1, and flat lists the rows of all
    degrees as positions in the source basis of all degrees (or -1), then
    a -1, so that g o f selects f.flat[g.flat].  ChainMap(..., index=...)
    builds one selection map as selections builds a stack of them."""

    source: Complex
    target: Complex
    mats: dict = field(default_factory=dict)  # degree -> rank_t x rank_s
    index: dict | None = None

    def __post_init__(self):
        if self.index is not None:
            index, flat = _selection_stack(self.source, self.target, 1, {
                n: np.asarray(idx)[None] for n, idx in self.index.items()})
            self.__dict__.update(index={n: i[0] for n, i in index.items()},
                                 flat=flat[0])
            return
        if self.source.ring != self.target.ring:
            raise ValueError("mismatched rings")
        degs = range(min(self.source.lo, self.target.lo),
                     max(self.source.hi, self.target.hi) + 1)
        full = {}
        for n in degs:
            m = self.mats.get(n)
            if m is None:
                m = int_zeros(self.target.rank(n), self.source.rank(n))
            m = exact_storage(
                as_matrix(m, self.target.rank(n), self.source.rank(n)),
                integral=self.source.ring == RING_Z)
            if m.shape != (self.target.rank(n), self.source.rank(n)):
                raise ValueError(f"component in degree {n} has wrong shape")
            full[n] = m
        object.__setattr__(self, "mats", full)
        for n in degs[:-1]:
            if not vanishes([(1, self.component(n + 1), self.source.diff(n)),
                             (-1, self.target.diff(n), self.component(n))]):
                raise ValueError(f"does not commute with d in degree {n}")

    @classmethod
    def selections(cls, source: Complex, target: Complex, k: int,
                   index) -> list:
        """The k selection maps source -> target whose indices in degree n
        are the rows of the (k, target.rank(n)) integer array index[n]
        (all -1 where n is missing): the maps k ChainMap(source, target,
        index=...) calls build, validated and checked for commutation as
        one stack."""
        index, flat = _selection_stack(source, target, k, index)
        maps = [cls.__new__(cls) for _ in range(k)]
        for j, f in enumerate(maps):
            f.__dict__.update(source=source, target=target, mats={},
                              index={n: i[j] for n, i in index.items()},
                              flat=flat[j])
        return maps

    def component(self, n: int) -> np.ndarray:
        m = self.mats.get(n)
        if m is None:
            m = int_zeros(self.target.rank(n), self.source.rank(n) + 1)
            if self.index is not None and n in self.index:
                m[np.arange(len(m)), self.index[n]] = 1   # -1: last column
            m.setflags(write=False)
            m = m[:, :-1]
        return m

    @staticmethod
    def identity(C: Complex) -> "ChainMap":
        return ChainMap(C, C, index={n: np.arange(C.rank(n))
                                     for n in C.degrees()})

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ChainMap":
        return ChainMap(source, target, {})

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return ChainMap(other.source, self.target, {
            n: mm(self.component(n), other.component(n))
            for n in other.source.degrees()})


def _selection_stack(source: Complex, target: Complex, k: int, index):
    """(index, flat) of k selection maps source -> target: index[n] the
    (k, target.rank(n)) int64 indices of degree n, flat the (k, rows + 1)
    flats, both read-only; ValueError where an index has the wrong shape or
    type or is out of range, or where map j does not commute with d.

    Map j commutes in degree n where row r of d_S^n selected by
    idx[n + 1][j, r] equals the sum of the columns c of d_T^n with
    idx[n][j, c] as column.  Below _JOIN_WORK entries (k rows cols) the
    rows are gathered from the padded d_S^n for all maps at once and the
    columns subtracted (np.subtract.at, -1 in the spare last column);
    from there the nonzeros of both sides are keyed by (map, row, column)
    and summed per key (linalg._nonzero_key)."""
    if source.ring != target.ring:
        raise ValueError("mismatched rings")
    degs = range(min(source.lo, target.lo), max(source.hi, target.hi) + 1)
    stack, flat = {}, []
    for n in degs:
        rows, cols = target.rank(n), source.rank(n)
        idx = np.asarray(index[n] if n in index else np.full((k, rows), -1))
        if idx.shape != (k, rows) or idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"selection in degree {n} needs {rows} "
                             f"integer indices" + (f" for each of {k} maps"
                                                   if k != 1 else ""))
        # compared as Python ints, so that no unsigned entry wraps to -1
        if idx.size and not -1 <= int(idx.min()) <= int(idx.max()) < cols:
            raise ValueError(f"selection in degree {n} is out of range")
        stack[n] = idx = idx.astype(np.int64)
        idx.setflags(write=False)
        if rows:
            flat.append(source._selecting(n, "pos")[idx + 1])
    flat = np.concatenate(flat + [np.full((k, 1), -1)], axis=1)
    flat.setflags(write=False)
    for n in degs[:-1]:
        rows, cols = target.rank(n + 1), source.rank(n)
        if not rows or not cols:
            continue
        if k * rows * cols < _JOIN_WORK:
            lhs = source._selecting(n, "pad")[stack[n + 1]]
            r, c, v = target._selecting(n, "nonzeros")
            if lhs.dtype != v.dtype:
                lhs = lhs.astype(object)
            np.subtract.at(lhs, (np.arange(k)[:, None], r, stack[n][:, c]), v)
            lhs[:, :, -1] = 0
            bad = np.flatnonzero(np.count_nonzero(lhs.reshape(k, -1), axis=1))
            j = bad[0] if bad.size else None
        else:
            key = _selection_key(source, target, stack, n)
            j = None if key is None else key // (rows * cols)
        if j is not None:
            raise ValueError(("" if k == 1 else f"map {j} ") +
                             f"does not commute with d in degree {n}")
    return stack, flat


def _selection_key(source, target, stack, n):
    """The least key (map j, row r, column c) -> (j rows + r) cols + c at
    which selection maps source -> target with indices stack fail to
    commute in degree n, or None: the nonzeros of each selected row of
    d_S^n, then those of d_T^n under minus, at their selected column (none
    for -1), summed per key."""
    rows, cols = target.rank(n + 1), source.rank(n)
    _, sc, sv = source._selecting(n, "nonzeros")
    starts = source._selecting(n, "starts")
    sel = stack[n + 1].ravel()                  # source row of (j, r), or -1
    rep = np.append(np.diff(starts), 0)[sel]    # its nonzeros
    first = np.repeat(starts[sel] - np.cumsum(rep) + rep, rep)
    at = first + np.arange(first.size)
    lhs = np.repeat(np.arange(sel.size), rep) * cols + sc[at]
    r, c, v = target._selecting(n, "nonzeros")
    j, e = np.nonzero(stack[n][:, c] >= 0)
    rhs = (j * rows + r[e]) * cols + stack[n][j, c[e]]
    return _nonzero_key([lhs, rhs], [sv[at], -v[e]])


@dataclass(frozen=True)
class FgAbGroup:
    """Canonical value of a homology computation.

    kind 'Z': free rank + torsion coefficients in divisibility order.
    kind 'Q': dimension only.
    kind 'QZ': divisible rank (number of Q/Z summands) + torsion.
    """

    kind: str
    rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "QZ"):
            raise ValueError(f"bad kind {self.kind!r}")
        tor = tuple(int(t) for t in self.torsion)
        if any(t <= 1 for t in tor):
            raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must divide the next")
        object.__setattr__(self, "torsion", tor)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        free = {"Z": "Z", "Q": "Q", "QZ": "Q/Z"}[self.kind]
        parts = []
        if self.rank == 1:
            parts.append(free)
        elif self.rank > 1:
            parts.append(f"{free}^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def zero_group(ring: str) -> FgAbGroup:
    return FgAbGroup("Q" if ring == RING_Q else "Z")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def atom(ring: str, k: int) -> Complex:
    """One copy of the coefficient ring placed in degree -k."""
    return Complex(ring, -k, (1,), [int_zeros(0, 1)])


def shift(C: Complex, k: int) -> Complex:
    """(C[k])^n = C^(n+k), differential (-1)^k d; a sign keeps
    d o d = 0."""
    sign = -1 if k % 2 else 1
    return Complex._derived(C.ring, C.lo - k,
                            C.ranks, [sign * d for d in C.diffs])


def truncate_above(C: Complex, m: int) -> Complex:
    """Stupid truncation keeping degrees >= m (zero in degree m when m is
    above the window)."""
    return C if m <= C.lo else C.window(m, max(m, C.hi))


def truncate_below(C: Complex, m: int) -> Complex:
    """Stupid truncation keeping degrees <= m (zero in degree m when m is
    below the window); window drops the differential out of degree m."""
    return C if m >= C.hi else C.window(min(C.lo, m), m)


def direct_sum(A: Complex, B: Complex) -> Complex:
    """A + B, whose differential is block diagonal, so d o d = 0 holds
    block by block."""
    if A.ring != B.ring:
        raise ValueError("mismatched rings")
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    ranks, diffs = [], []
    for n in range(lo, hi + 1):
        ranks.append(A.rank(n) + B.rank(n))
    for n in range(lo, hi + 1):
        dA, dB = A.diff(n), B.diff(n)
        d = block_zeros(A.rank(n + 1) + B.rank(n + 1), A.rank(n) + B.rank(n),
                        (dA, dB))
        d[:A.rank(n + 1), :A.rank(n)] = dA
        d[A.rank(n + 1):, A.rank(n):] = dB
        diffs.append(d)
    return Complex._derived(A.ring, lo, ranks, diffs)


def cone(f: ChainMap):
    """Mapping cone of f: A -> B, with the two structure maps.

    Returns (Cone, incl: B -> Cone, proj: Cone -> A[1]).
    Cone^n = B^n + A^(n+1), d(b, a) = (db - f(a), -da).  d o d = 0
    follows from d o d = 0 on A and B and from f d = d f, all checked when
    they were built.
    """
    A, B = f.source, f.target
    lo = min(B.lo, A.lo - 1)
    hi = max(B.hi, A.hi - 1)
    ranks = [B.rank(n) + A.rank(n + 1) for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi + 1):
        rb, ra = B.rank(n), A.rank(n + 1)
        rb1, ra1 = B.rank(n + 1), A.rank(n + 2)
        dB, fa, dA = B.diff(n), f.component(n + 1), A.diff(n + 1)
        d = block_zeros(rb1 + ra1, rb + ra, (dB, fa, dA))
        d[:rb1, :rb] = dB
        d[:rb1, rb:] = -fa
        d[rb1:, rb:] = -dA
        diffs.append(d)
    C = Complex._derived(A.ring, lo, ranks, diffs)
    degs = range(lo, hi + 1)
    return C, ChainMap(B, C, index={
        n: np.r_[:B.rank(n), np.full(A.rank(n + 1), -1)] for n in degs}), \
        ChainMap(C, shift(A, 1), index={n: np.arange(B.rank(n), C.rank(n))
                                        for n in degs})


def fiber(f: ChainMap) -> Complex:
    """fiber(f) = cone(f)[-1]."""
    C, _, _ = cone(f)
    return shift(C, -1)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

class HomologyData:
    """H^n(C) with tracked generators.

    gens: matrix whose columns are (co)cycle representatives generating H^n;
    orders: the order of each generator (0 for a free one).  Over Q every
    generator is free.  By change of basis (Kaczynski, Mischaikow and
    Mrozek, Computational Homology, 2004, ch. 3) all of it is read off two
    IntSolvers: out, of d^n, which C keeps, and rel, of the relations (the
    kernel coordinates of the image of d^(n-1)), which C keeps under
    ("rel", n); where d^n = 0 the kernel coordinates are the cochains
    themselves, and rel is the kept IntSolver of an integral d^(n-1).  With
    U' rel V' = D', a cocycle with kernel coordinates x has class
    coordinates y = U' x in the columns of ker U'^-1, and the generators
    are those with D'_i != 1 (over Q, D'_i = 0): gens is one product of
    out.kernel_basis() and those columns, and express reads those rows of
    U' x, over Z only for an integral x (U' is unimodular).  The class is
    zero exactly when x lies in the image of rel, which rel.solve_many
    decides over Z and the RatSolver on rel over Q.  A (rank, k) matrix of
    cocycles is one batch for each of them.  Over Q both solvers are built
    on integers: scaling the rows of d^n and the columns of d^(n-1) to
    integers keeps the kernel and the image.

    >>> h = HomologyData(Complex(RING_Z, 0, (1, 1), [[[2]]]), 1)
    >>> str(h.group), h.gens.tolist(), h.orders
    ('Z/2', [[1]], (2,))
    >>> h.express([3]).tolist(), h.class_is_zero([3]), h.class_is_zero([4])
    ([3], False, True)
    >>> h.express([Fraction(1, 2)]) is None
    True
    """

    __slots__ = ("complex", "degree", "group", "gens", "orders", "_out",
                 "_rel", "_U")

    def __init__(self, C: Complex, n: int):
        self.complex, self.degree = C, n
        out = C.int_solver(n) or IntSolver(integerize_rows(C.diff(n)))
        rel = C._solvers.get(("rel", n))
        if rel is None:
            rel = C.int_solver(n - 1) if is_zero(C.diff(n)) else None
            if rel is None:
                x, ok = out.kernel_coordinates(
                    integerize_rows(C.diff(n - 1).T).T)
                if not ok.all():
                    raise RuntimeError("image not contained in kernel")
                rel = IntSolver(x)
            C._solvers["rel", n] = rel
        # D' ascends by divisibility: its 1s lead and its 0s close, so the
        # generators are the rows past the 1s (over Q, past every D'_i != 0)
        diag = rel.snf.diag + [0] * (rel.snf.U.shape[0] - len(rel.snf.diag))
        start = rel.rank if C.ring == RING_Q else diag.count(1)
        self.gens = _int_mv(out.kernel_basis(), rel.snf.Uinv[:, start:])
        self._out, self._U = out, rel.snf.U[start:]
        self._rel = rel if C.ring == RING_Z else RatSolver(rel)
        self.orders = tuple(diag[start:])
        self.group = FgAbGroup(C.ring, rank=self.orders.count(0),
                               torsion=sorted(d for d in self.orders if d))

    # -- class arithmetic ----------------------------------------------

    def express(self, vec):
        """Coordinates of the class of a cocycle in the generators, or
        None.  Given a (rank, k) matrix, (the coordinates of each column,
        whether each column has them)."""
        B, batch = as_columns(vec, self.complex.rank(self.degree))
        x, ok = self._out.kernel_coordinates(B)
        if self.complex.ring == RING_Z:
            ok = ok & zero_columns(x % 1)
        y = mm(self._U, x)
        if batch:
            return y, ok
        return y[:, 0] if ok[0] else None

    def class_is_zero(self, vec):
        """Whether the class of a cocycle vanishes (False for a vector that
        is no cocycle); one verdict per column of a (rank, k) matrix."""
        B, batch = as_columns(vec, self.complex.rank(self.degree))
        x, ok = self._out.kernel_coordinates(B)
        if self.complex.ring == RING_Z:
            ok = ok & self._rel.solve_many(x)[1]
        else:
            ok = ok & self._rel.solve_numerators(*to_numerators(x))[-1]
        return ok if batch else bool(ok[0])

    def classes_equal(self, v, w):
        """Whether v and w have the same class; one verdict per column when
        either is a (rank, k) matrix, a vector meeting every column."""
        n = self.complex.rank(self.degree)
        (v, vb), (w, wb) = as_columns(v, n), as_columns(w, n)
        ok = self.class_is_zero(v - w)
        return ok if vb or wb else bool(ok[0])


def homology(C: Complex, n: int) -> FgAbGroup:
    """H^n(C) as a canonical finitely generated group.  Degrees outside the
    window give the zero group.

    The free rank is rank C^n - rank d^n - rank d^(n-1).  The kernel of d^n
    is a direct summand, so the torsion is that of the cokernel of
    d^(n-1): its invariant factors above 1 (none over Q).  Both are read
    off the invariant factors C keeps (Complex.factors): rows scaled to
    integers keep every rank, and each rank is the number of factors, the
    only thing read over Q.  One sweep of C finds them for every degree.
    """
    if n < C.lo or n > C.hi:
        return zero_group(C.ring)
    d_in = C.factors(n - 1)
    torsion = [d for d in d_in if d > 1] if C.ring == RING_Z else []
    return FgAbGroup(C.ring, rank=C.rank(n) - len(C.factors(n)) - len(d_in),
                     torsion=torsion)


def induced_map(f: ChainMap, n: int, source_h: HomologyData | None = None,
                target_h: HomologyData | None = None):
    """Matrix of H^n(f) in the tracked generators of source and target."""
    sh = source_h or HomologyData(f.source, n)
    th = target_h or HomologyData(f.target, n)
    mat, ok = th.express(mm(f.component(n), sh.gens))
    if not ok.all():
        raise RuntimeError("image of a cycle is not a cycle class")
    return mat, sh, th


def exact_at_middle(f: ChainMap, g: ChainMap, n: int) -> bool:
    """Whether H^n(source f) -> H^n(target f) -> H^n(target g) is exact at the
    middle, verified by membership witnesses on kernel generators."""
    if g.source != f.target:
        raise ValueError("maps do not compose")
    P, sh, mh = induced_map(f, n)
    Q, _, th = induced_map(g, n, source_h=mh)
    # composite must vanish
    if not th.class_is_zero(
            mm(g.component(n), mm(f.component(n), sh.gens))).all():
        return False
    # kernel of Q (with middle relations) must land in the image of P; the
    # relations are diag(orders), a zero column for a free generator
    mid_rel = np.diag(np.array(mh.orders, dtype=object))
    tar_rel = np.diag(np.array(th.orders, dtype=object))
    solver = IntSolver if f.source.ring == RING_Z else RatSolver
    ker = solver(np.concatenate([Q, tar_rel], axis=1)).kernel_basis()
    img = solver(np.concatenate([P, mid_rel], axis=1))
    return all(img.solve(ker[:Q.shape[1], j]) is not None
               for j in range(ker.shape[1]))
