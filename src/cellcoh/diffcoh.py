"""Differential cochains on a finite cell complex.

The degree-n group of the model is the set of triples (c, h, w) with c an
integral n-cochain, h a rational (n-1)-cochain and w a rational n-cochain
that vanishes below the truncation degree m; the differential is

    dhat(c, h, w) = (delta c, w - c - delta h, delta w).

Classes of dhat-cocycles in degree m form the differential cohomology
group realized here.  Structure maps: curvature R(x) = w, underlying class
I(x) = [c], and a(alpha) = (0, alpha, delta alpha); the sign of a is fixed
so that R o a = +delta and the homotopy formula holds with the conventions
of the cell layer.  Class equality, flat parts, the commuting hexagon with
its two exact diagonals, the prism homotopy formula and integration over
the circle factor are all decided constructively, by exhibiting witnesses.
Class equality follows the hexagon's exact sequences: above the truncation
degree by an integral solve against the coboundary, at and below it by
Q/Z membership, a mixed integral/rational solve.

Rational cochains, h and w included, are integer numerators over one
denominator (linalg.to_numerators), every sampled one over SAMPLE_DEN = 60;
Fractions are built only where a vector leaves the module (.h, to_json, ...).
forms_a, flat_include and the Q/Z class_is_zero and bockstein take their
rational input as numerators un over L alone; callers convert Fractions once.

A differential cochain may be a batch: c, h and w then hold one column per
sample, shape (cells, k), over one denominator.  dhat, sums, pullbacks and
fiber integrals act column by column, and so do the verdicts: is_zero,
is_cocycle and equal_classes give one per column, as do the class queries
of HomologyData and QZCohomology on a (cells, k) matrix and the solvers of
linalg.  A single cochain is the batch of its one column on the same code,
so against a batch it meets every column; unequal widths are refused.
The sample checks (hexagon_exactness, random_cocycles and the homotopy and
circle-integration commands of the CLI) draw their samples one after
another, in the rng order of single samples, and then stack them, so each
map, solve and witness check runs once per check, not once per sample.
Every draw goes through _randbelow, which reads the Mersenne Twister words
that randint, randrange and choice would read, without their per-draw
calls, so a seed gives the samples of one randrange call per draw.

One sign convention worth recording: with flat_part(x) = [-h] the flat
inclusion is u -> (delta u, -u, 0), and the hexagon's left diamond then
commutes when the coefficient reduction H^(m-1)(Q) -> H^(m-1)(Q/Z) is
taken with a minus sign; all exactness statements are insensitive to this
choice.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np

from .cells import CellComplex, CellularMap, ProductComplex, cochain_complex
from .chains import (RING_Q, RING_Z, FgAbGroup, HomologyData, parse_int,
                     parse_rational)
from .linalg import (IntSolver, MixedSolver, RatSolver, _int_mv, as_columns,
                     as_vector, check_int_entries, divide_columns,
                     from_numerators, int_storage, is_zero, mm,
                     to_numerators, zero_columns)


# ---------------------------------------------------------------------------
# The element model
# ---------------------------------------------------------------------------

class DifferentialCochain:
    """Triple (c, h, omega) of degree n with truncation parameter m.

    c is kept as Python ints, h and omega as integer numerators hn and wn
    over one denominator L > 0; .h and .omega build the rational vectors.
    Given L, h and omega are taken as such numerators, unchecked, and c, hn
    and wn may be matrices with one column per sample (a batch).
    """

    __slots__ = ("complex", "m", "n", "c", "hn", "wn", "L")

    def __init__(self, complex: CellComplex, m: int, n: int, c, h, omega,
                 L: int | None = None):
        if L is None:
            if m < 1:
                raise ValueError("truncation parameter m must be >= 1")
            c = check_int_entries(as_vector(c, complex.n_cells(n)))
            k = complex.n_cells(n - 1)
            hw, L = to_numerators(np.concatenate(
                [as_vector(h, k), as_vector(omega, complex.n_cells(n))]))
            h, omega = hw[:k], hw[k:]
        if n < m and not is_zero(omega):
            raise ValueError(f"omega must vanish in degree {n} < m = {m}")
        self.complex, self.m, self.n = complex, m, n
        self.c, self.hn, self.wn, self.L = c, h, omega, L

    @property
    def h(self) -> np.ndarray:
        return from_numerators(self.hn, self.L)

    @property
    def omega(self) -> np.ndarray:
        return from_numerators(self.wn, self.L)

    @classmethod
    def zero(cls, K: CellComplex, m: int, n: int) -> "DifferentialCochain":
        return cls(K, m, n, _zeros(K, n), _zeros(K, n - 1), _zeros(K, n), 1)

    def column(self, j: int) -> "DifferentialCochain":
        """Column j of a batch, a single cochain."""
        return DifferentialCochain(self.complex, self.m, self.n, self.c[:, j],
                                   self.hn[:, j], self.wn[:, j], self.L)

    def _as_batch(self) -> "DifferentialCochain":
        """self as a batch: a single cochain is the batch of its one column."""
        if self.c.ndim == 2:
            return self
        col = lambda v: v.reshape(-1, 1)
        return DifferentialCochain(self.complex, self.m, self.n, col(self.c),
                                   col(self.hn), col(self.wn), self.L)

    def _delta(self, vec, deg):
        return _int_mv(cochain_complex(self.complex).diff(deg), vec)

    def dhat(self) -> "DifferentialCochain":
        """(delta c, omega - c - delta h, delta omega), degree n + 1."""
        n, L = self.n, self.L
        return DifferentialCochain(
            self.complex, self.m, n + 1, self._delta(self.c, n),
            self.wn - L * self.c - self._delta(self.hn, n - 1),
            self._delta(self.wn, n), L)

    def is_cocycle(self):
        """Whether dhat vanishes; per column for a batch."""
        return self.dhat().is_zero()

    def __add__(self, other):
        x, y = self._compat(other)
        L = lcm(x.L, y.L)
        p, q = L // x.L, L // y.L
        return DifferentialCochain(x.complex, x.m, x.n, x.c + y.c,
                                   p * x.hn + q * y.hn, p * x.wn + q * y.wn, L)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return DifferentialCochain(self.complex, self.m, self.n,
                                   -self.c, -self.hn, -self.wn, self.L)

    def _compat(self, other):
        """(self, other), both as batches if one is (a single cochain is its
        one column); other complexes, m, n or batch widths are refused."""
        if (self.complex is not other.complex or self.m != other.m
                or self.n != other.n or (self.c.ndim == other.c.ndim
                                         and self.c.shape != other.c.shape)):
            raise ValueError("incompatible differential cochains")
        if self.c.ndim != other.c.ndim:
            return self._as_batch(), other._as_batch()
        return self, other

    def is_zero(self):
        """Whether c, h and omega all vanish: a bool, or for a batch a bool
        array with one verdict per column."""
        return (zero_columns(self.c) & zero_columns(self.hn)
                & zero_columns(self.wn))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "c": [str(int(x)) for x in self.c],
                "h": [str(x) for x in self.h],
                "omega": [str(x) for x in self.omega]}

    @classmethod
    def from_json(cls, K: CellComplex, obj: dict) -> "DifferentialCochain":
        parse = lambda vals: np.array([parse_rational(v) for v in vals],
                                      dtype=object)
        return cls(K, parse_int(obj["m"]), parse_int(obj["n"]),
                   np.array([parse_int(v) for v in obj["c"]], dtype=object),
                   parse(obj["h"]), parse(obj["omega"]))


def _zeros(K: CellComplex, d: int, cols: tuple = ()) -> np.ndarray:
    """The zero cochain of degree d, with the column shape cols (() for a
    single cochain, (k,) for a batch)."""
    return np.zeros((K.n_cells(d), *cols), dtype=object)


def _columns(vectors, length: int) -> np.ndarray:
    """The vectors, each of the given length, as the columns of a matrix."""
    return np.array(vectors, dtype=object).reshape(len(vectors), length).T


def _draw(k: int, *parts) -> list:
    """k samples drawn one after another, each drawing its parts in turn,
    stacked: one (length, k) batch per part (length, draw), where draw()
    gives a vector of that length."""
    vecs = [[part() for _, part in parts] for _ in range(k)]
    return [_columns([v[i] for v in vecs], length)
            for i, (length, _) in enumerate(parts)]


def _stack(K: CellComplex, m: int, n: int, xs) -> DifferentialCochain:
    """The batch of the sampled degree-n cochains xs, all over SAMPLE_DEN."""
    return DifferentialCochain(
        K, m, n, _columns([x.c for x in xs], K.n_cells(n)),
        _columns([x.hn for x in xs], K.n_cells(n - 1)),
        _columns([x.wn for x in xs], K.n_cells(n)), SAMPLE_DEN)


def dhat(x: DifferentialCochain) -> DifferentialCochain:
    return x.dhat()


def forms_a(K: CellComplex, m: int, n: int, an, L: int
            ) -> DifferentialCochain:
    """a(alpha) = (0, alpha, delta alpha) in degree n for alpha = an / L,
    an a vector or a (cells, k) batch of integer numerators."""
    return DifferentialCochain(K, m, n, _zeros(K, n, an.shape[1:]), an,
                               _int_mv(cochain_complex(K).diff(n - 1), an), L)


def curvature_R(x: DifferentialCochain) -> np.ndarray:
    """The curvature cochain; closed with integral periods for cocycles."""
    _require_cocycle(x)
    return x.omega


def underlying_I(x: DifferentialCochain, hdata: HomologyData | None = None):
    """Class of c in H^n(K; Z): coordinate vector in the tracked generators
    of the homology presentation (returned alongside); for a batch, one
    column of coordinates per column of x."""
    _require_cocycle(x)
    hd = hdata or integral_cohomology(x.complex, x.n)
    coords, ok = hd.express(x._as_batch().c)
    if not ok.all():
        raise RuntimeError("underlying cocycle has no class coordinates")
    return (coords if x.c.ndim == 2 else coords[:, 0]), hd


def _require_cocycle(x: DifferentialCochain):
    if not np.all(x.is_cocycle()):
        raise ValueError("input must be a dhat-cocycle")


# ---------------------------------------------------------------------------
# Presentations and solvers, kept per complex (CellComplex.kept)
# ---------------------------------------------------------------------------

def integral_cohomology(K: CellComplex, n: int) -> HomologyData:
    return K.kept(("HZ", n),
                  lambda: HomologyData(cochain_complex(K, RING_Z), n))


def rational_cohomology(K: CellComplex, n: int) -> HomologyData:
    return K.kept(("HQ", n),
                  lambda: HomologyData(cochain_complex(K, RING_Q), n))


def _qz_member(K: CellComplex, n: int) -> MixedSolver:
    """Solver of u = z + delta g with z an integral and g a rational
    cochain, u of degree n: [u] = 0 in H^n(K; Q/Z) exactly when it solves.
    Built on the kept factorization of delta^(n-1) and kept once per
    degree, for the Q/Z cohomology and for class equality alike."""
    return K.kept(("QZmember", n), lambda: MixedSolver(
        RatSolver(cochain_complex(K).int_solver(n - 1))))


def class_solver(K: CellComplex, m: int, n: int):
    """The solver that decides x = dhat(w) for x of degree n.  Above the
    truncation degree (n - 1 >= m) omega_w is free and the class is its
    underlying integral class: the IntSolver of delta^(n-1) finds c_w.  At
    and below it omega_w = 0 and the class is flat up to its curvature:
    the Q/Z membership solver of degree n - 1 splits h."""
    if n - 1 >= m:
        return cochain_complex(K).int_solver(n - 1)
    return _qz_member(K, n - 1)


def equal_classes(x: DifferentialCochain, y: DifferentialCochain):
    """Whether x and y present the same class, with the witness w such that
    x - y = dhat(w) when they do.

    Returns (bool, witness-or-None); for batches, (a bool array with one
    verdict per column, the batch of witnesses, each valid where its
    column's verdict holds).  A single cochain against a batch is compared
    with every column.
    """
    return class_is_trivial(x - y)


def class_is_trivial(d: DifferentialCochain):
    """Whether d = dhat(w), with w, as equal_classes(d, 0) returns them.
    Every witness found is checked; one that does not verify raises
    RuntimeError."""
    K, m, n = d.complex, d.m, d.n
    batch, d = d.c.ndim == 2, d._as_batch()
    cols = d.c.shape[1:]
    solver = class_solver(K, m, n)
    # dhat o dhat = 0, so d = dhat(w) needs the h-part of dhat(d),
    # omega - c - delta h, to vanish
    ok = zero_columns(d.wn - d.L * d.c - d._delta(d.hn, n - 1))
    if n - 1 >= m:
        # d.c = delta c_w gives w = (c_w, 0, d.h + c_w)
        c_w, solved = solver.solve_many(d.c)
        w = DifferentialCochain(K, m, n - 1, c_w, _zeros(K, n - 2, cols),
                                d.hn + d.L * c_w, d.L)
    else:
        # omega_w = 0: d.omega = 0 and d.h = u + delta v with u integral give
        # w = (-u, -v, 0)
        u, v, L, solved = solver.solve_numerators(d.hn, d.L)
        solved &= zero_columns(d.wn)
        w = DifferentialCochain(K, m, n - 1, -u, -v, _zeros(K, n - 1, cols), L)
    ok &= solved
    if not ((d - w.dhat()).is_zero() | ~ok).all():
        raise RuntimeError("class-equality witness does not verify")
    if batch:
        return ok, w
    return (True, w.column(0)) if ok[0] else (False, None)


# ---------------------------------------------------------------------------
# Q/Z cohomology (divisible coefficients via integer Smith forms)
# ---------------------------------------------------------------------------

class QZCohomology:
    """H^n(K; Q/Z) = (Q/Z)^b + torsion(H^(n+1)(K; Z)).

    Classes are represented by rational n-cochains u with delta u integral,
    each given as integer numerators un over a denominator L, u = un / L
    (one class per column of a (cells, k) matrix un); [u] = 0 iff
    u = delta g + z with g rational, z integral, decided by the mixed
    solver.  The Bockstein sends [u] to [delta u] in H^(n+1)(K; Z).
    Only the two coboundaries around degree n and solvers on the
    factorizations the cochain complex of K keeps are held, not K, which
    keeps this object.
    """

    def __init__(self, K: CellComplex, n: int):
        self.n = n
        C = cochain_complex(K)
        self.delta_below, self.delta = C.diff(n - 1), C.diff(n)
        self.n_cells = K.n_cells(n)
        self.rational = rational_cohomology(K, n)
        self.integral_next = integral_cohomology(K, n + 1)
        b = self.rational.group.rank
        torsion = tuple(d for d in self.integral_next.orders if d != 0 and d > 1)
        self.group = FgAbGroup("QZ", rank=b, torsion=tuple(sorted(torsion)))
        self._member = _qz_member(K, n)
        # integral primitives b of delta b = c, for the torsion lifts below
        # and the hexagon's exactness witnesses
        self.primitive = C.int_solver(n)
        # torsion lifts u = b / k, kept as (b, k): k [t] = 0 gives
        # k t = delta b, one solve for every torsion generator t
        hz = self.integral_next
        tor = [i for i, k in enumerate(hz.orders) if k]
        ks = np.array([hz.orders[i] for i in tor], dtype=object)
        B, ok = self.primitive.solve_many(hz.gens[:, tor] * ks)
        if not ok.all():
            raise RuntimeError("torsion class has no integral primitive")
        self.torsion_lifts = [(B[:, j], k) for j, k in enumerate(ks.tolist())]
        # random classes are over L, the generator and delta g coefficients
        # over SAMPLE_DEN and a torsion residue r over k: u = M draws + L z
        L = self._L = lcm(SAMPLE_DEN, *(k for _, k in self.torsion_lifts))
        s = L // SAMPLE_DEN
        self._draw_map = int_storage(np.concatenate(
            [s * self.rational.gens]
            + [(L // k) * b.reshape(-1, 1) for b, k in self.torsion_lifts]
            + [s * self.delta_below.astype(object)], axis=1))
        self._draw_len = self._draw_map.shape[1] + self.n_cells

    def class_is_zero(self, un, L: int):
        """Whether the class of u = un / L vanishes; one verdict per column
        of a (cells, k) matrix un."""
        B, batch = as_columns(un, self.n_cells)
        ok = self._member.solve_numerators(B, L)[-1]
        return ok if batch else bool(ok[0])

    def bockstein(self, un, L: int) -> np.ndarray:
        """Integral cocycle delta u of u = un / L, column by column; its
        class in H^(n+1)(K; Z)."""
        return _integral_image(self.delta, un, L)

    def random_class(self, rng):
        """(un, L): a random representative un / L mixing divisible, torsion
        and trivial parts."""
        un, L = self._classes(self._class_draws(rng).reshape(-1, 1))
        return un[:, 0], L

    def _class_draws(self, rng) -> np.ndarray:
        """The rng draws of one random class, in order, as one vector: a
        numerator over SAMPLE_DEN per rational generator, a residue mod k
        per torsion lift, numerators of a cochain g one degree down and an
        integral cochain z."""
        n_gens, n_below = self.rational.gens.shape[1], self.delta_below.shape[1]
        lifts = [k for _, k in self.torsion_lifts]
        d = _randbelow(rng, _NUMERATOR_WIDTHS * n_gens + lifts
                       + _NUMERATOR_WIDTHS * n_below + [19] * self.n_cells)
        # the generator numerators end at i, the residues at j, g at k
        i = 2 * n_gens
        j = i + len(lifts)
        k = j + 2 * n_below
        return np.array(_numerators(d[:i]) + d[i:j] + _numerators(d[j:k])
                        + [r - 9 for r in d[k:]], dtype=object)

    def _classes(self, V: np.ndarray):
        """(U, L): the classes u = U / L with the draws of _class_draws as
        the columns of V: u mixes the rational generators, the torsion lifts
        and delta g by the draws, plus the integral z."""
        p = V.shape[0] - self.n_cells
        return _int_mv(self._draw_map, V[:p]) + self._L * V[p:], self._L


def qz_cohomology(K: CellComplex, n: int) -> QZCohomology:
    return K.kept(("HQZ", n), lambda: QZCohomology(K, n))


def flat_part(x: DifferentialCochain):
    """Class of (-h mod Z) in H^(n-1)(K; Q/Z) when the curvature vanishes,
    None otherwise."""
    _require_cocycle(x)
    return from_numerators(-x.hn, x.L) if is_zero(x.wn) else None


def flat_include(K: CellComplex, m: int, n: int, un, L: int
                 ) -> DifferentialCochain:
    """The flat class (delta u, -u, 0) in degree n with flat_part = [u],
    for u = un / L a vector or a (cells, k) batch."""
    c = _integral_image(cochain_complex(K).diff(n - 1), un, L)
    return DifferentialCochain(K, m, n, c, -un, _zeros(K, n, un.shape[1:]), L)


def _integral_image(A: np.ndarray, un, L) -> np.ndarray:
    """A (un / L), which must be integral (else the entry check raises)."""
    du = _int_mv(A, un)
    out, ok = divide_columns(du, L)
    return out if np.all(ok) else check_int_entries(from_numerators(du, L))


# ---------------------------------------------------------------------------
# Random sampling (seeded, deterministic)
# ---------------------------------------------------------------------------

SAMPLE_DEN = 60   # lcm of the sampled denominators 1..6


def _randbelow(rng, widths) -> list:
    """[rng.randrange(w) for w in widths]: the same values from the same
    Mersenne Twister words, leaving rng in the same state, with the loop of
    CPython's Random._randbelow_with_getrandbits and not its per-draw call
    chain (randint -> randrange -> _randbelow -> getrandbits), so a seed
    gives the samples and reports of one randrange call per draw."""
    getrandbits = rng.getrandbits
    out = []
    for w in widths:
        if w < 1:
            raise ValueError(f"empty range for a draw below {w}")
        k = w.bit_length()
        r = getrandbits(k)
        while r >= w:
            r = getrandbits(k)
        out.append(r)
    return out


# a random p / q is drawn as p + 9 below 19, then q - 1 below 6
_NUMERATOR_WIDTHS = [19, 6]


def _numerators(d: list) -> list:
    """The numerators over SAMPLE_DEN of the p / q drawn as the pairs of d
    below _NUMERATOR_WIDTHS."""
    pairs = iter(d)
    return [(p - 9) * (SAMPLE_DEN // (q + 1)) for p, q in zip(pairs, pairs)]


def random_rational(rng) -> Fraction:
    """A random p / q, -9 <= p <= 9 and 1 <= q <= 6."""
    return Fraction(random_numerators(rng, 1)[0], SAMPLE_DEN)


def random_numerators(rng, length: int) -> np.ndarray:
    """random_rational_vector(rng, length) as numerators over SAMPLE_DEN."""
    return np.array(
        _numerators(_randbelow(rng, _NUMERATOR_WIDTHS * length)), dtype=object)


def random_rational_vector(rng, length: int) -> np.ndarray:
    return from_numerators(random_numerators(rng, length), SAMPLE_DEN)


def random_int_vector(rng, length: int, bound: int = 9) -> np.ndarray:
    draws = _randbelow(rng, [2 * bound + 1] * length)
    return np.array([r - bound for r in draws], dtype=object)


def random_cocycle(K: CellComplex, m: int, rng, n: int | None = None
                   ) -> DifferentialCochain:
    """Random dhat-cocycle: c a random integral cocycle, h arbitrary,
    omega = c + delta h."""
    return random_cocycles(K, m, rng, 1, n).column(0)


def random_cocycles(K: CellComplex, m: int, rng, k: int,
                    n: int | None = None) -> DifferentialCochain:
    """k random_cocycle draws, in the same rng order, as one batch."""
    n = _sample_degree("random_cocycles", m, n)
    C = cochain_complex(K)
    ker = K.kept(("zker", n), lambda: C.int_solver(n).kernel_basis())
    return _cocycles(K, m, n, ker, 3, k, rng)


def _sample_degree(sampler: str, m: int, n: int | None) -> int:
    """The degree n of a cocycle sampler (m when None); n < m is refused,
    since there omega = c + delta h must vanish."""
    n = m if n is None else n
    if n < m:
        raise ValueError(f"{sampler}: degree n = {n} < m = {m}, where a "
                         "cocycle's omega = c + delta h must vanish")
    return n


def _cocycles(K: CellComplex, m: int, n: int, ker, bound: int, k: int, rng,
              fixed=()) -> DifferentialCochain:
    """k cocycles (c, h, c + delta h) over SAMPLE_DEN, one per column: c
    the kernel basis ker times integers in [-bound, bound], h random
    numerators that vanish on the cells fixed, each sample drawing its c
    coefficients, then its h."""
    r, q = ker.shape[1], K.n_cells(n - 1)
    coefs, hn = _draw(k, (r, lambda: random_int_vector(rng, r, bound=bound)),
                      (q, lambda: random_numerators(rng, q)))
    c = _int_mv(ker, coefs)
    hn[list(fixed)] = 0
    return DifferentialCochain(
        K, m, n, c, hn,
        SAMPLE_DEN * c + _int_mv(cochain_complex(K).diff(n - 1), hn),
        SAMPLE_DEN)


def random_reduced_cocycle(prod: ProductComplex, m: int, rng,
                           n: int | None = None) -> DifferentialCochain:
    """Random dhat-cocycle on a circle product vanishing on the base
    section (the inputs accepted by circle integration)."""
    return random_reduced_cocycles(prod, m, rng, 1, n).column(0)


def random_reduced_cocycles(prod: ProductComplex, m: int, rng, k: int,
                            n: int | None = None) -> DifferentialCochain:
    """k random_reduced_cocycle draws, in the same rng order, as one
    batch."""
    n = _sample_degree("random_reduced_cocycles", m, n)
    P, K = prod.complex, prod.base
    C, base_v = cochain_complex(P), ("v", 0)

    def kernel():
        sel = prod.sections["base"].chain_matrix(n).T
        return IntSolver(np.concatenate([C.diff(n), sel],
                                        axis=0)).kernel_basis()

    ker = P.kept(("zker_reduced", n), kernel)
    return _cocycles(P, m, n, ker, 2, k, rng,
                     fixed=[P.index[(base_v, s)] for s in K.cells(n - 1)])


def random_element(K: CellComplex, m: int, n: int, rng
                   ) -> DifferentialCochain:
    """A random differential cochain of degree n, almost never a cocycle."""
    c = random_int_vector(rng, K.n_cells(n))
    hn = random_numerators(rng, K.n_cells(n - 1))
    wn = random_numerators(rng, K.n_cells(n)) if n >= m else _zeros(K, n)
    return DifferentialCochain(K, m, n, c, hn, wn, SAMPLE_DEN)


def random_coboundary(K: CellComplex, m: int, rng, n: int | None = None
                      ) -> DifferentialCochain:
    """dhat of a random cochain one degree down."""
    n = m if n is None else n
    return random_element(K, m, n - 1, rng).dhat()


# ---------------------------------------------------------------------------
# The hexagon
# ---------------------------------------------------------------------------

class Hexagon:
    """The differential cohomology hexagon of (K, m), with all nodes in
    explicit presentations; the connecting maps are the procedures of this
    module (forms_a, curvature_R, underlying_I, flat_include, flat_part and
    QZCohomology.bockstein).

    Nodes: A = rational (m-1)-cochains mod exact, Zcl = closed rational
    m-cochains, H^(m-1)(K;Q), H^m(K;Q), the element-oracle node of
    differential classes, H^(m-1)(K;Q/Z) and H^m(K;Z).
    """

    def __init__(self, K: CellComplex, m: int):
        if m < 1 or m > K.dim + 1:
            raise ValueError(f"need 1 <= m <= dim K + 1, got m={m}")
        self.K, self.m = K, m
        self.h_low_q = rational_cohomology(K, m - 1)
        self.h_high_q = rational_cohomology(K, m)
        self.h_high_z = integral_cohomology(K, m)
        self.h_low_qz = qz_cohomology(K, m - 1)
        C = cochain_complex(K)
        self.delta_a, self.delta_below = C.diff(m - 1), C.diff(m - 2)
        self._a_exact = RatSolver(C.int_solver(m - 2))  # A-node equality
        self._z_exact = RatSolver(C.int_solver(m - 1))  # exactness at Zcl
        self._int_primitive = self.h_low_qz.primitive  # integral b, delta b = c
        # dimensions of the two corner Q-spaces
        self.dim_a_node = K.n_cells(m - 1) - self._a_exact.rank
        self.dim_z_node = K.n_cells(m) - C.int_solver(m).rank

    def node_groups(self) -> dict:
        return {
            "forms_mod_exact": f"Q^{self.dim_a_node}",
            "closed_forms": f"Q^{self.dim_z_node}",
            "H_low_Q": str(self.h_low_q.group),
            "H_high_Q": str(self.h_high_q.group),
            "H_low_QZ": str(self.h_low_qz.group),
            "H_high_Z": str(self.h_high_z.group),
            "differential_classes": "element oracle (sampling + witnesses)",
        }


def hexagon_exactness(K: CellComplex, m: int, samples: int = 100,
                      seed: int = 0) -> dict:
    """Constructive verification of the hexagon: vanishing composites,
    commuting squares on samples, and exactness with explicit witnesses.
    Mathematical failures are reported, not raised.  Each check draws its
    samples in turn and runs its maps, solves and witness checks once, on
    the batch of them; it passes when every column does."""
    hx = Hexagon(K, m)
    rng = random.Random(seed)
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(np.all(passed)),
                       "detail": detail})

    # the maps take numerators over D, or over L for a Q/Z class (un, L)
    n_low, n_below, D = K.n_cells(m - 1), K.n_cells(m - 2), SAMPLE_DEN
    qz, gens, zgens = hx.h_low_qz, hx.h_low_q.gens, hx.h_high_z.gens
    b, many = gens.shape[1], max(10, samples // 5)
    d_top = lambda an: _int_mv(hx.delta_a, an)
    a = lambda an, L=D: forms_a(K, m, m, an, L)
    flat_lift = lambda un, L=D: flat_include(K, m, m, un, L)
    num = lambda length: (length, lambda: random_numerators(rng, length))
    ints = lambda length, bound=9: (
        length, lambda: random_int_vector(rng, length, bound))
    qz_class = (qz._draw_len, lambda: qz._class_draws(rng))
    # a random rational combination of the generators of H^(m-1)(Q), from
    # one numerator per generator
    closed = lambda coefs: _int_mv(gens, coefs)

    # dhat o dhat = 0 on random (non-cocycle) elements, batched by degree
    elements = {m - 1: [], m: []}
    for _ in range(samples):
        n = m - 1 + _randbelow(rng, (2,))[0]
        elements[n].append(random_element(K, m, n, rng))
    record("dhat_squared_zero", all(
        np.all(_stack(K, m, n, xs).dhat().dhat().is_zero())
        for n, xs in elements.items()))

    # R o a = delta and I o a = 0
    alpha, = _draw(samples, num(n_low))
    xa = a(alpha)
    _require_cocycle(xa)
    record("R_after_a_is_delta", zero_columns(xa.wn - d_top(alpha)))
    record("I_after_a_vanishes", hx.h_high_z.class_is_zero(xa.c))

    # right diamond: [R(x)]_Q = [I(x)]_Q on random cocycles; over Q a class
    # vanishes with its multiple by L
    x = random_cocycles(K, m, rng, many)
    record("right_diamond_commutes",
           hx.h_high_q.class_is_zero(x.wn - x.L * x.c))

    # left diamond: a(incl(z)) = flat_lift(reduce(z)) in the element node,
    # with incl(z) = z and reduce(z) = -z, the sign that makes it commute
    # with the pinned a and flat_part; z runs over multiples of each
    # generator, then over 5 random combinations
    scale, = _draw(1, num(b))
    coefs, = _draw(5, num(b))
    z = np.concatenate([gens * scale.T, closed(coefs)], axis=1)
    record("left_diamond_commutes", equal_classes(a(z), flat_lift(-z))[0])

    # bottom triangle: I(flat_lift(u)) = bockstein(u)
    u, L = qz._classes(*_draw(many, qz_class))
    record("bottom_triangle_commutes", hx.h_high_z.classes_equal(
        flat_lift(u, L).c, qz.bockstein(u, L)))

    # upper row exactness: ker(d_top) = image of H^(m-1)(K;Q) in the A-node;
    # express and the A-node equality are linear, so they run on numerators
    coefs, g = _draw(many, num(b), num(n_below))
    alpha = closed(coefs) + _int_mv(hx.delta_below, g)
    coords, ok = hx.h_low_q.express(alpha)
    record("exact_at_forms_node", zero_columns(d_top(alpha)) & ok
           & hx._a_exact.solve_numerators(alpha - mm(gens, coords), D)[-1])

    # upper row exactness at the closed-forms node: ker(cls_Q) = im(d_top)
    omega = d_top(*_draw(many, num(n_low)))
    record("exact_at_closed_forms_node",
           hx._z_exact.solve_numerators(omega, D)[-1]
           & hx.h_high_q.class_is_zero(omega))

    # a/I diagonal, exactness at the element node: I(x) = 0 gives x = a(h + b)
    c, h = _draw(samples, ints(n_low, bound=4), num(n_low))
    c = d_top(c)
    x = DifferentialCochain(K, m, m, c, h, D * c + d_top(h), D)
    bp, ok = hx._int_primitive.solve_many(x.c)
    record("exact_aI_diagonal_at_element_node",
           ok & equal_classes(x, a(x.hn + D * bp))[0])

    # I is onto: integral classes lift to differential classes, the lift of
    # generator j having class coordinates e_j
    x = DifferentialCochain(K, m, m, zgens, _zeros(K, m - 1, zgens.shape[1:]),
                            zgens, 1)
    coords = underlying_I(x, hx.h_high_z)[0]
    record("I_onto_integral_classes",
           hx.h_high_z.classes_equal(mm(zgens, coords), zgens))

    # flat/R diagonal, exactness at the element node: R(x) = 0 gives
    # x = flat_lift(flat_part(x)), with flat_part(x) = -h
    draws, elements = [], []
    for _ in range(samples):
        draws.append(qz._class_draws(rng))
        elements.append(random_element(K, m, m - 1, rng))
    un, L = qz._classes(_columns(draws, qz._draw_len))
    x = flat_lift(un, L) + _stack(K, m, m - 1, elements).dhat()
    _require_cocycle(x)
    # [flat_part(x)] = [u]: -x.h - u has the class of x.h + u
    record("exact_flatR_diagonal_at_element_node",
           zero_columns(x.wn) & equal_classes(x, flat_lift(-x.hn, x.L))[0]
           & qz.class_is_zero(L * x.hn + x.L * un, L * x.L))

    # injectivity of the flat inclusion: flat_lift(u) trivial iff [u] = 0
    u, L = qz._classes(*_draw(many, qz_class))
    record("flat_inclusion_detects_triviality",
           class_is_trivial(flat_lift(u, L))[0] == qz.class_is_zero(u, L))

    # lower row exactness at H^(m-1)(Q/Z): ker(bockstein) = rational classes
    coefs, g, z = _draw(many, num(b), num(n_below), ints(n_low))
    u = closed(coefs) + _int_mv(hx.delta_below, g) + D * z
    beta = qz.bockstein(u, D)
    bvec, ok = hx._int_primitive.solve_many(beta)
    # constructive preimage: u - b is closed rational, and its negative
    # reduces to [u]
    closed_u = u - D * bvec
    record("exact_at_QZ_node", hx.h_high_z.class_is_zero(beta) & ok
           & zero_columns(d_top(closed_u)) & qz.class_is_zero(closed_u - u, D))

    # lower row exactness at H^m(Z): ker(coeff) = torsion = im(bockstein);
    # the torsion generators t are the Bocksteins of the torsion lifts b / k
    # of H^(m-1)(Q/Z), k t = delta b, here all over the lcm L of the orders
    orders = hx.h_high_z.orders
    L = lcm(*(k for _, k in qz.torsion_lifts))
    u = _columns([(L // k) * b for b, k in qz.torsion_lifts], n_low)
    t = zgens[:, [i for i, k in enumerate(orders) if k]]
    record("exact_at_integral_node",
           hx.h_high_q.class_is_zero(t).all()
           and hx.h_high_z.classes_equal(qz.bockstein(u, L), t).all()
           and not hx.h_high_q.class_is_zero(
               zgens[:, [i for i, k in enumerate(orders) if not k]]).any())

    passed = all(c["passed"] for c in checks)
    return {"complex": K.labels.get("name", ""), "m": m, "samples": samples,
            "seed": seed, "nodes": hx.node_groups(), "checks": checks,
            "passed": passed}


# ---------------------------------------------------------------------------
# Homotopy formula and circle integration
# ---------------------------------------------------------------------------

def differential_pullback(f: CellularMap, x: DifferentialCochain
                          ) -> DifferentialCochain:
    """f* x = (f* c, f* h, f* omega) on the source of f, over the same L."""
    if x.complex is not f.target:
        raise ValueError("cochain does not live on the target complex")
    pull = lambda v, d: _int_mv(f.chain_matrix(d).T, v)
    return DifferentialCochain(f.source, x.m, x.n, pull(x.c, x.n),
                               pull(x.hn, x.n - 1), pull(x.wn, x.n), x.L)


def _fiber_integral(prod: ProductComplex, v, d: int) -> np.ndarray:
    """cells.fiber_integrate_* of numerators checked where they were built."""
    if d < 1:
        raise ValueError("fiber integration needs degree >= 1")
    return _int_mv(prod.fiber_matrix(d), v)


def homotopy_formula_check(prod: ProductComplex, x: DifferentialCochain,
                           expect_strict_zero: bool = False) -> dict:
    """Verify end1* x - end0* x - a(pi_! omega) is dhat-exact, witness
    included; for pullbacks along the projection the difference vanishes
    identically.  For a batch x each verdict is a bool array, one per
    column."""
    if x.complex is not prod.complex:
        raise ValueError("cochain does not live on the prism complex")
    _require_cocycle(x)
    K, m, n = prod.base, x.m, x.n
    e1 = differential_pullback(prod.sections["end1"], x)
    e0 = differential_pullback(prod.sections["end0"], x)
    diff = (e1 - e0) - forms_a(K, m, n, _fiber_integral(prod, x.wn, n),
                               x.L)
    if expect_strict_zero:
        strict = diff.is_zero()
        return {"passed": strict, "strict_zero": strict, "witness": None}
    eq, _ = class_is_trivial(diff)
    # the explicit witness (pi_! c, -pi_! h, 0) always works; cross-check
    cols = x.c.shape[1:]
    pih = (_fiber_integral(prod, x.hn, n - 1) if n > 1
           else _zeros(K, n - 2, cols))
    w0 = DifferentialCochain(K, m, n - 1, _fiber_integral(prod, x.c, n),
                             -pih, _zeros(K, n - 1, cols), x.L)
    strict = (diff - w0.dhat()).is_zero()
    return {"passed": eq & strict, "witness_found": eq,
            "explicit_witness_exact": strict}


def s1_integrate(prod: ProductComplex, x: DifferentialCochain
                 ) -> DifferentialCochain:
    """Integration over the circle factor: (pi_! c, -pi_! h, pi_! omega)
    with truncation and degree both dropping by one; column by column for
    a batch.

    Requires m >= 2 and x vanishing on the base section (the reduced-object
    condition modelling classes trivialized along the marked section).
    """
    if x.complex is not prod.complex:
        raise ValueError("cochain does not live on the circle product")
    if x.m < 2:
        raise ValueError("need m >= 2 so the target truncation m - 1 >= 1")
    _require_cocycle(x)
    res = differential_pullback(prod.sections["base"], x)
    if not np.all(res.is_zero()):
        raise ValueError(
            "input must vanish on the base section (reduced object "
            "requirement for circle integration)")
    n, K = x.n, prod.base
    pih = (_fiber_integral(prod, x.hn, n - 1) if n > 1
           else _zeros(K, n - 2, x.c.shape[1:]))
    out = DifferentialCochain(
        K, x.m - 1, n - 1, _fiber_integral(prod, x.c, n), -pih,
        _fiber_integral(prod, x.wn, n), x.L)
    if not np.all(out.is_cocycle()):
        raise RuntimeError("circle integration did not give a cocycle")
    return out


# ---------------------------------------------------------------------------
# Pullback classification
# ---------------------------------------------------------------------------

def pullback_classification_check(K: CellComplex, m: int, samples: int = 50,
                                  seed: int = 0) -> dict:
    """Constructively verify that (I, R) maps classes onto compatible pairs
    (u, z) with [z]_Q the image of u, and that its kernel is the image of
    H^(m-1)(K;Q) under a (modulo integral classes); also emits the
    characteristic-map matrix H^m(K;Z) -> H^m(K;Q).  Like
    hexagon_exactness, each sampled check draws its samples in turn and
    runs its maps, solves and witness checks once, on the batch of them."""
    hx = Hexagon(K, m)
    rng = random.Random(seed)
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(np.all(passed)),
                       "detail": detail})

    n_low, D = K.n_cells(m - 1), SAMPLE_DEN
    zgens, gens = hx.h_high_z.gens, hx.h_low_q.gens
    d_top = lambda an: _int_mv(hx.delta_a, an)
    orders = hx.h_high_z.orders

    # surjectivity onto the fiber product: c = zgens coeffs is integral and
    # (class of c, z / D) is a compatible pair; reconstruct a preimage
    # a free coefficient in -3..3, a torsion one below its order
    widths = [7 if o == 0 else o for o in orders]
    offsets = [3 if o == 0 else 0 for o in orders]
    coeffs, h = _draw(samples, (len(orders), lambda: [
        r - s for r, s in zip(_randbelow(rng, widths), offsets)]),
        (n_low, lambda: random_numerators(rng, n_low)))
    c = _int_mv(zgens, coeffs)
    z = D * c + d_top(h)
    x = DifferentialCochain(K, m, m, c, h, z, D)
    record("IR_onto_fiber_product", x.is_cocycle() & zero_columns(x.wn - z)
           & hx.h_high_z.classes_equal(x.c, c))

    # kernel of (I, R): sampled kernel elements admit closed witnesses
    b, coefs = _draw(samples,
                     (n_low, lambda: random_int_vector(rng, n_low, bound=3)),
                     (gens.shape[1],
                      lambda: random_numerators(rng, gens.shape[1])))
    x = DifferentialCochain(K, m, m, d_top(b), _int_mv(gens, coefs) - D * b,
                            _zeros(K, m, (samples,)), D)
    witness = x.hn + D * b
    record("kernel_elements_are_a_of_closed_forms",
           x.is_cocycle() & hx.h_high_z.class_is_zero(x.c)
           & zero_columns(d_top(witness))
           & equal_classes(x, forms_a(K, m, m, witness, D))[0])

    # kernel = image of H^(m-1)(K;Q) modulo integral classes: a(z) is
    # trivial iff the class of z is integral, that is, for a closed z, iff
    # z = b + delta s with b integral, which is [z] = 0 in H^(m-1)(K;Q/Z);
    # checked on every half g / 2 of a generator g and on every g with
    # [g] = 0, each set as one batch
    triv = class_is_trivial(forms_a(K, m, m, gens, 2))[0]
    whole = hx.h_low_qz.class_is_zero(gens, 1)
    # independence of the kernel witnesses, the nontrivial halves: no two
    # have one class, and a is linear
    witnesses = np.flatnonzero(~triv)
    i, j = np.triu_indices(len(witnesses), 1)
    pairs = gens[:, witnesses[i]] - gens[:, witnesses[j]]
    ok = ((triv == hx.h_low_qz.class_is_zero(gens, 2)).all()
          and class_is_trivial(forms_a(K, m, m, gens[:, whole], 1))[0].all()
          and not class_is_trivial(forms_a(K, m, m, pairs, 2))[0].any())
    record("kernel_is_rational_classes_mod_integral", ok,
           detail=f"{len(witnesses)} independent kernel witnesses")

    # characteristic map as a matrix, one column per integral generator
    phi = hx.h_high_q.express(zgens)[0]
    phi_matrix = [[str(Fraction(x)) for x in row] for row in phi.tolist()]

    passed = all(c["passed"] for c in checks)
    return {"m": m, "samples": samples, "seed": seed, "checks": checks,
            "characteristic_map": phi_matrix,
            "H_high_Z": str(hx.h_high_z.group),
            "H_high_Q": str(hx.h_high_q.group),
            "passed": passed}
