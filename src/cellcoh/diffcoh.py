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

One sign convention worth recording: with flat_part(x) = [-h] the flat
inclusion is u -> (delta u, -u, 0), and the hexagon's left diamond then
commutes when the coefficient reduction H^(m-1)(Q) -> H^(m-1)(Q/Z) is
taken with a minus sign; all exactness statements are insensitive to this
choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cells import CellComplex, Cochain, ProductComplex, cochain_complex, \
    fiber_integrate_circle, fiber_integrate_prism
from .chains import RING_Q, RING_Z, FgAbGroup, HomologyData, parse_int
from .linalg import (MixedSolver, RatSolver, as_vector, check_int_entries,
                     eye, int_kernel_basis, is_zero, mv, zeros)


# ---------------------------------------------------------------------------
# The element model
# ---------------------------------------------------------------------------

@dataclass
class DifferentialCochain:
    """Triple (c, h, omega) of degree n with truncation parameter m."""

    complex: CellComplex
    m: int
    n: int
    c: np.ndarray       # integral n-cochain
    h: np.ndarray       # rational (n-1)-cochain
    omega: np.ndarray   # rational n-cochain, zero when n < m

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("truncation parameter m must be >= 1")
        K = self.complex
        self.c = check_int_entries(as_vector(self.c, K.n_cells(self.n)))
        self.h = as_vector(self.h, K.n_cells(self.n - 1))
        self.omega = as_vector(self.omega, K.n_cells(self.n))
        if self.n < self.m and not is_zero(self.omega):
            raise ValueError(
                f"omega must vanish in degree {self.n} < m = {self.m}")

    @classmethod
    def zero(cls, K: CellComplex, m: int, n: int) -> "DifferentialCochain":
        z = lambda d: zeros(K.n_cells(d), 1).reshape(-1)
        return cls(K, m, n, z(n), z(n - 1), z(n))

    def _delta(self, vec, deg):
        return mv(self.complex.boundary_matrix(deg + 1).T, vec)

    def dhat(self) -> "DifferentialCochain":
        """(delta c, omega - c - delta h, delta omega), degree n + 1."""
        K, n = self.complex, self.n
        return DifferentialCochain(
            K, self.m, n + 1,
            self._delta(self.c, n),
            self.omega - self.c - self._delta(self.h, n - 1),
            self._delta(self.omega, n))

    def is_cocycle(self) -> bool:
        d = self.dhat()
        return is_zero(d.c) and is_zero(d.h) and is_zero(d.omega)

    def __add__(self, other):
        self._compat(other)
        return DifferentialCochain(self.complex, self.m, self.n,
                                   self.c + other.c, self.h + other.h,
                                   self.omega + other.omega)

    def __sub__(self, other):
        self._compat(other)
        return DifferentialCochain(self.complex, self.m, self.n,
                                   self.c - other.c, self.h - other.h,
                                   self.omega - other.omega)

    def __neg__(self):
        return DifferentialCochain(self.complex, self.m, self.n,
                                   -self.c, -self.h, -self.omega)

    def _compat(self, other):
        if (self.complex is not other.complex or self.m != other.m
                or self.n != other.n):
            raise ValueError("incompatible differential cochains")

    def is_zero(self) -> bool:
        return is_zero(self.c) and is_zero(self.h) and is_zero(self.omega)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        frac = lambda v: [str(Fraction(x)) for x in v]
        return {"m": self.m, "n": self.n, "c": [str(int(x)) for x in self.c],
                "h": frac(self.h), "omega": frac(self.omega)}

    @classmethod
    def from_json(cls, K: CellComplex, obj: dict) -> "DifferentialCochain":
        parse = lambda vals: np.array([Fraction(v) for v in vals], dtype=object)
        return cls(K, int(obj["m"]), int(obj["n"]),
                   np.array([parse_int(v) for v in obj["c"]], dtype=object),
                   parse(obj["h"]), parse(obj["omega"]))


def dhat(x: DifferentialCochain) -> DifferentialCochain:
    return x.dhat()


def forms_a(K: CellComplex, m: int, alpha, n: int | None = None
            ) -> DifferentialCochain:
    """a(alpha) = (0, alpha, delta alpha) in degree n (default m)."""
    n = m if n is None else n
    alpha = as_vector(alpha, K.n_cells(n - 1))
    zc = zeros(K.n_cells(n), 1).reshape(-1)
    dal = mv(K.boundary_matrix(n).T, alpha)
    return DifferentialCochain(K, m, n, zc, alpha, dal)


def curvature_R(x: DifferentialCochain) -> np.ndarray:
    """The curvature cochain; closed with integral periods for cocycles."""
    _require_cocycle(x)
    return x.omega.copy()


def underlying_I(x: DifferentialCochain, hdata: HomologyData | None = None):
    """Class of c in H^n(K; Z): coordinate vector in the tracked generators
    of the homology presentation (returned alongside)."""
    _require_cocycle(x)
    hd = hdata or integral_cohomology(x.complex, x.n)
    coords = hd.express(x.c)
    if coords is None:
        raise RuntimeError("underlying cocycle has no class coordinates")
    return coords, hd


def _require_cocycle(x: DifferentialCochain):
    if not x.is_cocycle():
        raise ValueError("input must be a dhat-cocycle")


# ---------------------------------------------------------------------------
# Cached presentations and solvers per complex
# ---------------------------------------------------------------------------

def _cache(K: CellComplex) -> dict:
    if not hasattr(K, "_diffcoh_cache"):
        K._diffcoh_cache = {}
    return K._diffcoh_cache


def integral_cohomology(K: CellComplex, n: int) -> HomologyData:
    cache = _cache(K)
    key = ("HZ", n)
    if key not in cache:
        cache[key] = HomologyData(cochain_complex(K, RING_Z), n)
    return cache[key]


def rational_cohomology(K: CellComplex, n: int) -> HomologyData:
    cache = _cache(K)
    key = ("HQ", n)
    if key not in cache:
        cache[key] = HomologyData(cochain_complex(K, RING_Q), n)
    return cache[key]


def _delta_matrix(K: CellComplex, n: int) -> np.ndarray:
    """Coboundary matrix from degree n to n + 1."""
    return K.boundary_matrix(n + 1).T


def _qz_member(K: CellComplex, n: int) -> MixedSolver:
    """Solver of u = z + delta g with z an integral and g a rational
    cochain, u of degree n: [u] = 0 in H^n(K; Q/Z) exactly when it solves.
    Built on the kept factorization of delta^(n-1) and kept once per
    degree, for the Q/Z cohomology and for class equality alike."""
    cache = _cache(K)
    key = ("QZmember", n)
    if key not in cache:
        cache[key] = MixedSolver(
            eye(K.n_cells(n)), RatSolver(cochain_complex(K).int_solver(n - 1)))
    return cache[key]


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

    Returns (bool, witness-or-None).
    """
    x._compat(y)
    K, m, n = x.complex, x.m, x.n
    d = x - y
    solver = class_solver(K, m, n)
    # dhat o dhat = 0, so d = dhat(w) needs the h-part of dhat(d),
    # omega - c - delta h, to vanish
    if not is_zero(d.omega - d.c - d._delta(d.h, n - 1)):
        return False, None
    if n - 1 >= m:
        # d.c = delta c_w gives w = (c_w, 0, d.h + c_w)
        c_w = solver.solve(d.c)
        w = None if c_w is None else DifferentialCochain(
            K, m, n - 1, c_w, zeros(K.n_cells(n - 2), 1).reshape(-1),
            d.h + c_w)
    else:
        # omega_w = 0: d.omega = 0 and d.h = u + delta v with u integral give
        # w = (-u, -v, 0)
        sol = solver.solve(d.h) if is_zero(d.omega) else None
        w = None if sol is None else DifferentialCochain(
            K, m, n - 1, -sol[0], -sol[1],
            zeros(K.n_cells(n - 1), 1).reshape(-1))
    if w is None:
        return False, None
    if not (d - w.dhat()).is_zero():
        raise RuntimeError("class-equality witness does not verify")
    return True, w


def class_is_trivial(x: DifferentialCochain):
    return equal_classes(x, DifferentialCochain.zero(x.complex, x.m, x.n))


# ---------------------------------------------------------------------------
# Q/Z cohomology (divisible coefficients via integer Smith forms)
# ---------------------------------------------------------------------------

class QZCohomology:
    """H^n(K; Q/Z) = (Q/Z)^b + torsion(H^(n+1)(K; Z)).

    Classes are represented by rational n-cochains u with delta u integral;
    [u] = 0 iff u = delta g + z with g rational, z integral, decided by the
    mixed solver.  The Bockstein sends [u] to [delta u] in H^(n+1)(K; Z).
    Only the two coboundaries around degree n and solvers on the
    factorizations the cochain complex of K keeps are held, not K, whose
    cache holds this object.
    """

    def __init__(self, K: CellComplex, n: int):
        self.n = n
        self.delta_below = _delta_matrix(K, n - 1)
        self.delta = _delta_matrix(K, n)
        self.n_cells = K.n_cells(n)
        self.rational = rational_cohomology(K, n)
        self.integral_next = integral_cohomology(K, n + 1)
        b = self.rational.group.rank
        torsion = tuple(d for d in self.integral_next.orders if d != 0 and d > 1)
        self.group = FgAbGroup("QZ", rank=b, torsion=tuple(sorted(torsion)))
        self._member = _qz_member(K, n)
        # integral primitives b of delta b = c, for the torsion lifts below
        # and the hexagon's exactness witnesses
        self.primitive = cochain_complex(K).int_solver(n)
        # lifts of the torsion part: k [t] = 0 gives k t = delta b, u = b / k
        self.torsion_lifts = []
        for i, k in enumerate(self.integral_next.orders):
            if k in (0, 1):
                continue
            t = self.integral_next.gens[:, i]
            bvec = self.primitive.solve(k * t)
            if bvec is None:
                raise RuntimeError("torsion class has no integral primitive")
            self.torsion_lifts.append((bvec * Fraction(1, k), k))

    def is_cocycle(self, u) -> bool:
        du = mv(self.delta, as_vector(u))
        return all(Fraction(x).denominator == 1 for x in du)

    def class_is_zero(self, u) -> bool:
        return self._member.solve(as_vector(u, self.n_cells)) is not None

    def classes_equal(self, u, v) -> bool:
        return self.class_is_zero(as_vector(u) - as_vector(v))

    def bockstein(self, u) -> np.ndarray:
        """Integral cocycle delta u; its class in H^(n+1)(K; Z)."""
        return check_int_entries(mv(self.delta, as_vector(u)))

    def random_class(self, rng) -> np.ndarray:
        """Random representative mixing divisible, torsion and trivial parts."""
        u = zeros(self.n_cells, 1).reshape(-1)
        for j in range(self.rational.gens.shape[1]):
            u = u + random_rational(rng) * self.rational.gens[:, j]
        for lift, k in self.torsion_lifts:
            u = u + rng.randrange(k) * lift
        g = random_rational_vector(rng, self.delta_below.shape[1])
        z = random_int_vector(rng, self.n_cells)
        return u + mv(self.delta_below, g) + z


def qz_cohomology(K: CellComplex, n: int) -> QZCohomology:
    cache = _cache(K)
    key = ("HQZ", n)
    if key not in cache:
        cache[key] = QZCohomology(K, n)
    return cache[key]


def flat_part(x: DifferentialCochain):
    """Class of (-h mod Z) in H^(n-1)(K; Q/Z) when the curvature vanishes,
    None otherwise."""
    _require_cocycle(x)
    if not is_zero(x.omega):
        return None
    return -x.h


def flat_include(K: CellComplex, m: int, u, n: int | None = None
                 ) -> DifferentialCochain:
    """The flat class (delta u, -u, 0) with flat_part = [u]."""
    n = m if n is None else n
    u = as_vector(u, K.n_cells(n - 1))
    du = mv(_delta_matrix(K, n - 1), u)
    return DifferentialCochain(K, m, n, check_int_entries(du), -u,
                               zeros(K.n_cells(n), 1).reshape(-1))


# ---------------------------------------------------------------------------
# Random sampling (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_rational(rng, num=9, den=6) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_rational_vector(rng, length: int) -> np.ndarray:
    return np.array([random_rational(rng) for _ in range(length)], dtype=object)


def random_int_vector(rng, length: int, bound: int = 9) -> np.ndarray:
    return np.array([rng.randint(-bound, bound) for _ in range(length)],
                    dtype=object)


def random_cocycle(K: CellComplex, m: int, rng, n: int | None = None
                   ) -> DifferentialCochain:
    """Random dhat-cocycle: c a random integral cocycle, h arbitrary,
    omega = c + delta h."""
    n = m if n is None else n
    cache = _cache(K)
    key = ("zker", n)
    if key not in cache:
        cache[key] = cochain_complex(K).int_solver(n).kernel_basis()
        cache[key].setflags(write=False)
    ker = cache[key]
    coeffs = random_int_vector(rng, ker.shape[1], bound=3)
    c = mv(ker, coeffs) if ker.shape[1] else zeros(K.n_cells(n), 1).reshape(-1)
    h = random_rational_vector(rng, K.n_cells(n - 1))
    omega = c + mv(_delta_matrix(K, n - 1), h)
    return DifferentialCochain(K, m, n, c, h, omega)


def random_reduced_cocycle(prod: ProductComplex, m: int, rng,
                           n: int | None = None) -> DifferentialCochain:
    """Random dhat-cocycle on a circle product vanishing on the base
    section (the inputs accepted by circle integration)."""
    n = m if n is None else n
    P, K = prod.complex, prod.base
    base_v = ("v", 0)
    dmat = _delta_matrix(P, n)
    sel = zeros(K.n_cells(n), P.n_cells(n))
    for i, s in enumerate(K.cells(n)):
        sel[i, P.index[(base_v, s)]] = 1
    cache = _cache(P)
    key = ("zker_reduced", n)
    if key not in cache:
        cache[key] = int_kernel_basis(np.concatenate([dmat, sel], axis=0))
        cache[key].setflags(write=False)
    ker = cache[key]
    coeffs = random_int_vector(rng, ker.shape[1], bound=2)
    c = mv(ker, coeffs) if ker.shape[1] else zeros(P.n_cells(n), 1).reshape(-1)
    h = random_rational_vector(rng, P.n_cells(n - 1))
    for s in K.cells(n - 1):
        h[P.index[(base_v, s)]] = 0
    omega = c + mv(_delta_matrix(P, n - 1), h)
    return DifferentialCochain(P, m, n, c, h, omega)


def random_coboundary(K: CellComplex, m: int, rng, n: int | None = None
                      ) -> DifferentialCochain:
    """dhat of a random cochain one degree down."""
    n = m if n is None else n
    w = DifferentialCochain(
        K, m, n - 1,
        random_int_vector(rng, K.n_cells(n - 1)),
        random_rational_vector(rng, K.n_cells(n - 2)),
        (random_rational_vector(rng, K.n_cells(n - 1)) if n - 1 >= m
         else zeros(K.n_cells(n - 1), 1).reshape(-1)))
    return w.dhat()


# ---------------------------------------------------------------------------
# The hexagon
# ---------------------------------------------------------------------------

class Hexagon:
    """The differential cohomology hexagon of (K, m), with all nodes in
    explicit presentations and the connecting maps as procedures.

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
        self.delta_a = _delta_matrix(K, m - 1)
        self.delta_below = _delta_matrix(K, m - 2)
        C = cochain_complex(K)
        self._a_exact = RatSolver(C.int_solver(m - 2))  # A-node equality
        self._z_exact = RatSolver(C.int_solver(m - 1))  # exactness at Zcl
        self._int_primitive = self.h_low_qz.primitive  # integral b, delta b = c
        # dimensions of the two corner Q-spaces
        self.dim_a_node = K.n_cells(m - 1) - self._a_exact.rank
        self.dim_z_node = K.n_cells(m) - C.int_solver(m).rank

    # -- maps ------------------------------------------------------------

    def d_top(self, alpha):
        return mv(self.delta_a, as_vector(alpha, self.K.n_cells(self.m - 1)))

    def a(self, alpha) -> DifferentialCochain:
        return forms_a(self.K, self.m, alpha)

    def R(self, x):
        return curvature_R(x)

    def I(self, x):
        return underlying_I(x, self.h_high_z)[0]

    def incl_a(self, z):
        """H^(m-1)(K;Q) -> A-node: a closed cochain is its own class."""
        return as_vector(z, self.K.n_cells(self.m - 1))

    def reduce_qz(self, z):
        """H^(m-1)(K;Q) -> H^(m-1)(K;Q/Z); carries the minus sign that makes
        the left diamond commute with the pinned a and flat_part."""
        return -as_vector(z, self.K.n_cells(self.m - 1))

    def flat_lift(self, u) -> DifferentialCochain:
        return flat_include(self.K, self.m, u)

    def bockstein(self, u):
        return self.h_low_qz.bockstein(u)

    def a_node_equal(self, alpha, beta) -> bool:
        return self._a_exact.solve(as_vector(alpha) - as_vector(beta)) is not None

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


def hexagon(K: CellComplex, m: int) -> Hexagon:
    return Hexagon(K, m)


def hexagon_exactness(K: CellComplex, m: int, samples: int = 100,
                      seed: int = 0) -> dict:
    """Constructive verification of the hexagon: vanishing composites,
    commuting squares on samples, and exactness with explicit witnesses.
    Mathematical failures are reported, not raised."""
    hx = Hexagon(K, m)
    rng = random.Random(seed)
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    n_low = K.n_cells(m - 1)

    # dhat o dhat = 0 on random (non-cocycle) elements
    ok = True
    for _ in range(samples):
        deg = rng.choice([m - 1, m])
        x = DifferentialCochain(
            K, m, deg,
            random_int_vector(rng, K.n_cells(deg)),
            random_rational_vector(rng, K.n_cells(deg - 1)),
            (random_rational_vector(rng, K.n_cells(deg)) if deg >= m
             else zeros(K.n_cells(deg), 1).reshape(-1)))
        ok &= x.dhat().dhat().is_zero()
    record("dhat_squared_zero", ok)

    # R o a = delta and I o a = 0
    ok_ra, ok_ia = True, True
    for _ in range(samples):
        alpha = random_rational_vector(rng, n_low)
        xa = hx.a(alpha)
        ok_ra &= is_zero(curvature_R(xa) - hx.d_top(alpha))
        ok_ia &= hx.h_high_z.class_is_zero(xa.c)
    record("R_after_a_is_delta", ok_ra)
    record("I_after_a_vanishes", ok_ia)

    # right diamond: [R(x)]_Q = [I(x)]_Q on random cocycles
    ok = True
    for _ in range(max(10, samples // 5)):
        x = random_cocycle(K, m, rng)
        ok &= hx.h_high_q.classes_equal(x.omega, x.c)
    record("right_diamond_commutes", ok)

    # left diamond: a(incl(z)) = flat_lift(reduce(z)) in the element node
    ok = True
    gens = hx.h_low_q.gens
    for j in range(gens.shape[1]):
        z = gens[:, j] * random_rational(rng)
        eq, _ = equal_classes(hx.a(hx.incl_a(z)), hx.flat_lift(hx.reduce_qz(z)))
        ok &= eq
    for _ in range(5):
        z = sum((random_rational(rng) * gens[:, j] for j in range(gens.shape[1])),
                zeros(n_low, 1).reshape(-1))
        eq, _ = equal_classes(hx.a(hx.incl_a(z)), hx.flat_lift(hx.reduce_qz(z)))
        ok &= eq
    record("left_diamond_commutes", ok)

    # bottom triangle: I(flat_lift(u)) = bockstein(u)
    ok = True
    for _ in range(max(10, samples // 5)):
        u = hx.h_low_qz.random_class(rng)
        lifted = hx.flat_lift(u)
        ok &= hx.h_high_z.classes_equal(lifted.c, hx.bockstein(u))
    record("bottom_triangle_commutes", ok)

    # upper row exactness: ker(d_top) = image of H^(m-1)(K;Q) in the A-node
    ok = True
    for _ in range(max(10, samples // 5)):
        z = sum((random_rational(rng) * gens[:, j] for j in range(gens.shape[1])),
                zeros(n_low, 1).reshape(-1))
        alpha = z + mv(hx.delta_below, random_rational_vector(rng, K.n_cells(m - 2)))
        if not is_zero(hx.d_top(alpha)):
            ok = False
            continue
        coords = hx.h_low_q.express(alpha)
        ok &= coords is not None and hx.a_node_equal(
            alpha, sum((coords[j] * gens[:, j] for j in range(gens.shape[1])),
                       zeros(n_low, 1).reshape(-1)))
    record("exact_at_forms_node", ok)

    # upper row exactness at the closed-forms node: ker(cls_Q) = im(d_top)
    ok = True
    for _ in range(max(10, samples // 5)):
        eta = random_rational_vector(rng, n_low)
        omega = hx.d_top(eta)
        preim = hx._z_exact.solve(omega)
        ok &= preim is not None and hx.h_high_q.class_is_zero(omega)
    record("exact_at_closed_forms_node", ok)

    # a/I diagonal, exactness at the element node: I(x) = 0 gives x = a(h + b)
    ok = True
    for _ in range(samples):
        b = random_int_vector(rng, n_low, bound=4)
        c = mv(hx.delta_a, b)
        h = random_rational_vector(rng, n_low)
        omega = c + mv(hx.delta_a, h)
        x = DifferentialCochain(K, m, m, c, h, omega)
        bp = hx._int_primitive.solve(x.c)
        if bp is None:
            ok = False
            continue
        eq, wit = equal_classes(x, hx.a(x.h + bp))
        ok &= eq and wit is not None
    record("exact_aI_diagonal_at_element_node", ok)

    # I is onto: integral classes lift to differential classes
    ok = True
    zgens = hx.h_high_z.gens
    for j in range(zgens.shape[1]):
        c = zgens[:, j]
        x = DifferentialCochain(K, m, m, c, zeros(n_low, 1).reshape(-1),
                                c * Fraction(1))
        coords = hx.I(x)
        want = zeros(zgens.shape[1], 1).reshape(-1)
        want[j] = 1
        ok &= hx.h_high_z.classes_equal(mv(zgens, coords), mv(zgens, want))
    record("I_onto_integral_classes", ok)

    # flat/R diagonal, exactness at the element node: R(x) = 0 gives
    # x = flat_lift(flat_part(x))
    ok = True
    for _ in range(samples):
        u = hx.h_low_qz.random_class(rng)
        x = hx.flat_lift(u) + random_coboundary(K, m, rng)
        fp = flat_part(x)
        if fp is None:
            ok = False
            continue
        eq, wit = equal_classes(x, hx.flat_lift(fp))
        ok &= eq and wit is not None
        ok &= hx.h_low_qz.classes_equal(fp, u)
    record("exact_flatR_diagonal_at_element_node", ok)

    # injectivity of the flat inclusion: flat_lift(u) trivial iff [u] = 0
    ok = True
    for _ in range(max(10, samples // 5)):
        u = hx.h_low_qz.random_class(rng)
        triv, _ = class_is_trivial(hx.flat_lift(u))
        ok &= triv == hx.h_low_qz.class_is_zero(u)
    record("flat_inclusion_detects_triviality", ok)

    # lower row exactness at H^(m-1)(Q/Z): ker(bockstein) = rational classes
    ok = True
    for _ in range(max(10, samples // 5)):
        z = sum((random_rational(rng) * gens[:, j] for j in range(gens.shape[1])),
                zeros(n_low, 1).reshape(-1))
        u = z + mv(hx.delta_below, random_rational_vector(rng, K.n_cells(m - 2))) \
            + random_int_vector(rng, n_low)
        beta = hx.bockstein(u)
        if not hx.h_high_z.class_is_zero(beta):
            ok = False
            continue
        bvec = hx._int_primitive.solve(beta)
        # constructive preimage: u - b is closed rational, and its negative
        # reduces to [u]
        ok &= bvec is not None
        if bvec is not None:
            closed = u - bvec
            ok &= is_zero(hx.d_top(closed))
            ok &= hx.h_low_qz.classes_equal(hx.reduce_qz(-closed), u)
    record("exact_at_QZ_node", ok)

    # lower row exactness at H^m(Z): ker(coeff) = torsion = im(bockstein)
    ok = True
    for i, k in enumerate(hx.h_high_z.orders):
        if k in (0, 1):
            continue
        t = hx.h_high_z.gens[:, i]
        ok &= hx.h_high_q.class_is_zero(t)
        bvec = hx._int_primitive.solve(k * t)
        if bvec is None:
            ok = False
            continue
        u = bvec * Fraction(1, k)
        ok &= hx.h_high_z.classes_equal(hx.bockstein(u), t)
    for i, k in enumerate(hx.h_high_z.orders):
        if k == 0:
            t = hx.h_high_z.gens[:, i]
            ok &= not hx.h_high_q.class_is_zero(t)
    record("exact_at_integral_node", ok)

    passed = all(c["passed"] for c in checks)
    return {"complex": K.labels.get("name", ""), "m": m, "samples": samples,
            "seed": seed, "nodes": hx.node_groups(), "checks": checks,
            "passed": passed}


# ---------------------------------------------------------------------------
# Homotopy formula and circle integration
# ---------------------------------------------------------------------------

def pullback_cochain(f, vec, degree, ring=RING_Q):
    z = Cochain(f.target, degree, ring, vec)
    return f.pullback(z).values


def end_pullback(prod: ProductComplex, which: str, x: DifferentialCochain
                 ) -> DifferentialCochain:
    f = prod.sections[which]
    K = prod.base
    return DifferentialCochain(
        K, x.m, x.n,
        check_int_entries(pullback_cochain(f, x.c, x.n)),
        pullback_cochain(f, x.h, x.n - 1),
        pullback_cochain(f, x.omega, x.n))


def homotopy_formula_check(prod: ProductComplex, x: DifferentialCochain,
                           expect_strict_zero: bool = False) -> dict:
    """Verify end1* x - end0* x - a(pi_! omega) is dhat-exact, witness
    included; for pullbacks along the projection the difference vanishes
    identically."""
    if x.complex is not prod.complex:
        raise ValueError("cochain does not live on the prism complex")
    _require_cocycle(x)
    K, m, n = prod.base, x.m, x.n
    e1 = end_pullback(prod, "end1", x)
    e0 = end_pullback(prod, "end0", x)
    omega_cochain = Cochain(prod.complex, n, RING_Q, x.omega)
    fiber = fiber_integrate_prism(prod, omega_cochain)
    diff = (e1 - e0) - forms_a(K, m, fiber.values, n=n)
    if expect_strict_zero:
        strict = diff.is_zero()
        return {"passed": strict, "strict_zero": strict, "witness": None}
    eq, wit = equal_classes(diff, DifferentialCochain.zero(K, m, n))
    # the explicit witness (pi_! c, -pi_! h, 0) always works; cross-check
    pic = fiber_integrate_prism(prod, Cochain(prod.complex, n, RING_Z, x.c))
    if n - 1 >= 1:
        pih_values = fiber_integrate_prism(
            prod, Cochain(prod.complex, n - 1, RING_Q, x.h)).values
    else:
        pih_values = zeros(K.n_cells(n - 2), 1).reshape(-1)
    w0 = DifferentialCochain(K, m, n - 1, pic.values, -pih_values,
                             zeros(K.n_cells(n - 1), 1).reshape(-1))
    strict = (diff - w0.dhat()).is_zero()
    return {"passed": bool(eq and strict), "witness_found": eq,
            "explicit_witness_exact": strict}


def s1_integrate(prod: ProductComplex, x: DifferentialCochain
                 ) -> DifferentialCochain:
    """Integration over the circle factor: (pi_! c, -pi_! h, pi_! omega)
    with truncation and degree both dropping by one.

    Requires m >= 2 and x vanishing on the base section (the reduced-object
    condition modelling classes trivialized along the marked section).
    """
    if x.complex is not prod.complex:
        raise ValueError("cochain does not live on the circle product")
    if x.m < 2:
        raise ValueError("need m >= 2 so the target truncation m - 1 >= 1")
    _require_cocycle(x)
    res = end_pullback(prod, "base", x)
    if not res.is_zero():
        raise ValueError(
            "input must vanish on the base section (reduced object "
            "requirement for circle integration)")
    K, n = prod.base, x.n
    pic = fiber_integrate_circle(prod, Cochain(prod.complex, n, RING_Z, x.c))
    pih = fiber_integrate_circle(prod, Cochain(prod.complex, n - 1, RING_Q, x.h))
    pio = fiber_integrate_circle(prod, Cochain(prod.complex, n, RING_Q, x.omega))
    out = DifferentialCochain(K, x.m - 1, n - 1, pic.values, -pih.values,
                              pio.values)
    if not out.is_cocycle():
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
    characteristic-map matrix H^m(K;Z) -> H^m(K;Q)."""
    hx = Hexagon(K, m)
    rng = random.Random(seed)
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    n_low = K.n_cells(m - 1)
    zgens = hx.h_high_z.gens

    # surjectivity onto the fiber product
    ok = True
    for _ in range(samples):
        coeffs = [rng.randint(-3, 3) if o == 0 else rng.randrange(max(o, 1))
                  for o in hx.h_high_z.orders]
        c = sum((coeffs[j] * zgens[:, j] for j in range(zgens.shape[1])),
                zeros(K.n_cells(m), 1).reshape(-1))
        h = random_rational_vector(rng, n_low)
        z = c + mv(hx.delta_a, h)
        # (class of c, z) is a compatible pair; reconstruct a preimage
        x = DifferentialCochain(K, m, m, c, h, z)
        ok &= x.is_cocycle()
        ok &= is_zero(curvature_R(x) - z)
        ok &= hx.h_high_z.classes_equal(x.c, c)
    record("IR_onto_fiber_product", ok)

    # kernel of (I, R): sampled kernel elements admit closed witnesses
    ok = True
    for _ in range(samples):
        b = random_int_vector(rng, n_low, bound=3)
        eta = sum((random_rational(rng) * hx.h_low_q.gens[:, j]
                   for j in range(hx.h_low_q.gens.shape[1])),
                  zeros(n_low, 1).reshape(-1))
        x = DifferentialCochain(
            K, m, m, mv(hx.delta_a, b), -b * Fraction(1) + eta,
            zeros(K.n_cells(m), 1).reshape(-1))
        if not (x.is_cocycle() and hx.h_high_z.class_is_zero(x.c)):
            ok = False
            continue
        witness = x.h + b
        ok &= is_zero(hx.d_top(witness))
        eq, _ = equal_classes(x, hx.a(witness))
        ok &= eq
    record("kernel_elements_are_a_of_closed_forms", ok)

    # kernel = image of H^(m-1)(K;Q) modulo integral classes: a(z) is
    # trivial iff the class of z is integral, that is, for a closed z, iff
    # z = b + delta s with b integral, which is [z] = 0 in H^(m-1)(K;Q/Z)
    ok = True
    kernel_witnesses = []
    for j in range(hx.h_low_q.gens.shape[1]):
        z = hx.h_low_q.gens[:, j] * Fraction(1, 2)
        xz = hx.a(z)
        triv, _ = class_is_trivial(xz)
        integral = hx.h_low_qz.class_is_zero(z)
        ok &= triv == integral
        if not triv:
            kernel_witnesses.append(j)
        zi = hx.h_low_q.gens[:, j]
        if hx.h_low_qz.class_is_zero(zi):
            triv_i, _ = class_is_trivial(hx.a(zi))
            ok &= triv_i
    # independence of the kernel witnesses
    for i in range(len(kernel_witnesses)):
        for j in range(i + 1, len(kernel_witnesses)):
            za = hx.h_low_q.gens[:, kernel_witnesses[i]] * Fraction(1, 2)
            zb = hx.h_low_q.gens[:, kernel_witnesses[j]] * Fraction(1, 2)
            eq, _ = equal_classes(hx.a(za), hx.a(zb))
            ok &= not eq
    record("kernel_is_rational_classes_mod_integral", ok,
           detail=f"{len(kernel_witnesses)} independent kernel witnesses")

    # characteristic map as a matrix
    phi = []
    for j in range(zgens.shape[1]):
        coords = hx.h_high_q.express(zgens[:, j])
        phi.append([str(Fraction(x)) for x in coords])
    phi_matrix = [list(row) for row in zip(*phi)] if phi else []

    passed = all(c["passed"] for c in checks)
    return {"m": m, "samples": samples, "seed": seed, "checks": checks,
            "characteristic_map": phi_matrix,
            "H_high_Z": str(hx.h_high_z.group),
            "H_high_Q": str(hx.h_high_q.group),
            "passed": passed}
