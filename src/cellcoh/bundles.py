"""Connections given by expression matrices, and their invariants.

A connection is A = sum_mu A_mu dx^mu with each A_mu an r x r matrix of
complex-valued expressions over a rectangular rational domain.  On top of
this: curvature F = dA + A wedge A, the character form Tr exp(bF) with its
formal variable b of degree -2, transgression along a path of connections
by Gauss-Legendre quadrature in the path parameter, and holonomy of loops
by fourth-order Runge-Kutta on the parallel-transport equation.  One Form
type holds scalar, matrix (CMatrix) and quadrature coefficients alike.
Every evaluation broadcasts over numpy arrays of points.  The homological
layers
stay exact; of the floating-point results here, transgression is checked
against a run with doubled steps, and holonomy checks that the loop closes
and stays inside the domain of the connection.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chains import parse_int, parse_rational
from .exprs import (Const, Expr, ZERO, check_bound, evaluate, mul,
                    parse_expr, symbolic_d)


# ---------------------------------------------------------------------------
# Complex-valued expressions and matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CExpr:
    """Complex expression as a (real, imaginary) pair."""

    re: Expr = ZERO
    im: Expr = ZERO

    def __add__(self, other):
        return CExpr(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return CExpr(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return CExpr(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def __neg__(self):
        return CExpr(-self.re, -self.im)

    def scale(self, q: Fraction):
        c = Const(Fraction(q))
        return CExpr(mul(c, self.re), mul(c, self.im))

    def diff(self, var: str):
        return CExpr(symbolic_d(self.re, var), symbolic_d(self.im, var))

    def eval(self, env: dict):
        """A complex at one point, a complex array over arrays of points.
        A structurally zero part is not evaluated: it stays +0.0, which is
        what evaluating it gives."""
        if _is_zero(self.re):
            z = np.zeros(_points_shape(env), dtype=complex)
        else:
            z = np.array(evaluate(self.re, env), dtype=complex)
        if not _is_zero(self.im):
            z.imag = evaluate(self.im, env)
        return z[()]

    def is_structural_zero(self) -> bool:
        return _is_zero(self.re) and _is_zero(self.im)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def _points_shape(env: dict) -> tuple:
    """The common shape of the coordinate arrays of a point of arrays."""
    return np.broadcast_shapes(*(np.shape(v) for v in env.values()))


C_ZERO = CExpr()


def cnum(q) -> CExpr:
    return CExpr(Const(Fraction(q)), ZERO)


class CMatrix(tuple):
    """Square matrix of CExpr entries, a tuple of rows, with the arithmetic
    of CExpr: a matrix-valued form coefficient."""

    def __add__(self, other):
        return CMatrix(tuple(x + y for x, y in zip(ra, rb))
                       for ra, rb in zip(self, other))

    def __neg__(self):
        return CMatrix(tuple(-x for x in ra) for ra in self)

    def __mul__(self, other):
        r = len(self)
        return CMatrix(tuple(
            sum((self[i][k] * other[k][j] for k in range(r)), C_ZERO)
            for j in range(r)) for i in range(r))

    def trace(self) -> CExpr:
        return sum((self[i][i] for i in range(len(self))), C_ZERO)

    def diff(self, var: str):
        return CMatrix(tuple(x.diff(var) for x in ra) for ra in self)

    @functools.cached_property
    def nonzero(self) -> tuple:
        """(i, j, entry) of every entry that is not structurally zero, row
        by row."""
        return tuple((i, j, x) for i, ra in enumerate(self)
                     for j, x in enumerate(ra) if not x.is_structural_zero())

    def eval(self, env) -> np.ndarray:
        """Shape (r, r) at one point, (*points, r, r) over arrays of points;
        only the nonzero entries are evaluated, the rest are +0.0."""
        r = len(self)
        vals = np.zeros((r, r) + _points_shape(env), dtype=complex)
        for i, j, x in self.nonzero:
            vals[i, j] = x.eval(env)
        return np.moveaxis(vals, (0, 1), (-2, -1))

    def is_structural_zero(self) -> bool:
        return not self.nonzero


# ---------------------------------------------------------------------------
# Forms with increasing multi-indices
# ---------------------------------------------------------------------------

def _merge_sign(I: tuple, J: tuple):
    """Sorted concatenation of two disjoint increasing tuples with the sign
    of the shuffle; None if an index repeats."""
    if set(I) & set(J):
        return None, 0
    inversions = sum(a > b for a, b in itertools.combinations(I + J, 2))
    return tuple(sorted(I + J)), (-1) ** inversions


def _accumulate(out: dict, idx: tuple, c):
    out[idx] = (out[idx] + c) if idx in out else c


class Form:
    """Form sum_I c_I dx^I over increasing coordinate tuples I.  A
    coefficient is a CExpr, a CMatrix (a matrix-valued form) or any object
    with an eval(env) method (numeric coefficients from quadrature);
    structural zeros are dropped."""

    def __init__(self, degree: int, comps: dict | None = None):
        self.degree = degree
        self.comps = {}
        for idx, c in (comps or {}).items():
            if len(idx) != degree or tuple(sorted(idx)) != tuple(idx):
                raise ValueError(f"bad multi-index {idx}")
            if not (isinstance(c, (CExpr, CMatrix))
                    and c.is_structural_zero()):
                self.comps[tuple(idx)] = c

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.comps)
        for idx, c in other.comps.items():
            _accumulate(out, idx, c)
        return Form(self.degree, out)

    def wedge(self, other: "Form") -> "Form":
        out: dict = {}
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                idx, sign = _merge_sign(i1, i2)
                if idx is not None:
                    _accumulate(out, idx, c1 * c2 if sign > 0 else -(c1 * c2))
        return Form(self.degree + other.degree, out)

    def trace(self) -> "Form":
        return Form(self.degree, {i: c.trace() for i, c in self.comps.items()})

    def scale(self, q: Fraction) -> "Form":
        return Form(self.degree,
                    {i: c.scale(q) for i, c in self.comps.items()})

    def exterior_d(self, coords) -> "Form":
        out: dict = {}
        for idx, c in self.comps.items():
            if not isinstance(c, (CExpr, CMatrix)):
                raise TypeError("exterior_d needs symbolic coefficients")
            for i, name in enumerate(coords):
                if i not in idx:
                    new, sign = _merge_sign((i,), idx)
                    d = c.diff(name)
                    _accumulate(out, new, d if sign > 0 else -d)
        return Form(self.degree + 1, out)

    def eval(self, env) -> dict:
        return {idx: c.eval(env) for idx, c in self.comps.items()}

    def eval_component(self, idx, env) -> complex:
        c = self.comps.get(tuple(idx))
        return c.eval(env) if c is not None else 0j

    def is_zero(self) -> bool:
        return not self.comps

    def max_abs(self, env) -> float:
        vals = self.eval(env)
        return max((float(np.max(np.abs(v))) for v in vals.values()),
                   default=0.0)


# ---------------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------------

@dataclass
class SmoothConnection:
    """A = sum over coords of A_coord d(coord), matrices of complex
    expressions over a rational box domain."""

    rank: int
    coords: tuple
    domain: dict                 # name -> (Fraction lo, Fraction hi)
    comps: dict = field(default_factory=dict)   # name -> CMatrix

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")
        self.coords = tuple(self.coords)
        for name in self.comps:
            if name not in self.coords:
                raise ValueError(f"component for unknown coordinate {name!r}")
        for name, mat in self.comps.items():
            if len(mat) != self.rank or any(len(r) != self.rank for r in mat):
                raise ValueError(f"A_{name} must be {self.rank} x {self.rank}")
            for row in mat:
                for entry in row:
                    check_bound(entry.re, self.coords)
                    check_bound(entry.im, self.coords)
        for name in self.coords:
            lo, hi = self.domain[name]
            if not (Fraction(lo) < Fraction(hi)):
                raise ValueError(f"empty domain interval for {name!r}")
        self.comps = {name: CMatrix(m) for name, m in self.comps.items()}

    def component(self, name: str) -> CMatrix:
        r = self.rank
        return self.comps.get(name, CMatrix((C_ZERO,) * r for _ in range(r)))

    def one_form(self) -> Form:
        return Form(1, {(i,): self.comps[c] for i, c in enumerate(self.coords)
                        if c in self.comps})

    def evaluate_at(self, name: str, env) -> np.ndarray:
        return self.component(name).eval(env)

    @functools.cached_property
    def _A(self) -> Form:
        return self.one_form()

    @functools.cached_property
    def dA(self) -> Form:
        """The exterior derivative of A, made once.  For rank 1 it is the
        curvature: A wedge A vanishes there, as scalars commute, although
        its symbolic coefficients A_s A_t - A_t A_s are not dropped."""
        return self._A.exterior_d(self.coords)

    @functools.cached_property
    def _curvature(self) -> Form:
        return self.dA + self._A.wedge(self._A)

    def contains(self, env):
        """Whether the point lies in the domain; elementwise over arrays."""
        inside = True
        for name in self.coords:
            lo, hi = (float(x) for x in self.domain[name])
            v = env[name]
            inside = inside & (lo - 1e-12 <= v) & (v <= hi + 1e-12)
        return inside

    def sample_points(self, count: int = 5) -> list:
        """Deterministic interior points of the box."""
        fracs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                 Fraction(1, 5), Fraction(4, 5), Fraction(2, 7), Fraction(5, 7)]
        box = [(c, Fraction(self.domain[c][0]), Fraction(self.domain[c][1]))
               for c in self.coords]
        return [{c: float(lo + (hi - lo) * fracs[(k + i) % len(fracs)])
                 for i, (c, lo, hi) in enumerate(box)} for k in range(count)]

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "SmoothConnection":
        rank = parse_int(obj["rank"])
        coords = tuple(obj["coords"])
        domain = {c: (parse_rational(lo), parse_rational(hi))
                  for c, (lo, hi) in obj["domain"].items()}
        comps = {name: tuple(tuple(CExpr(parse_expr(str(re)),
                                         parse_expr(str(im)))
                                   for re, im in row) for row in rows)
                 for name, rows in obj.get("A", {}).items()}
        return cls(rank, coords, domain, comps)

    @classmethod
    def load(cls, path) -> "SmoothConnection":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def curvature(conn: SmoothConnection) -> Form:
    """F = dA + A wedge A, antisymmetric in the form indices; computed on
    first use and kept, since a connection is not changed once built."""
    return conn._curvature


def finite_difference_curvature(conn: SmoothConnection, env: dict,
                                step: float = 1e-5) -> dict:
    """Central-difference approximation of dA + [A,A]/... at one point,
    for validating the symbolic curvature."""
    def d(name, along):
        up = dict(env, **{along: env[along] + step})
        down = dict(env, **{along: env[along] - step})
        return (conn.evaluate_at(name, up) - conn.evaluate_at(name, down)) \
            / (2 * step)

    out = {}
    for (i, ci), (j, cj) in itertools.combinations(enumerate(conn.coords), 2):
        Ai, Aj = conn.evaluate_at(ci, env), conn.evaluate_at(cj, env)
        out[(i, j)] = d(cj, ci) - d(ci, cj) + Ai @ Aj - Aj @ Ai
    return out


# ---------------------------------------------------------------------------
# Character forms with the formal variable b (degree -2)
# ---------------------------------------------------------------------------

@dataclass
class BGradedForm:
    """Finite list of (k, form) terms representing sum_k b^k form_k; b is
    purely formal and never evaluated.  For character forms every term has
    total degree 0 (form degree 2k); transgressed forms have total degree
    -1 (form degree 2k - 1)."""

    terms: list
    total_degree: int = 0

    def __post_init__(self):
        for k, form in self.terms:
            if form.degree != 2 * k + self.total_degree:
                raise ValueError(
                    f"term b^{k} has form degree {form.degree}, expected "
                    f"{2 * k + self.total_degree}")

    def term(self, k: int):
        return next((form for kk, form in self.terms if kk == k), None)

    def constant_value(self):
        """The scalar value when the whole form is the constant b^0 term;
        None if any higher component survives."""
        val = Fraction(0)
        for k, form in self.terms:
            if form.is_zero():
                continue
            if k != 0 or set(form.comps) != {()}:
                return None
            c = form.comps[()]
            if not (isinstance(c, CExpr) and isinstance(c.re, Const)
                    and isinstance(c.im, Const) and c.im.value == 0):
                return None
            val += c.re.value
        return val

    def max_abs(self, env) -> float:
        return max((form.max_abs(env) for _, form in self.terms), default=0.0)


def chern_character_form(conn: SmoothConnection) -> BGradedForm:
    """Tr exp(bF) = sum_k b^k Tr(F^k) / k!, expanded to the top nonzero
    power (bounded by the number of coordinates)."""
    F = curvature(conn)
    terms = [(0, Form(0, {(): cnum(conn.rank)}))]
    power = F
    k = 1
    kmax = len(conn.coords) // 2
    while k <= kmax and not power.is_zero():
        terms.append((k, power.trace().scale(Fraction(1, math.factorial(k)))))
        k += 1
        if k <= kmax:
            power = power.wedge(F)
    return BGradedForm([(k, f) for k, f in terms if not f.is_zero()] or
                       [(0, Form(0, {(): cnum(conn.rank)}))],
                       total_degree=0)


def closedness_residual(form: BGradedForm, conn: SmoothConnection) -> float:
    """Numeric sup of |d(term)| over the sample points of conn; zero for
    closed forms."""
    env = stack_points(conn.sample_points())
    return max((sform.exterior_d(conn.coords).max_abs(env)
                for _, sform in form.terms), default=0.0)


def stack_points(points: list) -> dict:
    """A list of points as one point of arrays, for broadcast evaluation."""
    return {c: np.array([p[c] for p in points]) for c in points[0]}


# ---------------------------------------------------------------------------
# Transgression along a path of connections
# ---------------------------------------------------------------------------

@functools.cache
def gauss_legendre01(steps: int):
    """Gauss-Legendre nodes and weights on [0, 1]; computed once per step
    count and shared, so both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(steps)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# the coordinate of a connection path that runs over [0, 1], and the
# largest change of a transgressed coefficient under doubled steps that
# counts as converged
PATH_PARAM = "u"
TRANSGRESS_TOL = 1e-9


class QuadratureCoefficient:
    """Coefficient function obtained by integrating an expression over the
    path parameter PATH_PARAM with Gauss-Legendre nodes."""

    __slots__ = ("integrand", "nodes", "weights")

    def __init__(self, integrand: CExpr, steps: int):
        self.integrand = integrand
        self.nodes, self.weights = gauss_legendre01(steps)

    def eval(self, env: dict):
        """The integral at one point or, broadcast, at arrays of points."""
        e = {c: np.expand_dims(v, -1) for c, v in env.items()}
        e[PATH_PARAM] = self.nodes
        return self.integrand.eval(e) @ self.weights


def _transgress_terms(path: SmoothConnection):
    param = PATH_PARAM
    if param not in path.coords:
        raise ValueError(f"path connection has no coordinate {param!r}")
    lo, hi = path.domain[param]
    if not (Fraction(lo) <= 0 and Fraction(hi) >= 1):
        raise ValueError(f"path domain must include {param} in [0, 1]")
    p = path.coords.index(param)
    base = tuple(c for c in path.coords if c != param)
    renum = {i: (i if i < p else i - 1) for i in range(len(path.coords))
             if i != p}
    ch = chern_character_form(path)
    terms = []
    for k, sform in ch.terms:
        comps = {}
        for idx, c in sform.comps.items():
            if p not in idx:
                continue
            pos = idx.index(p)
            rest = tuple(renum[i] for i in idx if i != p)
            coef = c if pos % 2 == 0 else -c
            _accumulate(comps, rest, coef)
        if comps:
            terms.append((k, comps))
    return terms, base


def transgress_ch(path: SmoothConnection, steps: int = 64):
    """Fiber integration over the path parameter PATH_PARAM of the
    character form of a connection path; defined modulo exact forms.

    Returns (BGradedForm on the base coordinates with numeric quadrature
    coefficients, converged flag); the flag compares against doubled steps
    at deterministic sample points, within TRANSGRESS_TOL.
    """
    terms, base = _transgress_terms(path)

    def build(nsteps):
        return BGradedForm(
            [(k, Form(2 * k - 1,
                      {idx: QuadratureCoefficient(c, nsteps)
                       for idx, c in comps.items()}))
             for k, comps in terms], total_degree=-1)

    result, refined = build(steps), build(2 * steps)
    probe = SmoothConnection(1, base, {c: path.domain[c] for c in base}, {})
    env = stack_points(probe.sample_points())
    converged = not any(
        np.any(np.abs(result.term(k).eval_component(idx, env)
                      - refined.term(k).eval_component(idx, env))
               > TRANSGRESS_TOL)
        for k, comps in terms for idx in comps)
    return result, converged


# ---------------------------------------------------------------------------
# Loops and holonomy
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    """Parametric closed curve; coordinates as expressions in u from 0 to 1.

    periods, when given, declare coordinates in which the connection is
    periodic; closedness is then checked modulo the period.
    """

    exprs: dict                  # coord name -> Expr in "u"
    periods: dict = field(default_factory=dict)
    tolerance: float = 1e-9
    velocity_exprs: dict = field(init=False, repr=False)

    def __post_init__(self):
        for name, e in self.exprs.items():
            check_bound(e, ("u",))
        self.velocity_exprs = {c: symbolic_d(e, "u")
                               for c, e in self.exprs.items()}

    def point(self, u) -> dict:
        """Coordinates at u, a float or an array of parameters."""
        return {c: evaluate(e, {"u": u}) for c, e in self.exprs.items()}

    def velocity(self, u) -> dict:
        return {c: evaluate(e, {"u": u})
                for c, e in self.velocity_exprs.items()}

    def closure_defect(self) -> float:
        p0, p1 = self.point(0.0), self.point(1.0)
        worst = 0.0
        for c in self.exprs:
            d = p1[c] - p0[c]
            if c in self.periods:
                per = float(self.periods[c])
                d = d - per * round(d / per)
            worst = max(worst, abs(d))
        return worst

    def is_closed(self) -> bool:
        return self.closure_defect() <= self.tolerance

    @classmethod
    def from_json(cls, obj: dict) -> "Loop":
        exprs = {c: parse_expr(str(e)) for c, e in obj["coords"].items()}
        periods = {c: parse_rational(p) for c, p in obj.get("periods", {}).items()}
        tol = float(obj.get("tolerance", 1e-9))
        return cls(exprs, periods, tol)

    @classmethod
    def load(cls, path) -> "Loop":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class LoopOutsideDomain(ValueError):
    def __init__(self, u: float, env: dict):
        super().__init__(f"loop leaves the connection domain at u = {u:.6f}: "
                         f"{env}")
        self.u = u


def _wrap_env(conn: SmoothConnection, loop: Loop, env: dict) -> dict:
    out = dict(env)
    for c, per in loop.periods.items():
        if c in conn.domain:
            lo = float(conn.domain[c][0])
            out[c] = lo + ((out[c] - lo) % float(per))
    return out


# Steps of `transport` whose propagators are built and multiplied in one
# batch: enough to make the per-call cost vanish, few enough to keep the
# node and propagator arrays small.  The block size is part of the result,
# since it sets where the pairwise product tree splits, and the golden
# holonomy reports pin it: each of 512, 2048, 4096 and 8192 moves the
# 4096-step holonomy of rotation_plane on circle_r05 by 1.1e-16.  8192
# steps per block also left the holonomy benchmark's verdict time near
# 0.019 s (0.018-0.019 s in two 10 s runs) and raised its peak resident
# memory by 2.5 MB (35.8 -> 38.3 MB).
TRANSPORT_BLOCK = 1024


def transport(conn: SmoothConnection, loop: Loop, u0: float, u1: float,
              steps: int) -> np.ndarray:
    """Parallel transport along the curve from u0 to u1: classic RK4 on
    U' = -A(gamma(u)) gamma'(u) U with uniform steps.

    The equation is linear, so each RK4 step is U -> Phi_k U with Phi_k
    built from the generators at u_k, u_k + h/2 and u_k + h alone.  Per
    block of TRANSPORT_BLOCK steps, all Phi_k are built as one batched
    array and multiplied in order by a pairwise tree of batched products;
    multiplying the Phi_k one after another instead would lose about ten
    times more to rounding.

    Every stack of matrices here is entry-major, shape (r, r, steps), so
    that each matrix entry is one contiguous vector over the steps, and
    is multiplied by _stack_product: np.matmul on a stack of shape
    (steps, r, r) makes one BLAS call per matrix, which for r = 2 costs
    over ten times the r broadcast multiply-adds of the whole stack."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    missing = set(conn.coords) - set(loop.exprs)
    if missing:
        raise ValueError(f"loop gives no value for coordinate(s) "
                         f"{sorted(missing)} of the connection")
    U = np.eye(conn.rank, dtype=complex)
    h = (u1 - u0) / steps
    for first in range(0, steps, TRANSPORT_BLOCK):
        last = min(first + TRANSPORT_BLOCK, steps)
        # generators at the step ends and midpoints of this block
        M = _generator(conn, loop,
                       u0 + h / 2 * np.arange(2 * first, 2 * last + 1))
        U = _ordered_product(_rk4_propagators(M, h)) @ U
    return U


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a_n b_n of two entry-major stacks of r x r matrices,
    shape (r, r, n): sum over k of column k of a times row k of b, as r
    broadcast multiply-adds over all n matrices at once."""
    out = a[:, :1] * b[:1]
    for k in range(1, a.shape[1]):
        out += a[:, k:k + 1] * b[k:k + 1]
    return out


def _rk4_propagators(M: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step matrices Phi_k, entry-major of shape (r, r, steps),
    from the generators M, entry-major at the 2 steps + 1 step ends and
    midpoints."""
    one = np.eye(M.shape[0])[:, :, None]
    mid = M[:, :, 1::2]
    k1 = M[:, :, :-1:2]
    k2 = _stack_product(mid, one + h / 2 * k1)
    k3 = _stack_product(mid, one + h / 2 * k2)
    k4 = _stack_product(M[:, :, 2::2], one + h * k3)
    return one + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _ordered_product(P: np.ndarray) -> np.ndarray:
    """P_{n-1} ... P_0 of an entry-major stack P of shape (r, r, n), by a
    pairwise tree of stack products; an odd last factor is carried up a
    level."""
    while P.shape[-1] > 1:
        even = P.shape[-1] - P.shape[-1] % 2
        pairs = _stack_product(P[:, :, 1:even:2], P[:, :, 0:even:2])
        P = np.concatenate((pairs, P[:, :, even:]), axis=-1)
    return P[:, :, 0]


def _generator(conn: SmoothConnection, loop: Loop, u: np.ndarray
               ) -> np.ndarray:
    """-A(gamma(u)) gamma'(u), entry-major of shape (r, r, len(u)), from
    the nonzero entries of each A_c alone, evaluated only where c moves;
    LoopOutsideDomain at the first u outside.

    M starts at +0.0 and never holds -0.0, so an entry left out, which
    would subtract 0 * v = +-0.0, leaves M as it is to the bit."""
    env = _wrap_env(conn, loop, loop.point(u))
    inside = conn.contains(env)
    if not np.all(inside):
        j = int(np.argmin(inside))
        raise LoopOutsideDomain(float(u[j]),
                                {c: float(v[j]) for c, v in env.items()})
    vel = loop.velocity(u)
    M = np.zeros((conn.rank, conn.rank, len(u)), dtype=complex)
    for name in (c for c in conn.coords if c in conn.comps):
        v = vel[name]
        moving = v != 0.0
        if moving.all():
            at, moving = env, slice(None)
        else:
            at = {c: x[moving] for c, x in env.items()}
        for i, j, entry in conn.comps[name].nonzero:
            M[i, j, moving] -= entry.eval(at) * v[moving]
    return M


def holonomy(conn: SmoothConnection, loop: Loop, steps: int = 4096
             ) -> np.ndarray:
    """Holonomy matrix of the loop."""
    if not loop.is_closed():
        raise ValueError(
            f"loop endpoint mismatch {loop.closure_defect():.3e} exceeds "
            f"tolerance {loop.tolerance:.1e}")
    return transport(conn, loop, 0.0, 1.0, steps)


def bch_zero(conn: SmoothConnection, loop: Loop, steps: int = 4096) -> complex:
    """Trace of the holonomy: the degree-zero loop invariant of (V, nabla)."""
    return complex(np.trace(holonomy(conn, loop, steps)))


def shoelace_area(loop: Loop) -> float:
    """Signed area enclosed by a loop in the (s, t) plane (oracle for the
    area law), by 256-node Gauss-Legendre quadrature."""
    u, w = gauss_legendre01(256)
    p, v = loop.point(u), loop.velocity(u)
    return float(w @ (0.5 * (p["s"] * v["t"] - p["t"] * v["s"])))
