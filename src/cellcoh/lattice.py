"""U(1) lattice bundles with connection on closed oriented surfaces.

A bundle is a pair (n, a): an integral 2-cocycle n and a rational 1-cochain
a, in 2 pi normalized units so that all periods of the curvature
w = delta a + n are integers.  The associated differential class is the
triple (n, a, delta a + n) with truncation 2; holonomies of 1-cycles are
the rational numbers a(z) mod 1, and the differential-character property
says the holonomy of a boundary is the curvature integral mod 1.

A bundle keeps a and its curvature as integer numerators over one
denominator, like every rational cochain of the package: holonomies and the
character check are integer dot products, and Fractions are built only
where a value leaves the module.

The chart machinery at the bottom discretizes a smooth rank-1 connection
path onto a surface complex (edge and face integrals by quadrature, then
nearest-rational rounding) and verifies the cycle-map homotopy formula:
the difference of the endpoint classes is a( discretized transgression ).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .bundles import (PATH_PARAM, SmoothConnection, gauss_legendre01,
                      transgress_ch)
from .cells import CellComplex, named_complex
from .chains import parse_int, parse_rational
from .diffcoh import (DifferentialCochain, equal_classes, forms_a,
                      integral_cohomology)
from .linalg import (IntSolver, _int_mv, as_vector, check_int_entries,
                     from_numerators, is_zero, to_numerators, zeros)


def fundamental_cycle(K: CellComplex) -> np.ndarray:
    """Integral 2-cycle generating H_2 of a closed oriented surface; the
    sign is normalized so the first nonzero coefficient is positive.
    Computed once per complex and kept read-only."""
    return K.kept("fundamental_cycle", lambda: _fundamental_cycle(K))


def _fundamental_cycle(K: CellComplex) -> np.ndarray:
    if K.dim != 2:
        raise ValueError("fundamental cycle needs a 2-dimensional complex")
    ker = IntSolver(K.boundary_matrix(2)).kernel_basis()
    if ker.shape[1] != 1:
        raise ValueError(
            f"H_2 has rank {ker.shape[1]}; need a closed oriented surface")
    z = ker[:, 0]
    for x in z:
        if x != 0:
            if x < 0:
                z = -z
            break
    if any(abs(int(x)) != 1 for x in z):
        raise ValueError("fundamental cycle is not unimodular on facets")
    z.setflags(write=False)
    return z


class LatticeLineBundle:
    """(n, a) on a closed oriented surface complex.

    n is kept as Python ints, a as integer numerators an over one
    denominator den > 0 and the curvature delta a + n as its numerators
    wn = delta an + den n; .a and .curvature() build the rational vectors.
    Given den, n and a are taken as such ints and numerators, unchecked.
    """

    __slots__ = ("complex", "n", "an", "den", "wn", "_fund")

    def __init__(self, complex: CellComplex, n, a, den: int | None = None):
        if den is None:
            n = check_int_entries(as_vector(n, complex.n_cells(2)))
            a, den = to_numerators(as_vector(a, complex.n_cells(1)))
        self._fund = fundamental_cycle(complex)
        self.complex, self.n, self.an, self.den = complex, n, a, den
        self.wn = _int_mv(complex.boundary_matrix(2).T, a) + den * n

    @property
    def a(self) -> np.ndarray:
        return from_numerators(self.an, self.den)

    def curvature(self) -> np.ndarray:
        """delta a + n, the 2 pi normalized field strength per face."""
        return from_numerators(self.wn, self.den)

    def total_flux(self) -> Fraction:
        return Fraction(self.wn @ self._fund, self.den)

    @classmethod
    def from_json(cls, obj: dict) -> "LatticeLineBundle":
        n = [parse_int(v) for v in obj["n"]]
        a = [parse_rational(v) for v in obj["a"]]
        return cls(named_complex(obj["complex"]), np.array(n, dtype=object),
                   np.array(a, dtype=object))


def lattice_class(L: LatticeLineBundle) -> DifferentialCochain:
    """The differential class (n, a, delta a + n) with m = 2, degree 2."""
    return DifferentialCochain(L.complex, 2, 2, L.n, L.an, L.wn, L.den)


def monopole(K: CellComplex, charge: int) -> LatticeLineBundle:
    """n = charge times the dual of one positively oriented facet, a = 0."""
    n = zeros(K.n_cells(2), 1).reshape(-1)
    n[list(fundamental_cycle(K)).index(1)] = charge
    return LatticeLineBundle(K, n, zeros(K.n_cells(1), 1).reshape(-1))


def gauge_transform(L: LatticeLineBundle, lam, mu) -> LatticeLineBundle:
    """a -> a + delta lam + mu, n -> n - delta mu for a rational 0-cochain
    lam and an integral 1-cochain mu; the class is unchanged."""
    K = L.complex
    lam, q = to_numerators(as_vector(lam, K.n_cells(0)))
    mu = check_int_entries(as_vector(mu, K.n_cells(1)))
    d0, d1 = K.boundary_matrix(1).T, K.boundary_matrix(2).T
    den = lcm(L.den, q)
    an = den // L.den * L.an + den // q * _int_mv(d0, lam) + den * mu
    return LatticeLineBundle(K, L.n - _int_mv(d1, mu), an, den)


def _holonomy(L: LatticeLineBundle, z) -> int:
    """The numerator of a(z) mod 1 over L.den, for an integral 1-cycle z."""
    K = L.complex
    z = check_int_entries(as_vector(z, K.n_cells(1)))
    if not is_zero(_int_mv(K.boundary_matrix(1), z)):
        raise ValueError("argument must be a 1-cycle")
    return L.an @ z % L.den


def differential_character(L: LatticeLineBundle, z) -> Fraction:
    """Holonomy a(z) mod 1 of an integral 1-cycle z, valued in [0, 1)."""
    return Fraction(_holonomy(L, z), L.den)


def cs_property_check(L: LatticeLineBundle, w) -> bool:
    """chi(boundary w) = <curvature, w> mod 1 for any integral 2-chain w,
    on numerators over L.den."""
    K = L.complex
    w = check_int_entries(as_vector(w, K.n_cells(2)))
    chi = _holonomy(L, _int_mv(K.boundary_matrix(2), w))
    return chi == L.wn @ w % L.den


# ---------------------------------------------------------------------------
# Discretization of smooth rank-1 connections onto a surface chart
# ---------------------------------------------------------------------------

@dataclass
class SurfaceChart:
    """Piecewise linear realization of a surface complex on a rational box
    (optionally periodic): vertex positions plus nearest-lift unwrapping of
    edges and faces.  A chart is not changed once built: the lifted edges
    and faces are computed on first use and kept.

    Lifts run on integer numerators over the least common denominator of
    the positions and periods, and a float is made from each lifted
    numerator by one correctly rounded division."""

    complex: CellComplex
    coords: tuple                 # the two base coordinate names, in order
    positions: dict               # vertex id -> (Fraction, Fraction)
    periods: tuple | None = None  # (Fraction, Fraction) or None

    @cached_property
    def _grid(self):
        """(den, vertex -> row, numerators, periods): the positions as an
        object array of ints of shape (vertices, 2) over den, and the
        absolute periods over den (None when not periodic)."""
        vals = [Fraction(x) for p in self.positions.values() for x in p]
        vals += [Fraction(p) for p in self.periods or ()]
        den = lcm(*(x.denominator for x in vals))
        num = np.array([x.numerator * (den // x.denominator) for x in vals],
                       dtype=object)
        n = 2 * len(self.positions)
        per = None if self.periods is None else abs(num[n:])
        return (den, {v: k for k, v in enumerate(self.positions)},
                num[:n].reshape(-1, 2), per)

    def _lift(self, cells) -> np.ndarray:
        """Numerators over den of the vertices of each cell, shape (cells,
        vertices, 2): every vertex after the first is moved by whole
        periods to its representative nearest the first, componentwise,
        ties to even as round() breaks them (a shift by -p rounds to minus
        the shift by p, so a period is used by its absolute value)."""
        den, row, num, per = self._grid
        pts = num[[[row[v] for v in c] for c in cells]]
        if per is not None:
            d = pts[:, 1:] - pts[:, :1]
            q, r = d // per, d % per
            pts[:, 1:] -= (q + ((2 * r > per)
                                | ((2 * r == per) & (q % 2 == 1)))) * per
        return pts

    def _fractions(self, cell) -> tuple:
        den = self._grid[0]
        return tuple(tuple(Fraction(x, den) for x in p)
                     for p in self._lift([cell])[0])

    def edge_segment(self, edge):
        """(start, end) of the lifted edge, as pairs of Fractions."""
        return self._fractions(edge)

    def face_triangle(self, face):
        """The three lifted corners of a face, as pairs of Fractions."""
        return self._fractions(face)

    def _floats(self, num) -> np.ndarray:
        """Read-only float array of numerators over den, each correctly
        rounded as float(Fraction) rounds it."""
        return _read_only((num / self._grid[0]).astype(float))

    @cached_property
    def edge_geometry(self):
        """(start, direction) of every lifted edge in the complex's edge
        order, as read-only float arrays of shape (edges, 2)."""
        pts = self._lift(self.complex.cells(1))
        return self._floats(pts[:, 0]), self._floats(pts[:, 1] - pts[:, 0])

    @cached_property
    def face_geometry(self):
        """(p0, p1 - p0, p2 - p0) of every lifted face triangle in the
        complex's face order, as read-only float arrays of shape (faces, 2)."""
        pts = self._lift(self.complex.cells(2))
        return (self._floats(pts[:, 0]), self._floats(pts[:, 1] - pts[:, 0]),
                self._floats(pts[:, 2] - pts[:, 0]))

    @classmethod
    def from_json(cls, obj: dict, coords=("s", "t")) -> "SurfaceChart":
        K = named_complex(obj["complex"])
        positions = {}
        for vid, (x, y) in obj["vertices"].items():
            label = int(vid) if str(vid).lstrip("-").isdigit() else vid
            positions[label] = (parse_rational(x), parse_rational(y))
        labels = {v[0] for v in K.cells(0)}
        if labels - set(positions):
            raise ValueError(f"chart misses vertices {labels - set(positions)}")
        periods = None
        if obj.get("periods"):
            periods = tuple(parse_rational(p) for p in obj["periods"])
            if 0 in periods:
                raise ValueError("chart periods must be nonzero")
        return cls(K, tuple(coords), positions, periods)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_MAX_DEN = 10 ** 6


def nearest_rational(x: float, max_den: int = _MAX_DEN) -> Fraction:
    """Best rational approximation with bounded denominator: the Fraction
    Fraction(x).limit_denominator(max_den) gives."""
    return Fraction(*_rounded(x, max_den))


def _rounded(x: float, max_den: int) -> tuple[int, int]:
    """(p, q), q > 0 and coprime to p, with p / q the best approximation of
    x with q <= max_den: the continued-fraction walk of
    Fraction.limit_denominator run on the integers of x.as_integer_ratio()
    (which raises as Fraction(x) does for inf and nan), its tie rule, the
    convergent p1 / q1 over the semiconvergent, as a cross-multiplication."""
    if max_den < 1:
        raise ValueError("max_denominator should be at least 1")
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        c = a // b
        q2 = q0 + c * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + c * p1, q2
        a, b = b, a - c * b
    k = (max_den - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
        return p1, q1
    return p, q


def _edge_cochain(chart: SurfaceChart, one_form, steps: int):
    """(numerators, den): the line integrals of a real 1-form along every
    lifted edge, each rounded by nearest_rational, as integer numerators
    over the lcm of their denominators (what to_numerators gives of the
    Fractions); one_form maps a point of arrays (edge, node) to its two
    coefficient arrays, so all nodes are evaluated in one call."""
    u, w = gauss_legendre01(steps)
    start, d = chart.edge_geometry
    pts = start[:, None] + u[:, None] * d[:, None]
    a_s, a_t = one_form(dict(zip(chart.coords, np.moveaxis(pts, -1, 0))))
    vals = np.sum(w * (a_s * d[:, :1] + a_t * d[:, 1:]), axis=-1)
    pq = [_rounded(v, _MAX_DEN) for v in vals.tolist()]
    den = lcm(*(q for _, q in pq))
    return np.array([p * (den // q) for p, q in pq], dtype=object), den


def _face_integrals(chart: SurfaceChart, two_form, steps: int) -> np.ndarray:
    """Signed integrals of a 2-form coefficient over every lifted affine
    triangle in its face's vertex order, all nodes in one call."""
    nodes, w = gauss_legendre01(steps)
    p0, e1, e2 = chart.face_geometry
    jac = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # Duffy map of the square of node pairs (x, y) onto each triangle
    x, y = nodes[:, None, None], nodes[None, :, None]
    pts = p0[:, None, None] + x * e1[:, None, None] \
        + y * (1 - x) * e2[:, None, None]
    f = two_form(dict(zip(chart.coords, np.moveaxis(pts, -1, 0))))
    return np.sum(w[:, None] * w * (1 - x[..., 0]) * f, axis=(-2, -1)) * jac


def discretize_connection(conn: SmoothConnection, chart: SurfaceChart,
                          u_value, steps: int = 24) -> LatticeLineBundle:
    """Sample a rank-1 connection (real entries, 2 pi normalized) at one
    path parameter onto the chart: a by edge integrals, n by rounding
    face flux minus delta a.  The flux is that of dA, which for rank 1 is
    the curvature; a component of dA that is structurally zero gives the
    flux 0.0 with no quadrature."""
    if conn.rank != 1:
        raise ValueError("discretization needs a rank-1 connection")
    K = chart.complex
    s_name, t_name = chart.coords
    fixed = {c: float(u_value) for c in conn.coords if c not in chart.coords}

    def conn_env(pt):
        a_s, a_t = (conn.evaluate_at(c, {**pt, **fixed})[..., 0, 0]
                    for c in chart.coords)
        if np.any(np.abs([a_s.imag, a_t.imag]) > 1e-12):
            raise ValueError("lattice discretization expects real "
                             "(2 pi normalized) coefficients")
        return (a_s.real, a_t.real)

    an, den = _edge_cochain(chart, conn_env, steps)
    da = _int_mv(K.boundary_matrix(2).T, an)

    si = conn.coords.index(s_name)
    ti = conn.coords.index(t_name)
    comp = conn.dA.comps.get((min(si, ti), max(si, ti)))
    if comp is None:
        flux = np.zeros(len(da))
    else:
        def f_eval(pt):
            v = comp[0][0].eval({**pt, **fixed})
            return v.real if si < ti else -v.real

        flux = _face_integrals(chart, f_eval, steps)
    n = [int(round(f - d / den)) for f, d in zip(flux.tolist(), da)]
    return LatticeLineBundle(K, np.array(n, dtype=object), an, den)


def cycle_map_homotopy_check(path: SmoothConnection, chart: SurfaceChart,
                             steps: int = 24, endpoints=None) -> dict:
    """Discretize both endpoints of a rank-1 connection path and verify
    that the difference of their differential classes is a(transgression),
    with the transgression edge-discretized by the same quadrature.

    A path cannot change the underlying class, so endpoint data with
    different monopole numbers is rejected and reported; `endpoints`
    optionally supplies pre-discretized (L0, L1) lattice data, which is how
    that guard is exercised.
    """
    report = {"passed": False, "error": None}
    if endpoints is not None:
        L0, L1 = endpoints
    else:
        L0 = discretize_connection(path, chart, 0, steps=steps)
        L1 = discretize_connection(path, chart, 1, steps=steps)
    K = chart.complex
    hd = integral_cohomology(K, 2)
    if not hd.classes_equal(L1.n, L0.n):
        report["error"] = (
            "endpoint discretizations have different underlying classes "
            f"(total flux {L1.total_flux()} vs {L0.total_flux()}); a genuine "
            "path of connections cannot change the underlying class")
        return report
    x1, x0 = lattice_class(L1), lattice_class(L0)

    # transgression: b-linear term of the character form of the path,
    # integrated over the parameter and then over the chart edges
    tg, converged = transgress_ch(path, steps=max(steps, 32))
    report["transgression_converged"] = bool(converged)
    term = tg.term(1)
    s_name, t_name = chart.coords
    base = tuple(c for c in path.coords if c != PATH_PARAM)
    si, ti = base.index(s_name), base.index(t_name)

    def tg_env(pt):
        if term is None:
            return (0.0, 0.0)
        return tuple(np.real(term.eval_component((i,), pt)) for i in (si, ti))

    tn, tden = _edge_cochain(chart, tg_env, steps)

    diff = x1 - x0
    eq, wit = equal_classes(diff, forms_a(K, 2, 2, tn, tden))
    report["passed"] = bool(eq)
    report["witness_found"] = bool(eq)
    if not eq:
        report["error"] = "no witness for class(1) - class(0) = a(transgression)"
    return report
