"""U(1) lattice bundles with connection on closed oriented surfaces.

A bundle is a pair (n, a): an integral 2-cocycle n and a rational 1-cochain
a, in 2 pi normalized units so that all periods of the curvature
w = delta a + n are integers.  The associated differential class is the
triple (n, a, delta a + n) with truncation 2; holonomies of 1-cycles are
the rational numbers a(z) mod 1, and the differential-character property
says the holonomy of a boundary is the curvature integral mod 1.

The chart machinery at the bottom discretizes a smooth rank-1 connection
path onto a surface complex (edge and face integrals by quadrature, then
nearest-rational rounding) and verifies the cycle-map homotopy formula:
the difference of the endpoint classes is a( discretized transgression ).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bundles import SmoothConnection, gauss_legendre01, transgress_ch
from .cells import CellComplex, bundled_complex
from .chains import parse_int
from .diffcoh import (DifferentialCochain, equal_classes, forms_a,
                      integral_cohomology)
from .linalg import (as_vector, check_int_entries, int_kernel_basis, is_zero,
                     mv, zeros)


def fundamental_cycle(K: CellComplex) -> np.ndarray:
    """Integral 2-cycle generating H_2 of a closed oriented surface; the
    sign is normalized so the first nonzero coefficient is positive."""
    if K.dim != 2:
        raise ValueError("fundamental cycle needs a 2-dimensional complex")
    ker = int_kernel_basis(K.boundary_matrix(2))
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
    return z


@dataclass
class LatticeLineBundle:
    """(n, a) on a closed oriented surface complex."""

    complex: CellComplex
    n: np.ndarray        # integral 2-cochain
    a: np.ndarray        # rational 1-cochain

    def __post_init__(self):
        K = self.complex
        self.n = check_int_entries(as_vector(self.n, K.n_cells(2)))
        self.a = as_vector(self.a, K.n_cells(1))
        # on a surface the top coboundary is zero, but assert the invariant
        if K.dim > 2 and not is_zero(mv(K.boundary_matrix(3).T, self.n)):
            raise ValueError("n must be a cocycle")
        self._fund = fundamental_cycle(K)

    def curvature(self) -> np.ndarray:
        """delta a + n, the 2 pi normalized field strength per face."""
        return mv(self.complex.boundary_matrix(2).T, self.a) + self.n

    def total_flux(self) -> Fraction:
        w = self.curvature()
        return sum((Fraction(x) * int(c) for x, c in zip(w, self._fund)),
                   Fraction(0))

    @classmethod
    def from_json(cls, obj: dict, K: CellComplex | None = None
                  ) -> "LatticeLineBundle":
        if K is None:
            ref = str(obj["complex"])
            if ref.endswith(".json") or "/" in ref:
                from .cells import load_complex
                K = load_complex(ref)
            else:
                K = bundled_complex(ref)
        n = [parse_int(v) for v in obj["n"]]
        a = [Fraction(str(v)) for v in obj["a"]]
        return cls(K, np.array(n, dtype=object), np.array(a, dtype=object))


def lattice_class(L: LatticeLineBundle) -> DifferentialCochain:
    """The differential class (n, a, delta a + n) with m = 2, degree 2."""
    return DifferentialCochain(L.complex, 2, 2, L.n, L.a, L.curvature())


def monopole(K: CellComplex, charge: int) -> LatticeLineBundle:
    """n = charge times the dual of one positively oriented facet, a = 0."""
    fund = fundamental_cycle(K)
    n = zeros(K.n_cells(2), 1).reshape(-1)
    for i, c in enumerate(fund):
        if c == 1:
            n[i] = charge
            break
    return LatticeLineBundle(K, n, zeros(K.n_cells(1), 1).reshape(-1))


def gauge_transform(L: LatticeLineBundle, lam, mu) -> LatticeLineBundle:
    """a -> a + delta lam + mu, n -> n - delta mu for a rational 0-cochain
    lam and an integral 1-cochain mu; the class is unchanged."""
    K = L.complex
    lam = as_vector(lam, K.n_cells(0))
    mu = check_int_entries(as_vector(mu, K.n_cells(1)))
    d0, d1 = K.boundary_matrix(1).T, K.boundary_matrix(2).T
    return LatticeLineBundle(K, L.n - mv(d1, mu), L.a + mv(d0, lam) + mu)


def differential_character(L: LatticeLineBundle, z) -> Fraction:
    """Holonomy a(z) mod 1 of an integral 1-cycle z, valued in [0, 1)."""
    K = L.complex
    z = check_int_entries(as_vector(z, K.n_cells(1)))
    if not is_zero(mv(K.boundary_matrix(1), z)):
        raise ValueError("argument must be a 1-cycle")
    val = sum((Fraction(x) * int(c) for x, c in zip(L.a, z)), Fraction(0))
    return val % 1


def cs_property_check(L: LatticeLineBundle, w) -> bool:
    """chi(boundary w) = <curvature, w> mod 1 for any integral 2-chain w."""
    K = L.complex
    w = check_int_entries(as_vector(w, K.n_cells(2)))
    bnd = mv(K.boundary_matrix(2), w)
    chi = differential_character(L, bnd)
    pairing = sum((Fraction(x) * int(c)
                   for x, c in zip(L.curvature(), w)), Fraction(0))
    return chi == pairing % 1


# ---------------------------------------------------------------------------
# Discretization of smooth rank-1 connections onto a surface chart
# ---------------------------------------------------------------------------

@dataclass
class SurfaceChart:
    """Piecewise linear realization of a surface complex on a rational box
    (optionally periodic): vertex positions plus nearest-lift unwrapping of
    edges and faces."""

    complex: CellComplex
    coords: tuple                 # the two base coordinate names, in order
    positions: dict               # vertex id -> (Fraction, Fraction)
    periods: tuple | None = None  # (Fraction, Fraction) or None

    def lift(self, p, q):
        """Representative of q nearest to p (componentwise, periodic case)."""
        if self.periods is None:
            return q
        out = []
        for x, y, per in zip(p, q, self.periods):
            d = Fraction(y) - Fraction(x)
            shift = round(d / per)
            out.append(Fraction(y) - shift * Fraction(per))
        return tuple(out)

    def edge_segment(self, edge):
        va, vb = edge
        pa = self.positions[va]
        pb = self.lift(pa, self.positions[vb])
        return pa, pb

    def face_triangle(self, face):
        v0, v1, v2 = face
        p0 = self.positions[v0]
        p1 = self.lift(p0, self.positions[v1])
        p2 = self.lift(p0, self.positions[v2])
        return p0, p1, p2

    @classmethod
    def from_json(cls, obj: dict, coords=("s", "t")) -> "SurfaceChart":
        K = bundled_complex(obj["complex"])
        positions = {}
        for vid, (x, y) in obj["vertices"].items():
            label = int(vid) if str(vid).lstrip("-").isdigit() else vid
            positions[label] = (Fraction(str(x)), Fraction(str(y)))
        labels = {v[0] for v in K.cells(0)}
        if labels - set(positions):
            raise ValueError(f"chart misses vertices {labels - set(positions)}")
        periods = None
        if obj.get("periods"):
            periods = tuple(Fraction(str(p)) for p in obj["periods"])
        return cls(K, tuple(coords), positions, periods)

    @classmethod
    def load(cls, path) -> "SurfaceChart":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def nearest_rational(x: float, max_den: int = 10 ** 6) -> Fraction:
    """Best rational approximation with bounded denominator."""
    return Fraction(x).limit_denominator(max_den)


def _edge_cochain(chart: SurfaceChart, one_form, steps: int,
                  max_den: int) -> np.ndarray:
    """Line integrals of a real 1-form along every lifted edge, rounded to
    nearest rationals; one_form maps a point of arrays (edge, node) to its
    two coefficient arrays, so all nodes are evaluated in one call."""
    u, w = gauss_legendre01(steps)
    segs = [chart.edge_segment(e) for e in chart.complex.cells(1)]
    start = np.array([[float(x) for x in pa] for pa, _ in segs])[:, None]
    d = np.array([[float(y - x) for x, y in zip(pa, pb)] for pa, pb in segs])
    pts = start + u[:, None] * d[:, None]
    a_s, a_t = one_form(dict(zip(chart.coords, np.moveaxis(pts, -1, 0))))
    vals = np.sum(w * (a_s * d[:, :1] + a_t * d[:, 1:]), axis=-1)
    return np.array([nearest_rational(float(v), max_den) for v in vals],
                    dtype=object)


def _face_integrals(chart: SurfaceChart, two_form, steps: int) -> np.ndarray:
    """Signed integrals of a 2-form coefficient over every lifted affine
    triangle in its face's vertex order, all nodes in one call."""
    nodes, w = gauss_legendre01(steps)
    tris = [chart.face_triangle(f) for f in chart.complex.cells(2)]
    p0 = np.array([[float(x) for x in t[0]] for t in tris])
    e1, e2 = (np.array([[float(y - x) for x, y in zip(t[0], t[k])]
                        for t in tris]) for k in (1, 2))
    jac = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # Duffy map of the square of node pairs (x, y) onto each triangle
    x, y = nodes[:, None, None], nodes[None, :, None]
    pts = p0[:, None, None] + x * e1[:, None, None] \
        + y * (1 - x) * e2[:, None, None]
    f = two_form(dict(zip(chart.coords, np.moveaxis(pts, -1, 0))))
    return np.sum(w[:, None] * w * (1 - x[..., 0]) * f, axis=(-2, -1)) * jac


def discretize_connection(conn: SmoothConnection, chart: SurfaceChart,
                          u_value, steps: int = 24,
                          max_den: int = 10 ** 6) -> LatticeLineBundle:
    """Sample a rank-1 connection (real entries, 2 pi normalized) at one
    path parameter onto the chart: a by edge integrals, n by rounding
    face flux minus delta a."""
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

    a = _edge_cochain(chart, conn_env, steps, max_den)

    from .bundles import curvature as smooth_curvature
    F = smooth_curvature(conn)
    si = conn.coords.index(s_name)
    ti = conn.coords.index(t_name)
    key = (min(si, ti), max(si, ti))
    comp = F.comps.get(key)

    def f_eval(pt):
        if comp is None:
            return 0.0
        v = comp[0][0].eval({**pt, **fixed})
        return v.real if si < ti else -v.real

    da = mv(K.boundary_matrix(2).T, a)
    n = [int(round(flux - float(d)))
         for flux, d in zip(_face_integrals(chart, f_eval, steps), da)]
    return LatticeLineBundle(K, np.array(n, dtype=object), a)


def cycle_map_homotopy_check(path: SmoothConnection, chart: SurfaceChart,
                             steps: int = 24, max_den: int = 10 ** 6,
                             param: str = "u", endpoints=None) -> dict:
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
        L0 = discretize_connection(path, chart, 0, steps=steps, max_den=max_den)
        L1 = discretize_connection(path, chart, 1, steps=steps, max_den=max_den)
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
    tg, converged = transgress_ch(path, steps=max(steps, 32), param=param)
    report["transgression_converged"] = bool(converged)
    term = tg.term(1)
    s_name, t_name = chart.coords
    base = tuple(c for c in path.coords if c != param)
    si, ti = base.index(s_name), base.index(t_name)

    def tg_env(pt):
        if term is None:
            return (0.0, 0.0)
        return tuple(np.real(term.eval_component((i,), pt)) for i in (si, ti))

    tvec = _edge_cochain(chart, tg_env, steps, max_den)

    diff = x1 - x0
    eq, wit = equal_classes(diff, forms_a(K, 2, tvec, n=2))
    report["passed"] = bool(eq)
    report["witness_found"] = bool(eq)
    if not eq:
        report["error"] = "no witness for class(1) - class(0) = a(transgression)"
    return report
