"""Finite regular cell complexes standing in for manifolds.

Simplicial complexes built from facets, products with an interval (prisms)
and with a 3-vertex circle, cochains, pullback along cellular maps, and the
two fiber integrations.  Product boundaries follow the Leibniz rule
d(c x s) = dc x s + (-1)^|c| c x ds with the first factor the interval or
circle cell; this is the single place the product sign convention lives,
and it is what makes the two Stokes identities below hold verbatim:

    prism:  pi_!(delta z) + delta(pi_! z) = end1* z - end0* z
    circle: pi_!(delta z) + delta(pi_! z) = 0
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chains import RING_Q, RING_Z, Complex, parse_int
from .linalg import as_vector, int_storage, int_zeros, is_zero, mm, mv, zeros


class CellComplex:
    """Cells with integer boundary incidences; construction checks dd = 0
    and raises ValueError where it fails.

    Cell ids are arbitrary hashable values; per-dimension orderings are
    fixed at construction time and index the cochain coefficient vectors.
    """

    def __init__(self, cells, labels=None):
        # cells: iterable of (id, dim, boundary) with boundary [(id, inc), ...]
        self.dim_of = {}
        self.boundary = {}
        for cid, dim, bnd in cells:
            if cid in self.dim_of:
                raise ValueError(f"duplicate cell id {cid!r}")
            self.dim_of[cid] = int(dim)
            if self.dim_of[cid] < 0:
                raise ValueError(f"cell {cid!r} has negative dimension {dim}")
            self.boundary[cid] = tuple((b, int(inc)) for b, inc in bnd)
        for cid, bnd in self.boundary.items():
            d = self.dim_of[cid]
            for b, _ in bnd:
                if b not in self.dim_of or self.dim_of[b] != d - 1:
                    raise ValueError(
                        f"boundary of {cid!r} references non-face {b!r}")
        self.dim = max(self.dim_of.values(), default=0)
        self.cells_by_dim = []
        for d in range(self.dim + 1):
            ids = [c for c in self.dim_of if self.dim_of[c] == d]
            ids.sort(key=_id_key)
            self.cells_by_dim.append(ids)
        self.index = {c: i for d in range(self.dim + 1)
                      for i, c in enumerate(self.cells_by_dim[d])}
        self.labels = dict(labels or {})
        self._bnd_mats = {}
        self._cochains = {}
        for d in range(1, self.dim + 1):
            if not is_zero(mm(self.boundary_matrix(d - 1), self.boundary_matrix(d))):
                raise ValueError(f"dd != 0 in dimension {d}")

    def n_cells(self, d: int) -> int:
        if 0 <= d <= self.dim:
            return len(self.cells_by_dim[d])
        return 0

    def cells(self, d: int):
        if 0 <= d <= self.dim:
            return self.cells_by_dim[d]
        return []

    def boundary_matrix(self, d: int) -> np.ndarray:
        """Matrix of the boundary C_d -> C_(d-1) in the fixed orderings,
        stored once (linalg.int_storage) and shared by every caller."""
        if d in self._bnd_mats:
            return self._bnd_mats[d]
        rows, cols = self.n_cells(d - 1), self.n_cells(d)
        m = zeros(rows, cols)
        if d >= 1:
            for j, cid in enumerate(self.cells(d)):
                for b, inc in self.boundary[cid]:
                    m[self.index[b], j] += inc
        m = self._bnd_mats[d] = int_storage(m)
        return m

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.n_cells(d) for d in range(self.dim + 1))

    def __repr__(self):
        counts = [self.n_cells(d) for d in range(self.dim + 1)]
        return f"CellComplex(cells per dim {counts})"

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"cells": [
            {"id": _id_json(c), "dim": self.dim_of[c],
             "boundary": [[_id_json(b), inc] for b, inc in self.boundary[c]]}
            for d in range(self.dim + 1) for c in self.cells(d)]}

    @classmethod
    def from_json(cls, obj: dict) -> "CellComplex":
        if "facets" in obj:
            return simplicial_from_facets([tuple(f) for f in obj["facets"]])
        cells = [(_id_load(c["id"]), parse_int(c["dim"]),
                  [(_id_load(b), parse_int(inc)) for b, inc in c["boundary"]])
                 for c in obj["cells"]]
        return cls(cells)


def _id_key(cid):
    return repr(cid)


def _id_json(cid):
    if isinstance(cid, tuple):
        return list(_id_json(x) for x in cid)
    return cid


def _id_load(cid):
    if isinstance(cid, list):
        return tuple(_id_load(x) for x in cid)
    return cid


def simplicial_from_facets(facets) -> CellComplex:
    """Simplicial complex generated by facets (vertex tuples).

    All faces are generated; each simplex is oriented by the global sort
    order of its vertices and boundary signs alternate.

    >>> K = simplicial_from_facets([(0, 1), (1, 2), (0, 2)])
    >>> K.n_cells(0), K.n_cells(1)
    (3, 3)
    """
    if not facets:
        raise ValueError("facets must be nonempty")
    simplices = set()
    for f in facets:
        vs = tuple(sorted(set(f)))
        if not vs:
            raise ValueError("a facet must have a vertex")
        if len(vs) != len(f):
            raise ValueError(f"facet {f!r} repeats a vertex")
        for mask in range(1, 1 << len(vs)):
            face = tuple(v for i, v in enumerate(vs) if mask >> i & 1)
            simplices.add(face)
    cells = []
    for s in sorted(simplices, key=lambda s: (len(s), [repr(v) for v in s])):
        bnd = []
        if len(s) > 1:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                bnd.append((face, (-1) ** i))
        cells.append((s, len(s) - 1, bnd))
    return CellComplex(cells)


def standard_simplex(q: int) -> CellComplex:
    return simplicial_from_facets([tuple(range(q + 1))])


def cochain_complex(K: CellComplex, ring: str = RING_Z) -> Complex:
    """Cochain complex with d the transpose of the boundary, kept by K for
    each ring; the second ring asked for gets it through Complex.over, so
    both share the IntSolver of each coboundary (Complex.int_solver)."""
    C = K._cochains.get(ring)
    if C is None:
        if K._cochains:
            (C,) = K._cochains.values()
            C = C.over(ring)
        else:
            ranks = [K.n_cells(d) for d in range(K.dim + 1)]
            diffs = [K.boundary_matrix(d + 1).T for d in range(K.dim)]
            diffs.append(int_zeros(0, ranks[-1]))
            C = Complex(ring, 0, ranks, diffs)
        K._cochains[ring] = C
    return C


@dataclass
class Cochain:
    """Coefficient vector over the fixed cell ordering of one dimension."""

    complex: CellComplex
    degree: int
    ring: str
    values: np.ndarray

    def __post_init__(self):
        self.values = as_vector(self.values, self.complex.n_cells(self.degree))

    @classmethod
    def zero(cls, K: CellComplex, degree: int, ring: str = RING_Q) -> "Cochain":
        return cls(K, degree, ring, zeros(K.n_cells(degree), 1).reshape(-1))

    @classmethod
    def indicator(cls, K: CellComplex, cell, ring: str = RING_Z) -> "Cochain":
        d = K.dim_of[cell]
        v = zeros(K.n_cells(d), 1).reshape(-1)
        v[K.index[cell]] = 1
        return cls(K, d, ring, v)

    def __getitem__(self, cell):
        return self.values[self.complex.index[cell]]

    def __add__(self, other):
        self._compat(other)
        return Cochain(self.complex, self.degree, self.ring,
                       self.values + other.values)

    def __sub__(self, other):
        self._compat(other)
        return Cochain(self.complex, self.degree, self.ring,
                       self.values - other.values)

    def __neg__(self):
        return Cochain(self.complex, self.degree, self.ring, -self.values)

    def _compat(self, other):
        if self.complex is not other.complex or self.degree != other.degree:
            raise ValueError("cochains live on different complexes or degrees")

    def delta(self) -> "Cochain":
        m = self.complex.boundary_matrix(self.degree + 1).T
        return Cochain(self.complex, self.degree + 1, self.ring, mv(m, self.values))

    def pair(self, chain_vector):
        """Evaluation against a chain (vector in the same dimension)."""
        v = as_vector(chain_vector, self.complex.n_cells(self.degree))
        return sum(a * b for a, b in zip(self.values, v))

    def is_zero(self) -> bool:
        return is_zero(self.values)


@dataclass(frozen=True)
class CellularMap:
    """Chain-level cellular map: each cell maps to a signed combination of
    cells (possibly empty, for collapsed cells).  Commutes with boundaries.
    """

    source: CellComplex
    target: CellComplex
    images: dict  # cell id -> tuple[(cell id, int)]

    def __post_init__(self):
        for c in self.source.dim_of:
            for t, _ in self.images.get(c, ()):
                if self.target.dim_of[t] != self.source.dim_of[c]:
                    raise ValueError("cellular map must preserve dimension")
        for d in range(1, self.source.dim + 1):
            lhs = mm(self.chain_matrix(d - 1), self.source.boundary_matrix(d))
            rhs = mm(self.target.boundary_matrix(d), self.chain_matrix(d))
            if not is_zero(lhs - rhs):
                raise ValueError(f"not a chain map in dimension {d}")

    def chain_matrix(self, d: int) -> np.ndarray:
        """Matrix of the map on d-chains, in the stored form of
        linalg.int_storage."""
        m = zeros(self.target.n_cells(d), self.source.n_cells(d))
        for j, c in enumerate(self.source.cells(d)):
            for t, inc in self.images.get(c, ()):
                m[self.target.index[t], j] += inc
        return int_storage(m)

    def pullback(self, z: Cochain) -> Cochain:
        """(f* z)(tau) = z(f tau); commutes with delta."""
        if z.complex is not self.target:
            raise ValueError("cochain does not live on the target complex")
        m = self.chain_matrix(z.degree)
        return Cochain(self.source, z.degree, z.ring, mv(m.T, z.values))


def pullback(f: CellularMap, z: Cochain) -> Cochain:
    return f.pullback(z)


# ---------------------------------------------------------------------------
# Products: interval and circle factors
# ---------------------------------------------------------------------------

def interval_complex() -> CellComplex:
    return CellComplex([
        (("v", 0), 0, []),
        (("v", 1), 0, []),
        (("e", 0), 1, [(("v", 1), 1), (("v", 0), -1)]),
    ])


def circle_complex() -> CellComplex:
    """Regular 3-vertex model of the circle, edges oriented cyclically."""
    cells = [(("v", i), 0, []) for i in range(3)]
    for i in range(3):
        cells.append((("e", i), 1,
                      [(("v", (i + 1) % 3), 1), (("v", i), -1)]))
    return CellComplex(cells)


@dataclass
class ProductComplex:
    """A x K with the Leibniz boundary; carries the structure maps."""

    complex: CellComplex
    factor: CellComplex
    base: CellComplex
    sections: dict = field(default_factory=dict)   # name -> CellularMap K -> A x K
    proj: CellularMap | None = None                # A x K -> K
    fiber_cycle: tuple = ()                        # [(factor edge id, coeff)]


def _product(A: CellComplex, K: CellComplex) -> CellComplex:
    cells = []
    for c in A.dim_of:
        for s in K.dim_of:
            dim = A.dim_of[c] + K.dim_of[s]
            bnd = [((cb, s), inc) for cb, inc in A.boundary[c]]
            sign = -1 if A.dim_of[c] % 2 else 1
            bnd += [((c, sb), sign * inc) for sb, inc in K.boundary[s]]
            cells.append(((c, s), dim, bnd))
    return CellComplex(cells)


def _section(K: CellComplex, P: CellComplex, vertex) -> CellularMap:
    return CellularMap(K, P, {s: (((vertex, s), 1),) for s in K.dim_of})


def _projection(A: CellComplex, K: CellComplex, P: CellComplex) -> CellularMap:
    images = {}
    for c in A.dim_of:
        if A.dim_of[c] == 0:
            for s in K.dim_of:
                images[(c, s)] = ((s, 1),)
    return CellularMap(P, K, images)


def prism(K: CellComplex) -> ProductComplex:
    """Delta^1 x K with end inclusions and the projection.

    d(I x s) = {1} x s - {0} x s - I x ds.
    """
    A = interval_complex()
    P = _product(A, K)
    return ProductComplex(
        complex=P, factor=A, base=K,
        sections={"end0": _section(K, P, ("v", 0)),
                  "end1": _section(K, P, ("v", 1))},
        proj=_projection(A, K, P),
        fiber_cycle=((("e", 0), 1),))


def circle_product(K: CellComplex) -> ProductComplex:
    """S^1 x K with the base section at one circle vertex."""
    A = circle_complex()
    P = _product(A, K)
    return ProductComplex(
        complex=P, factor=A, base=K,
        sections={"base": _section(K, P, ("v", 0))},
        proj=_projection(A, K, P),
        fiber_cycle=tuple(((("e", i), 1) for i in range(3))))


def fiber_integrate_prism(prod: ProductComplex, z: Cochain) -> Cochain:
    """(pi_! z)(s) = z(I x s); degree drops by one.

    Satisfies pi_!(delta z) + delta(pi_! z) = end1* z - end0* z.
    """
    return _fiber_integrate(prod, z)


def fiber_integrate_circle(prod: ProductComplex, z: Cochain) -> Cochain:
    """(pi_! z)(s) = sum over circle edges of z(e x s) with the orientation
    coefficients of the fundamental cycle; closed-fiber Stokes:
    pi_!(delta z) + delta(pi_! z) = 0.
    """
    return _fiber_integrate(prod, z)


def _fiber_integrate(prod: ProductComplex, z: Cochain) -> Cochain:
    if z.complex is not prod.complex:
        raise ValueError("cochain does not live on the product complex")
    if z.degree < 1:
        raise ValueError(
            "fiber integration needs degree >= 1; a degree-0 input has no "
            "degree -1 target")
    K = prod.base
    out = Cochain.zero(K, z.degree - 1, z.ring)
    for s in K.cells(z.degree - 1):
        acc = 0
        for e, coeff in prod.fiber_cycle:
            acc = acc + coeff * z.values[prod.complex.index[(e, s)]]
        out.values[K.index[s]] = acc
    return out


# ---------------------------------------------------------------------------
# Subcomplexes and covers
# ---------------------------------------------------------------------------

def check_face_closed(K: CellComplex, cell_ids) -> set:
    """The given cells of K as a set; raises ValueError unless it is closed
    under faces."""
    keep = set(cell_ids)
    for c in keep:
        for b, _ in K.boundary[c]:
            if b not in keep:
                raise ValueError(f"{c!r} has face {b!r} outside the subcomplex")
    return keep


def subcomplex(K: CellComplex, cell_ids) -> CellComplex:
    """Subcomplex spanned by the given cells (must be closed under faces)."""
    keep = check_face_closed(K, cell_ids)
    return CellComplex([(c, K.dim_of[c], K.boundary[c]) for c in keep])


def closed_star_cells(K: CellComplex, vertex) -> set:
    """Cells of the closed star of a vertex: all cells whose closure contains
    the vertex, together with their faces."""
    contains = {vertex}
    changed = True
    cofaces = {}
    for c, bnd in K.boundary.items():
        for b, _ in bnd:
            cofaces.setdefault(b, []).append(c)
    while changed:
        changed = False
        for c in list(contains):
            for cf in cofaces.get(c, []):
                if cf not in contains:
                    contains.add(cf)
                    changed = True
    star = set()
    stack = [c for c in contains]
    while stack:
        c = stack.pop()
        if c in star:
            continue
        star.add(c)
        stack.extend(b for b, _ in K.boundary[c])
    return star


def star_cover(K: CellComplex) -> list:
    """Closed vertex stars, one per vertex, as cell-id sets; covers K."""
    return [closed_star_cells(K, v) for v in K.cells(0)]


# ---------------------------------------------------------------------------
# Bundled example complexes
# ---------------------------------------------------------------------------

def load_complex(path) -> CellComplex:
    with open(path) as fh:
        return CellComplex.from_json(json.load(fh))


def bundled_complex(name: str) -> CellComplex:
    from importlib import resources
    ref = resources.files("cellcoh").joinpath(f"data/complexes/{name}.json")
    return CellComplex.from_json(json.loads(ref.read_text()))
