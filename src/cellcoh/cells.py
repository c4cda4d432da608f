"""Finite regular cell complexes standing in for manifolds.

Simplicial complexes built from facets, products with an interval (prisms)
and with a 3-vertex circle, pullback along cellular maps, and the two fiber
integrations.  Product boundaries follow the Leibniz rule
d(c x s) = dc x s + (-1)^|c| c x ds with the first factor the interval or
circle cell; this is the single place the product sign convention lives,
and it is what makes the two Stokes identities below hold verbatim:

    prism:  pi_!(delta z) + delta(pi_! z) = end1* z - end0* z
    circle: pi_!(delta z) + delta(pi_! z) = 0

A product checks its identity once, as a matrix identity in every degree.
Cochains are integer numerator vectors, or (cells, k) batches of them,
over a denominator the caller keeps: pullback and fiber integration are
linear maps of the kept integer matrices (CellularMap.chain_matrix,
ProductComplex.fiber_matrix) and return numerators over the same one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chains import RING_Z, Complex, parse_int
from .linalg import int_mv, int_storage, int_triples, int_zeros, vanishes


class CellComplex:
    """Cells with integer boundary incidences; construction checks dd = 0
    and raises ValueError where it fails.

    Cell ids are arbitrary hashable values; per-dimension orderings are
    fixed at construction time and index the cochain coefficient vectors.
    Whatever is derived from the cells (boundary matrices, cochain
    complexes, the cohomology and solvers of diffcoh, the fundamental
    cycle of lattice) is kept in one store, through kept.
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
        self._kept = {}
        for d in range(1, self.dim + 1):
            if not vanishes([(1, self.boundary_matrix(d - 1),
                              self.boundary_matrix(d))]):
                raise ValueError(f"dd != 0 in dimension {d}")

    def n_cells(self, d: int) -> int:
        if 0 <= d <= self.dim:
            return len(self.cells_by_dim[d])
        return 0

    def cells(self, d: int):
        if 0 <= d <= self.dim:
            return self.cells_by_dim[d]
        return []

    def kept(self, key, build):
        """The object kept under key, made by build() (never None) on first
        use.  The caller that names a key owns it; what it keeps must not
        change."""
        obj = self._kept.get(key)
        if obj is None:
            obj = self._kept[key] = build()
        return obj

    def boundary_matrix(self, d: int) -> np.ndarray:
        """Matrix of the boundary C_d -> C_(d-1) in the fixed orderings,
        stored once (linalg.int_storage) and shared by every caller."""
        return self.kept(("boundary", d), lambda: self._boundary_matrix(d))

    def _boundary_matrix(self, d: int) -> np.ndarray:
        index, boundary = self.index, self.boundary
        return int_triples((self.n_cells(d - 1), self.n_cells(d)), [
            (index[b], j, inc) for j, cid in enumerate(self.cells(d))
            for b, inc in boundary[cid]])

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


def cochain_complex(K: CellComplex, ring: str = RING_Z) -> Complex:
    """Cochain complex with d the transpose of the boundary, kept by K for
    each ring; over Q it is the one over Z through Complex.over, so both
    share what is derived from each coboundary (Complex.int_solver,
    Complex.factors).  delta delta = (dd)^T, and K checked dd = 0."""
    if ring != RING_Z:
        return K.kept(("cochains", ring),
                      lambda: cochain_complex(K).over(ring))
    return K.kept(("cochains", ring), lambda: Complex._derived(
        ring, 0, [K.n_cells(d) for d in range(K.dim + 1)],
        [K.boundary_matrix(d + 1).T for d in range(K.dim)]))


@dataclass(frozen=True)
class CellularMap:
    """Chain-level cellular map: each cell maps to a signed combination of
    cells (possibly empty, for collapsed cells).  Commutes with boundaries;
    the chain matrices that construction checks this on are kept.
    """

    source: CellComplex
    target: CellComplex
    images: dict  # cell id -> tuple[(cell id, int)]
    _mats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = []
        for d in range(self.source.dim + 1):
            triples = []
            for j, c in enumerate(self.source.cells(d)):
                for t, inc in self.images.get(c, ()):
                    if self.target.dim_of[t] != d:
                        raise ValueError("cellular map must preserve dimension")
                    triples.append((self.target.index[t], j, inc))
            mats.append(int_triples(
                (self.target.n_cells(d), self.source.n_cells(d)), triples))
        object.__setattr__(self, "_mats", tuple(mats))
        for d in range(1, self.source.dim + 1):
            if not vanishes([(1, mats[d - 1], self.source.boundary_matrix(d)),
                             (-1, self.target.boundary_matrix(d), mats[d])]):
                raise ValueError(f"not a chain map in dimension {d}")

    def chain_matrix(self, d: int) -> np.ndarray:
        """Matrix of the map on d-chains, in the stored form of
        linalg.int_storage; built once, with the map."""
        if 0 <= d <= self.source.dim:
            return self._mats[d]
        return int_storage(int_zeros(self.target.n_cells(d), 0))

    def pullback(self, v, d: int) -> np.ndarray:
        """f* on degree-d cochains, (f* z)(tau) = z(f tau), applied to the
        integer numerators v of z (a vector, or a (cells, k) batch); linear,
        so the caller's denominator carries over.  f* delta = delta f* is
        the transpose of the chain-map check of construction."""
        return int_mv(self.chain_matrix(d).T, v)


def pullback(f: CellularMap, v, d: int) -> np.ndarray:
    return f.pullback(v, d)


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

    def __post_init__(self):
        """Check the Stokes identity pi_! delta + delta pi_! = end1* - end0*
        as a matrix identity in every degree d < dim (the base has no cells
        above), the right side 0 where the product has no end sections (the
        closed fiber of the circle).  The right side is the boundary the
        fiber is meant to have, not the one of fiber_cycle: every chain of
        the factor satisfies Stokes with its own boundary."""
        P, K = self.complex, self.base
        ends = [(self.sections[k], sign) for k, sign in
                (("end1", 1), ("end0", -1)) if k in self.sections]
        for d in range(P.dim):
            terms = [(1, self.fiber_matrix(d + 1), P.boundary_matrix(d + 1).T),
                     (1, K.boundary_matrix(d).T, self.fiber_matrix(d))]
            terms += [(-sign, f.chain_matrix(d).T) for f, sign in ends]
            if not vanishes(terms):
                raise ValueError(f"Stokes identity fails in degree {d}")

    def fiber_matrix(self, d: int) -> np.ndarray:
        """Matrix of pi_! on d-cochains (see _fiber_integrate), stored once
        (linalg.int_storage) and kept by the product complex for this
        fiber cycle."""
        def build():
            index = self.complex.index
            return int_triples(
                (self.base.n_cells(d - 1), self.complex.n_cells(d)),
                [(i, index[(e, s)], coeff)
                 for i, s in enumerate(self.base.cells(d - 1))
                 for e, coeff in self.fiber_cycle])
        return self.complex.kept(("fiber", self.fiber_cycle, d), build)


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


def fiber_integrate_prism(prod: ProductComplex, v, d: int) -> np.ndarray:
    """(pi_! z)(s) = z(I x s) on degree-d cochains; degree drops by one.

    Satisfies pi_!(delta z) + delta(pi_! z) = end1* z - end0* z.
    """
    return _fiber_integrate(prod, v, d)


def fiber_integrate_circle(prod: ProductComplex, v, d: int) -> np.ndarray:
    """(pi_! z)(s) = sum over circle edges of z(e x s) with the orientation
    coefficients of the fundamental cycle; closed-fiber Stokes:
    pi_!(delta z) + delta(pi_! z) = 0.
    """
    return _fiber_integrate(prod, v, d)


def _fiber_integrate(prod: ProductComplex, v, d: int) -> np.ndarray:
    """pi_! of the degree-d cochain with integer numerators v (a vector, or
    a (cells, k) batch); linear, so the caller's denominator carries
    over."""
    if d < 1:
        raise ValueError(
            "fiber integration needs degree >= 1; a degree-0 input has no "
            "degree -1 target")
    return int_mv(prod.fiber_matrix(d), v)


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


def named_complex(ref) -> CellComplex:
    """The complex in the JSON file ref when ref is a path (it has a / or
    ends in .json), else the bundled complex named ref.  Every fault, a
    missing file or name included, raises ValueError naming ref."""
    ref = str(ref)
    path = ref.endswith(".json") or "/" in ref
    try:
        return load_complex(ref) if path else bundled_complex(ref)
    except FileNotFoundError:
        raise ValueError(f"no such file: {ref}" if path
                         else f"unknown bundled complex {ref!r}") from None
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{ref}: {e}") from None
