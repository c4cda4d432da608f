"""Total complexes of truncated (co)simplicial complexes of complexes.

Signs: for x in level q and inner degree p,

    d(x) = (-1)^q d_level(x) + sum_i (-1)^i face_or_coface_i(x),

where the alternating sum runs over all cofaces A[q] -> A[q+1]
(i = 0..q+1) in the cosimplicial case and over all faces A[q] -> A[q-1]
(i = 0..q) in the simplicial case.  Built on top of this: Cech double
complexes of subcomplex covers, the descent comparison, and the
evaluation-at-a-point of the truncated-cochain functor via its simplicial
resolution, read off the cochains of one simplex built on vertex bit masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .cells import CellComplex, check_face_closed, cochain_complex
from .chains import ChainMap, Complex, homology, truncate_above
from .linalg import block_zeros, int_storage, vanishes


class InsufficientTruncation(ValueError):
    def __init__(self, needed: int, got: int):
        super().__init__(
            f"truncation level N={got} is insufficient; need N >= {needed} "
            f"for this window")
        self.needed = needed


class LevelTooLarge(ValueError):
    """A level past 62: the faces of the N-simplex are int64 bit masks."""


@dataclass
class _Truncated:
    """Levels A[0..N] and, for each q < N, the q + 2 maps d_0..d_(q+1)
    between A[q] and A[q+1]: maps[q][i] goes A[q] -> A[q+1] (cofaces,
    step = +1) or A[q+1] -> A[q] (faces, step = -1)."""

    N: int
    levels: list          # Complex, length N + 1
    maps: list            # maps[q][i]: ChainMap between A[q] and A[q+1]

    def __post_init__(self):
        if len(self.levels) != self.N + 1 or len(self.maps) != self.N:
            raise ValueError(f"{self.kind} object of level N={self.N} needs "
                             f"N + 1 levels and N lists of maps")
        for q, maps in enumerate(self.maps):
            if len(maps) != q + 2:
                raise ValueError(f"{self.kind} object needs {q + 2} maps "
                                 f"between levels {q} and {q + 1}")
            ends = tuple(self.levels[q:q + 2][::self.step])
            if any((f.source, f.target) != ends for f in maps):
                raise ValueError(f"a map between levels {q} and {q + 1} "
                                 f"has the wrong source or target")
        self.check_identities()

    def _check_identities(self, identity):
        """identity(i, j) -> ((b, a), (b', a')) with d_b d_a = d_b' d_a' for
        i < j, where d_a is applied first.  Where the maps out of two levels
        are selections, all pairs are compared at once on their stacked flats
        (F[a, S[b]] is d_b d_a); otherwise, and to name the first failure,
        components are compared degree by degree on the source level."""
        pairs = np.array([(i, j) for j in range(self.N + 1) for i in range(j)],
                         dtype=np.int64).reshape(-1, 2)
        (sb, sa), (sb2, sa2) = identity(*pairs.T)
        flats = [None if any(f.index is None for f in maps)
                 else np.array([f.flat for f in maps]) for maps in self.maps]
        for q in range(self.N - 1):
            first, second = self.maps[q:q + 2][::self.step]
            F, S = flats[q:q + 2][::self.step]
            p = (q + 3) * (q + 2) // 2
            if F is not None and S is not None:
                C = F[:, S]     # one column, the last -1, when it is empty
                if C.shape[2] == 1 or (
                        C[sa[:p], sb[:p]] == C[sa2[:p], sb2[:p]]).all():
                    continue
            for j in range(q + 3):
                for i in range(j):
                    (b, a), (b2, a2) = identity(i, j)
                    for n in first[a].source.degrees():
                        if not vanishes([
                                (1, second[b].component(n),
                                 first[a].component(n)),
                                (-1, second[b2].component(n),
                                 first[a2].component(n))]):
                            raise ValueError(
                                f"{self.kind} identity fails at level {q}, "
                                f"(i,j)=({i},{j}), degree {n}")


class CosimplicialComplexTrunc(_Truncated):
    """Levels A[0..N] with cofaces d_i: A[q] -> A[q+1], 0 <= i <= q+1."""

    kind, step = "cosimplicial", 1

    def check_identities(self):
        """Cosimplicial identities d_j d_i = d_i d_(j-1) for i < j."""
        self._check_identities(lambda i, j: ((j, i), (i, j - 1)))


class SimplicialComplexOfComplexes(_Truncated):
    """Levels A[0..N] with faces d_i: A[q+1] -> A[q], 0 <= i <= q+1."""

    kind, step = "simplicial", -1

    def check_identities(self):
        """Simplicial identities d_i d_j = d_(j-1) d_i for i < j."""
        self._check_identities(lambda i, j: ((i, j), (j - 1, i)))


def _tot(A: _Truncated, window, N: int) -> Complex:
    """Total complex of the levels A[0..N] (N <= A.N), on window.

    tot^n is the sum over q <= N of A[q]^p with p = n - step q; the
    alternating sum of the maps leaving level q goes to level q + step.
    N must be at least hi - lo + 2 so that cohomology in the window is
    unaffected.  Cosimplicial levels from degree b on reach total degree
    hi + 1 up to level hi + 1 - b, so there N must also be at least that.
    The returned window is padded one degree on each side, so cohomology
    of the result is faithful exactly on the requested window.
    """
    lo, hi = window
    needed = hi - lo + 2
    if A.step > 0:
        needed = max(needed, hi + 1 - min(C.lo for C in A.levels))
    if N < needed:
        raise InsufficientTruncation(needed, N)
    lo -= 1
    hi += 1
    levels, step = A.levels, A.step

    # per total degree: list of (q, p, offset)
    layout = {}
    for n in range(lo, hi + 1):
        blocks = []
        off = 0
        for q in range(N + 1):
            p = n - step * q
            r = levels[q].rank(p)
            if r:
                blocks.append((q, p, off))
            off += r
        layout[n] = (blocks, off)

    ranks = [layout[n][1] for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi + 1):
        blocks, total = layout[n]
        nxt_blocks, nxt_total = layout.get(n + 1, ([], 0))
        pos = {(q, p): off for q, p, off in nxt_blocks}
        parts = []     # (row offset, column offset, block)
        for q, p, off in blocks:
            vert = levels[q].diff(p)
            key = (q, p + 1)
            if key in pos and vert.size:
                parts.append((pos[key], off, -vert if q % 2 else vert))
            q2 = q + step
            key = (q2, p)
            if key in pos:
                h = _alternating_sum(A.maps[min(q, q2)], p,
                                     (levels[q2].rank(p), levels[q].rank(p)))
                if h.size:
                    parts.append((pos[key], off, h))
        d = block_zeros(nxt_total, total, [b for _, _, b in parts])
        for i, j, b in parts:
            d[i:i + b.shape[0], j:j + b.shape[1]] = b
        diffs.append(d)
    return Complex(levels[0].ring, lo, ranks, diffs)


def _alternating_sum(maps, p: int, shape) -> np.ndarray:
    """sum_i (-1)^i maps[i] in degree p, of the given shape.  A selection
    map adds its +-1 at (r, idx[r]) straight into the sum, on one spare
    last column that takes idx[r] = -1 (as in ChainMap.component); any
    other map adds its component."""
    general = {i: f.component(p) for i, f in enumerate(maps)
               if f.index is None}
    h = np.zeros((shape[0], shape[1] + 1),
                 dtype=np.result_type(np.int64, *general.values()))
    rows = np.arange(shape[0])
    for i, f in enumerate(maps):
        sign = -1 if i % 2 else 1
        if i in general:
            h[:, :-1] += sign * general[i]
        elif p in f.index:
            h[rows, f.index[p]] += sign
    return h[:, :-1]


def total_complex(A: _Truncated, window) -> Complex:
    """Total complex of a truncated (co)simplicial complex of complexes,
    with d(x) = (-1)^q d_level(x) + sum_i (-1)^i d_i(x) on level q; raises
    InsufficientTruncation unless A.N is large enough for the window
    (_tot)."""
    return _tot(A, window, A.N)


# ---------------------------------------------------------------------------
# Cech double complexes of subcomplex covers, on index blocks of K
# ---------------------------------------------------------------------------

def _level(C: Complex, labels) -> Complex:
    """The direct sum over blocks of the cochain complex C of a cell complex
    on the cells of each block, labels[d] = (block labels, cell indices) in
    degree d, one entry per basis element or one label for one block.
    Each block is the coboundary of the cell complex restricted to a
    face-closed cell set (cech_double refuses other covers), so d o d = 0
    holds."""
    return Complex._derived(C.ring, 0, [len(c) for _, c in labels], [
        C.diff(d)[np.ix_(rc, cc)] * np.equal.outer(rb, cb)
        for d, ((cb, cc), (rb, rc)) in enumerate(zip(labels, labels[1:]))])


def cech_double(K: CellComplex, cover, ring="Z", N: int | None = None
                ) -> CosimplicialComplexTrunc:
    """Cech cosimplicial complex of a cover of K by subcomplex-closed cell
    sets (e.g. closed vertex stars).

    Level q carries the product of the cochain complexes of the nonempty
    (q+1)-fold intersections (over strictly increasing index tuples), each
    kept as the indices of its cells in K; the cofaces drop one index and
    restrict.
    """
    cover = [frozenset(u) for u in cover]
    if not cover:
        raise ValueError("empty cover")
    if set().union(*cover) != set(K.dim_of):
        raise ValueError("cover does not cover the complex")
    if N is None:
        N = len(cover) - 1
    for u in cover:
        check_face_closed(K, u)
    C = cochain_complex(K, ring)
    cells = [c for d in range(K.dim + 1) for c in K.cells(d)]
    ends = np.cumsum([0] + [K.n_cells(d) for d in range(K.dim + 1)])
    member = np.array([[c in u for c in cells] for u in cover], dtype=bool)

    # the nonempty intersections of q + 1 cover elements in lexicographic
    # order, each as its membership mask over the cells of K
    inter = {(i,): u for i, u in enumerate(member) if u.any()}
    tuples = [list(inter)]
    for q in range(N):
        nxt = [(t + (j,), m) for t in tuples[q]
               for j in range(t[-1] + 1, len(cover))
               if (m := inter[t] & member[j]).any()]
        inter.update(nxt)
        tuples.append([t for t, _ in nxt])

    labels = []    # per level and degree: (tuple position, index in K)
    for tups in tuples:
        M = np.vstack([inter[t] for t in tups] or [member[:0]])
        labels.append([np.nonzero(M[:, a:b]) for a, b in zip(ends, ends[1:])])
    levels = [_level(C, lab) for lab in labels]

    cofaces = []
    for q in range(N):
        pos = {t: k for k, t in enumerate(tuples[q])}
        # per coface i and (q + 2)-tuple, the position of the tuple with i
        # removed; each cell selects the same cell of the larger intersection
        srcs = np.array([[pos[t[:i] + t[i + 1:]] for t in tuples[q + 1]]
                         for i in range(q + 2)], dtype=np.int64)
        index = []
        for d, ((b0, c0), (b, c)) in enumerate(zip(labels[q], labels[q + 1])):
            at = np.full((len(tuples[q]), K.n_cells(d)), -1)
            at[b0, c0] = np.arange(len(c0))
            index.append(at[srcs[:, b], c])
        cofaces.append(ChainMap.selections(levels[q], levels[q + 1], q + 2,
                                           dict(enumerate(index))))

    return CosimplicialComplexTrunc(N, levels, cofaces)


def descent_check(K: CellComplex, cover, ring="Z", window=None) -> dict:
    """Compare H^n of the cochain complex of K with H^n of the Cech tot.

    Returns a report with per-degree canonical forms and verdicts; mismatches
    are reported, never raised.
    """
    if window is None:
        window = (0, K.dim)
    lo, hi = window
    direct = cochain_complex(K, ring)
    # the least N that _tot takes: levels past N enter only total degrees
    # above N (cochains start in degree 0), so N > hi keeps H^n for n <= hi
    A = cech_double(K, cover, ring, N=max(hi + 1, hi - lo + 2))
    tot = total_complex(A, window)
    degrees = {}
    all_match = True
    for n in range(lo, hi + 1):
        g_direct = homology(direct, n)
        g_cech = homology(tot, n)
        match = g_direct == g_cech
        all_match &= match
        degrees[n] = {"direct": str(g_direct), "cech": str(g_cech),
                      "match": match}
    return {"degrees": degrees, "match": all_match,
            "cover_size": len(cover)}


# ---------------------------------------------------------------------------
# Evaluation at the point of the truncated-cochain functor
# ---------------------------------------------------------------------------

def _simplex_cochains(N: int):
    """The faces of the standard N-simplex as int64 vertex bit masks, one
    ascending array per degree, and its coboundaries on them, stored by
    int_storage, so that a read-only view of one takes its recorded bound.
    Removing vertex v from a face has the sign (-1)^(number of its vertices
    below v); d o d = 0 is checked here, once, for every level read off."""
    masks = np.arange(1, 2 << N, dtype=np.int64)
    bits = masks[:, None] >> np.arange(N + 1) & 1
    dim = bits.sum(axis=1) - 1
    faces = [masks[dim == n] for n in range(N + 1)]
    diffs = []
    for n in range(N):
        b = bits[dim == n + 1]
        row, v = np.nonzero(b)
        d = np.zeros((len(b), len(faces[n])), dtype=np.int64)
        d[row, np.searchsorted(faces[n], faces[n + 1][row] ^ 1 << v)] = \
            1 - 2 * ((np.cumsum(b, axis=1) - b)[row, v] & 1)
        d.setflags(write=False)     # owned here: int_storage need not copy
        diffs.append(int_storage(d))
    if not all(vanishes([(1, e, d)]) for d, e in zip(diffs, diffs[1:])):
        raise ValueError(f"d o d != 0 on the standard {N}-simplex")
    return faces, diffs


def simplex_resolution(m: int, N: int) -> SimplicialComplexOfComplexes:
    """The simplicial complex-of-complexes q -> (cochains of the standard
    q-simplex over Q, truncated to degrees >= m), faces by restriction.

    Every level is read off the cochains of the one standard N-simplex,
    built as arrays on vertex bit masks (_simplex_cochains): in ascending
    mask order the faces of the q-simplex (masks below 2^(q + 1)) lead
    every degree, so level q is the leading block of each coboundary, a
    read-only view."""
    if N > 62:
        raise LevelTooLarge(f"truncation level N={N} is too large; "
                            f"need N <= 62")
    faces, diffs = _simplex_cochains(N)
    ranks = [[comb(q + 1, n + 1) for n in range(q + 1)] for q in range(N + 1)]
    levels = [truncate_above(Complex._derived("Q", 0, r, [
        d[:r[n + 1], :r[n]] for n, d in enumerate(diffs[:q])]), m)
        for q, r in enumerate(ranks)]
    maps = []
    for q in range(N):
        # face i moves the mask r of each n-face of the q-simplex by
        # j -> j + (j >= i) (bits below i stay, the rest move up one) and
        # selects the (q + 1)-simplex's face of that mask; all i at once,
        # for n <= q + 1 (the maps select nothing in the other degrees)
        i, index = np.arange(q + 2)[:, None], {}
        for n in range(levels[q + 1].lo, q + 2):
            r = faces[n][:levels[q].rank(n)]
            index[n] = np.searchsorted(
                faces[n], r & (1 << i) - 1 | (r >> i) << i + 1)
        maps.append(ChainMap.selections(levels[q + 1], levels[q], q + 2,
                                        index))
    return SimplicialComplexOfComplexes(N, levels, maps)


def underlying_at_point(m: int, N: int, window) -> dict:
    """Cohomology of tot of the simplicial resolution at the point, with a
    stabilization flag per degree (stable = unchanged from level N-1 to N).
    N must be at least 2 (hi - lo) + 2, and N - 1 at least the hi - lo + 2
    that tot at level N - 1 needs.
    """
    if m < 1:
        raise ValueError("truncation parameter m must be >= 1")
    lo, hi = window
    needed = max(2 * (hi - lo) + 2, hi - lo + 3)
    if N < needed:
        raise InsufficientTruncation(needed, N)
    res = simplex_resolution(m, N)
    tot_full = total_complex(res, window)
    tot_prev = _tot(res, window, N - 1)
    out = {}
    for n in range(lo, hi + 1):
        g = homology(tot_full, n)
        g_prev = homology(tot_prev, n)
        out[n] = {"group": g, "stable": g == g_prev}
    return out
