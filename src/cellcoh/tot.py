"""Total complexes of truncated (co)simplicial complexes of complexes.

Signs: for x in level q and inner degree p,

    d(x) = (-1)^q d_level(x) + sum_i (-1)^i face_or_coface_i(x),

where the alternating sum runs over all cofaces A[q] -> A[q+1]
(i = 0..q+1) in the cosimplicial case and over all faces A[q] -> A[q-1]
(i = 0..q) in the simplicial case.  Built on top of this: Cech double
complexes of subcomplex covers, the descent comparison, and the
evaluation-at-a-point of the truncated-cochain functor via its simplicial
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import (CellComplex, cochain_complex, restriction_matrix,
                    standard_simplex, subcomplex)
from .chains import ChainMap, Complex, homology, truncate_above
from .linalg import block_zeros, int_zeros, is_zero, mm


class InsufficientTruncation(ValueError):
    def __init__(self, needed: int, got: int):
        super().__init__(
            f"truncation level N={got} is insufficient; need N >= {needed} "
            f"for this window")
        self.needed = needed


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
        i < j, where d_a is applied first; components are compared degree by
        degree on the source level of the composites."""
        for q in range(self.N - 1):
            first, second = self.maps[q:q + 2][::self.step]
            for j in range(q + 3):
                for i in range(j):
                    (b, a), (b2, a2) = identity(i, j)
                    for n in first[a].source.degrees():
                        lhs = mm(second[b].component(n), first[a].component(n))
                        rhs = mm(second[b2].component(n),
                                 first[a2].component(n))
                        if not is_zero(lhs - rhs):
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
    unaffected.  The returned window is padded one degree on each side, so
    cohomology of the result is faithful exactly on the requested window.
    """
    lo, hi = window
    needed = hi - lo + 2
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
                h = sum((-1) ** i * f.component(p)
                        for i, f in enumerate(A.maps[min(q, q2)]))
                if h.size:
                    parts.append((pos[key], off, h))
        d = block_zeros(nxt_total, total, [b for _, _, b in parts])
        for i, j, b in parts:
            d[i:i + b.shape[0], j:j + b.shape[1]] = b
        diffs.append(d)
    return Complex(levels[0].ring, lo, ranks, diffs)


def total_complex(A: _Truncated, window) -> Complex:
    """Total complex of a truncated (co)simplicial complex of complexes,
    with d(x) = (-1)^q d_level(x) + sum_i (-1)^i d_i(x) on level q; raises
    InsufficientTruncation unless A.N >= hi - lo + 2."""
    return _tot(A, window, A.N)


# ---------------------------------------------------------------------------
# Cech double complexes for subcomplex covers
# ---------------------------------------------------------------------------

def cech_double(K: CellComplex, cover, ring="Z", N: int | None = None
                ) -> CosimplicialComplexTrunc:
    """Cech cosimplicial complex of a cover of K by subcomplex-closed cell
    sets (e.g. closed vertex stars).

    Level q carries the product of the cochain complexes of the nonempty
    (q+1)-fold intersections (over strictly increasing index tuples); the
    cofaces drop one index and restrict.
    """
    cover = [frozenset(u) for u in cover]
    if not cover:
        raise ValueError("empty cover")
    covered = set().union(*cover)
    if covered != set(K.dim_of):
        raise ValueError("cover does not cover the complex")
    if N is None:
        N = len(cover) - 1

    subs = {}

    def intersection(tup):
        if tup not in subs:
            cells = set.intersection(*[set(cover[i]) for i in tup])
            subs[tup] = subcomplex(K, cells) if cells else None
        return subs[tup]

    from itertools import combinations
    level_tuples = []
    for q in range(N + 1):
        tups = [t for t in combinations(range(len(cover)), q + 1)
                if intersection(t) is not None]
        level_tuples.append(tups)

    levels = []
    offsets = []   # per level: {tuple: {degree: offset}}
    for q in range(N + 1):
        tups = level_tuples[q]
        ranks = [0] * (K.dim + 1)
        offs = {t: {} for t in tups}
        for t in tups:
            km = intersection(t)
            for d in range(K.dim + 1):
                offs[t][d] = ranks[d]
                ranks[d] += km.n_cells(d)
        diffs = []
        for d in range(K.dim + 1):
            blks = [intersection(t).boundary_matrix(d + 1).T
                    for t in tups] if d + 1 <= K.dim else []
            m = block_zeros(ranks[d + 1] if d + 1 <= K.dim else 0, ranks[d],
                            blks)
            for t, blk in zip(tups, blks):
                m[offs[t][d + 1]:offs[t][d + 1] + blk.shape[0],
                  offs[t][d]:offs[t][d] + blk.shape[1]] = blk
            diffs.append(m)
        levels.append(Complex(ring, 0, ranks, diffs))
        offsets.append(offs)

    cofaces = []
    for q in range(N):
        maps = []
        for i in range(q + 2):
            comps = {}
            for d in range(K.dim + 1):
                m = int_zeros(levels[q + 1].rank(d), levels[q].rank(d))
                for t in level_tuples[q + 1]:
                    src = t[:i] + t[i + 1:]
                    if src not in offsets[q]:
                        continue
                    big = intersection(src)
                    small = intersection(t)
                    blk = restriction_matrix(big, small, d)
                    m[offsets[q + 1][t][d]:offsets[q + 1][t][d] + blk.shape[0],
                      offsets[q][src][d]:offsets[q][src][d] + blk.shape[1]] = blk
                comps[d] = m
            maps.append(ChainMap(levels[q], levels[q + 1], comps))
        cofaces.append(maps)

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
    A = cech_double(K, cover, ring, N=max(len(cover) - 1, hi - lo + 2))
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

def simplex_resolution(m: int, N: int) -> SimplicialComplexOfComplexes:
    """The simplicial complex-of-complexes q -> (cochains of the standard
    q-simplex over Q, truncated to degrees >= m), faces by restriction."""
    simplices = [standard_simplex(q) for q in range(N + 1)]
    levels = [truncate_above(cochain_complex(simplices[q], "Q"), m)
              for q in range(N + 1)]
    faces = []
    for q in range(N):
        maps = []
        big, small = simplices[q + 1], simplices[q]
        for i in range(q + 2):
            # vertex map of the i-th coface: j -> j + (j >= i)
            comps = {}
            for n in levels[q + 1].degrees():
                mmat = int_zeros(levels[q].rank(n), levels[q + 1].rank(n))
                if n <= small.dim and n >= m:
                    for col, s in enumerate(small.cells(n)):
                        img = tuple(v if v < i else v + 1 for v in s)
                        mmat[col, big.index[img]] = 1
                comps[n] = mmat
            maps.append(ChainMap(levels[q + 1], levels[q], comps))
        faces.append(maps)
    return SimplicialComplexOfComplexes(N, levels, faces)


def underlying_at_point(m: int, N: int, window) -> dict:
    """Cohomology of tot of the simplicial resolution at the point, with a
    stabilization flag per degree (stable = unchanged from level N-1 to N).
    """
    if m < 1:
        raise ValueError("truncation parameter m must be >= 1")
    lo, hi = window
    needed = 2 * (hi - lo) + 2
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
