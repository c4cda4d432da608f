import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import tot as tt
from cellcoh.linalg import zeros

from conftest import random_complex


def constant_cosimplicial(C, N):
    ident = ch.ChainMap.identity(C)
    return tt.CosimplicialComplexTrunc(
        N, [C] * (N + 1), [[ident] * (q + 2) for q in range(N)])


def test_constant_cosimplicial_recovers_cohomology():
    C = cl.cochain_complex(cl.bundled_complex("circle3"), "Z")
    A = constant_cosimplicial(C, 7)
    T = tt.total_complex(A, (-1, 3))
    for n in range(-1, 4):
        assert ch.homology(T, n) == ch.homology(C, n)


def test_zero_cosimplicial_gives_zero():
    Z = ch.Complex("Z", 0, (0,), [zeros(0, 0)])
    A = constant_cosimplicial(Z, 5)
    T = tt.total_complex(A, (0, 2))
    assert T.is_zero()


def test_insufficient_truncation_reports_required_level():
    C = cl.cochain_complex(cl.bundled_complex("circle3"), "Z")
    A = constant_cosimplicial(C, 2)
    with pytest.raises(tt.InsufficientTruncation) as err:
        tt.total_complex(A, (-1, 3))
    assert err.value.needed == 6


def test_cech_truncation_reaches_one_level_past_the_window():
    # Cech levels start in degree 0, so level q enters total degree q and
    # H^n of the truncated total complex needs N > n
    K = cl.bundled_complex("rp2_6")
    with pytest.raises(tt.InsufficientTruncation) as err:
        tt.total_complex(tt.cech_double(K, cl.star_cover(K), "Z", N=4),
                         (2, 4))
    assert err.value.needed == 5
    T = tt.total_complex(tt.cech_double(K, cl.star_cover(K), "Z", N=5),
                         (2, 4))
    assert [str(ch.homology(T, n)) for n in (2, 3, 4)] == ["Z/2", "0", "0"]


def test_cosimplicial_identity_validation():
    C = cl.cochain_complex(cl.bundled_complex("circle3"), "Z")
    ident = ch.ChainMap.identity(C)
    twisted = ch.ChainMap(C, C, {n: 2 * np.eye(C.rank(n), dtype=object)
                                 for n in C.degrees()})
    with pytest.raises(ValueError, match="cosimplicial identity"):
        tt.CosimplicialComplexTrunc(
            2, [C] * 3, [[ident, ident], [ident, twisted, ident]])


def test_tot_signs_square_to_zero_on_random_cech_objects(rng):
    # cech objects of random covers satisfy the cosimplicial identities;
    # the Complex constructor inside tot checks d o d = 0
    for name in ("circle3", "octahedron"):
        K = cl.bundled_complex(name)
        A = tt.cech_double(K, cl.star_cover(K), "Z", N=K.dim + 2)
        T = tt.total_complex(A, (0, K.dim))
        assert T is not None


def test_levelwise_acyclic_cosimplicial_is_acyclic(rng):
    for _ in range(5):
        base = random_complex(rng, length=3)
        acyclic, _, _ = ch.cone(ch.ChainMap.identity(base))
        A = constant_cosimplicial(acyclic, 6)
        T = tt.total_complex(A, (acyclic.lo, acyclic.hi + 1))
        for n in range(acyclic.lo, acyclic.hi + 2):
            assert ch.homology(T, n).is_trivial()


def test_two_interval_cover_of_circle():
    K = cl.bundled_complex("circle3")
    U = {(0,), (1,), (2,), (0, 1), (1, 2)}
    V = {(0,), (2,), (0, 2)}
    rep = tt.descent_check(K, [U, V], "Z")
    assert rep["match"]
    assert rep["degrees"][0]["cech"] == "Z"
    assert rep["degrees"][1]["cech"] == "Z"


def test_one_element_cover_tot_is_cochain_complex():
    K = cl.bundled_complex("octahedron")
    cov = [set(K.dim_of)]
    A = tt.cech_double(K, cov, "Z", N=4)
    T = tt.total_complex(A, (0, K.dim))
    assert T.trim() == cl.cochain_complex(K, "Z").trim()


def test_empty_cover_rejected():
    K = cl.bundled_complex("circle3")
    with pytest.raises(ValueError, match="empty cover"):
        tt.cech_double(K, [], "Z")


def test_octahedron_star_cover_rational_descent():
    K = cl.bundled_complex("octahedron")
    rep = tt.descent_check(K, cl.star_cover(K), "Q")
    assert rep["match"]
    assert [rep["degrees"][n]["cech"] for n in range(3)] == ["Q", "0", "Q"]


def test_circle_star_cover_integral_descent():
    K = cl.bundled_complex("circle3")
    rep = tt.descent_check(K, cl.star_cover(K), "Z")
    assert rep["match"]
    assert [rep["degrees"][n]["cech"] for n in range(2)] == ["Z", "Z"]


def test_torus_star_cover_integral_descent():
    K = cl.bundled_complex("csaszar_torus")
    rep = tt.descent_check(K, cl.star_cover(K), "Z")
    assert rep["match"]
    assert [rep["degrees"][n]["cech"] for n in range(3)] == ["Z", "Z^2", "Z"]


def test_tot_simplicial_zero_and_constant():
    Z = ch.Complex("Q", 0, (0,), [zeros(0, 0)])
    A = tt.SimplicialComplexOfComplexes(
        4, [Z] * 5, [[ch.ChainMap.identity(Z)] * (q + 2) for q in range(4)])
    assert tt.total_complex(A, (-1, 1)).is_zero()
    Q = ch.atom("Q", 0)
    ident = ch.ChainMap.identity(Q)
    A = tt.SimplicialComplexOfComplexes(
        6, [Q] * 7, [[ident] * (q + 2) for q in range(6)])
    T = tt.total_complex(A, (-2, 1))
    got = {n: str(ch.homology(T, n)) for n in range(-2, 2)}
    assert got == {-2: "0", -1: "0", 0: "Q", 1: "0"}


def test_simplicial_identities_validated():
    Q = ch.atom("Q", 0)
    ident = ch.ChainMap.identity(Q)
    double = ch.ChainMap(Q, Q, {0: [[2]]})
    with pytest.raises(ValueError, match="simplicial identity"):
        tt.SimplicialComplexOfComplexes(
            2, [Q] * 3, [[ident, ident], [ident, double, ident]])


def test_prefix_assembly_matches_rebuilt_prefix_object():
    K = cl.bundled_complex("circle3")
    objects = [tt.cech_double(K, cl.star_cover(K), "Z", N=4),
               tt.simplex_resolution(1, 5)]
    for A, window in zip(objects, [(0, 1), (-1, 0)]):
        N = A.N - 1
        prefix = type(A)(N, A.levels[:N + 1], A.maps[:N])
        assert tt._tot(A, window, N) == tt.total_complex(prefix, window)


@pytest.mark.parametrize("cls", [tt.CosimplicialComplexTrunc,
                                 tt.SimplicialComplexOfComplexes])
def test_malformed_truncated_objects_rejected(cls):
    Q = ch.atom("Q", 0)
    ident = ch.ChainMap.identity(Q)
    with pytest.raises(ValueError, match="needs 3 maps"):
        cls(2, [Q] * 3, [[ident, ident], [ident, ident]])
    with pytest.raises(ValueError, match="N lists of maps"):
        cls(2, [Q] * 3, [[ident, ident]])
    with pytest.raises(ValueError, match="N lists of maps"):
        cls(2, [Q] * 2, [[ident, ident], [ident] * 3])
    Q2 = ch.direct_sum(Q, Q)
    with pytest.raises(ValueError, match="wrong source or target"):
        cls(1, [Q, Q2], [[ident, ident]])


def test_underlying_at_point_values_and_stability():
    for m in (1, 2, 3):
        rep = tt.underlying_at_point(m, 8, (-1, 2))
        for n, row in rep.items():
            want = "Q" if n == 0 else "0"
            assert str(row["group"]) == want, (m, n)
            assert row["stable"], (m, n)


def test_underlying_at_point_insufficient_level():
    with pytest.raises(tt.InsufficientTruncation):
        tt.underlying_at_point(1, 4, (-1, 2))
    with pytest.raises(ValueError):
        tt.underlying_at_point(0, 8, (-1, 2))


def test_truncation_empties_low_levels():
    res = tt.simplex_resolution(2, 3)
    assert res.levels[0].is_zero()
    assert res.levels[1].is_zero()
    assert not res.levels[2].is_zero()
    # at truncation level 0 the whole resolution degenerates to the zero
    # complex in level 0 (for any m >= 1 the point has no forms left)
    res0 = tt.simplex_resolution(1, 0)
    assert res0.N == 0 and res0.levels[0].is_zero()


# ---------------------------------------------------------------------------
# Reference: the constructions rebuilt from new cell complexes, one
# subcomplex per intersection and one standard q-simplex per level
# ---------------------------------------------------------------------------

def _block_diag(blocks, rows, cols):
    m = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        m[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return m


def _reference_cech(K, cover, ring, N):
    cover = [set(u) for u in cover]
    if N is None:
        N = len(cover) - 1
    subs = {}
    for q in range(N + 1):
        for t in combinations(range(len(cover)), q + 1):
            cells = set.intersection(*(cover[i] for i in t))
            if cells:
                subs[t] = cl.subcomplex(K, cells)
    tuples = [[t for t in subs if len(t) == q + 1] for q in range(N + 1)]
    degs = range(K.dim + 1)
    offsets = []    # per level: {tuple: [offset per degree]}
    levels = []
    for tups in tuples:
        ranks = [sum(subs[t].n_cells(d) for t in tups) for d in degs]
        offsets.append({t: [sum(subs[s].n_cells(d) for s in tups[:k])
                            for d in degs] for k, t in enumerate(tups)})
        diffs = [_block_diag([subs[t].boundary_matrix(d + 1).T for t in tups],
                             ranks[d + 1], ranks[d]) for d in range(K.dim)]
        levels.append(ch.Complex(ring, 0, ranks, diffs))
    maps = []
    for q in range(N):
        maps.append([])
        for i in range(q + 2):
            comps = {}
            for d in degs:
                m = np.zeros((levels[q + 1].rank(d), levels[q].rank(d)),
                             dtype=np.int64)
                for t in tuples[q + 1]:
                    src = t[:i] + t[i + 1:]
                    for r, c in enumerate(subs[t].cells(d)):
                        m[offsets[q + 1][t][d] + r,
                          offsets[q][src][d] + subs[src].index[c]] = 1
                comps[d] = m
            maps[q].append(ch.ChainMap(levels[q], levels[q + 1], comps))
    return levels, maps


def _mask(cell):
    return sum(1 << v for v in cell)


def _reference_simplex_resolution(m, N):
    # each standard q-simplex built from its facet, with its cells in every
    # degree put in vertex bit mask order, the order of simplex_resolution
    levels, cells = [], []
    for q in range(N + 1):
        S = cl.simplicial_from_facets([tuple(range(q + 1))])
        order = [sorted(range(S.n_cells(n)), key=lambda k: _mask(
            S.cells(n)[k])) for n in range(q + 1)]
        C = cl.cochain_complex(S, "Q")
        levels.append(ch.truncate_above(ch.Complex("Q", 0, C.ranks, [
            C.diff(n)[np.ix_(order[n + 1], order[n])] for n in range(q)]), m))
        cells.append([[S.cells(n)[k] for k in o] for n, o in enumerate(order)])
    maps = []
    for q in range(N):
        maps.append([])
        for i in range(q + 2):
            comps = {}
            for n in levels[q + 1].degrees():
                mat = np.zeros((levels[q].rank(n), levels[q + 1].rank(n)),
                               dtype=np.int64)
                if m <= n <= q:
                    big = {s: k for k, s in enumerate(cells[q + 1][n])}
                    for row, s in enumerate(cells[q][n]):
                        img = tuple(v if v < i else v + 1 for v in s)
                        mat[row, big[img]] = 1
                comps[n] = mat
            maps[q].append(ch.ChainMap(levels[q + 1], levels[q], comps))
    return levels, maps


def _assert_same_matrices(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert (a == b).all()


def _assert_matches_reference(A, levels, maps):
    assert A.N + 1 == len(levels) and len(A.maps) == len(maps)
    for got, want in zip(A.levels, levels):
        assert (got.ring, got.lo, got.hi, got.ranks) == \
            (want.ring, want.lo, want.hi, want.ranks)
        for a, b in zip(got.diffs, want.diffs):
            _assert_same_matrices(a, b)
    for got_q, want_q in zip(A.maps, maps):
        assert len(got_q) == len(want_q)
        for f, g in zip(got_q, want_q):
            assert f.index.keys() == g.mats.keys()
            for n in g.mats:
                _assert_same_matrices(f.component(n), g.mats[n])


@pytest.mark.parametrize("ring", ["Z", "Q"])
@pytest.mark.parametrize("name", ["circle3", "octahedron", "csaszar_torus",
                                  "rp2_6"])
def test_cech_double_matches_subcomplex_reference(name, ring):
    K = cl.bundled_complex(name)
    cover = cl.star_cover(K)
    for N in (None, K.dim + 2, len(cover) + 2):
        _assert_matches_reference(tt.cech_double(K, cover, ring, N),
                                  *_reference_cech(K, cover, ring, N))


def test_cech_double_matches_reference_on_small_covers():
    K = cl.bundled_complex("circle3")
    U = {(0,), (1,), (2,), (0, 1), (1, 2)}
    V = {(0,), (2,), (0, 2)}
    octahedron = cl.bundled_complex("octahedron")
    for K, cover, N in ((K, [U, V], 4), (K, [U, V], None),
                        (octahedron, [set(octahedron.dim_of)], 4)):
        _assert_matches_reference(tt.cech_double(K, cover, "Z", N),
                                  *_reference_cech(K, cover, "Z", N))


def test_simplex_resolution_matches_reference():
    # from vertex 10 on, repr order ("(10,)" < "(2,)") and mask order differ
    cases = [(m, N) for m in range(1, 5) for N in range(9)] + [(1, 10)]
    for m, N in cases:
        _assert_matches_reference(tt.simplex_resolution(m, N),
                                  *_reference_simplex_resolution(m, N))


def test_cech_double_rejects_cover_element_not_closed_under_faces():
    K = cl.bundled_complex("circle3")
    cover = cl.star_cover(K) + [{(0, 1)}]    # an edge without its vertices
    with pytest.raises(ValueError, match="outside the subcomplex"):
        tt.cech_double(K, cover, "Z")


def _count_cell_complexes(monkeypatch):
    calls = []
    init = cl.CellComplex.__init__
    monkeypatch.setattr(cl.CellComplex, "__init__",
                        lambda self, *a, **k: calls.append(1) or
                        init(self, *a, **k))
    return calls


BUNDLED = ("circle3", "octahedron", "rp2_6", "csaszar_torus")


@pytest.mark.parametrize("name", BUNDLED)
def test_descent_tot_needs_no_level_above_its_window(name):
    # on the default window descent builds levels 0..hi - lo + 2 only, and
    # the total complex is the one on every level of the cover, entry for
    # entry
    K = cl.bundled_complex(name)
    cover, window = cl.star_cover(K), (0, K.dim)
    full = tt.cech_double(K, cover, "Z", N=max(len(cover) - 1, K.dim + 2))
    got = tt.total_complex(tt.cech_double(K, cover, "Z", N=K.dim + 2), window)
    want = tt.total_complex(full, window)
    assert (got.lo, got.hi, got.ranks) == (want.lo, want.hi, want.ranks)
    for a, b in zip(got.diffs, want.diffs):
        _assert_same_matrices(a, b)


@pytest.mark.parametrize("window", [None, (-2, 3), (2, 4)])
@pytest.mark.parametrize("name", BUNDLED)
def test_descent_report_is_that_of_every_cech_level(name, window):
    K = cl.bundled_complex(name)
    cover = cl.star_cover(K)
    lo, hi = window or (0, K.dim)
    N = max(len(cover) - 1, hi + 1, hi - lo + 2)
    A = tt.cech_double(K, cover, "Z", N=N)
    T, C = tt.total_complex(A, (lo, hi)), cl.cochain_complex(K, "Z")
    degrees = {n: {"direct": str(ch.homology(C, n)),
                   "cech": str(ch.homology(T, n)),
                   "match": ch.homology(C, n) == ch.homology(T, n)}
               for n in range(lo, hi + 1)}
    assert tt.descent_check(K, cover, "Z", window) == {
        "degrees": degrees, "match": all(d["match"] for d in
                                         degrees.values()),
        "cover_size": len(cover)}


def test_descent_builds_no_cell_complex(monkeypatch):
    K = cl.bundled_complex("octahedron")
    cover = cl.star_cover(K)
    calls = _count_cell_complexes(monkeypatch)
    assert tt.descent_check(K, cover, "Z")["match"]
    assert not calls


@pytest.mark.parametrize("m, N", [(1, 0), (1, 6), (3, 8)])
def test_simplex_resolution_builds_no_cell_complex(monkeypatch, m, N):
    calls = _count_cell_complexes(monkeypatch)
    tt.simplex_resolution(m, N)
    assert not calls


def test_simplex_resolution_refuses_levels_past_the_vertex_masks(monkeypatch):
    # N = 63 would enumerate 2^64 faces: the check runs before the
    # standard simplex is built
    monkeypatch.setattr(tt, "_simplex_cochains",
                        lambda N: pytest.fail("the simplex was built"))
    with pytest.raises(tt.LevelTooLarge, match="N <= 62"):
        tt.simplex_resolution(1, 63)


def test_simplex_resolution_checks_the_standard_simplex(monkeypatch):
    # d o d = 0 of the N-simplex's coboundaries is checked where they are
    # built, and a failure is raised
    monkeypatch.setattr(tt, "vanishes", lambda terms: False)
    with pytest.raises(ValueError,
                       match="d o d != 0 on the standard 4-simplex"):
        tt.simplex_resolution(1, 4)


# ---------------------------------------------------------------------------
# Selection maps: the index checks against the dense products
# ---------------------------------------------------------------------------

def _selection_matrix(idx, cols):
    m = np.zeros((len(idx), cols), dtype=np.int64)
    for r, c in enumerate(idx):
        if c >= 0:
            m[r, c] = 1
    return m


def _built(build):
    """build(), or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as e:
        return str(e)


def _with(A, maps, q, changes):
    """'accepted', or the message, of rebuilding A on maps with maps[q][k]
    replaced by g for each k: g in changes."""
    got = _built(lambda: type(A)(A.N, A.levels, [
        [changes.get(k, g) for k, g in enumerate(ms)] if p == q else ms
        for p, ms in enumerate(maps)]))
    return got if isinstance(got, str) else "accepted"


def _selection_objects():
    for name in ("circle3", "octahedron", "csaszar_torus", "rp2_6"):
        K = cl.bundled_complex(name)
        for ring in ("Z", "Q"):
            yield tt.cech_double(K, cl.star_cover(K), ring)
    for m in (1, 2, 3):
        for N in range(9):
            yield tt.simplex_resolution(m, N)


def test_index_checks_agree_with_dense_products(monkeypatch):
    # every object is rebuilt from dense copies of its maps, whose checks
    # multiply components; then one selection has an index permuted or set
    # to -1, or two faces or cofaces of a level are swapped (each map still
    # commutes with d), and both forms must give the same outcome; the
    # selection form must accept with no product (the products only name
    # a failure)
    counted = _products_by_check(monkeypatch)

    def by_index(*args):
        before = counted["identities"]
        got = _with(*args)
        assert got != "accepted" or counted["identities"] == before
        return got

    rng = np.random.default_rng(0)
    seen = set()
    for A in _selection_objects():
        dense = [[ch.ChainMap(f.source, f.target,
                              {n: f.component(n) for n in f.index})
                  for f in maps] for maps in A.maps]
        assert all(f.index is None for maps in dense for f in maps)
        assert by_index(A, A.maps, 0, {}) == _with(A, dense, 0, {}) == \
            "accepted"
        levels = [q for q, maps in enumerate(A.maps)
                  if any(len(i) > 1 for i in maps[0].index.values())]
        for _ in range(3 if levels else 0):
            q = int(rng.choice(levels))
            k = int(rng.integers(len(A.maps[q])))
            f = A.maps[q][k]
            n = int(rng.choice([n for n, i in f.index.items() if len(i) > 1]))
            unselected = f.index[n].copy()
            unselected[rng.integers(len(unselected))] = -1
            for corrupt in (np.roll(f.index[n], 1), unselected):
                index = {**f.index, n: corrupt}
                got = []
                for maps, check, build in (
                        (A.maps, by_index,
                         lambda: ch.ChainMap(f.source, f.target,
                                             index=index)),
                        (dense, _with,
                         lambda: ch.ChainMap(f.source, f.target, {
                             d: _selection_matrix(i, f.source.rank(d))
                             for d, i in index.items()}))):
                    g = _built(build)
                    got.append(g if isinstance(g, str)
                               else check(A, maps, q, {k: g}))
                assert got[0] == got[1]
                seen.add(got[0].split(" in degree")[0].split(" at ")[0])
            i, j = (int(x) for x in rng.choice(len(A.maps[q]), 2,
                                                replace=False))
            got = [check(A, maps, q, {i: maps[q][j], j: maps[q][i]})
                   for maps, check in ((A.maps, by_index), (dense, _with))]
            assert got[0] == got[1]
            seen.add(got[0].split(" at ")[0])
    assert {"does not commute with d", "cosimplicial identity fails",
            "simplicial identity fails"} <= seen


def _stack(maps):
    """The selection maps between two levels as the index stack of
    ChainMap.selections."""
    return {n: np.stack([f.index[n] for f in maps]) for n in maps[0].index}


def _stacked_objects():
    for name in ("circle3", "octahedron", "csaszar_torus", "rp2_6"):
        K = cl.bundled_complex(name)
        yield tt.cech_double(K, cl.star_cover(K), "Z")
    for N in range(4, 9):
        yield tt.simplex_resolution(1, N)


def test_selections_are_the_maps_of_single_builds():
    for A in _stacked_objects():
        for maps in A.maps:
            f0 = maps[0]
            stacked = ch.ChainMap.selections(f0.source, f0.target, len(maps),
                                             _stack(maps))
            for f, g in zip(stacked, maps):
                single = ch.ChainMap(f.source, f.target, index=g.index)
                assert (f.index.keys() == single.index.keys()
                        == g.index.keys())
                for n in f.index:
                    assert f.index[n].dtype == single.index[n].dtype
                    assert (f.index[n] == single.index[n]).all()
                    assert (f.component(n) == single.component(n)).all()
                assert (f.flat == single.flat).all()


def test_dense_and_keyed_selection_checks_agree(monkeypatch):
    # each stack is checked with every degree on the dense branch, then on
    # the keyed one, unchanged and with one entry of one map corrupted; both
    # give the same verdict, and a failure names the corrupted map
    keyed = []
    key = ch._selection_key
    monkeypatch.setattr(ch, "_selection_key",
                        lambda *a: keyed.append(1) or key(*a))

    def verdicts(f0, k, index):
        got = []
        for work in (2 ** 62, 0):
            monkeypatch.setattr(ch, "_JOIN_WORK", work)
            keyed.clear()
            g = _built(lambda: ch.ChainMap.selections(
                f0.source, f0.target, k, index))
            got.append(g if isinstance(g, str) else "accepted")
            assert not keyed or work == 0
            ran.add(bool(keyed))
        assert got[0] == got[1]
        return got[0]

    rng = np.random.default_rng(0)
    named, ran = set(), set()
    for A in _stacked_objects():
        for maps in A.maps:
            f0, k, index = maps[0], len(maps), _stack(maps)
            assert verdicts(f0, k, index) == "accepted"
            degrees = [n for n, i in index.items() if i.shape[1] > 1]
            if not degrees:
                continue
            n = int(rng.choice(degrees))
            j = int(rng.integers(k))
            bad = index[n].copy()
            bad[j] = np.roll(bad[j], 1)
            got = verdicts(f0, k, {**index, n: bad})
            if got != "accepted":
                assert got.startswith(f"map {j} does not commute with d "
                                      f"in degree ")
                named.add(j)
    assert len(named) > 1 and ran == {False, True}


@pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int8])
def test_selection_indices_are_range_checked_before_the_cast(dtype):
    # 2^64 - 1 cast to int64 would read as -1, a zero row
    C = ch.atom("Z", 0)
    big = np.iinfo(dtype).max
    for build in (lambda i: ch.ChainMap(C, C, index={0: i}),
                  lambda i: ch.ChainMap.selections(C, C, 2, {0: np.stack([
                      np.zeros(1, dtype), i])})):
        with pytest.raises(ValueError, match="out of range"):
            build(np.array([big], dtype=dtype))
        f = build(np.zeros(1, dtype=dtype))
        f = f if isinstance(f, ch.ChainMap) else f[1]
        assert f.index[0].dtype == np.int64 and f.component(0).tolist() == [[1]]
    with pytest.raises(ValueError, match="needs 1 integer indices for each "
                                         "of 2 maps"):
        ch.ChainMap.selections(C, C, 2, {0: np.zeros((1, 1), dtype)})


def test_simplex_resolution_peak_memory_is_near_its_coboundaries():
    # each level is a view of the coboundaries of the standard simplex,
    # and the selection checks keep no padded copy of a large level
    coboundaries = sum(d.nbytes for d in tt._simplex_cochains(10)[1])
    tracemalloc.start()
    try:
        tt.simplex_resolution(1, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * coboundaries


def _products_by_check(monkeypatch):
    """Calls of mm or of the check kernel vanishes made inside
    _check_identities or inside the construction of a selection map,
    counted by wrapping both where tot and chains call them; the dense
    identity and commutation checks are counted too."""
    counted = {"identities": 0, "selection": 0, "dense": 0}

    def counting(call):
        def wrapped(*args):
            frame = sys._getframe(1)
            while frame is not None:
                self = frame.f_locals.get("self")
                if frame.f_code.co_name == "_check_identities":
                    counted["identities"] += 1
                    break
                if isinstance(self, ch.ChainMap):
                    counted["dense" if self.index is None
                            else "selection"] += 1
                    break
                frame = frame.f_back
            return call(*args)
        return wrapped

    for module, name in ((tt, "vanishes"), (ch, "mm"), (ch, "vanishes")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return counted


def test_selection_checks_multiply_nothing(monkeypatch):
    counted = _products_by_check(monkeypatch)
    for name in ("circle3", "octahedron", "csaszar_torus", "rp2_6"):
        K = cl.bundled_complex(name)
        assert tt.descent_check(K, cl.star_cover(K), "Z")["match"]
    for m in (1, 2, 3):
        assert all(row["stable"] for row in
                   tt.underlying_at_point(m, 6, (-1, 1)).values())
    assert counted == {"identities": 0, "selection": 0, "dense": 0}
    # the same checks on dense maps are counted
    A = tt.simplex_resolution(1, 4)
    type(A)(A.N, A.levels, [[ch.ChainMap(f.source, f.target, {
        n: f.component(n) for n in f.index}) for f in maps]
        for maps in A.maps])
    assert counted["identities"] > 0 and counted["dense"] > 0
    assert counted["selection"] == 0
