"""`homology` reads the invariant factors a `Complex` keeps.

The kept-store `homology` is compared with the two-elimination formula it
replaced (invariant factors of d^(n-1), rank over Q of d^n), and the
eliminations it runs are counted: no differential of one complex may be
eliminated twice, and the complex over the other ring (`over`) eliminates
nothing.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import linalg as la
from cellcoh import tot as tt

from conftest import random_complex

BUNDLED = ("circle3", "octahedron", "rp2_6", "csaszar_torus")


def two_elimination_homology(C, n):
    """H^n(C) by one elimination of d^(n-1) and one of d^n."""
    if n < C.lo or n > C.hi:
        return ch.zero_group(C.ring)
    d_in = la.invariant_factors(la.integerize_rows(C.diff(n - 1)))
    torsion = [d for d in d_in if d > 1] if C.ring == ch.RING_Z else []
    return ch.FgAbGroup(
        C.ring, rank=C.rank(n) - la.rat_rank(C.diff(n)) - len(d_in),
        torsion=torsion)


class Eliminations:
    """The linalg._Elimination runs inside `with`, in total and per
    Complex: each run is charged to the nearest caller frame holding a
    Complex, with the integer matrix it eliminated."""

    def __init__(self, monkeypatch):
        self.total = 0
        self.complexes = {}     # id -> Complex, kept alive
        self.runs = {}          # id -> Counter of matrix keys
        self.active = False
        init = la._Elimination.__init__

        def counted(elim, A, transforms):
            if self.active:
                self.total += 1
                C = self._caller_complex(sys._getframe(1))
                if C is not None:
                    self.complexes[id(C)] = C
                    self.runs.setdefault(id(C), Counter())[_key(A)] += 1
            init(elim, A, transforms)

        monkeypatch.setattr(la._Elimination, "__init__", counted)

    def __enter__(self):
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False

    @staticmethod
    def _caller_complex(frame):
        while frame is not None:
            for v in frame.f_locals.values():
                if isinstance(v, ch.Complex):
                    return v
            frame = frame.f_back
        return None

    def twice(self):
        """(complex, degree) for every differential eliminated more often
        than it occurs in its complex."""
        out = []
        for i, runs in self.runs.items():
            C = self.complexes[i]
            degs = range(C.lo - 1, C.hi + 1)
            keys = {n: _key(la.integerize_rows(C.diff(n))) for n in degs}
            occurs = Counter(keys.values())
            out += [(C, n) for n, k in keys.items() if runs[k] > occurs[k]]
        return out


def _key(A):
    return A.shape, tuple(int(x) for x in A.ravel())


@pytest.fixture
def eliminations(monkeypatch):
    return Eliminations(monkeypatch)


def _rational_base_change(C, rng):
    """C with degree n rescaled by a random rational diagonal D_n:
    d'^n = D_(n+1) d^n D_n^-1 has non-integral entries, and the same
    homology over Q."""
    scale = {n: [Fraction(rng.randint(1, 7), rng.randint(1, 7))
                 for _ in range(C.rank(n))] for n in C.degrees()}
    diffs = []
    for n in C.degrees():
        d = C.diff(n).astype(object).copy()
        for i in range(d.shape[0]):
            for j in range(d.shape[1]):
                d[i, j] = d[i, j] * scale[n + 1][i] / scale[n][j]
        diffs.append(d)
    return ch.Complex(ch.RING_Q, C.lo, C.ranks, diffs)


def _sweep(C):
    return [ch.homology(C, n) for n in range(C.lo - 1, C.hi + 2)]


def _counted_sweep(C, eliminations):
    with eliminations:
        return _sweep(C)


def _reference(C):
    return [two_elimination_homology(C, n) for n in range(C.lo - 1, C.hi + 2)]


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_homology_matches_the_two_elimination_formula(rng, ring,
                                                      eliminations):
    for _ in range(30):
        C = random_complex(rng, length=5, max_rank=4, ring=ring)
        assert _counted_sweep(C, eliminations) == _reference(C)
    assert eliminations.twice() == []


def test_homology_over_q_with_non_integral_differentials(rng, eliminations):
    seen_fraction = False
    for _ in range(20):
        C = _rational_base_change(random_complex(rng, max_rank=4), rng)
        seen_fraction |= any(isinstance(x, Fraction) and x.denominator > 1
                             for d in C.diffs for x in d.ravel())
        assert _counted_sweep(C, eliminations) == _reference(C)
    assert seen_fraction
    assert eliminations.twice() == []


def test_homology_over_q_with_entries_beyond_int64(rng, eliminations):
    # entries >= 2^31 are kept on Python ints, where int_solver over Q
    # declines; homology reads the kept invariant factors all the same
    big = 2 ** 40 + 7
    for _ in range(10):
        C = random_complex(rng, max_rank=4)
        Q = ch.Complex(ch.RING_Q, C.lo, C.ranks, [big * d for d in C.diffs])
        nonzero = [n for n in Q.degrees() if not la.is_zero(Q.diff(n))]
        for n in nonzero:
            assert Q.diff(n).dtype == object and Q.int_solver(n) is None
        assert _counted_sweep(Q, eliminations) == _reference(Q)
    assert eliminations.twice() == []


def test_homology_reads_the_diag_of_a_kept_int_solver(rng, eliminations):
    for _ in range(10):
        C = random_complex(rng, max_rank=4)
        for n in range(C.lo - 1, C.hi + 1):
            C.int_solver(n)
        assert _counted_sweep(C, eliminations) == _reference(C)
    assert eliminations.total == 0


def test_homology_over_the_other_ring_eliminates_nothing(rng, eliminations):
    for _ in range(10):
        C = random_complex(rng, max_rank=4)
        _sweep(C)
        Q = C.over(ch.RING_Q)
        assert _counted_sweep(Q, eliminations) == _reference(Q)
    K = cl.bundled_complex("rp2_6")
    _sweep(cl.cochain_complex(K, ch.RING_Z))
    assert [str(g) for g in _counted_sweep(cl.cochain_complex(K, ch.RING_Q),
                                           eliminations)] == \
        ["0", "Q", "0", "0", "0"]
    assert eliminations.total == 0


def test_no_differential_is_eliminated_twice(eliminations):
    with eliminations:
        for name in BUNDLED:
            K = cl.bundled_complex(name)
            for ring in ("Z", "Q"):
                _sweep(cl.cochain_complex(K, ring))
                # on a fresh complex, so that descent_check sweeps its
                # cochain complex itself
                assert tt.descent_check(cl.bundled_complex(name),
                                        cl.star_cover(K), ring)["match"]
        for m in (1, 2, 3):
            tt.underlying_at_point(m, 6, (-1, 1))
    # at least a cochain complex and a Cech tot per complex, and two tots
    # per m
    assert len(eliminations.runs) >= 2 * len(BUNDLED) + 6
    assert eliminations.twice() == []
