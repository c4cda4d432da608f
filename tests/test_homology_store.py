"""`homology` reads the invariant factors a `Complex` keeps.

The kept-store `homology` is compared with the two-elimination formula it
replaced (invariant factors of d^(n-1), rank over Q of d^n), the factors
of one sweep with those of each differential eliminated whole, and the
eliminations are counted: one sweep of a complex runs at most one per
differential, and the complex over the other ring (`over`) runs none.
"""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np
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
    """The linalg._Elimination runs inside `with`, in total and per store:
    each run is charged to the nearest caller frame holding a Complex, and
    counted for the store it shares with itself over the other ring."""

    def __init__(self, monkeypatch):
        self.total = 0
        self.complexes = {}     # id of store -> a Complex holding it
        self.runs = Counter()   # id of store -> eliminations
        self.active = False
        init = la._Elimination.__init__

        def counted(elim, A, transforms):
            if self.active:
                self.total += 1
                C = self._caller_complex(sys._getframe(1))
                if C is not None:
                    self.complexes[id(C._solvers)] = C
                    self.runs[id(C._solvers)] += 1
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

    def overrun(self):
        """Every complex whose store ran more eliminations than the
        complex has differentials."""
        return [C for i, C in self.complexes.items()
                if self.runs[i] > len(C.ranks)]


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
        assert _counted_sweep(C, eliminations) == _reference(C)
    assert eliminations.overrun() == []


def test_homology_over_q_with_non_integral_differentials(rng, eliminations):
    seen_fraction = False
    for _ in range(20):
        C = _rational_base_change(random_complex(rng, max_rank=4), rng)
        seen_fraction |= any(isinstance(x, Fraction) and x.denominator > 1
                             for d in C.diffs for x in d.ravel())
        assert _counted_sweep(C, eliminations) == _reference(C)
    assert seen_fraction
    assert eliminations.overrun() == []


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
    assert eliminations.overrun() == []


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
    assert sum(eliminations.runs.values()) == eliminations.total
    assert eliminations.overrun() == []


# -- the sweep -------------------------------------------------------------

def _assert_whole_factors(C):
    """The sweep's factors of every degree are those of its differential
    eliminated whole."""
    for n in range(C.lo - 1, C.hi + 2):
        assert C.factors(n) == tuple(la.invariant_factors(
            la.integerize_rows(C.diff(n)))), (C, n)


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_sweep_factors_are_those_of_each_whole_differential(rng, ring):
    for _ in range(30):
        _assert_whole_factors(random_complex(rng, length=6, max_rank=5,
                                             ring=ring))


def test_sweep_factors_with_entries_beyond_int64(rng):
    # every other differential scaled past 2^63: the others keep their unit
    # pivots, which drop columns of the scaled ones (Python ints)
    big, seen_big = 2 ** 64 + 3, False
    for _ in range(20):
        C = random_complex(rng, length=6, max_rank=5)
        Z = ch.Complex(ch.RING_Z, C.lo, C.ranks, [
            big * d.astype(object) if i % 2 else d
            for i, d in enumerate(C.diffs)])
        seen_big |= any(d.dtype == object and not la.is_zero(d)
                        for d in Z.diffs)
        _assert_whole_factors(Z)
    assert seen_big


def test_sweep_factors_on_cochain_and_total_complexes():
    complexes = []
    for name in BUNDLED:
        K = cl.bundled_complex(name)
        A = tt.cech_double(K, cl.star_cover(K), "Z", N=K.dim + 2)
        complexes += [cl.cochain_complex(K, "Z"),
                      tt.total_complex(A, (0, K.dim))]
    for m in (1, 2, 3):
        res = tt.simplex_resolution(m, 6)
        complexes += [tt.total_complex(res, (-1, 1)),
                      tt._tot(res, (-1, 1), 5)]
    for C in complexes:
        _assert_whole_factors(C)


def test_sweep_over_q_keeps_each_rank(rng):
    for _ in range(20):
        C = _rational_base_change(random_complex(rng, length=6, max_rank=5),
                                  rng)
        for n in C.degrees():
            assert len(C.factors(n)) == la.rat_rank(C.diff(n))


def test_a_differential_that_loses_every_column_has_no_factors(monkeypatch):
    # each row of d^0 = 1 is a unit pivot, so d^1 (zero, as d^1 d^0 = 0)
    # is eliminated with none of its columns
    shapes = []
    init = la._Elimination.__init__
    monkeypatch.setattr(la._Elimination, "__init__",
                        lambda e, A, transforms: shapes.append(A.shape) or
                        init(e, A, transforms))
    C = ch.Complex(ch.RING_Z, 0, (2, 2, 3), [la.eye(2), la.zeros(3, 2)])
    assert [C.factors(n) for n in range(-1, 4)] == [(), (1, 1), (), (), ()]
    assert shapes == [(2, 2), (3, 0)]


def test_core_pivot_rows_keep_their_columns():
    # Z -[2; 3]-> Z^2 -[3 -2]-> Z is exact.  d^0 has no unit entry; were
    # its core pivot row dropped from d^1, [3] would be left, and Z/3 in H^2
    C = ch.Complex(ch.RING_Z, 0, (1, 2, 1), [[[2], [3]], [[3, -2]]])
    assert [C.factors(n) for n in range(3)] == [(1,), (1,), ()]
    assert [str(ch.homology(C, n)) for n in range(-1, 4)] == ["0"] * 5
