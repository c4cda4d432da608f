"""Where d o d = 0 is checked.

A complex enters the program through Complex(...), Complex.from_json,
CellComplex(...) or the total complex of tot, and each of them checks
d o d = 0 with products.  Everything derived from checked complexes (over,
window, trim, the truncations, shift, direct_sum, cone, fiber, the cochain
complex of a cell complex, the levels of a Cech or simplex object) is built
by Complex._derived, which makes no product.  The guard counts the products
of chains.mm and the calls of the check kernel linalg.vanishes that chains
makes, which need not reach mm (a small int64 check multiplies directly, a
large one joins nonzero entries); the reference test passes the arguments
of every derived construction through the public constructor and checks
d o d = 0 itself.
"""

from fractions import Fraction

import numpy as np
import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import tot as tt

from conftest import random_chain_map, random_complex


@pytest.fixture
def products(monkeypatch):
    """The shapes of the operands of every chains.mm call, and of the
    factors of every linalg.vanishes call that chains makes."""
    calls = []
    product, kernel = ch.mm, ch.vanishes

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return product(a, b)

    def checked(terms):
        calls.append(tuple(x.shape for t in terms for x in t[1:]))
        return kernel(terms)

    monkeypatch.setattr(ch, "mm", counted)
    monkeypatch.setattr(ch, "vanishes", checked)
    return calls


@pytest.fixture
def derived(monkeypatch):
    """(arguments, result) of every Complex._derived call."""
    calls = []
    build = ch.Complex._derived.__func__

    def recorded(cls, ring, lo, ranks, diffs, store=None):
        diffs = list(diffs)
        C = build(cls, ring, lo, ranks, diffs, store)
        calls.append(((ring, lo, tuple(ranks), diffs), C))
        return C

    monkeypatch.setattr(ch.Complex, "_derived", classmethod(recorded))
    return calls


def _pair(rng, ring):
    """Two random complexes and a random chain map between them; over Q
    each differential of both is scaled by a fraction of its degree, which
    keeps d o d = 0 and the commutation of the map."""
    A = random_complex(rng, lo=-1, length=4)
    B = random_complex(rng, lo=-1, length=4)
    f = random_chain_map(A, B, rng)
    if ring == ch.RING_Z:
        return A, B, f
    scale = lambda C: ch.Complex(ring, C.lo, C.ranks, [
        d.astype(object) * Fraction(1, n - C.lo + 2)
        for n, d in zip(C.degrees(), C.diffs)])
    A, B = scale(A), scale(B)
    return A, B, ch.ChainMap(A, B, f.mats)


def _derivations(A, B, f):
    """Every derived construction on A, B and f: label, thunk."""
    other = ch.RING_Q if A.ring == ch.RING_Z else ch.RING_Z
    ops = [("trim", A.trim), ("window", lambda: A.window(A.lo + 1, A.hi)),
           ("wide window", lambda: A.window(A.lo - 1, A.hi + 2)),
           ("direct_sum", lambda: ch.direct_sum(A, B)),
           ("cone", lambda: ch.cone(f)[0]), ("fiber", lambda: ch.fiber(f))]
    if A.ring == ch.RING_Z:     # over Z after Q needs integral entries
        ops.append(("over", lambda: A.over(other)))
    for m in range(A.lo - 2, A.hi + 3):
        ops.append((f"truncate_above {m}", lambda m=m: ch.truncate_above(A, m)))
        ops.append((f"truncate_below {m}", lambda m=m: ch.truncate_below(A, m)))
    for k in (-1, 1, 2):
        ops.append((f"shift {k}", lambda k=k: ch.shift(A, k)))
    return ops


def _bundled_levels():
    """Builders of the Cech and simplex objects on fresh cell complexes."""
    out = []
    for name in ("circle3", "octahedron"):
        for ring in (ch.RING_Z, ch.RING_Q):
            K = cl.bundled_complex(name)
            out.append((f"cech_double {name} {ring}",
                        lambda K=K, ring=ring: tt.cech_double(
                            K, cl.star_cover(K), ring, N=K.dim + 2)))
            K = cl.bundled_complex(name)
            out.append((f"cochain_complex {name} {ring}",
                        lambda K=K, ring=ring: cl.cochain_complex(K, ring)))
    for m in (1, 2):
        out.append((f"simplex_resolution m={m}",
                    lambda m=m: tt.simplex_resolution(m, 5)))
    return out


# ---------------------------------------------------------------------------
# Guard: derived complexes make no product, entry points make some
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [ch.RING_Z, ch.RING_Q])
def test_derived_complexes_make_no_product(rng, ring, products):
    for _ in range(4):
        A, B, f = _pair(rng, ring)
        for label, build in _derivations(A, B, f):
            products.clear()
            build()
            assert products == [], label


def test_cochain_complexes_and_levels_make_no_product(products):
    for label, build in _bundled_levels():
        products.clear()
        build()
        assert products == [], label


def test_entry_points_check_with_products(rng, products):
    A = random_complex(rng, lo=0, length=3, max_rank=3)
    products.clear()
    ch.Complex(A.ring, A.lo, A.ranks, A.diffs)
    assert len(products) >= 1
    products.clear()
    ch.Complex.from_json(A.to_json())
    assert len(products) >= 1
    K = cl.bundled_complex("circle3")
    A = tt.cech_double(K, cl.star_cover(K), "Z", N=3)
    products.clear()
    tt.total_complex(A, (0, 1))
    assert len(products) >= 1


def test_cell_complex_refuses_dd_nonzero():
    # Complex(...) and from_json keep their "d o d != 0" messages
    # (tests/test_int_storage.py, tests/test_cli.py); a cell complex, whose
    # cochain complex is derived unchecked, refuses dd != 0 itself
    with pytest.raises(ValueError, match="dd != 0 in dimension 2"):
        cl.CellComplex([("v", 0, []), ("e", 1, [("v", 1)]),
                        ("f", 2, [("e", 1)])])


# ---------------------------------------------------------------------------
# Reference: each derived complex is what the public constructor builds
# ---------------------------------------------------------------------------

def _check_against_public(calls, label):
    assert calls, label
    for (ring, lo, ranks, diffs), C in calls:
        P = ch.Complex(ring, lo, ranks, diffs)
        assert (C.ring, C.lo, C.hi, C.ranks) == (P.ring, P.lo, P.hi, P.ranks)
        for dc, dp in zip(C.diffs, P.diffs, strict=True):
            assert dc.dtype == dp.dtype, label
            assert not dc.flags.writeable and not dp.flags.writeable, label
            assert dc.shape == dp.shape and (dc == dp).all(), label
        for n, (d0, d1) in enumerate(zip(C.diffs, C.diffs[1:])):
            dd = np.dot(d1.astype(object), d0.astype(object))
            assert not dd.any(), f"{label}: d o d != 0 at {C.lo + n}"


@pytest.mark.parametrize("ring", [ch.RING_Z, ch.RING_Q])
def test_derived_complexes_equal_the_public_construction(rng, ring, derived):
    for _ in range(4):
        A, B, f = _pair(rng, ring)
        for label, build in _derivations(A, B, f):
            derived.clear()
            C = build()
            if not derived:     # a truncation that keeps all of A
                assert label.startswith("truncate") and C is A, label
                continue
            _check_against_public(derived, label)


def test_bundled_levels_equal_the_public_construction(derived):
    for label, build in _bundled_levels():
        derived.clear()
        build()
        _check_against_public(derived, label)
