from fractions import Fraction

import numpy as np
import pytest

from cellcoh import cells as cl
from cellcoh import chains as ch
from cellcoh import linalg as la

from conftest import random_chain_map, random_complex


def circle_cochain(ring="Z"):
    return cl.cochain_complex(cl.bundled_complex("circle3"), ring)


def test_shift_identity_and_atom():
    C = circle_cochain()
    assert ch.shift(C, 0) == C
    A = ch.atom("Z", 2)
    assert A.rank(-2) == 1
    assert all(A.rank(n) == 0 for n in range(-5, 5) if n != -2)


def test_shift_homology_oracle():
    C = circle_cochain()
    for k in range(-2, 3):
        S = ch.shift(C, k)
        for n in range(-4, 5):
            assert ch.homology(S, n) == ch.homology(C, n + k)


def test_truncations():
    C = circle_cochain()
    assert ch.truncate_above(C, C.lo) == C
    assert ch.truncate_below(C, C.hi) == C
    s1 = ch.truncate_above(C, 1)
    assert ch.truncate_above(s1, 1) == s1
    assert str(ch.homology(s1, 0)) == "0"
    assert str(ch.homology(s1, 1)) == "Z^3"
    s0 = ch.truncate_below(C, 0)
    assert str(ch.homology(s0, 0)) == "Z^3"


def test_truncation_rank_additivity(rng):
    for _ in range(10):
        C = random_complex(rng)
        m = rng.randint(C.lo, C.hi)
        above, below = ch.truncate_above(C, m), ch.truncate_below(C, m - 1)
        for n in C.degrees():
            assert above.rank(n) + below.rank(n) == C.rank(n)


def test_cone_of_identity_is_acyclic():
    C = circle_cochain()
    cone, _, _ = ch.cone(ch.ChainMap.identity(C))
    for n in range(cone.lo - 1, cone.hi + 2):
        assert ch.homology(cone, n).is_trivial()


def test_cone_of_zero_map_from_zero():
    C = circle_cochain()
    zero = ch.Complex("Z", 0, (0,), [la.zeros(0, 0)])
    cone, _, _ = ch.cone(ch.ChainMap.zero(zero, C))
    assert cone == C


def test_cone_and_fiber_of_multiplication_by_two():
    Z0 = ch.atom("Z", 0)
    two = ch.ChainMap(Z0, Z0, {0: [[2]]})
    cone, _, _ = ch.cone(two)
    assert str(ch.homology(cone, 0)) == "Z/2"
    assert ch.homology(cone, -1).is_trivial()
    fib = ch.fiber(two)
    assert str(ch.homology(fib, 1)) == "Z/2"
    assert ch.homology(fib, 0).is_trivial()


def test_fiber_of_identity_acyclic_and_fiber_to_zero():
    C = circle_cochain()
    fib = ch.fiber(ch.ChainMap.identity(C))
    for n in range(fib.lo - 1, fib.hi + 2):
        assert ch.homology(fib, n).is_trivial()
    zero = ch.Complex("Z", 0, (0,), [la.zeros(0, 0)])
    fib2 = ch.fiber(ch.ChainMap.zero(C, zero))
    for n in range(-3, 4):
        assert ch.homology(fib2, n) == ch.homology(C, n)


def test_cone_mismatched_rings_rejected():
    with pytest.raises(ValueError):
        ch.ChainMap(ch.atom("Z", 0), ch.atom("Q", 0), {0: [[1]]})


def test_homology_oracle_values():
    # frozen from the minimal triangulations; cross-checked against an
    # independent Smith-form route in test_linalg
    expectations = {
        "circle3": ["Z", "Z"],
        "octahedron": ["Z", "0", "Z"],
        "rp2_6": ["Z", "0", "Z/2"],
        "csaszar_torus": ["Z", "Z^2", "Z"],
    }
    for name, want in expectations.items():
        C = cl.cochain_complex(cl.bundled_complex(name), "Z")
        got = [str(ch.homology(C, n)) for n in range(len(want))]
        assert got == want, name


def test_homology_invariant_under_unimodular_base_change(rng):
    from conftest import unimodular_pair
    for _ in range(10):
        C = random_complex(rng)
        pairs = [unimodular_pair(C.rank(n), rng) for n in C.degrees()]
        diffs = []
        degs = list(C.degrees())
        for i, n in enumerate(degs):
            if i + 1 < len(pairs):
                diffs.append(la.mm(pairs[i + 1][0],
                                   la.mm(C.diff(n), pairs[i][1])))
            else:
                diffs.append(la.zeros(0, C.rank(n)))
        C2 = ch.Complex(C.ring, C.lo, C.ranks, diffs)
        for n in range(C.lo - 1, C.hi + 2):
            assert ch.homology(C, n) == ch.homology(C2, n)


def test_homology_formula_matches_tracked_generators(rng):
    # the rank formula of `homology` against the generator computation of
    # HomologyData; over Q the differentials get non-integral entries
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        scaled = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * d
                  for d in C.diffs]
        CQ = ch.Complex("Q", C.lo, C.ranks, scaled)
        for D in (C, CQ):
            for n in D.degrees():
                assert ch.homology(D, n) == ch.HomologyData(D, n).group


def test_cone_long_exact_sequence_randomized(rng):
    found = 0
    while found < 10:
        A = random_complex(rng, length=3)
        B = random_complex(rng, length=3)
        f = random_chain_map(A, B, rng)
        cone, incl, proj = ch.cone(f)
        for n in cone.degrees():
            assert cone.rank(n) == B.rank(n) + A.rank(n + 1)
            assert ch.exact_at_middle(incl, proj, n)
        found += 1


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_exact_at_middle_fails_for_zero_maps_through_nonzero_homology(ring):
    # f = g = 0: the image of f is 0 but the kernel of g is all of
    # H^n(B) = Z (or Q) for n = 0, 1, so the sequence is not exact there
    B = circle_cochain(ring)
    zero = ch.ChainMap.zero(B, B)
    for n in (0, 1):
        assert not ch.homology(B, n).is_trivial()
        assert not ch.exact_at_middle(zero, zero, n)
    assert ch.exact_at_middle(zero, zero, 2)


def test_planted_bigint_torsion_reaches_the_big_integer_smith_form(
        rng, monkeypatch):
    # d0 = U1 D0 V0 and d1 = U2 D1 U1^-1 with D1 D0 = 0: H^1 = Z + Z/t +
    # Z/3t with t > 2^64 and H^2 = Z/2
    from conftest import unimodular_pair
    t = 2 ** 64 + 13
    D0 = la.zeros(6, 4)
    for i, d in enumerate([1, 1, t, 3 * t]):
        D0[i, i] = d
    D1 = la.zeros(2, 6)
    D1[0, 4], D1[1, 5] = 1, 2
    (V0, _), (U1, U1inv), (U2, _) = (unimodular_pair(n, rng)
                                     for n in (4, 6, 2))
    C = ch.Complex("Z", 0, (4, 6, 2),
                   [la.mm(la.mm(U1, D0), V0), la.mm(la.mm(U2, D1), U1inv)])
    cores = []
    snf = la.smith_normal_form
    monkeypatch.setattr(la, "smith_normal_form",
                        lambda M: cores.append(M) or snf(M))
    assert [str(ch.homology(C, n)) for n in range(3)] == \
        ["0", f"Z/{t} + Z/{3 * t}", "Z/2"]
    assert any(abs(x) >= 2 ** 63 for M in cores for x in M.flat)


def test_homology_outside_window_is_zero():
    C = circle_cochain()
    assert ch.homology(C, 99).is_trivial()
    assert ch.homology(C, -99).is_trivial()


def test_mixed_solve_reexported_and_verified():
    sol = ch.mixed_solve([[2]], np.zeros((1, 0)), [4])
    assert sol[0][0] == 2


def test_complex_dd_validation():
    with pytest.raises(ValueError):
        ch.Complex("Z", 0, (1, 1, 1), [[[1]], [[1]]])


def test_complex_json_round_trip(rng):
    for _ in range(5):
        C = random_complex(rng)
        assert ch.Complex.from_json(C.to_json()) == C
    Q = ch.Complex("Q", 0, (2, 1), [[[Fraction(1, 2), Fraction(-1, 2)]]])
    R = ch.Complex.from_json(Q.to_json())
    assert R == Q
