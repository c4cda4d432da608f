import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class ReferenceHomology:
    """The classes of H^n(C) by the earlier algorithm of HomologyData:
    rel solves kernel basis @ rel = image, the class of v is zero when the
    solver of d^(n-1) solves d^(n-1) x = v, and the coordinates of v are
    the first entries of a solution of [gens | d^(n-1)] x = v."""

    def __init__(self, C, n):
        ker = la.IntSolver(la.integerize_rows(C.diff(n))).kernel_basis()
        d_in = C.diff(n - 1)
        self.rel = la.solve_int_many(ker, la.integerize_rows(d_in.T).T)
        rsnf = la.smith_normal_form(self.rel)
        gens, self.orders = [], []
        for i in range(ker.shape[1]):
            d = rsnf.diag[i] if i < len(rsnf.diag) else 0
            if d == 1 or (d != 0 and C.ring == "Q"):
                continue
            gens.append(la.mv(ker, rsnf.Uinv[:, i]))
            self.orders.append(d)
        self.gens = (np.stack(gens, axis=1) if gens
                     else la.zeros(C.rank(n), 0))
        solver = la.IntSolver if C.ring == "Z" else la.RatSolver
        self._zero = solver(d_in)
        self._express = solver(np.concatenate([self.gens, d_in], axis=1))

    def express(self, v):
        x = self._express.solve(v)
        return None if x is None else x[:self.gens.shape[1]]

    def class_is_zero(self, v):
        return self._zero.solve(v) is not None


def _named_cochains(name, ring):
    K = (cl.circle_product(cl.bundled_complex("circle3")).complex
         if name == "S1xcircle3" else cl.bundled_complex(name))
    return cl.cochain_complex(K, ring)


@st.composite
def homology_cases(draw):
    """(C, n, rng): a random complex from conftest (torsion planted by its
    multiplication pieces; over Q, differentials scaled to non-integral
    ones) or the cochains of a bundled complex or of S^1 x circle3, a
    degree, and a source of test vectors."""
    ring = draw(st.sampled_from(["Z", "Q"]))
    source = draw(st.sampled_from(
        ["random"] * 4 + ["circle3", "octahedron", "csaszar_torus", "rp2_6",
                          "S1xcircle3"]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    C = (random_complex(rng, max_rank=4) if source == "random"
         else _named_cochains(source, "Z"))
    torsion = [n for n in C.degrees() if ch.homology(C, n).torsion]
    if ring == "Q":
        C = (C.over("Q") if source != "random" else
             ch.Complex("Q", C.lo, C.ranks,
                        [Fraction(rng.randint(1, 5), rng.randint(2, 5)) * d
                         for d in C.diffs]))
    if torsion and draw(st.booleans()):
        return C, draw(st.sampled_from(torsion)), rng
    return C, draw(st.integers(C.lo - 1, C.hi + 1)), rng


def _test_vectors(C, n, ref, rng):
    """Cocycles, boundaries, torsion classes and their multiples by the
    order, non-cocycles and, over Z, non-integral vectors."""
    N = C.rank(n)
    ker = la.IntSolver(la.integerize_rows(C.diff(n))).kernel_basis()
    d_in = C.diff(n - 1)

    def coef():
        if C.ring == "Z":
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def combination(M):
        return la.mv(M, np.array([coef() for _ in range(M.shape[1])],
                                 dtype=object)).reshape(N)

    cocycles = [combination(ker) + combination(d_in) for _ in range(4)]
    vecs = cocycles + [combination(d_in) for _ in range(2)]
    for i, d in enumerate(ref.orders):
        if d:
            g = ref.gens[:, i]
            vecs += [rng.randint(1, d - 1) * g, d * g + combination(d_in)]
    vecs += [np.array([coef() for _ in range(N)], dtype=object)
             for _ in range(2)]
    vecs += [v * Fraction(1, 2) for v in cocycles[:2]]
    return vecs


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(homology_cases())
def test_homology_classes_match_the_reference_algorithm(case):
    C, n, rng = case
    if rng.random() < 0.5 and all(d.dtype == np.int64 for d in C.diffs):
        # the Smith form of rel, kept for C over both rings, comes from the
        # other ring
        ch.HomologyData(C.over("Q" if C.ring == "Z" else "Z"), n)
    h, ref = ch.HomologyData(C, n), ReferenceHomology(C, n)
    out = C.int_solver(n) or la.IntSolver(la.integerize_rows(C.diff(n)))
    rel, in_kernel = out.kernel_coordinates(
        la.integerize_rows(C.diff(n - 1).T).T)
    assert in_kernel.all()
    assert rel.shape == ref.rel.shape and (rel == ref.rel).all()
    assert h.gens.shape == ref.gens.shape and (h.gens == ref.gens).all()
    assert list(h.orders) == ref.orders
    vecs = _test_vectors(C, n, ref, rng)
    for v in vecs:
        got, want = h.express(v), ref.express(v)
        assert (got is None) == (want is None)
        if got is not None:
            # a torsion coordinate is unique modulo the order
            assert all((a - b) % d == 0 if d else a == b
                       for a, b, d in zip(got, want, ref.orders))
        assert h.class_is_zero(v) == ref.class_is_zero(v)
    for v, w in zip(vecs, vecs[1:] + vecs[:1]):
        assert h.classes_equal(v, w) == ref.class_is_zero(v - w)
    # all the test vectors at once, as the columns of one matrix: the same
    # answers as one vector at a time
    singles = [h.express(v) for v in vecs]
    coords, ok = h.express(np.stack(vecs, axis=1))
    assert coords.shape == (len(ref.orders), len(vecs))
    assert ok.tolist() == [got is not None for got in singles]
    for j, got in enumerate(singles):
        if got is not None:
            assert coords[:, j].tolist() == got.tolist()
    assert h.class_is_zero(np.stack(vecs, axis=1)).tolist() == [
        h.class_is_zero(v) for v in vecs]
    wrong = la.zeros(C.rank(n) + 1, 1).reshape(-1)
    with pytest.raises(ValueError):
        h.express(wrong)
    with pytest.raises(ValueError):
        h.class_is_zero(wrong)


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


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_induced_map_without_generators_on_either_side(ring):
    # A: Z -1-> Z is acyclic, B: Z -0-> Z has H^0 = H^1 = Z; f: A -> B is
    # 1 in degree 0 (f^1 d_A = d_B f^0 forces f^1 = 0), g: B -> A is 1 in
    # degree 1 (forcing g^0 = 0)
    A = ch.Complex(ring, 0, (1, 1), [[[1]]])
    B = ch.Complex(ring, 0, (1, 1), [[[0]]])
    f = ch.ChainMap(A, B, {0: [[1]]})
    g = ch.ChainMap(B, A, {1: [[1]]})
    for h, n, shape in ((f, 0, (1, 0)), (g, 1, (0, 1)),
                        (ch.ChainMap.identity(A), 0, (0, 0))):
        mat, sh, th = ch.induced_map(h, n)
        assert mat.shape == shape == (th.gens.shape[1], sh.gens.shape[1])
        assert mat.dtype == object
    # A -> B -> A at H^0 = 0 -> Z -> 0 and at H^1 = 0 -> Z -> 0: the
    # composite vanishes, yet H^n(B) = Z is no image of 0
    zero = ch.ChainMap.zero(B, A)
    assert not ch.exact_at_middle(f, zero, 0)
    assert not ch.exact_at_middle(ch.ChainMap.zero(A, B), g, 0)
    assert ch.exact_at_middle(ch.ChainMap.identity(A),
                              ch.ChainMap.identity(A), 0)


def test_planted_bigint_torsion_reaches_the_big_integer_smith_form(rng):
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
    assert [str(ch.homology(C, n)) for n in range(3)] == \
        ["0", f"Z/{t} + Z/{3 * t}", "Z/2"]
    # the Smith form of d0 carries t and 3t on its big-integer diagonal
    snf = la.smith_normal_form(C.diff(0))
    assert snf.diag == [1, 1, t, 3 * t] and snf.D.dtype == object
    assert (snf.U.astype(object) @ C.diff(0) @ snf.V.astype(object)
            == snf.D).all()


def test_homology_outside_window_is_zero():
    C = circle_cochain()
    assert ch.homology(C, 99).is_trivial()
    assert ch.homology(C, -99).is_trivial()


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


def test_compose_multiplies_components_and_rejects_a_mismatch(rng):
    A, B, C = (random_complex(rng, lo=0, length=3) for _ in range(3))
    f, g = random_chain_map(A, B, rng), random_chain_map(B, C, rng)
    h = g.compose(f)
    assert h.source is A and h.target is C
    for n in range(-1, 4):
        want = la.mm(g.component(n), f.component(n))
        assert (h.component(n) == want).all()
    # one more rank in degree 0 than A, so it cannot feed f
    other = ch.ChainMap.identity(ch.direct_sum(A, ch.atom("Z", 0)))
    with pytest.raises(ValueError, match="composition mismatch"):
        f.compose(other)


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "R"}, "bad kind"),
    ({"kind": "Z", "torsion": (2, 1)}, "must exceed 1"),
    ({"kind": "QZ", "torsion": (0,)}, "must exceed 1"),
    ({"kind": "Z", "torsion": (2, 3)}, "must divide the next"),
])
def test_group_rejects_a_bad_kind_or_torsion(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ch.FgAbGroup(**kwargs)
