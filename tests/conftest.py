"""Shared builders for randomized suites.

Random complexes over Z are direct sums of elementary pieces (one-object
complexes and two-term multiplication complexes) conjugated by random
unimodular basis changes, so their homology is known by construction and
d o d = 0 holds exactly.
"""

import random

import numpy as np
import pytest

from cellcoh import chains as ch
from cellcoh import linalg as la


@pytest.fixture
def rng():
    return random.Random(0)


def unimodular_pair(n, rng):
    """(U, Uinv) exact inverse pair."""
    U = la.random_unimodular(n, rng)
    Uinv = la.solve_int_many(U, la.eye(n))
    assert Uinv is not None
    return U, Uinv


def random_complex(rng, lo=-1, length=4, max_rank=3, ring="Z"):
    """Random bounded complex with exact differentials."""
    ranks = [rng.randint(0, max_rank) for _ in range(length)]
    diffs = []
    for i in range(length):
        rows = ranks[i + 1] if i + 1 < length else 0
        diffs.append(la.zeros(rows, ranks[i]))
    # sprinkle elementary two-term pieces k: degree i -> i+1 where rank allows
    used_src = [set() for _ in range(length)]
    used_dst = [set() for _ in range(length)]
    for i in range(length - 1):
        for s in range(ranks[i]):
            t_choices = [t for t in range(ranks[i + 1])
                         if t not in used_dst[i + 1]]
            if not t_choices or s in used_src[i] or rng.random() < 0.4:
                continue
            t = rng.choice(t_choices)
            diffs[i][t, s] = rng.choice([1, 1, 2, 3, -1])
            used_src[i].add(s)
            used_dst[i + 1].add(t)
    # forbid chains d(i+1) d(i) != 0: a destination of step i must not be a
    # source of step i+1
    for i in range(length - 2):
        for s in range(ranks[i + 1]):
            if s in used_dst[i + 1] and s in used_src[i + 1]:
                diffs[i + 1][:, s] = 0
    C = ch.Complex(ring, lo, ranks, diffs)
    # conjugate by unimodular basis changes degreewise
    mats = []
    for n in C.degrees():
        U, Uinv = unimodular_pair(C.rank(n), rng)
        mats.append((U, Uinv))
    new_diffs = []
    for idx, n in enumerate(C.degrees()):
        if idx + 1 < len(mats):
            U_next = mats[idx + 1][0]
            new_diffs.append(la.mm(U_next, la.mm(C.diff(n), mats[idx][1])))
        else:
            new_diffs.append(la.zeros(0, C.rank(n)))
    return ch.Complex(ring, C.lo, C.ranks, new_diffs)


def random_chain_map(A, B, rng, tries=40):
    """Random chain map A -> B sampled from the integer solution lattice of
    the commuting constraints."""
    degrees = list(range(min(A.lo, B.lo), max(A.hi, B.hi) + 1))
    sizes = [(B.rank(n), A.rank(n)) for n in degrees]
    offsets, total = [], 0
    for r, c in sizes:
        offsets.append(total)
        total += r * c
    if total == 0:
        return ch.ChainMap.zero(A, B)
    rows = []
    for i, n in enumerate(degrees[:-1]):
        rB, cA = B.rank(n + 1), A.rank(n)
        if rB * cA == 0:
            continue
        block = la.zeros(rB * cA, total)
        dA, dB = A.diff(n), B.diff(n)
        # entry (p, q) of f^{n+1} dA - dB f^n
        for p in range(rB):
            for q in range(cA):
                row = p * cA + q
                # f^{n+1}[p, k] dA[k, q]
                r1, c1 = sizes[i + 1]
                for k in range(A.rank(n + 1)):
                    block[row, offsets[i + 1] + p * c1 + k] += dA[k, q]
                # - dB[p, k] f^{n}[k, q]
                r0, c0 = sizes[i]
                for k in range(B.rank(n)):
                    block[row, offsets[i] + k * c0 + q] -= dB[p, k]
        rows.append(block)
    if rows:
        constraint = np.concatenate(rows, axis=0)
        kernel = la.IntSolver(constraint).kernel_basis()
    else:
        kernel = la.eye(total)
    if kernel.shape[1] == 0:
        return ch.ChainMap.zero(A, B)
    coeffs = np.array([rng.randint(-2, 2) for _ in range(kernel.shape[1])],
                      dtype=object)
    flat = la.mv(kernel, coeffs)
    mats = {}
    for i, n in enumerate(degrees):
        r, c = sizes[i]
        mats[n] = np.array(flat[offsets[i]:offsets[i] + r * c],
                           dtype=object).reshape(r, c)
    return ch.ChainMap(A, B, mats)
