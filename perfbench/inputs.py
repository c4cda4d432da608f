"""Seeded input files for the benchmark workloads.

Everything here is a pure function of the seed, so two runs with one seed
hand the program byte-identical files.  Each generator returns, next to
the file it wrote, the answer the program must reproduce, known from the
construction and not from running the program:

* ladder complexes (S^1 x circle3 and prism(octahedron)) in the general
  cell format, with their hexagon node groups;
* planted-torsion cochain complexes: a diagonal of 1s, torsion beyond
  2^63 and zeros, conjugated by seeded unimodular matrices, with their
  cohomology groups;
* random lattice line bundles over the octahedron and the 7-vertex torus
  whose underlying class is a known multiple of a face generator.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from cellcoh import cells, linalg

# Node groups of the hexagon report at m = 2, from the topology of the two
# products (torus and I x S^2) and their cell counts.
LADDER_NODES = {
    "ladder_s1_circle3": {
        "forms_mod_exact": "Q^10", "closed_forms": "Q^9", "H_low_Q": "Q^2",
        "H_high_Q": "Q", "H_low_QZ": "Q/Z^2", "H_high_Z": "Z"},
    "ladder_prism_octahedron": {
        "forms_mod_exact": "Q^19", "closed_forms": "Q^20", "H_low_Q": "0",
        "H_high_Q": "Q", "H_low_QZ": "0", "H_high_Z": "Z"},
}

# (rank of C^0, C^1, C^2) of the two planted-torsion complexes.
PLANTED_SHAPES = ((7, 12, 7), (9, 14, 9))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def ladder_complexes(out: Path) -> dict:
    """name -> path of the two product complexes in the general cell format."""
    products = {
        "ladder_s1_circle3":
            cells.circle_product(cells.bundled_complex("circle3")),
        "ladder_prism_octahedron":
            cells.prism(cells.bundled_complex("octahedron")),
    }
    return {name: _write(out / f"{name}.json", prod.complex.to_json())
            for name, prod in products.items()}


def _inverse(a):
    """Exact inverse of a square integer matrix with determinant +-1."""
    n = len(a)
    m = [[Fraction(int(x)) for x in row] + [Fraction(int(i == j))
                                            for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    inv = [[x for x in row[n:]] for row in m]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def _unimodular(rng: random.Random, n: int):
    return [[int(x) for x in row]
            for row in linalg.random_unimodular(n, rng, steps=3 * n)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _group(rank: int, torsion) -> str:
    parts = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
    parts += [f"Z/{t}" for t in torsion]
    return " + ".join(parts) or "0"


def planted_torsion(rng: random.Random, shape) -> tuple[dict, dict]:
    """A three-term complex C^0 -> C^1 -> C^2 over Z with planted homology.

    d0 = U1 D0 V0 and d1 = U2 D1 U1^-1 with D1 D0 = 0, so d1 d0 = 0 and
    the cohomology is that of the diagonal pieces: d0's diagonal has 1s,
    two torsion coefficients t | t*k with t > 2^63, and zeros; d1 has 1s
    and one small torsion coefficient on the rows d0 leaves free.
    """
    r0, r1, r2 = shape
    t = rng.randrange(2 ** 64, 2 ** 65) | 1
    big = [t, t * rng.randrange(2, 6)]
    ones0 = r0 - len(big) - 2              # two zero columns in d0
    diag0 = [1] * ones0 + big              # rank of d0
    small = rng.choice((2, 3, 4, 6))
    free = r1 - len(diag0)                 # rows of D0 that stay zero
    diag1 = [1] * (free - 2) + [small]     # d1 leaves one of them free
    D0 = [[0] * r0 for _ in range(r1)]
    for i, d in enumerate(diag0):
        D0[i][i] = d
    D1 = [[0] * r1 for _ in range(r2)]
    for i, d in enumerate(diag1):
        D1[i][len(diag0) + i] = d
    V0, U1, U2 = (_unimodular(rng, n) for n in (r0, r1, r2))
    d0 = _matmul(_matmul(U1, D0), V0)
    d1 = _matmul(_matmul(U2, D1), _inverse(U1))
    obj = {"ring": "Z", "lo": 0, "hi": 2, "ranks": [r0, r1, r2],
           "differentials": [[str(x) for row in d0 for x in row],
                             [str(x) for row in d1 for x in row], []]}
    expect = {
        "0": _group(r0 - len(diag0), ()),
        "1": _group(free - len(diag1), big),
        "2": _group(r2 - len(diag1), (small,)),
    }
    return obj, expect


def lattice_bundle(rng: random.Random, complex_name: str) -> tuple[dict, int]:
    """(n, a) with n = charge * e_f + delta(mu) for one face f, integral mu,
    and random rational a.

    The underlying class is charge times the class of e_f, which generates
    H^2 = Z up to sign, and the total curvature pairing is +-charge, since
    delta a and delta mu pair to zero with the fundamental cycle.
    """
    K = cells.bundled_complex(complex_name)
    charge = rng.choice((-3, -2, -1, 1, 2, 3))
    n = [0] * K.n_cells(2)
    n[rng.randrange(len(n))] = charge
    mu = [rng.randint(-4, 4) for _ in range(K.n_cells(1))]
    d1 = K.boundary_matrix(2)              # columns are faces, rows edges
    for f in range(K.n_cells(2)):
        n[f] += sum(int(d1[e, f]) * mu[e] for e in range(K.n_cells(1)))
    a = [str(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
         for _ in range(K.n_cells(1))]
    return {"complex": complex_name, "n": n, "a": a}, charge


def generate(out: Path, seed: int) -> dict:
    """Write every seeded input under `out`; return paths and answers."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    inputs = {"ladders": ladder_complexes(out), "planted": [], "bundles": []}
    for i, shape in enumerate(PLANTED_SHAPES):
        obj, expect = planted_torsion(rng, shape)
        inputs["planted"].append(
            (_write(out / f"planted_{i}.json", obj), expect))
    for name in ("octahedron", "csaszar_torus"):
        obj, charge = lattice_bundle(rng, name)
        inputs["bundles"].append(
            (_write(out / f"bundle_{name}.json", obj), charge))
    return inputs
