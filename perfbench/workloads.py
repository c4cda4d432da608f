"""The three workloads: op lists and the output check of every op.

An op is one `cellcoh` command line, run in-process through
`cellcoh.cli.main([..., "--format", "json"])`.  Its check gets the exit
code and the parsed JSON report and returns None when the output is right,
else a one-line reason.  Every expected value is known by construction:
from the topology of the complex, from the generated input (see
`inputs.py`), or in closed form (the holonomy traces).
"""

from __future__ import annotations

import math
from pathlib import Path

from inputs import LADDER_NODES

# Sample counts per op.  A `classes` pass stays near 5 s, so a 30 s run
# takes the median over several passes; the hexagon samples are where the
# class-equality solves happen.
HEXAGON_SAMPLES = 10
HOMOTOPY_SAMPLES = 10
S1_SAMPLES = 5
CHARACTER_SAMPLES = 25

# Node groups of `hexagon` at the listed m on the bundled complexes:
# C^(m-1)/im(delta), closed m-cochains, H^(m-1)(Q), H^m(Q), H^(m-1)(Q/Z),
# H^m(Z).
HEXAGON_NODES = {
    ("circle3", 1): ("Q^3", "Q^3", "Q", "Q", "Q/Z", "Z"),
    ("octahedron", 2): ("Q^7", "Q^8", "0", "Q", "0", "Z"),
    ("csaszar_torus", 2): ("Q^15", "Q^14", "Q^2", "Q", "Q/Z^2", "Z"),
    ("rp2_6", 2): ("Q^10", "Q^10", "0", "0", "Z/2", "Z/2"),
}
NODE_KEYS = ("forms_mod_exact", "closed_forms", "H_low_Q", "H_high_Q",
             "H_low_QZ", "H_high_Z")

# Cohomology of the bundled complexes, degrees 0..dim.  The 7-vertex torus
# is left out of `descent` (4.6 s over Z, 6.5 s over Q: its Cech tot has
# ranks 49/231/413/371), and so is rp2_6 over Q (1.3 s).  Ops near 1 s
# measure the machine's load swings as much as the program, and each op
# needs about ten passes in a run for a steady median.
COHOMOLOGY = {
    ("circle3", "Z"): ("Z", "Z"),
    ("octahedron", "Z"): ("Z", "0", "Z"),
    ("rp2_6", "Z"): ("Z", "0", "Z/2"),
    ("circle3", "Q"): ("Q", "Q"),
    ("octahedron", "Q"): ("Q", "0", "Q"),
}

# `underlying-point` over degrees -1..1 at simplicial level 6, the least
# level that window allows; level 8 over -1..2 takes 11 s for m = 1, 2, 3
# together, for the same reason as above.
POINT_LEVEL = 6
POINT_WINDOW = (-1, 1)

ROTATION_RADII = (("circle_r03", 0.3), ("circle_r05", 0.5),
                  ("circle_r08", 0.8))


class Op:
    """One command line and the check of its JSON report."""

    __slots__ = ("label", "argv", "check")

    def __init__(self, label, argv, check):
        self.label, self.argv, self.check = label, list(argv), check


def _passed(rc, out):
    if rc != 0 or out.get("passed") is not True:
        return f"exit {rc}, passed={out.get('passed')}"
    return None


def _hexagon(nodes):
    def check(rc, out):
        bad = _passed(rc, out)
        if bad:
            return bad
        got = {k: out["nodes"].get(k) for k in nodes}
        return None if got == nodes else f"nodes {got} != {nodes}"
    return check


def _descent(groups):
    want = {str(n): {"direct": g, "cech": g, "match": True}
            for n, g in enumerate(groups)}

    def check(rc, out):
        if rc != 0 or out.get("match") is not True:
            return f"exit {rc}, match={out.get('match')}"
        return None if out["degrees"] == want else \
            f"degrees {out['degrees']} != {want}"
    return check


def _point(rc, out):
    lo, hi = POINT_WINDOW
    want = {str(n): {"group": "Q" if n == 0 else "0", "stable": True}
            for n in range(lo, hi + 1)}
    if rc != 0 or out.get("degrees") != want:
        return f"exit {rc}, degrees {out.get('degrees')}"
    return None


def _homology(groups):
    def check(rc, out):
        if rc != 0 or out.get("homology") != groups:
            return f"exit {rc}, homology {out.get('homology')} != {groups}"
        return None
    return check


def _trace(value, tol):
    def check(rc, out):
        re, im = out.get("trace", (math.nan, math.nan))
        if rc != 0 or not (abs(re - value) < tol and abs(im) < tol):
            return f"exit {rc}, trace {re}+{im}i vs {value} (tol {tol})"
        return None
    return check


def _ch_constant(rc, out):
    if rc != 0 or out.get("constant") != "2":
        return f"exit {rc}, constant {out.get('constant')}"
    return None


def _transgress_zero(rc, out):
    if rc != 0 or out.get("converged") is not True or out.get("zero") is not True:
        return f"exit {rc}, converged={out.get('converged')} zero={out.get('zero')}"
    return None


def _lattice_class(charge):
    """The underlying class is charge times a generator and the total flux is
    +-charge; the signs depend on the generator and fundamental cycle the
    program picks."""
    def check(rc, out):
        coords = out.get("underlying_class")
        flux = out.get("total_flux")
        if (rc != 0 or coords not in ([str(charge)], [str(-charge)])
                or flux not in (str(charge), str(-charge))):
            return f"exit {rc}, class {coords} flux {flux} vs charge {charge}"
        return None
    return check


def _character(rc, out):
    if rc != 0 or out.get("cs_property_passed") is not True:
        return f"exit {rc}, cs_property_passed={out.get('cs_property_passed')}"
    return None


def classes(inputs: dict, data: Path, seed: int) -> list:
    s = ["--seed", str(seed)]
    ops = []
    for (name, m), groups in HEXAGON_NODES.items():
        ops.append(Op(f"hexagon {name} m={m}",
                      ["hexagon", name, "--m", str(m),
                       "--samples", str(HEXAGON_SAMPLES)] + s,
                      _hexagon(dict(zip(NODE_KEYS, groups)))))
    for name, m in (("circle3", 1), ("octahedron", 2)):
        ops.append(Op(f"homotopy-formula {name} m={m}",
                      ["homotopy-formula", name, "--m", str(m),
                       "--samples", str(HOMOTOPY_SAMPLES)] + s, _passed))
    for name in ("circle3", "octahedron"):
        ops.append(Op(f"s1-integrate {name} m=2",
                      ["s1-integrate", name, "--m", "2",
                       "--samples", str(S1_SAMPLES)] + s, _passed))
    for name, path in inputs["ladders"].items():
        ops.append(Op(f"hexagon {name} m=2",
                      ["hexagon", path, "--m", "2",
                       "--samples", str(HEXAGON_SAMPLES)] + s,
                      _hexagon(LADDER_NODES[name])))
    for path, charge in inputs["bundles"]:
        label = Path(path).stem
        ops.append(Op(f"lattice-class {label}",
                      ["lattice-class", path] + s, _lattice_class(charge)))
        ops.append(Op(f"character {label}",
                      ["character", path,
                       "--samples", str(CHARACTER_SAMPLES)] + s, _character))
    return ops


def cohomology(inputs: dict, data: Path, seed: int) -> list:
    s = ["--seed", str(seed)]
    ops = []
    for (name, ring), groups in COHOMOLOGY.items():
        ops.append(Op(f"descent {name} {ring}",
                      ["descent", name, "--ring", ring] + s,
                      _descent(groups)))
    for m in (1, 2, 3):
        ops.append(Op(f"underlying-point m={m}",
                      ["underlying-point", "--m", str(m),
                       "--level", str(POINT_LEVEL),
                       "--window=%d:%d" % POINT_WINDOW] + s,
                      _point))
    for path, groups in inputs["planted"]:
        ops.append(Op(f"homology {Path(path).stem}",
                      ["homology", path] + s, _homology(groups)))
    return ops


def holonomy(inputs: dict, data: Path, seed: int) -> list:
    s = ["--seed", str(seed)]
    conn = data / "connections"
    rotation = str(conn / "rotation_plane.json")
    ops = []
    for loop, rho in ROTATION_RADII:
        ops.append(Op(f"holonomy rotation_plane {loop}",
                      ["holonomy", rotation, str(data / "loops" / f"{loop}.json"),
                       "--steps", "4096"] + s,
                      _trace(2 * math.cos(math.pi * rho * rho), 1e-6)))
    ops.append(Op("holonomy circle_clock full_circle",
                  ["holonomy", str(conn / "circle_clock.json"),
                   str(data / "loops" / "full_circle.json"),
                   "--steps", "4096"] + s,
                  _trace(2 * math.cos(1.0), 1e-8)))
    ops.append(Op("ch rotation_plane", ["ch", rotation] + s, _ch_constant))
    ops.append(Op("transgress rotation_path",
                  ["transgress", str(conn / "rotation_path.json")] + s,
                  _transgress_zero))
    ops.append(Op("cycle-map-check torus_wilson_path csaszar_flat",
                  ["cycle-map-check", str(conn / "torus_wilson_path.json"),
                   str(data / "charts" / "csaszar_flat.json")] + s, _passed))
    return ops


WORKLOADS = {"classes": classes, "cohomology": cohomology,
             "holonomy": holonomy}
