"""`--format json` reports, compared byte for byte.

Each file under `golden/` is the stdout of `cellcoh <argv> --format json`
for the case of the same name: reports of the exact engine, and of the
float layer (`ch`, `transgress`, `holonomy`, `cycle-map-check`), whose
character forms are printed as expression trees and whose numbers are
printed to the last bit.  Each file under `golden/pullback/` is the
`json.dumps(..., indent=1)` of `diffcoh.pullback_classification_check` on
a bundled complex at one valid m (samples=10, seed=3), which no command
prints.  A refactor must leave every report as it is; a change meant to
alter a report replaces its file with the new output and says why.
"""

import json
import sys
from pathlib import Path

import pytest

from cellcoh import cells as cl
from cellcoh import cli
from cellcoh import diffcoh as dc

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(cli.__file__).parent / "data"
FIXTURES = Path(__file__).parent / "fixtures"
SAMPLED = ["--samples", "3", "--seed", "1"]
TORUS_BUNDLE = str(FIXTURES / "bundle_csaszar_torus.json")
CASES = {
    "hexagon_circle3_m1": ["hexagon", "circle3", "--m", "1", *SAMPLED],
    "hexagon_octahedron_m2": ["hexagon", "octahedron", "--m", "2", *SAMPLED],
    "hexagon_csaszar_torus_m2":
        ["hexagon", "csaszar_torus", "--m", "2", *SAMPLED],
    "hexagon_rp2_6_m2": ["hexagon", "rp2_6", "--m", "2", *SAMPLED],
    "homotopy_formula_octahedron_m2":
        ["homotopy-formula", "octahedron", "--m", "2", *SAMPLED],
    "descent_circle3_Z": ["descent", "circle3", "--ring", "Z"],
    "descent_circle3_Q": ["descent", "circle3", "--ring", "Q"],
    "descent_octahedron_Z": ["descent", "octahedron", "--ring", "Z"],
    "descent_rp2_6_Z": ["descent", "rp2_6", "--ring", "Z"],
    "descent_rp2_6_Q": ["descent", "rp2_6", "--ring", "Q"],
    "underlying_point_m1_level6":
        ["underlying-point", "--m", "1", "--level", "6", "--window=-1:1"],
    "underlying_point_m2_level8":
        ["underlying-point", "--m", "2", "--level", "8", "--window=-1:2"],
    "homology_rp2_6": ["homology", "rp2_6"],
    "lattice_class_csaszar_torus": ["lattice-class", TORUS_BUNDLE],
    "lattice_class_octahedron":
        ["lattice-class", str(FIXTURES / "bundle_octahedron.json")],
    "character_csaszar_torus":
        ["character", TORUS_BUNDLE,
         "--cycle", str(FIXTURES / "cycle_csaszar_torus.json"), *SAMPLED],
    "s1_integrate_circle3_m2":
        ["s1-integrate", "circle3", "--m", "2", *SAMPLED],
    "s1_integrate_octahedron_m3":
        ["s1-integrate", "octahedron", "--m", "3", *SAMPLED],
    "cycle_map_check_torus_wilson_path":
        ["cycle-map-check", str(DATA / "connections" / "torus_wilson_path.json"),
         str(DATA / "charts" / "csaszar_flat.json")],
    "ch_torus_wilson_path":
        ["ch", str(DATA / "connections" / "torus_wilson_path.json")],
    "ch_rotation_plane":
        ["ch", str(DATA / "connections" / "rotation_plane.json")],
    "transgress_torus_wilson_path":
        ["transgress", str(DATA / "connections" / "torus_wilson_path.json")],
    "holonomy_rotation_plane_circle_r05":
        ["holonomy", str(DATA / "connections" / "rotation_plane.json"),
         str(DATA / "loops" / "circle_r05.json")],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_is_byte_identical(name, capsys):
    assert cli.main(CASES[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


# every valid m of a bundled complex: 1 <= m <= dim + 1
PULLBACK = [(name, m)
            for name in ("circle3", "octahedron", "csaszar_torus", "rp2_6")
            for m in range(1, cl.bundled_complex(name).dim + 2)]


def test_every_pullback_golden_file_has_a_case():
    assert sorted(p.stem for p in (GOLDEN / "pullback").glob("*.json")) == \
        sorted(f"{name}_m{m}" for name, m in PULLBACK)


@pytest.mark.parametrize("name,m", PULLBACK)
def test_pullback_classification_is_byte_identical(name, m):
    rep = dc.pullback_classification_check(cl.bundled_complex(name), m,
                                           samples=10, seed=3)
    assert json.dumps(rep, indent=1) + "\n" == \
        (GOLDEN / "pullback" / f"{name}_m{m}.json").read_text()


def _bench_ops(names, tmp_path):
    """argv of every op of the benchmark's workloads, on inputs generated
    from one seed."""
    if not (PERFBENCH / "workloads.py").is_file():
        pytest.skip("no benchmark op lists in this checkout")
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    made = inputs.generate(tmp_path / "inputs", 1)
    return [op.argv for name in names
            for op in workloads.WORKLOADS[name](made, DATA, 1)]


def test_no_report_value_reaches_the_json_default(tmp_path, monkeypatch,
                                                  capsys):
    # `_emit` serializes with default=str, which would print a numpy int64
    # or bool_ as the string "3" or "True" without a word; every value of
    # a report must be a plain JSON type
    argvs = list(CASES.values()) + _bench_ops(
        ("classes", "cohomology", "holonomy"), tmp_path)
    dumps, leaked = json.dumps, []

    def strict(obj, **kw):
        def record(x):
            leaked.append((argv, type(x).__name__, repr(x)))
            return str(x)
        return dumps(obj, **{**kw, "default": record})

    monkeypatch.setattr(json, "dumps", strict)
    for argv in argvs:
        assert cli.main(argv + ["--format", "json"]) == 0, argv
    capsys.readouterr()
    assert leaked == []
