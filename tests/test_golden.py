"""`--format json` reports of the exact engine, compared byte for byte.

Each file under `golden/` is the stdout of `cellcoh <argv> --format json`
for the case of the same name.  A refactor of the exact layers must leave
every report as it is; a change meant to alter a report replaces its file
with the new stdout and says why.
"""

from pathlib import Path

import pytest

from cellcoh import cli

GOLDEN = Path(__file__).parent / "golden"
SAMPLED = ["--samples", "3", "--seed", "1"]
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
    "descent_rp2_6_Z": ["descent", "rp2_6", "--ring", "Z"],
    "descent_rp2_6_Q": ["descent", "rp2_6", "--ring", "Q"],
    "underlying_point_m2_level8":
        ["underlying-point", "--m", "2", "--level", "8", "--window=-1:2"],
    "homology_rp2_6": ["homology", "rp2_6"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_report_is_byte_identical(name, capsys):
    assert cli.main(CASES[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
