import argparse
import gc
import json
import math
from importlib import resources

import pytest

from cellcoh import cli


def data(path):
    return str(resources.files("cellcoh").joinpath("data/" + path))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_table(capsys):
    code, out, _ = run(capsys, "homology", "octahedron", "--ring", "Z")
    assert code == 0
    assert out.splitlines() == ["H0 = Z", "H1 = 0", "H2 = Z"]


def test_homology_rp2(capsys):
    code, out, _ = run(capsys, "homology", "rp2_6", "--ring", "Z")
    assert code == 0
    assert out.splitlines() == ["H0 = Z", "H1 = 0", "H2 = Z/2"]


def test_homology_empty_window_of_zero_complex(capsys, tmp_path):
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"ring": "Z", "lo": 0, "hi": 0, "ranks": [0],
                             "differentials": [[]]}))
    code, out, _ = run(capsys, "homology", str(p))
    assert code == 0
    assert out.strip() == "H0 = 0"


def test_homology_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "homology", "csaszar_torus", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["homology"]["1"] == "Z^2"


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "homology", "nonexistent.json")
    assert code == 2
    assert "input error" in err


def test_malformed_json_reports_offset(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2
    assert "offset" in err


def test_hexagon_pass_and_m_range(capsys):
    code, out, _ = run(capsys, "hexagon", "circle3", "--m", "1",
                       "--samples", "15")
    assert code == 0
    assert out.strip().endswith("PASS")
    code, _, err = run(capsys, "hexagon", "circle3", "--m", "9")
    assert code == 2
    assert "out of range" in err


def test_hexagon_octahedron_m3_degenerate(capsys):
    code, out, _ = run(capsys, "hexagon", "octahedron", "--m", "3",
                       "--samples", "10")
    assert code == 0


def test_holonomy_values(capsys):
    code, out, _ = run(capsys, "holonomy",
                       data("connections/rotation_plane.json"),
                       data("loops/circle_r05.json"))
    assert code == 0
    trace = float(out.splitlines()[0].split("=")[1])
    assert abs(trace - 2 * math.cos(math.pi / 4)) < 1e-6


def test_holonomy_clock(capsys):
    code, out, _ = run(capsys, "holonomy",
                       data("connections/circle_clock.json"),
                       data("loops/full_circle.json"), "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["trace"][0] - 2 * math.cos(1)) < 1e-8


def test_holonomy_domain_error(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(
        {"coords": {"s": "3*cos(2*pi*u)", "t": "3*sin(2*pi*u)"}}))
    code, _, err = run(capsys, "holonomy",
                       data("connections/rotation_plane.json"), str(p))
    assert code == 2
    assert "leaves the connection domain" in err


def test_descent_all_bundled(capsys):
    for name in ("circle3", "octahedron"):
        for ring in ("Z", "Q"):
            code, out, _ = run(capsys, "descent", name, "--ring", ring)
            assert code == 0
            assert out.strip().endswith("PASS")


def test_homotopy_formula_command(capsys):
    code, out, _ = run(capsys, "homotopy-formula", "circle3", "--m", "1",
                       "--samples", "10")
    assert code == 0
    assert "10/10 witnesses" in out


def test_s1_integrate_command(capsys):
    code, out, _ = run(capsys, "s1-integrate", "circle3", "--m", "2",
                       "--samples", "5")
    assert code == 0
    code, _, err = run(capsys, "s1-integrate", "circle3", "--m", "1")
    assert code == 2


def test_underlying_point_command(capsys):
    code, out, _ = run(capsys, "underlying-point", "--m", "2", "--level", "8")
    assert code == 0
    assert "H0 = Q (stable)" in out
    code, _, err = run(capsys, "underlying-point", "--m", "1", "--level", "3")
    assert code == 2
    assert "insufficient" in err


def test_ch_and_transgress_commands(capsys):
    code, out, _ = run(capsys, "ch", data("connections/rotation_plane.json"))
    assert code == 0
    assert "constant value: 2" in out
    code, out, _ = run(capsys, "transgress",
                       data("connections/rotation_path.json"))
    assert code == 0
    assert "identically zero" in out


def test_lattice_class_and_character_commands(capsys, tmp_path):
    from cellcoh import cells as cl
    K = cl.bundled_complex("octahedron")
    bundle = tmp_path / "bundle.json"
    from cellcoh import lattice as lt
    L = lt.monopole(K, 2)
    bundle.write_text(json.dumps(
        {"complex": "octahedron", "n": [str(v) for v in L.n],
         "a": [str(v) for v in L.a]}))
    code, out, _ = run(capsys, "lattice-class", str(bundle))
    assert code == 0
    assert "total curvature pairing: 2" in out
    code, out, _ = run(capsys, "character", str(bundle), "--samples", "25")
    assert code == 0
    assert "PASS" in out
    cyc = tmp_path / "cycle.json"
    from cellcoh.linalg import int_kernel_basis
    cycles = int_kernel_basis(K.boundary_matrix(1))
    cyc.write_text(json.dumps({"cycle": [str(v) for v in cycles[:, 0]]}))
    code, out, _ = run(capsys, "character", str(bundle), "--cycle", str(cyc),
                       "--samples", "5")
    assert code == 0
    assert "character value: 0" in out


def test_check_failure_exit_code(capsys, tmp_path):
    # a one-node quadrature cannot integrate a cubic path exactly, so the
    # convergence check fails and the command exits with 1
    p = tmp_path / "cubic_path.json"
    p.write_text(json.dumps(
        {"rank": 1, "coords": ["u", "s", "t"],
         "domain": {"u": ["0", "1"], "s": ["0", "1"], "t": ["0", "1"]},
         "A": {"t": [[["u^3*s", "0"]]]}}))
    code, _, err = run(capsys, "transgress", str(p), "--steps", "1")
    assert code == 1
    assert "check failed" in err


def test_cycle_map_command(capsys):
    code, out, _ = run(capsys, "cycle-map-check",
                       data("connections/torus_wilson_path.json"),
                       data("charts/csaszar_flat.json"))
    assert code == 0
    assert "PASS" in out


def test_deterministic_output_for_fixed_seed(capsys):
    _, out1, _ = run(capsys, "hexagon", "circle3", "--m", "1",
                     "--samples", "12", "--seed", "7", "--format", "json")
    _, out2, _ = run(capsys, "hexagon", "circle3", "--m", "1",
                     "--samples", "12", "--seed", "7", "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("obj", [
    {"ring": "Z", "lo": 0, "hi": 2, "ranks": [1, 1, 1],
     "differentials": [["1"], ["1"], []]},
    {"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1],
     "differentials": [["1/2"], []]},
    {"ring": "Z", "lo": 0, "ranks": [1, 1], "differentials": [["1"], []]},
    {"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1],
     "differentials": [["x"], []]},
], ids=["d_squared_nonzero", "fraction_over_Z", "missing_hi", "bad_entry"])
def test_malformed_cochain_complex_is_input_error(capsys, tmp_path, obj):
    p = tmp_path / "complex.json"
    p.write_text(json.dumps(obj))
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2
    assert err.startswith("input error:")


def test_null_incidence_is_input_error(capsys, tmp_path):
    p = tmp_path / "cells.json"
    p.write_text(json.dumps({"cells": [
        {"id": "v", "dim": 0, "boundary": []},
        {"id": "e", "dim": 1, "boundary": [["v", None]]}]}))
    for argv in (["homology", str(p)], ["descent", str(p)],
                 ["hexagon", str(p), "--m", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("input error:"), argv


def _monopole_file(tmp_path, n_first=None):
    from cellcoh import cells as cl
    from cellcoh import lattice as lt
    L = lt.monopole(cl.bundled_complex("octahedron"), 2)
    n = [str(v) for v in L.n]
    if n_first is not None:
        n[0] = n_first
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps({"complex": "octahedron", "n": n,
                             "a": [str(v) for v in L.a]}))
    return str(p)


def test_lattice_class_rejects_non_integral_n(capsys, tmp_path):
    code, out, err = run(capsys, "lattice-class",
                         _monopole_file(tmp_path, n_first="1/2"))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "non-integer" in err


def test_character_rejects_non_integral_cycle(capsys, tmp_path):
    from cellcoh import cells as cl
    from cellcoh.linalg import int_kernel_basis
    K = cl.bundled_complex("octahedron")
    cycle = [str(v) for v in int_kernel_basis(K.boundary_matrix(1))[:, 0]]
    cycle[0] = "1/2"
    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps({"cycle": cycle}))
    code, _, err = run(capsys, "character", _monopole_file(tmp_path),
                       "--cycle", str(cyc), "--samples", "1")
    assert code == 2
    assert err.startswith("input error:") and "non-integer" in err


def test_null_bundle_field_is_input_error(capsys, tmp_path):
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps({"complex": "octahedron", "n": None, "a": []}))
    code, _, err = run(capsys, "lattice-class", str(p))
    assert code == 2
    assert err.startswith("input error:")


def test_parser_is_built_once_per_process(capsys):
    # an argparse tree is cyclic; one built per call would leave a dead
    # tree to the cyclic collector on every in-process call
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert cli.main(["homology", "circle3", "--format", "json"]) == 0
        gc.collect()
        parsers = [o for o in gc.garbage
                   if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert parsers == []
    assert cli.build_parser() is cli.build_parser()


def test_bad_arguments_exit_2_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            cli.main(["hexagon", "circle3"])
        assert e.value.code == 2
        assert "the following arguments are required: --m" \
            in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["holonomy", "connections/rotation_plane.json", "loops/circle_r05.json",
     "--steps", "0"],
    ["holonomy", "connections/rotation_plane.json", "loops/circle_r05.json",
     "--steps", "-3"],
    ["cycle-map-check", "connections/torus_wilson_path.json",
     "charts/csaszar_flat.json", "--steps", "0"],
])
def test_steps_below_one_is_input_error(capsys, argv):
    argv = [data(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "input error: --steps must be at least 1\n"


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _rank_one(coords, box, comps):
    return {"rank": 1, "coords": coords,
            "domain": {c: box for c in coords},
            "A": {c: [[[e, "0"]]] for c, e in comps.items()}}


PLANE = ["-2", "2"]


@pytest.mark.parametrize("case,message", [
    # an open loop
    ("holonomy_open", "loop endpoint mismatch"),
    # A_s = 1/s on a closed loop through s = 0
    ("holonomy_pole", "division by zero at {'s': 0.0, 't': 0.0}"),
    # exp(exp(exp(4s))) overflows on the unit circle
    ("holonomy_overflow", "non-finite value at {'s': 1.0, 't': 0.0}"),
    # the closedness residual samples s = 0
    ("ch_pole", "division by zero"),
    # the transgression samples s = 0
    ("transgress_pole", "division by zero"),
    # the edge quadrature meets 1/(s - s)
    ("cycle_map_pole", "division by zero"),
    # discretization needs a rank-1 connection
    ("cycle_map_rank", "rank-1"),
])
def test_evaluation_time_errors_are_input_errors(capsys, tmp_path, case,
                                                 message):
    circle = _write(tmp_path, "circle.json",
                    {"coords": {"s": "cos(2*pi*u)", "t": "sin(2*pi*u)"}})
    argv = {
        "holonomy_open": ["holonomy", data("connections/rotation_plane.json"),
                          _write(tmp_path, "open.json",
                                 {"coords": {"s": "u", "t": "0"}})],
        "holonomy_pole": ["holonomy",
                          _write(tmp_path, "pole.json",
                                 _rank_one(["s", "t"], PLANE, {"s": "1/s"})),
                          _write(tmp_path, "sin.json",
                                 {"coords": {"s": "sin(2*pi*u)", "t": "0"}})],
        "holonomy_overflow": [
            "holonomy",
            _write(tmp_path, "ovf.json",
                   _rank_one(["s", "t"], PLANE,
                             {"t": "exp(exp(exp(s*4)))"})),
            circle],
        "ch_pole": ["ch", _write(tmp_path, "ch.json",
                                 _rank_one(["s", "t", "w"], ["-1", "1"],
                                           {"t": "w/s"}))],
        "transgress_pole": ["transgress",
                            _write(tmp_path, "tg.json",
                                   _rank_one(["u", "s", "t"], ["-1", "1"],
                                             {"t": "u/s"}))],
        "cycle_map_pole": ["cycle-map-check",
                           _write(tmp_path, "cm.json",
                                  _rank_one(["u", "s", "t"], ["0", "1"],
                                            {"s": "u/(s-s)", "t": "0"})),
                           data("charts/csaszar_flat.json")],
        "cycle_map_rank": ["cycle-map-check",
                           data("connections/rotation_path.json"),
                           data("charts/csaszar_flat.json")],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert message in err
