import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from cellcoh import bundles as bd
from cellcoh import cli
from cellcoh import diffcoh as dc


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


@pytest.mark.parametrize("argv", [
    ["descent", "circle3", "--window=2:0"],
    ["underlying-point", "--m", "1", "--level", "4", "--window=1:0"],
    ["homology", "circle3", "--window=3:1"],
], ids=["descent", "underlying-point", "homology"])
def test_reversed_window_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    window = argv[-1].split("=")[1]
    assert err.startswith("input error:") and repr(window) in err


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


@pytest.mark.parametrize("rank", [0, -1, 1.5])
@pytest.mark.parametrize("command", ["holonomy", "ch"])
def test_connection_rank_must_be_a_positive_integer(capsys, tmp_path,
                                                    command, rank):
    p = tmp_path / "conn.json"
    p.write_text(json.dumps(
        {"rank": rank, "coords": ["s", "t"],
         "domain": {"s": ["-1", "1"], "t": ["-1", "1"]}, "A": {}}))
    argv = [command, str(p)]
    if command == "holonomy":
        argv += [data("loops/circle_r05.json"), "--steps", "8"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and str(rank) in err


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


def test_underlying_point_single_degree_window_names_the_given_level(capsys):
    # tot at level N - 1 needs N - 1 >= 2 for one degree, so N >= 3, and the
    # error names the N that was given
    code, out, err = run(capsys, "underlying-point", "--m", "1", "--level",
                         "2", "--window=0:0")
    assert (code, out) == (2, "")
    assert err.startswith("input error:")
    assert "N=2 is insufficient; need N >= 3" in err
    code, out, _ = run(capsys, "underlying-point", "--m", "1", "--level", "3",
                       "--window=0:0")
    assert code == 0 and "H0 = Q (stable)" in out


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
    from cellcoh.linalg import IntSolver
    cycles = IntSolver(K.boundary_matrix(1)).kernel_basis()
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


def test_quadrature_reports_do_not_depend_on_cached_nodes(capsys):
    cases = [["transgress", data("connections/torus_wilson_path.json")],
             ["cycle-map-check", data("connections/torus_wilson_path.json"),
              data("charts/csaszar_flat.json")]]
    for argv in cases:
        bd.gauss_legendre01.cache_clear()
        cold = run(capsys, *argv, "--format", "json")
        warm = run(capsys, *argv, "--format", "json")
        assert cold[0] == 0 and cold == warm


def test_deterministic_output_for_fixed_seed(capsys):
    _, out1, _ = run(capsys, "hexagon", "circle3", "--m", "1",
                     "--samples", "12", "--seed", "7", "--format", "json")
    _, out2, _ = run(capsys, "hexagon", "circle3", "--m", "1",
                     "--samples", "12", "--seed", "7", "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("obj, message", [
    ({"ring": "Z", "lo": 0, "hi": 2, "ranks": [1, 1, 1],
      "differentials": [["1"], ["1"], []]}, "d o d != 0"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1],
      "differentials": [["1/2"], []]}, "non-integer entry"),
    ({"ring": "Z", "lo": 0, "ranks": [1, 1], "differentials": [["1"], []]},
     "'hi'"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1],
      "differentials": [["x"], []]}, "Invalid literal"),
    ({"ring": "Z", "lo": 0.5, "hi": 1, "ranks": [1, 1],
      "differentials": [["1"], []]}, "non-integer value 0.5"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1.9],
      "differentials": [["1"], []]}, "non-integer value 1.9"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1],
      "differentials": [[True], []]}, "bad matrix entry True"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, 1],
      "differentials": [["1"], [], ["7", "8"]]}, "3 differentials"),
    # negative ranks are refused before the entries are counted
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [1, -1],
      "differentials": [[]]}, "ranks must be non-negative"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [-2, -3],
      "differentials": [["1"] * 6]}, "ranks must be non-negative"),
    ({"ring": "Z", "lo": 0, "hi": 1, "ranks": [0, -1],
      "differentials": [[]]}, "ranks must be non-negative"),
    # hi < lo names no degree, so no group can be reported
    ({"ring": "Z", "lo": 0, "hi": -1, "ranks": [],
      "differentials": []}, "empty window"),
], ids=["d_squared_nonzero", "fraction_over_Z", "missing_hi", "bad_entry",
        "fractional_lo", "fractional_rank", "boolean_entry",
        "extra_differential", "negative_rank", "negative_ranks_six_entries",
        "negative_rank_no_entries", "empty_window"])
def test_malformed_cochain_complex_is_input_error(capsys, tmp_path, obj,
                                                  message):
    p = tmp_path / "complex.json"
    p.write_text(json.dumps(obj))
    code, _, err = run(capsys, "homology", str(p))
    assert code == 2
    assert err.startswith("input error:") and message in err


def test_null_incidence_is_input_error(capsys, tmp_path):
    # a null, fractional or boolean incidence or dimension is an input
    # error, never truncated to an integer; a cell of negative dimension
    # (whose incidences would drop out of every ordering) and an empty
    # facet are input errors too
    p = tmp_path / "cells.json"
    cases = [{"cells": [{"id": "v", "dim": v_dim, "boundary": []},
                        {"id": "e", "dim": 1, "boundary": [["v", inc]]}]}
             for v_dim, inc in ((0, None), (0, 1.9), (0, True), (0.7, 1))]
    cases += [{"cells": [{"id": "e", "dim": -1, "boundary": []},
                         {"id": "v", "dim": 0, "boundary": [["e", 1]]}]},
              {"facets": [[]]}]
    for obj in cases:
        p.write_text(json.dumps(obj))
        for argv in (["homology", str(p)], ["descent", str(p)],
                     ["hexagon", str(p), "--m", "1"]):
            code, _, err = run(capsys, *argv)
            assert code == 2, (argv, obj)
            assert err.startswith("input error:"), (argv, obj)


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
    from cellcoh.linalg import IntSolver
    K = cl.bundled_complex("octahedron")
    cycle = [str(v) for v in
             IntSolver(K.boundary_matrix(1)).kernel_basis()[:, 0]]
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


@pytest.mark.parametrize("ref", ["no_such_complex", "no/such/complex.json"])
@pytest.mark.parametrize("command",
                         ["lattice-class", "character", "cycle-map-check"])
def test_unknown_complex_of_a_bundle_or_chart_is_input_error(
        capsys, tmp_path, command, ref):
    # the complex a bundle or chart names is input like the file itself
    if command == "cycle-map-check":
        chart = json.loads(Path(data("charts/csaszar_flat.json")).read_text())
        argv = [data("connections/torus_wilson_path.json"),
                _write(tmp_path, "chart.json", {**chart, "complex": ref})]
    else:
        bundle = json.loads(Path(_monopole_file(tmp_path)).read_text())
        argv = [_write(tmp_path, "named.json", {**bundle, "complex": ref})]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and ref in err


def _edited(tmp_path, path, edit):
    """The JSON file at path with edit applied, written under tmp_path."""
    obj = json.loads(Path(path).read_text())
    edit(obj)
    return _write(tmp_path, "edited.json", obj)


def _zero_denominator_argv(tmp_path, case):
    """A command line whose input holds a "p/0" literal."""
    wilson = data("connections/torus_wilson_path.json")
    plane = data("connections/rotation_plane.json")
    chart = data("charts/csaszar_flat.json")
    bundle = lambda: _edited(tmp_path, _monopole_file(tmp_path),
                             lambda b: b["a"].__setitem__(0, "1/0"))
    cells = {"cells": [{"id": "a", "dim": 0, "boundary": []},
                       {"id": "e", "dim": "1/0", "boundary": [["a", 1]]}]}
    return {
        "lattice_class_a": lambda: ["lattice-class", bundle()],
        "character_a": lambda: ["character", bundle(), "--samples", "1"],
        "chart_periods": lambda: ["cycle-map-check", wilson, _edited(
            tmp_path, chart, lambda c: c["periods"].__setitem__(0, "1/0"))],
        "chart_vertices": lambda: ["cycle-map-check", wilson, _edited(
            tmp_path, chart,
            lambda c: c["vertices"]["1"].__setitem__(0, "4/0"))],
        "connection_domain": lambda: ["ch", _edited(
            tmp_path, plane,
            lambda c: c["domain"]["s"].__setitem__(1, "2/0"))],
        # in the character form, mul would fold 0 * (1/0) away unreported
        "connection_entry": lambda: ["ch", _edited(
            tmp_path, plane,
            lambda c: c["A"]["t"][0][0].__setitem__(0, "1/0"))],
        "loop_periods": lambda: ["holonomy", plane, _edited(
            tmp_path, data("loops/circle_r05.json"),
            lambda c: c.__setitem__("periods", {"u": "1/0"}))],
        "cochain_complex_entry": lambda: ["homology", _write(
            tmp_path, "c.json", {"ring": "Z", "lo": 0, "hi": 1,
                                 "ranks": [1, 1], "differentials": [["1/0"]]})],
        "cochain_complex_lo": lambda: ["homology", _write(
            tmp_path, "c.json", {"ring": "Z", "lo": "0/0", "hi": 0,
                                 "ranks": [1], "differentials": [[]]})],
        "cell_complex_dim": lambda: [
            "hexagon", _write(tmp_path, "k.json", cells), "--m", "1"],
    }[case]()


@pytest.mark.parametrize("case", [
    "lattice_class_a", "character_a", "chart_periods", "chart_vertices",
    "connection_domain", "connection_entry", "loop_periods",
    "cochain_complex_entry", "cochain_complex_lo", "cell_complex_dim"])
def test_zero_denominator_in_input_is_input_error(capsys, tmp_path, case):
    # every JSON rational is read by chains.parse_rational, and a constant
    # zero divisor in an expression is refused by its parser
    code, out, err = run(capsys, *_zero_denominator_argv(tmp_path, case))
    assert (code, out) == (2, "")
    assert err.startswith("input error:")
    assert ("division by zero" if case == "connection_entry"
            else "zero denominator") in err


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("argv", [
    ["hexagon", "csaszar_torus", "--m", "2"],
    ["homotopy-formula", "octahedron", "--m", "2"],
    ["s1-integrate", "octahedron", "--m", "2"],
    ["lattice-class", str(FIXTURES / "bundle_octahedron.json")],
    ["character", str(FIXTURES / "bundle_octahedron.json")],
], ids=lambda argv: argv[0])
def test_sampled_commands_make_no_per_draw_rng_calls(capsys, argv):
    # every sample is drawn through diffcoh._randbelow, and its reports are
    # those of one randrange per draw
    counts = dict.fromkeys(("randint", "randrange", "choice"), 0)

    def counted(name):
        method = getattr(random.Random, name)

        def call(self, *args, **kwargs):
            counts[name] += 1
            return method(self, *args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in counts:
            patch.setattr(random.Random, name, counted(name))
        fast = run(capsys, *argv, "--format", "json")
        assert fast[0] == 0
        assert counts == dict.fromkeys(counts, 0)
        patch.setattr(dc, "_randbelow",
                      lambda rng, widths: [rng.randrange(w) for w in widths])
        assert run(capsys, *argv, "--format", "json") == fast
    # lattice-class draws nothing
    assert (counts["randrange"] > 0) == (argv[0] != "lattice-class")


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


def test_transgress_steps_below_one_is_input_error(capsys):
    code, out, err = run(capsys, "transgress",
                         data("connections/rotation_path.json"),
                         "--steps", "0")
    assert (code, out) == (2, "")
    assert err == "input error: --steps must be at least 1\n"


def test_samples_below_one_is_input_error(capsys):
    code, out, err = run(capsys, "hexagon", "circle3", "--m", "1",
                         "--samples", "0")
    assert (code, out) == (2, "")
    assert err == "input error: --samples must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["underlying-point", "--m", "0"],
    ["homotopy-formula", "circle3", "--m", "0"],
])
def test_m_below_one_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "m >= 1" in err


@pytest.mark.parametrize("argv,need", [
    (["hexagon", "circle3", "--m", "9"], "1 <= m <= 2"),
    # the largest m whose sampled cochains are not empty is dim K + 1 on the
    # prism and dim K + 2 on the circle product
    (["homotopy-formula", "circle3", "--m", "9"], "1 <= m <= 2"),
    (["homotopy-formula", "circle3", "--m", "3"], "1 <= m <= 2"),
    (["s1-integrate", "circle3", "--m", "9"], "2 <= m <= 3"),
    (["s1-integrate", "circle3", "--m", "4"], "2 <= m <= 3"),
])
def test_m_above_range_is_input_error(capsys, argv, need):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"input error: m = {argv[-1]} out of range for a "
                   f"1-complex (need {need})\n")


@pytest.mark.parametrize("argv", [
    ["homotopy-formula", "circle3", "--m", "2", "--samples", "2"],
    ["s1-integrate", "circle3", "--m", "3", "--samples", "2"],
])
def test_largest_m_in_range_runs(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("argv", [
    ["homology", "circle3", "--steps", "0"],
    ["descent", "circle3", "--samples", "5"],
    ["underlying-point", "--m", "1", "--steps", "3"],
    ["hexagon", "circle3", "--m", "1", "--steps", "3"],
    ["holonomy", "connections/rotation_plane.json", "loops/circle_r05.json",
     "--samples", "3"],
    ["ch", "connections/rotation_plane.json", "--steps", "3"],
    ["lattice-class", "bundle.json", "--samples", "3"],
])
def test_options_exist_only_where_the_command_reads_them(capsys, argv):
    argv = [data(a) if "/" in a else a for a in argv]
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    flag = next(a for a in argv if a in ("--samples", "--steps"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_seed_and_format_are_accepted_by_every_command():
    # the benchmark passes --seed to every command
    ap = cli.build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        flags = {f for a in p._actions for f in a.option_strings}
        assert {"--seed", "--format"} <= flags, name


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


def test_closed_stdout_ends_quietly_with_the_sigpipe_code():
    # the read end is closed before the child starts, so its first write
    # to stdout fails
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from cellcoh.cli import main; sys.exit(main())",
             "homology", "octahedron", "--format", "json"],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("argv, key", [
    (["homology", "circle3"], "homology"),
    (["descent", "circle3"], "degrees"),
    (["underlying-point", "--m", "1", "--level", "6"], "degrees")])
def test_window_help_shows_the_form_for_a_negative_start(capsys, argv, key):
    with pytest.raises(SystemExit) as e:
        cli.main([argv[0], "--help"])
    assert e.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--window LO:HI" in text and "--window=-1:2" in text
    code, out, _ = run(capsys, *argv, "--window=-1:1", "--format", "json")
    assert code == 0
    assert list(json.loads(out)[key]) == ["-1", "0", "1"]


def test_underlying_point_level_past_the_vertex_masks_is_input_error(capsys):
    # the faces of the N-simplex are int64 bit masks: a level past 62 is
    # refused before the simplex is built
    code, out, err = run(capsys, "underlying-point", "--m", "1", "--level",
                         "100000000000", "--window=0:0")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "N <= 62" in err
