import math
import random
from importlib import resources

import numpy as np
import pytest

from cellcoh import bundles as bd


def data(path):
    return str(resources.files("cellcoh").joinpath("data/" + path))


def rotation_plane():
    return bd.SmoothConnection.load(data("connections/rotation_plane.json"))


def rotation_path():
    return bd.SmoothConnection.load(data("connections/rotation_path.json"))


def test_rotation_curvature_is_constant_antisymmetric_block():
    F = bd.curvature(rotation_plane())
    assert set(F.comps) == {(0, 1)}
    m = F.comps[(0, 1)]
    vals = [[m[i][j].eval({"s": 0.3, "t": -0.7}) for j in range(2)]
            for i in range(2)]
    assert vals == [[0, -1], [1, 0]]


def test_path_curvature_has_both_terms():
    F = bd.curvature(rotation_path())
    # coords (u, s, t): expect components at (1,2) = u ds^dt and (0,2) = s du^dt
    env = {"u": 0.4, "s": 0.9, "t": 0.1}
    v12 = F.comps[(1, 2)][1][0].eval(env)
    v02 = F.comps[(0, 2)][1][0].eval(env)
    assert v12 == pytest.approx(0.4)
    assert v02 == pytest.approx(0.9)


def test_zero_connection_flat():
    conn = bd.SmoothConnection.from_json(
        {"rank": 2, "coords": ["s", "t"],
         "domain": {"s": ["0", "1"], "t": ["0", "1"]}, "A": {}})
    assert bd.curvature(conn).is_zero()
    assert bd.chern_character_form(conn).constant_value() == 2


def test_curvature_against_finite_differences():
    rng = random.Random(0)
    conn = bd.SmoothConnection.from_json(
        {"rank": 2, "coords": ["s", "t"],
         "domain": {"s": ["-2", "2"], "t": ["-2", "2"]},
         "A": {"s": [[["sin(t)", "0"], ["s*t", "1/3"]],
                     [["0", "t^2"], ["cos(s*t)", "0"]]],
               "t": [[["exp(s/2)", "0"], ["1", "s"]],
                     [["s-t", "0"], ["0", "0"]]]}})
    F = bd.curvature(conn)
    for _ in range(20):
        env = {"s": rng.uniform(-1.5, 1.5), "t": rng.uniform(-1.5, 1.5)}
        fd = bd.finite_difference_curvature(conn, env)
        sym = F.eval(env)
        for key, approx in fd.items():
            exact = sym.get(key, np.zeros((2, 2), dtype=complex))
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() / scale < 1e-6


def test_chern_character_of_rotation_is_two():
    ch = bd.chern_character_form(rotation_plane())
    assert ch.constant_value() == 2
    assert bd.closedness_residual(ch, rotation_plane()) < 1e-9


def test_chern_character_abelian_rank_one():
    conn = bd.SmoothConnection.from_json(
        {"rank": 1, "coords": ["s", "t"],
         "domain": {"s": ["-1", "1"], "t": ["-1", "1"]},
         "A": {"t": [[["s^2/2", "0"]]]}})
    ch = bd.chern_character_form(conn)
    assert ch.constant_value() is None
    term1 = ch.term(1)
    # F = s ds^dt, so the b-coefficient is the single function s
    assert term1.eval_component((0, 1), {"s": 0.37, "t": 0.5}) == \
        pytest.approx(0.37)
    assert bd.closedness_residual(ch, conn) < 1e-9


def test_chern_character_additive_on_direct_sums():
    a = {"rank": 1, "coords": ["s", "t"],
         "domain": {"s": ["-1", "1"], "t": ["-1", "1"]},
         "A": {"t": [[["s^2/2", "0"]]]}}
    b = {"rank": 1, "coords": ["s", "t"],
         "domain": {"s": ["-1", "1"], "t": ["-1", "1"]},
         "A": {"t": [[["sin(s)", "0"]]]}}
    both = {"rank": 2, "coords": ["s", "t"],
            "domain": {"s": ["-1", "1"], "t": ["-1", "1"]},
            "A": {"t": [[["s^2/2", "0"], ["0", "0"]],
                        [["0", "0"], ["sin(s)", "0"]]]}}
    ca = bd.chern_character_form(bd.SmoothConnection.from_json(a))
    cb = bd.chern_character_form(bd.SmoothConnection.from_json(b))
    cab = bd.chern_character_form(bd.SmoothConnection.from_json(both))
    env = {"s": 0.61, "t": -0.2}
    for idx in ((0, 1),):
        assert cab.term(1).eval_component(idx, env) == pytest.approx(
            ca.term(1).eval_component(idx, env)
            + cb.term(1).eval_component(idx, env))
    assert cab.term(0).comps[()].eval(env) == 2


def test_transgression_of_rotation_path_vanishes():
    form, converged = bd.transgress_ch(rotation_path(), steps=32)
    assert converged
    assert not form.terms


def test_transgression_of_constant_path_vanishes():
    const = bd.SmoothConnection.from_json(
        {"rank": 2, "coords": ["u", "s", "t"],
         "domain": {"u": ["0", "1"], "s": ["-1", "1"], "t": ["-1", "1"]},
         "A": {"t": [[["0", "0"], ["-s", "0"]], [["s", "0"], ["0", "0"]]]}})
    form, converged = bd.transgress_ch(const, steps=16)
    assert converged
    assert not form.terms


def test_transgression_rank_one_closed_form_vs_quadrature():
    # A(u) = u f(s,t) dt transgresses to b * f dt
    path = bd.SmoothConnection.from_json(
        {"rank": 1, "coords": ["u", "s", "t"],
         "domain": {"u": ["0", "1"], "s": ["-1", "1"], "t": ["-1", "1"]},
         "A": {"t": [[["u*(s^2 + 1/4)", "0"]]]}})
    form, converged = bd.transgress_ch(path, steps=48)
    assert converged
    term = form.term(1)
    (idx,) = term.comps.keys()
    assert idx == (1,)   # the dt component on base coords (s, t)
    for s in (0.0, 0.33, -0.8):
        got = term.eval_component(idx, {"s": s, "t": 0.1})
        assert got == pytest.approx(s * s + 0.25, abs=1e-12)


def test_transgression_requires_unit_interval():
    bad = bd.SmoothConnection.from_json(
        {"rank": 1, "coords": ["u", "s"],
         "domain": {"u": ["0", "1/2"], "s": ["0", "1"]}, "A": {}})
    with pytest.raises(ValueError, match="0, 1"):
        bd.transgress_ch(bad)


def test_holonomy_trivial_connection_is_identity():
    conn = bd.SmoothConnection.from_json(
        {"rank": 3, "coords": ["s", "t"],
         "domain": {"s": ["-1", "1"], "t": ["-1", "1"]}, "A": {}})
    loop = bd.Loop.load(data("loops/circle_r05.json"))
    U = bd.holonomy(conn, loop, steps=64)
    assert np.abs(U - np.eye(3)).max() < 1e-12
    assert bd.bch_zero(conn, loop, steps=64) == pytest.approx(3)


def test_holonomy_area_law_circles():
    conn = rotation_plane()
    for rho, name in ((0.3, "circle_r03"), (0.5, "circle_r05"),
                      (0.8, "circle_r08")):
        loop = bd.Loop.load(data(f"loops/{name}.json"))
        tr = bd.bch_zero(conn, loop, steps=4096)
        assert abs(tr - 2 * math.cos(math.pi * rho * rho)) < 1e-6


def test_holonomy_depends_only_on_enclosed_area():
    conn = rotation_plane()
    circle = bd.Loop.load(data("loops/circle_r05.json"))
    ellipse = bd.Loop.from_json(
        {"coords": {"s": "5/8*cos(2*pi*u)", "t": "2/5*sin(2*pi*u)"}})
    a1 = bd.shoelace_area(circle)
    a2 = bd.shoelace_area(ellipse)
    assert abs(a1 - a2) < 1e-9    # 0.5^2 = 0.625 * 0.4
    t1 = bd.bch_zero(conn, circle, steps=4096)
    t2 = bd.bch_zero(conn, ellipse, steps=4096)
    assert abs(t1 - t2) < 1e-7


def test_clock_connection_full_loop():
    conn = bd.SmoothConnection.load(data("connections/circle_clock.json"))
    loop = bd.Loop.load(data("loops/full_circle.json"))
    tr = bd.bch_zero(conn, loop, steps=4096)
    assert abs(tr - 2 * math.cos(1)) < 1e-8


def test_richardson_consistency():
    conn = rotation_plane()
    loop = bd.Loop.load(data("loops/circle_r05.json"))
    t1 = bd.bch_zero(conn, loop, steps=4096)
    t2 = bd.bch_zero(conn, loop, steps=8192)
    assert abs(t1 - t2) < 1e-8


def test_holonomy_concatenation_is_product():
    conn = rotation_plane()
    loop = bd.Loop.load(data("loops/circle_r08.json"))
    whole = bd.transport(conn, loop, 0.0, 1.0, 2048)
    first = bd.transport(conn, loop, 0.0, 0.5, 1024)
    second = bd.transport(conn, loop, 0.5, 1.0, 1024)
    assert np.abs(second @ first - whole).max() < 1e-8


def noncommuting_plane():
    # A_s and A_t do not commute, so the holonomy depends on the order in
    # which the step propagators are multiplied
    return bd.SmoothConnection.from_json(
        {"rank": 2, "coords": ["s", "t"],
         "domain": {"s": ["-2", "2"], "t": ["-2", "2"]},
         "A": {"s": [[["0", "0"], ["t", "0"]], [["0", "0"], ["0", "0"]]],
               "t": [[["0", "0"], ["0", "s"]], [["s*t", "0"], ["0", "0"]]]}})


def noncommuting_connection(rank):
    """A rank-r connection in the pattern of noncommuting_plane: t on the
    superdiagonal of A_s, i s and s t on the two off-diagonals of A_t, and
    the phases i t / (k + 1) and -i (k + 1) s on their diagonals, so that
    A_s and A_t do not commute for r >= 2 and rank 1 still has curvature."""
    def matrix(diag, upper, lower):
        return [[diag(i) if i == j else upper if j == i + 1
                 else lower if i == j + 1 else ["0", "0"]
                 for j in range(rank)] for i in range(rank)]

    return bd.SmoothConnection.from_json(
        {"rank": rank, "coords": ["s", "t"],
         "domain": {"s": ["-2", "2"], "t": ["-2", "2"]},
         "A": {"s": matrix(lambda k: ["0", f"t/{k + 1}"], ["t", "0"],
                           ["0", "0"]),
               "t": matrix(lambda k: ["0", f"-{k + 1}*s"], ["0", "s"],
                           ["s*t", "0"])}})


def stepwise_transport(conn, loop, u0, u1, steps):
    """Plain RK4 on U, one step after another, with the generators
    -A(gamma)gamma' at the step ends and midpoints evaluated up front."""
    h = (u1 - u0) / steps
    u = u0 + h / 2 * np.arange(2 * steps + 1)
    p, v = loop.point(u), loop.velocity(u)
    M = -sum(conn.evaluate_at(c, p) * v[c][:, None, None]
             for c in conn.coords)
    U = np.eye(conn.rank, dtype=complex)
    for k in range(steps):
        k1 = M[2 * k] @ U
        k2 = M[2 * k + 1] @ (U + h / 2 * k1)
        k3 = M[2 * k + 1] @ (U + h / 2 * k2)
        k4 = M[2 * k + 2] @ (U + h * k3)
        U = U + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


@pytest.mark.parametrize("u0,u1", [(0.0, 1.0), (0.5, 1.0), (1.0, 0.0)])
def test_noncommuting_transport_matches_stepwise_rk4(u0, u1):
    # rank 2, and the ranks around it: the stack product sums over k
    loop = bd.Loop.load(data("loops/circle_r08.json"))
    for conn in (noncommuting_plane(), *map(noncommuting_connection,
                                            (1, 3, 4))):
        for steps in (1, 2, 3, 255, 256, 257, 1000, 4097, 8192):
            want = stepwise_transport(conn, loop, u0, u1, steps)
            got = bd.transport(conn, loop, u0, u1, steps)
            assert np.abs(got - want).max() <= 1e-12, (conn.rank, steps)


def test_noncommuting_holonomy_concatenation_is_product():
    conn = noncommuting_plane()
    loop = bd.Loop.load(data("loops/circle_r08.json"))
    whole = bd.transport(conn, loop, 0.0, 1.0, 2048)
    first = bd.transport(conn, loop, 0.0, 0.5, 1024)
    second = bd.transport(conn, loop, 0.5, 1.0, 1024)
    assert np.abs(second @ first - whole).max() < 1e-12
    # the two halves do not commute: the order of the product is tested
    assert np.abs(first @ second - whole).max() > 1e-3


def test_holonomy_unitary_for_antihermitian_connection():
    conn = rotation_plane()
    loop = bd.Loop.load(data("loops/circle_r05.json"))
    U = bd.holonomy(conn, loop, steps=4096)
    assert np.abs(U.conj().T @ U - np.eye(2)).max() < 1e-8


def test_loop_must_close():
    with pytest.raises(ValueError, match="mismatch"):
        bd.holonomy(rotation_plane(),
                    bd.Loop.from_json({"coords": {"s": "u", "t": "0"}}),
                    steps=16)
    # with a declared period the same loop closes
    loop = bd.Loop.from_json({"coords": {"s": "u", "t": "0"},
                              "periods": {"s": "1"}})
    assert loop.is_closed()


def test_loop_leaving_domain_reports_parameter():
    conn = rotation_plane()
    big = bd.Loop.from_json(
        {"coords": {"s": "3*cos(2*pi*u)", "t": "3*sin(2*pi*u)"}})
    with pytest.raises(bd.LoopOutsideDomain) as err:
        bd.holonomy(conn, big, steps=64)
    assert err.value.u == pytest.approx(0.0)


def test_connection_validation():
    with pytest.raises(Exception):
        bd.SmoothConnection.from_json(
            {"rank": 1, "coords": ["s"], "domain": {"s": ["0", "1"]},
             "A": {"s": [[["qq", "0"]]]}})   # unknown identifier at bind
    with pytest.raises(ValueError):
        bd.SmoothConnection.from_json(
            {"rank": 1, "coords": ["s"], "domain": {"s": ["1", "0"]},
             "A": {}})


def test_loop_leaving_domain_inside_the_interval_reports_first_node():
    # 3 sin(2 pi u) passes s = 2 between the step ends 7/64 and 8/64; the
    # midpoint 15/128 of that step is the first RK4 node outside
    loop = bd.Loop.from_json({"coords": {"s": "3*sin(2*pi*u)", "t": "0"}})
    with pytest.raises(bd.LoopOutsideDomain) as err:
        bd.holonomy(rotation_plane(), loop, steps=64)
    assert err.value.u == 15 / 128


# Holonomy matrices at 4096 steps, as computed by the per-point RK4 that the
# array path replaced (each stage evaluated the loop and the connection at
# one point).
SEED_HOLONOMIES = {
    ("rotation_plane", "circle_r03"):
        [[0.9602936856769434, 0.27899110603922916],
         [-0.27899110603922916, 0.9602936856769434]],
    ("rotation_plane", "circle_r05"):
        [[0.7071067811865474, 0.7071067811865475],
         [-0.7071067811865475, 0.7071067811865474]],
    ("rotation_plane", "circle_r08"):
        [[-0.4257792915650687, 0.9048270524660216],
         [-0.9048270524660216, -0.4257792915650687]],
    ("circle_clock", "full_circle"):
        [[0.5403023058681421, 0.8414709848078962],
         [-0.8414709848078962, 0.5403023058681421]],
}


@pytest.mark.parametrize("conn_name,loop_name", sorted(SEED_HOLONOMIES))
def test_holonomy_matches_pointwise_values(conn_name, loop_name):
    conn = bd.SmoothConnection.load(data(f"connections/{conn_name}.json"))
    loop = bd.Loop.load(data(f"loops/{loop_name}.json"))
    U = bd.holonomy(conn, loop, steps=4096)
    want = np.array(SEED_HOLONOMIES[(conn_name, loop_name)], dtype=complex)
    assert np.abs(U - want).max() <= 1e-12


def test_holonomy_evaluates_per_block_not_per_step(monkeypatch):
    conn = rotation_plane()
    loop = bd.Loop.load(data("loops/circle_r08.json"))
    calls = {"evaluate": 0, "symbolic_d": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bd, "evaluate", counted("evaluate", bd.evaluate))
    monkeypatch.setattr(bd, "symbolic_d",
                        counted("symbolic_d", bd.symbolic_d))
    counts = []
    for steps in (16, bd.TRANSPORT_BLOCK):
        calls["evaluate"] = 0
        bd.holonomy(conn, loop, steps=steps)
        counts.append(calls["evaluate"])
    # one block of steps: the same calls whatever the step count
    assert counts[0] == counts[1] < 50
    assert calls["symbolic_d"] == 0


def test_transport_rejects_bad_steps_and_missing_coordinates():
    conn = rotation_plane()
    loop = bd.Loop.load(data("loops/circle_r05.json"))
    for steps in (0, -3):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            bd.transport(conn, loop, 0.0, 1.0, steps)
    s_only = bd.Loop.from_json({"coords": {"s": "cos(2*pi*u)"}})
    with pytest.raises(ValueError, match=r"coordinate\(s\) \['t'\]"):
        bd.holonomy(conn, s_only, steps=8)


def test_connection_evaluation_broadcasts_over_points():
    conn = bd.SmoothConnection.from_json(
        {"rank": 2, "coords": ["s", "t"],
         "domain": {"s": ["-2", "2"], "t": ["-2", "2"]},
         "A": {"s": [[["sin(t)", "s"], ["1/3", "0"]],
                     [["t^2", "0"], ["exp(s)", "cos(s*t)"]]]}})
    pts = [{"s": -1.5, "t": 0.25}, {"s": 0.5, "t": 1.75},
           {"s": 2.5, "t": 0.0}]
    env = bd.stack_points(pts)
    got = conn.evaluate_at("s", env)
    assert got.shape == (3, 2, 2)
    for k, p in enumerate(pts):
        assert np.array_equal(got[k], conn.evaluate_at("s", p))
    assert conn.evaluate_at("t", env).shape == (3, 2, 2)
    assert list(conn.contains(env)) == [True, True, False]
    assert conn.contains(pts[0]) and not conn.contains(pts[2])


def test_gauss_legendre_nodes_are_computed_once_and_read_only():
    nodes, weights = bd.gauss_legendre01(24)
    again = bd.gauss_legendre01(24)
    assert again[0] is nodes and again[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all((0 < nodes) & (nodes < 1))
