"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import copy
import json
import time

import numpy as np
import pytest

from holonome.connection import builtin_connection, curvature_at
from holonome.exprs import lit, var
from holonome.exprs import cos as ecos
from holonome.exprs import sin as esin
from holonome.groups import (
    AlgebraElement,
    frobenius,
    group_exp,
    identity_element,
    rotation2,
    so3_basis,
)
from holonome.holonomy import (
    flatness_verdict,
    holonomy,
    homotopy_scan,
    standard_homotopy_families,
)
from holonome.paths import (
    ChartPoint,
    PathSpec,
    Segment,
    TangentVector,
    arc_path,
    juxtapose,
    line_path,
    path_from_exprs,
)
from holonome.reconstruction import (
    horizontal_space,
    lemma_independence_check,
    roundtrip_report,
    split_horizontal_vertical,
)
from holonome.scenario import load_scenario, run_scenario
from holonome.transport import (
    SolverConfig,
    endpoint_convergence,
    engine_oracle,
    lift_path,
    standard_axiom_suite,
    transport,
    verify_axioms,
)

from oracles import abelian_loop_exponent, taylor_expm

CFG = SolverConfig(h=1e-3)
CFG_PROBE = SolverConfig(h=0.02, project_every=4)

AXIOM_BUILTINS = (
    "flat-so2",
    "abelian-area(1.5)",
    "constant-so3",
    "levi-civita-s2-stereo",
)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {label}: {status}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def square_loop(side=1.0):
    a = ChartPoint(0, [0.0, 0.0])
    pts = [[side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
    legs = [line_path(a, pts[0])]
    for p, q in zip(pts, pts[1:]):
        legs.append(line_path(ChartPoint(0, p), q))
    return juxtapose(juxtapose(legs[0], legs[1]), juxtapose(legs[2], legs[3]))


def wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def test_criterion_1_axiom_suite():
    """Three transport axioms on four builtins, deviations <= 1e-7, < 10 s."""
    t0 = time.time()
    worst = 0.0
    for name in AXIOM_BUILTINS:
        conn = builtin_connection(name)
        rep = verify_axioms(engine_oracle(conn, CFG), standard_axiom_suite(conn), 1e-7)
        worst = max(worst, rep.constant_dev, rep.reparam_dev, rep.juxtapose_dev)
        if not rep.passed:
            report(1, "axiom suite", False, f"{name}: {rep.as_dict()}")
    elapsed = time.time() - t0
    report(
        1, "axiom suite", worst <= 1e-7 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_forward_direction():
    """Abelian area law for f in {0.5, 1.5, 3.0} within 1e-7 (with a
    quadrature oracle), constant-coefficient transport within 1e-9."""
    worst_loop = 0.0
    loop = square_loop()

    def curve(t):
        s = 4.0 * t
        if s < 1.0:
            return np.array([s, 0.0])
        if s < 2.0:
            return np.array([1.0, s - 1.0])
        if s < 3.0:
            return np.array([3.0 - s, 1.0])
        return np.array([0.0, 4.0 - s])

    def curve_dot(t):
        s = 4.0 * t
        if s < 1.0:
            return np.array([4.0, 0.0])
        if s < 2.0:
            return np.array([0.0, 4.0])
        if s < 3.0:
            return np.array([-4.0, 0.0])
        return np.array([0.0, -4.0])

    for f in (0.5, 1.5, 3.0):
        conn = builtin_connection(f"abelian-area({f})")
        got = transport(conn, loop, CFG).g.matrix
        worst_loop = max(worst_loop, frobenius(got - rotation2(-f)))
        a_funcs = (lambda x, f=f: -f / 2.0 * x[1], lambda x, f=f: f / 2.0 * x[0])
        integral = abelian_loop_exponent(a_funcs, curve, curve_dot, steps=100_000)
        assert abs(integral - f) <= 1e-9  # Stokes: the flux equals f * area

    from holonome.connection import ChartSpec, ConnectionForm, ExprMatrixFunction
    from holonome.groups import StructureGroup, so2_generator

    lam = np.pi / 2.0
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ExprMatrixFunction(lam * so2_generator(), 2),
                       ExprMatrixFunction(0.0 * so2_generator(), 2)))
    conn = ConnectionForm(StructureGroup("SO", 2), (chart,))
    line = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    const_err = frobenius(
        transport(conn, line, CFG).g.matrix - taylor_expm(-lam * so2_generator())
    )
    report(
        2, "forward direction", worst_loop <= 1e-7 and const_err <= 1e-9,
        f"area-law err {worst_loop:.2e}, constant-coefficient err {const_err:.2e}",
    )


def test_criterion_3_converse_roundtrip():
    """Reconstruction error <= 3e-4 at h = 1e-3; empirical order >= 1.7
    where the sweep errors are measurable (straight probes reconstruct
    constant and linear coefficients exactly, so those sweeps sit at
    machine level and satisfy the order bound vacuously); < 30 s."""
    t0 = time.time()
    details = []
    ok = True
    for name in ("constant-so3", "abelian-area(1.5)"):
        rep = roundtrip_report(builtin_connection(name), CFG_PROBE)
        good = rep.final_error <= 3e-4 and (
            (rep.degenerate and max(rep.errors) <= 1e-8)
            or (rep.order is not None and rep.order >= 1.7)
        )
        ok = ok and good
        details.append(f"{name}: final {rep.final_error:.1e}"
                       + (", exact" if rep.degenerate else f", order {rep.order:.2f}"))
    # a genuinely nonlinear case must show the measurable second order
    rep = roundtrip_report(builtin_connection("levi-civita-s2-stereo"), CFG_PROBE)
    ok = ok and (not rep.degenerate) and rep.order >= 1.7 and rep.final_error <= 3e-4
    details.append(f"levi-civita: final {rep.final_error:.1e}, order {rep.order:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    report(3, "converse roundtrip", ok, "; ".join(details) + f"; {elapsed:.1f} s")


def _velocity_path_triples(x, v):
    u = var(0)
    line = path_from_exprs(0, [lit(x[0]) + lit(v[0]) * u, lit(x[1]) + lit(v[1]) * u])
    parabola = path_from_exprs(
        0,
        [lit(x[0]) + lit(v[0]) * u + lit(0.5) * u**2,
         lit(x[1]) + lit(v[1]) * u - lit(0.4) * u**2],
    )
    wiggle = path_from_exprs(
        0,
        [lit(x[0]) + lit(v[0]) * u - lit(0.3) * u**2,
         lit(x[1]) + lit(v[1]) * u + lit(0.5) * u**3],
    )
    return line, parabola, wiggle


def test_criterion_4_lemma_independence():
    """>= 3 same-velocity pairs per builtin: deviation slope >= 0.9 and
    extrapolated h -> 0 deviation <= 1e-6 (flat case degenerates at the
    noise floor and is checked against the extrapolation bound alone)."""
    cases = {
        "abelian-area(1.5)": (np.array([0.3, 0.2]), np.array([1.0, 0.0])),
        "constant-so3": (np.array([-0.2, 0.4]), np.array([0.8, 0.6])),
        "levi-civita-s2-stereo": (np.array([0.5, 0.1]), np.array([0.0, 1.2])),
        "flat-so2": (np.array([0.0, 0.0]), np.array([1.0, 1.0])),
    }
    ok = True
    details = []
    for name, (x, v) in cases.items():
        conn = builtin_connection(name)
        oracle = engine_oracle(conn, CFG_PROBE)
        paths = _velocity_path_triples(x, v)
        pt = ChartPoint(0, x)
        p = identity_element(conn.group)
        tv = TangentVector(pt, v)
        # three pairs out of the triple
        pairs = [(paths[0], paths[1]), (paths[0], paths[2]), (paths[1], paths[2])]
        for a, b in pairs:
            rep = lemma_independence_check(oracle, pt, p, tv, [a, b])
            if rep.degenerate:
                good = rep.extrapolated <= 1e-6
            else:
                good = rep.slope >= 0.9 and rep.extrapolated <= 1e-6
            ok = ok and good
        details.append(f"{name} ok")
    report(4, "lemma independence", ok, "; ".join(details))


def test_criterion_5_complementarity_and_equivariance():
    """split_horizontal_vertical recomposes 100 random vectors within
    1e-10; horizontal-space equivariance within 1e-6 over 5 random g."""
    conn = builtin_connection("constant-so3")
    oracle = engine_oracle(conn, CFG_PROBE)
    x = ChartPoint(0, [0.2, -0.3])
    p = identity_element(conn.group)
    basis = horizontal_space(oracle, x, p, 1e-3)
    e1, e2, e3 = so3_basis()
    rng = np.random.default_rng(2024)
    worst_recompose = 0.0
    for _ in range(100):
        base = rng.normal(size=2)
        w = rng.normal(size=3)
        fiber = w[0] * e1 + w[1] * e2 + w[2] * e3
        horiz, vert = split_horizontal_vertical(basis, base, fiber)
        assert np.array_equal(horiz.base_part.components, base)  # pi_* onto
        worst_recompose = max(
            worst_recompose,
            frobenius(horiz.vertical_part.matrix + vert.matrix - fiber),
        )
    worst_equiv = 0.0
    for _ in range(5):
        w = rng.normal(size=3) * 0.7
        g = group_exp(AlgebraElement(w[0] * e1 + w[1] * e2 + w[2] * e3, conn.group))
        shifted = horizontal_space(oracle, x, g, 1e-3)
        for mu in range(2):
            worst_equiv = max(
                worst_equiv,
                frobenius(
                    shifted.lifts[mu].vertical_part.matrix
                    - g.matrix.T @ basis.lifts[mu].vertical_part.matrix @ g.matrix
                ),
            )
    report(
        5, "complementarity/equivariance",
        worst_recompose <= 1e-10 and worst_equiv <= 1e-6,
        f"recompose {worst_recompose:.2e}, equivariance {worst_equiv:.2e}",
    )


def test_criterion_6_flatness_corollary():
    """FLAT for flat-so2 and pure-gauge, CURVED for abelian-area(1.5) and
    levi-civita-s2-stereo, never INCONSISTENT; flat spreads <= 1e-7 and
    the area-sweeping family on abelian-area(1.5) spreads >= 0.5."""
    expectations = {
        "flat-so2": "FLAT",
        "pure-gauge": "FLAT",
        "abelian-area(1.5)": "CURVED",
        "levi-civita-s2-stereo": "CURVED",
    }
    ok = True
    details = []
    for name, want in expectations.items():
        conn = builtin_connection(name)
        verdict = flatness_verdict(conn, CFG)
        good = verdict.verdict == want
        if want == "FLAT":
            good = good and max(verdict.spreads) <= 1e-7
        ok = ok and good
        details.append(f"{name}={verdict.verdict}")
    conn = builtin_connection("abelian-area(1.5)")
    fam = standard_homotopy_families(conn)[0]
    spread = homotopy_scan(engine_oracle(conn, CFG), fam).spread
    ok = ok and spread >= 0.5
    report(6, "flatness corollary", ok, "; ".join(details) + f"; area spread {spread:.2f}")


def test_criterion_7_sphere_latitude():
    """Latitude holonomy = -2 pi (1 - cos theta0) mod 2 pi within 1e-6 for
    theta0 in {pi/6, pi/3, pi/2}, one-chart and two-chart presentations."""
    single = builtin_connection("levi-civita-s2-stereo")
    double = builtin_connection("levi-civita-s2-twochart")
    worst_single = 0.0
    worst_cross = 0.0
    for theta0 in (np.pi / 6.0, np.pi / 3.0, np.pi / 2.0):
        r0 = 1.0 / np.tan(theta0 / 2.0)
        target = -2.0 * np.pi * (1.0 - np.cos(theta0))
        loop = arc_path(0, [0.0, 0.0], r0, 0.0, 2.0 * np.pi)
        res1 = holonomy(single, loop, CFG)
        worst_single = max(worst_single, abs(wrap(res1.angle - target)))

        u = var(0)
        seg0 = Segment(0, (lit(r0) * ecos(lit(np.pi) * u),
                           lit(r0) * esin(lit(np.pi) * u)), 0.0, 0.5)
        ang = lit(np.pi) + lit(np.pi) * u
        seg1 = Segment(1, (ecos(ang) / lit(r0), lit(-1.0) * esin(ang) / lit(r0)), 0.5, 1.0)
        res2 = holonomy(double, PathSpec((seg0, seg1)), CFG)
        worst_cross = max(worst_cross, frobenius(res2.g.matrix - res1.g.matrix))
    report(
        7, "sphere latitude holonomy",
        worst_single <= 1e-6 and worst_cross <= 1e-6,
        f"angle err {worst_single:.2e}, two-chart deviation {worst_cross:.2e}",
    )


def test_criterion_8_integrator_order_and_drift():
    """RK4 endpoint slope >= 3.7 on constant-so3; ||U^T U - I||_F <= 1e-9
    at every recorded sample."""
    conn = builtin_connection("constant-so3")
    gamma = line_path(ChartPoint(0, [-0.5, -0.5]), [1.0, 0.8])
    conv = endpoint_convergence(conn, gamma, hs=(1e-2, 5e-3, 2.5e-3))
    lc = builtin_connection("levi-civita-s2-stereo")
    lifted = lift_path(
        lc, arc_path(0, [0.0, 0.0], 1.8, 0.0, 2.0 * np.pi),
        identity_element(lc.group), CFG,
    )
    drift = max(frobenius(g.matrix.T @ g.matrix - np.eye(2)) for _, _, g in lifted.samples)
    report(
        8, "integrator order/drift",
        conv.slope >= 3.7 and drift <= 1e-9,
        f"slope {conv.slope:.2f}, max drift {drift:.2e}",
    )


def test_criterion_9_expression_layer():
    """200 random gradient checks vs central differences within 1e-6
    relative, and the parser round-trip identity (delegated to the module
    tests; re-asserted here on a fresh draw)."""
    from holonome import exprs

    import test_exprs as te

    rng = np.random.default_rng(777)
    checked = 0
    worst = 0.0
    while checked < 200:
        dim = int(rng.integers(1, 4))
        src = te._random_ast(rng, dim, int(rng.integers(1, 7)))
        e = exprs.parse(src, dim)
        x = rng.uniform(-1.2, 1.2, dim)
        try:
            d = exprs.evaluate_dual(e, x)
        except Exception:
            continue
        if abs(d.value) > 1e6 or np.max(np.abs(d.deriv)) > 1e6:
            continue
        from oracles import central_gradient

        fd = central_gradient(lambda y: exprs.evaluate(e, y), x)
        rel = np.max(np.abs(d.deriv - fd) / (1.0 + np.abs(d.deriv)))
        worst = max(worst, rel)
        again = exprs.parse(exprs.pretty(e), dim)
        assert again.ast == e.ast
        checked += 1
    report(9, "expression/AD layer", worst <= 1e-6, f"worst relative gap {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    """Two runs byte-identical modulo timestamp; all shipped scenarios
    exit 0."""
    import importlib.resources

    root = importlib.resources.files("holonome") / "scenarios"
    shipped = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    ok = bool(shipped)
    for name in shipped:
        scenario = load_scenario(str(root / name))
        code, _ = run_scenario(scenario, str(tmp_path / name))
        ok = ok and code == 0
    scenario = load_scenario(str(root / "sphere-latitude.json"))
    run_scenario(scenario, str(tmp_path / "d1"))
    run_scenario(scenario, str(tmp_path / "d2"))

    def bytes_without_timestamp(path):
        lines = path.read_bytes().splitlines(keepends=True)
        return b"".join(ln for ln in lines if b'"timestamp"' not in ln)

    identical = bytes_without_timestamp(
        tmp_path / "d1" / "report.json"
    ) == bytes_without_timestamp(tmp_path / "d2" / "report.json")
    report(
        10, "CLI determinism",
        ok and identical,
        f"{len(shipped)} shipped scenarios exit 0, reports identical mod timestamp",
    )
