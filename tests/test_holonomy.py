"""Holonomy, shrinking-loop curvature, homotopy scans, flatness verdicts."""

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    Transition,
    builtin_connection,
    curvature_at,
    gauge_transform,
)
from holonome.errors import NotClosedError, ValidationError
from holonome.exprs import lit, parse, var
from holonome.exprs import cos as ecos
from holonome.exprs import sin as esin
from holonome.groups import StructureGroup, frobenius, rotation2, so3_basis
from holonome.holonomy import (
    HomotopyFamily,
    flatness_verdict,
    holonomy,
    homotopy_scan,
    shrinking_loop_curvature,
    standard_homotopy_families,
)
from holonome.paths import ChartPoint, PathSpec, Segment, arc_path, juxtapose, line_path
from holonome.transport import SolverConfig, engine_oracle, transport

CFG = SolverConfig(h=1e-3)


def wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def square_loop(side=1.0):
    a = ChartPoint(0, [0.0, 0.0])
    pts = [[side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
    legs = [line_path(a, pts[0])]
    for p, q in zip(pts, pts[1:]):
        legs.append(line_path(ChartPoint(0, p), q))
    return juxtapose(juxtapose(legs[0], legs[1]), juxtapose(legs[2], legs[3]))


def test_holonomy_zero_connection():
    conn = builtin_connection("flat-so2")
    res = holonomy(conn, square_loop(), CFG)
    assert frobenius(res.g.matrix - np.eye(2)) <= 1e-12
    assert abs(res.angle) <= 1e-12


def test_holonomy_abelian_square():
    conn = builtin_connection("abelian-area(1.5)")
    res = holonomy(conn, square_loop(), CFG)
    assert abs(res.angle - (-1.5)) <= 1e-7
    assert frobenius(res.g.matrix - rotation2(-1.5)) <= 1e-7


def test_holonomy_rejects_open_paths():
    conn = builtin_connection("flat-so2")
    with pytest.raises(NotClosedError):
        holonomy(conn, line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0]), CFG)


@pytest.mark.parametrize("theta0", [np.pi / 6.0, np.pi / 3.0, np.pi / 2.0])
def test_latitude_holonomy_closed_form(theta0):
    """Rotation by -2 pi (1 - cos theta0) mod 2 pi for a CCW latitude
    circle at colatitude theta0 (classical closed form)."""
    conn = builtin_connection("levi-civita-s2-stereo")
    r0 = 1.0 / np.tan(theta0 / 2.0)
    loop = arc_path(0, [0.0, 0.0], r0, 0.0, 2.0 * np.pi)
    res = holonomy(conn, loop, CFG)
    target = -2.0 * np.pi * (1.0 - np.cos(theta0))
    assert abs(wrap(res.angle - target)) <= 1e-6


def test_latitude_holonomy_dense_integration_cross_check():
    """Same loop at h = 1e-4: the answer must not move."""
    conn = builtin_connection("levi-civita-s2-stereo")
    r0 = 1.0 / np.tan(np.pi / 6.0)
    loop = arc_path(0, [0.0, 0.0], r0, 0.0, 2.0 * np.pi)
    coarse = holonomy(conn, loop, CFG)
    dense = holonomy(conn, loop, SolverConfig(h=1e-4))
    assert abs(wrap(coarse.angle - dense.angle)) <= 1e-8


def test_holonomy_basepoint_conjugation():
    """Moving the basepoint along the loop conjugates the holonomy; the
    rotation angle (trace) is invariant."""
    conn = builtin_connection("levi-civita-s2-stereo")
    r0 = 1.7
    base = holonomy(conn, arc_path(0, [0.0, 0.0], r0, 0.0, 2.0 * np.pi), CFG)
    for phi0 in (0.9, 2.2, 4.4):
        moved = holonomy(conn, arc_path(0, [0.0, 0.0], r0, phi0, phi0 + 2.0 * np.pi), CFG)
        assert abs(wrap(moved.angle - base.angle)) <= 1e-8


def test_holonomy_two_chart_loop_in_start_trivialization():
    """A loop crossing charts comes back expressed at the start chart."""
    conn = builtin_connection("levi-civita-s2-twochart")
    th0 = np.pi / 3.0
    r0 = 1.0 / np.tan(th0 / 2.0)
    u = var(0)
    seg0 = Segment(0, (lit(r0) * ecos(lit(np.pi) * u), lit(r0) * esin(lit(np.pi) * u)), 0.0, 0.5)
    ang = lit(np.pi) + lit(np.pi) * u
    seg1 = Segment(1, (ecos(ang) / lit(r0), lit(-1.0) * esin(ang) / lit(r0)), 0.5, 1.0)
    loop = PathSpec((seg0, seg1))
    res = holonomy(conn, loop, CFG)
    single = holonomy(
        builtin_connection("levi-civita-s2-stereo"),
        arc_path(0, [0.0, 0.0], r0, 0.0, 2.0 * np.pi),
        CFG,
    )
    assert abs(wrap(res.angle - single.angle)) <= 1e-6
    assert frobenius(res.g.matrix - single.g.matrix) <= 1e-6


def test_holonomy_conjugates_under_gauge_transformation():
    """Changing trivialization by g conjugates the loop holonomy by the
    gauge value at the basepoint."""
    from holonome.connection import ExprMatrixFunction, gauge_transform

    conn = builtin_connection("abelian-area(1.5)")
    w = var(0, 2) * var(1, 2)
    entries = [[ecos(w), lit(-1.0) * esin(w)], [esin(w), ecos(w)]]
    gauged = gauge_transform(conn, entries)
    loop = square_loop(0.8)
    h_before = holonomy(conn, loop, CFG).g.matrix
    h_after = holonomy(gauged, loop, CFG).g.matrix
    g0 = ExprMatrixFunction(entries, 2).at(np.array([0.0, 0.0]))
    assert frobenius(h_after - np.linalg.inv(g0) @ h_before @ g0) <= 1e-8


def rotation_gauge(f, axis):
    """The entries of exp(f J) for an expression f of the coordinates: a
    rotation by f in the plane for SO(2), and about the unit axis by
    Rodrigues' formula, exp(f J) = I + sin f J + (1 - cos f) J^2, for SO(3)."""
    if axis is None:
        return [[ecos(f), lit(-1.0) * esin(f)], [esin(f), ecos(f)]]
    J = sum(a * e for a, e in zip(axis, so3_basis()))
    J2 = J @ J
    s, c = esin(f), lit(1.0) - ecos(f)
    return [
        [lit(float(i == j)) + lit(J[i, j]) * s + lit(J2[i, j]) * c for j in range(3)]
        for i in range(3)
    ]


@seed(20261024)
@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["abelian-area(1.5)", "constant-so3"]),
    st.lists(st.floats(-1.2, 1.2), min_size=6, max_size=6),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    st.floats(0.3, 0.8),
    st.floats(0.0, 2.0 * np.pi),
)
def test_holonomy_conjugates_under_random_gauges(name, coeffs, axis, centre, radius, phase):
    """For a random gauge exp(f(x) J), f a polynomial of degree 2, the
    holonomy of a loop based at x0 becomes g(x0)^-1 H g(x0), with g(x0)
    away from the identity."""
    conn = builtin_connection(name)
    x1, x2 = var(0, 2), var(1, 2)
    a, b, c, d, e, q = (lit(v) for v in coeffs)
    f = a + b * x1 + c * x2 + d * x1 * x2 + e * x1 * x1 + q * x2 * x2
    if conn.group.k == 3:
        assume(np.linalg.norm(axis) > 0.1)
        axis = np.asarray(axis) / np.linalg.norm(axis)
    else:
        axis = None
    entries = rotation_gauge(f, axis)
    loop = arc_path(0, centre, radius, phase, phase + 2.0 * np.pi)
    x0 = np.asarray(centre) + radius * np.array([np.cos(phase), np.sin(phase)])
    g0 = ExprMatrixFunction(entries, 2).at(x0)
    assume(frobenius(g0 - np.eye(conn.group.k)) > 0.1)
    h_before = holonomy(conn, loop, CFG).g.matrix
    h_after = holonomy(gauge_transform(conn, entries), loop, CFG).g.matrix
    assert frobenius(h_after - np.linalg.inv(g0) @ h_before @ g0) <= 1e-8


# --- shrinking loops -----------------------------------------------------------

def test_shrinking_loop_zero_connection():
    oracle = engine_oracle(builtin_connection("flat-so2"), SolverConfig(h=0.002))
    rep = shrinking_loop_curvature(oracle, ChartPoint(0, [0.1, 0.1]), 0, 1)
    assert frobenius(rep.extrapolated) <= 1e-10
    assert rep.degenerate


def test_shrinking_loop_abelian_matches_curvature():
    conn = builtin_connection("abelian-area(1.5)")
    oracle = engine_oracle(conn, SolverConfig(h=0.002))
    x = ChartPoint(0, [0.2, 0.1])
    rep = shrinking_loop_curvature(oracle, x, 0, 1, (0.2, 0.1, 0.05))
    truth = curvature_at(conn, x).matrix(0, 1)
    assert frobenius(rep.extrapolated - truth) <= 2e-3


def test_shrinking_loop_constant_so3_matches_curvature():
    conn = builtin_connection("constant-so3")
    oracle = engine_oracle(conn, SolverConfig(h=0.002))
    rng = np.random.default_rng(14)
    x = ChartPoint(0, rng.uniform(-0.5, 0.5, 2))
    rep = shrinking_loop_curvature(oracle, x, 0, 1)
    truth = curvature_at(conn, x).matrix(0, 1)
    assert frobenius(rep.extrapolated - truth) <= 5e-3


@pytest.mark.parametrize("coords", [[0.3, 0.2], [0.8, -0.5]])
def test_shrinking_loop_order_on_curved_builtin(coords):
    conn = builtin_connection("levi-civita-s2-stereo")
    oracle = engine_oracle(conn, SolverConfig(h=0.002))
    x = ChartPoint(0, coords)
    rep = shrinking_loop_curvature(oracle, x, 0, 1)
    assert rep.order is not None and rep.order >= 0.9
    truth = curvature_at(conn, x).matrix(0, 1)
    assert frobenius(rep.extrapolated - truth) <= 1e-2


@pytest.mark.parametrize("mu, nu", [(-1, 1), (0, 2), (2, 0)])
def test_shrinking_loop_refuses_an_axis_off_the_chart(mu, nu):
    """An axis outside 0..dim - 1 is refused, where -1 once wrapped to the
    last axis (reporting F_21 for F_12) and 2 raised a bare IndexError."""
    oracle = engine_oracle(builtin_connection("abelian-area(1.5)"), SolverConfig(h=0.002))
    with pytest.raises(ValidationError, match="rectangle axes"):
        shrinking_loop_curvature(oracle, ChartPoint(0, [0.2, 0.1]), mu, nu)


# --- homotopy scans --------------------------------------------------------------

def test_homotopy_family_validates_endpoints():
    t, s = var(0, 2), var(1, 2)
    with pytest.raises(ValidationError):
        HomotopyFamily(0, (t + s, lit(0.0)))  # start point moves with s


def test_homotopy_scan_zero_connection():
    conn = builtin_connection("flat-so2")
    fam = standard_homotopy_families(conn)[0]
    rep = homotopy_scan(engine_oracle(conn, CFG), fam)
    assert rep.spread <= 1e-10


def test_homotopy_scan_pure_gauge_flat():
    conn = builtin_connection("pure-gauge")
    t, s = var(0, 2), var(1, 2)
    fam = HomotopyFamily(
        0, (lit(-1.0) + lit(2.0) * t, lit(0.8) * s * esin(lit(np.pi) * t)), 11
    )
    rep = homotopy_scan(engine_oracle(conn, CFG), fam)
    assert rep.spread <= 1e-7


def test_homotopy_scan_area_sweep_detects_curvature():
    conn = builtin_connection("abelian-area(1.5)")
    fam = standard_homotopy_families(conn)[0]  # sweeps area 0 -> 1
    rep = homotopy_scan(engine_oracle(conn, CFG), fam)
    assert rep.spread >= 0.5


# --- verdicts ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,expected",
    [
        ("flat-so2", "FLAT"),
        ("pure-gauge", "FLAT"),
        ("abelian-area(1.5)", "CURVED"),
        ("levi-civita-s2-stereo", "CURVED"),
        ("constant-so3", "CURVED"),
        ("levi-civita-s2-twochart", "CURVED"),
    ],
)
def test_flatness_verdicts_never_inconsistent(name, expected):
    verdict = flatness_verdict(builtin_connection(name), CFG)
    assert verdict.verdict == expected
    assert verdict.verdict != "INCONSISTENT"


def three_chart_atlas(closing=True):
    """Flat SO(2) on charts 0 = [-1, 1]^2, 2 = [0.5, 3] x [-1, 1] and
    1 = [-1, 3] x [0.5, 2], with identity coordinate maps and constant
    rotation gauges 0 -> 2, 2 -> 1 and, when closing, 1 -> 0, whose angles
    sum to zero."""
    zero = ExprMatrixFunction(np.zeros((2, 2)), 2)
    boxes = {0: ([-1, -1], [1, 1]), 2: ([0.5, -1], [3, 1]), 1: ([-1, 0.5], [3, 2])}
    charts = [ChartSpec(c, 2, lo, hi, (zero, zero)) for c, (lo, hi) in boxes.items()]
    identity = (var(0, 2), var(1, 2))
    gauges = [(0, 2, 0.3), (2, 1, 0.5)] + ([(1, 0, -0.8)] if closing else [])
    transitions = [Transition(a, b, identity, ExprMatrixFunction(rotation2(angle), 2))
                   for a, b, angle in gauges]
    return ConnectionForm(StructureGroup("SO", 2), charts, transitions)


def test_a_loop_that_ends_on_another_chart_closes_through_the_end_to_start_gauge():
    """The loop x = (1.25 - 1.25 cos 2 pi u, 1 - 0.25 sin 2 pi u), declared
    on chart 0, is walked 0 -> 2 -> 1.  No transition leads from chart 0 to
    chart 1, so holonomy takes the transition 1 -> 0 at the end point: on
    a flat atlas whose gauges compose to I the holonomy is I to roundoff.
    Without that transition, NotClosedError."""
    u = var(0)
    turn = lit(2.0 * np.pi) * u
    loop = PathSpec((Segment(0, (lit(1.25) - lit(1.25) * ecos(turn), lit(1.0) - lit(0.25) * esin(turn)),
                             0.0, 1.0),))
    res = holonomy(three_chart_atlas(), loop, SolverConfig(h=1e-2))
    assert (res.transport.start.chart_id, res.transport.end.chart_id) == (0, 1)
    assert frobenius(res.g.matrix - np.eye(2)) <= 1e-15
    with pytest.raises(NotClosedError, match="no transition connects"):
        holonomy(three_chart_atlas(closing=False), loop, SolverConfig(h=1e-2))
