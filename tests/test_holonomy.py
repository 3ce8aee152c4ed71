"""Holonomy, shrinking-loop curvature, homotopy scans, flatness verdicts."""

import importlib.resources
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from holonome import exprs
from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    Transition,
    builtin_connection,
    curvature_at,
    gauge_transform,
)
from holonome.errors import DomainError, NotClosedError, ValidationError
from holonome.exprs import lit, parse, var
from holonome.exprs import cos as ecos
from holonome.exprs import exp
from holonome.exprs import sin as esin
from holonome.groups import StructureGroup, frobenius, max_spread, rotation2, so3_basis
from holonome.holonomy import (
    HomotopyFamily,
    flatness_verdict,
    holonomy,
    homotopy_scan,
    shrinking_loop_curvature,
    standard_homotopy_families,
)
from holonome.paths import (
    ChartPoint,
    PathSpec,
    Segment,
    arc_path,
    coords_and_velocities,
    juxtapose,
    line_path,
)
from holonome.scenario import load_scenario
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


@pytest.mark.parametrize("s_values", [
    [], [0.3], [0.3, 0.3], [0.0, 2.5], [-1.0, 0.0], [0.2, float("nan")], [0.2, float("inf")],
    [0.2, "half"],
])
def test_homotopy_scan_refuses_s_values_that_define_no_spread(s_values):
    """Fewer than two distinct values would read spread 0, the flat
    answer, and a value off [0, 1] (or not finite, or not a number) runs a
    path whose endpoints were never checked: ValidationError before the
    oracle is asked."""
    conn = builtin_connection("abelian-area(1.5)")
    fam = standard_homotopy_families(conn)[0]
    asked = []

    def oracle(gamma):
        asked.append(gamma)
        return transport(conn, gamma, CFG)

    with pytest.raises(ValidationError, match="s_values"):
        homotopy_scan(oracle, fam, s_values)
    assert asked == []


def test_homotopy_scan_runs_given_s_values():
    conn = builtin_connection("abelian-area(1.5)")
    fam = standard_homotopy_families(conn)[0]
    rep = homotopy_scan(engine_oracle(conn, CFG), fam, [0.0, np.float64(1.0)])
    assert rep.s_values == (0.0, 1.0)
    assert rep.spread >= 0.5


@pytest.mark.parametrize("s_samples", [2.5, 3.0, "3", True, 1, 0, -4])
def test_homotopy_family_needs_an_integer_s_samples_of_at_least_two(s_samples):
    t, s = var(0, 2), var(1, 2)
    with pytest.raises(ValidationError, match="s_samples"):
        HomotopyFamily(0, (t, s * t * (lit(1.0) - t)), s_samples)


def test_homotopy_family_takes_a_numpy_integer_s_samples():
    t, s = var(0, 2), var(1, 2)
    fam = HomotopyFamily(0, (t, s * t * (lit(1.0) - t)), np.int64(3))
    rep = homotopy_scan(engine_oracle(builtin_connection("flat-so2"), CFG), fam)
    assert rep.s_values == (0.0, 0.5, 1.0)


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


def strip_connection(c, w):
    """SO(2) with A1 = 0 and A2 = c (1 + tanh((x1 - 0.33)/w))/2 J, written
    c / (1 + exp(-2 (x1 - 0.33)/w)) J, on [-2, 2]^2: its curvature
    F12 = dA2/dx1 lives in a strip of width ~w about x1 = 0.33."""
    x1 = var(0, 2)
    a2 = lit(c) / (lit(1.0) + exp(lit(-2.0 / w) * (x1 - lit(0.33))))
    zero = ExprMatrixFunction(np.zeros((2, 2)), 2)
    chart = ChartSpec(0, 2, [-2, -2], [2, 2], (zero, ExprMatrixFunction([[0, -a2], [a2, 0]], 2)))
    return ConnectionForm(StructureGroup("SO", 2), [chart], [])


def test_a_curvature_strip_between_grid_columns_reads_inconsistent():
    """The 7 x 7 grid's columns nearest the strip, x1 = 0 and 2/3, lie 22
    widths and more from its centre, where the curvature reads below
    1e-13 c; the area family's sweep crosses the strip, so its spread is
    O(c).  The grid test says flat and the homotopy test says curved: the
    INCONSISTENT verdict."""
    c = 1.0
    verdict = flatness_verdict(strip_connection(c, 0.015), CFG)
    assert verdict.verdict == "INCONSISTENT"
    assert verdict.max_curvature < 1e-13 * c
    assert verdict.spreads[0] > 0.1 * c
    # the strip is real: its peak curvature, c / (2 w), on the line x1 = 0.33
    peak = curvature_at(strip_connection(c, 0.015), ChartPoint(0, [0.33, 0.0]))
    assert frobenius(peak.components[(0, 1)]) == pytest.approx(np.sqrt(2.0) * c / 0.03, rel=1e-12)


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


# --- a family's members run the family's one program ----------------------------

BUILTINS = ["flat-so2", "abelian-area(1.5)", "constant-so3", "levi-civita-s2-stereo",
            "levi-civita-s2-twochart", "pure-gauge"]
# a pass's grid, and the odd points a doubled pass evaluates
GRIDS = [np.linspace(0.0, 1.0, 2001), np.linspace(0.0, 1.0, 201)[1::2]]


def bare_factor_family():
    """A family whose s is a bare factor: at s = 0, diff folds the literal
    zero, and the velocity's zeros may carry another sign."""
    return HomotopyFamily(0, (parse("-1 + 2*x1", 2), parse("x2*sin(3.141592653589793*x1)", 2)))


def assert_as_untagged(segs):
    """coords_and_velocities of segs in one batch gives, values and zero
    signs, what each segment gives untagged and alone: its own compiled
    programs."""
    for us in GRIDS:
        X, V = coords_and_velocities(segs, us, np.empty((2, 2, len(segs), len(us))))
        for p, seg in enumerate(segs):
            plain = Segment(seg.chart_id, seg.coords, seg.t0, seg.t1)
            assert plain._member is None
            x, v = coords_and_velocities([plain], us, np.empty((2, 2, 1, len(us))))
            assert X[:, p].tobytes() == x[:, 0].tobytes()
            assert V[:, p].tobytes() == v[:, 0].tobytes()


def members(fam, ss):
    segs = [fam.member(s).segments[0] for s in ss]
    for seg, s in zip(segs, ss):
        assert (seg._member is None) == (s == 0.0)
        assert seg._member is None or seg._member == (fam, s)
    return segs


@pytest.mark.parametrize("name", BUILTINS)
def test_canned_family_members_equal_their_own_programs_bit_for_bit(name):
    for fam in standard_homotopy_families(builtin_connection(name)):
        assert_as_untagged(members(fam, list(np.linspace(0.0, 1.0, 11)) + [-0.0]))


def test_shipped_family_members_equal_their_own_programs_bit_for_bit():
    shipped = importlib.resources.files("holonome") / "scenarios" / "flat-gauge-trivial.json"
    fam = load_scenario(str(shipped)).families["straight-to-arc"]
    assert_as_untagged(members(fam, np.linspace(0.0, 1.0, fam.s_samples)))


def test_bare_factor_members_equal_their_own_programs_bit_for_bit():
    fam = bare_factor_family()
    assert_as_untagged(members(fam, [0.0, -0.0, 1e-300, 0.25, 0.5, 1.0]))


def test_a_batch_of_two_families_and_a_straight_segment_equals_its_parts_bit_for_bit():
    area, diag, _ = standard_homotopy_families(builtin_connection("abelian-area(1.5)"))
    straight = line_path(ChartPoint(0, [-0.5, 0.1]), [0.7, -0.3]).segments[0]
    arc = arc_path(0, (0.1, -0.2), 0.9, 0.0, 2.0).segments[0]
    # a tagged segment on [0.25, 0.75]: its velocities carry the factor 2
    narrow = Segment(0, area.member(0.6).segments[0].coords, 0.25, 0.75)
    narrow.__dict__["_member"] = (area, 0.6)
    segs = (members(area, [0.5, 0.0]) + [straight] + members(diag, [0.3, 1.0])
            + members(area, [1.0]) + [arc, narrow] + members(bare_factor_family(), [0.7]))
    assert_as_untagged(segs)


def test_a_member_that_fails_fails_alone():
    """A batch whose family program overflows runs again path by path: the
    member at s = 1, whose coordinates overflow, meets DomainError, and the
    member beside it gets its own transport bit for bit."""
    t, s = var(0, 2), var(1, 2)
    fam = HomotopyFamily(0, (lit(-1.0) + lit(2.0) * t,
                             exp(lit(4000.0) * s * t * (lit(1.0) - t)) - lit(1.0)))
    conn = builtin_connection("abelian-area(1.5)")
    ok, bad = fam.member(1e-4), fam.member(1.0)
    got = engine_oracle(conn, CFG).many([ok, bad])
    assert got[0].g.matrix.tobytes() == transport(conn, ok, CFG).g.matrix.tobytes()
    assert isinstance(got[1], DomainError)


FINE = SolverConfig(h=1e-4)


@pytest.mark.parametrize("name, loop, cfg", [
    ("levi-civita-s2-stereo", arc_path(0, (0.0, 0.0), 1.1, 0.4, 0.4 + 2.0 * np.pi), FINE),
    ("levi-civita-s2-twochart", arc_path(0, (3.0, 0.1), 2.0, np.pi, 3.0 * np.pi), FINE),
    ("abelian-area(1.5)", arc_path(0, (0.1, -0.2), 0.9, 0.0, 2.0 * np.pi), FINE),
    ("levi-civita-s2-stereo", arc_path(0, (0.0, 0.0), 0.5, 0.0, 2.0 * np.pi),
     SolverConfig("rk4-doubling", h=1e-2)),
], ids=["latitude", "twochart", "abelian", "doubling"])
def test_so2_holonomies_stay_on_the_group_to_roundoff(name, loop, cfg):
    """The SO(2) loops of the benchmark's forward_loops kinds, about 10^4
    steps each: the product of a pass is one rotation, by the sum of the
    step angles, so the holonomy's orthogonality defect is at most 1e-15,
    where a tree of 2x2 matrix products read up to 4.6e-12."""
    res = holonomy(builtin_connection(name), loop, cfg)
    assert res.g.orthogonality_defect <= 1e-15


def test_constant_so3_scans_share_passes_and_keep_their_spreads(monkeypatch):
    """flatness_verdict(constant-so3) at h = 1e-3 runs its 33 members of
    1000 steps in ceil(33 / _batch_size) passes, where it ran one pass per
    member when batches were counted as 9 field entries per grid point.
    Each spread is the spread of the members transported one by one, bit
    for bit."""
    module = sys.modules["holonome.transport"]
    conn = builtin_connection("constant-so3")
    families = conn.charts[0]._homotopy_families
    ss = np.linspace(0.0, 1.0, 11)
    alone = [max_spread([transport(conn, fam.member(s), CFG).g.matrix for s in ss])
             for fam in families]
    passes = []
    original_pass = module._rk4_pass

    def counting_pass(conn, pieces, *args):
        passes.append(len(pieces))
        return original_pass(conn, pieces, *args)

    monkeypatch.setattr(module, "_rk4_pass", counting_pass)
    verdict = flatness_verdict(conn, CFG)
    size = module._batch_size(conn, 0, 1000)
    assert 1 < size < 33
    assert len(passes) == math.ceil(33 / size)
    assert passes == [min(size, 33 - lo) for lo in range(0, 33, size)]
    assert list(verdict.spreads) == alone


def test_a_flatness_verdict_compiles_each_family_once(monkeypatch):
    """On a connection whose field and curvature programs are compiled, a
    second flatness_verdict compiles nothing: the chart keeps its three
    families, whose endpoint checks and programs were compiled by the
    first verdict, and each family keeps its s = 0 member with that
    member's own program."""
    conn = builtin_connection("abelian-area(1.5)")
    flatness_verdict(conn, CFG)
    compiled = []
    original = exprs.Program.__init__

    def counting(self, es, grad_axes=0):
        compiled.append(grad_axes)
        original(self, es, grad_axes)

    monkeypatch.setattr(exprs.Program, "__init__", counting)
    flatness_verdict(conn, CFG)
    assert compiled == []
