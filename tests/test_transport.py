"""Transport engine: closed-form checks, axioms, lifting, chart switching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ConstantMatrixFunction,
    builtin_connection,
)
from holonome.errors import OutsideChartError, StepUnderflowError
from holonome.exprs import lit, parse, var
from holonome.exprs import cos as ecos
from holonome.exprs import sin as esin
from holonome.groups import (
    GroupElement,
    StructureGroup,
    frobenius,
    group_exp,
    group_inverse,
    identity_element,
    rotation2,
    so2_generator,
    so3_basis,
    AlgebraElement,
)
from holonome.paths import (
    ChartPoint,
    PathSpec,
    Segment,
    arc_path,
    constant_path,
    juxtapose,
    line_path,
    path_from_exprs,
    path_from_strings,
    path_point,
    path_velocity,
    reparametrize,
    subpath,
)
from holonome.transport import (
    SolverConfig,
    endpoint_convergence,
    engine_oracle,
    inverse_path_check,
    lift_path,
    standard_axiom_suite,
    transport,
    verify_axioms,
)

from oracles import abelian_loop_exponent, taylor_expm

J = so2_generator()
SO2 = StructureGroup("SO", 2)
CFG = SolverConfig(h=1e-3)


def square_loop(side=1.0, corner=(0.0, 0.0)):
    x0, y0 = corner
    a = ChartPoint(0, [x0, y0])
    b = ChartPoint(0, [x0 + side, y0])
    c = ChartPoint(0, [x0 + side, y0 + side])
    d = ChartPoint(0, [x0, y0 + side])
    return juxtapose(
        juxtapose(line_path(a, b.coords), line_path(b, c.coords)),
        juxtapose(line_path(c, d.coords), line_path(d, a.coords)),
    )


def constant_coefficient_connection(lam):
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ConstantMatrixFunction(lam * J, 2), ConstantMatrixFunction(0 * J, 2)))
    return ConnectionForm(SO2, (chart,))


def test_zero_connection_transports_identity():
    conn = builtin_connection("flat-so2")
    gamma = arc_path(0, [0.3, -0.2], 0.9, 0.1, 5.0)
    res = transport(conn, gamma, CFG)
    assert frobenius(res.g.matrix - np.eye(2)) <= 1e-12


def test_constant_coefficient_closed_form():
    lam = np.pi / 2.0
    conn = constant_coefficient_connection(lam)
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    res = transport(conn, gamma, CFG)
    expect = np.array([[0.0, 1.0], [-1.0, 0.0]])  # exp(-(pi/2) J)
    assert frobenius(res.g.matrix - expect) <= 1e-9
    assert frobenius(res.g.matrix - taylor_expm(-lam * J)) <= 1e-9


def test_abelian_square_loop_area_law():
    conn = builtin_connection("abelian-area(1.5)")
    res = transport(conn, square_loop(), CFG)
    assert frobenius(res.g.matrix - rotation2(-1.5)) <= 1e-7

    # independent oracle: brute quadrature of the loop integral of A
    f = 1.5

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

    a_funcs = (lambda x: -f / 2.0 * x[1], lambda x: f / 2.0 * x[0])
    integral = abelian_loop_exponent(a_funcs, curve, curve_dot, steps=100_000)
    assert abs(integral - 1.5) <= 1e-9
    assert frobenius(res.g.matrix - taylor_expm(-integral * J)) <= 1e-7


def test_juxtaposing_a_constant_tail_changes_nothing():
    conn = builtin_connection("abelian-area(1.5)")
    gamma = arc_path(0, [0.2, -0.1], 0.9, 0.4, 3.0)
    end = path_point(gamma, 1.0)
    padded = juxtapose(gamma, constant_path(end))
    base = transport(conn, gamma, CFG).g.matrix
    with_tail = transport(conn, padded, CFG).g.matrix
    # the arc gets half the steps once packed into [0, 1/2], so agreement
    # is at solver tolerance, not machine precision
    assert frobenius(with_tail - base) <= 1e-10


def test_gl_connection_skips_projection_and_matches_series():
    """Non-orthogonal branch: GL(2) with a constant non-skew coefficient."""
    gl2 = StructureGroup("GL", 2)
    a = np.array([[0.3, 0.5], [0.1, -0.2]])
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ConstantMatrixFunction(a, 2), ConstantMatrixFunction(0.0 * a, 2)))
    conn = ConnectionForm(gl2, (chart,))
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    res = transport(conn, gamma, CFG)
    assert frobenius(res.g.matrix - taylor_expm(-a)) <= 1e-10


def test_u1_group_transport():
    u1 = StructureGroup("U1", 2)
    lam = 0.9
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ConstantMatrixFunction(lam * J, 2), ConstantMatrixFunction(0 * J, 2)))
    conn = ConnectionForm(u1, (chart,))
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    res = transport(conn, gamma, CFG)
    assert frobenius(res.g.matrix - rotation2(-lam)) <= 1e-9


def test_transport_multiplicative_over_splits():
    conn = builtin_connection("abelian-area(1.5)")
    g1 = line_path(ChartPoint(0, [-1.0, -0.5]), [0.5, 0.25])
    g2 = arc_path(0, [0.5, 0.25 - 0.8], 0.8, np.pi / 2.0, 2.2)
    whole = transport(conn, juxtapose(g1, g2), CFG).g.matrix
    parts = transport(conn, g2, CFG).g.matrix @ transport(conn, g1, CFG).g.matrix
    assert frobenius(whole - parts) <= 1e-11


def test_juxtapose_associative_up_to_reparametrization():
    conn = builtin_connection("abelian-area(1.5)")
    a = ChartPoint(0, [-1.0, 0.0])
    g1 = line_path(a, [0.0, 0.5])
    g2 = line_path(ChartPoint(0, [0.0, 0.5]), [1.0, 0.0])
    g3 = line_path(ChartPoint(0, [1.0, 0.0]), [1.5, -0.5])
    left = transport(conn, juxtapose(juxtapose(g1, g2), g3), CFG).g.matrix
    right = transport(conn, juxtapose(g1, juxtapose(g2, g3)), CFG).g.matrix
    assert frobenius(left - right) <= 1e-10


def test_reparametrized_multisegment_path_transports_identically():
    """Axiom 2 through the integrator when the reparametrization has to
    pull segment breakpoints back through a nonlinear time change."""
    conn = builtin_connection("levi-civita-s2-stereo")
    gamma = juxtapose(
        line_path(ChartPoint(0, [-1.0, 0.2]), [0.5, 0.8]),
        arc_path(0, [0.5, -0.2], 1.0, np.pi / 2.0, 2.5),
    )
    warped_path = reparametrize(gamma, parse("x1^2", 1))
    base = transport(conn, gamma, CFG).g.matrix
    warped = transport(conn, warped_path, CFG).g.matrix
    assert frobenius(warped - base) <= 1e-8


def test_lift_constant_path_is_constant():
    conn = builtin_connection("abelian-area(1.5)")
    x = ChartPoint(0, [0.4, 0.4])
    p = GroupElement(rotation2(0.6), SO2)
    lifted = lift_path(conn, constant_path(x), p, CFG)
    for t, pt, g in lifted.samples:
        assert np.allclose(pt.coords, x.coords, atol=1e-14)
        assert frobenius(g.matrix - p.matrix) == 0.0


def test_lift_with_identity_traces_transport():
    conn = builtin_connection("abelian-area(1.5)")
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0)
    lifted = lift_path(conn, gamma, identity_element(SO2), CFG)
    res = transport(conn, gamma, CFG)
    t_end, pt_end, g_end = lifted.samples[-1]
    assert t_end == pytest.approx(1.0)
    assert frobenius(g_end.matrix - res.g.matrix) <= 1e-10
    assert lifted.samples[0][2].matrix is not None
    assert frobenius(lifted.samples[0][2].matrix - np.eye(2)) == 0.0


def test_lift_equivariance_under_right_translation():
    conn = builtin_connection("constant-so3")
    gamma = line_path(ChartPoint(0, [-0.5, 0.0]), [0.8, 0.6])
    rng = np.random.default_rng(17)
    e1, e2, e3 = so3_basis()
    p = identity_element(conn.group)
    base = lift_path(conn, gamma, p, SolverConfig(h=5e-3))
    for _ in range(10):
        w = rng.normal(size=3) * 0.7
        g = group_exp(AlgebraElement(w[0] * e1 + w[1] * e2 + w[2] * e3, conn.group))
        shifted = lift_path(conn, gamma, g, SolverConfig(h=5e-3))
        dev = max(
            frobenius(s.matrix - b.matrix @ g.matrix)
            for (_, _, s), (_, _, b) in zip(shifted.samples, base.samples)
        )
        assert dev <= 1e-12


def test_group_constraint_drift_stays_bounded():
    """Projection keeps every recorded sample on the group within 1e-9;
    without it the drift grows with the step count until the group-element
    invariant itself rejects the samples."""
    conn = builtin_connection("levi-civita-s2-stereo")
    gamma = arc_path(0, [0.0, 0.0], 3.6, 0.0, 6.0 * np.pi)  # three turns
    lifted = lift_path(conn, gamma, identity_element(SO2), SolverConfig(h=1e-3, project_every=8))
    drift = max(frobenius(g.matrix.T @ g.matrix - np.eye(2)) for _, _, g in lifted.samples)
    assert drift <= 1e-9

    from holonome.errors import GroupInvariantError

    with pytest.raises(GroupInvariantError):
        lift_path(conn, gamma, identity_element(SO2),
                  SolverConfig(h=1e-2, project_every=10**9))


def test_rk4_convergence_order():
    conn = builtin_connection("constant-so3")
    gamma = line_path(ChartPoint(0, [-0.5, -0.5]), [1.0, 0.8])
    rep = endpoint_convergence(conn, gamma, hs=(1e-2, 5e-3, 2.5e-3))
    assert rep.slope >= 3.7


def test_verify_axioms_engine_self_consistency():
    for name in ("flat-so2", "abelian-area(1.5)", "constant-so3"):
        conn = builtin_connection(name)
        report = verify_axioms(engine_oracle(conn, CFG), standard_axiom_suite(conn), 1e-7)
        assert report.passed, (name, report.as_dict())


def test_verify_axioms_catches_parametrization_dependence():
    """An oracle keyed to the parametrization energy violates axiom 2."""
    conn = builtin_connection("flat-so2")

    def broken_oracle(gamma):
        ts = np.linspace(0.0, 1.0, 200, endpoint=False) + 0.5 / 200
        energy = float(
            np.mean([np.sum(path_velocity(gamma, t).components ** 2) for t in ts])
        )
        g = GroupElement(rotation2(0.05 * energy), SO2)
        start = path_point(gamma, 0.0)
        end = path_point(gamma, 1.0)
        from holonome.transport import TransportResult

        return TransportResult(start, end, g, 200, 0.0)

    suite = standard_axiom_suite(conn)
    report = verify_axioms(broken_oracle, suite, 1e-7)
    assert report.reparam_dev > 1e-3
    assert not report.passed


def test_verify_axioms_constant_identity_oracle_passes():
    """The axioms alone do not force curvature: an identity oracle on a
    curved connection still satisfies them."""
    conn = builtin_connection("abelian-area(1.5)")

    def identity_oracle(gamma):
        from holonome.transport import TransportResult

        return TransportResult(
            path_point(gamma, 0.0), path_point(gamma, 1.0),
            identity_element(SO2), 0, 0.0,
        )

    report = verify_axioms(identity_oracle, standard_axiom_suite(conn), 1e-7)
    assert report.passed


def test_inverse_path_check():
    assert inverse_path_check(builtin_connection("flat-so2"),
                              line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 1.0]),
                              CFG) <= 1e-12
    assert inverse_path_check(builtin_connection("abelian-area(1.5)"),
                              square_loop(), CFG) <= 1e-7
    assert inverse_path_check(builtin_connection("constant-so3"),
                              arc_path(0, [0.1, -0.1], 0.9, 0.3, 4.0),
                              CFG) <= 1e-7


def test_outside_chart_raises():
    conn = builtin_connection("abelian-area(1.5)")
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [5.0, 0.0])  # leaves the box
    with pytest.raises(OutsideChartError):
        transport(conn, gamma, CFG)


def test_dimension_mismatch_rejected():
    from holonome.errors import ValidationError

    conn = builtin_connection("abelian-area(1.5)")
    gamma = line_path(ChartPoint(0, [0.0, 0.0, 0.0]), [0.5, 0.0, 0.0])
    with pytest.raises(ValidationError):
        transport(conn, gamma, CFG)


def test_step_underflow_in_doubling_mode():
    conn = builtin_connection("levi-civita-s2-stereo")
    gamma = arc_path(0, [0.0, 0.0], 1.5, 0.0, 3.0)
    with pytest.raises(StepUnderflowError):
        transport(conn, gamma, SolverConfig("rk4-doubling", h=0.05, tol=1e-30))


def test_doubling_matches_fixed_step():
    conn = builtin_connection("constant-so3")
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, 3.0)
    fine = transport(conn, gamma, SolverConfig(h=1e-4))
    adaptive = transport(conn, gamma, SolverConfig("rk4-doubling", h=0.05, tol=1e-10))
    assert frobenius(fine.g.matrix - adaptive.g.matrix) <= 1e-7
    assert adaptive.est_error > 0.0


@pytest.mark.parametrize("h", [2e-2, 1e-2])
def test_fixed_step_estimate_tracks_true_error(h):
    """rk4-fixed reports a Richardson estimate, not 0: on a unit circle
    under abelian-area(1.5) it is within a factor 2 of the error against
    the Stokes area law, holonomy = rotation by -1.5 pi."""
    conn = builtin_connection("abelian-area(1.5)")
    circle = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0 * np.pi)
    res = transport(conn, circle, SolverConfig(h=h))
    true_error = frobenius(res.g.matrix - rotation2(-1.5 * np.pi))
    assert 0.5 <= res.est_error / true_error <= 2.0


def test_doubling_meets_tolerance_against_area_law():
    conn = builtin_connection("abelian-area(1.5)")
    circle = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0 * np.pi)
    res = transport(conn, circle, SolverConfig("rk4-doubling", h=0.05, tol=1e-10))
    assert frobenius(res.g.matrix - rotation2(-1.5 * np.pi)) <= 1e-9
    assert res.step_count % 2 == 0


@settings(max_examples=15, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.sampled_from([SolverConfig(h=1e-3), SolverConfig("rk4-doubling", h=0.05, tol=1e-10)]),
)
def test_transport_multiplicative_at_random_splits(s, cfg):
    """P(gamma) = P(gamma|[s, 1]) P(gamma|[0, s]) for both solver methods."""
    conn = builtin_connection("levi-civita-s2-stereo")
    gamma = arc_path(0, [0.2, -0.1], 1.2, 0.3, 4.0)
    whole = transport(conn, gamma, cfg).g.matrix
    first = transport(conn, subpath(gamma, 0.0, s), cfg).g.matrix
    second = transport(conn, subpath(gamma, s, 1.0), cfg).g.matrix
    assert frobenius(whole - second @ first) <= 1e-8


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_chart_exit_between_split_samples_raises(h):
    """A narrow excursion to x1 = 4.5 at t = 0.503 falls between the chart
    split's samples; the integrator's own grid catches it before any
    coefficient is evaluated off chart 0's box [-4, 4]^2."""
    conn = builtin_connection("levi-civita-s2-twochart")
    gamma = path_from_strings(0, ["3 + 1.5*exp(-1000000*(x1 - 0.503)^2)", "0.5"])
    with pytest.raises(OutsideChartError, match=r"t=0\.50"):
        transport(conn, gamma, SolverConfig(h=h))


# --- chart switching -----------------------------------------------------------

def latitude_loop_two_chart(r0):
    """Latitude circle split across the two stereographic charts."""
    u = var(0)
    half = lit(np.pi) * u
    seg0 = Segment(0, (lit(r0) * ecos(half), lit(r0) * esin(half)), 0.0, 0.5)
    ang = lit(np.pi) + lit(np.pi) * u
    seg1 = Segment(1, (ecos(ang) / lit(r0), lit(-1.0) * esin(ang) / lit(r0)), 0.5, 1.0)
    return PathSpec((seg0, seg1))


def test_two_chart_loop_matches_single_chart():
    """Holonomy is covariant under change of trivialization: the two-chart
    computation agrees with the single-chart one after conjugating to a
    common trivialization."""
    th0 = np.pi / 3.0
    r0 = 1.0 / np.tan(th0 / 2.0)
    single = builtin_connection("levi-civita-s2-stereo")
    double = builtin_connection("levi-civita-s2-twochart")
    loop1 = arc_path(0, [0.0, 0.0], r0, 0.0, 2.0 * np.pi)
    g_single = transport(single, loop1, CFG).g.matrix

    res = transport(double, latitude_loop_two_chart(r0), CFG)
    gauge = double.find_transition(0, 1).gauge_at(np.array([r0, 0.0]))
    g_double = gauge @ res.g.matrix
    assert frobenius(g_double - g_single) <= 1e-6


def test_mid_segment_chart_crossing_by_bisection():
    """A single segment that walks out of its declared chart box: the
    engine must split at the crossing, apply the transition gauge, and
    agree with the same computation done on one big chart."""
    conn = builtin_connection("levi-civita-s2-twochart")
    start = np.array([3.5, 0.4])
    end = np.array([5.0, 0.4])  # outside chart 0's box, inside chart 1 after the map
    gamma = line_path(ChartPoint(0, start), end)
    res = transport(conn, gamma, SolverConfig(h=1e-4))

    # reference: identical stereographic coefficients on a single box big
    # enough to hold the whole line, then conjugate by the transition gauge
    # at the endpoint to move into the chart-1 trivialization
    from holonome.connection import ExprMatrixFunction

    x1, x2 = var(0, 2), var(1, 2)
    denom = lit(1.0) + x1**2 + x2**2
    a1 = (lit(2.0) * x2) / denom
    a2 = (lit(-2.0) * x1) / denom
    def times_j(s):
        return ExprMatrixFunction([[lit(0.0), lit(-1.0) * s], [s, lit(0.0)]], 2)
    big_chart = ChartSpec(0, 2, [-6, -6], [6, 6], (times_j(a1), times_j(a2)))
    big = ConnectionForm(SO2, (big_chart,))
    g0 = transport(big, gamma, SolverConfig(h=1e-4)).g.matrix

    tr = conn.find_transition(0, 1)
    expect = np.linalg.inv(tr.gauge_at(end)) @ g0
    assert res.end.chart_id == 1
    assert np.allclose(res.end.coords, tr.map_coords(end), atol=1e-9)
    assert frobenius(res.g.matrix - expect) <= 1e-8
