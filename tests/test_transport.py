"""Transport engine: closed-form checks, axioms, lifting, chart switching."""

import dataclasses
import sys
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holonome import exprs

from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    MatrixFunction,
    _so2_chart,
    _stereo_coefficients,
    builtin_connection,
    gauge_transform,
)
from holonome.errors import (
    EndpointMismatchError,
    GroupInvariantError,
    HolonomeError,
    OutsideChartError,
    StepUnderflowError,
    ValidationError,
)
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
    AxiomSuite,
    SolverConfig,
    _field_norm,
    _partial_products,
    _product,
    _steps,
    endpoint_convergence,
    engine_oracle,
    inverse_path_check,
    lift_path,
    standard_axiom_suite,
    transport,
    transport_many,
    verify_axioms,
)

from oracles import abelian_loop_exponent, taylor_expm

J = so2_generator()
SO2 = StructureGroup("SO", 2)
CFG = SolverConfig(h=1e-3)


@pytest.mark.parametrize("bad, message", [
    ({"tol": 0.0}, "tol must be finite and > 0"),
    ({"tol": -1.0}, "tol must be finite and > 0"),
    ({"tol": float("nan")}, "tol must be finite and > 0"),
    ({"tol": float("inf")}, "tol must be finite and > 0"),
    ({"h": 0.0}, r"step h must lie in \(0, 0.1\]"),
    ({"h": 0.2}, r"step h must lie in \(0, 0.1\]"),
    ({"h": float("nan")}, r"step h must lie in \(0, 0.1\]"),
    ({"project_every": 0}, "project_every must be >= 1"),
], ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "h-zero", "h-large", "h-nan",
        "project_every-zero"])
def test_solver_config_refuses_out_of_range_settings(bad, message):
    """tol must be finite and > 0 under either method: 0, -1 and NaN would
    double to a false roundoff floor, inf would accept any first pass.  h
    must lie in (0, 0.1] and project_every be at least 1; an unknown method
    is refused too."""
    for method in ("rk4-fixed", "rk4-doubling"):
        with pytest.raises(ValidationError, match=message):
            SolverConfig(method, **{"h": 1e-2, **bad})
    with pytest.raises(ValidationError, match="unknown solver method"):
        SolverConfig("euler")
    SolverConfig("rk4-doubling", h=1e-2, tol=1e-300)


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
                      (ExprMatrixFunction(lam * J, 2), ExprMatrixFunction(0 * J, 2)))
    return ConnectionForm(SO2, (chart,))


def big_chart_reference(twochart, gamma, h):
    """P(gamma) for a chart-0 path on the stereographic coefficients over
    one box [-6, 6]^2 that holds it all, taken into the chart-1
    trivialization of levi-civita-s2-twochart at the path's end."""
    big = ConnectionForm(SO2, (_so2_chart(0, [-6, -6], [6, 6], *_stereo_coefficients()),))
    g0 = transport(big, gamma, SolverConfig(h=h)).g.matrix
    end = path_point(gamma, 1.0).coords
    return np.linalg.inv(twochart.find_transition(0, 1).gauge_at(end)) @ g0


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
    """Non-orthogonal branch: GL(2) with a constant non-skew coefficient
    takes the general solve of the step and matches the exponential
    series."""
    gl2 = StructureGroup("GL", 2)
    a = np.array([[0.3, 0.5], [0.1, -0.2]])
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ExprMatrixFunction(a, 2), ExprMatrixFunction(0.0 * a, 2)))
    conn = ConnectionForm(gl2, (chart,))
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    res = transport(conn, gamma, CFG)
    assert frobenius(res.g.matrix - taylor_expm(-a)) <= 1e-10


def test_u1_group_transport():
    u1 = StructureGroup("U1", 2)
    lam = 0.9
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ExprMatrixFunction(lam * J, 2), ExprMatrixFunction(0 * J, 2)))
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
    """With no projection anywhere, every recorded sample of a lift over
    10**5 steps stays on SO(2) within 1e-9: each step is a rotation."""
    conn = builtin_connection("levi-civita-s2-stereo")
    gamma = arc_path(0, [0.0, 0.0], 3.6, 0.0, 6.0 * np.pi)  # three turns
    lifted = lift_path(conn, gamma, identity_element(SO2), SolverConfig(h=1e-5))
    assert len(lifted.samples) - 1 >= 10**5
    G = np.stack([g.matrix for _, _, g in lifted.samples])
    drift = np.sqrt(((G.swapaxes(1, 2) @ G - np.eye(2)) ** 2).sum(axis=(1, 2)))
    assert drift.max() <= 1e-9


def test_rk4_convergence_order():
    conn = builtin_connection("constant-so3")
    gamma = line_path(ChartPoint(0, [-0.5, -0.5]), [1.0, 0.8])
    rep = endpoint_convergence(conn, gamma, hs=(1e-2, 5e-3, 2.5e-3))
    assert rep.slope >= 3.7


@pytest.mark.parametrize(
    "name, gamma",
    [
        ("flat-so2", arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0 * np.pi)),
        ("pure-gauge", arc_path(0, [0.0, 0.0], 1.9, 0.0, 2.0 * np.pi)),
    ],
)
def test_roundoff_level_convergence_sweep_is_degenerate(name, gamma):
    """On a flat-so2 or pure-gauge loop every endpoint error is at
    roundoff, so the sweep reports no slope and flags itself degenerate,
    while a curved constant-so3 line does not."""
    rep = endpoint_convergence(builtin_connection(name), gamma)
    assert max(rep.errors) < 1e-12
    assert rep.slope is None and rep.degenerate
    so3_line = line_path(ChartPoint(0, [-0.5, -0.5]), [1.0, 0.8])
    assert not endpoint_convergence(builtin_connection("constant-so3"), so3_line).degenerate


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


def test_step_underflow_at_the_roundoff_floor_on_the_abelian_arc():
    """The same arc on abelian-area(1.5), whose exact angle sums take the
    estimate down to about eps (1.7e-16 at 20480 steps), where it stops
    halving: tol = 1e-30 is out of reach, and doubling raises at the
    roundoff floor."""
    conn = builtin_connection("abelian-area(1.5)")
    gamma = arc_path(0, [0.0, 0.0], 1.5, 0.0, 3.0)
    with pytest.raises(StepUnderflowError, match="roundoff floor"):
        transport(conn, gamma, SolverConfig("rk4-doubling", h=0.05, tol=1e-30))


def test_doubling_matches_fixed_step():
    conn = builtin_connection("constant-so3")
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, 3.0)
    fine = transport(conn, gamma, SolverConfig(h=1e-4))
    adaptive = transport(conn, gamma, SolverConfig("rk4-doubling", h=0.05, tol=1e-10))
    assert frobenius(fine.g.matrix - adaptive.g.matrix) <= 1e-7
    assert adaptive.est_error > 0.0


def test_doubling_equals_fixed_at_the_accepted_step_count():
    """Each doubling pass takes the previous pass's product as its coarse
    product.  That product is the coarse product bit for bit, so the
    accepted pass equals a rk4-fixed pass at the same even step count."""
    conn = builtin_connection("levi-civita-s2-stereo")
    loop = arc_path(0, [0.0, 0.0], 0.5, 0.0, 2.0 * np.pi)
    adaptive = transport(conn, loop, SolverConfig("rk4-doubling", h=1e-2))
    n = adaptive.step_count
    assert n >= 400  # 100 -> 200 -> 400: two passes reuse a product
    fixed = transport(conn, loop, SolverConfig(h=1.0 / (n - 0.5)))
    assert fixed.step_count == n
    assert np.array_equal(fixed.g.matrix, adaptive.g.matrix)
    assert fixed.est_error == adaptive.est_error


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


def test_narrow_chart_exit_crosses_into_next_chart():
    """A narrow excursion to x1 = 4.5 at t = 0.503 leaves chart 0's box
    [-4, 4]^2 between two samples a coarse pre-scan would take; the field
    grid at h = 1e-4 catches it, and the path crosses into chart 1."""
    conn = builtin_connection("levi-civita-s2-twochart")
    gamma = path_from_strings(0, ["3 + 1.5*exp(-1000000*(x1 - 0.503)^2)", "0.5"])
    res = transport(conn, gamma, SolverConfig(h=1e-4))
    assert res.end.chart_id == 1
    assert frobenius(res.g.matrix - big_chart_reference(conn, gamma, 1e-4)) <= 1e-7


def test_boundary_start_crosses_into_next_chart():
    """A segment that starts on chart 0's boundary and leaves at once: the
    empty chart-0 part is skipped, and the gauge at the start applies."""
    conn = builtin_connection("levi-civita-s2-twochart")
    gamma = line_path(ChartPoint(0, [4.0, 0.4]), [5.0, 0.4])
    res = transport(conn, gamma, SolverConfig(h=1e-3))
    assert res.end.chart_id == 1
    assert frobenius(res.g.matrix - big_chart_reference(conn, gamma, 1e-3)) <= 1e-12


def test_crossing_into_a_gauge_transformed_chart_compiles_its_map_once(monkeypatch):
    """Five transports of a line that crosses into a gauge-transformed
    chart 1 of the two-chart sphere evaluate the transition gauge g(phi(x))
    and the transition map by programs cached on their objects: the map is
    compiled at most once in all, not once per transport."""
    twochart = builtin_connection("levi-civita-s2-twochart")
    w = lit(0.3) * var(0, 2) * var(1, 2)
    conn = gauge_transform(twochart, [[ecos(w), -esin(w)], [esin(w), ecos(w)]], chart_id=1)
    maps = {tr.coord_map for tr in conn.transitions}
    compiled = []
    original = exprs.Program.__init__

    def counting(self, es, grad_axes=0):
        compiled.append(tuple(es) in maps)
        original(self, es, grad_axes)

    monkeypatch.setattr(exprs.Program, "__init__", counting)
    gamma = line_path(ChartPoint(0, [3.5, 0.4]), [4.5, 0.4])
    ends = [transport(conn, gamma, CFG) for _ in range(5)]
    assert all(res.end.chart_id == 1 for res in ends)
    assert sum(compiled) <= 1
    compiled.clear()
    tr = conn.find_transition(0, 1)
    for x in ([0.5, 0.3], [1.5, -0.2]):
        tr.jacobian(x)
    assert sum(compiled) <= 1


def test_a_warm_two_chart_holonomy_compiles_nothing(monkeypatch):
    """A second holonomy of the loop that leaves chart 0 into chart 1
    compiles no program, and gives the first one's bits: the parts of each
    chart exit are windows on the loop's source, and the source keeps
    what it composed with each transition's coordinate map."""
    from holonome.holonomy import holonomy

    conn = builtin_connection("levi-civita-s2-twochart")
    loop = arc_path(0, (3.0, 0.1), 2.0, np.pi, 3.0 * np.pi)
    first = holonomy(conn, loop, CFG)
    compiled = []
    original = exprs.Program.__init__

    def counting(self, es, grad_axes=0):
        compiled.append(grad_axes)
        original(self, es, grad_axes)

    monkeypatch.setattr(exprs.Program, "__init__", counting)
    again = holonomy(conn, loop, CFG)
    assert compiled == []
    assert again.transport.end.chart_id == 1
    assert again.g.matrix.tobytes() == first.g.matrix.tobytes()


def test_exit_within_crossing_tolerance_of_the_end_is_dropped():
    """A segment that leaves chart 0 within 1e-12 of its end stops at its
    last point inside chart 0; the empty rest is not integrated (0 / 0)."""
    conn = builtin_connection("levi-civita-s2-twochart")
    start = ChartPoint(0, [3.5, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = transport(conn, line_path(start, [4.0 + 1e-14, 0.4]), CFG)
    ref = transport(conn, line_path(start, [4.0, 0.4]), CFG)
    assert res.end.chart_id == 0
    assert frobenius(res.g.matrix - ref.g.matrix) <= 1e-12


class BoxChecked(MatrixFunction):
    """A coefficient that fails the test when evaluated off its chart box."""

    def __init__(self, base, lo, hi):
        self.base, self.lo, self.hi = base, lo, hi
        self.dim, self.k = base.dim, base.k

    def _check(self, X):
        outside = ~np.all((X >= self.lo) & (X <= self.hi), axis=1)
        assert not outside.any(), f"evaluated off the chart box at {X[outside][:3]}"

    def value(self, X):
        self._check(X)
        return self.base.value(X)

    def value_and_grad(self, X):
        self._check(X)
        return self.base.value_and_grad(X)


def box_checked(conn):
    charts = tuple(
        ChartSpec(c.chart_id, c.dim, c.lo, c.hi,
                  tuple(BoxChecked(f, c.lo, c.hi) for f in c.coefficients))
        for c in conn.charts
    )
    return ConnectionForm(conn.group, charts, conn.transitions)


@st.composite
def chart_crossing_paths(draw):
    """Lines and arcs on chart 0 whose x1 runs monotonically from inside
    the box past x1 = 4 or x1 = -4, so they end on chart 1."""
    side = draw(st.sampled_from([1.0, -1.0]))
    y0 = draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        a, b = draw(st.floats(2.5, 3.9)), draw(st.floats(4.2, 6.0))
        return line_path(ChartPoint(0, [side * a, y0]), [side * b, draw(st.floats(-1.0, 1.0))])
    r = draw(st.floats(0.8, 2.0))
    theta0 = draw(st.floats(np.pi, 1.5 * np.pi))
    # x1 = 3.5 + r cos(theta) increases on [theta0, 2 pi]; theta -> pi - theta mirrors it
    if side > 0:
        return arc_path(0, [3.5, y0], r, theta0, 2.0 * np.pi)
    return arc_path(0, [-3.5, y0], r, np.pi - theta0, -np.pi)


@settings(max_examples=15, deadline=None)
@given(
    chart_crossing_paths(),
    st.floats(min_value=0.1, max_value=0.9),
    st.sampled_from([SolverConfig(h=1e-3), SolverConfig("rk4-doubling", h=0.05, tol=1e-10)]),
)
def test_chart_crossings_stay_in_the_box_and_compose(gamma, s, cfg):
    """Across a chart switch no coefficient is evaluated off its chart's
    box, P(gamma) = P(gamma|[s, 1]) P(gamma|[0, s]), and P(gamma^-1)
    P(gamma) = I, for both solver methods."""
    conn = box_checked(builtin_connection("levi-civita-s2-twochart"))
    whole = transport(conn, gamma, cfg)
    first = transport(conn, subpath(gamma, 0.0, s), cfg)
    second = transport(conn, subpath(gamma, s, 1.0), cfg)
    assert whole.end.chart_id == second.end.chart_id == 1
    assert frobenius(whole.g.matrix - second.g.matrix @ first.g.matrix) <= 1e-8
    assert inverse_path_check(conn, gamma, cfg) <= 1e-8


@pytest.mark.parametrize(
    "name, gamma",
    [
        ("levi-civita-s2-stereo", arc_path(0, [0.0, 0.0], 0.7, 0.0, 2.0 * np.pi)),
        ("pure-gauge", arc_path(0, [0.2, -0.1], 0.8, 0.0, 2.0 * np.pi)),
        ("constant-so3", arc_path(0, [0.1, 0.0], 0.9, 0.0, 2.0 * np.pi)),
    ],
)
def test_no_svd_or_inverse_on_the_per_step_path(monkeypatch, name, gamma):
    """A well-conditioned SO(2) or SO(3) transport at h = 1e-3, the
    gauge-transformed pure-gauge included, runs with np.linalg.svd and
    np.linalg.inv disabled, and gives the same result."""
    conn = builtin_connection(name)
    cfg = SolverConfig(h=1e-3)
    want = transport(conn, gamma, cfg)

    def refuse(*args, **kwargs):
        pytest.fail("a per-matrix LAPACK call on the per-step path")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    got = transport(conn, gamma, cfg)
    assert got.step_count == want.step_count == 1000
    assert np.array_equal(got.g.matrix, want.g.matrix)


# --- the tree-ordered product ---------------------------------------------------

def sequential_product(S, U):
    """The plain loop the tree product reorders: multiply the steps onto U
    one at a time.  Returns the product and every partial product."""
    total, partial = U, []
    for s in S:
        total = s @ total
        partial.append(total)
    return total, partial


SO3 = StructureGroup("SO", 3)
GL3 = StructureGroup("GL", 3)


def random_steps(rng, group, n):
    """n near-identity steps and a start matrix.  Orthogonal steps are
    I + 0.05 A with A skew, off the group by about 1e-3, so that nothing
    in the products may lean on their being orthogonal."""
    k = group.k
    noise = rng.normal(size=(n, k, k))
    if group.orthogonal:
        skew = rng.normal(size=(k, k))
        U = group_exp(AlgebraElement(skew - skew.T, group)).matrix
        return np.eye(k) + 0.05 * (noise - np.swapaxes(noise, 1, 2)), U
    return np.eye(k) + 0.02 * noise, np.eye(k) + 0.1 * rng.normal(size=(k, k))


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([SO2, SO3, GL3]),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
def test_tree_product_matches_the_sequential_loop(group, n, rng_seed):
    """_product and every row of _partial_products match the sequential
    loop within 1e-12, for SO(2), SO(3) and GL(3) and any step count."""
    S, U = random_steps(np.random.default_rng(rng_seed), group, n)
    want, partial = sequential_product(S, U)
    assert frobenius(_product(S, U) - want) <= 1e-12
    trail = _partial_products(S, U)
    assert trail.shape == (n, group.k, group.k)
    assert all(frobenius(t - w) <= 1e-12 for t, w in zip(trail, partial))


def cayley_rotation(w):
    """The Cayley map of the so(k) matrix of coordinates w, k = 2 or 3, as
    the rotation by 2 atan|w| about w (Rodrigues' formula)."""
    if len(w) == 1:
        return rotation2(2.0 * np.arctan(w[0]))
    e1, e2, e3 = so3_basis()
    size = np.linalg.norm(w)
    K = (w[0] * e1 + w[1] * e2 + w[2] * e3) / size
    phi = 2.0 * np.arctan(size)
    return np.eye(3) + np.sin(phi) * K + (1.0 - np.cos(phi)) * K @ K


def skew_rows(M):
    """The rows b = M[p, q] - M[q, p] of a component-major (k, k, ...)
    field grid, k = 2 or 3, that _steps reads on SO(2) and SO(3): twice the
    coordinates of the skew part of M on J, or on E1, E2, E3."""
    pairs = ((1, 0),) if len(M) == 2 else ((2, 1), (0, 2), (1, 0))
    return np.stack([M[p, q] - M[q, p] for p, q in pairs])


def skew_field_grid(rng, k, n):
    """A component-major (k, k, 1, 2n + 1) grid of skew fields, each
    matrix of norm 1."""
    A = rng.normal(size=(k, k, 1, 2 * n + 1))
    A -= A.swapaxes(0, 1)
    return A / np.sqrt((A * A).sum(axis=(0, 1)))


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 20),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_closed_form_steps_are_the_cayley_map_on_the_group(k, n, log_dt, rng_seed):
    """The SO(2) and SO(3) closed-form steps for unit fields and dt from
    1e-3 to 1e3, so Omega of norm from about 1e-3 to 1e3 and beyond: each
    lies on SO(k) within 1e-14, and equals the Cayley map of
    W = (Omega - Omega^3/12)/2 = w(Omega)/2 + |w|^2 w(Omega)/24 within
    1e-14, as the rotation by 2 atan|w| about w.  While W is small enough
    (norm at most 20) for the general branch's batched solve to keep its
    digits, each also equals that solve within 1e-14."""
    group = StructureGroup("SO", k)
    dt = 10.0**log_dt
    M = skew_field_grid(np.random.default_rng(rng_seed), k, n)
    steps = _steps(skew_rows(M), dt, group)[0]
    if k == 2:  # an SO(2) step comes as its angle
        steps = [rotation2(angle) for angle in steps]
    solved = _steps(M, dt, StructureGroup("GL", k))[0]
    B = -np.moveaxis(M[:, :, 0], -1, 0)
    B0, Bh, B1 = B[0:-1:2], B[1::2], B[2::2]
    omega = (dt / 6.0) * (B0 + 4.0 * Bh + B1) + (dt * dt / 12.0) * (B1 @ B0 - B0 @ B1)
    for step, solve, O in zip(steps, solved, omega):
        v = np.array([O[1, 0]] if k == 2 else [O[2, 1], O[0, 2], O[1, 0]])
        w = v * (0.5 + v @ v / 24.0)
        assert np.abs(step.T @ step - np.eye(k)).max() <= 1e-14
        assert np.linalg.det(step) > 0
        assert np.abs(step - cayley_rotation(w)).max() <= 1e-14
        if frobenius(0.5 * O - O @ O @ O / 24.0) <= 20.0:
            assert np.abs(step - solve).max() <= 1e-14


@seed(20261124)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 20), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_doubling_bound_reads_the_skew_rows_as_the_field(k, n, size, rng_seed):
    """The doubling bound's max ||M||_F, read from the skew rows b as
    sqrt(sum b^2 / 2), is the norm of the whole field when it is skew:
    bit for bit on SO(2), within 4 ulp on SO(3), where the squares add
    in another order."""
    M = size * skew_field_grid(np.random.default_rng(rng_seed), k, n)[:, :, 0]
    want = _field_norm(M)
    if k == 2:
        assert _field_norm(skew_rows(M)) == want
    else:
        assert abs(_field_norm(skew_rows(M)) - want) <= 4.0 * np.spacing(want)


def simpson_grid(rng, n):
    """A component-major (2, 2, 1, 2n + 1) grid of skew fields of random
    size, the 2n + 1 Simpson points of n steps."""
    A = rng.normal(size=(2, 2, 1, 2 * n + 1))
    return A - A.swapaxes(0, 1)


@seed(20261020)
@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([SO2, StructureGroup("U1", 2)]),
    st.integers(1, 2 * 10**4),
    st.floats(0.05, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_angle_product_is_the_product_of_the_cayley_steps(group, n, span, rng_seed):
    """On SO(2) and U(1) a pass's product is the rotation by the pairwise
    sum of its step angles.  On random Simpson grids of 1 to 2 10^4 steps
    spanning a parameter interval of up to 3, it equals the sequential
    product of the Cayley rotations of the steps within 1e-12, and their
    product in 40 digits, as unit complex numbers (1 + iw)/(1 - iw),
    within 1e-15."""
    rng = np.random.default_rng(rng_seed)
    M, dt = simpson_grid(rng, n), span / n
    U = rotation2(rng.uniform(-np.pi, np.pi))
    got = _product(_steps(skew_rows(M), dt, group), U[None])[0]
    b = M[1, 0, 0] - M[0, 1, 0]
    omega = (b[0:-1:2] + 4.0 * b[1::2] + b[2::2]) * (-dt / 12.0)
    ws = omega * (0.5 + omega * omega / 24.0)
    assert frobenius(got - sequential_product([cayley_rotation([w]) for w in ws], U)[0]) <= 1e-12
    with mpmath.workdps(40):
        z = mpmath.mpc(1)
        for w in ws:
            z *= mpmath.mpc(1, w) / mpmath.mpc(1, -w)
        exact = mpmath.matrix([[z.real, -z.imag], [z.imag, z.real]]) * mpmath.matrix(U.tolist())
        assert frobenius(got - np.array(exact.tolist(), dtype=float)) <= 1e-15


def test_lift_ends_at_the_transport_over_many_steps():
    """The lift's samples rotate p by the prefix sums of the step angles;
    over the 10^5 steps of a latitude loop, where a running sum (np.cumsum)
    drifts by 1.8e-12 from the pass's pairwise sum, the last sample equals
    transport(...).g @ p within 1e-14."""
    conn = builtin_connection("levi-civita-s2-stereo")
    loop = arc_path(0, [0.0, 0.0], 1.5, 0.0, 2.0 * np.pi)
    cfg = SolverConfig(h=1e-5)
    p = GroupElement(rotation2(0.7), SO2)
    lifted = lift_path(conn, loop, p, cfg)
    assert len(lifted.samples) - 1 == 10**5
    want = transport(conn, loop, cfg).g.matrix @ p.matrix
    assert frobenius(lifted.samples[-1][2].matrix - want) <= 1e-14


def test_doubling_evaluates_only_the_new_grid_points(monkeypatch):
    """Each doubling pass takes the even points of its 4n + 1 grid from
    the previous pass's 2n + 1 grid: 100 -> 200 -> 400 steps evaluate
    201 + 200 + 400 points, not 201 + 401 + 801."""
    module = sys.modules["holonome.transport"]  # holonome.transport is the function
    original = module.coords_and_velocities
    counted = []

    def counting(coords, us, width):
        counted.append(len(us))
        return original(coords, us, width)

    monkeypatch.setattr(module, "coords_and_velocities", counting)
    conn = builtin_connection("levi-civita-s2-stereo")
    loop = arc_path(0, [0.0, 0.0], 0.5, 0.0, 2.0 * np.pi)
    res = transport(conn, loop, SolverConfig("rk4-doubling", h=1e-2))
    assert res.step_count == 400
    assert counted == [201, 200, 400]


def test_doubling_lift_scans_only_the_accepted_pass(monkeypatch):
    """lift_path under rk4-doubling takes its samples from one prefix scan
    of the accepted pass's step angles: 100 -> 200 -> 400 steps scan 400,
    not 100 + 200 + 400."""
    module = sys.modules["holonome.transport"]
    original = module._scan
    scanned = []

    def counting(S, combine):
        scanned.append(S.shape[-1])
        return original(S, combine)

    monkeypatch.setattr(module, "_scan", counting)
    conn = builtin_connection("levi-civita-s2-stereo")
    loop = arc_path(0, [0.0, 0.0], 0.5, 0.0, 2.0 * np.pi)
    lifted = lift_path(conn, loop, identity_element(SO2), SolverConfig("rk4-doubling", h=1e-2))
    assert scanned == [400]
    assert len(lifted.samples) == 401


def test_doubling_from_huge_steps_converges_without_overflow():
    """abelian-area(200) around a radius-1.5 circle under rk4-doubling from
    h = 0.1: the first passes' steps turn by up to pi each, yet no product
    overflows (any RuntimeWarning fails the suite), and doubling reaches
    the area law within 1e-8."""
    conn = builtin_connection("abelian-area(200)")
    circle = arc_path(0, [0.0, 0.0], 1.5, 0.0, 2.0 * np.pi)
    res = transport(conn, circle, SolverConfig("rk4-doubling", h=0.1))
    assert frobenius(res.g.matrix - rotation2(-200.0 * np.pi * 1.5**2)) <= 1e-8


def test_doubling_does_not_accept_steps_too_large_for_the_estimate():
    """One turn of a radius-1.9 pure-gauge loop at h = 0.1 takes 10 steps
    that turn by up to 2.1 rad, where the fine and coarse products agree
    by chance: the estimate reads 9.1e-5 for a holonomy error of 7.3e-2.
    rk4-doubling from there goes on doubling until every step is small
    against the field, and meets the identity holonomy within 1e-12."""
    conn = builtin_connection("pure-gauge")
    loop = arc_path(0, [0.0, 0.0], 1.9, 0.0, 2.0 * np.pi)
    assert transport(conn, loop, SolverConfig(h=0.1)).est_error <= 1e-4
    res = transport(conn, loop, SolverConfig("rk4-doubling", h=0.1, tol=1e-4))
    assert res.step_count > 10
    assert frobenius(res.g.matrix - np.eye(2)) <= 1e-12


def test_error_estimate_reads_the_integration_error_not_the_drift():
    """On a pure-gauge loop the holonomy is I.  Every step lies on SO(2),
    so no drift off the group enters the Richardson difference: over five
    turns at h = 1e-3 est_error reads 3.9e-15 and the holonomy is I within
    4.0e-14, where RK4 products drifting off SO(2) once read 3.3e-7."""
    conn = builtin_connection("pure-gauge")
    loop = arc_path(0, [0.0, 0.0], 1.9, 0.0, 10.0 * np.pi)  # five turns
    res = transport(conn, loop, SolverConfig(h=1e-3))
    assert frobenius(res.g.matrix - np.eye(2)) <= 1e-12
    assert res.est_error <= 1e-12


def test_project_every_changes_no_result():
    """project_every, kept for schema v1, selects nothing: a 10-step pass
    of a pure-gauge loop gives the same holonomy and estimate, bit for bit,
    at project_every 8 and 4, one of them below and one above the 5-step
    coarse product."""
    conn = builtin_connection("pure-gauge")
    loop = arc_path(0, [0.0, 0.0], 1.9, 0.0, 2.0 * np.pi)
    at8 = transport(conn, loop, SolverConfig(h=0.1))
    at4 = transport(conn, loop, SolverConfig(h=0.1, project_every=4))
    assert at8.step_count == 10
    assert np.array_equal(at8.g.matrix, at4.g.matrix)
    assert at8.est_error == at4.est_error <= 0.2


def test_doubling_equals_fixed_after_one_reuse():
    """A doubling run that stops at its second pass (10 -> 20 steps) takes
    the first pass's product as its coarse product, so it equals a
    rk4-fixed pass at the same step count bit for bit, estimate included."""
    conn = builtin_connection("abelian-area(1.5)")
    circle = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0 * np.pi)
    adaptive = transport(conn, circle, SolverConfig("rk4-doubling", h=0.1, tol=1e-3))
    n = adaptive.step_count
    assert n == 20
    fixed = transport(conn, circle, SolverConfig(h=1.0 / (n - 0.5)))
    assert fixed.step_count == n
    assert np.array_equal(fixed.g.matrix, adaptive.g.matrix)
    assert fixed.est_error == adaptive.est_error


def test_steps_too_large_for_rk4_do_not_make_the_product_singular():
    """The 40 steps of abelian-area(13.86) around a radius-1.5 circle at
    h = 0.025 are far too large for the field (an RK4 step there turned by
    sqrt(6) and scaled by 0.5, so the RK4 product was singular to 1e-12).
    transport and lift_path still return group elements, and rk4-doubling
    from h = 0.1, which accepts no pass with steps that large, doubles on
    to the area law; so does an SO(3) loop whose steps turn by up to 15."""
    conn = builtin_connection("abelian-area(13.86)")
    circle = arc_path(0, [0.0, 0.0], 1.5, 0.0, 2.0 * np.pi)
    coarse = SolverConfig(h=0.025)
    assert transport(conn, circle, coarse).step_count == 40
    assert len(lift_path(conn, circle, identity_element(SO2), coarse).samples) == 41
    res = transport(conn, circle, SolverConfig("rk4-doubling", h=0.1))
    assert frobenius(res.g.matrix - rotation2(-13.86 * np.pi * 1.5**2)) <= 1e-8
    conn = builtin_connection("constant-so3(40,30)")
    arc = arc_path(0, [0.0, 0.0], 1.0, 0.0, 3.0)
    res = transport(conn, arc, SolverConfig("rk4-doubling", h=0.1))
    fine = transport(conn, arc, SolverConfig(h=1e-5))
    assert frobenius(res.g.matrix - fine.g.matrix) <= 1e-8


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


# --- transport_many ------------------------------------------------------------

def gl2_connection():
    """A DSL-built GL(2) connection with point-dependent, non-skew
    coefficients."""
    x1, x2 = var(0, 2), var(1, 2)
    a1 = ExprMatrixFunction([[lit(0.3) * x2, lit(0.5)], [lit(-0.2), x1 * x2]], 2)
    a2 = ExprMatrixFunction([[lit(0.1), esin(x1)], [lit(0.4) * x1, lit(-0.3)]], 2)
    return ConnectionForm(StructureGroup("GL", 2), (ChartSpec(0, 2, [-2, -2], [2, 2], (a1, a2)),))


TWOCHART = "levi-civita-s2-twochart"
MANY_CONNECTIONS = {
    name: builtin_connection(name)
    for name in ("abelian-area(1.5)", "constant-so3(0.8,0.6)", "pure-gauge", TWOCHART)
}
MANY_CONNECTIONS["gl2"] = gl2_connection()
MANY_CONFIGS = (
    SolverConfig(h=0.02, project_every=4),
    SolverConfig(h=0.05),
    SolverConfig("rk4-doubling", h=0.1, tol=1e-11),  # rejects the first pass of most lines
)


@st.composite
def mixed_paths(draw, twochart):
    """A path of one of the kinds a batch must tell apart: a straight
    probe, a longer line, a juxtaposition of two lines (multi-segment), a
    line that leaves chart 0's box (into chart 1 on the two-chart sphere,
    off every chart elsewhere), and on the two-chart sphere a line on
    chart 1."""
    coord = st.floats(-1.5, 1.5)
    a = np.array([draw(coord), draw(coord)])
    kinds = ["probe"] * 8 + ["line", "line", "juxtaposed", "juxtaposed"]
    kind = draw(st.sampled_from(kinds + (["exit", "chart1"] if twochart else ["off"])))
    if kind == "probe":
        e = np.eye(2)[draw(st.integers(0, 1))]
        step = draw(st.sampled_from([1e-2, -1e-2, 1e-3, -1e-3]))
        return line_path(ChartPoint(0, a), a + step * e)
    b = a + np.array([draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4))])
    if kind == "line":
        return line_path(ChartPoint(0, a), b)
    if kind == "juxtaposed":
        return juxtapose(line_path(ChartPoint(0, a), b), line_path(ChartPoint(0, b), a))
    if kind in ("exit", "off"):  # off: leaves a single chart, so transport raises
        y = draw(st.floats(-0.5, 0.5))
        edge = 4.0 if twochart else 2.0
        return line_path(ChartPoint(0, [edge - 0.4, y]), [edge + 0.4, y])
    return line_path(ChartPoint(1, a + 2.0), b + 2.0)


def bits(res):
    """Everything transport_many must reproduce, as bytes and exact values."""
    return (
        res.g.matrix.tobytes(), res.g.group,
        res.start.chart_id, res.start.coords.tobytes(),
        res.end.chart_id, res.end.coords.tobytes(),
        res.step_count, type(res.est_error), res.est_error,
    )


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MANY_CONNECTIONS)), st.sampled_from(MANY_CONFIGS), st.data())
def test_transport_many_matches_transport_bit_for_bit(name, cfg, data):
    """transport_many(conn, paths, cfg)[i] is transport(conn, paths[i], cfg)
    bit for bit in g, start, end, step_count and est_error, on mixed
    batches; where a path fails, it raises what the first failure raises."""
    conn = MANY_CONNECTIONS[name]
    paths = data.draw(st.lists(mixed_paths(name == TWOCHART), min_size=1, max_size=10))
    outcomes = []
    for gamma in paths:
        try:
            outcomes.append(bits(transport(conn, gamma, cfg)))
        except HolonomeError as err:
            outcomes.append(err)
            break
    if isinstance(outcomes[-1], HolonomeError):
        with pytest.raises(type(outcomes[-1])) as info:
            transport_many(conn, paths, cfg)
        assert str(info.value) == str(outcomes[-1])
    else:
        assert [bits(res) for res in transport_many(conn, paths, cfg)] == outcomes


@st.composite
def driver_paths(draw, twochart):
    """A path of a kind mixed_paths draws, or a circular arc; on the
    two-chart sphere the arc may be a loop that crosses into chart 1 and
    back."""
    if draw(st.integers(0, 3)):
        return draw(mixed_paths(twochart))
    if twochart and draw(st.booleans()):
        centre = (draw(st.floats(2.8, 3.2)), draw(st.floats(-0.3, 0.3)))
        return arc_path(0, centre, draw(st.floats(1.5, 2.2)), np.pi, 3.0 * np.pi)
    centre = (draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    start = draw(st.floats(0.0, 6.0))
    return arc_path(0, centre, draw(st.floats(0.1, 0.9)), start, start + draw(st.floats(0.5, 6.3)))


def outcome(answer):
    """A transport's bits, or its failure's type and message."""
    if isinstance(answer, Exception):
        return type(answer), str(answer)
    return bits(answer)


@seed(20261021)
@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(MANY_CONNECTIONS)),
    st.sampled_from(MANY_CONFIGS),
    st.sampled_from([64, 1024, 4096]),
    st.data(),
)
def test_each_path_is_the_same_alone_shuffled_and_in_small_batches(name, cfg, cap, data):
    """The one driver gives each path the same bits, or the same failure,
    whether it runs alone (transport), in a shuffled batch (engine_oracle's
    many), or in batches cut small by a lower _BATCH_FLOATS, across
    probes, lines, juxtapositions, chart exits, arcs, two-chart crossings
    and rk4-doubling."""
    conn = MANY_CONNECTIONS[name]
    paths = data.draw(st.lists(driver_paths(name == TWOCHART), min_size=1, max_size=8))
    order = data.draw(st.permutations(range(len(paths))))
    alone = []
    for gamma in paths:
        try:
            alone.append(outcome(transport(conn, gamma, cfg)))
        except HolonomeError as err:
            alone.append(outcome(err))
    shuffled = engine_oracle(conn, cfg).many([paths[i] for i in order])
    assert [outcome(shuffled[order.index(i)]) for i in range(len(paths))] == alone
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["holonome.transport"], "_BATCH_FLOATS", cap)
        assert [outcome(answer) for answer in engine_oracle(conn, cfg).many(paths)] == alone


def test_transport_many_shares_passes_across_chart_exits_and_segments(monkeypatch):
    """Straight probes on one chart share one pass of the integrator.  A
    path that leaves its chart and a multi-segment loop stay in the one
    driver: the exit's piece before the boundary shares a pass with the
    loop's second segment, and its rest runs on chart 1.  No path goes
    through transport."""
    module = sys.modules["holonome.transport"]
    passes = []
    original_pass, original_transport = module._rk4_pass, module.transport

    def counting_pass(conn, pieces, *args, **kwargs):
        passes.append(list(pieces))
        return original_pass(conn, pieces, *args, **kwargs)

    def refused_transport(conn, gamma, cfg=None):
        raise AssertionError("a path went through transport")

    monkeypatch.setattr(module, "_rk4_pass", counting_pass)
    monkeypatch.setattr(module, "transport", refused_transport)
    conn = builtin_connection("levi-civita-s2-twochart")
    probes = [line_path(ChartPoint(0, [0.1 * i, 0.2]), [0.1 * i + 1e-3, 0.2]) for i in range(6)]
    exit_ = line_path(ChartPoint(0, [3.6, 0.1]), [4.4, 0.1])
    loop = juxtapose(probes[0], line_path(ChartPoint(0, [1e-3, 0.2]), [0.0, 0.2]))
    paths = probes[:3] + [exit_] + probes[3:] + [loop]
    cfg = SolverConfig(h=0.02, project_every=4)
    results = transport_many(conn, paths, cfg)
    assert [len(pieces) for pieces in passes] == [7, 6, 1, 2, 1]
    assert passes[0][3] is exit_.segments[0]  # leaves its chart; the rest pass again
    assert passes[2] == [loop.segments[0]]
    shared = passes[3]
    assert shared[1] is loop.segments[1]
    assert shared[0].chart_id == 0 and shared[0].t0 == 0.0 and 0.0 < shared[0].t1 < 1.0
    assert shared[0].point_at(0.0).tolist() == [3.6, 0.1]  # the exit's part before the boundary
    assert passes[4][0].chart_id == 1 and passes[4][0].t1 == 1.0
    assert results[3].end.chart_id == 1
    assert all(bits(r) == bits(original_transport(conn, g, cfg)) for r, g in zip(results, paths))


def test_transport_many_bounds_the_batch_size(monkeypatch):
    """A large group is split into passes of _batch_size pieces each, with
    unchanged results."""
    module = sys.modules["holonome.transport"]
    passes = []
    original_pass = module._rk4_pass

    def counting_pass(conn, pieces, *args):
        passes.append(len(pieces))
        return original_pass(conn, pieces, *args)

    monkeypatch.setattr(module, "_rk4_pass", counting_pass)
    conn = builtin_connection("constant-so3")
    cfg = SolverConfig(h=0.02)
    per_batch = module._batch_size(conn, 0, 50)
    count = 2 * per_batch + 3
    xs = np.linspace(-1.9, 1.9, count)
    paths = [line_path(ChartPoint(0, [x, 0.0]), [x, 0.01]) for x in xs]
    results = transport_many(conn, paths, cfg)
    assert passes == [per_batch, per_batch, 3]
    assert [bits(r) for r in results] == [bits(transport(conn, g, cfg)) for g in paths]


class UndefinedAbove(MatrixFunction):
    """A constant GL(2) coefficient that raises ValueError, not a
    HolonomeError, wherever it is asked for a point with x2 > cut: a
    user-supplied function that fails on part of its chart."""

    def __init__(self, cut):
        self.cut, self.dim, self.k = cut, 2, 2

    def value(self, X):
        if (X[:, 1] > self.cut).any():
            raise ValueError(f"undefined above x2 = {self.cut}")
        return np.broadcast_to([[0.2, -0.5], [0.5, 0.1]], (len(X), 2, 2)).copy()


def test_many_keeps_every_failure_in_its_place_and_transport_many_raises_the_first():
    """A path off its chart fails with a HolonomeError, a later path in the
    same group with a ValueError from its coefficient.  engine_oracle's
    many answers each with its own exception and the rest with their
    results; transport_many raises the first failure, the HolonomeError."""
    f = UndefinedAbove(1.0)
    conn = ConnectionForm(StructureGroup("GL", 2), (ChartSpec(0, 2, [-2, -2], [2, 2], (f, f)),))
    ok = [line_path(ChartPoint(0, [0.1 * i, 0.0]), [0.1 * i + 0.01, 0.0]) for i in range(3)]
    off = line_path(ChartPoint(0, [1.9, 0.0]), [2.01, 0.0])
    undefined = line_path(ChartPoint(0, [0.0, 1.5]), [0.01, 1.5])
    paths = [ok[0], off, ok[1], undefined, ok[2]]
    cfg = SolverConfig(h=1e-3)
    answers = engine_oracle(conn, cfg).many(paths)
    assert [type(a) for a in answers[1::2]] == [OutsideChartError, ValueError]
    assert [bits(a) for a in answers[::2]] == [bits(transport(conn, g, cfg)) for g in ok]
    with pytest.raises(OutsideChartError):
        transport_many(conn, paths, cfg)
    with pytest.raises(ValueError):
        transport_many(conn, paths[2:], cfg)


def test_engine_oracle_answers_one_path_and_many():
    conn = builtin_connection("abelian-area(1.5)")
    oracle = engine_oracle(conn, CFG)
    paths = [line_path(ChartPoint(0, [0.0, 0.0]), [0.3, 0.1]), arc_path(0, [0, 0], 0.5, 0.0, 1.0)]
    assert [bits(r) for r in oracle.many(paths)] == [bits(oracle(g)) for g in paths]


def test_lift_path_samples_share_one_read_only_grid():
    """Sample points are ChartPoints whose coordinates are read-only views
    of one copy of the accepted grid, equal to the path's points."""
    conn = builtin_connection("abelian-area(1.5)")
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0)
    samples = lift_path(conn, gamma, identity_element(SO2), SolverConfig(h=0.01)).samples
    pts = [pt for _, pt, _ in samples[1:]]
    assert all(type(pt) is ChartPoint and not pt.coords.flags.writeable for pt in pts)
    assert len({id(pt.coords.base) for pt in pts}) == 1
    for t, pt, _ in samples[1:]:
        assert np.allclose(pt.coords, path_point(gamma, t).coords, atol=1e-12)


# --- engine branches: SO(k >= 4) steps, failures in their places -----------------


def so_basis(k, i, j):
    """E_ij of so(k), 1-based: e_i e_j^T - e_j e_i^T."""
    e = np.zeros((k, k))
    e[i - 1, j - 1], e[j - 1, i - 1] = 1.0, -1.0
    return e


def test_so4_steps_take_the_skew_part_and_stay_on_the_group():
    """Constant so(4) coefficients run the general branch of _step_matrices
    on the skew part of M.  A_1 carries a symmetric part of 2.5e-10 per
    entry, which ConnectionForm's skew check (1e-9) lets through: along a
    straight line the transport is still exp(-(A_1 d_1 + A_2 d_2)) of the
    skew parts and lies on SO(4), both to 1e-12, the roundoff of its 1000
    steps.  Without the skew part both read about 5e-10."""
    so4 = StructureGroup("SO", 4)
    a1 = 0.7 * so_basis(4, 1, 2) + 0.2 * so_basis(4, 3, 4)
    a2 = 0.5 * so_basis(4, 1, 3) - 0.3 * so_basis(4, 2, 4)
    sym = np.zeros((4, 4))
    sym[0, 3] = sym[3, 0] = sym[1, 1] = 2.5e-10
    coeffs = (ExprMatrixFunction(a1 + sym, 2), ExprMatrixFunction(a2, 2))
    chart = ChartSpec(0, 2, [-2, -2], [2, 2], coeffs)
    conn = ConnectionForm(so4, (chart,))
    a, b = np.array([-0.4, 0.3]), np.array([0.8, -0.5])
    res = transport(conn, line_path(ChartPoint(0, a), b), SolverConfig(h=1e-3))
    d = b - a
    want = group_exp(AlgebraElement(-(a1 * d[0] + a2 * d[1]), so4)).matrix
    assert frobenius(res.g.matrix - want) <= 1e-12
    assert res.g.orthogonality_defect <= 1e-12


def test_many_puts_a_product_that_fails_the_group_check_in_its_place():
    """On GL(2) with A_1 = 20 I, a line of length 2 along x1 transports by
    e^-40 I, det e^-80, which fails the stacked check of the finished
    products; the products are then checked one by one, so many answers
    GroupInvariantError for that line and, for a line along x2 beside it,
    transport's own result bit for bit."""
    gl2 = StructureGroup("GL", 2)
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ExprMatrixFunction(20.0 * np.eye(2), 2), ExprMatrixFunction(np.zeros((2, 2)), 2)))
    conn = ConnectionForm(gl2, (chart,))
    along_x1 = line_path(ChartPoint(0, [-1.0, 0.2]), [1.0, 0.2])
    along_x2 = line_path(ChartPoint(0, [0.3, -1.0]), [0.3, 1.0])
    bad, good = engine_oracle(conn, CFG).many([along_x1, along_x2])
    assert isinstance(bad, GroupInvariantError) and "numerically singular" in str(bad)
    want = transport(conn, along_x2, CFG)
    assert good.g.matrix.tobytes() == want.g.matrix.tobytes()
    for got, exp in ((good.start, want.start), (good.end, want.end)):
        assert (got.chart_id, got.coords.tobytes()) == (exp.chart_id, exp.coords.tobytes())
    assert (good.step_count, good.est_error) == (want.step_count, want.est_error)


def test_a_jump_between_charts_raises_endpoint_mismatch():
    """A chart-1 segment that starts 0.1 away from the image of the chart-0
    segment before it fails the junction test of _gauge_between."""
    conn = builtin_connection("levi-civita-s2-twochart")
    image = conn.map_point(ChartPoint(0, [2.0, 0.5]), 1).coords + np.array([0.1, 0.0])
    first = Segment(0, (lit(1.0) + var(0), lit(0.5) + lit(0.0) * var(0)), 0.0, 0.5)
    second = Segment(1, (lit(image[0]) + lit(0.2) * var(0), lit(image[1]) + lit(0.0) * var(0)), 0.5, 1.0)
    with pytest.raises(EndpointMismatchError, match=r"path jumps by 1\.000e-01"):
        transport(conn, PathSpec((first, second)), CFG)


def test_a_segment_that_changes_charts_too_often_raises():
    """x = (2.05 - 2 cos 10 pi u, 0) on levi-civita-s2-twochart leaves
    chart 0 past x1 = 4 and chart 1 near x1 = 0.05, about ten chart changes
    in one segment: past the cap, OutsideChartError."""
    conn = builtin_connection("levi-civita-s2-twochart")
    u = var(0)
    gamma = path_from_exprs(0, [lit(2.05) - lit(2.0) * ecos(lit(10.0 * np.pi) * u), lit(0.0) * u])
    with pytest.raises(OutsideChartError, match="too many times"):
        transport(conn, gamma, SolverConfig(h=1e-2))


def test_doubling_stops_at_its_smallest_step():
    """A segment of global width 6e-7 that moves 5.5 in chart coordinates
    needs steps far below 1e-7 to be small against its field, so
    rk4-doubling raises StepUnderflowError at the step floor.  The
    constant segments around it take no steps that matter."""
    conn = builtin_connection("levi-civita-s2-stereo")
    jump = (0.5, 0.5 + 6e-7)
    gamma = path_from_strings(
        0, [["-2.75", "1"], ["-2.75 + 5.5*x1", "1"], ["2.75", "1"]],
        [(0.0, jump[0]), jump, (jump[1], 1.0)],
    )
    with pytest.raises(StepUnderflowError, match=r"with h >= 1e-07"):
        transport(conn, gamma, SolverConfig("rk4-doubling", h=1e-2, tol=1e-300))


def _g_only(conn):
    """An oracle whose answers carry only the group element g."""
    return lambda gamma: SimpleNamespace(g=transport(conn, gamma, CFG).g)


def test_a_cross_chart_juxtaposition_passes_the_axiom_check():
    """A chart-0 line juxtaposed with a chart-1 line from its image, in a
    suite whose atlas is the connection: the transport of the whole path
    matches P(right) g(x)^-1 P(left), the junction gauge between them, to
    roundoff, also for an oracle that answers only g, whose junction runs
    between the declared endpoints.  Without the gauge the deviation is of
    order 1."""
    conn = builtin_connection("levi-civita-s2-twochart")
    left = line_path(ChartPoint(0, [1.0, 0.5]), [2.0, 0.5])
    image = conn.map_point(ChartPoint(0, [2.0, 0.5]), 1)
    right = line_path(image, image.coords + np.array([0.3, -0.2]))
    suite = AxiomSuite((), (), ((left, right),), atlas=conn)
    report = verify_axioms(engine_oracle(conn, CFG), suite)
    assert report.passed and report.juxtapose_dev <= 1e-12
    assert verify_axioms(_g_only(conn), suite).as_dict() == report.as_dict()
    whole = transport(conn, juxtapose(left, right, conn), CFG).g.matrix
    plain = transport(conn, right, CFG).g.matrix @ transport(conn, left, CFG).g.matrix
    assert frobenius(whole - plain) > 0.1


def test_an_oracle_that_answers_only_g_is_checked_on_a_same_chart_atlas_suite():
    """On a suite with an atlas whose juxtapositions stay on one chart, an
    oracle that answers only g reads the engine's report bit for bit, as
    it does without the atlas."""
    conn = builtin_connection("levi-civita-s2-stereo")
    suite = standard_axiom_suite(conn)
    with_atlas = dataclasses.replace(suite, atlas=conn)
    report = verify_axioms(_g_only(conn), with_atlas).as_dict()
    assert report == verify_axioms(engine_oracle(conn, CFG), with_atlas).as_dict()
    assert report == verify_axioms(_g_only(conn), suite).as_dict()
