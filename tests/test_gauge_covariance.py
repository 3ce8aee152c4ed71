"""Gauge covariance over random gauges.

Random SO(2) gauges exp(p(x) J) and SO(3) gauges Rz(p1) Ry(p2) Rx(p3), each
angle a quadratic polynomial of the coordinates plus a sine and a cosine
term, are applied to abelian-area, constant-so3 and chart 1 of the
two-chart sphere.  The curvature conjugates, g then g^-1 gives back the
coefficients, and across the two charts the gauge law holds and the
holonomy of a loop based on the gauged chart conjugates.  On the gauged
charts, P(gamma^-1) P(gamma) = I, and the flatness verdict reads FLAT on a
gauged zero connection and on a gauge-trivial A = dp J built from p (and
A = dp E3 on SO(3), p a cubic), and CURVED on the gauged curved ones.  On
a three-chart atlas, a gauge on one chart keeps the transitions that do
not touch it.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    Transition,
    _so2_chart,
    builtin_connection,
    check_transition_compatibility,
    curvature_at,
    gauge_transform,
)
from holonome.exprs import cos, diff, lit, sin, var
from holonome.groups import StructureGroup, frobenius, so3_basis
from holonome.holonomy import flatness_verdict, holonomy
from holonome.paths import ChartPoint, PathSpec, Segment, arc_path, line_path
from holonome.transport import SolverConfig, inverse_path_check, transport_many

CFG = SolverConfig(h=1e-3)
# (builtin, chart the gauge acts on)
CASES = [("abelian-area(1.5)", 0), ("constant-so3", 0), ("levi-civita-s2-twochart", 1)]
_CONNECTIONS = {name: builtin_connection(name) for name, _ in CASES}


@st.composite
def angles(draw, scale=0.5):
    """p(x) = c0 + c1 x1 + c2 x2 + c3 x1 x2 + c4 x1^2 + c5 x2^2
    + a sin(w0 x1 + w1 x2) + b cos(w2 x1 + w3 x2), coefficients of size
    up to scale and frequencies up to 1."""
    x1, x2 = var(0, 2), var(1, 2)
    c = [lit(v) for v in draw(st.lists(st.floats(-scale, scale), min_size=8, max_size=8))]
    w = [lit(v) for v in draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))]
    poly = c[0] + c[1] * x1 + c[2] * x2 + c[3] * x1 * x2 + c[4] * x1**2 + c[5] * x2**2
    return poly + c[6] * sin(w[0] * x1 + w[1] * x2) + c[7] * cos(w[2] * x1 + w[3] * x2)


def _rotation(p, i, j, k):
    """Entries of the rotation by angle p in the (i, j) coordinate plane of
    R^k: exp(p J) for the generator with J[i, j] = -1 and J[j, i] = 1."""
    m = [[lit(float(r == c)) for c in range(k)] for r in range(k)]
    m[i][i] = m[j][j] = cos(p)
    m[i][j], m[j][i] = -sin(p), sin(p)
    return m


def _matmul(a, b):
    """Product of two expression matrices, leaving out literal-zero terms."""

    def zero(e):
        return e.ast == ("num", 0.0)

    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            terms = [x * y for x, y in zip(row, col) if not (zero(x) or zero(y))]
            out[-1].append(sum(terms[1:], terms[0]) if terms else lit(0.0))
    return out


@st.composite
def gauges(draw, k, scale=0.5):
    """Random SO(k) gauge entries, k = 2 or 3."""
    if k == 2:
        return _rotation(draw(angles(scale)), 0, 1, 2)
    rz, ry, rx = (_rotation(draw(angles(scale)), i, j, 3) for i, j in ((0, 1), (2, 0), (1, 2)))
    return _matmul(_matmul(rz, ry), rx)


@st.composite
def gauged_cases(draw, scale=0.5):
    name, chart_id = draw(st.sampled_from(CASES))
    conn = _CONNECTIONS[name]
    return conn, chart_id, draw(gauges(conn.group.k, scale))


def _transpose(entries):
    return [list(col) for col in zip(*entries)]


@seed(20261027)
@settings(max_examples=12, deadline=None)
@given(gauged_cases(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_curvature_conjugates_under_random_gauges(case, fractions):
    """F' = g^-1 F g at four random points of the gauged chart."""
    conn, chart_id, entries = case
    gauged = gauge_transform(conn, entries, chart_id=chart_id)
    chart = conn.chart(chart_id)
    g = ExprMatrixFunction(entries, 2)
    for f in np.reshape(fractions, (4, 2)):
        x = chart.lo + f * (chart.hi - chart.lo)
        gx = g.at(x)
        f_before = curvature_at(conn, ChartPoint(chart_id, x)).matrix(0, 1)
        f_after = curvature_at(gauged, ChartPoint(chart_id, x)).matrix(0, 1)
        assert frobenius(f_after - gx.T @ f_before @ gx) <= 1e-12


@seed(20261028)
@settings(max_examples=10, deadline=None)
@given(gauged_cases(), st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20))
def test_gauge_then_inverse_gives_back_the_coefficients(case, fractions):
    """gauge_transform by g, then by g^-1 = g^T, gives back every
    coefficient value at ten random points of the chart."""
    conn, chart_id, entries = case
    back = gauge_transform(
        gauge_transform(conn, entries, chart_id=chart_id), _transpose(entries), chart_id=chart_id
    )
    chart = conn.chart(chart_id)
    X = chart.lo + np.reshape(fractions, (10, 2)) * (chart.hi - chart.lo)
    for before, after in zip(chart.coefficients, back.chart(chart_id).coefficients):
        assert np.max(np.abs(after.value(X) - before.value(X))) <= 1e-12


def _two_chart_loop(r0):
    """A loop based at (r0, 0) on chart 1 of the two-chart sphere: half the
    circle of radius r0 on chart 1, then the other half on chart 0, where
    it is the circle of radius 1 / r0."""
    u = var(0)
    seg1 = Segment(1, (lit(r0) * cos(lit(np.pi) * u), lit(r0) * sin(lit(np.pi) * u)), 0.0, 0.5)
    ang = lit(np.pi) + lit(np.pi) * u
    seg0 = Segment(0, (cos(ang) / lit(r0), -sin(ang) / lit(r0)), 0.5, 1.0)
    return PathSpec((seg1, seg0))


@seed(20261029)
@settings(max_examples=8, deadline=None)
@given(gauges(2, scale=0.3), st.floats(0.8, 1.5))
def test_two_chart_gauge_keeps_the_law_and_conjugates_the_holonomy(entries, r0):
    """Chart 1 of the two-chart sphere gauged by a random g: the transition
    gauges still satisfy the gauge law on the overlaps, and a loop based at
    x0 on chart 1 that crosses into chart 0 and back has holonomy
    g(x0)^-1 H g(x0)."""
    conn = _CONNECTIONS["levi-civita-s2-twochart"]
    gauged = gauge_transform(conn, entries, chart_id=1)
    check_transition_compatibility(gauged)
    loop = _two_chart_loop(r0)
    g0 = ExprMatrixFunction(entries, 2).at(np.array([r0, 0.0]))
    h_before = holonomy(conn, loop, CFG).g.matrix
    h_after = holonomy(gauged, loop, CFG).g.matrix
    assert frobenius(h_after - g0.T @ h_before @ g0) <= 1e-8


@seed(20261030)
@settings(max_examples=8, deadline=None)
@given(
    gauged_cases(),
    st.lists(st.floats(0.3, 0.7), min_size=2, max_size=2),
    st.floats(0.05, 0.25),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.5, 2.0 * np.pi),
)
def test_inverse_path_cancels_on_random_gauged_arcs(case, at, size, theta0, sweep):
    """P(gamma^-1) P(gamma) = I within 1e-9 for a random arc inside the
    gauged chart: centre in the middle of the box, radius up to a quarter
    of its width."""
    conn, chart_id, entries = case
    gauged = gauge_transform(conn, entries, chart_id=chart_id)
    chart = conn.chart(chart_id)
    width = chart.hi - chart.lo
    arc = arc_path(chart_id, chart.lo + np.array(at) * width, size * min(width),
                   theta0, theta0 + sweep)
    assert inverse_path_check(gauged, arc, CFG) <= 1e-9


def _zero_connection(k):
    """The zero connection on [-2, 2]^2 with structure group SO(k)."""
    if k == 2:
        return builtin_connection("flat-so2")
    zero = ExprMatrixFunction(np.zeros((k, k)), 2)
    chart = ChartSpec(0, 2, [-2.0, -2.0], [2.0, 2.0], (zero, zero))
    return ConnectionForm(StructureGroup("SO", k), (chart,))


@seed(20261031)
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(st.just(k), gauges(k))))
def test_gauged_zero_connection_is_flat(case):
    """A zero SO(2) or SO(3) connection gauged by a random g is pure gauge:
    the flatness verdict reads FLAT."""
    k, entries = case
    verdict = flatness_verdict(gauge_transform(_zero_connection(k), entries))
    assert verdict.verdict == "FLAT", verdict.as_dict()


@seed(20261101)
@settings(max_examples=8, deadline=None)
@given(gauged_cases())
def test_gauged_curved_connection_is_curved(case):
    """Gauging a curved connection by a random g keeps its flatness
    verdict CURVED, never INCONSISTENT."""
    conn, chart_id, entries = case
    verdict = flatness_verdict(gauge_transform(conn, entries, chart_id=chart_id))
    assert verdict.verdict == "CURVED", verdict.as_dict()


@seed(20261102)
@settings(max_examples=20, deadline=None)
@given(angles())
def test_gauge_trivial_so2_connection_is_flat(p):
    """A = dp J, each coefficient the exact derivative of a random angle p,
    is flat, and its holonomies are products of step angles that cancel
    around every loop: the flatness verdict reads FLAT, never
    INCONSISTENT."""
    chart = _so2_chart(0, [-2.0, -2.0], [2.0, 2.0], diff(p, 0), diff(p, 1))
    verdict = flatness_verdict(ConnectionForm(StructureGroup("SO", 2), (chart,)))
    assert verdict.verdict == "FLAT", verdict.as_dict()


@st.composite
def cubics(draw, scale=0.3):
    """p(x), a sum of the nine monomials x1^i x2^j with 1 <= i + j <= 3,
    coefficients of size up to scale."""
    x1, x2 = var(0, 2), var(1, 2)
    monomials = [x1, x2, x1 * x2, x1**2, x2**2, x1**2 * x2, x1 * x2**2, x1**3, x2**3]
    cs = draw(st.lists(st.floats(-scale, scale), min_size=9, max_size=9))
    return sum((lit(c) * m for c, m in zip(cs[1:], monomials[1:])), lit(cs[0]) * monomials[0])


@seed(20261122)
@settings(max_examples=10, deadline=None)
@given(cubics())
def test_gauge_trivial_so3_connection_is_flat(p):
    """A = dp E3 on SO(3), each coefficient the exact derivative of a
    random cubic p, written entry by entry without gauge_transform, is
    flat: the flatness verdict, whose passes read the field's three skew
    rows, reads FLAT, never INCONSISTENT."""
    e3 = so3_basis()[2]
    coeffs = tuple(
        ExprMatrixFunction([[lit(float(e)) * diff(p, mu) if e else 0.0 for e in row] for row in e3], 2)
        for mu in range(2)
    )
    chart = ChartSpec(0, 2, [-2.0, -2.0], [2.0, 2.0], coeffs)
    verdict = flatness_verdict(ConnectionForm(StructureGroup("SO", 3), (chart,)))
    assert verdict.verdict == "FLAT", verdict.as_dict()


def _three_chart_atlas():
    """abelian-area(1.5)'s coefficients on three charts that overlap along
    x1, [-2, 0], [-0.5, 1] and [0.5, 2] by [-2, 2], joined 0 <-> 1 and
    1 <-> 2 by the identity map and gauge."""
    x1, x2 = var(0, 2), var(1, 2)
    a1, a2 = lit(-0.75) * x2, lit(0.75) * x1
    boxes = ((-2.0, 0.0), (-0.5, 1.0), (0.5, 2.0))
    charts = tuple(_so2_chart(i, [lo, -2.0], [hi, 2.0], a1, a2) for i, (lo, hi) in enumerate(boxes))
    same = ExprMatrixFunction(np.eye(2), 2)
    transitions = tuple(Transition(a, b, (x1, x2), same) for a, b in ((0, 1), (1, 0), (1, 2), (2, 1)))
    return ConnectionForm(StructureGroup("SO", 2), charts, transitions)


@seed(20261123)
@settings(max_examples=6, deadline=None)
@given(gauges(2, scale=0.3))
def test_gauge_on_one_of_three_charts_keeps_the_transitions_off_it(entries):
    """gauge_transform by a random g on chart 2 of a three-chart atlas
    keeps the two transitions between charts 0 and 1, which do not touch
    it, as the same objects, and the gauge law holds on every overlap.  A
    line from chart 0 into chart 1 transports as before, bit for bit; one
    that goes on into chart 2 ends in its new trivialization, g(x)^-1 P
    at its end point x."""
    conn = _three_chart_atlas()
    gauged = gauge_transform(conn, entries, chart_id=2)
    kept = [tr for tr in gauged.transitions if 2 not in (tr.from_chart, tr.to_chart)]
    assert len(kept) == 2 and all(a is b for a, b in zip(kept, conn.transitions[:2]))
    check_transition_compatibility(gauged)
    start = ChartPoint(0, [-1.5, 0.3])
    paths = [line_path(start, [0.8, -0.2]), line_path(start, [1.7, -0.2])]
    (short, across), (short_after, across_after) = (transport_many(c, paths, CFG) for c in (conn, gauged))
    assert short_after.end.chart_id == 1
    assert np.array_equal(short_after.g.matrix, short.g.matrix)
    assert across.end.chart_id == across_after.end.chart_id == 2
    g = ExprMatrixFunction(entries, 2).at(across_after.end.coords)
    assert frobenius(across_after.g.matrix - g.T @ across.g.matrix) <= 1e-9
