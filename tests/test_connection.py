"""Connection forms: evaluation, curvature, gauge transformation, builtins."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonome import exprs
from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    MatrixFunction,
    Transition,
    _overlap_samples,
    builtin_connection,
    curvature_at,
    eval_connection,
    gauge_transform,
    is_flat,
)
from holonome.errors import (
    DimensionError,
    OutsideChartError,
    SingularGaugeError,
    ValidationError,
)
from holonome.exprs import cos, lit, parse, sin, sqrt, var
from holonome.groups import StructureGroup, frobenius, so2_generator
from holonome.paths import ChartPoint, TangentVector, box_grid

from oracles import central_gradient

J = so2_generator()
SO2 = StructureGroup("SO", 2)
BUILTINS = ["flat-so2", "abelian-area(1.5)", "constant-so3", "levi-civita-s2-stereo",
            "levi-civita-s2-twochart", "pure-gauge"]


def point(x, y, chart=0):
    return ChartPoint(chart, [x, y])


def tangent(pt, vx, vy):
    return TangentVector(pt, [vx, vy])


@pytest.fixture(scope="module")
def abelian():
    return builtin_connection("abelian-area(1.5)")


def test_eval_connection_zero(abelian):
    conn = builtin_connection("flat-so2")
    a = eval_connection(conn, point(0.3, 0.1), tangent(point(0.3, 0.1), 1.0, -2.0))
    assert frobenius(a.matrix) == 0.0


def test_eval_connection_direct_contraction():
    lam = 0.7
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ExprMatrixFunction(lam * J, 2), ExprMatrixFunction(0 * J, 2)))
    conn = ConnectionForm(SO2, (chart,))
    a = eval_connection(conn, point(0.0, 0.0), tangent(point(0.0, 0.0), 1.0, 0.0))
    assert frobenius(a.matrix - lam * J) < 1e-15


def test_eval_connection_linearity(abelian):
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = point(*rng.uniform(-1.5, 1.5, 2))
        v = rng.normal(size=2)
        w = rng.normal(size=2)
        a, b = rng.normal(size=2)
        lhs = eval_connection(abelian, x, TangentVector(x, a * v + b * w)).matrix
        rhs = (
            a * eval_connection(abelian, x, TangentVector(x, v)).matrix
            + b * eval_connection(abelian, x, TangentVector(x, w)).matrix
        )
        assert frobenius(lhs - rhs) < 1e-12


def test_eval_connection_outside_chart(abelian):
    far = point(5.0, 0.0)
    with pytest.raises(OutsideChartError):
        eval_connection(abelian, far, tangent(far, 1.0, 0.0))
    with pytest.raises(ValidationError, match="not based at the given point"):
        eval_connection(abelian, point(0.1, 0.0), tangent(point(0.2, 0.0), 1.0, 0.0))


@pytest.mark.parametrize("name", BUILTINS + ["opaque"])
def test_eval_connection_is_the_field_at_one_point(name):
    """eval_connection runs the chart's field at one point: its matrix is
    the per-coefficient sum A_1(x) v^1 + ... + A_n(x) v^n, skew-cleaned on
    SO, equal entry for entry (a zero may carry the other sign) at seeded
    points and velocities, for expression charts and for a chart whose
    first coefficient is an opaque MatrixFunction."""
    if name == "opaque":
        base = builtin_connection("abelian-area(1.5)")
        chart = base.charts[0]
        coeffs = (_Opaque(chart.coefficients[0]), chart.coefficients[1])
        conn = ConnectionForm(base.group, (ChartSpec(0, 2, chart.lo, chart.hi, coeffs),))
    else:
        conn = builtin_connection(name)
    rng = np.random.default_rng(47)
    for chart in conn.charts:
        for _ in range(10):
            x = ChartPoint(chart.chart_id, rng.uniform(-1.5, 1.5, 2))
            v = rng.normal(size=2)
            want = sum(f.value(x.coords[None])[0] * v[mu] for mu, f in enumerate(chart.coefficients))
            if conn.group.orthogonal:
                want = 0.5 * (want - want.T)
            got = eval_connection(conn, x, TangentVector(x, v))
            assert got.group == conn.group and np.array_equal(got.matrix, want)


def test_curvature_zero_connection():
    conn = builtin_connection("flat-so2")
    f = curvature_at(conn, point(0.7, -0.7))
    assert f.max_norm() == 0.0


def test_curvature_abelian_area_constant(abelian):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = point(*rng.uniform(-1.8, 1.8, 2))
        f = curvature_at(abelian, x)
        assert frobenius(f.matrix(0, 1) - 1.5 * J) < 1e-12
        assert np.array_equal(f.matrix(1, 0), -f.matrix(0, 1))


def test_curvature_cross_check_with_finite_differences(abelian):
    """F_12 = d1 A_2 - d2 A_1 + [A_1, A_2], derivatives by central fd."""
    chart = abelian.charts[0]
    x = np.array([0.45, -0.3])

    def coeff(mu, y):
        return chart.coefficients[mu].value(np.asarray(y)[None, :])[0]

    d1A2 = np.zeros((2, 2))
    d2A1 = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            d1A2[i, j] = central_gradient(lambda y: coeff(1, y)[i, j], x)[0]
            d2A1[i, j] = central_gradient(lambda y: coeff(0, y)[i, j], x)[1]
    a1, a2 = coeff(0, x), coeff(1, x)
    fd = d1A2 - d2A1 + a1 @ a2 - a2 @ a1
    f = curvature_at(abelian, point(*x))
    assert frobenius(f.matrix(0, 1) - fd) < 1e-9


def test_curvature_pure_gauge_vanishes():
    conn = builtin_connection("pure-gauge")
    rng = np.random.default_rng(77)
    for _ in range(5):
        f = curvature_at(conn, point(*rng.uniform(-1.5, 1.5, 2)))
        assert f.max_norm() <= 1e-9


def test_antisymmetry_recomputed_with_swapped_order(abelian):
    """Recompute F_21 directly from the definition with the roles of the
    indices swapped; it must equal -F_12 within 1e-9."""
    chart = abelian.charts[0]
    x = np.array([[0.2, 0.9]])
    vals, grads = [], []
    for mu in range(2):
        v, g = chart.coefficients[mu].value_and_grad(x)
        vals.append(v[0])
        grads.append(g[0])
    f12 = grads[1][0] - grads[0][1] + vals[0] @ vals[1] - vals[1] @ vals[0]
    f21 = grads[0][1] - grads[1][0] + vals[1] @ vals[0] - vals[0] @ vals[1]
    assert frobenius(f21 + f12) <= 1e-9
    got = curvature_at(abelian, point(0.2, 0.9))
    assert frobenius(got.matrix(0, 1) - f12) <= 1e-9


def test_gauge_transform_identity_is_noop(abelian):
    gauged = gauge_transform(abelian, [[lit(1.0), lit(0.0)], [lit(0.0), lit(1.0)]])
    X = np.random.default_rng(3).uniform(-1.5, 1.5, (20, 2))
    for mu in range(2):
        before = abelian.charts[0].coefficients[mu].value(X)
        after = gauged.charts[0].coefficients[mu].value(X)
        assert np.max(np.abs(before - after)) < 1e-12


def _rotation_gauge():
    w = var(0, 2) * var(1, 2)
    return [[cos(w), lit(-1.0) * sin(w)], [sin(w), cos(w)]]


def test_gauge_transform_conjugates_curvature(abelian):
    gauged = gauge_transform(abelian, _rotation_gauge())
    rng = np.random.default_rng(13)
    gauge_fn = ExprMatrixFunction(_rotation_gauge(), 2)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 2)
        g = gauge_fn.at(x)
        f_before = curvature_at(abelian, point(*x)).matrix(0, 1)
        f_after = curvature_at(gauged, point(*x)).matrix(0, 1)
        assert frobenius(f_after - np.linalg.inv(g) @ f_before @ g) < 1e-8


def test_gauge_transform_roundtrip(abelian):
    w = var(0, 2) * var(1, 2)
    forward = _rotation_gauge()
    inverse = [[cos(w), sin(w)], [lit(-1.0) * sin(w), cos(w)]]
    back = gauge_transform(gauge_transform(abelian, forward), inverse)
    X = np.random.default_rng(4).uniform(-1.5, 1.5, (20, 2))
    for mu in range(2):
        before = abelian.charts[0].coefficients[mu].value(X)
        after = back.charts[0].coefficients[mu].value(X)
        assert np.max(np.abs(before - after)) < 1e-9


def test_gauge_transform_rejects_singular_gauge(abelian):
    with pytest.raises(SingularGaugeError):
        gauge_transform(abelian, [[lit(1e-6), lit(0.0)], [lit(0.0), lit(1e-6)]])


def test_is_flat_reports():
    rep = is_flat(builtin_connection("flat-so2"), samples=5, tol=1e-6)
    assert rep.flat and rep.max_norm == 0.0

    rep = is_flat(builtin_connection("abelian-area(1.5)"), samples=5, tol=1e-6)
    assert not rep.flat
    assert rep.max_norm == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-9)

    rep = is_flat(builtin_connection("pure-gauge"), samples=5, tol=1e-8)
    assert rep.flat


def test_builtin_flat_so2_coefficients_vanish():
    conn = builtin_connection("flat-so2")
    X = np.random.default_rng(1).uniform(-2.0, 2.0, (50, 2))
    for mu in range(2):
        assert np.max(np.abs(conn.charts[0].coefficients[mu].value(X))) == 0.0


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_coefficients_respect_algebra(name):
    """Skew-symmetry of every coefficient at 100 random domain points."""
    conn = builtin_connection(name)
    rng = np.random.default_rng(55)
    for chart in conn.charts:
        X = rng.uniform(chart.lo, chart.hi, (100, chart.dim))
        for mu in range(chart.dim):
            vals = chart.coefficients[mu].value(X)
            assert np.max(np.abs(vals + np.transpose(vals, (0, 2, 1)))) < 1e-12


def test_builtin_twochart_passes_overlap_check():
    conn = builtin_connection("levi-civita-s2-twochart")
    assert len(conn.charts) == 2
    assert len(conn.transitions) == 2
    mapped = conn.map_point(ChartPoint(0, [2.0, 0.0]), 1)
    assert np.allclose(mapped.coords, [0.5, 0.0])


def test_unknown_builtin():
    with pytest.raises(ValidationError):
        builtin_connection("no-such-connection")
    with pytest.raises(ValidationError):
        builtin_connection("abelian-area(x)")


def test_incompatible_transition_rejected():
    """A transition whose gauge ignores the gauge law must be refused."""
    a1, a2 = lit(0.0), lit(0.0)
    x1, x2 = var(0, 2), var(1, 2)
    r2 = x1**2 + x2**2
    chart0 = ChartSpec(0, 2, [-4, -4], [4, 4],
                       (ExprMatrixFunction([[lit(0.0), lit(0.0)], [lit(0.0), lit(0.0)]], 2),) * 2)
    chart1 = ChartSpec(1, 2, [-4, -4], [4, 4],
                       (ExprMatrixFunction([[lit(0.0), x1], [lit(-1.0) * x1, lit(0.0)]], 2),) * 2)
    gauge = ExprMatrixFunction([[lit(1.0), lit(0.0)], [lit(0.0), lit(1.0)]], 2)
    tr = Transition(0, 1, (x1 / r2, lit(-1.0) * x2 / r2), gauge)
    with pytest.raises(ValidationError):
        ConnectionForm(SO2, (chart0, chart1), (tr,))


def test_transition_map_of_wrong_dimension_is_a_dimension_error():
    """A coordinate map over three coordinates on two-dimensional charts is
    reported as such, not as a failed search for overlap samples."""
    twochart = builtin_connection("levi-civita-s2-twochart")
    tr = Transition(0, 1, (var(2, 3), var(0, 3)), twochart.transitions[0].gauge)
    with pytest.raises(DimensionError):
        ConnectionForm(SO2, twochart.charts, (tr,))


@pytest.mark.parametrize("components", [1, 3])
def test_transition_map_needs_one_component_per_chart_coordinate(components):
    """A map with one or three components between two-dimensional charts
    raises ValidationError naming the transition, where three escaped as a
    bare numpy broadcasting error and one as a DimensionError about an
    expression."""
    twochart = builtin_connection("levi-civita-s2-twochart")
    coord_map = (twochart.transitions[0].coord_map * 2)[:components]
    tr = Transition(0, 1, coord_map, twochart.transitions[0].gauge)
    with pytest.raises(ValidationError, match="transition 0->1") as err:
        ConnectionForm(SO2, twochart.charts, (tr,))
    assert not isinstance(err.value, DimensionError)


def test_overlap_samples_skip_points_outside_the_map_domain():
    """sqrt(x1) is undefined on half of chart 0: those candidates are
    dropped, and the rest still supply a full set of overlap samples."""
    zero = ExprMatrixFunction(np.zeros((2, 2)), 2)
    chart0 = ChartSpec(0, 2, [-2, -2], [2, 2], (zero, zero))
    chart1 = ChartSpec(1, 2, [-2, -2], [2, 2], (zero, zero))
    tr = Transition(0, 1, (sqrt(var(0, 2)), var(1, 2)), ExprMatrixFunction(np.eye(2), 2))
    conn = ConnectionForm(SO2, (chart0, chart1), (tr,))
    X, Y = _overlap_samples(conn, tr)
    assert len(X) == 20 and np.all(X[:, 0] > 0.0)
    assert np.array_equal(Y, np.stack([np.sqrt(X[:, 0]), X[:, 1]], axis=1))


@pytest.mark.parametrize("name", BUILTINS)
def test_is_flat_matches_pointwise_curvature(name):
    """is_flat evaluates the curvature of a whole grid at once; it must
    report the maximum of curvature_at over the same grid, at the first
    point that attains it."""
    conn = builtin_connection(name)
    rep = is_flat(conn)
    worst, worst_pt = 0.0, None
    for chart in conn.charts:
        for pt in box_grid(chart.chart_id, chart.lo, chart.hi, rep.samples):
            norm = curvature_at(conn, pt).max_norm()
            if norm > worst or worst_pt is None:
                worst, worst_pt = norm, pt
    assert abs(rep.max_norm - worst) <= 1e-14
    assert rep.worst_point.chart_id == worst_pt.chart_id
    assert np.max(np.abs(rep.worst_point.coords - worst_pt.coords)) <= 1e-14


def _builtin_expressions():
    """Every expression the builtins are built from: the entries of each
    expression-backed coefficient (and of the gauge behind pure-gauge's),
    each transition map and each transition gauge."""
    out = []

    def entries(f):
        if isinstance(f, ExprMatrixFunction):
            out.extend(e for row in f.entries for e in row)

    for name in BUILTINS:
        conn = builtin_connection(name)
        for chart in conn.charts:
            for f in chart.coefficients:
                entries(f)
                entries(getattr(f, "gauge", None))
        for tr in conn.transitions:
            out.extend(tr.coord_map)
            entries(tr.gauge)
    return tuple(out)


_BUILTIN_EXPRS = _builtin_expressions()
_points = st.lists(
    st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)), min_size=1, max_size=6
)


@settings(max_examples=25, deadline=None)
@given(_points)
def test_batched_evaluation_matches_pointwise(points):
    """Column i of evaluate_many / evaluate_dual_many is es[i] evaluated
    point by point, exactly."""
    X = np.array(points)
    vals = exprs.evaluate_many(_BUILTIN_EXPRS, X)
    dvals, grads = exprs.evaluate_dual_many(_BUILTIN_EXPRS, X)
    assert vals.shape == dvals.shape == (len(X), len(_BUILTIN_EXPRS))
    assert grads.shape == (len(X), len(_BUILTIN_EXPRS), 2)
    for r, x in enumerate(X):
        for i, e in enumerate(_BUILTIN_EXPRS):
            d = exprs.evaluate_dual(e, x)
            assert vals[r, i] == exprs.evaluate(e, x) == d.value == dvals[r, i]
            assert np.array_equal(grads[r, i], d.deriv)


def test_one_dimensional_chart_is_flat():
    """A one-dimensional chart has no curvature components: max_norm is 0
    and is_flat reports flat, where both used to raise ValueError."""
    zero = ExprMatrixFunction(np.zeros((2, 2)), 1)
    conn = ConnectionForm(StructureGroup("SO", 2), (ChartSpec(0, 1, [-1], [1], (zero,)),))
    assert curvature_at(conn, ChartPoint(0, [0.3])).max_norm() == 0.0
    report = is_flat(conn)
    assert report.flat and report.max_norm == 0.0


def test_one_dimensional_curvature_matrix_raises_typed_error():
    """F[0][0] on a one-dimensional chart has no stored component to take
    its size from; it raises ValidationError, not a bare StopIteration."""
    zero = ExprMatrixFunction(np.zeros((2, 2)), 1)
    conn = ConnectionForm(SO2, (ChartSpec(0, 1, [-1], [1], (zero,)),))
    with pytest.raises(ValidationError):
        curvature_at(conn, ChartPoint(0, [0.3])).matrix(0, 0)


def test_stereo_field_evaluates_its_shared_denominator_once(monkeypatch):
    """The stereographic chart's field program squares x1 and x2, and so
    forms 1 + x1^2 + x2^2, once per run, and divides by it once per
    coefficient, where entry-by-entry evaluation did each four times.  It
    writes the same numbers as summing A_mu(x) xdot^mu."""
    calls = collections.Counter()
    pow_, div = exprs._pow, exprs._BINARY["div"]
    monkeypatch.setattr(exprs, "_pow", lambda a, k, out: calls.update(["pow"]) or pow_(a, k, out))
    monkeypatch.setitem(exprs._BINARY, "div", lambda a, b, out: calls.update(["div"]) or div(a, b, out))
    chart = builtin_connection("levi-civita-s2-stereo").charts[0]
    rng = np.random.default_rng(8)
    X, V = rng.uniform(-2.0, 2.0, (2, 40)), rng.uniform(-1.0, 1.0, (2, 40))
    out = np.empty((2, 2, 40))
    calls.clear()
    chart.field(X, V, out)
    assert calls == {"pow": 2, "div": 2}
    want = sum(np.moveaxis(f.value(X.T), 0, -1) * V[mu] for mu, f in enumerate(chart.coefficients))
    assert np.array_equal(out, want)


def test_gauge_transformed_curvature_is_exact():
    """Exact second derivatives of the gauge: pure-gauge is flat to
    roundoff on the 7 x 7 grid, and a GL(2) gauge conjugates the curvature
    of abelian-area(1.5) to roundoff, with derivatives that central
    differences of the values confirm."""
    assert is_flat(builtin_connection("pure-gauge")).max_norm <= 1e-13
    x1, x2 = var(0, 2), var(1, 2)
    s, w = lit(1.0) + lit(0.25) * x1 * x2, x1 - lit(0.5) * x2
    entries = [[s * cos(w), lit(-1.0) * s * sin(w)], [s * sin(w), s * cos(w)]]
    base = ConnectionForm(StructureGroup("GL", 2), builtin_connection("abelian-area(1.5)").charts)
    gauged = gauge_transform(base, entries)
    g = ExprMatrixFunction(entries, 2)
    rng = np.random.default_rng(21)
    for x in rng.uniform(-1.5, 1.5, (10, 2)):
        gx = g.at(x)
        f_before = curvature_at(base, point(*x)).matrix(0, 1)
        f_after = curvature_at(gauged, point(*x)).matrix(0, 1)
        assert frobenius(f_after - np.linalg.inv(gx) @ f_before @ gx) <= 1e-12
        for mu, f in enumerate(gauged.charts[0].coefficients):
            _, grad = f.value_and_grad(x[None, :])
            for i in range(2):
                for j in range(2):
                    fd = central_gradient(lambda y: f.at(y)[i, j], x)
                    assert np.allclose(grad[0, :, i, j], fd, atol=1e-8)


def test_gauge_transform_takes_gauges_with_exact_second_derivatives(abelian):
    """Expression or numeric entries, or an ExprMatrixFunction, are gauges;
    any other MatrixFunction is refused.  The identity gauge, a numpy
    array, leaves every coefficient's values as they were."""

    class Opaque(MatrixFunction):
        dim, k = 2, 2

        def value(self, X):
            return np.broadcast_to(np.eye(2), (len(X), 2, 2)).copy()

    with pytest.raises(ValidationError):
        gauge_transform(abelian, Opaque())
    c, s = np.cos(0.3), np.sin(0.3)
    for gauge in ([[c, -s], [s, c]], ExprMatrixFunction([[c, -s], [s, c]], 2)):
        rotated = gauge_transform(abelian, gauge)
        f = curvature_at(rotated, point(0.2, -0.4)).matrix(0, 1)
        assert frobenius(f - 1.5 * J) <= 1e-14
    same = gauge_transform(abelian, np.eye(2))
    X = np.random.default_rng(4).uniform(-2.0, 2.0, (10, 2))
    for a, b in zip(same.charts[0].coefficients, abelian.charts[0].coefficients):
        assert np.array_equal(a.value(X), b.value(X))


def test_matrix_entries_must_form_a_square():
    """A ragged coefficient, a gauge of the wrong size and a ragged gauge
    raise ValidationError, where they built a GL(2) chart that transported
    without error, raised a bare numpy ValueError, and raised
    SingularGaugeError; so do numeric matrices that are not square."""
    x1 = var(0, 2)
    zero, one = lit(0.0), lit(1.0)
    with pytest.raises(ValidationError):
        ExprMatrixFunction([[zero, x1], [zero]], 2)
    abelian = builtin_connection("abelian-area")
    rot3 = [[one, zero, zero], [zero, cos(x1), -sin(x1)], [zero, sin(x1), cos(x1)]]
    with pytest.raises(ValidationError):
        gauge_transform(abelian, rot3)
    with pytest.raises(ValidationError):
        gauge_transform(abelian, [[one, zero], [zero]])
    for bad in ([[1.0, 0.0], [0.0]], [[1.0, 0.0]], [], 1.0):
        with pytest.raises(ValidationError):
            ExprMatrixFunction(bad, 2)


def test_matrix_entries_are_expressions_or_real_numbers():
    """Python and numpy numbers, ints included, are literal entries, where
    they raised a bare AttributeError; a string or None raises
    ValidationError."""
    X = np.random.default_rng(5).uniform(-2.0, 2.0, (6, 2))
    for entries in ([[1.0, 0.0], [0.0, 1.0]], np.eye(2, dtype=int), [[1, np.float32(0.0)], [lit(0.0), 1]]):
        f = ExprMatrixFunction(entries, 2)
        values, grads = f.value_and_grad(X)
        assert np.array_equal(values, np.broadcast_to(np.eye(2), (6, 2, 2)))
        assert not grads.any()
    for bad in ("x1", None):
        with pytest.raises(ValidationError):
            ExprMatrixFunction([[1.0, bad], [0.0, 1.0]], 2)


def test_gl3_gauge_takes_the_cofactor_inverse():
    """A GL(3) gauge (1 + x1^2) R(x2), R a rotation about a generic axis,
    has det != 1 and no zero entry, so every cofactor of its inverse
    counts: the curvature of constant-so3 on GL(3) is conjugated to
    roundoff, and the new coefficients' exact derivatives match central
    differences of their values."""
    x1, x2 = var(0, 2), var(1, 2)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    K = np.cross(np.eye(3), axis)  # K v = axis x v
    K2 = K @ K
    s = lit(1.0) + x1**2
    entries = [
        [s * (lit(float(i == j)) + lit(K[i, j]) * sin(x2) + lit(K2[i, j]) * (lit(1.0) - cos(x2)))
         for j in range(3)]
        for i in range(3)
    ]
    base = ConnectionForm(StructureGroup("GL", 3), builtin_connection("constant-so3").charts)
    gauged = gauge_transform(base, entries)
    g = ExprMatrixFunction(entries, 2)
    for x in np.random.default_rng(23).uniform(-1.5, 1.5, (8, 2)):
        gx = g.at(x)
        assert abs(np.linalg.det(gx) - (1.0 + x[0] ** 2) ** 3) <= 1e-12
        f_before = curvature_at(base, point(*x)).matrix(0, 1)
        f_after = curvature_at(gauged, point(*x)).matrix(0, 1)
        assert frobenius(f_after - np.linalg.inv(gx) @ f_before @ gx) <= 1e-12
        for f in gauged.charts[0].coefficients:
            _, grad = f.value_and_grad(x[None, :])
            for i in range(3):
                for j in range(3):
                    fd = central_gradient(lambda y: f.at(y)[i, j], x)
                    assert np.allclose(grad[0, :, i, j], fd, atol=1e-8)


class _Opaque(MatrixFunction):
    """A matrix function with no expression entries behind it."""

    def __init__(self, base):
        self.base, self.dim, self.k = base, base.dim, base.k

    def value(self, X):
        return self.base.value(X)

    def value_and_grad(self, X):
        return self.base.value_and_grad(X)


def test_gauge_transform_refuses_opaque_coefficients_and_transition_gauges(abelian):
    """gauge_transform writes the new coefficients and transition gauges as
    expressions; a chart coefficient or a transition gauge it must rewrite
    that is an opaque MatrixFunction raises ValidationError."""
    rotation = _rotation_gauge()
    chart = abelian.charts[0]
    opaque_chart = ChartSpec(0, 2, chart.lo, chart.hi, (chart.coefficients[0], _Opaque(chart.coefficients[1])))
    with pytest.raises(ValidationError, match="opaque"):
        gauge_transform(ConnectionForm(SO2, (opaque_chart,)), rotation)
    twochart = builtin_connection("levi-civita-s2-twochart")
    opaque = tuple(Transition(tr.from_chart, tr.to_chart, tr.coord_map, _Opaque(tr.gauge))
                   for tr in twochart.transitions)
    for chart_id, transitions in ((1, opaque[:1]), (1, opaque[1:]), (0, opaque)):
        conn = ConnectionForm(SO2, twochart.charts, transitions)
        with pytest.raises(ValidationError, match="opaque"):
            gauge_transform(conn, rotation, chart_id=chart_id)


@pytest.mark.parametrize("name", BUILTINS + ["gauged-twochart"])
def test_every_coefficient_compiles_into_the_field_program(name):
    """Every builtin chart, and both charts of a two-chart sphere gauge
    transformed on chart 1, leave no coefficient outside the field program."""
    if name == "gauged-twochart":
        conn = gauge_transform(builtin_connection("levi-civita-s2-twochart"), _rotation_gauge(), chart_id=1)
    else:
        conn = builtin_connection(name)
    assert all(chart._field[1] == () for chart in conn.charts)
