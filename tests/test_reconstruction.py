"""Converse direction: lifted velocities, horizontal spaces, round trips."""

import io
import re
from types import SimpleNamespace

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
    builtin_connection,
    curvature_at,
)
from holonome import reconstruction
from holonome.errors import (
    IllConditionedBasisError,
    OutOfBranchError,
    OutOfRangeError,
    VelocityMismatchError,
)
from holonome.exprs import lit, var
from holonome.groups import (
    AlgebraElement,
    GroupElement,
    StructureGroup,
    frobenius,
    group_exp,
    identity_element,
    so2_generator,
    so3_basis,
)
from holonome.paths import (
    ChartPoint,
    Segment,
    TangentVector,
    arc_path,
    box_grid,
    line_path,
    path_from_exprs,
    path_point,
)
from holonome.reconstruction import (
    HorizontalBasis,
    LiftedVector,
    horizontal_space,
    lemma_independence_check,
    lift_vector,
    reconstruct_connection,
    roundtrip_report,
    split_horizontal_vertical,
)
from holonome.transport import SolverConfig, engine_oracle, transport, transport_many

J = so2_generator()
SO2 = StructureGroup("SO", 2)
SO3 = StructureGroup("SO", 3)
CFG = SolverConfig(h=0.02, project_every=4)


def oracle_for(name):
    return engine_oracle(builtin_connection(name), CFG)


def test_lift_vector_zero_connection():
    oracle = oracle_for("flat-so2")
    x = ChartPoint(0, [0.3, -0.4])
    lv = lift_vector(oracle, x, identity_element(SO2), TangentVector(x, [1.0, 2.0]), 1e-3)
    assert frobenius(lv.vertical_part.matrix) <= 1e-10
    assert np.array_equal(lv.base_part.components, [1.0, 2.0])


def test_lift_vector_constant_coefficient():
    lam = 0.7
    chart = ChartSpec(0, 2, [-2, -2], [2, 2],
                      (ExprMatrixFunction(lam * J, 2), ExprMatrixFunction(0 * J, 2)))
    conn = ConnectionForm(SO2, (chart,))
    oracle = engine_oracle(conn, CFG)
    x = ChartPoint(0, [0.0, 0.0])
    lv = lift_vector(oracle, x, identity_element(SO2), TangentVector(x, [1.0, 0.0]), 1e-3)
    assert frobenius(lv.vertical_part.matrix - (-lam * J)) <= 2e-4


def test_lift_vector_linear_in_velocity():
    oracle = oracle_for("abelian-area(1.5)")
    x = ChartPoint(0, [0.2, 0.5])
    p = identity_element(SO2)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.normal(size=2)
        w = rng.normal(size=2)
        a, b = rng.uniform(-1.0, 1.0, 2)
        lv = lift_vector(oracle, x, p, TangentVector(x, a * v + b * w), 1e-3)
        lv_v = lift_vector(oracle, x, p, TangentVector(x, v), 1e-3)
        lv_w = lift_vector(oracle, x, p, TangentVector(x, w), 1e-3)
        combo = a * lv_v.vertical_part.matrix + b * lv_w.vertical_part.matrix
        assert frobenius(lv.vertical_part.matrix - combo) <= 5e-4


def test_lift_vector_probe_step_bounds():
    oracle = oracle_for("flat-so2")
    x = ChartPoint(0, [0.0, 0.0])
    with pytest.raises(OutOfRangeError):
        lift_vector(oracle, x, identity_element(SO2), TangentVector(x, [1.0, 0.0]), 0.5)


def test_lift_vector_refuses_a_vector_based_elsewhere_before_asking():
    oracle = RecordingOracle(builtin_connection("flat-so2"))
    x = ChartPoint(0, [0.0, 0.0])
    v = TangentVector(ChartPoint(0, [0.0, 1e-9]), [1.0, 0.0])
    with pytest.raises(VelocityMismatchError, match="not based at the given point"):
        lift_vector(oracle, x, identity_element(SO2), v, 1e-3)
    assert oracle.seen == []


def test_horizontal_space_zero_connection():
    oracle = oracle_for("flat-so2")
    x = ChartPoint(0, [0.1, 0.1])
    basis = horizontal_space(oracle, x, identity_element(SO2), 1e-3)
    for mu, lv in enumerate(basis.lifts):
        e = np.zeros(2)
        e[mu] = 1.0
        assert np.array_equal(lv.base_part.components, e)
        assert frobenius(lv.vertical_part.matrix) <= 1e-10


def test_horizontal_space_constant_so3():
    oracle = oracle_for("constant-so3")
    e1, e2, _ = so3_basis()
    x = ChartPoint(0, [0.3, -0.1])
    basis = horizontal_space(oracle, x, identity_element(SO3), 1e-3)
    assert frobenius(basis.lifts[0].vertical_part.matrix - (-0.8 * e1)) <= 2e-4
    assert frobenius(basis.lifts[1].vertical_part.matrix - (-0.6 * e2)) <= 2e-4


def test_horizontal_space_equivariance():
    """H at (x, p g) is the right-translate of H at (x, p): vertical parts
    conjugate by g in the left trivialization."""
    oracle = oracle_for("constant-so3")
    x = ChartPoint(0, [0.2, 0.4])
    e1, e2, e3 = so3_basis()
    base = horizontal_space(oracle, x, identity_element(SO3), 1e-3)
    rng = np.random.default_rng(6)
    for _ in range(5):
        w = rng.normal(size=3) * 0.8
        g = group_exp(AlgebraElement(w[0] * e1 + w[1] * e2 + w[2] * e3, SO3))
        shifted = horizontal_space(oracle, x, g, 1e-3)
        dev = max(
            frobenius(
                shifted.lifts[mu].vertical_part.matrix
                - g.matrix.T @ base.lifts[mu].vertical_part.matrix @ g.matrix
            )
            for mu in range(2)
        )
        assert dev <= 1e-6


def test_split_purely_vertical():
    oracle = oracle_for("constant-so3")
    x = ChartPoint(0, [0.0, 0.0])
    basis = horizontal_space(oracle, x, identity_element(SO3), 1e-3)
    _, _, e3 = so3_basis()
    horiz, vert = split_horizontal_vertical(basis, [0.0, 0.0], 0.4 * e3)
    assert frobenius(horiz.vertical_part.matrix) == 0.0
    assert frobenius(vert.matrix - 0.4 * e3) == 0.0


def test_split_basis_vector_has_no_vertical_residue():
    oracle = oracle_for("abelian-area(1.5)")
    x = ChartPoint(0, [0.4, 0.2])
    basis = horizontal_space(oracle, x, identity_element(SO2), 1e-3)
    lv = basis.lifts[0]
    _, vert = split_horizontal_vertical(
        basis, lv.base_part.components, lv.vertical_part.matrix
    )
    assert frobenius(vert.matrix) <= 1e-10


def test_split_zero_connection_gives_coordinate_split():
    oracle = oracle_for("flat-so2")
    x = ChartPoint(0, [0.0, 0.0])
    basis = horizontal_space(oracle, x, identity_element(SO2), 1e-3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        base = rng.normal(size=2)
        fiber = rng.normal() * J
        _, vert = split_horizontal_vertical(basis, base, fiber)
        assert frobenius(vert.matrix - fiber) <= 1e-10


def test_split_recomposes_random_vectors():
    oracle = oracle_for("constant-so3")
    e1, e2, e3 = so3_basis()
    rng = np.random.default_rng(12)
    x = ChartPoint(0, [0.25, -0.35])
    basis = horizontal_space(oracle, x, identity_element(SO3), 1e-3)
    for _ in range(100):
        base = rng.normal(size=2)
        w = rng.normal(size=3)
        fiber = w[0] * e1 + w[1] * e2 + w[2] * e3
        horiz, vert = split_horizontal_vertical(basis, base, fiber)
        assert np.array_equal(horiz.base_part.components, base)
        recomposed = horiz.vertical_part.matrix + vert.matrix
        assert frobenius(recomposed - fiber) <= 1e-10
        # the horizontal part is its own horizontal part: re-splitting it
        # leaves a vertical residual of exactly zero
        _, residue = split_horizontal_vertical(
            basis, horiz.base_part.components, horiz.vertical_part.matrix
        )
        assert frobenius(residue.matrix) == 0.0


def test_ill_conditioned_basis_rejected():
    x = ChartPoint(0, [0.0, 0.0])
    p = identity_element(SO2)
    huge = LiftedVector(TangentVector(x, [1.0, 0.0]),
                        AlgebraElement(1e7 * J, SO2), (x, p))
    tiny = LiftedVector(TangentVector(x, [0.0, 1.0]),
                        AlgebraElement(0.0 * J, SO2), (x, p))
    with pytest.raises(IllConditionedBasisError):
        HorizontalBasis((x, p), (huge, tiny))


# --- the Lemma ------------------------------------------------------------------

def same_velocity_paths(x, v, chart=0):
    u = var(0)
    line = path_from_exprs(chart, [lit(x[0]) + lit(v[0]) * u, lit(x[1]) + lit(v[1]) * u])
    parabola = path_from_exprs(
        chart,
        [lit(x[0]) + lit(v[0]) * u - lit(0.4) * u**2,
         lit(x[1]) + lit(v[1]) * u + lit(0.6) * u**2],
    )
    cubic = path_from_exprs(
        chart,
        [lit(x[0]) + lit(v[0]) * u + lit(0.5) * u**3,
         lit(x[1]) + lit(v[1]) * u - lit(0.3) * u**2],
    )
    return [line, parabola, cubic]


def test_lemma_zero_connection_is_exact():
    oracle = oracle_for("flat-so2")
    x = np.array([0.1, 0.2])
    v = np.array([1.0, 0.5])
    report = lemma_independence_check(
        oracle, ChartPoint(0, x), identity_element(SO2),
        TangentVector(ChartPoint(0, x), v), same_velocity_paths(x, v),
    )
    assert report.degenerate
    assert max(report.deviations) <= 1e-11


def test_lemma_abelian_slope():
    oracle = oracle_for("abelian-area(1.5)")
    x = np.array([0.3, 0.2])
    v = np.array([1.0, 0.0])
    report = lemma_independence_check(
        oracle, ChartPoint(0, x), identity_element(SO2),
        TangentVector(ChartPoint(0, x), v), same_velocity_paths(x, v),
    )
    assert not report.degenerate
    assert report.slope >= 0.9
    assert report.extrapolated <= 1e-6
    assert all(a > b for a, b in zip(report.deviations, report.deviations[1:]))


def test_lemma_levi_civita_line_vs_arc():
    conn = builtin_connection("levi-civita-s2-stereo")
    oracle = engine_oracle(conn, CFG)
    x = np.array([0.5, 0.0])
    v = np.array([0.0, 1.5])
    line = path_from_exprs(0, [lit(0.5), lit(1.5) * var(0)])
    # circle through x with matched tangent: center (0, 0), radius 0.5,
    # speed matched via the angular rate 3 rad per unit parameter
    u = var(0)
    from holonome.exprs import cos as ecos, sin as esin
    arc = path_from_exprs(0, [lit(0.5) * ecos(lit(3.0) * u), lit(0.5) * esin(lit(3.0) * u)])
    report = lemma_independence_check(
        oracle, ChartPoint(0, x), identity_element(SO2),
        TangentVector(ChartPoint(0, x), v), [line, arc],
    )
    assert report.slope >= 0.9
    assert report.extrapolated <= 1e-6


def test_lemma_rejects_mismatched_velocities():
    oracle = oracle_for("flat-so2")
    x = np.array([0.0, 0.0])
    line_v1 = line_path(ChartPoint(0, x), [1.0, 0.0])
    line_v2 = line_path(ChartPoint(0, x), [0.0, 1.0])
    with pytest.raises(VelocityMismatchError):
        lemma_independence_check(
            oracle, ChartPoint(0, x), identity_element(SO2),
            TangentVector(ChartPoint(0, x), [1.0, 0.0]), [line_v1, line_v2],
        )


# --- grid reconstruction -----------------------------------------------------------

def grid_points(lo, hi, shape, chart=0):
    axes = [np.linspace(a, b, shape) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [ChartPoint(chart, row) for row in np.stack([g.ravel() for g in mesh], axis=1)]


def test_reconstruct_zero_connection():
    oracle = oracle_for("flat-so2")
    table = reconstruct_connection(oracle, grid_points([-1, -1], [1, 1], 3), 1e-3, SO2)
    assert not table.dropped
    for mat in table.entries.values():
        assert frobenius(mat) <= 1e-10


def test_reconstruct_abelian_matches_coefficients():
    conn = builtin_connection("abelian-area(1.5)")
    oracle = engine_oracle(conn, CFG)
    grid = grid_points([-1, -1], [1, 1], 5)
    table = reconstruct_connection(oracle, grid, 1e-3, SO2)
    chart = conn.charts[0]
    worst = 0.0
    for idx, pt in enumerate(grid):
        X = np.asarray(pt.coords)[None, :]
        for mu in range(2):
            true = chart.coefficients[mu].value(X)[0]
            worst = max(worst, frobenius(table.coefficient(idx, mu) - true))
    assert worst <= 3e-4


def test_reconstruct_levi_civita_matches_coefficients():
    conn = builtin_connection("levi-civita-s2-stereo")
    oracle = engine_oracle(conn, CFG)
    grid = grid_points([-1, -1], [1, 1], 5)
    table = reconstruct_connection(oracle, grid, 1e-3, SO2)
    chart = conn.charts[0]
    worst = 0.0
    for idx, pt in enumerate(grid):
        X = np.asarray(pt.coords)[None, :]
        for mu in range(2):
            true = chart.coefficients[mu].value(X)[0]
            worst = max(worst, frobenius(table.coefficient(idx, mu) - true))
    assert worst <= 5e-4


def test_reconstruct_drops_edge_points():
    """Probes poking past the chart box fail; the point is dropped and
    reported, never interpolated."""
    conn = builtin_connection("abelian-area(1.5)")
    oracle = engine_oracle(conn, CFG)
    inside = ChartPoint(0, [0.0, 0.0])
    edge = ChartPoint(0, [2.0, 0.0])  # +h probe exits the box
    table = reconstruct_connection(oracle, [inside, edge], 1e-3, SO2)
    assert len(table.dropped) == 1
    assert table.dropped[0][0] is edge
    assert (0, 0) in table.entries and (1, 0) not in table.entries


def centred_on(gamma, x):
    """Whether the path passes through the point x at u = 1/2, to roundoff:
    the centre of a probe from x - hv to x + hv."""
    return np.max(np.abs(path_point(gamma, 0.5).coords - x)) <= 1e-12


class RecordingOracle:
    """A black-box oracle over the engine that records every probe path it
    is asked for, and refuses the probes centred on a refused point."""

    def __init__(self, conn, refused=None):
        self.conn, self.refused, self.seen = conn, refused, []

    def check(self, gamma):
        if self.refused is not None and centred_on(gamma, self.refused):
            raise ValueError(f"no data at {self.refused.tolist()}")

    def __call__(self, gamma):
        self.seen.append(gamma)
        self.check(gamma)
        return transport(self.conn, gamma, CFG)


class RecordingManyOracle(RecordingOracle):
    """The same black box, answering a whole list of probes in one call."""

    many_calls = 0

    def many(self, paths):
        self.many_calls += 1
        self.seen.extend(paths)
        for gamma in paths:
            self.check(gamma)
        return transport_many(self.conn, paths, CFG)


def table_bits(table):
    return (
        {key: mat.tobytes() for key, mat in table.entries.items()},
        [(x.chart_id, x.coords.tobytes(), reason) for x, reason in table.dropped],
    )


def test_many_oracle_sees_the_probes_of_the_per_point_loop():
    """An oracle with a many method is asked for the same probe paths, in
    the same order, as the per-point loop asks a one-path oracle for them,
    and the two tables match bit for bit: one probe per point and axis."""
    conn = builtin_connection("constant-so3")
    grid = grid_points([-1, -1], [1, 1], 3)
    loop, batch = RecordingOracle(conn), RecordingManyOracle(conn)
    want = reconstruct_connection(loop, grid, 1e-3, SO3)
    got = reconstruct_connection(batch, grid, 1e-3, SO3)
    assert loop.seen == probe_sequence([(x, mu) for x in grid for mu in range(2)], 1e-3)
    assert batch.many_calls == 1 and batch.seen == loop.seen
    assert table_bits(got) == table_bits(want)


def test_probe_failing_inside_many_drops_exactly_its_point():
    """A probe that fails inside many drops its grid point alone, with the
    reason string the per-point loop gives; the loop asks for that point's
    first probe and none after it."""
    conn = builtin_connection("abelian-area(1.5)")
    grid = grid_points([-1, -1], [1, 1], 3)
    refused = grid[4].coords
    batch, loop = RecordingManyOracle(conn, refused), RecordingOracle(conn, refused)
    want = reconstruct_connection(loop, grid, 1e-3, SO2)
    got = reconstruct_connection(batch, grid, 1e-3, SO2)
    asked = [(x, mu) for i, x in enumerate(grid) for mu in range(1 if i == 4 else 2)]
    assert loop.seen == probe_sequence(asked, 1e-3)
    assert batch.many_calls == 1
    assert [x for x, _ in got.dropped] == [grid[4]]
    assert got.dropped[0][1] == "oracle failed on a probe path: no data at [0.0, 0.0]"
    assert table_bits(got) == table_bits(want)


def test_engine_oracle_table_matches_the_per_point_loop():
    """engine_oracle's batched table equals, bit for bit, the per-point
    loop over the same transports, edge points dropped with the same
    reason."""
    conn = builtin_connection("pure-gauge")
    grid = grid_points([-2, -2], [1.5, 1.5], 4)
    got = reconstruct_connection(engine_oracle(conn, CFG), grid, 1e-3, conn.group)
    want = reconstruct_connection(lambda g: transport(conn, g, CFG), grid, 1e-3, conn.group)
    assert 0 < len(got.dropped) < len(grid)
    assert table_bits(got) == table_bits(want)


class CountingOracle:
    """engine_oracle, counting the calls that reach it one path at a time
    and through many."""

    def __init__(self, conn):
        self.inner, self.calls, self.many_calls = engine_oracle(conn, CFG), 0, 0

    def __call__(self, gamma):
        self.calls += 1
        return self.inner(gamma)

    def many(self, paths):
        self.many_calls += 1
        return self.inner.many(paths)


def test_engine_oracle_keeps_its_batch_when_probes_fail():
    """engine_oracle's many answers a failed probe with its error in its
    place, so a table with dropped edge points comes from the one batched
    call, with no probe asked again one at a time, and is byte-identical
    to the per-point loop's table."""
    conn = builtin_connection("abelian-area(1.5)")
    grid = grid_points([-2, -2], [1, 1], 5)
    oracle = CountingOracle(conn)
    got = reconstruct_connection(oracle, grid, 1e-3, conn.group)
    want = reconstruct_connection(lambda g: transport(conn, g, CFG), grid, 1e-3, conn.group)
    assert (oracle.many_calls, oracle.calls) == (1, 0)
    assert len(got.dropped) == 9
    assert all(reason.startswith("oracle failed on a probe path: ") for _, reason in got.dropped)
    assert table_bits(got) == table_bits(want)
    buf_got, buf_want = io.StringIO(), io.StringIO()
    got.to_csv(buf_got)
    want.to_csv(buf_want)
    assert buf_got.getvalue() == buf_want.getvalue()


class UndefinedAbove(MatrixFunction):
    """A constant GL(2) coefficient that raises ValueError, not a
    HolonomeError, wherever it is asked for a point with x2 > cut."""

    def __init__(self, cut):
        self.cut, self.dim, self.k = cut, 2, 2

    def value(self, X):
        if (X[:, 1] > self.cut).any():
            raise ValueError(f"undefined above x2 = {self.cut}")
        return np.broadcast_to([[0.2, -0.5], [0.5, 0.1]], (len(X), 2, 2)).copy()


def test_engine_oracle_keeps_its_batch_when_a_coefficient_raises():
    """A probe whose transport raises some other exception than a
    HolonomeError, here a ValueError from a user-supplied coefficient,
    drops its point from the one batched call too, with the per-point
    loop's reason and a byte-identical table."""
    f = UndefinedAbove(0.5)
    gl2 = StructureGroup("GL", 2)
    conn = ConnectionForm(gl2, (ChartSpec(0, 2, [-2, -2], [2, 2], (f, f)),))
    grid = grid_points([-1, -1], [1, 1], 3)
    oracle = CountingOracle(conn)
    got = reconstruct_connection(oracle, grid, 1e-3, gl2)
    want = reconstruct_connection(lambda g: transport(conn, g, CFG), grid, 1e-3, gl2)
    assert (oracle.many_calls, oracle.calls) == (1, 0)
    assert [x.coords[1] for x, _ in got.dropped] == [1.0, 1.0, 1.0]
    assert {reason for _, reason in got.dropped} == {
        "oracle failed on a probe path: undefined above x2 = 0.5"
    }
    assert table_bits(got) == table_bits(want)


def test_reconstruction_csv_layout():
    oracle = oracle_for("abelian-area(1.5)")
    table = reconstruct_connection(oracle, [ChartPoint(0, [0.5, -0.5])], 1e-3, SO2)
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "chart_id,x1,x2,mu,i,j,value,h"
    assert len(lines) == 1 + 2 * 4  # two directions, 2x2 matrices
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "1" and first[-1] == repr(1e-3)


# --- round trip ---------------------------------------------------------------------

def test_roundtrip_zero_connection_degenerate():
    report = roundtrip_report(builtin_connection("flat-so2"))
    assert report.degenerate
    assert report.passed
    assert report.final_error <= 1e-10


@pytest.mark.parametrize("name", ["constant-so3", "abelian-area(1.5)"])
def test_roundtrip_exact_families(name):
    """Straight probes see constant coefficients along themselves on these
    builtins, so the symmetric difference reconstructs them to roundoff;
    the order sweep degenerates at machine level and the error criterion
    holds with huge margin."""
    report = roundtrip_report(builtin_connection(name))
    assert report.passed
    assert report.final_error <= 3e-4
    assert report.degenerate
    assert max(report.errors) <= 1e-8


def test_roundtrip_levi_civita_second_order():
    """Nonlinear coefficients give the generic O(h^2plus) picture: a
    measurable error with empirical order >= 1.7."""
    report = roundtrip_report(builtin_connection("levi-civita-s2-stereo"))
    assert not report.degenerate
    assert report.order >= 1.7
    assert report.final_error <= 5e-4
    assert report.passed


# --- the principal branch, tested probe by probe ------------------------------

def steep_connection():
    """SO(2) with A_1 = 50 x1^2 J and A_2 = 50 x2^2 J: at h = 1e-2 the
    probe difference along a direction where the coefficient is 50 J turns
    by about 1 rad, so ||D - I||_F is about 1.36, outside the log's
    principal branch."""
    x1, x2 = var(0, 2), var(1, 2)

    def times_j(scalar):
        return ExprMatrixFunction([[lit(0.0), lit(-1.0) * scalar], [scalar, lit(0.0)]], 2)

    coeffs = (times_j(lit(50.0) * x1 * x1), times_j(lit(50.0) * x2 * x2))
    return ConnectionForm(SO2, (ChartSpec(0, 2, [-2, -2], [2, 2], coeffs),))


def test_roundtrip_report_skips_the_points_its_tables_drop():
    """On the steep connection at h = 1e-2, the probes at x1 = +-1 or
    x2 = +-1 of roundtrip_report's default 5 x 5 grid on [-1, 1]^2 leave
    the principal branch, and those 16 points drop.  The report's error at
    that h is the worst over the 9 points kept; at the smaller steps no
    point drops."""
    conn = steep_connection()
    hs = (1e-2, 5e-3, 2.5e-3)
    report = roundtrip_report(conn, hs=hs)
    grid = box_grid(0, [-1.0, -1.0], [1.0, 1.0], 5)
    edge = [x.coords.tolist() for x in grid if np.max(np.abs(x.coords)) == 1.0]
    oracle = engine_oracle(conn, SolverConfig(h=0.02))
    for h, error in zip(hs, report.errors):
        table = reconstruct_connection(oracle, grid, h, SO2)
        assert [x.coords.tolist() for x, _ in table.dropped] == (edge if h == 1e-2 else [])
        assert len(table.entries) == 2 * (len(grid) - len(table.dropped))
        worst = max(
            frobenius(a - conn.charts[0].coefficients[mu].at(grid[i].coords))
            for (i, mu), a in table.entries.items()
        )
        assert error == worst
    assert np.isfinite(report.final_error)


def probe_sequence(points_and_dirs, h):
    """The straight probe a + b u from a = x - h e_mu to x + h e_mu, with
    b = 2 h e_mu, of each (x, mu), in order, as the reconstruction builds
    them."""
    out = []
    for x, mu in points_and_dirs:
        e = np.eye(x.dim)[mu]
        coords = [lit(xi - h * ei) + lit(2.0 * h * ei) * var(0) for xi, ei in zip(x.coords, e)]
        out.append(path_from_exprs(x.chart_id, coords))
    return out


def test_out_of_branch_points_drop_on_both_routes():
    """A grid point whose probe leaves the principal branch is dropped with
    the branch reason on the per-point loop and on the many route.  The
    loop stops asking for a point's probes at the direction that leaves
    the branch, and the two tables match byte for byte."""
    conn = steep_connection()
    grid = [ChartPoint(0, c) for c in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5])]
    loop, batch = RecordingOracle(conn), RecordingManyOracle(conn)
    want = reconstruct_connection(loop, grid, 1e-2, SO2)
    got = reconstruct_connection(batch, grid, 1e-2, SO2)
    asked = [(grid[0], 0), (grid[0], 1), (grid[1], 0), (grid[2], 0), (grid[2], 1),
             (grid[3], 0), (grid[3], 1)]
    assert loop.seen == probe_sequence(asked, 1e-2)
    assert batch.many_calls == 1 and len(batch.seen) == 2 * len(grid)
    assert [x for x, _ in got.dropped] == [grid[1], grid[2]]
    for _, reason in got.dropped:
        assert re.fullmatch(r"\|\|g - I\|\|_F = 1\.3\d\d >= 1: outside the principal branch", reason)
    assert sorted(got.entries) == [(0, 0), (0, 1), (3, 0), (3, 1)]
    assert table_bits(got) == table_bits(want)
    buf_got, buf_want = io.StringIO(), io.StringIO()
    got.to_csv(buf_got)
    want.to_csv(buf_want)
    assert buf_got.getvalue() == buf_want.getvalue()


def test_probe_tables_compile_no_program(monkeypatch):
    """After one warm-up transport, a table through engine_oracle and a
    table through a closed-form oracle that calls path_point construct no
    exprs.Program: every probe is a straight segment, evaluated in closed
    form."""
    conn = builtin_connection("constant-so3")
    A = [f.at([0.0, 0.0]) for f in conn.charts[0].coefficients]
    transport(conn, line_path(ChartPoint(0, [0.0, 0.0]), [0.1, 0.0]), CFG)

    def closed_form(gamma):
        a, b = path_point(gamma, 0.0).coords, path_point(gamma, 1.0).coords
        step = -(A[0] * (b[0] - a[0]) + A[1] * (b[1] - a[1]))
        return SimpleNamespace(g=group_exp(AlgebraElement(step, SO3)))

    compiled = []
    original = exprs.Program.__init__

    def counting(self, es, grad_axes=0):
        compiled.append(es)
        original(self, es, grad_axes)

    monkeypatch.setattr(exprs.Program, "__init__", counting)
    grid = grid_points([-1, -1], [1, 1], 3)
    engine = reconstruct_connection(engine_oracle(conn, CFG), grid, 1e-3, SO3)
    closed = reconstruct_connection(closed_form, grid, 1e-3, SO3)
    assert compiled == []
    for table in (engine, closed):
        assert not table.dropped and len(table.entries) == 2 * len(grid)
        for (_, mu), mat in table.entries.items():
            assert frobenius(mat - A[mu]) <= 1e-8


# --- one way to ask an oracle ----------------------------------------------------


class RaisingManyOracle(RecordingOracle):
    """The black box with a many method that raises: the table asks it probe
    by probe, and seen records only those one-path calls."""

    def many(self, paths):
        raise RuntimeError("no batches today")


class ShortManyOracle(RecordingOracle):
    """The black box with a many method that answers one probe short."""

    def many(self, paths):
        return transport_many(self.conn, paths[:-1], CFG)


def lazy_probe_sequence(conn, grid, refused, h):
    """The probes a one-path oracle must see: point by point and e_1..e_n at
    each, one probe from x - h e_mu to x + h e_mu, stopping at a point's
    first probe that is refused or whose answer leaves the principal
    branch."""
    asked = []
    for x in grid:
        for mu in range(x.dim):
            [probe] = probe_sequence([(x, mu)], h)
            asked.append(probe)
            if refused is not None and np.array_equal(x.coords, refused):
                break
            if frobenius(transport(conn, probe, CFG).g.matrix - np.eye(2)) >= 1.0:
                break
    return asked


def table_outputs(table):
    buf = io.StringIO()
    table.to_csv(buf)
    return table_bits(table), buf.getvalue()


@seed(20261019)
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([-1.2, -0.9, -0.4, 0.0, 0.3, 0.7, 1.1]),
                  st.sampled_from([-1.1, -0.6, -0.2, 0.2, 0.5, 1.2])),
        min_size=1, max_size=6,
    ),
    st.one_of(st.none(), st.integers(0, 5)),
)
def test_every_oracle_kind_gives_the_same_table(coords, refused_at):
    """For random grids on the steep connection at h = 1e-2, with points
    whose probe leaves the principal branch and a point the oracle
    refuses, a one-path oracle, a many oracle, a many oracle that raises
    and one that answers a probe short give byte-identical tables,
    CSVs and dropped reasons.  The many oracle gets every probe in one call
    (its refusal raises out of many, so it is then asked path by path), and
    every oracle asked path by path sees exactly the lazy probe sequence."""
    conn = steep_connection()
    grid = [ChartPoint(0, c) for c in coords]
    refused = None if refused_at is None else grid[refused_at % len(grid)].coords
    oracles = [cls(conn, refused) for cls in
               (RecordingOracle, RecordingManyOracle, RaisingManyOracle, ShortManyOracle)]
    want, *others = [table_outputs(reconstruct_connection(o, grid, 1e-2, SO2)) for o in oracles]
    assert all(got == want for got in others)
    lazy = lazy_probe_sequence(conn, grid, refused, 1e-2)
    assert oracles[0].seen == lazy
    every = probe_sequence([(x, mu) for x in grid for mu in range(2)], 1e-2)
    assert oracles[1].many_calls == 1 and oracles[1].seen[: len(every)] == every
    assert oracles[1].seen[len(every) :] == ([] if refused is None else lazy)
    assert oracles[2].seen == lazy and oracles[3].seen == lazy


def test_lift_and_lemma_ask_engine_oracle_in_one_many_call():
    """lift_vector asks engine_oracle for its probe, horizontal_space for
    the probe of every direction, and lemma_independence_check for all its
    restrictions, in one many call each, with the results of the
    path-by-path oracle bit for bit."""
    conn = builtin_connection("levi-civita-s2-stereo")
    x, v = np.array([0.4, -0.3]), np.array([1.0, 0.5])
    at, p = ChartPoint(0, x), group_exp(AlgebraElement(0.3 * J, SO2))
    tangent = TangentVector(at, v)
    plain = lambda gamma: transport(conn, gamma, CFG)  # noqa: E731

    oracle = CountingOracle(conn)
    got = lift_vector(oracle, at, p, tangent, 1e-3)
    want = lift_vector(plain, at, p, tangent, 1e-3)
    assert (oracle.many_calls, oracle.calls) == (1, 0)
    assert got.vertical_part.matrix.tobytes() == want.vertical_part.matrix.tobytes()

    oracle = CountingOracle(conn)
    got = horizontal_space(oracle, at, p, 1e-3)
    want = horizontal_space(plain, at, p, 1e-3)
    assert (oracle.many_calls, oracle.calls) == (1, 0)
    assert [lv.vertical_part.matrix.tobytes() for lv in got.lifts] == [
        lv.vertical_part.matrix.tobytes() for lv in want.lifts]

    oracle = CountingOracle(conn)
    paths = same_velocity_paths(x, v)
    got = lemma_independence_check(oracle, at, p, tangent, paths)
    want = lemma_independence_check(plain, at, p, tangent, paths)
    assert (oracle.many_calls, oracle.calls) == (1, 0)
    assert (got.deviations, got.slope, got.extrapolated) == (
        want.deviations, want.slope, want.extrapolated)


def test_lemma_refuses_a_restriction_step_before_asking():
    """A step outside (0, 1] raises subpath's OutOfRangeError before the
    oracle is asked for any restriction."""
    conn = builtin_connection("abelian-area(1.5)")
    x, v = np.array([0.3, 0.2]), np.array([1.0, 0.0])
    oracle = RecordingOracle(conn)
    with pytest.raises(OutOfRangeError, match="invalid subrange"):
        lemma_independence_check(
            oracle, ChartPoint(0, x), identity_element(SO2),
            TangentVector(ChartPoint(0, x), v), same_velocity_paths(x, v), (0.5, 2.0),
        )
    assert oracle.seen == []


_coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@seed(20261019)
@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_coords, min_size=n, max_size=n), min_size=1, max_size=3)
    ),
    st.floats(1e-6, 1e-2),
)
def test_table_asks_the_straight_probes_along_each_axis(points, h):
    """A table asks, in order, for one probe from x - h e_mu to x + h e_mu
    of each point and axis: one segment over [0, 1] whose coordinate ASTs
    are lit(a_i) + lit(b_i)*x1 with a = x - h e_mu and b = 2 h e_mu as
    numpy computes them (compared by repr, so a -0.0 coordinate off the
    axis counts), and whose line source holds the bytes a fresh Segment parses
    from those coordinates."""
    grid = [ChartPoint(2, p) for p in points]
    asked = []

    def oracle(gamma):
        asked.append(gamma)
        return SimpleNamespace(g=identity_element(SO2))

    reconstruct_connection(oracle, grid, h, SO2)
    want = [(x, x.coords - h * e, 2.0 * h * e) for x in grid for e in np.eye(x.dim)]
    assert len(asked) == len(want)
    for got, (x, a, b) in zip(asked, want):
        [seg] = got.segments
        assert (seg.chart_id, seg.t0, seg.t1) == (x.chart_id, 0.0, 1.0)
        ast = [("add", ("num", float(ai)), ("mul", ("num", float(bi)), ("var", 0)))
               for ai, bi in zip(a, b)]
        assert repr([c.ast for c in seg.coords]) == repr(ast)
        fresh = Segment(seg.chart_id, seg.coords, 0.0, 1.0)._src.line
        assert np.array(seg._src.line).tobytes() == np.array(fresh).tobytes()


@pytest.mark.parametrize("h", [5e-7, 0.02, float("nan")])
@pytest.mark.parametrize("points", [[], [[0.1, 0.2]]], ids=["empty", "one-point"])
def test_table_refuses_a_probe_step_before_asking(h, points):
    """An h outside [1e-6, 1e-2] raises OutOfRangeError before the oracle
    is asked anything, through many or a call, also on an empty grid."""
    oracle = RecordingManyOracle(builtin_connection("abelian-area(1.5)"))
    with pytest.raises(OutOfRangeError, match="probe step"):
        reconstruct_connection(oracle, [ChartPoint(0, p) for p in points], h, SO2)
    assert (oracle.many_calls, oracle.seen) == (0, [])


# --- one probe walk for tables and lifts --------------------------------------------


@pytest.mark.parametrize(
    "name", ["abelian-area(1.5)", "constant-so3", "pure-gauge", "levi-civita-s2-stereo"]
)
def test_horizontal_space_is_lift_vector_per_axis_bit_for_bit(name):
    """The lifts of e_1..e_n, walked and logged as one stack, equal the
    lift_vector of each e_mu, a stack of one, byte for byte, at seeded
    points and fiber points p != I."""
    conn = builtin_connection(name)
    oracle = engine_oracle(conn, CFG)
    rng = np.random.default_rng(61)
    k = conn.group.k
    for _ in range(3):
        x = ChartPoint(0, rng.uniform(-1.0, 1.0, 2))
        a = rng.normal(size=(k, k))
        p = group_exp(AlgebraElement(0.5 * (a - a.T), conn.group))
        for h in (1e-2, 1e-3):
            basis = horizontal_space(oracle, x, p, h)
            for mu, lv in enumerate(basis.lifts):
                one = lift_vector(oracle, x, p, TangentVector(x, np.eye(2)[mu]), h)
                assert lv.vertical_part.matrix.tobytes() == one.vertical_part.matrix.tobytes()


def test_lifts_ask_every_probe_before_any_log(monkeypatch):
    """horizontal_space asks a path-by-path oracle for the one probe of
    every direction, in order, before it takes the logs of their answers
    as one stack."""
    conn = builtin_connection("abelian-area(1.5)")
    x = ChartPoint(0, [0.3, -0.2])
    oracle = RecordingOracle(conn)
    asked_at_log = []
    original = reconstruction._algebra_logs

    def recording(S, group):
        asked_at_log.append((len(oracle.seen), len(S)))
        return original(S, group)

    monkeypatch.setattr(reconstruction, "_algebra_logs", recording)
    horizontal_space(oracle, x, identity_element(SO2), 1e-3)
    assert asked_at_log == [(2, 2)]
    assert oracle.seen == probe_sequence([(x, 0), (x, 1)], 1e-3)


def test_lifts_stop_at_the_first_probe_off_the_branch():
    """On the steep connection at (1, 0), the first direction's probe
    leaves the principal branch: horizontal_space raises OutOfBranchError
    there, and a path-by-path oracle is asked for that probe alone."""
    x = ChartPoint(0, [1.0, 0.0])
    oracle = RecordingOracle(steep_connection())
    with pytest.raises(OutOfBranchError, match="outside the principal branch"):
        horizontal_space(oracle, x, identity_element(SO2), 1e-2)
    assert oracle.seen == probe_sequence([(x, 0)], 1e-2)


def test_an_oracle_that_reports_a_branch_failure_drops_its_point_with_that_reason():
    """An OutOfBranchError that the oracle raises passes through the walk as
    it is: the point drops with the oracle's own reason, not as an oracle
    failure, after its first probe, and the other points keep their
    entries."""
    conn = builtin_connection("abelian-area(1.5)")
    grid = [ChartPoint(0, c) for c in ([0.0, 0.0], [0.5, 0.5])]
    asked = []

    def oracle(gamma):
        asked.append(gamma)
        if centred_on(gamma, grid[1].coords):
            raise OutOfBranchError("no principal log here")
        return transport(conn, gamma, CFG)

    table = reconstruct_connection(oracle, grid, 1e-3, SO2)
    assert asked == probe_sequence([(grid[0], 0), (grid[0], 1), (grid[1], 0)], 1e-3)
    assert [(x, reason) for x, reason in table.dropped] == [(grid[1], "no principal log here")]
    assert sorted(table.entries) == [(0, 0), (0, 1)]


NONFINITE_GROUPS = (SO2, SO3, StructureGroup("SO", 4), StructureGroup("U1", 2),
                    StructureGroup("GL", 2))


@seed(20261027)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(NONFINITE_GROUPS),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_an_oracle_answering_nonfinite_matrices_drops_every_point(group, bad, rng_seed, data):
    """An oracle whose answers carry a NaN or +-inf entry anywhere fails on
    every probe: each grid point drops with the oracle's reason, and the
    table has no entry."""
    rng = np.random.default_rng(rng_seed)
    k = group.k
    a = rng.normal(size=(k, k))
    m = group_exp(AlgebraElement(0.5 * (a - a.T), group)).matrix.copy() if group.orthogonal \
        else np.eye(k) + 0.1 * a
    m[data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))] = bad

    def oracle(gamma):
        return SimpleNamespace(g=GroupElement(m, group))

    grid = [ChartPoint(0, c) for c in rng.uniform(-1.0, 1.0, (3, 2))]
    table = reconstruct_connection(oracle, grid, 1e-3, group)
    assert table.entries == {}
    assert [x for x, _ in table.dropped] == grid
    for _, reason in table.dropped:
        assert re.fullmatch(r"oracle failed on a probe path: .*(NaN or inf|not orthogonal).*", reason)
