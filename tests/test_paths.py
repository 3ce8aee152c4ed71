"""Path algebra: evaluation, velocities, juxtaposition, reparametrization."""

import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holonome import exprs, paths
from holonome.errors import (
    EndpointMismatchError,
    NotMonotoneError,
    OutOfRangeError,
    ValidationError,
)
from holonome.exprs import lit, parse, var
from holonome.paths import (
    ChartPoint,
    PathSpec,
    Segment,
    arc_path,
    constant_path,
    coords_and_velocities,
    juxtapose,
    line_path,
    path_from_exprs,
    path_point,
    path_velocity,
    reparametrize,
    reverse_path,
    subpath,
)


def test_line_path_velocity_is_constant():
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    for t in (0.0, 0.31, 0.77, 1.0):
        v = path_velocity(gamma, t)
        assert np.allclose(v.components, [1.0, 0.0], atol=1e-14)


def test_circle_velocity_at_zero():
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0 * np.pi)
    v = path_velocity(gamma, 0.0)
    assert np.allclose(v.components, [0.0, 2.0 * np.pi], atol=1e-12)


def test_constant_path_velocity_vanishes():
    gamma = constant_path(ChartPoint(0, [0.4, -0.2]))
    for t in np.linspace(0.0, 1.0, 7):
        assert np.allclose(path_velocity(gamma, t).components, 0.0, atol=1e-15)
        assert np.allclose(path_point(gamma, t).coords, [0.4, -0.2], atol=1e-15)


def test_breakpoint_one_sided_velocities():
    # same straight image, second half traversed at double parameter speed
    u = var(0)
    seg1 = Segment(0, (u * lit(0.5), lit(0.0)), 0.0, 0.75)
    seg2 = Segment(0, (lit(0.5) + u * lit(0.5), lit(0.0)), 0.75, 1.0)
    gamma = PathSpec((seg1, seg2))
    left = path_velocity(gamma, 0.75, side="left")
    right = path_velocity(gamma, 0.75, side="right")
    assert left.components[0] == pytest.approx(0.5 / 0.75)
    assert right.components[0] == pytest.approx(0.5 / 0.25)


def test_out_of_range_parameter():
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    with pytest.raises(OutOfRangeError):
        path_point(gamma, 1.2)
    with pytest.raises(OutOfRangeError):
        path_velocity(gamma, -0.3)


def test_juxtapose_concatenates():
    g1 = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    g2 = line_path(ChartPoint(0, [1.0, 0.0]), [2.0, 0.0])
    g = juxtapose(g1, g2)
    assert np.allclose(path_point(g, 0.0).coords, [0.0, 0.0])
    assert np.allclose(path_point(g, 0.5).coords, [1.0, 0.0])
    assert np.allclose(path_point(g, 1.0).coords, [2.0, 0.0])
    assert np.allclose(path_point(g, 0.25).coords, [0.5, 0.0], atol=1e-14)


def test_juxtapose_endpoint_mismatch():
    g1 = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    g2 = line_path(ChartPoint(0, [1.1, 0.0]), [2.0, 0.0])
    with pytest.raises(EndpointMismatchError):
        juxtapose(g1, g2)


def test_juxtapose_across_charts_needs_atlas():
    g1 = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    g2 = line_path(ChartPoint(1, [1.0, 0.0]), [2.0, 0.0])
    with pytest.raises(EndpointMismatchError):
        juxtapose(g1, g2)


def test_reparametrize_identity():
    gamma = arc_path(0, [0.5, 0.0], 0.8, 0.2, 2.0)
    rep = reparametrize(gamma, parse("x1", 1))
    for t in np.linspace(0.0, 1.0, 9):
        assert np.allclose(path_point(rep, t).coords, path_point(gamma, t).coords, atol=1e-14)


def test_reparametrize_square_keeps_image_and_endpoints():
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [2.0, 1.0])
    rep = reparametrize(gamma, parse("x1^2", 1))
    assert np.allclose(path_point(rep, 0.0).coords, [0.0, 0.0])
    assert np.allclose(path_point(rep, 1.0).coords, [2.0, 1.0])
    assert np.allclose(path_point(rep, 0.5).coords, path_point(gamma, 0.25).coords, atol=1e-14)


def test_reparametrize_rejects_non_monotone():
    gamma = line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0])
    with pytest.raises(NotMonotoneError):
        reparametrize(gamma, parse("sin(x1)", 1))  # alpha(1) != 1
    with pytest.raises(NotMonotoneError):
        reparametrize(gamma, parse("x1 + sin(6.283185307179586*x1)", 1))


def test_reparametrize_pointwise_identity_property():
    """path_point(reparametrize(gamma, alpha), t) == path_point(gamma, alpha(t))."""
    gamma = juxtapose(
        line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 1.0]),
        arc_path(0, [1.0, 0.0], 1.0, np.pi / 2.0, 0.0),
    )
    alpha = parse("x1^2", 1)
    rep = reparametrize(gamma, alpha)
    rng = np.random.default_rng(42)
    for t in rng.uniform(0.0, 1.0, 100):
        lhs = path_point(rep, t).coords
        rhs = path_point(gamma, exprs.evaluate(alpha, [t])).coords
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_reverse_path():
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, np.pi)
    rev = reverse_path(gamma)
    for t in np.linspace(0.0, 1.0, 11):
        assert np.allclose(
            path_point(rev, t).coords, path_point(gamma, 1.0 - t).coords, atol=1e-13
        )


def test_subpath_matches_parent():
    gamma = juxtapose(
        line_path(ChartPoint(0, [0.0, 0.0]), [1.0, 0.0]),
        line_path(ChartPoint(0, [1.0, 0.0]), [1.0, 1.0]),
    )
    sub = subpath(gamma, 0.25, 0.75)
    for t in np.linspace(0.0, 1.0, 11):
        expect = path_point(gamma, 0.25 + 0.5 * t).coords
        assert np.allclose(path_point(sub, t).coords, expect, atol=1e-13)


def test_pathspec_requires_contiguous_cover():
    u = var(0)
    with pytest.raises(OutOfRangeError):
        PathSpec((Segment(0, (u,), 0.0, 0.5),))  # does not reach 1
    with pytest.raises(EndpointMismatchError):
        PathSpec(
            (
                Segment(0, (u,), 0.0, 0.5),
                Segment(0, (lit(2.0) + u,), 0.5, 1.0),  # jumps from 1 to 2
            )
        )


def test_path_from_exprs_multi_segment_even_split():
    u = var(0)
    gamma = path_from_exprs(0, [[u, lit(0.0)], [lit(1.0), u]])
    assert gamma.segments[0].t1 == pytest.approx(0.5)
    assert np.allclose(path_point(gamma, 0.5).coords, [1.0, 0.0])


# --- compiled coordinates: a fixed cost per segment, paid once ---------------

def test_segment_compiles_each_program_once(monkeypatch):
    """Repeated point_at, path_point, path_velocity and
    coords_and_velocities calls compile the segment's coordinates once and
    its coordinates with velocities once."""
    gamma = arc_path(0, [0.0, 0.0], 1.0, 0.0, 2.0)
    seg = gamma.segments[0]
    compiled = []
    original = exprs.Program.__init__

    def counting(self, es, grad_axes=0):
        compiled.append(grad_axes)
        original(self, es, grad_axes)

    monkeypatch.setattr(exprs.Program, "__init__", counting)
    out = np.empty((2, 2, 1, 3))
    for u in (0.0, 0.25, 0.5, 1.0):
        seg.point_at(u)
        path_point(gamma, u)
        path_velocity(gamma, u)
        coords_and_velocities((seg,), [0.0, u, 1.0], out)
    assert compiled == [0, 1]
    assert np.allclose(out[0, :, 0, 1], [np.cos(2.0), np.sin(2.0)], atol=1e-15)
    assert np.allclose(out[1, :, 0, 1], [-2.0 * np.sin(2.0), 2.0 * np.cos(2.0)], atol=1e-14)


def test_segment_programs_are_freed_with_the_segment():
    seg = Segment(0, (lit(0.1) + var(0), lit(0.2) * var(0)), 0.0, 1.0)
    seg.point_at(0.5)
    coords_and_velocities((seg,), [0.5], np.empty((2, 2, 1, 1)))
    programs = [weakref.ref(seg._program), weakref.ref(seg._dual_program)]
    del seg
    assert [ref() for ref in programs] == [None, None]


# --- straight segments: the closed form is the compiled program, bit for bit --

_slopes = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))
_offsets = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
_ranges = st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.25, 0.75), (0.1, 0.3)])
_params = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _segments(draw, straight):
    """A 2-dim Segment whose coordinates are lit(a) + lit(b)*x1, straight,
    or an arc, or a look-alike of a line that must not take the closed
    form."""
    t0, t1 = draw(_ranges)
    u = var(0)
    if straight:
        coords = tuple(lit(draw(_offsets)) + lit(draw(_slopes)) * u for _ in range(2))
    else:
        a, b = draw(_offsets), draw(_slopes)
        coords = draw(st.sampled_from([
            (exprs.cos(lit(b) * u), exprs.sin(lit(b) * u)),
            (u, lit(a) + lit(b) * u),
            (lit(b) * u + lit(a), lit(a) + lit(b) * u),
            (lit(a) + u * lit(b), lit(a) + lit(b) * u),
            (lit(a) - lit(b) * u, lit(a) + lit(b) * u),
        ]))
    return Segment(0, coords, t0, t1)


def _programmed(seg, us):
    """Coordinates and global-t velocities of seg from its compiled
    programs, as (dim, len(us)) arrays."""
    pts, grads = exprs.evaluate_dual_many(seg._dual_program, np.asarray(us)[:, None])
    return pts.T, grads[:, :, 0].T / (seg.t1 - seg.t0)


@seed(20261025)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.data()), min_size=1, max_size=5),
       st.lists(_params, min_size=1, max_size=6))
def test_straight_segments_equal_their_programs_bit_for_bit(picks, us):
    """point_at, path_point, path_velocity and coords_and_velocities give
    the compiled programs' bits on straight segments (slopes of +-0.0, 1.0
    and others), also in batches mixed with curved segments and with
    look-alikes of a line, which take the program route."""
    segs = [data.draw(_segments(straight)) for straight, data in picks]
    for seg, (straight, _) in zip(segs, picks):
        assert (seg._line is not None) == straight
    X, V = coords_and_velocities(segs, us, np.empty((2, 2, len(segs), len(us))))
    for p, seg in enumerate(segs):
        want_x, want_v = _programmed(seg, us)
        assert X[:, p].tobytes() == want_x.tobytes()
        assert V[:, p].tobytes() == want_v.tobytes()
        gamma = PathSpec((Segment(seg.chart_id, seg.coords, 0.0, 1.0),))
        for j, u in enumerate(us):
            assert seg.point_at(u).tobytes() == want_x[:, j].tobytes()
            at = path_point(gamma, u).coords
            program = exprs.evaluate_many(seg._program, [[u]])[0]
            assert at.tobytes() == program.tobytes()
            vel = path_velocity(gamma, u)
            want = _programmed(gamma.segments[0], [u])
            assert vel.base.coords.tobytes() == want[0][:, 0].tobytes()
            assert vel.components.tobytes() == want[1][:, 0].tobytes()


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_offsets, _slopes), min_size=1, max_size=4), st.booleans())
def test_line_segment_fills_in_the_line_it_would_parse(pairs, as_arrays):
    """_line_segment's filled-in _line holds the bytes, -0.0 included, and
    the Python floats that a fresh Segment parses from its coordinates."""
    a, b = (list(c) for c in zip(*pairs))
    if as_arrays:
        a, b = np.array(a), np.array(b)
    [seg] = paths._line_segment(3, a, b).segments
    fresh = Segment(seg.chart_id, seg.coords, 0.0, 1.0)._line
    assert np.array(seg._line).tobytes() == np.array(fresh).tobytes()
    assert {type(v) for pair in seg._line for v in pair} == {float}


def test_straight_segment_keeps_the_finite_check():
    """A line that overflows raises the DomainError its program raises."""
    seg = Segment(0, (lit(1e308) + lit(1e308) * var(0),), 0.0, 1.0)
    assert seg._line is not None
    with pytest.raises(exprs.DomainError, match="overflowed"):
        seg.point_at(1.0)
    with pytest.raises(exprs.DomainError, match="overflowed"):
        coords_and_velocities((seg,), [0.0, 1.0], np.empty((2, 1, 1, 2)))
    with pytest.raises(exprs.DomainError, match="overflowed"):
        exprs.evaluate_many(seg._program, [[1.0]])


def test_coords_and_velocities_refuses_rows_it_cannot_write_in_place():
    """A batch's runs of curved segments are written through reshaped views
    of X and V, so arrays that are not C-contiguous, whose reshape would be
    a copy, are refused rather than left unwritten."""
    arc = arc_path(0, (0.0, 0.0), 0.5, 0.0, 1.0).segments[0]
    out = np.empty((2, 2, 5, 2)).swapaxes(2, 3)  # (2, dim, 2 segments, 5 points)
    with pytest.raises(ValidationError, match="C-contiguous"):
        coords_and_velocities((arc, arc), np.linspace(0.0, 1.0, 5), out)
