"""Chart points, tangent vectors, and piecewise-smooth parametric paths.

A path is a list of segments; each segment names a chart and carries one
coordinate expression per axis in the local parameter x1 in [0, 1], plus the
global parameter subrange it occupies.  The global parameter always runs
over [0, 1].  Velocities come from exact symbolic derivatives (exprs.diff),
rescaled by the segment chain rule.  A segment compiles its coordinates,
and its coordinates with their derivatives, into exprs Programs on first
use, so a path evaluated again and again compiles once.  A straight
segment, whose every coordinate has the AST lit(a) + lit(b)*x1, compiles
nothing.  Segment._line reads that shape from the AST alone and keeps the
(a_i, b_i) pairs as Python floats; _line_segment, which builds line_path
and the reconstruction probes, fills them in from the floats it writes
into the AST, so a probe never parses its own.  Such a segment is
evaluated in closed form, a + b u with the constant velocity
b/(t1 - t0), bit for bit what its programs give: one point in Python
floats, and a batch's straight segments by one broadcast over one array
of their pairs.  The segment of a homotopy family's member carries the
tag (family, s), Segment._member, unless s == 0: a batch's members of one
family that sit side by side run the family's one program over (t, s),
bit for bit what their own programs give, and compile nothing of their
own.  An s = 0 member runs its own programs, since diff folds its
literal zero factor.

The path algebra here (constant paths, juxtaposition, reparametrization,
reversal) is what the transport axioms quantify over.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprs
from .errors import (
    DomainError,
    EndpointMismatchError,
    NotMonotoneError,
    OutOfRangeError,
    ValidationError,
)
from .exprs import Expr, lit, parse, substitute, var

__all__ = [
    "ChartPoint",
    "box_grid",
    "TangentVector",
    "Segment",
    "PathSpec",
    "path_point",
    "path_velocity",
    "constant_path",
    "juxtapose",
    "reparametrize",
    "reverse_path",
    "subpath",
    "line_path",
    "arc_path",
    "path_from_exprs",
    "path_from_strings",
    "coords_and_velocities",
]

_ENDPOINT_TOL = 1e-10
_MONOTONE_SAMPLES = 101  # points at which reparametrize checks alpha


@dataclass(frozen=True)
class ChartPoint:
    """A base-manifold point given by chart id and chart coordinates."""

    chart_id: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self):
        return len(self.coords)


def _wrap_point(chart_id, coords):
    """A ChartPoint on coords itself, a read-only float array that nothing
    else writes, without ChartPoint's copy and flag-set."""
    pt = object.__new__(ChartPoint)
    object.__setattr__(pt, "chart_id", chart_id)
    object.__setattr__(pt, "coords", coords)
    return pt


def _chart_points(chart_id, X):
    """ChartPoints of the rows of an (m, n) array: read-only views of one
    copy."""
    X = np.array(X, dtype=float)
    X.flags.writeable = False
    return [_wrap_point(chart_id, row) for row in X]


def box_grid(chart_id, lo, hi, shape):
    """Uniform grid of ``shape`` points per axis over the box [lo, hi], as
    ChartPoints with the first axis varying slowest."""
    if shape < 1:
        raise ValidationError(f"grid shape must be >= 1, got {shape}")
    axes = [np.linspace(a, b, shape) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [ChartPoint(chart_id, row) for row in np.stack([g.ravel() for g in mesh], axis=1)]


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a chart point, in chart coordinates."""

    base: ChartPoint
    components: np.ndarray

    def __post_init__(self):
        c = np.array(self.components, dtype=float)
        if len(c) != self.base.dim:
            raise OutOfRangeError(
                f"tangent vector has {len(c)} components on a {self.base.dim}-dim chart"
            )
        c.flags.writeable = False
        object.__setattr__(self, "components", c)


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a path.

    coords are expressions in the local parameter x1 in [0, 1]; (t0, t1) is
    the global parameter subrange, with t1 > t0.
    """

    chart_id: int
    coords: tuple
    t0: float
    t1: float

    # (family, s) on the one segment of a HomotopyFamily member with s != 0,
    # which that member fills in: coords_and_velocities then runs the
    # family's program at (u, s) in place of this segment's _dual_program
    _member = None

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise OutOfRangeError(f"empty segment range [{self.t0}, {self.t1}]")
        coords = tuple(c.with_dim(1) if c.dim == 0 else c for c in self.coords)
        for c in coords:
            if c.dim != 1:
                raise OutOfRangeError("segment coordinates must be functions of x1 only")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self):
        return len(self.coords)

    @cached_property
    def _program(self):
        return exprs.Program(self.coords)

    @cached_property
    def _dual_program(self):
        return exprs.Program(self.coords, 1)

    @cached_property
    def _line(self):
        """The (a_i, b_i) pairs, as Python floats, when every coordinate's
        AST is lit(a_i) + lit(b_i)*x1, as _line_segment builds it for
        line_path and the reconstruction probes (and fills this in): the
        segment is then the line a + b u.  None for any other AST: the
        segment runs its compiled programs.  Both give the same bits."""
        ab = []
        for c in self.coords:
            ast = c.ast
            if not (
                ast[0] == "add"
                and ast[1][0] == "num"
                and ast[2][0] == "mul"
                and ast[2][1][0] == "num"
                and ast[2][2] == ("var", 0)
            ):
                return None
            ab.append((ast[1][1], ast[2][1][1]))
        return tuple(ab)

    def point_at(self, u):
        line = self._line
        if line is not None:
            # Python floats round as numpy's float64 ops do, at a fraction
            # of their fixed cost on a few entries
            u = float(u)
            x = [a + b * u for a, b in line]
            if not all(map(math.isfinite, x)):
                raise DomainError("evaluation overflowed to inf/nan")
            return np.array(x)
        # a one-point evaluation is all fixed cost: the program runs
        # directly, without evaluate_many's input checks and allocations
        out = np.empty(len(self.coords))
        self._program.run([np.array([u], dtype=float)], out[:, None])
        return exprs._finite_or_raise(out)


def coords_and_velocities(segments, us, out):
    """Coordinates and global-t velocities of segments at their local
    parameters us, written component-major into out = (X, V), two
    C-contiguous (dim, len(segments), len(us)) arrays, and returned.  Each
    segment's velocities carry its 1/(t1 - t0) chain-rule factor.  The
    straight segments (Segment._line) are written by one broadcast over
    one array of their (a_i, b_i) pairs: x = a + b u and the constant
    velocity b'/(t1 - t0), where b' is b with a zero of either sign
    written +0.0, as diff folds it.  Members of one homotopy family
    (Segment._member) that sit side by side run their family's program
    once, on the columns (u, s) of all of them stacked; every other
    segment runs its own compiled program.  Each run writes straight into
    its rows of X and V, so no scratch beyond the program's own grows with
    the batch.
    """
    X, V = out
    if not (X.flags.c_contiguous and V.flags.c_contiguous):  # else a reshape below copies
        raise ValidationError("coords_and_velocities writes into C-contiguous arrays")
    us = np.asarray(us, dtype=float)
    lines = [seg._line for seg in segments]
    straight = [p for p, line in enumerate(lines) if line is not None]
    if straight:
        # (dim, len(straight), 1) each
        a, b = np.array([lines[p] for p in straight], dtype=float).T[..., None]
        width = np.array([[segments[p].t1 - segments[p].t0] for p in straight])
        at = slice(None) if len(straight) == len(segments) else straight
        with np.errstate(over="ignore", invalid="ignore"):  # as in a program run
            X[:, at] = exprs._finite_or_raise(a + b * us)
        V[:, at] = exprs._finite_or_raise((b + 0.0) / width)  # -0.0 + 0.0 is +0.0
    runs = []  # [lo, hi, family] of each run of curved segments, family None for one alone
    for p, (seg, line) in enumerate(zip(segments, lines)):
        family = None if line is not None or seg._member is None else seg._member[0]
        if family is not None and runs and runs[-1][1] == p and runs[-1][2] is family:
            runs[-1][1] += 1
        elif line is None:
            runs.append([p, p + 1, family])
    for lo, hi, family in runs:
        # rows lo:hi of X and V, each (dim, hi - lo, len(us)), written in place
        X_run, V_run, flat = X[:, lo:hi], V[:, lo:hi], (hi - lo) * len(us)
        if family is None:
            program, cols = segments[lo]._dual_program, [us]
        else:
            s = [segments[p]._member[1] for p in range(lo, hi)]
            program, cols = family._dual_program, [np.tile(us, hi - lo), np.repeat(s, len(us))]
        program.run(cols, [*X_run.reshape(-1, flat), *V_run.reshape(-1, flat)])
        exprs._finite_or_raise(X_run)
        exprs._finite_or_raise(V_run)
        V_run /= np.array([[segments[p].t1 - segments[p].t0] for p in range(lo, hi)])
    return out


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-smooth path over the global parameter range [0, 1].

    Segment ranges must tile [0, 1] in order; adjacent same-chart segments
    must agree at the junction within 1e-10.  Junctions that switch charts
    are validated by the transport engine, which knows the transition maps.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise OutOfRangeError("a path needs at least one segment")
        if abs(segs[0].t0) > 1e-12 or abs(segs[-1].t1 - 1.0) > 1e-12:
            raise OutOfRangeError("segment ranges must cover [0, 1]")
        for a, b in zip(segs, segs[1:]):
            if abs(a.t1 - b.t0) > 1e-12:
                raise OutOfRangeError("segment ranges must be contiguous")
            if a.chart_id == b.chart_id:
                gap = np.max(np.abs(a.point_at(1.0) - b.point_at(0.0)))
                if gap > _ENDPOINT_TOL:
                    raise EndpointMismatchError(
                        f"segments disagree at t={b.t0:.6g} by {gap:.3e}"
                    )
        object.__setattr__(self, "segments", segs)

    @property
    def breakpoints(self):
        return [s.t0 for s in self.segments[1:]]

    @cached_property
    def _starts(self):
        return [s.t0 for s in self.segments]

    def segment_index_at(self, t, side="right"):
        """Segment owning parameter t; the right segment wins at interior
        breakpoints (the left one at t = 1), side="left" flips that."""
        if t < -1e-12 or t > 1.0 + 1e-12:
            raise OutOfRangeError(f"parameter {t} outside [0, 1]")
        if len(self.segments) == 1:
            return 0
        t = min(max(t, 0.0), 1.0)
        starts = self._starts
        if side == "left":
            i = bisect.bisect_left(starts, t) - 1
            i = max(i, 0)
        else:
            i = bisect.bisect_right(starts, t) - 1
        return min(i, len(self.segments) - 1)


def path_point(gamma, t, side="right"):
    """Evaluate a path at global parameter t."""
    i = gamma.segment_index_at(t, side)
    seg = gamma.segments[i]
    u = (min(max(t, 0.0), 1.0) - seg.t0) / (seg.t1 - seg.t0)
    coords = seg.point_at(u)  # a fresh array
    coords.flags.writeable = False
    return _wrap_point(seg.chart_id, coords)


def path_velocity(gamma, t, side="right"):
    """Velocity (d/dt of chart coordinates) at global parameter t.

    At a breakpoint the two one-sided values may differ; pick one with
    ``side``.
    """
    i = gamma.segment_index_at(t, side)
    seg = gamma.segments[i]
    u = (min(max(t, 0.0), 1.0) - seg.t0) / (seg.t1 - seg.t0)
    X, V = coords_and_velocities((seg,), [u], np.empty((2, seg.dim, 1, 1)))
    return TangentVector(ChartPoint(seg.chart_id, X[:, 0, 0]), V[:, 0, 0])


# --- constructors ---------------------------------------------------------------

def path_from_exprs(chart_id, coords, ranges=None):
    """Single- or multi-segment path from expression vectors.

    ``coords`` is either one list of Exprs (one segment) or a list of such
    lists; ``ranges`` optionally gives the (t0, t1) per segment, defaulting
    to an even split of [0, 1].
    """
    if coords and isinstance(coords[0], Expr):
        coords = [coords]
    n = len(coords)
    if ranges is None:
        ranges = [(i / n, (i + 1) / n) for i in range(n)]
    segs = [
        Segment(chart_id, tuple(cs), r[0], r[1]) for cs, r in zip(coords, ranges)
    ]
    return PathSpec(tuple(segs))


def path_from_strings(chart_id, sources, ranges=None):
    """Like path_from_exprs but parsing coordinate functions of x1."""
    if sources and isinstance(sources[0], str):
        sources = [sources]
    coords = [[parse(s, 1) for s in group] for group in sources]
    return path_from_exprs(chart_id, coords, ranges)


def constant_path(x):
    """The constant path at a chart point."""
    return path_from_exprs(x.chart_id, [lit(c) for c in x.coords])


def line_path(a, b_coords, chart_id=None):
    """Straight coordinate path from point a to coordinates b."""
    if isinstance(a, ChartPoint):
        chart_id = a.chart_id if chart_id is None else chart_id
        a_coords = a.coords
    else:
        a_coords = np.asarray(a, dtype=float)
        chart_id = 0 if chart_id is None else chart_id
    b = np.asarray(b_coords, dtype=float)
    return _line_segment(chart_id, a_coords, [bi - ai for ai, bi in zip(a_coords, b)])


def _line_segment(chart_id, a, b):
    """The one-segment path a + b u, u in [0, 1], its coordinates built in
    one step as the AST lit(a_i) + lit(b_i)*x1, with Segment._line filled
    in from the same floats."""
    ab = tuple((float(ai), float(bi)) for ai, bi in zip(a, b))
    coords = tuple(
        Expr(("add", ("num", ai), ("mul", ("num", bi), ("var", 0))), 1) for ai, bi in ab
    )
    seg = Segment(chart_id, coords, 0.0, 1.0)
    seg.__dict__["_line"] = ab  # what the cached property would parse from coords
    return PathSpec((seg,))


def arc_path(chart_id, center, radius, theta0, theta1):
    """Planar circular arc from angle theta0 to theta1 (2-dim charts)."""
    u = var(0)
    angle = lit(theta0) + lit(theta1 - theta0) * u
    coords = [
        lit(center[0]) + lit(radius) * exprs.cos(angle),
        lit(center[1]) + lit(radius) * exprs.sin(angle),
    ]
    return path_from_exprs(chart_id, coords)


# --- path algebra ---------------------------------------------------------------

def _rescale(segs, lo, hi):
    width = hi - lo
    return [
        Segment(s.chart_id, s.coords, lo + s.t0 * width, lo + s.t1 * width)
        for s in segs
    ]


def juxtapose(gamma1, gamma2, atlas=None):
    """Concatenate: run gamma1 over [0, 1/2], then gamma2 over [1/2, 1].

    The end of gamma1 must match the start of gamma2 within 1e-10; when the
    charts differ, ``atlas`` (any object with a ``map_point`` method, e.g. a
    ConnectionForm) supplies the transition map for the comparison.
    """
    end = path_point(gamma1, 1.0)
    start = path_point(gamma2, 0.0)
    if end.chart_id == start.chart_id:
        gap = np.max(np.abs(end.coords - start.coords))
    elif atlas is not None:
        mapped = atlas.map_point(end, start.chart_id)
        gap = np.max(np.abs(mapped.coords - start.coords))
    else:
        raise EndpointMismatchError(
            f"paths meet on different charts ({end.chart_id} vs {start.chart_id}) "
            "and no atlas was given"
        )
    if gap > _ENDPOINT_TOL:
        raise EndpointMismatchError(f"endpoints differ by {gap:.3e}")
    segs = _rescale(gamma1.segments, 0.0, 0.5) + _rescale(gamma2.segments, 0.5, 1.0)
    return PathSpec(tuple(segs))


def _check_monotone(alpha):
    ts = np.linspace(0.0, 1.0, _MONOTONE_SAMPLES)[:, None]
    vals, grads = exprs.evaluate_dual_many((alpha,), ts)
    vals, slopes = vals[:, 0], grads[:, 0, 0]
    if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
        raise NotMonotoneError(
            f"reparametrization must map 0 to 0 and 1 to 1, got "
            f"({vals[0]:.3e}, {vals[-1]:.6g})"
        )
    # weakly increasing: the derivative may vanish at isolated points
    # (e.g. t^2 at t = 0) but must never be negative
    if np.min(slopes) < -1e-9:
        raise NotMonotoneError("reparametrization derivative is negative")
    if np.min(np.diff(vals)) < -1e-12:
        raise NotMonotoneError("reparametrization values are not increasing")
    return vals


def _invert_monotone(alpha, target):
    """Solve alpha(t) = target on [0, 1] by bisection."""
    program = exprs.Program((alpha,))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if exprs.evaluate_many(program, [[mid]])[0, 0] < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def reparametrize(gamma, alpha):
    """Precompose: result(t) = gamma(alpha(t)).

    alpha is an Expr in x1 with alpha(0) = 0, alpha(1) = 1, weakly
    increasing (checked at 101 sample points).
    """
    alpha = alpha.with_dim(1) if alpha.dim == 0 else alpha
    _check_monotone(alpha)
    u = var(0)
    new_segs = []
    # pull each old breakpoint back through alpha
    cuts = [0.0] + [_invert_monotone(alpha, b) for b in gamma.breakpoints] + [1.0]
    for seg, s0, s1 in zip(gamma.segments, cuts, cuts[1:]):
        if not s1 > s0:
            # alpha flat across this segment: it collapses to nothing
            continue
        # local u in the new segment -> global t' -> a = alpha(t') ->
        # old local parameter (a - t0) / (t1 - t0)
        t_of_u = lit(s0) + lit(s1 - s0) * u
        a_of_u = substitute(alpha, [t_of_u])
        u_old = (a_of_u - lit(seg.t0)) / lit(seg.t1 - seg.t0)
        coords = tuple(substitute(c, [u_old]) for c in seg.coords)
        new_segs.append(Segment(seg.chart_id, coords, s0, s1))
    return PathSpec(tuple(new_segs))


def reverse_path(gamma):
    """Orientation reversal: result(t) = gamma(1 - t)."""
    u = var(0)
    flipped = lit(1.0) - u
    segs = []
    for seg in reversed(gamma.segments):
        coords = tuple(substitute(c, [flipped]) for c in seg.coords)
        segs.append(Segment(seg.chart_id, coords, 1.0 - seg.t1, 1.0 - seg.t0))
    return PathSpec(tuple(segs))


def subpath(gamma, a, b):
    """Restriction of gamma to global [a, b], rescaled onto [0, 1]."""
    if not (0.0 <= a < b <= 1.0 + 1e-15):
        raise OutOfRangeError(f"invalid subrange [{a}, {b}]")
    b = min(b, 1.0)
    u = var(0)
    width = b - a
    segs = []
    for seg in gamma.segments:
        lo = max(seg.t0, a)
        hi = min(seg.t1, b)
        if hi - lo < 1e-15:
            continue
        # new local u -> global t -> old local parameter
        t_of_u = lit(lo) + lit(hi - lo) * u
        u_old = (t_of_u - lit(seg.t0)) / lit(seg.t1 - seg.t0)
        coords = tuple(substitute(c, [u_old]) for c in seg.coords)
        segs.append(Segment(seg.chart_id, coords, (lo - a) / width, (hi - a) / width))
    # snap roundoff at the ends so PathSpec's coverage check passes
    first, last = segs[0], segs[-1]
    segs[0] = Segment(first.chart_id, first.coords, 0.0, first.t1)
    segs[-1] = Segment(last.chart_id, last.coords, last.t0, 1.0)
    return PathSpec(tuple(segs))
