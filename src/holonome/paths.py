"""Chart points, tangent vectors, and piecewise-smooth parametric paths.

A path is a list of segments over the global parameter range [0, 1]; each
segment names a chart and the subrange [t0, t1] it occupies.  A segment
is a source seen through an affine window: its local parameter u in
[0, 1] reads the source at w0 + (w1 - w0) u.  A source (_Source) is one
of two things.  Either it is coordinate expressions, over x1, or over
(x1, x2) = (u, s) for a homotopy family with s bound per segment, which
it compiles with their exact derivatives (exprs.diff) into exprs
Programs on first use.  Or it is the pairs (a_i, b_i) of a straight line
a + b u, as Python floats, which a segment that sees it whole evaluates
in closed form, bit for bit what its programs would give: one point in
Python floats, and a batch's straight segments by one broadcast over one
array of their pairs.

Restriction (subpath), reversal (the window [1, 0]), juxtaposition, the
two parts of a chart exit and a family's members are new windows on
their sources, and build no substituted copy.  A segment that sees its
source whole runs the source's own programs.  A narrower window runs the
source's windowed pair, compiled once per source, with the affine map
inside and w0, w1 - w0 as inputs, so its arithmetic is that of a
substituted copy and its velocities carry the chain-rule factor
(w1 - w0)/(t1 - t0): a path evaluated again and again, and every piece
cut from it, compiles nothing after its first evaluation.
Segment.coords, the coordinates as expressions in x1, is built from the
source when first read.  A batch's segments that sit side by side and
see one source whole run its program once (coords_and_velocities).

The path algebra here (constant paths, juxtaposition, reparametrization,
reversal) is what the transport axioms quantify over.
"""

from __future__ import annotations

import bisect
import math
import struct
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
    else writes, without ChartPoint's copy and flag-set: its fields are
    written into its __dict__, past the frozen dataclass's __setattr__."""
    pt = object.__new__(ChartPoint)
    pt.__dict__["chart_id"], pt.__dict__["coords"] = chart_id, coords
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


def _line_of(coords):
    """The (a_i, b_i) pairs, as Python floats, when every coordinate's AST
    is lit(a_i) + lit(b_i)*x1, else None."""
    ab = []
    for c in coords:
        match c.ast:
            case ("add", ("num", a), ("mul", ("num", b), ("var", 0))):
                ab.append((a, b))
            case _:
                return None
    return tuple(ab)


class _Source:
    """What segments evaluate: coordinate expressions, over x1, or over
    (x1, x2) = (u, s) for a homotopy family, with their programs compiled
    on first use; or, when line holds the pairs (a_i, b_i), the straight
    line a + b u, whose coordinates lit(a_i) + lit(b_i)*x1 are built only
    when read.  moved(tr) is the source composed with a transition's
    coordinate map, kept per transition."""

    def __init__(self, coords=None, line=None):
        if coords is not None:
            self.coords = coords
        self.line = line
        self._moved = {}  # id(tr) -> (tr, source), tr kept so its id stays its own

    @cached_property
    def coords(self):
        return tuple(Expr(("add", ("num", a), ("mul", ("num", b), ("var", 0))), 1)
                     for a, b in self.line)

    @cached_property
    def program(self):
        return exprs.Program(self.coords)

    @cached_property
    def dual_program(self):
        """The coordinates and their derivatives in x1 = u."""
        return exprs.Program(self.coords, 1)

    @cached_property
    def windowed(self):
        """The value program and the dual program of the coordinates at
        x3 + x4 x1, the window [w0, w1] = [x3, x3 + x4] seen at x1, with s at
        x2 on a family's: the affine map runs inside, as in a substituted
        copy, and the derivatives in x1 carry its factor x4 = w1 - w0."""
        at = [var(2, 4) + var(3, 4) * var(0, 4), var(1, 4)]
        coords = tuple(substitute(c, at) for c in self.coords)
        return exprs.Program(coords), exprs.Program(coords, 1)

    def run(self, dual, window, cols, out):
        """Run the value or the dual program on the input columns
        cols = [u, s]: its own on the window [0, 1], else the windowed one,
        with w0 and w1 - w0 as scalars."""
        if window is None:
            (self.dual_program if dual else self.program).run(cols, out)
        else:
            w0, w1 = window
            self.windowed[dual].run(cols + [np.array(w0), np.array(w1 - w0)], out)

    def moved(self, tr):
        if id(tr) not in self._moved:
            composed = tuple(substitute(c, self.coords) for c in tr.coord_map)
            self._moved[id(tr)] = (tr, _Source(composed))
        return self._moved[id(tr)][1]


class Segment:
    """One smooth piece of a path: a source (_Source) seen through the
    window u -> w0 + (w1 - w0) u (_window, None for [0, 1]), at s (_s) when
    the source is a homotopy family's, over the global parameter subrange
    [t0, t1], t1 > t0.

    Segment(chart_id, coords, t0, t1) makes the source from coordinate
    expressions in the local parameter x1 in [0, 1]: a line when every
    coordinate's AST is lit(a_i) + lit(b_i)*x1.  coords reads them back;
    on a segment made any other way it is built from the source, the
    window and s on first read.
    """

    def __init__(self, chart_id, coords, t0, t1):
        coords = tuple(c.with_dim(1) if c.dim == 0 else c for c in coords)
        if any(c.dim != 1 for c in coords):
            raise OutOfRangeError("segment coordinates must be functions of x1 only")
        self._see(chart_id, _Source(coords, _line_of(coords)), t0, t1)

    def _see(self, chart_id, src, t0, t1, window=None, s=None):
        if not t1 > t0:
            raise OutOfRangeError(f"empty segment range [{t0}, {t1}]")
        self.chart_id, self.t0, self.t1 = chart_id, t0, t1
        self._src, self._s = src, s
        self._window = None if window == (0.0, 1.0) else window
        return self

    def _part(self, t0, t1, u0=0.0, u1=1.0):
        """The stretch [u0, u1] of this segment over the global range
        [t0, t1]: its source through the window of its window."""
        window = self._window
        if (u0, u1) != (0.0, 1.0):
            w0, w1 = window or (0.0, 1.0)
            window = (w0 + (w1 - w0) * u0, w0 + (w1 - w0) * u1)
        return _view(self.chart_id, self._src, t0, t1, window, self._s)

    @cached_property
    def coords(self):
        if self._window is None and self._s is None:
            return self._src.coords
        u = var(0)
        if self._window is not None:
            w0, w1 = self._window
            u = lit(w0) + lit(w1 - w0) * u
        args = [u] if self._s is None else [u, lit(self._s)]
        return tuple(substitute(c, args) for c in self._src.coords)

    @property
    def dim(self):
        return len(self._src.line or self._src.coords)

    def _fields(self):
        return self.chart_id, self.coords, self.t0, self.t1

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is Segment else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "Segment(chart_id={!r}, coords={!r}, t0={!r}, t1={!r})".format(*self._fields())

    def point_at(self, u):
        """The coordinates at local parameter u, as a fresh read-only array:
        the one evaluation of a point, which path_point reads."""
        line = self._src.line
        if line is not None and self._window is None:
            # Python floats round as numpy's float64 ops do, at a fraction
            # of their fixed cost on a few entries; the array on their
            # packed bytes is read-only without a flag-set
            u = float(u)
            x = [a + b * u for a, b in line]
            if not all(map(math.isfinite, x)):
                raise DomainError("evaluation overflowed to inf/nan")
            return np.frombuffer(struct.pack("d" * len(x), *x))
        # a one-point evaluation is all fixed cost: the program runs
        # directly, without evaluate_many's input checks and allocations
        out = np.empty(self.dim)
        cols = [np.array([u], dtype=float), None if self._s is None else np.array([self._s])]
        self._src.run(False, self._window, cols, out[:, None])
        out.flags.writeable = False
        return exprs._finite_or_raise(out)


def _view(chart_id, src, t0, t1, window=None, s=None):
    """The Segment over [t0, t1] that sees src through window at s."""
    return object.__new__(Segment)._see(chart_id, src, t0, t1, window, s)


def coords_and_velocities(segments, us, out):
    """Coordinates and global-t velocities of segments at their local
    parameters us, written component-major into out = (X, V), two
    C-contiguous (dim, len(segments), len(us)) arrays, and returned.  Each
    segment reads its source at w0 + (w1 - w0) u, so its velocities carry
    the chain-rule factor (w1 - w0)/(t1 - t0).  The straight segments that
    see their line whole are written by one broadcast over one array of
    their (a_i, b_i) pairs: x = a + b u and the constant velocity
    b'/(t1 - t0), where b' is b with a zero of either sign written +0.0, as
    diff folds it.  The curved segments that see a shared source whole and
    sit side by side run its program once, on the columns (u, and s for a
    family) of all of them stacked; a segment with a narrower window runs
    its source's windowed program (_Source.windowed) alone.  Each run
    writes straight into its rows of X and V, so no scratch beyond the
    program's own grows with the batch.
    """
    X, V = out
    if not (X.flags.c_contiguous and V.flags.c_contiguous):  # else a reshape below copies
        raise ValidationError("coords_and_velocities writes into C-contiguous arrays")
    us = np.asarray(us, dtype=float)
    lines = [seg._src.line if seg._window is None else None for seg in segments]
    straight = [p for p, line in enumerate(lines) if line is not None]
    if straight:
        # (dim, len(straight), 1) each
        a, b = np.array([lines[p] for p in straight], dtype=float).T[..., None]
        width = np.array([[segments[p].t1 - segments[p].t0] for p in straight])
        at = slice(None) if len(straight) == len(segments) else straight
        with np.errstate(over="ignore", invalid="ignore"):  # as in a program run
            X[:, at] = exprs._finite_or_raise(a + b * us)
        V[:, at] = exprs._finite_or_raise((b + 0.0) / width)  # -0.0 + 0.0 is +0.0
    runs = []  # [lo, hi] of each run of segments that run a program
    for p, seg in enumerate(segments):
        if lines[p] is None:
            last = segments[p - 1] if runs and runs[-1][1] == p else None
            if last is not None and last._src is seg._src and last._window is None is seg._window:
                runs[-1][1] += 1
            else:
                runs.append([p, p + 1])
    for lo, hi in runs:
        # rows lo:hi of X and V, each (dim, hi - lo, len(us)), written in place
        run, X_run, V_run, flat = segments[lo:hi], X[:, lo:hi], V[:, lo:hi], (hi - lo) * len(us)
        cols = [us if hi == lo + 1 else np.tile(us, hi - lo),
                None if run[0]._s is None else np.repeat([seg._s for seg in run], len(us))]
        outs = [*X_run.reshape(-1, flat), *V_run.reshape(-1, flat)]
        run[0]._src.run(True, run[0]._window, cols, outs)
        exprs._finite_or_raise(X_run)
        exprs._finite_or_raise(V_run)
        V_run /= np.array([[seg.t1 - seg.t0] for seg in run])
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
        t = min(max(t, 0.0), 1.0)
        starts = self._starts
        if side == "left":
            return max(bisect.bisect_left(starts, t) - 1, 0)
        return min(bisect.bisect_right(starts, t) - 1, len(self.segments) - 1)


def path_point(gamma, t, side="right"):
    """Evaluate a path at global parameter t: a ChartPoint on a fresh
    read-only array (Segment.point_at).  A one-segment path takes its
    segment without the search once t is in range; else segment_index_at
    finds it, or raises."""
    segs = gamma.segments
    i = 0 if len(segs) == 1 and -1e-12 <= t <= 1.0 + 1e-12 else gamma.segment_index_at(t, side)
    seg = segs[i]
    u = (min(max(t, 0.0), 1.0) - seg.t0) / (seg.t1 - seg.t0)
    return _wrap_point(seg.chart_id, seg.point_at(u))


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
    segs = (Segment(chart_id, tuple(cs), r[0], r[1]) for cs, r in zip(coords, ranges))
    return PathSpec(tuple(segs))


def path_from_strings(chart_id, sources, ranges=None):
    """Like path_from_exprs but parsing coordinate functions of x1."""
    if sources and isinstance(sources[0], str):
        sources = [sources]
    coords = [[parse(s, 1) for s in group] for group in sources]
    return path_from_exprs(chart_id, coords, ranges)


def constant_path(x):
    """The constant path at a chart point: the straight segment of slope
    zero, which compiles nothing."""
    return _line_segment(x.chart_id, x.coords, [0.0] * x.dim)


def line_path(a, b_coords, chart_id=None):
    """Straight coordinate path from point a to coordinates b."""
    if chart_id is None:
        chart_id = a.chart_id if isinstance(a, ChartPoint) else 0
    a = a.coords if isinstance(a, ChartPoint) else np.asarray(a, dtype=float)
    b = np.asarray(b_coords, dtype=float)
    return _line_segment(chart_id, a, [bi - ai for ai, bi in zip(a, b)])


def _line_segment(chart_id, a, b):
    """The one-segment path a + b u, u in [0, 1], of the pairs (a_i, b_i)
    as Python floats (_line_path)."""
    return _line_path(chart_id, tuple((float(ai), float(bi)) for ai, bi in zip(a, b)))


def _line_path(chart_id, line):
    """The one-segment path a + b u, u in [0, 1], on a line source of the
    pairs line = ((a_i, b_i), ...) of Python floats: its coordinate ASTs
    are built only when read.  One segment over [0, 1] passes PathSpec's
    checks by construction, so they are not run, and its fields are
    written past the frozen dataclass's __setattr__."""
    path = object.__new__(PathSpec)
    path.__dict__["segments"] = (_view(chart_id, _Source(line=line), 0.0, 1.0),)
    return path


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
    return PathSpec(tuple(
        seg._part(lo + seg.t0 * (hi - lo), lo + seg.t1 * (hi - lo))
        for gamma, lo, hi in ((gamma1, 0.0, 0.5), (gamma2, 0.5, 1.0))
        for seg in gamma.segments
    ))


def _check_monotone(alpha):
    ts = np.linspace(0.0, 1.0, _MONOTONE_SAMPLES)[:, None]
    vals, grads = exprs.evaluate_dual_many(alpha._dual_program, ts)
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
    """Solve alpha(t) = target on [0, 1] by bisection, reading alpha's
    values from the dual program _check_monotone ran."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if exprs.evaluate_dual_many(alpha._dual_program, [[mid]])[0][0, 0] < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def reparametrize(gamma, alpha):
    """Precompose: result(t) = gamma(alpha(t)).

    alpha is an Expr in x1 with alpha(0) = 0, alpha(1) = 1, weakly
    increasing (checked at 101 sample points).  The checks and the
    breakpoints' bisection run alpha's dual program, which each Expr
    compiles once (Expr._dual_program).
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
    """Orientation reversal: result(t) = gamma(1 - t), each segment seen
    through the window [1, 0]."""
    return PathSpec(tuple(
        seg._part(1.0 - seg.t1, 1.0 - seg.t0, 1.0, 0.0) for seg in reversed(gamma.segments)
    ))


def subpath(gamma, a, b):
    """Restriction of gamma to global [a, b], rescaled onto [0, 1]: each
    segment it meets seen through the window of the stretch it keeps."""
    if not (0.0 <= a < b <= 1.0 + 1e-15):
        raise OutOfRangeError(f"invalid subrange [{a}, {b}]")
    b = min(b, 1.0)
    width = b - a
    kept = [(seg, max(seg.t0, a), min(seg.t1, b)) for seg in gamma.segments]
    kept = [(seg, lo, hi) for seg, lo, hi in kept if hi - lo >= 1e-15]
    segs = []
    for i, (seg, lo, hi) in enumerate(kept):
        # snap roundoff at the ends so PathSpec's coverage check passes
        t0 = 0.0 if i == 0 else (lo - a) / width
        t1 = 1.0 if i == len(kept) - 1 else (hi - a) / width
        span = seg.t1 - seg.t0
        segs.append(seg._part(t0, t1, (lo - seg.t0) / span, (hi - seg.t0) / span))
    return PathSpec(tuple(segs))
