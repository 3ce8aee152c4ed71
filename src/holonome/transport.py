"""Parallel transport by integrating the horizontal-lift ODE

    U'(t) = -A_{gamma(t)}(gamma'(t)) U(t),    U(0) = I,

with a fourth-order Cayley-Magnus method, whose steps lie on the group.
P(gamma) acts on fiber points by left multiplication in the trivialization,
so juxtaposition composes as P(g2 * g1) = P(g2) P(g1).

Piecewise paths integrate per smooth piece and multiply.  Chart
membership is tested twice: every piece but a path's first has its start
point tested before its pass, since the gauge into its chart needs it, and
each pass tests its own field grid.  When a grid point lies off the chart,
the exit is bisected (to 1e-12 in t) from the last grid point inside, the
piece ends at the last point inside, and the rest starts at the first
point outside, re-expressed on the chart that holds it, with the
transition gauge factor g(x*)^-1 applied to the accumulated transport.
Both parts are windows on the piece's source (paths.Segment._part), and
the rest's source composed with the transition's coordinate map is kept
by that source (paths._Source.moved), so a repeated crossing compiles
nothing.

The right-hand side is linear in U, so each step is a matrix applied to U.
It takes the field at the step's start, middle and end, RK4's grid of
2n + 1 points for n steps, and is the Cayley map of the fourth-order Magnus
term (Iserles, On Cayley-transform methods for the discretization of
Lie-group equations, FoCM 2001; Diele, Lopez & Peluso, Adv. Comput. Math.
1998), with local error -Omega^5/120 (see _steps).  The Cayley map
sends so(k) into SO(k), so on orthogonal groups every step, every product
and every partial product lies on the group to roundoff, and nothing is
projected.  Both methods run one pass per piece: the steps of an even
step count n and of n/2 steps are built from one field evaluation, and
the difference of their products / 15 is the Richardson estimate of the
piece's error (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
rk4-doubling repeats the pass with n doubled until the estimate meets tol
and every step is small against the field; each pass takes the previous
pass's field grid as its even points, and the previous pass's product as
its n/2-step product.

On SO(2) and U(1) a step is its angle: the Cayley map of wJ is the
rotation by 2 atan w, and rotations commute, so the product of a pass is
the rotation by one pairwise sum (np.sum) of its angles, applied to U.
On every other group the n step matrices of a pass are multiplied
pairwise, ceil(log2 n) levels deep.  lift_path takes every partial
product of the accepted pass of each piece from one prefix scan over its
steps, of the angles or of the matrices (Blelloch, Prefix sums and their
applications, 1990).

Fields and step matrices are component-major, (k, k, paths, steps): the
step axis is innermost and each entry (i, j) is one contiguous row, so
every product of two stacks is one einsum over the rows (_mul).  On
SO(2), U(1) and SO(3), where a step reads only the skew part of the
field, a pass keeps the field's skew rows alone, (r, paths, steps) with
r = 1 or 3 (_piece_fields).  _product and _partial_products index their
steps (..., n, k, k), as views of that storage, or (..., n) for angles,
whose step axis is contiguous so that each path's sum is the same
whatever the batch.  No SVD, solve or matrix
inverse runs on the per-step path of an SO(2) or SO(3) transport.

The integrator carries a leading path axis, and one driver (_drive) runs
transport, transport_many, lift_path and engine_oracle's many:
transport is a batch of one.  Each path is a generator (_walk) that asks
for one pass of one piece at a time.  The driver groups the pending
passes of all paths by chart, step count and whether they continue a
doubling, runs each group as batches of one pass (each piece's compiled
coordinates on the shared grid, one containment test, one run of the
chart's compiled field, one batched product), hands each path its
answer, and validates the finished products as one stack.  A piece that
leaves its chart is cut by its own path; a batch that raises anything
else runs again piece by piece, so each path meets its own failure.
engine_oracle's oracle answers one path, and a list of paths through its
many method, which puts each path's failure in its place instead of
raising.  Every lab check asks its oracle through one helper (_asker):
all the paths of the check in one many call when the oracle answers it
so, else path by path, each path only when the check needs its answer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import exprs
from .errors import (
    EndpointMismatchError,
    OutsideChartError,
    StepUnderflowError,
    ValidationError,
)
from .exprs import lit, parse, var
from .groups import (
    GroupElement,
    _check_sweep,
    _components,
    _elements,
    _mul,
    _rows,
    frobenius,
    loglog_slope,
    rotation2,
)
from .paths import (
    ChartPoint,
    PathSpec,
    _chart_points,
    _view,
    arc_path,
    constant_path,
    coords_and_velocities,
    juxtapose,
    line_path,
    path_from_exprs,
    path_point,
    reparametrize,
    reverse_path,
)

__all__ = [
    "SolverConfig",
    "TransportResult",
    "LiftedPath",
    "transport",
    "transport_many",
    "lift_path",
    "engine_oracle",
    "AxiomSuite",
    "AxiomReport",
    "verify_axioms",
    "standard_axiom_suite",
    "inverse_path_check",
    "endpoint_convergence",
    "ConvergenceReport",
]

_CROSSING_TOL = 1e-12
_MAX_CHART_CHANGES = 8  # per segment: chart exits plus moves
_JUNCTION_TOL = 1e-10
_MIN_DOUBLING_STEP = 1e-7
_EPS = np.finfo(float).eps
# transport_many splits a group into batches whose pass holds at most this
# many numbers (2 MiB) at its peak, as _batch_size counts them: 13
# abelian-area or 7 pure-gauge or constant-so3 homotopy-family members of
# 1000 steps, so the lab's scans at h = 1e-3 share the fixed cost of a
# pass, and a reconstruction table's 50 probes of 50 steps run in one.
# Peak RSS bounds it: when batches were counted as k^2 field entries per
# grid point, 2**16 such entries read +6.1% on the lab_scenarios benchmark
# against 2**15; this budget reads +2.2% against 2**15 of those.
_BATCH_FLOATS = 2**18


@dataclass(frozen=True)
class SolverConfig:
    """Integrator settings.

    method: "rk4-fixed" (default) or "rk4-doubling"; both run the
    Cayley-Magnus step on RK4's grid, and keep their schema v1 names.  Each
    chart-resident piece takes the smallest even step count n with steps
    <= h in the global path parameter, h in (0, 0.1].  rk4-doubling doubles
    n until the piece's error estimate is <= tol * max(1, ||U||_F), with
    every step small against the field (dt max ||M||_F <= 1, on SO(2),
    U(1) and SO(3) the norm of M's skew part): tol is per piece, not per
    step, and must be finite and > 0.  est_error sums the estimates for
    both methods.  project_every (>= 1) is accepted for
    schema v1 and changes no result: nothing is projected.
    """

    method: str = "rk4-fixed"
    h: float = 1e-3
    project_every: int = 8
    tol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk4-doubling"):
            raise ValidationError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.h <= 0.1:
            raise ValidationError("step h must lie in (0, 0.1]")
        if self.project_every < 1:
            raise ValidationError("project_every must be >= 1")
        if not (0.0 < self.tol < math.inf):
            raise ValidationError("tol must be finite and > 0")


@dataclass(frozen=True)
class TransportResult:
    """P(gamma) as a group element in the start/end trivializations."""

    start: ChartPoint
    end: ChartPoint
    g: GroupElement
    step_count: int
    est_error: float


@dataclass(frozen=True)
class LiftedPath:
    """Horizontal lift through a fiber point p: samples of (t, gamma(t),
    U(t) p) at the integrator steps."""

    base: PathSpec
    samples: tuple
    start_fiber_point: GroupElement


class _ChartExit(OutsideChartError):
    """Field grids of a stack of pieces that leave their chart.  exits maps
    the position of each piece that leaves to (u_in, u_out), the local
    parameters of its last grid point inside and of its first outside."""

    def __init__(self, exits):
        self.exits = exits
        super().__init__("field grid leaves its chart")


def _bisect_exit(chart, piece, lo, hi):
    """Narrow a chart exit of a piece (a Segment) between local parameters
    lo (inside) and hi (outside) to _CROSSING_TOL in global t."""
    width = piece.t1 - piece.t0
    while (hi - lo) * width > _CROSSING_TOL:
        mid = 0.5 * (lo + hi)
        if chart.contains(piece.point_at(mid)):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _move(conn, piece, x0):
    """The piece re-expressed, through a transition, on a chart whose box
    holds its start point x0: the same window on its source composed with
    the transition's coordinate map, which the source keeps, so a repeated
    crossing compiles nothing."""
    for tr in conn.transitions:
        if tr.from_chart == piece.chart_id and conn.chart(tr.to_chart).contains(
            tr.map_coords(x0)
        ):
            src = piece._src.moved(tr)
            return _view(tr.to_chart, src, piece.t0, piece.t1, piece._window, piece._s)
    raise OutsideChartError(
        f"path point at t={piece.t0:.6g} lies outside every reachable chart"
    )


def _gauge_between(conn, end, start):
    """The transition gauge factor g(x)^-1 at the end point x of one stretch
    of path, into the chart of the start point of the next, or None when the
    chart does not change.  Raises when the two points differ."""
    gap = np.max(np.abs(conn.map_point(end, start.chart_id).coords - start.coords))
    if gap > _JUNCTION_TOL:
        raise EndpointMismatchError(
            f"path jumps by {gap:.3e} at {np.array_str(start.coords)} on chart {start.chart_id}"
        )
    if end.chart_id == start.chart_id:
        return None
    return np.linalg.inv(conn.find_transition(end.chart_id, start.chart_id).gauge_at(end.coords))


def _step_count(width, h):
    """The smallest even step count whose step is <= h."""
    n = math.ceil(width / h)
    return n + n % 2


def _skew(group):
    """Whether a pass on the group reads only the skew rows of its field
    (ChartSpec._skew_field): on SO(2), U(1) and SO(3)."""
    return group.orthogonal and group.k in (2, 3)


def _batch_size(conn, chart_id, n, continuing=False, pieces=()):
    """How many pieces on a chart one pass of n steps (_rk4_pass) takes:
    _BATCH_FLOATS over the numbers the pass holds at its peak, 2n + 1 grid
    points per piece times the numbers per grid point of its largest phase.
    - The field phase holds the coordinates and velocities X and V, 2 dim
      rows; the field rows the pass keeps, r on SO(2), U(1) and SO(3), else
      k^2 (_piece_fields); and the scratch rows (width) of the chart's
      field program, plus the value and product, 2 k^2, of a coefficient
      that is not an expression, and on SO(2) and SO(3) the whole field
      that the skew rows are then taken from.
    - The coordinates phase holds X and V, and, when pieces share a
      curved source (the members of a homotopy family, or windows of one
      path), the widest shared program's scratch rows and its two input
      rows, (u, s) or the windows' u and their stack: the pieces of one
      source that sit side by side run its program at once
      (paths.coords_and_velocities).
    - The step phase holds X, the field rows, and what _steps holds at once
      per step (half of that per grid point): four angles on SO(2) and
      U(1); on SO(3) three matrices' worth, the Cayley map beside omega,
      w, w^2 and f w; five matrices on other groups, omega, W and the
      solve's two operands and result.
    A pass that continues a doubling also holds the previous pass's grids,
    stacked, on half the points.  tools/pass_memory.py measures the
    peaks."""
    chart = conn.chart(chart_id)
    dim, k = chart.dim, conn.group.k
    others = bool(chart._terms[1])
    if _skew(conn.group):
        rows, step = k * (k - 1) // 2, 4 if k == 2 else 27
        width = (chart._field[0].width + 3 * k * k) if others else chart._skew_program.width
    else:
        rows, step = k * k, 5 * k * k
        width = chart._field[0].width + 2 * k * k * others
    family = max((b._src.dual_program.width + 2 for a, b in zip(pieces, pieces[1:])
                  if a._src is b._src and b._src.line is None and a._window is None is b._window),
                 default=0)
    per_point = max(2 * dim + max(rows + width, family), dim + rows + step / 2)
    per_point += continuing * (dim + rows) / 2
    return max(1, int(_BATCH_FLOATS / ((2 * n + 1) * per_point)))


def _steps(M, dt, group):
    """Cayley-Magnus steps of the linear ODE U' = -M(t) U from a
    component-major field grid (_piece_fields), each step taking the field
    at its start, middle and end point.  With B = -M and the fourth-order
    Magnus term Omega = (dt/6)(B0 + 4Bh + B1) + (dt^2/12)[B1, B0], each
    step is the Cayley map (I - W)^-1 (I + W) of W = (Omega - Omega^3/12)/2,
    which is exp(Omega) up to -Omega^5/120.  On orthogonal groups Omega is
    built from the skew part of M, so every step lies on SO(k) to roundoff.

    On SO(2), U(1) and SO(3) the grid is the (r, paths, 2n + 1) stack of
    skew rows b = M[p, q] - M[q, p], r = 1 or 3, twice the coordinates of
    the skew part of M on J or on E1, E2, E3.  On SO(2) (and U(1)) W = wJ,
    and its Cayley map is the rotation by 2 atan w: the steps are returned
    as those angles, a C-contiguous (paths, n) stack, so that a pass's
    product is one pairwise sum (_product).  On other groups the grid is
    M itself, (k, k, paths, 2n + 1), and the steps are matrices, stored
    component-major and returned as (paths, n, k, k) views: SO(3) takes a
    closed form, every other group one batched solve."""
    k = group.k
    if _skew(group):  # M holds the skew rows b
        omega = (M[..., 0:-1:2] + 4.0 * M[..., 1::2] + M[..., 2::2]) * (-dt / 12.0)
        if k == 3:
            omega += _cross(M[..., 2::2], M[..., 0:-1:2]) * (dt * dt / 48.0)
        w = omega * (0.5 + (omega * omega).sum(axis=0) / 24.0)
        return 2.0 * np.arctan(w[0]) if k == 2 else _rows(_cayley3(w))
    eye = np.eye(k)[:, :, None, None]
    if group.orthogonal:
        M = 0.5 * (M - M.swapaxes(0, 1))
    M0, Mh, M1 = M[..., 0:-1:2], M[..., 1::2], M[..., 2::2]
    omega = (-dt / 6.0) * (M0 + 4.0 * Mh + M1) + (dt * dt / 12.0) * (_mul(M1, M0) - _mul(M0, M1))
    W = 0.5 * omega - _mul(_mul(omega, omega), omega) / 24.0
    step = np.linalg.solve(_rows(eye - W), _rows(eye + W))
    return _rows(np.ascontiguousarray(_components(step)))


def _cross(a, b):
    """a x b over the leading axis of two (3, ...) stacks: the coordinates
    of the commutator of the so(3) matrices of a and b."""
    out = np.empty(a.shape)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[j] * b[l], a[l] * b[j], out=out[i])
    return out


def _cayley3(w):
    """The component-major Cayley map (I - W)^-1 (I + W) of a (3, ...) stack
    of so(3) coordinates w: I + 2(W + W^2) / (1 + |w|^2), where
    W^2 = w w^T - |w|^2 I."""
    sq = w * w
    f = 2.0 / (1.0 + sq.sum(axis=0))
    fw = f * w
    C = np.empty((3, 3) + f.shape)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(1.0, f * (sq[j] + sq[l]), out=C[i, i])
        sym = fw[i] * w[j]
        np.subtract(sym, fw[l], out=C[i, j])
        np.add(sym, fw[l], out=C[j, i])
    return C


def _piece_fields(conn, pieces, n, prev=None):
    """Grid points X, (dim, pieces, 2n + 1), and the field grid M on them,
    both component-major, on the 2n + 1 local parameters that n steps
    need, for pieces (Segments) that share one chart.  M is what the steps
    read (_steps) of M(t) = sum_mu A_mu(x(t)) xdot^mu(t): its skew rows,
    (r, pieces, 2n + 1) with r = 1 or 3, on SO(2), U(1) and SO(3)
    (ChartSpec._skew_field), else all of it, (k, k, pieces, 2n + 1).  The
    pieces' compiled coordinates and velocities, written in place, one
    containment test and one run of the chart's compiled field, which
    writes each row of M, cover the whole stack.  prev, the (X, M) of the
    n/2-step grids, supplies the even points: np.linspace nests, so only
    the odd points are evaluated.

    Raises _ChartExit, before any coefficient is evaluated, when a grid
    point lies off the chart."""
    chart = conn.chart(pieces[0].chart_id)
    P, dim, k = len(pieces), chart.dim, conn.group.k
    ts = np.linspace(0.0, 1.0, 2 * n + 1)
    new = slice(None) if prev is None else slice(1, None, 2)
    m = len(ts[new])
    X_new, V = coords_and_velocities(
        pieces, ts[new], (np.empty((dim, P, m)), np.empty((dim, P, m)))
    )
    inside = chart.contains_many(X_new.reshape(dim, -1).T).reshape(P, -1)
    if not inside.all():
        i = np.arange(len(ts))[new][np.argmin(inside, axis=1)]
        # a start outside (the first grid point) reads ts[0], not ts[-1]
        u_in, u_out = ts[np.maximum(i - 1, 0)], ts[i]
        raise _ChartExit({p: (u_in[p], u_out[p]) for p in np.flatnonzero(~inside.all(axis=1))})
    del inside, ts  # not held through the field phase, which _batch_size counts
    rows = (k * (k - 1) // 2,) if _skew(conn.group) else (k, k)
    M_new = np.empty(rows + (P, m))
    fill = chart._skew_field if len(rows) == 1 else chart.field
    fill(X_new.reshape(dim, -1), V.reshape(dim, -1), M_new.reshape(rows + (-1,)))
    if prev is None:
        return X_new, M_new
    X = np.empty((dim, P, 2 * n + 1))
    M = np.empty(rows + (P, 2 * n + 1))
    (X[..., 0::2], M[..., 0::2]), X[..., 1::2], M[..., 1::2] = prev, X_new, M_new
    return X, M


def _field_norm(M):
    """max_t ||M(t)||_F over one path's field grid (_piece_fields): on skew
    rows b, (r, 2n + 1), the norm of M's skew part, sqrt(sum b^2 / 2),
    which is ||M||_F itself when M is skew."""
    if M.ndim == 2:
        return math.sqrt((M * M).sum(axis=0).max() / 2.0)
    return math.sqrt((M * M).sum(axis=(0, 1)).max())


def _tree(S):
    """Ordered product S[..., n - 1] @ ... @ S[..., 0] over the last axis of
    a component-major (k, k, ..., n) stack, n >= 1: each level multiplies
    neighbouring pairs in one einsum, ceil(log2 n) levels."""
    while S.shape[-1] > 1:
        pairs = _mul(S[..., 1::2], S[..., 0:-1:2])
        S = np.concatenate([pairs, S[..., -1:]], axis=-1) if S.shape[-1] % 2 else pairs
    return S[..., 0]


def _scan(S, combine):
    """Inclusive ordered prefix combinations over the last axis of a stack,
    entry j being combine(S[..., j], ... combine(S[..., 1], S[..., 0])): the
    Hillis-Steele scan, one combine per doubling of the reach (Blelloch
    1990).  Each entry combines about log2 n partial results, so a scan
    of angles by np.add keeps the digits that a running sum (np.cumsum)
    loses over many steps."""
    d = 1
    while d < S.shape[-1]:
        S = np.concatenate([S[..., :d], combine(S[..., d:], S[..., :-d])], axis=-1)
        d *= 2
    return S


def _product(S, U):
    """S[..., -1, :, :] @ ... @ S[..., 0, :, :] @ U over the step axis -3,
    the steps multiplied as one pairwise tree.  Leading axes are a batch
    of paths, each treated alone.  The work runs component-major, whatever
    the layout of S.  Steps given as SO(2) angles, a (..., n) stack (see
    _steps), commute: their product is the rotation by their pairwise sum
    along the contiguous step axis."""
    if S.ndim < U.ndim:
        return _rows(rotation2(S.sum(axis=-1))) @ U
    C = _components(S)
    if not C.shape[-1]:
        return U
    return _rows(_tree(C)) @ U


def _partial_products(S, U):
    """Every partial product S[..., j, :, :] @ ... @ S[..., 0, :, :] @ U,
    j < n, as an (..., n, k, k) array: one prefix scan, of the matrices, or
    of the angles when S holds SO(2) angles.  U has the leading axes of
    S."""
    if S.ndim < U.ndim:
        return _rows(rotation2(_scan(S, np.add))) @ U[..., None, :, :]
    return _rows(_mul(_scan(_components(S), _mul), _components(U)[..., None]))


def _rk4_pass(conn, pieces, n, U, prev=None):
    """n Cayley-Magnus steps (n even) across each of a stack of pieces that
    share a chart, piece i starting from U[i]: a pass on RK4's grid.

    The fields are evaluated once, on the 2n + 1 points the n steps need;
    the n/2 steps of twice the size reuse every other sample.  prev, the
    (products, X, M) of the n/2-step pass, gives its grids as the even
    points and its products as the n/2-step products (bit for bit the
    same: same grid, same step); else they are multiplied here.  Returns
    the n-step products, the Richardson estimates ||U_n - U_{n/2}||_F / 15,
    the grid points X, the field grid M (_piece_fields) and the steps
    (_steps): (pieces, n) angles on SO(2), else (pieces, n, k, k)
    matrices."""
    # one step per piece, as a scalar when they all agree, which numpy
    # applies far faster than a broadcast column; the results are the same
    dts = [(piece.t1 - piece.t0) / n for piece in pieces]
    dt = dts[0] if len(set(dts)) == 1 else np.reshape(dts, (-1, 1))
    X, M = _piece_fields(conn, pieces, n, None if prev is None else prev[1:])
    fine = _steps(M, dt, conn.group)
    U_fine = _product(fine, U)
    if prev is not None:
        U_coarse = prev[0]
    else:
        U_coarse = _product(_steps(M[..., ::2], 2.0 * dt, conn.group), U)
    est = [frobenius(d) / 15.0 for d in U_fine - U_coarse]
    return U_fine, est, X, M, fine


def _walk(conn, gamma, cfg, U, samples):
    """The transport of one path, as a generator that _drive runs.  Each
    pass of the integrator it needs is yielded as (piece, n, U_in, prev)
    and answered with the pass's (U, est, first, last, X, M, steps) for
    that piece, first and last being the ChartPoints of its grid ends, or
    with a _ChartExit thrown in.  Returns (start, end, U, steps, est); U is
    the identity on entry.

    Integrates segment by segment, cutting pieces where their field grids
    leave their charts.  The path's first piece is tested on its own grid
    alone; every other piece's start is tested before its pass, since the
    gauge into its chart needs it.  An empty first part (a piece that
    leaves its chart at its start) takes no steps, but the gauge into its
    chart applies.

    Each piece starts from the smallest even step count whose step is
    <= h.  rk4-fixed stops there; rk4-doubling doubles the count until the
    steps are small against the field (dt max_t ||M(t)||_F <= 1) and the
    estimate is within tol * max(1, ||U||_F), each pass taking the last
    one's product and field grid as prev, and raises StepUnderflowError at
    a roundoff floor: an estimate below sqrt(eps) * max(1, ||U||_F) that
    a doubling of small steps fails to halve, or one at or below
    eps * max(1, ||U||_F), the products' resolution, against a tol below
    eps, unless the field is zero.  When samples is a list,
    appends the (t, point, U) of every step after the start, for
    lift_path, from one prefix scan of the accepted pass's steps."""
    start = end = None
    total_steps = 0
    est = 0.0
    for seg in gamma.segments:
        dim = conn.chart(seg.chart_id).dim
        if seg.dim != dim:
            raise ValidationError(
                f"segment on chart {seg.chart_id} has {seg.dim} coordinates, "
                f"the chart is {dim}-dimensional"
            )
        pending = [seg]
        changes = 0
        while pending:
            if changes > _MAX_CHART_CHANGES:
                raise OutsideChartError("path crosses chart boundaries too many times")
            piece = pending.pop()
            chart = conn.chart(piece.chart_id)
            here = None
            if start is not None or changes:
                here = ChartPoint(piece.chart_id, piece.point_at(0.0))
                if not chart.contains(here.coords):
                    pending.append(_move(conn, piece, here.coords))
                    changes += 1
                    continue
            gauge = None if end is None else _gauge_between(conn, end, here)
            U_in = U if gauge is None else gauge @ U
            width = piece.t1 - piece.t0
            n = _step_count(width, cfg.h)
            prev_est, prev = math.inf, None
            try:
                while True:
                    U_n, e, first, last, X, M, steps = yield piece, n, U_in, prev
                    if cfg.method == "rk4-fixed":
                        break
                    # the estimate reads the error only once every step is
                    # small against the field, |Omega| <= dt max |M|_F <= 1:
                    # two products of larger steps can agree by chance
                    field = _field_norm(M)
                    small = width / n * field <= 1.0
                    scale = max(1.0, frobenius(U_n))
                    # an estimate within the products' resolution eps meets
                    # no tol below eps, even at 0, unless the field is zero
                    # and every step is exactly I
                    resolved = e > _EPS * scale or cfg.tol >= _EPS or not field
                    if small and resolved and e <= cfg.tol * scale:
                        break
                    # a floor is roundoff, far below sqrt(eps); a larger
                    # estimate that fails to halve is not yet asymptotic (on
                    # SO(k), each step far too large for the field still
                    # turns by less than pi, so two products of such steps
                    # differ by an O(1) rotation however many there are)
                    if small and (
                        not resolved or e > prev_est / 2.0 and e <= math.sqrt(_EPS) * scale
                    ):
                        raise StepUnderflowError(
                            f"doubling cannot meet tol={cfg.tol:g}: the error estimate "
                            f"{e:.3e} reached the roundoff floor at {n} steps"
                        )
                    if width / (2 * n) < _MIN_DOUBLING_STEP:
                        raise StepUnderflowError(
                            f"doubling cannot meet tol={cfg.tol:g} "
                            f"with h >= {_MIN_DOUBLING_STEP:g}"
                        )
                    prev_est, prev = e, (U_n, X, M)
                    n *= 2
            except _ChartExit as exit_:
                here = here or ChartPoint(piece.chart_id, piece.point_at(0.0))
                if not chart.contains(here.coords):  # a first piece, tested on its grid alone
                    pending.append(_move(conn, piece, here.coords))
                    changes += 1
                    continue
                start = start or here
                changes += 1
                lo, hi = _bisect_exit(chart, piece, *exit_.exits[0])
                if hi < 1.0:  # else the exit is within _CROSSING_TOL of the end
                    pending.append(piece._part(piece.t0 + hi * width, piece.t1, hi, 1.0))
                if lo > 0.0:
                    pending.append(piece._part(piece.t0, piece.t0 + lo * width, 0.0, lo))
                    continue
                U_n, n, e, last = U_in, 0, 0.0, here
            start = start or here or first
            if n and samples is not None:
                points = _chart_points(piece.chart_id, X[:, 2::2].T)
                samples.extend(
                    (piece.t0 + (j + 1) * (width / n), pt, Uj)
                    for j, (pt, Uj) in enumerate(zip(points, _partial_products(steps, U_in)))
                )
            U = U_n
            total_steps += n
            est += e
            end = last
            X = M = steps = prev = None  # not held through the next piece's pass
    return start, end, U, total_steps, est


def _drive(conn, paths, cfg, samples=None):
    """The transport of each path, in order: its TransportResult, or the
    exception it raised.  The one driver of transport, transport_many,
    lift_path and engine_oracle's many.

    Each path runs as a _walk.  The passes the walks ask for are grouped
    by chart, step count and whether they continue a doubling, and each
    group runs as batches of _batch_size pieces, one _rk4_pass each, whose
    peak is within _BATCH_FLOATS numbers.  A walk takes its answer, and
    asks for its next pass, as soon as its batch is done.  A piece whose
    grid leaves its chart gets its own _ChartExit, and the rest of its
    batch passes again; a batch that raises anything else runs again piece
    by piece, so each failure reaches its own path.  The finished products
    are validated against the group as one stack.  samples, when a list,
    collects the lift of the one path (see lift_path)."""
    k = conn.group.k
    eye = np.eye(k)
    out = [None] * len(paths)
    walks = [_walk(conn, gamma, cfg, eye, samples) for gamma in paths]
    asks = []

    def advance(i, step, arg=None):
        try:
            asks.append((i,) + step(arg))
        except StopIteration as stop:
            out[i] = stop.value
        except Exception as err:
            out[i] = err

    def answer(batch):
        todo = [batch]
        while todo:
            batch = todo.pop()
            pieces = [ask[1] for ask in batch]
            U = np.array([ask[3] for ask in batch])
            prevs = [ask[4] for ask in batch]
            prev = None
            if prevs[0] is not None:
                prev = tuple(np.stack(part, axis) for part, axis in zip(zip(*prevs), (0, -2, -2)))
            try:
                U_n, est, X, M, steps = _rk4_pass(conn, pieces, batch[0][2], U, prev)
            except _ChartExit as exit_:
                for p, at in exit_.exits.items():
                    advance(batch[p][0], walks[batch[p][0]].throw, _ChartExit({0: at}))
                stay = [ask for p, ask in enumerate(batch) if p not in exit_.exits]
                if stay:
                    todo.append(stay)
                continue
            except Exception as err:
                if len(batch) > 1:
                    todo += [[ask] for ask in batch]
                else:
                    advance(batch[0][0], walks[batch[0][0]].throw, err)
                continue
            firsts = _chart_points(pieces[0].chart_id, X[:, :, 0].T)
            lasts = _chart_points(pieces[0].chart_id, X[:, :, -1].T)
            grids = np.moveaxis(X, -2, 0), np.moveaxis(M, -2, 0)
            for (i, *_), reply in zip(batch, zip(U_n, est, firsts, lasts, *grids, steps)):
                advance(i, walks[i].send, reply)

    for i, walk in enumerate(walks):
        advance(i, walk.send)
    while asks:
        groups = {}
        for ask in asks:
            groups.setdefault((ask[1].chart_id, ask[2], ask[4] is not None), []).append(ask)
        asks = []
        for key, members in groups.items():
            size = _batch_size(conn, *key, [ask[1] for ask in members])
            for lo in range(0, len(members), size):
                answer(members[lo : lo + size])
    # the finished walks' products, validated as one stack, or one by one
    # when the stack fails, so that each failure is in its place
    done = [i for i, res in enumerate(out) if isinstance(res, tuple)]
    Us = np.array([out[i][2] for i in done]).reshape(-1, k, k)
    try:
        gs = _elements(Us, conn.group) if done else []
    except Exception:
        gs = []
        for U in Us:
            try:
                gs.append(GroupElement(U, conn.group))
            except Exception as err:
                gs.append(err)
    for i, g in zip(done, gs):
        start, end, _, steps, est = out[i]
        out[i] = g if isinstance(g, Exception) else TransportResult(start, end, g, steps, est)
    return out


def transport(conn, gamma, cfg=None):
    """Parallel transport P(gamma) for a connection, as a TransportResult.

    The group element maps fiber coordinates in the trivialization of the
    start chart to fiber coordinates in the trivialization of the end
    chart.  Multiplicative over segment splits by construction.
    """
    return _answered(_drive(conn, [gamma], cfg or SolverConfig())[0])


def transport_many(conn, paths, cfg=None):
    """[transport(conn, gamma, cfg) for gamma in paths], bit for bit, as a
    list, computed by the one driver in shared passes: the pieces of all
    the paths that share a chart and a step count run through one pass of
    the integrator with a leading path axis (one evaluation of their
    coordinates, one containment test, one evaluation of the chart's
    coefficients, one batched product).  When a path fails, raises
    what transport raises on the first path that fails."""
    return [_answered(res) for res in _drive(conn, list(paths), cfg or SolverConfig())]


def lift_path(conn, gamma, p, cfg=None):
    """Horizontal lift through p: samples (t, gamma(t), U(t) p).

    The final sample's group part equals transport(...).g @ p to
    roundoff.  The samples U(t) are the partial products as integrated,
    with no projection: every step lies on the group, so on SO(k) they
    stay on it to roundoff.  They are validated against the group as one
    stack.
    """
    cfg = cfg or SolverConfig()
    samples = []
    res = _answered(_drive(conn, [gamma], cfg, samples)[0])
    ts, pts, Us = zip((0.0, res.start, np.eye(conn.group.k)), *samples)
    gs = _elements(np.stack(Us) @ p.matrix, conn.group)
    return LiftedPath(gamma, tuple(zip(ts, pts, gs)), p)


def engine_oracle(conn, cfg=None):
    """The engine's own transport as an oracle PathSpec -> TransportResult.
    Its many method answers a list of paths at once, with each path's
    TransportResult, or the exception transport raised for it, in its
    place (see transport_many)."""
    cfg = cfg or SolverConfig()

    def oracle(gamma):
        return transport(conn, gamma, cfg)

    oracle.many = lambda paths: _drive(conn, list(paths), cfg)
    return oracle


def _asker(oracle, paths):
    """ask(i), the oracle's answer for paths[i]: its result, or the
    exception it met there.  An oracle whose many method answers the whole
    list, one answer per path, is asked once, here.  Any other oracle,
    whose many is missing, raises or answers another number of paths, is
    asked for paths[i] only when ask(i) runs, so a caller that stops early
    asks no further.  The one reader of an oracle's many method."""
    many = getattr(oracle, "many", None)
    if many is not None:
        try:
            answers = list(many(paths))
        except Exception:
            answers = None
        if answers is not None and len(answers) == len(paths):
            return answers.__getitem__

    def ask(i):
        try:
            return oracle(paths[i])
        except Exception as err:
            return err

    return ask


def _results(oracle, paths):
    """[oracle(gamma) for gamma in paths], asked through _asker.  The first
    path that fails, in order, raises what the oracle met on it."""
    ask = _asker(oracle, paths)
    return [_answered(ask(i)) for i in range(len(paths))]


def _answered(answer):
    """One answer of an oracle's many method: a result as it is, a failure
    raised."""
    if isinstance(answer, Exception):
        raise answer
    return answer


# --- axiom verification -----------------------------------------------------------

@dataclass(frozen=True)
class AxiomSuite:
    """Inputs the three transport axioms quantify over: a family of paths,
    reparametrizations of [0, 1], and juxtaposable path pairs.  A suite
    whose pairs meet across charts takes the connection itself as its
    atlas: it maps the junction point for juxtapose, and its transition
    gauge g(x)^-1 at the junction enters the product P(g2) g(x)^-1 P(g1)
    that the juxtaposed transport is compared with."""

    paths: tuple
    reparametrizations: tuple
    juxtapositions: tuple
    atlas: object = None


@dataclass(frozen=True)
class AxiomReport:
    """Maximal deviations from the three parallel-transport axioms."""

    constant_dev: float
    reparam_dev: float
    juxtapose_dev: float
    tol: float
    checks: int

    @property
    def passed(self):
        return (
            self.constant_dev <= self.tol
            and self.reparam_dev <= self.tol
            and self.juxtapose_dev <= self.tol
        )

    def as_dict(self):
        return {**asdict(self), "passed": self.passed}


def verify_axioms(oracle, suite, tol=1e-7):
    """Check identity on constants, reparametrization invariance, and
    juxtaposition multiplicativity against any transport oracle.

    Every query path is built first, in the order a check-by-check loop
    asks for them, and the oracle answers them all at once (see _results).
    Deviations from the axioms become report entries; the first query the
    oracle fails on raises what the oracle met there.  With an atlas, a
    juxtaposition whose junction changes chart is compared through the
    junction gauge (_gauge_between) as P(g2) g(x)^-1 P(g1); otherwise the
    comparison is P(g2) P(g1).  The junction runs from the end of g1 to
    the start of g2: the points the oracle's answers carry, as
    TransportResults do, and else the declared endpoints that juxtapose
    joins, so an oracle that answers only g is checked too.
    """
    queries, seen = [], set()
    for gamma in suite.paths:
        for t in (0.0, 1.0):
            x = path_point(gamma, t)
            key = (x.chart_id, tuple(np.round(x.coords, 12)))
            if key not in seen:
                seen.add(key)
                queries.append(constant_path(x))
    for gamma in suite.paths:
        queries += [gamma] + [reparametrize(gamma, alpha) for alpha in suite.reparametrizations]
    for g1, g2 in suite.juxtapositions:
        queries += [juxtapose(g1, g2, suite.atlas), g1, g2]
    answers = iter(_results(oracle, queries))

    const_dev = 0.0
    for _ in range(len(seen)):
        m = next(answers).g.matrix
        const_dev = max(const_dev, frobenius(m - np.eye(len(m))))
    reparam_dev = 0.0
    for _ in suite.paths:
        base = next(answers).g.matrix
        for _ in suite.reparametrizations:
            reparam_dev = max(reparam_dev, frobenius(next(answers).g.matrix - base))
    juxt_dev = 0.0
    for g1, g2 in suite.juxtapositions:
        whole, left, right = next(answers), next(answers), next(answers)
        end, start = getattr(left, "end", None), getattr(right, "start", None)
        end = path_point(g1, 1.0) if end is None else end
        start = path_point(g2, 0.0) if start is None else start
        joined = left.g.matrix
        if suite.atlas is not None and end.chart_id != start.chart_id:
            joined = _gauge_between(suite.atlas, end, start) @ joined
        juxt_dev = max(juxt_dev, frobenius(whole.g.matrix - right.g.matrix @ joined))
    checks = len(seen) + len(suite.paths) * len(suite.reparametrizations)
    return AxiomReport(const_dev, reparam_dev, juxt_dev, tol, checks + len(suite.juxtapositions))


def standard_axiom_suite(conn, chart_id=None):
    """A default axiom suite scaled into one chart of a 2-dim connection."""
    chart = conn.charts[0] if chart_id is None else conn.chart(chart_id)
    if chart.dim != 2:
        raise ValidationError("the standard suite needs a 2-dim chart")
    center = 0.5 * (chart.lo + chart.hi)
    half = 0.45 * (chart.hi - chart.lo) / 2.0

    def pt(fx, fy):
        return ChartPoint(chart.chart_id, center + np.array([fx, fy]) * half)

    a, b, c = pt(-0.8, -0.6), pt(0.7, -0.3), pt(0.5, 0.8)
    u = var(0)
    bump = exprs.sin(lit(np.pi) * u)
    # curved path from a to c: line plus a transverse bump
    curved = path_from_exprs(
        chart.chart_id,
        [
            lit(a.coords[0]) + lit(c.coords[0] - a.coords[0]) * u + lit(0.3 * half[0]) * bump,
            lit(a.coords[1]) + lit(c.coords[1] - a.coords[1]) * u - lit(0.2 * half[1]) * bump,
        ],
    )
    paths = (
        line_path(a, b.coords),
        arc_path(chart.chart_id, center, 0.7 * min(half), 0.0, 1.5 * np.pi),
        curved,
        line_path(b, c.coords),
    )
    reparams = (
        parse("x1^2", 1),
        u - exprs.sin(lit(2.0 * np.pi) * u) / lit(4.0 * np.pi),
    )
    juxtapositions = (
        (line_path(a, b.coords), line_path(b, c.coords)),
        (line_path(a, b.coords), juxtapose(line_path(b, c.coords), line_path(c, a.coords))),
        (curved, line_path(c, a.coords)),
    )
    return AxiomSuite(paths, reparams, juxtapositions)


def inverse_path_check(conn, gamma, cfg=None):
    """|| P(reverse gamma) P(gamma) - I ||_F, a consequence of the ODE.

    When the reversed path ends on another chart than gamma starts on, its
    result is taken back into gamma's start trivialization first.  Both
    paths go through one transport_many call."""
    fwd, back = transport_many(conn, [gamma, reverse_path(gamma)], cfg)
    gauge = _gauge_between(conn, back.end, fwd.start)
    U = back.g.matrix @ fwd.g.matrix
    return frobenius((U if gauge is None else gauge @ U) - np.eye(conn.group.k))


@dataclass(frozen=True)
class ConvergenceReport:
    """Endpoint errors at each step h and their log-log slope; degenerate,
    with no slope, when every error is at roundoff."""

    hs: tuple
    errors: tuple
    slope: float | None
    degenerate: bool


def endpoint_convergence(conn, gamma, hs=(1e-2, 5e-3, 2.5e-3)):
    """Endpoint error against a Richardson-extrapolated fine reference, with
    the log-log slope (the fourth-order step should give about 4), each run
    rk4-fixed at its h.  When every error is below 1e-12 the sweep
    measures roundoff, not the integrator, so the report is degenerate and
    its slope None."""
    _check_sweep(hs, "hs")

    def run(h):
        return transport(conn, gamma, SolverConfig("rk4-fixed", h)).g.matrix

    h_ref = min(hs) / 8.0
    u1 = run(h_ref)
    u2 = run(h_ref / 2.0)
    ref = u2 + (u2 - u1) / 15.0
    errors = tuple(frobenius(run(h) - ref) for h in hs)
    if max(errors) < 1e-12:
        return ConvergenceReport(tuple(hs), errors, None, True)
    return ConvergenceReport(tuple(hs), errors, loglog_slope(hs, errors), False)
