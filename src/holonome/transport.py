"""Parallel transport by integrating the horizontal-lift ODE

    U'(t) = -A_{gamma(t)}(gamma'(t)) U(t),    U(0) = I,

with classical RK4 and polar projection back onto the group once per block
of steps.
P(gamma) acts on fiber points by left multiplication in the trivialization,
so juxtaposition composes as P(g2 * g1) = P(g2) P(g1).

Piecewise paths integrate per smooth piece and multiply.  A piece's own
field grid is the only chart-membership test: when a grid point lies off
the chart, the exit is bisected (to 1e-12 in t) from the last grid point
inside, the piece ends at the last point inside, and the rest starts at the
first point outside, re-expressed on the chart that holds it, with the
transition gauge factor g(x*)^-1 applied to the accumulated transport.

The right-hand side is linear in U, so each RK4 step is a matrix S(t, h)
applied to U.  Both methods run one pass per piece: the step matrices of an
even step count n and of n/2 steps are built from one field evaluation, and
the difference of their products / 15 is the Richardson estimate of the
piece's error (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
rk4-doubling repeats the pass with n doubled until the estimate meets tol;
each pass takes the previous pass's product as its n/2-step product and
the previous pass's field grid as its even points.

Products are tree-ordered.  The steps fall into blocks of project_every;
each block is multiplied pairwise, ceil(log2 project_every) levels deep,
every full block's product is projected in one batched polar call
(Newton-Schulz steps, see groups._polar_components), and the projected
blocks and the unprojected tail are multiplied by the same pairwise tree.
lift_path takes every partial product from a prefix scan within the blocks
and one across the projected block ends (Blelloch, Prefix sums and their
applications, 1990).  GL groups take one unprojected block.

Fields, step matrices and blocks are component-major, (k, k, paths,
steps): the step axis is innermost and each entry (i, j) is one contiguous
row, so every product of two stacks is one einsum over the rows (_mul).
_product and _partial_products index their steps (..., n, k, k), as views
of that storage.  No SVD or matrix inverse runs on the per-step path of a
well-conditioned orthogonal transport.

The integrator carries a leading path axis, and one driver (_drive) runs
transport, transport_many, lift_path and engine_oracle's many:
transport is a batch of one.  Each path is a generator (_walk) that asks
for one pass of one piece at a time.  The driver groups the pending
passes of all paths by chart, step count and whether they continue a
doubling, runs each group as batches of one pass (each piece's compiled
coordinates on the shared grid, one containment test, one run of the
chart's compiled field, one batched tree product), hands each path its
answer, and projects the finished products as one stack.  A piece that
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
from dataclasses import dataclass

import numpy as np

from . import exprs
from .errors import (
    EndpointMismatchError,
    OutsideChartError,
    StepUnderflowError,
    ValidationError,
)
from .exprs import lit, parse, substitute, var
from .groups import (
    GroupElement,
    _check_sweep,
    _components,
    _elements,
    _mul,
    _polar,
    _polar_components,
    _rows,
    frobenius,
    loglog_slope,
    project_to_group,
)
from .paths import (
    ChartPoint,
    PathSpec,
    Segment,
    _chart_points,
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
# transport_many splits a group into batches whose field stack M holds at
# most this many entries (256 KiB).  It fits four SO(2) paths of 1000 steps
# (8004 entries each), so the lab's scans at h = 1e-3 share the fixed cost
# of a pass; at 2**13 each such path took a pass alone.  Peak RSS bounds
# it: on the lab_scenarios benchmark, 2**15 read +2.1%, 2**16 +6.1% and
# 2**17 +14% against 2**13, for -28%, -34% and -36% of op_cost_p50.
_BATCH_FLOATS = 2**15


@dataclass(frozen=True)
class SolverConfig:
    """Integrator settings.

    method: "rk4-fixed" (default) or "rk4-doubling".  Each chart-resident
    piece takes the smallest even step count n with steps <= h in the global
    path parameter, h in (0, 0.1].  rk4-doubling doubles n until the piece's
    error estimate is <= tol * max(1, ||U||_F): tol is per piece, not per
    step.  est_error sums the estimates for both methods.  project_every
    is the projection block length: the product of each full block of that
    many steps is projected onto SO(k) before the tree-ordered product of
    the blocks; 10**9 means never project.
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


def _compose_affine(coords, w0, w1):
    """Restrict exprs in w to [w0, w1], rescaled onto a fresh [0, 1]."""
    inner = lit(w0) + lit(w1 - w0) * var(0)
    return tuple(substitute(c, [inner]) for c in coords)


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
    holds its start point x0."""
    for tr in conn.transitions:
        if tr.from_chart == piece.chart_id and conn.chart(tr.to_chart).contains(
            tr.map_coords(x0)
        ):
            coords = tuple(substitute(c, piece.coords) for c in tr.coord_map)
            return Segment(tr.to_chart, coords, piece.t0, piece.t1)
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


def _step_matrices(M1, M2, M3, dt):
    """RK4 step matrices of the linear ODE U' = -M(t) U from component-major
    (k, k, paths, n) field stacks, stored component-major and returned as
    (paths, n, k, k) views."""
    eye = np.eye(len(M1))[:, :, None, None]
    T2 = _mul(M2, eye - (dt / 2.0) * M1)
    T3 = _mul(M2, eye - (dt / 2.0) * T2)
    T4 = _mul(M3, eye - dt * T3)
    return _rows(eye - (dt / 6.0) * (M1 + 2.0 * T2 + 2.0 * T3 + T4))


def _piece_fields(conn, pieces, n, prev=None):
    """Grid points X and fields M(t) = sum_mu A_mu(x(t)) xdot^mu(t), both
    component-major, (dim, pieces, 2n + 1) and (k, k, pieces, 2n + 1), on
    the 2n + 1 local parameters that n steps need, for pieces (Segments)
    that share one chart.  Each piece's compiled coordinates and
    velocities, one containment test and one run of the chart's compiled
    field, which writes every entry of M as one row, cover the whole
    stack.  prev, the (X, M) of the n/2-step grids, supplies the even
    points: np.linspace nests, so only the odd points are evaluated.

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
    M_new = np.empty((k, k, P, m))
    chart.field(X_new.reshape(dim, -1), V.reshape(dim, -1), M_new.reshape(k, k, -1))
    if prev is None:
        return X_new, M_new
    X = np.empty((dim, P, len(ts)))
    M = np.empty((k, k, P, len(ts)))
    (X[..., 0::2], M[..., 0::2]), X[..., 1::2], M[..., 1::2] = prev, X_new, M_new
    return X, M


def _tree(S):
    """Ordered product S[..., n - 1] @ ... @ S[..., 0] over the last axis of
    a component-major (k, k, ..., n) stack, n >= 1: each level multiplies
    neighbouring pairs in one einsum, ceil(log2 n) levels."""
    while S.shape[-1] > 1:
        pairs = _mul(S[..., 1::2], S[..., 0:-1:2])
        S = np.concatenate([pairs, S[..., -1:]], axis=-1) if S.shape[-1] % 2 else pairs
    return S[..., 0]


def _scan(S):
    """Inclusive ordered prefix products over the last axis of a
    component-major stack, entry j being S[..., j] @ ... @ S[..., 0]: the
    Hillis-Steele scan, one einsum per doubling of the reach (Blelloch
    1990)."""
    d = 1
    while d < S.shape[-1]:
        S = np.concatenate([S[..., :d], _mul(S[..., d:], S[..., :-d])], axis=-1)
        d *= 2
    return S


def _blocks(S, project_every, orthogonal):
    """The (..., n, k, k) steps as a fresh component-major (k, k, ...,
    blocks, p) stack of blocks of p = project_every steps, the last padded
    with identities, and the number of full blocks, whose products get
    projected.  GL groups, and orthogonal ones with project_every > n, take
    one unprojected block."""
    C = _components(S)
    n = C.shape[-1]
    p = max(min(project_every, n) if orthogonal else n, 1)
    blocks = -(-n // p)
    eye = np.eye(len(C)).reshape(C.shape[:2] + (1,) * (C.ndim - 2))
    C = np.concatenate([C, np.broadcast_to(eye, C.shape[:-1] + (blocks * p - n,))], axis=-1)
    return C.reshape(C.shape[:-1] + (blocks, p)), (n // project_every if orthogonal else 0)


def _product(S, U, project_every, orthogonal):
    """S[..., -1, :, :] @ ... @ S[..., 0, :, :] @ U over the step axis -3,
    as a tree: the product of each block of project_every steps, snapped
    back onto the group in one batched polar projection, then the product
    of the blocks.  Leading axes are a batch of paths.  The work runs
    component-major, whatever the layout of S."""
    B, full = _blocks(S, project_every, orthogonal)
    if not B.shape[-2]:
        return U
    W = _tree(B)
    if full:
        W[..., :full] = _polar_components(W[..., :full])
    return _rows(_tree(W)) @ U


def _partial_products(S, U, project_every, orthogonal):
    """Every partial product S[..., j, :, :] @ ... @ S[..., 0, :, :] @ U,
    j < n, with the block ends projected as _product projects them, as an
    (..., n, k, k) array: a prefix scan within the blocks, then one across
    the block ends.  U has the leading axes of S."""
    B, full = _blocks(S, project_every, orthogonal)
    n = S.shape[-3]
    if not B.shape[-2]:
        return np.empty(S.shape[:-3] + (0,) + U.shape[-2:])
    W = _scan(B)
    if full:
        W[..., :full, -1] = _polar_components(W[..., :full, -1])
    U = _components(U)[..., None]
    ends = _mul(_scan(W[..., -1]), U)
    before = np.concatenate([U, ends[..., :-1]], axis=-1)
    partial = _mul(W, before[..., None])
    return _rows(partial.reshape(partial.shape[:-2] + (-1,))[..., :n])


def _rk4_pass(conn, pieces, n, U, project_every, collect, prev=None):
    """n RK4 steps (n even) across each of a stack of pieces that share a
    chart, piece i starting from U[i].

    The fields are evaluated once, on the 2n + 1 points the n steps need;
    the n/2 steps of twice the size reuse every other sample.  prev, the
    (products, X, M) of the n/2-step pass, gives that pass's products as
    the n/2-step products (bit for bit the same: same grid, same step) and
    its grids as the even points.  Returns the n-step products, the
    Richardson estimates ||U_n - U_{n/2}||_F / 15 of their errors, the grid
    points X, the fields M, and the partial products of each piece if
    collect is set, else None for each."""
    # one step per piece, as a scalar when they all agree, which numpy
    # applies far faster than a broadcast column; the results are the same
    dts = [(piece.t1 - piece.t0) / n for piece in pieces]
    dt = dts[0] if len(set(dts)) == 1 else np.reshape(dts, (-1, 1))
    X, M = _piece_fields(conn, pieces, n, None if prev is None else prev[1:])
    orthogonal = conn.group.orthogonal
    fine = _step_matrices(M[..., 0:-1:2], M[..., 1::2], M[..., 2::2], dt)
    U_fine = _product(fine, U, project_every, orthogonal)
    trail = _partial_products(fine, U, project_every, orthogonal) if collect else [None] * len(U)
    if prev is None:
        coarse = _step_matrices(M[..., 0:-1:4], M[..., 2::4], M[..., 4::4], 2.0 * dt)
        U_coarse = _product(coarse, U, project_every, orthogonal)
    else:
        U_coarse = prev[0]
    est = [frobenius(d) / 15.0 for d in U_fine - U_coarse]
    return U_fine, est, X, M, trail


def _walk(conn, gamma, cfg, U, samples):
    """The transport of one path, as a generator that _drive runs.  Each
    pass of the integrator it needs is yielded as (piece, n, U_in, prev)
    and answered with the pass's (U, est, first, last, X, M, partial
    products) for that piece, first and last being the ChartPoints of its
    grid ends, or with a _ChartExit thrown in.  Returns (start, end, U,
    steps, est), U unprojected; U is the identity on entry.

    Integrates segment by segment, cutting pieces where their field grids
    leave their charts.  The path's first piece is tested on its own grid
    alone; every other piece's start is tested before its pass, since the
    gauge into its chart needs it.  An empty first part (a piece that
    leaves its chart at its start) takes no steps, but the gauge into its
    chart applies.

    Each piece starts from the smallest even step count whose step is
    <= h.  rk4-fixed stops there; rk4-doubling doubles the count until the
    estimate is within tol * max(1, ||U||_F), each pass taking the last
    one's product and field grid as prev.  When samples is a list, appends
    the (t, point, U) of every step after the start, for lift_path."""
    start = end = None
    total_steps = 0
    est = 0.0
    for seg in gamma.segments:
        dim = conn.chart(seg.chart_id).dim
        if len(seg.coords) != dim:
            raise ValidationError(
                f"segment on chart {seg.chart_id} has {len(seg.coords)} coordinates, "
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
                    U_n, e, first, last, X, M, trail = yield piece, n, U_in, prev
                    if cfg.method == "rk4-fixed" or e <= cfg.tol * max(1.0, frobenius(U_n)):
                        break
                    if e > prev_est / 2.0:
                        raise StepUnderflowError(
                            f"doubling cannot meet tol={cfg.tol:g}: the error estimate "
                            f"{e:.3e} stopped shrinking at {n} steps (roundoff floor)"
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
                    rest = _compose_affine(piece.coords, hi, 1.0)
                    pending.append(Segment(piece.chart_id, rest, piece.t0 + hi * width, piece.t1))
                if lo > 0.0:
                    part = _compose_affine(piece.coords, 0.0, lo)
                    pending.append(Segment(piece.chart_id, part, piece.t0, piece.t0 + lo * width))
                    continue
                U_n, n, e, last = U_in, 0, 0.0, here
            start = start or here or first
            if n and samples is not None:
                points = _chart_points(piece.chart_id, X[:, 2::2].T)
                samples.extend(
                    (piece.t0 + (j + 1) * (width / n), pt, Uj)
                    for j, (pt, Uj) in enumerate(zip(points, trail))
                )
            U = U_n
            total_steps += n
            est += e
            end = last
    return start, end, U, total_steps, est


def _drive(conn, paths, cfg, samples=None):
    """The transport of each path, in order: its TransportResult, or the
    exception it raised.  The one driver of transport, transport_many,
    lift_path and engine_oracle's many.

    Each path runs as a _walk.  The passes the walks ask for are grouped
    by chart, step count and whether they continue a doubling, and each
    group runs as batches of one _rk4_pass whose field stack holds at most
    _BATCH_FLOATS entries.  A walk takes its answer, and asks for its next
    pass, as soon as its batch is done.  A piece whose grid leaves its
    chart gets its own _ChartExit, and the rest of its batch passes again;
    a batch that raises anything else runs again piece by piece, so each
    failure reaches its own path.  The finished products are projected
    onto the group as one stack.  samples, when a list, collects the lift
    of the one path (see lift_path)."""
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
                prev = tuple(np.stack(part, axis) for part, axis in zip(zip(*prevs), (0, 1, 2)))
            try:
                U_n, est, X, M, trail = _rk4_pass(
                    conn, pieces, batch[0][2], U, cfg.project_every, samples is not None, prev
                )
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
            grids = X.swapaxes(0, 1), M.transpose(2, 0, 1, 3)
            for (i, *_), reply in zip(batch, zip(U_n, est, firsts, lasts, *grids, trail)):
                advance(i, walks[i].send, reply)

    for i, walk in enumerate(walks):
        advance(i, walk.send)
    while asks:
        groups = {}
        for ask in asks:
            groups.setdefault((ask[1].chart_id, ask[2], ask[4] is None), []).append(ask)
        asks = []
        for (_, n, _), members in groups.items():
            size = max(1, _BATCH_FLOATS // ((2 * n + 1) * k * k))
            for lo in range(0, len(members), size):
                answer(members[lo : lo + size])
    # the finished walks' products, projected as one stack, or one by one
    # when the stack fails, so that each failure is in its place
    done = [i for i, res in enumerate(out) if isinstance(res, tuple)]
    Us = np.array([out[i][2] for i in done]).reshape(-1, k, k)
    try:
        gs = _elements(_polar(Us) if conn.group.orthogonal else Us, conn.group) if done else []
    except Exception:
        gs = []
        for U in Us:
            try:
                gs.append(project_to_group(U, conn.group))
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
    coefficients, one batched tree product).  When a path fails, raises
    what transport raises on the first path that fails."""
    return [_answered(res) for res in _drive(conn, list(paths), cfg or SolverConfig())]


def lift_path(conn, gamma, p, cfg=None):
    """Horizontal lift through p: samples (t, gamma(t), U(t) p).

    The final sample's group part equals transport(...).g @ p to
    roundoff.  On orthogonal groups the samples U(t) are projected onto
    the group as one stack, as transport projects its product, since
    between the projected block ends they drift off SO(k).  With
    projection off (project_every beyond the path's step count) they stay
    as integrated, so a drift past the group tolerance raises.  The
    samples are validated against the group as one stack.
    """
    cfg = cfg or SolverConfig()
    samples = []
    res = _answered(_drive(conn, [gamma], cfg, samples)[0])
    ts, pts, Us = zip((0.0, res.start, np.eye(conn.group.k)), *samples)
    Us = np.stack(Us)
    if conn.group.orthogonal and cfg.project_every <= res.step_count:
        Us = _polar(Us)
    gs = _elements(Us @ p.matrix, conn.group)
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
    reparametrizations of [0, 1], and juxtaposable path pairs."""

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
        return {
            "constant_dev": self.constant_dev,
            "reparam_dev": self.reparam_dev,
            "juxtapose_dev": self.juxtapose_dev,
            "tol": self.tol,
            "checks": self.checks,
            "passed": self.passed,
        }


def verify_axioms(oracle, suite, tol=1e-7):
    """Check identity on constants, reparametrization invariance, and
    juxtaposition multiplicativity against any transport oracle.

    Every query path is built first, in the order a check-by-check loop
    asks for them, and the oracle answers them all at once (see _results).
    Failures are report entries, never exceptions.
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
    ms = iter([res.g.matrix for res in _results(oracle, queries)])

    const_dev = 0.0
    for _ in range(len(seen)):
        m = next(ms)
        const_dev = max(const_dev, frobenius(m - np.eye(len(m))))
    reparam_dev = 0.0
    for _ in suite.paths:
        base = next(ms)
        for _ in suite.reparametrizations:
            reparam_dev = max(reparam_dev, frobenius(next(ms) - base))
    juxt_dev = 0.0
    for _ in suite.juxtapositions:
        whole, left, right = next(ms), next(ms), next(ms)
        juxt_dev = max(juxt_dev, frobenius(whole - right @ left))
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
    hs: tuple
    errors: tuple
    slope: float


def endpoint_convergence(conn, gamma, hs=(1e-2, 5e-3, 2.5e-3), cfg=None):
    """Endpoint error against a Richardson-extrapolated fine reference, with
    the log-log slope (RK4 should give about 4)."""
    _check_sweep(hs, "hs")
    base = cfg or SolverConfig()

    def run(h):
        return transport(conn, gamma, SolverConfig("rk4-fixed", h, base.project_every)).g.matrix

    h_ref = min(hs) / 8.0
    u1 = run(h_ref)
    u2 = run(h_ref / 2.0)
    ref = u2 + (u2 - u1) / 15.0
    errors = tuple(frobenius(run(h) - ref) for h in hs)
    return ConvergenceReport(tuple(hs), errors, loglog_slope(hs, errors))
