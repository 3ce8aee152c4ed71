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

The integrator carries a leading path axis.  transport runs a batch of one
piece at a time; transport_many stacks single-segment paths that share a
chart and a step count into one pass (each path's compiled coordinates on
the shared grid, one containment test, one run of the chart's compiled
field, one batched tree product, one validation of the final elements)
and sends every other path through transport, with the same results bit
for bit.
engine_oracle's oracle answers one path, and a list of paths through its
many method, which puts each path's failure in its place instead of
raising.
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
# most this many entries (64 KiB), so a batch's working set stays near 1 MB
_BATCH_FLOATS = 2**13


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
    """The field grids of a stack of pieces leave their chart.  stays flags
    the pieces whose grid points all lie inside; u_in (the last grid point
    inside) and u_out (the first outside) are local parameters of the first
    piece that leaves.  inside flags each piece's points at the local
    parameters ts[new]."""

    def __init__(self, ts, new, inside):
        self.stays = inside.all(axis=1)
        first = int(np.argmin(self.stays))
        i = int(np.arange(len(ts))[new][np.argmin(inside[first])])
        # X[0] is the start that _run found inside; max() keeps a last-bit
        # difference between its two evaluations from reading ts[-1]
        self.u_in, self.u_out = ts[max(i - 1, 0)], ts[i]
        super().__init__(f"field grid leaves its chart after u={self.u_in:.6g}")


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


def _per_piece(values, tail=()):
    """One value per piece (or per coordinate column), as a scalar when
    they all agree, which numpy applies far faster than a broadcast array,
    else as a (len(values), *tail) array.  The results are the same."""
    if len(set(values)) == 1:
        return values[0]
    return np.reshape(values, (-1,) + tail)


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
        raise _ChartExit(ts, new, inside)
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
    points X, the fields M, and the partial products if collect is set."""
    dt = _per_piece([(piece.t1 - piece.t0) / n for piece in pieces], (1,))
    X, M = _piece_fields(conn, pieces, n, None if prev is None else prev[1:])
    orthogonal = conn.group.orthogonal
    fine = _step_matrices(M[..., 0:-1:2], M[..., 1::2], M[..., 2::2], dt)
    U_fine = _product(fine, U, project_every, orthogonal)
    trail = _partial_products(fine, U, project_every, orthogonal) if collect else None
    if prev is None:
        coarse = _step_matrices(M[..., 0:-1:4], M[..., 2::4], M[..., 4::4], 2.0 * dt)
        U_coarse = _product(coarse, U, project_every, orthogonal)
    else:
        U_coarse = prev[0]
    est = [frobenius(d) / 15.0 for d in U_fine - U_coarse]
    return U_fine, est, X, M, trail


def _accepted(cfg, U, est):
    """Whether a pass's product U, with error estimate est, ends its piece:
    always for rk4-fixed, within tol * max(1, ||U||_F) for rk4-doubling."""
    return cfg.method == "rk4-fixed" or est <= cfg.tol * max(1.0, frobenius(U))


def _integrate_piece(conn, piece, cfg, U, samples):
    """Advance U across one piece; returns (U, steps, error estimate, the
    accepted grid's last point).

    Starts from the smallest even step count whose step is <= h.
    rk4-fixed stops there; rk4-doubling doubles the count until the
    estimate is within tol * max(1, ||U||_F), each pass taking the last
    one's product and field grid.  Appends the accepted pass's samples
    when samples is a list."""
    width = piece.t1 - piece.t0
    n = _step_count(width, cfg.h)
    prev_est = math.inf
    prev = None
    while True:
        U_n, est, X, M, trail = _rk4_pass(
            conn, (piece,), n, U[None], cfg.project_every, samples is not None, prev
        )
        if _accepted(cfg, U_n[0], est[0]):
            break
        if est[0] > prev_est / 2.0:
            raise StepUnderflowError(
                f"doubling cannot meet tol={cfg.tol:g}: the error estimate "
                f"{est[0]:.3e} stopped shrinking at {n} steps (roundoff floor)"
            )
        if width / (2 * n) < _MIN_DOUBLING_STEP:
            raise StepUnderflowError(
                f"doubling cannot meet tol={cfg.tol:g} with h >= {_MIN_DOUBLING_STEP:g}"
            )
        prev_est, prev = est[0], (U_n, X, M)
        n *= 2
    if samples is not None:
        dt = width / n
        points = _chart_points(piece.chart_id, X[:, 0, 2::2].T)
        samples.extend(
            (piece.t0 + (j + 1) * dt, pt, Uj) for j, (pt, Uj) in enumerate(zip(points, trail[0]))
        )
    return U_n[0], n, est[0], X[:, 0, -1]


def _run(conn, gamma, cfg, collect):
    """Integrate segment by segment, cutting pieces where their field grids
    leave their charts.  An empty first part (a piece that leaves its chart
    at its start) takes no steps, but the gauge into its chart applies."""
    U = np.eye(conn.group.k)
    samples = [] if collect else None
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
            x0 = piece.point_at(0.0)
            if not chart.contains(x0):
                pending.append(_move(conn, piece, x0))
                changes += 1
                continue
            here = ChartPoint(piece.chart_id, x0)
            if start is None:
                start = here
                if collect:
                    samples.append((0.0, start, U))
            gauge = None if end is None else _gauge_between(conn, end, here)
            U_in = U if gauge is None else gauge @ U
            try:
                U, n, e, x1 = _integrate_piece(conn, piece, cfg, U_in, samples)
            except _ChartExit as exit_:
                changes += 1
                lo, hi = _bisect_exit(chart, piece, exit_.u_in, exit_.u_out)
                t_lo, width = piece.t0, piece.t1 - piece.t0
                if hi < 1.0:  # else the exit is within _CROSSING_TOL of the end
                    rest = _compose_affine(piece.coords, hi, 1.0)
                    pending.append(Segment(piece.chart_id, rest, t_lo + hi * width, piece.t1))
                if lo > 0.0:
                    first = _compose_affine(piece.coords, 0.0, lo)
                    pending.append(Segment(piece.chart_id, first, t_lo, t_lo + lo * width))
                    continue
                U, n, e, x1 = U_in, 0, 0.0, x0
            total_steps += n
            est += e
            end = ChartPoint(piece.chart_id, x1)
    g = project_to_group(U, conn.group)
    return TransportResult(start, end, g, total_steps, est), samples


def transport(conn, gamma, cfg=None):
    """Parallel transport P(gamma) for a connection, as a TransportResult.

    The group element maps fiber coordinates in the trivialization of the
    start chart to fiber coordinates in the trivialization of the end
    chart.  Multiplicative over segment splits by construction.
    """
    cfg = cfg or SolverConfig()
    result, _ = _run(conn, gamma, cfg, collect=False)
    return result


def transport_many(conn, paths, cfg=None):
    """[transport(conn, gamma, cfg) for gamma in paths], bit for bit, as a
    list, computed in batches.

    Single-segment paths are grouped by chart and step count.  Each group
    takes one pass of the integrator with a leading path axis: one
    evaluation of every path's coordinates on the shared grid, one
    containment test, one evaluation of the chart's coefficients, one
    batched tree product, and one validation of the final elements.  A
    multi-segment path, a path that starts or leaves off its chart, an
    rk4-doubling path not accepted on its first pass, and every path of a
    group whose pass raises run through transport on their own, in order,
    so a failure raises what transport raises on the first path that fails.
    """
    cfg = cfg or SolverConfig()
    paths = list(paths)
    out = _batched(conn, paths, cfg)
    return [transport(conn, gamma, cfg) if res is None else res for gamma, res in zip(paths, out)]


def _transport_each(conn, paths, cfg):
    """transport_many's list with every failure in its place: for each
    path, its TransportResult or the exception that transport raises on
    it."""
    out = _batched(conn, paths, cfg)
    for i, gamma in enumerate(paths):
        if out[i] is None:
            try:
                out[i] = transport(conn, gamma, cfg)
            except Exception as err:
                out[i] = err
    return out


def _batched(conn, paths, cfg):
    """The TransportResults of the paths that batched passes settle, in
    their places in a list over paths; None where a path must run through
    transport on its own."""
    out = [None] * len(paths)
    groups = {}
    for i, gamma in enumerate(paths):
        if len(gamma.segments) == 1:
            seg = gamma.segments[0]
            key = (seg.chart_id, len(seg.coords), _step_count(seg.t1 - seg.t0, cfg.h))
            groups.setdefault(key, []).append(i)
    k = conn.group.k
    for (_, _, n), members in groups.items():
        size = max(1, _BATCH_FLOATS // ((2 * n + 1) * k * k))
        for lo in range(0, len(members), size):
            idx = members[lo : lo + size]
            try:
                done = _transport_group(conn, [paths[i].segments[0] for i in idx], n, cfg)
            except Exception:
                continue
            for i, res in done.items():
                out[idx[i]] = res
    return out


def _transport_group(conn, segs, n, cfg):
    """The TransportResults, as _run gives them, of single-segment paths
    that share a chart, a coordinate count and the step count n, keyed by
    position in segs.  Leaves out the paths _run must take on their own:
    those whose grids, their start included, leave the chart."""
    chart = conn.chart(segs[0].chart_id)
    if chart.dim != len(segs[0].coords):
        return {}
    keep = np.arange(len(segs))
    while len(keep):
        pieces = [segs[i] for i in keep]
        U = np.broadcast_to(np.eye(conn.group.k), (len(keep), conn.group.k, conn.group.k))
        try:
            U, est, X, _, _ = _rk4_pass(conn, pieces, n, U, cfg.project_every, False)
            break
        except _ChartExit as exit_:
            keep = keep[exit_.stays]
    else:
        return {}
    ok = np.array([_accepted(cfg, u, e) for u, e in zip(U, est)])
    if not ok.any():
        return {}
    U = U[ok]
    gs = _elements(_polar(U) if conn.group.orthogonal else U, conn.group)
    est = [e for e, accepted in zip(est, ok) if accepted]
    return {
        int(i): TransportResult(
            ChartPoint(chart.chart_id, x0), ChartPoint(chart.chart_id, x1), g, n, e
        )
        for i, x0, x1, g, e in zip(keep[ok], X[:, ok, 0].T, X[:, ok, -1].T, gs, est)
    }


def lift_path(conn, gamma, p, cfg=None):
    """Horizontal lift through p: samples (t, gamma(t), U(t) p).

    The final sample's group part equals transport(...).g @ p to
    roundoff.  The samples are validated against the group as one stack.
    """
    cfg = cfg or SolverConfig()
    _, raw = _run(conn, gamma, cfg, collect=True)
    ts, pts, Us = zip(*raw)
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

    oracle.many = lambda paths: _transport_each(conn, list(paths), cfg)
    return oracle


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

    Failures are report entries, never exceptions.
    """
    checks = 0
    const_dev = 0.0
    seen = set()
    for gamma in suite.paths:
        for t in (0.0, 1.0):
            x = path_point(gamma, t)
            key = (x.chart_id, tuple(np.round(x.coords, 12)))
            if key in seen:
                continue
            seen.add(key)
            res = oracle(constant_path(x))
            k = res.g.group.k
            const_dev = max(const_dev, frobenius(res.g.matrix - np.eye(k)))
            checks += 1

    reparam_dev = 0.0
    for gamma in suite.paths:
        base = oracle(gamma).g.matrix
        for alpha in suite.reparametrizations:
            other = oracle(reparametrize(gamma, alpha)).g.matrix
            reparam_dev = max(reparam_dev, frobenius(other - base))
            checks += 1

    juxt_dev = 0.0
    for g1, g2 in suite.juxtapositions:
        whole = oracle(juxtapose(g1, g2, suite.atlas)).g.matrix
        left = oracle(g1).g.matrix
        right = oracle(g2).g.matrix
        juxt_dev = max(juxt_dev, frobenius(whole - right @ left))
        checks += 1

    return AxiomReport(const_dev, reparam_dev, juxt_dev, tol, checks)


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
    result is taken back into gamma's start trivialization first."""
    from .paths import reverse_path

    cfg = cfg or SolverConfig()
    fwd = transport(conn, gamma, cfg)
    back = transport(conn, reverse_path(gamma), cfg)
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
    base = cfg or SolverConfig()

    def run(h):
        return transport(conn, gamma, SolverConfig("rk4-fixed", h, base.project_every)).g.matrix

    h_ref = min(hs) / 8.0
    u1 = run(h_ref)
    u2 = run(h_ref / 2.0)
    ref = u2 + (u2 - u1) / 15.0
    errors = tuple(frobenius(run(h) - ref) for h in hs)
    return ConvergenceReport(tuple(hs), errors, loglog_slope(hs, errors))
