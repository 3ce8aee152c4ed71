"""Parallel transport by integrating the horizontal-lift ODE

    U'(t) = -A_{gamma(t)}(gamma'(t)) U(t),    U(0) = I,

with classical RK4 and periodic polar projection back onto the group.
P(gamma) acts on fiber points by left multiplication in the trivialization,
so juxtaposition composes as P(g2 * g1) = P(g2) P(g1).

Piecewise paths integrate per smooth piece and multiply.  When a path
leaves its declared chart the crossing parameter is located by bisection
(to 1e-12 in t), the remainder is re-expressed through the transition map,
and the accumulated transport picks up the transition gauge factor
g(x*)^-1.

The right-hand side is linear in U, so each RK4 step is a matrix S(t, h)
applied to U.  Both methods run one pass per piece: the step matrices of an
even step count n and of n/2 steps are built from one field evaluation, and
the difference of their products / 15 is the Richardson estimate of the
piece's error (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
rk4-doubling repeats the pass with n doubled until the estimate meets tol.
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
from .groups import GroupElement, _polar, frobenius, loglog_slope, project_to_group
from .paths import (
    ChartPoint,
    PathSpec,
    arc_path,
    constant_path,
    coords_and_velocities,
    coords_at,
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

_SPLIT_SAMPLES = 129
_CROSSING_TOL = 1e-12
_JUNCTION_TOL = 1e-10
_MIN_DOUBLING_STEP = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    """Integrator settings.

    method: "rk4-fixed" (default) or "rk4-doubling".  Each chart-resident
    piece takes the smallest even step count n with steps <= h in the global
    path parameter, h in (0, 0.1].  rk4-doubling doubles n until the piece's
    error estimate is <= tol * max(1, ||U||_F): tol is per piece, not per
    step.  est_error sums the estimates for both methods.  project_every
    counts steps between polar projections.
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


@dataclass(frozen=True)
class _Piece:
    """Chart-resident stretch of a path: coordinate expressions in a local
    parameter w in [0, 1] over the global range [t_lo, t_hi]."""

    chart_id: int
    coords: tuple
    t_lo: float
    t_hi: float


def _compose_affine(coords, w0, w1):
    """Restrict exprs in w to [w0, w1], rescaled onto a fresh [0, 1]."""
    inner = lit(w0) + lit(w1 - w0) * var(0)
    return tuple(substitute(c, [inner]) for c in coords)


def _split_segment(conn, seg):
    """Cut one path segment into chart-resident pieces, re-expressing
    stretches that leave the declared chart through transition maps."""
    pending = [(seg.chart_id, seg.coords, seg.t0, seg.t1, 0)]
    out = []
    while pending:
        cid, coords, t_lo, t_hi, depth = pending.pop(0)
        if depth > 8:
            raise OutsideChartError("path crosses chart boundaries too many times")
        chart = conn.chart(cid)
        if len(coords) != chart.dim:
            raise ValidationError(
                f"segment on chart {cid} has {len(coords)} coordinates, "
                f"the chart is {chart.dim}-dimensional"
            )
        us = np.linspace(0.0, 1.0, _SPLIT_SAMPLES)
        X = coords_at(coords, us)
        inside = chart.contains_many(X)
        if not inside[0]:
            # starts outside the declared chart: move to a chart that holds it
            for tr in conn.transitions:
                if tr.from_chart != cid:
                    continue
                y0 = tr.map_coords(X[0])
                if conn.chart(tr.to_chart).contains(y0):
                    new_coords = tuple(substitute(c, coords) for c in tr.coord_map)
                    pending.insert(0, (tr.to_chart, new_coords, t_lo, t_hi, depth + 1))
                    break
            else:
                raise OutsideChartError(
                    f"path point at t={t_lo:.6g} lies outside every reachable chart"
                )
            continue
        if inside.all():
            out.append(_Piece(cid, coords, t_lo, t_hi))
            continue
        # bisect the first exit to 1e-12 in global t; cut on the outside
        i = int(np.argmin(inside))  # first False
        lo, hi = us[i - 1], us[i]
        width = t_hi - t_lo
        while (hi - lo) * width > _CROSSING_TOL:
            mid = 0.5 * (lo + hi)
            if chart.contains(coords_at(coords, [mid])[0]):
                lo = mid
            else:
                hi = mid
        t_star = t_lo + hi * width
        out.append(_Piece(cid, _compose_affine(coords, 0.0, hi), t_lo, t_star))
        pending.insert(0, (cid, _compose_affine(coords, hi, 1.0), t_star, t_hi, depth + 1))
    return out


def _resolve_pieces(conn, gamma):
    """All chart-resident pieces of a path plus the transition gauge factor
    to apply before each piece (None when the chart does not change)."""
    pieces = []
    for seg in gamma.segments:
        pieces.extend(_split_segment(conn, seg))
    gauges = [None]
    for prev, nxt in zip(pieces, pieces[1:]):
        if prev.chart_id == nxt.chart_id:
            end = coords_at(prev.coords, [1.0])[0]
            start = coords_at(nxt.coords, [0.0])[0]
            if np.max(np.abs(end - start)) > _JUNCTION_TOL:
                raise EndpointMismatchError(
                    f"pieces disagree at t={nxt.t_lo:.6g}"
                )
            gauges.append(None)
            continue
        tr = conn.find_transition(prev.chart_id, nxt.chart_id)
        if tr is None:
            raise OutsideChartError(
                f"no transition from chart {prev.chart_id} to {nxt.chart_id}"
            )
        end = coords_at(prev.coords, [1.0])[0]
        mapped = tr.map_coords(end)
        start = coords_at(nxt.coords, [0.0])[0]
        if np.max(np.abs(mapped - start)) > _JUNCTION_TOL:
            raise EndpointMismatchError(
                f"chart switch at t={nxt.t_lo:.6g} is discontinuous"
            )
        gauges.append(np.linalg.inv(tr.gauge_at(end)))
    return pieces, gauges


def _step_matrices(M1, M2, M3, dt):
    """Batched RK4 step matrices for the linear ODE U' = -M(t) U."""
    k = M1.shape[-1]
    eye = np.eye(k)
    T2 = M2 @ (eye - (dt / 2.0) * M1)
    T3 = M2 @ (eye - (dt / 2.0) * T2)
    T4 = M3 @ (eye - dt * T3)
    return eye - (dt / 6.0) * (M1 + 2.0 * T2 + 2.0 * T3 + T4)


def _piece_fields(conn, piece, ts_local):
    """M(t) = sum_mu A_mu(x(t)) xdot^mu(t) on a grid of local parameters.

    Raises OutsideChartError, before any coefficient is evaluated, when a
    grid point lies off the piece's chart.  The last point is exempt: it is
    a sampled segment end or a bisected chart exit, just outside the box."""
    chart = conn.chart(piece.chart_id)
    width = piece.t_hi - piece.t_lo
    X, V = coords_and_velocities(piece.coords, ts_local, width)
    inside = chart.contains_many(X[:-1])
    if not inside.all():
        t = piece.t_lo + ts_local[np.argmin(inside)] * width
        raise OutsideChartError(f"path leaves chart {piece.chart_id} at t={t:.6g}")
    k = conn.group.k
    M = np.zeros((len(ts_local), k, k))
    for mu in range(chart.dim):
        M += chart.coefficients[mu].value(X) * V[:, mu, None, None]
    return X, M


def _product(S, U, project_every, orthogonal, trail=None):
    """S[-1] @ ... @ S[0] @ U, snapped back onto the group every
    project_every steps; appends every partial product to trail if given."""
    for j, s in enumerate(S, 1):
        U = s @ U
        if orthogonal and j % project_every == 0:
            U = _polar(U)
        if trail is not None:
            trail.append(U)
    return U


def _rk4_pass(conn, piece, n, U, project_every, trail):
    """n RK4 steps (n even) across a piece, starting from U.

    The field is evaluated once, on the 2n + 1 points the n steps need; the
    n/2 steps of twice the size reuse every other sample.  Returns the
    n-step product, the Richardson estimate ||U_n - U_{n/2}||_F / 15 of
    its error, and the field-grid points."""
    dt = (piece.t_hi - piece.t_lo) / n
    X, M = _piece_fields(conn, piece, np.linspace(0.0, 1.0, 2 * n + 1))
    orthogonal = conn.group.orthogonal
    fine = _step_matrices(M[0:-1:2], M[1::2], M[2::2], dt)
    coarse = _step_matrices(M[0:-1:4], M[2::4], M[4::4], 2.0 * dt)
    U_fine = _product(fine, U, project_every, orthogonal, trail)
    U_coarse = _product(coarse, U, project_every, orthogonal)
    return U_fine, frobenius(U_fine - U_coarse) / 15.0, X


def _integrate_piece(conn, piece, cfg, U, samples):
    """Advance U across one piece; returns (U, steps, error estimate).

    Starts from the smallest even step count whose step is <= h.
    rk4-fixed stops there; rk4-doubling doubles the count until the
    estimate is within tol * max(1, ||U||_F).  Appends the accepted pass's
    samples when samples is a list."""
    width = piece.t_hi - piece.t_lo
    n = math.ceil(width / cfg.h)
    n += n % 2
    prev = math.inf
    while True:
        trail = None if samples is None else []
        U_n, est, X = _rk4_pass(conn, piece, n, U, cfg.project_every, trail)
        if cfg.method == "rk4-fixed" or est <= cfg.tol * max(1.0, frobenius(U_n)):
            break
        if est > prev / 2.0:
            raise StepUnderflowError(
                f"doubling cannot meet tol={cfg.tol:g}: the error estimate "
                f"{est:.3e} stopped shrinking at {n} steps (roundoff floor)"
            )
        if width / (2 * n) < _MIN_DOUBLING_STEP:
            raise StepUnderflowError(
                f"doubling cannot meet tol={cfg.tol:g} with h >= {_MIN_DOUBLING_STEP:g}"
            )
        prev = est
        n *= 2
    if samples is not None:
        dt = width / n
        samples.extend(
            (piece.t_lo + (j + 1) * dt, ChartPoint(piece.chart_id, X[2 * j + 2]), Uj)
            for j, Uj in enumerate(trail)
        )
    return U_n, n, est


def _run(conn, gamma, cfg, collect):
    pieces, gauges = _resolve_pieces(conn, gamma)
    k = conn.group.k
    U = np.eye(k)
    start = ChartPoint(pieces[0].chart_id, coords_at(pieces[0].coords, [0.0])[0])
    samples = [(0.0, start, U)] if collect else None
    total_steps = 0
    est = 0.0
    for piece, gauge in zip(pieces, gauges):
        if gauge is not None:
            U = gauge @ U
        U, n, e = _integrate_piece(conn, piece, cfg, U, samples)
        total_steps += n
        est += e
    g = project_to_group(U, conn.group)
    end = ChartPoint(pieces[-1].chart_id, coords_at(pieces[-1].coords, [1.0])[0])
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


def lift_path(conn, gamma, p, cfg=None):
    """Horizontal lift through p: samples (t, gamma(t), U(t) p).

    The final sample's group part equals transport(...).g @ p.
    """
    cfg = cfg or SolverConfig()
    result, raw = _run(conn, gamma, cfg, collect=True)
    lifted = tuple(
        (t, pt, GroupElement(U @ p.matrix, conn.group)) for t, pt, U in raw
    )
    return LiftedPath(gamma, lifted, p)


def engine_oracle(conn, cfg=None):
    """The engine's own transport as an oracle PathSpec -> TransportResult."""
    cfg = cfg or SolverConfig()

    def oracle(gamma):
        return transport(conn, gamma, cfg)

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
    """|| P(reverse gamma) P(gamma) - I ||_F, a consequence of the ODE."""
    from .paths import reverse_path

    cfg = cfg or SolverConfig()
    fwd = transport(conn, gamma, cfg)
    back = transport(conn, reverse_path(gamma), cfg)
    k = conn.group.k
    return frobenius(back.g.matrix @ fwd.g.matrix - np.eye(k))


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
