"""Rebuilding a connection from a transport oracle.

The lifted velocity at a point is the derivative at t = 0 of the lifted
path through p, estimated by a symmetric difference: one short straight
transport centred on x, combined with the group logarithm:

    Omega = log P(x - hv -> x + hv) / (2h)    (estimates -A_x(v), O(h^2))

This is the symmetric difference of the two half probes from x, the
straight paths gamma+-(t) = x +- t h v with U(+-h) = P(gamma+-): by the
inverse and juxtaposition axioms (and reparametrization),
U(+h) U(-h)^-1 = P(gamma+) P(gamma-^-1) is the transport along
gamma-^-1 then gamma+, the straight path from x - hv to x + hv, so one
answer gives it.  An oracle that satisfies those axioms (verify_axioms
checks them) gives the two-probe estimate to roundoff; one that violates
them moves the estimate by that violation.

Vertical parts are stored left-trivialized (body coordinates at p), so a
right translation p -> p g conjugates them by g; lifts are computed at the
identity and translated, and that equivariance is itself tested rather
than assumed.  Coefficients are recovered as A_mu(x) = -Omega(e_mu) at
p = I, grid point by grid point, with an h-sweep convergence report for
the round trip connection -> transport -> connection.

Any callable PathSpec -> result with a group element g is an oracle.
Every check here builds all its probe paths first and asks for them
through transport._asker: an oracle with a many method (engine_oracle's)
gets them all in one list and may answer a probe with the exception it
met there; any other oracle is asked for each probe only when the check
reaches it.  _differences turns an answer into a group element or an
OracleFailureError.

One probe walk (_differences) serves a table, the lifts and the lemma:
it takes each probe's answer D = P(x - hv -> x + hv) in order and tests
it against the principal branch ||D - I||_F < 1, stopping at the first
probe that fails or leaves the branch; when the oracle's many has
answered, the distances are taken as one stack first (_branch_distances).
A table walks its grid point by point, and a point whose walk stops drops
with that reason; lift_vector and horizontal_space walk the probes of
their vectors, and a stop raises.  Then the kept differences are
validated as one stack, unless every answer is a GroupElement of the
group, validated when it was made; when that check fails, a table checks
each kept point's answers again and drops the points that fail with the
check's message, where the lifts and the lemma raise.  One stacked
logarithm (groups._algebra_logs: closed form on SO(2), U(1) and SO(3),
else groups._logm) gives every Omega, and the vertical parts are checked
for skewness as one stack (_vertical_parts).
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    GroupInvariantError,
    IllConditionedBasisError,
    OracleFailureError,
    OutOfBranchError,
    OutOfRangeError,
    VelocityMismatchError,
)
from .groups import (
    AlgebraElement,
    GroupElement,
    _algebra_checked,
    _algebra_logs,
    _check_branch,
    _check_sweep,
    _norms,
    _validated,
    frobenius,
    group_inverse,
    identity_element,
    loglog_slope,
    max_spread,
    neville_at_zero,
)
from .paths import TangentVector, _line_path, box_grid, path_point, path_velocity, subpath
from .transport import SolverConfig, TransportResult, _answered, _asker, engine_oracle

__all__ = [
    "LiftedVector",
    "HorizontalBasis",
    "lift_vector",
    "horizontal_space",
    "split_horizontal_vertical",
    "lemma_independence_check",
    "LemmaReport",
    "reconstruct_connection",
    "ReconstructionTable",
    "roundtrip_report",
    "RoundtripReport",
]

_BASIS_COND_LIMIT = 1e6


@dataclass(frozen=True)
class LiftedVector:
    """Lift of a base tangent vector to (x, p): the base vector downstairs
    plus the fiber component of the lifted velocity, left-trivialized at p."""

    base_part: TangentVector
    vertical_part: AlgebraElement
    at: tuple  # (ChartPoint, GroupElement)


@dataclass(frozen=True)
class HorizontalBasis:
    """Lifts of the coordinate basis e_1..e_n at a bundle point (x, p)."""

    at: tuple
    lifts: tuple

    def __post_init__(self):
        for mu, (e, lv) in enumerate(zip(np.eye(len(self.lifts)), self.lifts)):
            if not np.array_equal(lv.base_part.components, e):
                raise IllConditionedBasisError(
                    f"lift {mu} does not sit over the coordinate vector e_{mu + 1}"
                )
        if self.condition_number() >= _BASIS_COND_LIMIT:
            raise IllConditionedBasisError(
                f"stacked basis condition number {self.condition_number():.3e} >= 1e6"
            )

    def condition_number(self):
        rows = [np.concatenate([lv.base_part.components, lv.vertical_part.matrix.ravel()])
                for lv in self.lifts]
        s = np.linalg.svd(np.stack(rows), compute_uv=False)
        return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def _check_step(h):
    if not 1e-6 <= h <= 1e-2:
        raise OutOfRangeError(f"probe step h={h:g} outside [1e-6, 1e-2]")


def _probes(points, vectors, h):
    """The straight probe a + b u, u in [0, 1], with a = x - h v and
    b = 2 h v in Python floats, of each vector v (a list of its components)
    at each point x, point by point, for a checked step h: it runs from
    x - hv to x + hv through x at u = 1/2.  Each is a one-segment line path
    (paths._line_path) on the pairs (a_i, b_i) written here."""
    h = float(h)
    probes = []
    for x in points:
        a, chart_id = x.coords.tolist(), x.chart_id
        probes += [_line_path(chart_id, tuple([(ai - h * c, 2.0 * h * c) for ai, c in zip(a, v)]))
                   for v in vectors]
    return probes


def _made(g, group):
    """Whether g is a GroupElement of the group, validated when it was
    made."""
    return type(g) is GroupElement and g.group == group


def _branch_distances(ask, group):
    """||D - I||_F of every answer, bit for bit as _check_branch takes it,
    as one stack (_norms), when the oracle's many has answered (ask is a
    list) and every answer is a TransportResult whose g is a GroupElement
    of the group; else None, and each D is tested as the walk reaches it."""
    if isinstance(ask, list) and all(type(r) is TransportResult and _made(r.g, group) for r in ask):
        return _norms(np.array([r.g.matrix for r in ask]) - np.eye(group.k)).tolist()
    return None


def _differences(ask, start, stop, dist=None, what="a probe path"):
    """The group elements g, D = g.matrix = P(x - hv -> x + hv), of the
    answers for the probes i in range(start, stop), asked in order.  A
    failed answer raises OracleFailureError, naming what was asked for, or
    its OutOfBranchError as it is; each D is tested against the principal
    branch (_check_branch), by its distance dist[i] when dist
    (_branch_distances) holds them, so the walk asks no further than the
    first probe that fails or leaves the branch.  The one probe walk of
    reconstruct_connection, _lifts and lemma_independence_check."""
    gs = []
    for i in range(start, stop):
        try:
            gs.append(_answered(ask(i)).g)
        except OutOfBranchError:
            raise
        except Exception as err:
            raise OracleFailureError(f"oracle failed on {what}: {err}") from err
        _check_branch(gs[-1].matrix, None if dist is None else dist[i])
    return gs


def _vertical_parts(gs, h, p):
    """The vertical parts at p of the lifts whose probes answered the group
    elements gs, as one checked stack: Omega = log(D) / (2h), translated
    to p and left-trivialized there.  The differences D are validated as
    one stack unless every g is a GroupElement of p's group, which was
    validated when it was made."""
    group = p.group
    D = np.array([g.matrix for g in gs], dtype=float)
    if not all(_made(g, group) for g in gs):
        D = _validated(D, group)
    omega = _algebra_logs(D, group) / (2.0 * h)
    vert = group_inverse(p).matrix @ omega @ p.matrix
    if group.orthogonal:
        vert = 0.5 * (vert - vert.swapaxes(-1, -2))
    return _algebra_checked(vert, group)


def _lifts(oracle, x, p, vs, h):
    """The lifted velocities of the tangent vectors vs at the bundle point
    (x, p), their len(vs) probe paths asked through one _asker and walked
    by _differences, so an oracle asked path by path stops at the first
    probe that fails; the differences are then validated, and their logs
    taken, as one stack."""
    _check_step(h)
    for v in vs:
        if v.base.chart_id != x.chart_id or np.max(np.abs(v.base.coords - x.coords)) > 1e-12:
            raise VelocityMismatchError("tangent vector is not based at the given point")
    ask = _asker(oracle, _probes([x], [v.components.tolist() for v in vs], h))
    vert = _vertical_parts(_differences(ask, 0, len(vs), _branch_distances(ask, p.group)), h, p)
    return [LiftedVector(v, AlgebraElement(m, p.group), (x, p)) for v, m in zip(vs, vert)]


def lift_vector(oracle, x, p, v, h):
    """Lifted velocity of v at the bundle point (x, p).

    Builds the straight coordinate path from x - hv to x + hv, transports
    along it, and takes log(D) / (2h) of its answer D, the symmetric-
    difference derivative of the fiber component; by the sign convention
    the vertical part estimates -A_x(v).
    """
    return _lifts(oracle, x, p, [v], h)[0]


def horizontal_space(oracle, x, p, h):
    """Reconstructed horizontal space at (x, p): lifts of e_1..e_n, one
    centred probe each, whose probe paths the oracle is asked for at once
    (see _lifts)."""
    units = [TangentVector(x, e) for e in np.eye(x.dim)]
    return HorizontalBasis((x, p), tuple(_lifts(oracle, x, p, units, h)))


def split_horizontal_vertical(basis, base_components, fiber_component):
    """Unique decomposition w = (horizontal combination) + (vertical).

    ``w`` is a tangent vector at the bundle point, given as base components
    in R^n plus a fiber algebra component (left-trivialized, matching the
    basis convention).  The horizontal coefficients are read off the base
    components; the vertical remainder is what is left in the fiber.
    """
    x, p = basis.at
    c = np.asarray(base_components, dtype=float)
    if len(c) != len(basis.lifts):
        raise IllConditionedBasisError("base components do not match the basis size")
    fiber = np.asarray(fiber_component, dtype=float)
    horiz_vert = sum((c_mu * lv.vertical_part.matrix for c_mu, lv in zip(c, basis.lifts)),
                     np.zeros_like(fiber))
    vertical = fiber - horiz_vert
    group = basis.lifts[0].vertical_part.group
    horizontal = LiftedVector(TangentVector(x, c), AlgebraElement(horiz_vert, group), basis.at)
    return horizontal, AlgebraElement(vertical, group)


# --- the Lemma, numerically --------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    """Pairwise lifted-velocity deviations across same-velocity paths."""

    hs: tuple
    deviations: tuple  # max pairwise deviation per h
    slope: float | None
    extrapolated: float
    degenerate: bool


def lemma_independence_check(oracle, x, p, v, curved_paths, hs=(1e-2, 5e-3, 2.5e-3)):
    """Same initial velocity forces the same lifted velocity, in the limit.

    Each supplied path must start at x with velocity v (checked within
    1e-10).  For every h the lifted velocity is estimated from the path
    restricted to [0, h], all of them walked by _differences and their logs
    taken as one stack (_vertical_parts); the report carries the max
    pairwise deviation per h, the log-log slope (expected about 1: curvature enters at second
    order along the path), and the polynomial h -> 0 extrapolation.
    """
    if len(curved_paths) < 2:
        raise VelocityMismatchError("need at least two paths to compare")
    _check_sweep(hs, "hs")
    for gamma in curved_paths:
        start = path_point(gamma, 0.0)
        vel = path_velocity(gamma, 0.0)
        if start.chart_id != x.chart_id or np.max(np.abs(start.coords - x.coords)) > 1e-10:
            raise VelocityMismatchError("paths do not share the initial point")
        if np.max(np.abs(vel.components - v.components)) > 1e-10:
            raise VelocityMismatchError("paths do not share the initial velocity")

    n = len(curved_paths)
    ask = _asker(oracle, [subpath(gamma, 0.0, h) for h in hs for gamma in curved_paths])
    gs = _differences(ask, 0, n * len(hs), _branch_distances(ask, p.group), "a restriction")
    # log(U_h) / h is _vertical_parts' log(D) / (2 (h / 2)), to the bit
    estimates = _vertical_parts(gs, np.repeat(hs, n)[:, None, None] / 2.0, p)
    devs = [max_spread(estimates[j * n : j * n + n]) for j in range(len(hs))]

    degenerate = max(devs) < 1e-10
    if degenerate:
        return LemmaReport(tuple(hs), tuple(devs), None, max(devs), True)
    slope = loglog_slope(hs, devs)
    extrapolated = abs(neville_at_zero(hs, devs))
    return LemmaReport(tuple(hs), tuple(devs), slope, extrapolated, False)


# --- reconstruction ------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionTable:
    """Reconstructed coefficients A_mu(x_i) on a grid of chart points.

    entries maps (grid index, mu) to a k x k matrix; dropped lists, in
    grid order, the grid points where the oracle failed (chart edge) or
    answered off the group, with the reason.
    """

    points: tuple
    entries: dict
    h: float
    dropped: tuple

    def coefficient(self, index, mu):
        return self.entries[(index, mu)]

    def to_csv(self, target):
        """Write rows chart_id, x-coords, mu, i, j, value, h (1-based
        mu/i/j).  ``target`` is a path or a writable file object."""
        own = isinstance(target, (str, bytes))
        with open(target, "w", newline="") if own else nullcontext(target) as fh:
            dim = self.points[0].dim if self.points else 0
            writer = csv.writer(fh)
            writer.writerow(
                ["chart_id"] + [f"x{d + 1}" for d in range(dim)] + ["mu", "i", "j", "value", "h"]
            )
            for (idx, mu), mat in sorted(self.entries.items()):
                pt = self.points[idx]
                for (i, j), value in np.ndenumerate(mat):
                    writer.writerow(
                        [pt.chart_id]
                        + [repr(float(c)) for c in pt.coords]
                        + [mu + 1, i + 1, j + 1, repr(float(value)), repr(self.h)]
                    )


def reconstruct_connection(oracle, grid, h, group):
    """Recover the coefficient table A_mu(x_i) = -Omega(e_mu) from any
    transport oracle, at p = I, over the given grid of chart points.

    Every probe of the table is built first, point by point and one
    straight probe from x - h e_mu to x + h e_mu for each of e_1..e_n, and
    asked for through transport._asker: an oracle with a many method
    (engine_oracle's) answers them all in one call, any other is asked
    probe by probe as the walk below reaches them.  Grid points where the
    oracle errors, or whose D = P(x - h e_mu -> x + h e_mu) lies outside
    the log's principal branch, are dropped and reported, never
    interpolated: each probe is branch-tested as it arrives
    (_differences).  The differences of the points kept are then
    validated, and their logs taken, as one stack; when that check fails,
    each kept point's answers are checked again, and a point whose answer
    is off the group drops with the check's message.  dropped keeps the
    grid's order.  An h outside [1e-6, 1e-2], or grid points of different
    dimensions, raise OutOfRangeError before anything is asked, the step
    also on an empty grid.
    """
    _check_step(h)
    n = grid[0].dim if grid else 0
    if any(x.dim != n for x in grid):
        raise OutOfRangeError("grid points must all have the same dimension")
    ask = _asker(oracle, _probes(grid, np.eye(n).tolist(), h))
    dist = _branch_distances(ask, group)
    answers, dropped = {}, {}  # grid index -> the point's group elements; (point, reason)
    for idx, x in enumerate(grid):
        try:
            answers[idx] = _differences(ask, idx * n, idx * n + n, dist)
        except (OracleFailureError, OutOfBranchError) as err:
            dropped[idx] = (x, str(err))

    def parts():
        gs = [g for point in answers.values() for g in point]
        return -_vertical_parts(gs, h, identity_element(group)) if gs else ()

    try:
        vert = parts()
    except GroupInvariantError:
        # an answer off the group: each point's answers are checked again,
        # and the points that fail drop with the check's message
        for idx, point in list(answers.items()):
            try:
                _validated([g.matrix for g in point], group)
            except GroupInvariantError as err:
                dropped[idx] = (grid[idx], str(err))
                del answers[idx]
        vert = parts()
    entries = dict(zip([(idx, mu) for idx in answers for mu in range(n)], vert))
    return ReconstructionTable(tuple(grid), entries, h, tuple(dropped[i] for i in sorted(dropped)))


@dataclass(frozen=True)
class RoundtripReport:
    """connection -> transport -> connection, with an h-sweep."""

    hs: tuple
    errors: tuple
    h_final: float
    final_error: float
    order: float | None
    degenerate: bool

    @property
    def passed(self):
        if self.degenerate:
            return self.final_error <= 1e-3
        return self.order is not None and self.order >= 1.7 and self.final_error <= 1e-3

    def as_dict(self):
        return {**asdict(self), "passed": self.passed}


def _default_box(chart):
    """(lo, hi) of the box centre +- a quarter of the chart's extent:
    roundtrip_report's grid, and the reconstruct task's by default."""
    center, quarter = 0.5 * (chart.lo + chart.hi), 0.25 * (chart.hi - chart.lo)
    return center - quarter, center + quarter


def roundtrip_report(
    conn,
    cfg=None,
    hs=(1e-2, 5e-3, 2.5e-3),
    h_final=1e-3,
    grid_shape=5,
    chart_id=None,
):
    """Run the engine as oracle, reconstruct, and compare with the stored
    coefficients.  Central differences make the error O(h^2), so the
    empirical order should be near 2; PASS needs order >= 1.7 and a final
    error <= 1e-3.

    The probe paths have length of order h, so a coarse solver step is
    plenty; pass cfg to override.
    """
    _check_sweep(hs, "hs")
    cfg = cfg or SolverConfig(h=0.02)
    chart = conn.charts[0] if chart_id is None else conn.chart(chart_id)
    grid = box_grid(chart.chart_id, *_default_box(chart), grid_shape)
    oracle = engine_oracle(conn, cfg)

    X = np.stack([pt.coords for pt in grid])
    true = [f.value(X) for f in chart.coefficients]

    def sweep_error(h):
        table = reconstruct_connection(oracle, grid, h, conn.group)
        # in the table's (point, mu) order, from 0.0, as max takes them
        return max([0.0] + [frobenius(m - true[mu][idx]) for (idx, mu), m in table.entries.items()])

    errors = tuple(sweep_error(h) for h in hs)
    final_error = sweep_error(h_final)
    degenerate = max(max(errors), final_error) < 1e-8
    order = None if degenerate else loglog_slope(hs, errors)
    return RoundtripReport(tuple(hs), errors, h_final, final_error, order, degenerate)
