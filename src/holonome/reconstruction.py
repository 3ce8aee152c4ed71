"""Rebuilding a connection from a transport oracle.

The lifted velocity at a point is the derivative at t = 0 of the lifted
path through p, estimated by a symmetric difference of two short straight
transports combined with the group logarithm:

    Omega = log( U(+h) U(-h)^-1 ) / (2h)    (estimates -A_x(v), O(h^2))

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
reaches it.  _probe_elements turns the answers into group elements or an
OracleFailureError.

A table walks its grid point by point and forms D = U(+h) U(-h)^-1 of
each pair, with the principal-branch test ||D - I||_F < 1, so a point
stops asking at the first pair that fails or leaves the branch and drops
with that reason.  Then every D is validated as one stack, one stacked
logarithm (groups._logm) gives every Omega, and the vertical parts are
checked for skewness as one stack.  lift_vector runs the same helpers on
one pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedBasisError,
    OracleFailureError,
    OutOfBranchError,
    OutOfRangeError,
    VelocityMismatchError,
)
from .groups import (
    AlgebraElement,
    _algebra_checked,
    _algebra_logs,
    _check_branch,
    _check_sweep,
    _validated,
    frobenius,
    group_inverse,
    group_log,
    identity_element,
    loglog_slope,
    max_spread,
    neville_at_zero,
)
from .paths import TangentVector, _line_segment, box_grid, path_point, path_velocity, subpath
from .transport import SolverConfig, _answered, _asker, engine_oracle

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
        n = len(self.lifts)
        for mu, lv in enumerate(self.lifts):
            e = np.zeros(n)
            e[mu] = 1.0
            if not np.array_equal(lv.base_part.components, e):
                raise IllConditionedBasisError(
                    f"lift {mu} does not sit over the coordinate vector e_{mu + 1}"
                )
        if self.condition_number() >= _BASIS_COND_LIMIT:
            raise IllConditionedBasisError(
                f"stacked basis condition number {self.condition_number():.3e} >= 1e6"
            )

    def condition_number(self):
        rows = [
            np.concatenate([lv.base_part.components, lv.vertical_part.matrix.ravel()])
            for lv in self.lifts
        ]
        s = np.linalg.svd(np.stack(rows), compute_uv=False)
        return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def _probes(x, v, h):
    """The straight probe paths x + t h v and x - t h v, in that order."""
    if not 1e-6 <= h <= 1e-2:
        raise OutOfRangeError(f"probe step h={h:g} outside [1e-6, 1e-2]")
    if v.base.chart_id != x.chart_id or np.max(np.abs(v.base.coords - x.coords)) > 1e-12:
        raise VelocityMismatchError("tangent vector is not based at the given point")
    return [_line_segment(x.chart_id, x.coords, step * v.components) for step in (h, -h)]


def _probe_elements(ask, indices, what="a probe path"):
    """The group elements of the answers ask(i) for i in indices, asked in
    order.  An OutOfBranchError passes as it is; any other failure raises
    OracleFailureError, naming what was asked for."""
    try:
        return [_answered(ask(i)).g for i in indices]
    except OutOfBranchError:
        raise
    except Exception as err:
        raise OracleFailureError(f"oracle failed on {what}: {err}") from err


def _difference(u_plus, u_minus):
    """D = u_plus u_minus^-1 of one probe pair, as a matrix."""
    return u_plus.matrix @ group_inverse(u_minus).matrix


def _vertical_parts(formed, kept, h, p):
    """Validates every probe difference D in formed as one stack, and
    returns, as one checked stack, the vertical parts at p of the lifts of
    the ones at positions kept, which passed _check_branch: Omega =
    log(D) / (2h), translated to p and left-trivialized there."""
    group = p.group
    omega = _algebra_logs(_validated(formed, group)[kept], group) / (2.0 * h)
    vert = group_inverse(p).matrix @ omega @ p.matrix
    if group.orthogonal:
        vert = 0.5 * (vert - vert.swapaxes(-1, -2))
    return _algebra_checked(vert, group)


def _unit_vector(x, mu):
    e = np.zeros(x.dim)
    e[mu] = 1.0
    return TangentVector(x, e)


def lift_vector(oracle, x, p, v, h):
    """Lifted velocity of v at the bundle point (x, p).

    Builds the straight coordinate paths x +- t h v, transports along both,
    and takes the symmetric-difference derivative of the fiber component;
    by the sign convention the vertical part estimates -A_x(v).
    """
    d = _difference(*_probe_elements(_asker(oracle, _probes(x, v, h)), (0, 1)))
    _check_branch(d)
    vert = _vertical_parts([d], [0], h, p)[0]
    return LiftedVector(v, AlgebraElement(vert, p.group), (x, p))


def horizontal_space(oracle, x, p, h):
    """Reconstructed horizontal space at (x, p): lifts of e_1..e_n."""
    lifts = [lift_vector(oracle, x, p, _unit_vector(x, mu), h) for mu in range(x.dim)]
    return HorizontalBasis((x, p), tuple(lifts))


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
    horiz_vert = np.zeros_like(fiber)
    for c_mu, lv in zip(c, basis.lifts):
        horiz_vert = horiz_vert + c_mu * lv.vertical_part.matrix
    vertical = fiber - horiz_vert
    group = basis.lifts[0].vertical_part.group
    horizontal = LiftedVector(
        TangentVector(x, c), AlgebraElement(horiz_vert, group), basis.at
    )
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
    restricted to [0, h]; the report carries the max pairwise deviation per
    h, the log-log slope (expected about 1: curvature enters at second
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

    pinv = group_inverse(p).matrix
    n = len(curved_paths)
    ask = _asker(oracle, [subpath(gamma, 0.0, h) for h in hs for gamma in curved_paths])
    devs = []
    for j, h in enumerate(hs):
        estimates = []
        for i in range(j * n, j * n + n):
            [u_h] = _probe_elements(ask, [i], "a restriction")
            omega = group_log(u_h).matrix / h
            estimates.append(pinv @ omega @ p.matrix)
        devs.append(max_spread(estimates))

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

    entries maps (grid index, mu) to a k x k matrix; dropped lists grid
    points where the oracle failed (chart edge), with the reason.
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
        fh = open(target, "w", newline="") if own else target
        try:
            dim = self.points[0].dim if self.points else 0
            writer = csv.writer(fh)
            writer.writerow(
                ["chart_id"] + [f"x{d + 1}" for d in range(dim)] + ["mu", "i", "j", "value", "h"]
            )
            for idx, pt in enumerate(self.points):
                for mu in range(dim):
                    if (idx, mu) not in self.entries:
                        continue
                    mat = self.entries[(idx, mu)]
                    for i in range(mat.shape[0]):
                        for j in range(mat.shape[1]):
                            writer.writerow(
                                [pt.chart_id]
                                + [repr(float(c)) for c in pt.coords]
                                + [mu + 1, i + 1, j + 1, repr(float(mat[i, j])), repr(self.h)]
                            )
        finally:
            if own:
                fh.close()


def reconstruct_connection(oracle, grid, h, group):
    """Recover the coefficient table A_mu(x_i) = -Omega(e_mu) from any
    transport oracle, at p = I, over the given grid of chart points.

    Every probe of the table is built first, point by point and e_1..e_n
    at each, and asked for through transport._asker: an oracle with a many
    method (engine_oracle's) answers them all in one call, any other is
    asked probe by probe as the walk below reaches them.  Grid points where
    the oracle errors, or whose D = U(+h) U(-h)^-1 lies outside the log's
    principal branch, are dropped and reported, never interpolated: each
    pair is branch-tested as it arrives.  The table's differences are then
    validated, and their logs taken, as one stack.
    """
    ask = _asker(oracle, [probe for x in grid for mu in range(x.dim)
                          for probe in _probes(x, _unit_vector(x, mu), h)])
    formed, kept, keys, dropped = [], [], [], []
    end = 0
    for idx, x in enumerate(grid):
        start, end = end, end + 2 * x.dim
        mine = []
        try:
            for i in range(start, end, 2):
                formed.append(_difference(*_probe_elements(ask, (i, i + 1))))
                _check_branch(formed[-1])
                mine.append(len(formed) - 1)
        except (OracleFailureError, OutOfBranchError) as err:
            dropped.append((x, str(err)))
            continue
        kept += mine
        keys += [(idx, mu) for mu in range(x.dim)]
    entries = {}
    if formed:
        vert = _vertical_parts(formed, kept, h, identity_element(group))
        entries = dict(zip(keys, -vert))
    return ReconstructionTable(tuple(grid), entries, h, tuple(dropped))


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
        return {
            "hs": list(self.hs),
            "errors": list(self.errors),
            "h_final": self.h_final,
            "final_error": self.final_error,
            "order": self.order,
            "degenerate": self.degenerate,
            "passed": self.passed,
        }


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
    cfg = cfg or SolverConfig(h=0.02, project_every=4)
    chart = conn.charts[0] if chart_id is None else conn.chart(chart_id)
    center = 0.5 * (chart.lo + chart.hi)
    quarter = 0.25 * (chart.hi - chart.lo)
    grid = box_grid(chart.chart_id, center - quarter, center + quarter, grid_shape)
    oracle = engine_oracle(conn, cfg)

    X = np.stack([pt.coords for pt in grid])
    true = [f.value(X) for f in chart.coefficients]

    def sweep_error(h):
        table = reconstruct_connection(oracle, grid, h, conn.group)
        worst = 0.0
        for idx in range(len(grid)):
            for mu in range(chart.dim):
                if (idx, mu) not in table.entries:
                    continue
                worst = max(worst, frobenius(table.entries[(idx, mu)] - true[mu][idx]))
        return worst

    errors = tuple(sweep_error(h) for h in hs)
    final_error = sweep_error(h_final)
    degenerate = max(max(errors), final_error) < 1e-8
    if degenerate:
        return RoundtripReport(tuple(hs), errors, h_final, final_error, None, True)
    order = loglog_slope(hs, errors)
    return RoundtripReport(tuple(hs), errors, h_final, final_error, order, False)
