"""Loop holonomy, shrinking-loop curvature estimates, and the executable
form of the flat <-> homotopy-invariant equivalence.

Flatness is decided twice, independently: a curvature grid scan and a
spread scan over finite homotopy families with fixed endpoints.  The two
tests must agree; the INCONSISTENT verdict makes a disagreement (a bug or
a threshold miscalibration) loud instead of silent.

A HomotopyFamily's coordinates over (t, s) are one path source
(paths._Source), compiled once, and its members see that source at their
s: the transport's path evaluation runs the family's program once for
each run of a batch's members of that family that sit side by side (see
paths.coords_and_velocities).  A member at s = 0 is the standalone path
gamma_0, with its own source and program: diff folds its literal zero
factor, so a zero of its velocity may carry the other sign.  The family
keeps that member, so a repeated scan compiles nothing.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import exprs
from .connection import is_flat
from .errors import NotClosedError, ValidationError
from .exprs import lit, var
from .groups import (
    GroupElement,
    _check_sweep,
    frobenius,
    group_log,
    max_spread,
    neville_at_zero,
    rotation_angle,
)
from .paths import PathSpec, _Source, _view, path_from_exprs, path_point
from .transport import SolverConfig, _results, engine_oracle, transport

__all__ = [
    "HolonomyResult",
    "holonomy",
    "ShrinkingCurvatureReport",
    "shrinking_loop_curvature",
    "HomotopyFamily",
    "homotopy_scan",
    "HomotopyScanReport",
    "standard_homotopy_families",
    "FlatnessVerdict",
    "flatness_verdict",
]

_CLOSURE_TOL = 1e-10
_FLAT_TOL = 1e-6


@dataclass(frozen=True)
class HolonomyResult:
    """Loop transport expressed in the start trivialization, with the
    rotation angle in (-pi, pi] for SO(2)/U(1) (signed) and SO(3) (from
    the trace, unsigned)."""

    transport: object
    g: GroupElement
    angle: float | None


def holonomy(conn, loop, cfg=None):
    """Transport around a closed loop.

    The loop must close within 1e-10 (through a transition map when start
    and end charts differ); a loop that ends on another chart is conjugated
    back into the start trivialization by the transition gauge at the
    basepoint.
    """
    cfg = cfg or SolverConfig()
    start = path_point(loop, 0.0)
    end = conn.map_point(path_point(loop, 1.0), start.chart_id)
    gap = np.max(np.abs(start.coords - end.coords))
    if gap > _CLOSURE_TOL:
        raise NotClosedError(f"loop endpoints differ by {gap:.3e}")

    result = transport(conn, loop, cfg)
    g = result.g
    if result.end.chart_id != result.start.chart_id:
        # q_end in the start chart is g_se(x_base) q_end, where g_se is the
        # transition gauge from start chart to end chart at the basepoint
        tr = conn.find_transition(result.start.chart_id, result.end.chart_id)
        if tr is not None:
            factor = tr.gauge_at(result.start.coords)
        else:
            tr = conn.find_transition(result.end.chart_id, result.start.chart_id)
            if tr is None:
                raise NotClosedError("no transition connects the loop's start and end charts")
            factor = np.linalg.inv(tr.gauge_at(result.end.coords))
        g = GroupElement(factor @ g.matrix, g.group)
    return HolonomyResult(result, g, rotation_angle(g))


@dataclass(frozen=True)
class ShrinkingCurvatureReport:
    """Curvature estimated from holonomies of shrinking coordinate
    rectangles: F_hat = log(holonomy) / (-eps^2)."""

    eps: tuple
    estimates: tuple
    extrapolated: np.ndarray
    order: float | None
    degenerate: bool


def _rectangle_loop(x, mu, nu, eps):
    n = x.dim
    u = var(0)

    def leg(p, q):
        return [lit(pi) + lit(qi - pi) * u for pi, qi in zip(p, q)]

    e_mu = np.zeros(n)
    e_mu[mu] = eps
    e_nu = np.zeros(n)
    e_nu[nu] = eps
    c0 = np.asarray(x.coords, dtype=float)
    corners = [c0, c0 + e_mu, c0 + e_mu + e_nu, c0 + e_nu, c0]
    coords = [leg(p, q) for p, q in zip(corners, corners[1:])]
    return path_from_exprs(x.chart_id, coords)


def shrinking_loop_curvature(oracle, x, mu, nu, eps_sweep=(0.2, 0.1, 0.05)):
    """Estimate F_mu_nu(x) from holonomies of coordinate rectangles
    [x, x+eps e_mu, x+eps e_mu+eps e_nu, x+eps e_nu].

    Reports the per-eps estimates, the polynomial eps -> 0 extrapolation,
    and the observed order (from successive differences; expected >= 1,
    or degenerate when the estimate is already eps-independent).  The
    oracle answers every rectangle at once (see transport._results).
    mu and nu are 0-based axes of x's chart."""
    if not (0 <= mu < x.dim and 0 <= nu < x.dim):
        raise ValidationError(
            f"rectangle axes mu={mu}, nu={nu} must lie in 0..{x.dim - 1} on a {x.dim}-dim chart"
        )
    _check_sweep(eps_sweep, "eps_sweep")
    loops = [_rectangle_loop(x, mu, nu, eps) for eps in eps_sweep]
    estimates = [
        group_log(res.g).matrix / (-(eps**2))
        for res, eps in zip(_results(oracle, loops), eps_sweep)
    ]
    diffs = [frobenius(a - b) for a, b in zip(estimates, estimates[1:])]
    degenerate = max(diffs) < 1e-9
    extrapolated = neville_at_zero(eps_sweep, estimates)
    order = None
    if not degenerate and len(diffs) > 1:
        order = float(np.log(diffs[0] / diffs[1]) / np.log(eps_sweep[0] / eps_sweep[1]))
    return ShrinkingCurvatureReport(
        tuple(eps_sweep), tuple(estimates), extrapolated, order, degenerate
    )


@dataclass(frozen=True)
class HomotopyFamily:
    """Family of paths gamma_s(t) with fixed endpoints, as coordinate
    expressions in (t, s) = (x1, x2) over [0, 1]^2.

    Endpoint constancy in s is checked at 21 samples within 1e-10.
    """

    chart_id: int
    coords: tuple
    s_samples: int = 11

    def __post_init__(self):
        coords = tuple(c.with_dim(2) if c.dim < 2 else c for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not isinstance(self.s_samples, numbers.Integral) or self.s_samples < 2:
            raise ValidationError(
                f"a homotopy family needs an integer s_samples >= 2, got {self.s_samples!r}"
            )
        # both ends in one run of one program: (t, s) for t in (0, 1), s on 21 samples
        ts_ss = np.stack([np.repeat([0.0, 1.0], 21), np.tile(np.linspace(0.0, 1.0, 21), 2)], axis=1)
        ends = exprs.evaluate_many(self._src.program, ts_ss).reshape(2, 21, -1)
        for t_end, pts in zip((0.0, 1.0), ends):
            drift = np.max(np.abs(pts - pts[0]))
            if drift > 1e-10:
                raise ValidationError(
                    f"family endpoints move with s by {drift:.3e} at t={t_end:g}"
                )

    @cached_property
    def _src(self):
        """The coordinates over (x1, x2) = (t, s), which every member but
        s = 0 sees at its s."""
        return _Source(self.coords)

    @cached_property
    def _base(self):
        """gamma_0, kept with the programs it compiles: a plain path of the
        coordinates the family's source has at s = 0, since diff folds
        their literal zero factor, so a velocity zero may carry another
        sign than the family's program gives it."""
        return path_from_exprs(self.chart_id, list(_view(0, self._src, 0.0, 1.0, s=0.0).coords))

    def member(self, s):
        """The path gamma_s as a PathSpec: one segment that sees the
        family's source at s, unless s == 0, whose path is built once and
        kept (_base)."""
        if s == 0.0:
            return self._base
        return PathSpec((_view(self.chart_id, self._src, 0.0, 1.0, s=float(s)),))


@dataclass(frozen=True)
class HomotopyScanReport:
    s_values: tuple
    spread: float


def homotopy_scan(oracle, family, s_values=None):
    """Transport every member gamma_s and report the spread
    max_{s,s'} ||P(gamma_s) - P(gamma_s')||_F.  The oracle answers every
    member at once (see transport._results).  s_values, when given, must
    hold two distinct values in [0, 1], where the family's endpoints were
    checked; ValidationError before any member is asked otherwise."""
    if s_values is not None:
        try:
            s_values = [float(s) for s in s_values]
        except (TypeError, ValueError):
            raise ValidationError(f"s_values must be numbers, got {s_values!r}") from None
        # NaN and inf fail the range test
        if len(set(s_values)) < 2 or not all(0.0 <= s <= 1.0 for s in s_values):
            raise ValidationError(
                f"s_values must hold two distinct values in [0, 1], got {s_values!r}"
            )
    return _scans(oracle, [family], s_values)[0]


def _scans(oracle, families, s_values=None):
    """homotopy_scan of each family, with the members of all of them asked
    of the oracle in one list, family by family."""
    grids = [
        np.linspace(0.0, 1.0, fam.s_samples) if s_values is None else s_values
        for fam in families
    ]
    members = [fam.member(s) for fam, ss in zip(families, grids) for s in ss]
    mats = iter([res.g.matrix for res in _results(oracle, members)])
    return [
        HomotopyScanReport(tuple(float(s) for s in ss), max_spread([next(mats) for _ in ss]))
        for ss in grids
    ]


def standard_homotopy_families(conn, chart_id=None, s_samples=11):
    """Three canned fixed-endpoint families inside one chart, chosen to
    sweep coordinate area so curvature cannot hide.

    The first family runs along a horizontal span of length 1 through the
    box centre, with a bump (pi/2) s sin(pi t) above it, so gamma_s
    encloses area s with gamma_0.  That needs a half-width >= 0.5 and a
    half-height >= pi/2; on a smaller box the span and the bump shrink by
    one factor f < 1, into 0.9 of the box, and gamma_s encloses area
    s f^2.  The other two are scaled to the chart."""
    chart = conn.charts[0] if chart_id is None else conn.chart(chart_id)
    return _canned_families(chart, s_samples)


def _canned_families(chart, s_samples):
    """standard_homotopy_families in the given chart, built anew; the chart
    keeps flatness_verdict's (ChartSpec._homotopy_families)."""
    if chart.dim != 2:
        raise ValidationError("canned homotopy families need a 2-dim chart")
    center = 0.5 * (chart.lo + chart.hi)
    half = 0.5 * (chart.hi - chart.lo)
    t, s = var(0, 2), var(1, 2)
    bump = exprs.sin(lit(np.pi) * t)

    # unit scale: the area-sweep family is built on a horizontal span of
    # length 1 with bump amplitude (pi/2) s sin(pi t), enclosing area s
    x_left, along, amplitude = center[0] - 0.5, t, np.pi / 2.0
    fit = min(2.0 * half[0], half[1] / amplitude)
    if fit < 1.0:  # a box too small for it: shrink it into 0.9 of the box
        x_left, along, amplitude = center[0] - 0.45 * fit, lit(0.9 * fit) * t, 0.9 * fit * amplitude
    fam_area = HomotopyFamily(chart.chart_id, (
        lit(x_left) + along, lit(center[1]) + lit(amplitude) * s * bump,
    ), s_samples)
    # transverse sweep of the other diagonal, scaled to the chart
    fam_diag = HomotopyFamily(chart.chart_id, (
        lit(center[0] - 0.4 * half[0]) + lit(0.8 * half[0]) * t,
        lit(center[1] - 0.4 * half[1]) + lit(0.8 * half[1]) * t - lit(0.5 * half[1]) * s * bump,
    ), s_samples)
    # vertical span with a first-coordinate bulge
    fam_vert = HomotopyFamily(chart.chart_id, (
        lit(center[0]) + lit(0.45 * half[0]) * s * bump,
        lit(center[1] - 0.5 * half[1]) + lit(half[1]) * t,
    ), s_samples)
    return (fam_area, fam_diag, fam_vert)


@dataclass(frozen=True)
class FlatnessVerdict:
    """Combined verdict: FLAT, CURVED, or INCONSISTENT (the correspondence
    forbids the grid test and the homotopy test to disagree)."""

    verdict: str
    max_curvature: float
    spreads: tuple
    curvature_tol: float
    spread_tol: float

    def as_dict(self):
        return asdict(self)


def flatness_verdict(conn, cfg=None, samples=7, tol=_FLAT_TOL):
    """Grid curvature plus homotopy spread on three canned families, whose
    33 members the engine transports in one batch.  The families are those
    of standard_homotopy_families in the first chart, built once per chart
    and kept there, so a repeated verdict compiles them no more.

    FLAT iff both stay below tol; CURVED iff both exceed it; INCONSISTENT
    otherwise, which signals a bug or a threshold miscalibration."""
    cfg = cfg or SolverConfig()
    grid = is_flat(conn, samples=samples, tol=tol)
    scans = _scans(engine_oracle(conn, cfg), conn.charts[0]._homotopy_families)
    spreads = tuple(scan.spread for scan in scans)
    flat_by_curvature = grid.max_norm <= tol
    flat_by_spread = max(spreads) <= tol
    if flat_by_curvature and flat_by_spread:
        verdict = "FLAT"
    elif not flat_by_curvature and not flat_by_spread:
        verdict = "CURVED"
    else:
        verdict = "INCONSISTENT"
    return FlatnessVerdict(verdict, grid.max_norm, spreads, tol, tol)
