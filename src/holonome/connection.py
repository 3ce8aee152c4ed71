"""Connection forms on trivialized box charts.

A connection is stored locally as Lie-algebra-valued coefficient matrices
A_mu(x), one k x k matrix function per coordinate direction, per chart,
plus transition data (coordinate map and gauge matrix) between charts.
Across a transition with gauge g the coefficients obey

    A'[pulled back] = g^-1 A g + g^-1 dg,

which is sampled on chart overlaps at load time.  Fiber coordinates
transform as q' = g(x)^-1 q; the transport engine multiplies by that
factor when a path switches charts.

Coefficients are either expression-backed (exact derivatives via dual
numbers) or callable-backed (after a gauge transformation, with central
finite differences for derivatives).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import exprs
from .errors import (
    OutsideChartError,
    SingularGaugeError,
    ValidationError,
)
from .exprs import Expr, lit, parse, var
from .groups import AlgebraElement, StructureGroup, frobenius, so2_generator, so3_basis
from .paths import ChartPoint, box_grid

__all__ = [
    "MatrixFunction",
    "ExprMatrixFunction",
    "ChartSpec",
    "Transition",
    "ConnectionForm",
    "CurvatureValue",
    "eval_connection",
    "curvature_at",
    "gauge_transform",
    "is_flat",
    "FlatnessGridReport",
    "builtin_connection",
    "BUILTIN_NAMES",
]

_FD_STEP = 1e-6  # central-difference step for callable-backed derivatives


# --- matrix-valued functions of chart coordinates -------------------------------

class MatrixFunction:
    """k x k matrix function of n chart coordinates, with first derivatives.

    value(X) maps an (m, n) array of points to an (m, k, k) array;
    value_and_grad additionally returns the (m, n, k, k) derivative array.
    """

    dim: int
    k: int

    def value(self, X):
        raise NotImplementedError

    def value_and_grad(self, X):
        raise NotImplementedError

    def at(self, x):
        """Value at a single point (k, k)."""
        return self.value(np.asarray(x, dtype=float)[None, :])[0]


class ExprMatrixFunction(MatrixFunction):
    """Entries given by DSL expressions; derivatives are exact."""

    def __init__(self, entries, dim):
        self.entries = tuple(tuple(e.with_dim(dim) for e in row) for row in entries)
        self.k = len(self.entries)
        self.dim = dim

    def value(self, X):
        m = X.shape[0]
        out = np.empty((m, self.k, self.k))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[:, i, j] = exprs.evaluate_many(e, X)
        return out

    def value_and_grad(self, X):
        m = X.shape[0]
        vals = np.empty((m, self.k, self.k))
        grads = np.empty((m, self.dim, self.k, self.k))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                v, g = exprs.evaluate_dual_many(e, X)
                vals[:, i, j] = v
                grads[:, :, i, j] = g
        return vals, grads


class ConstantMatrixFunction(MatrixFunction):
    def __init__(self, matrix, dim):
        self.matrix = np.asarray(matrix, dtype=float)
        self.k = self.matrix.shape[0]
        self.dim = dim

    def value(self, X):
        return np.broadcast_to(self.matrix, (X.shape[0],) + self.matrix.shape).copy()

    def value_and_grad(self, X):
        m = X.shape[0]
        return self.value(X), np.zeros((m, self.dim, self.k, self.k))


class _Inverse(MatrixFunction):
    def __init__(self, base):
        self.base = base
        self.dim, self.k = base.dim, base.k

    def value(self, X):
        return np.linalg.inv(self.base.value(X))

    def value_and_grad(self, X):
        v, g = self.base.value_and_grad(X)
        vi = np.linalg.inv(v)
        # d(g^-1) = -g^-1 (dg) g^-1, batched over points and directions
        gi = -np.einsum("mij,mdjk,mkl->mdil", vi, g, vi)
        return vi, gi


class _Product(MatrixFunction):
    def __init__(self, a, b):
        self.a, self.b = a, b
        self.dim, self.k = a.dim, a.k

    def value(self, X):
        return self.a.value(X) @ self.b.value(X)

    def value_and_grad(self, X):
        va, ga = self.a.value_and_grad(X)
        vb, gb = self.b.value_and_grad(X)
        v = va @ vb
        g = np.einsum("mdij,mjk->mdik", ga, vb) + np.einsum(
            "mij,mdjk->mdik", va, gb
        )
        return v, g


class _ComposedWithMap(MatrixFunction):
    """f(phi(x)) for an expression-backed coordinate map phi."""

    def __init__(self, base, coord_map, dim):
        self.base = base
        self.coord_map = tuple(coord_map)
        self.dim = dim
        self.k = base.k

    def _map(self, X):
        return np.stack([exprs.evaluate_many(c, X) for c in self.coord_map], axis=1)

    def value(self, X):
        return self.base.value(self._map(X))

    def value_and_grad(self, X):
        m = X.shape[0]
        Y = np.empty((m, len(self.coord_map)))
        J = np.empty((m, len(self.coord_map), self.dim))
        for i, c in enumerate(self.coord_map):
            v, g = exprs.evaluate_dual_many(c, X)
            Y[:, i] = v
            J[:, i, :] = g[:, : self.dim]
        v, g = self.base.value_and_grad(Y)
        # chain rule: d_mu (f . phi) = sum_nu (d_nu f)(phi) J^nu_mu
        gx = np.einsum("mnij,mnd->mdij", g, J)
        return v, gx


class FiniteDifferenceGrad(MatrixFunction):
    """Wrap an exact-value function with central-difference derivatives."""

    def __init__(self, base, step=_FD_STEP):
        self.base = base
        self.step = step
        self.dim, self.k = base.dim, base.k

    def value(self, X):
        return self.base.value(X)

    def value_and_grad(self, X):
        m = X.shape[0]
        v = self.base.value(X)
        g = np.empty((m, self.dim, self.k, self.k))
        for d in range(self.dim):
            xp = X.copy()
            xm = X.copy()
            xp[:, d] += self.step
            xm[:, d] -= self.step
            g[:, d] = (self.base.value(xp) - self.base.value(xm)) / (2.0 * self.step)
        return v, g


class _GaugeTransformedCoefficient(MatrixFunction):
    """A'_mu = g^-1 A_mu g + g^-1 d_mu g, values exact; use with
    FiniteDifferenceGrad for derivatives (exact second derivatives of the
    gauge are outside the DSL)."""

    def __init__(self, base_mu, gauge, mu):
        self.base_mu = base_mu
        self.gauge = gauge
        self.mu = mu
        self.dim, self.k = base_mu.dim, base_mu.k

    def value(self, X):
        a = self.base_mu.value(X)
        gv, gg = self.gauge.value_and_grad(X)
        gi = np.linalg.inv(gv)
        return gi @ a @ gv + gi @ gg[:, self.mu]

    def value_and_grad(self, X):  # pragma: no cover - always wrapped
        raise NotImplementedError("wrap in FiniteDifferenceGrad")


# --- charts, transitions, connection ---------------------------------------------

@dataclass(frozen=True)
class ChartSpec:
    """Axis-aligned box chart with one coefficient function per direction."""

    chart_id: int
    dim: int
    lo: np.ndarray
    hi: np.ndarray
    coefficients: tuple  # one MatrixFunction per mu

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if len(lo) != self.dim or len(hi) != self.dim or np.any(hi <= lo):
            raise ValidationError(f"bad domain box for chart {self.chart_id}")
        if len(self.coefficients) != self.dim:
            raise ValidationError(
                f"chart {self.chart_id} needs {self.dim} coefficient functions"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    def contains(self, coords):
        c = np.asarray(coords, dtype=float)
        return bool(np.all(c >= self.lo) and np.all(c <= self.hi))

    def contains_many(self, X):
        return np.all((X >= self.lo) & (X <= self.hi), axis=1)


@dataclass(frozen=True)
class Transition:
    """Chart transition: coordinate map (Expr vector) and gauge matrix."""

    from_chart: int
    to_chart: int
    coord_map: tuple
    gauge: MatrixFunction

    def __post_init__(self):
        object.__setattr__(self, "coord_map", tuple(self.coord_map))

    def map_coords(self, coords):
        x = np.asarray(coords, dtype=float)
        return np.array([exprs.evaluate(c, x) for c in self.coord_map])

    def map_coords_many(self, X):
        return np.stack([exprs.evaluate_many(c, X) for c in self.coord_map], axis=1)

    def jacobian(self, coords):
        x = np.asarray(coords, dtype=float)[None, :]
        rows = [exprs.evaluate_dual_many(c, x)[1][0] for c in self.coord_map]
        return np.stack(rows, axis=0)

    def gauge_at(self, coords):
        return self.gauge.at(coords)


@dataclass(frozen=True)
class ConnectionForm:
    """Connection coefficients per chart plus transition data.

    Transition compatibility is sampled on overlaps at construction time.
    """

    group: StructureGroup
    charts: tuple
    transitions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "charts", tuple(self.charts))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        ids = [c.chart_id for c in self.charts]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate chart ids")
        for c in self.charts:
            for f in c.coefficients:
                if f.k != self.group.k:
                    raise ValidationError(
                        f"chart {c.chart_id} coefficients are {f.k}x{f.k}, "
                        f"group needs {self.group.k}x{self.group.k}"
                    )
        if self.group.orthogonal:
            self._check_algebra_valued()
        check_transition_compatibility(self)

    def _check_algebra_valued(self):
        """Sampled check that every coefficient lands in the Lie algebra."""
        rng = np.random.default_rng(73)
        for chart in self.charts:
            X = rng.uniform(chart.lo, chart.hi, (10, chart.dim))
            for mu, f in enumerate(chart.coefficients):
                vals = f.value(X)
                defect = np.max(np.abs(vals + np.transpose(vals, (0, 2, 1))))
                if defect > 1e-9:
                    raise ValidationError(
                        f"chart {chart.chart_id} coefficient A_{mu + 1} is not "
                        f"skew-symmetric (defect {defect:.3e})"
                    )

    def chart(self, chart_id):
        for c in self.charts:
            if c.chart_id == chart_id:
                return c
        raise OutsideChartError(f"no chart with id {chart_id}")

    def find_transition(self, from_chart, to_chart):
        for tr in self.transitions:
            if tr.from_chart == from_chart and tr.to_chart == to_chart:
                return tr
        return None

    def map_point(self, point, to_chart):
        """Map a ChartPoint to another chart through a declared transition."""
        if point.chart_id == to_chart:
            return point
        tr = self.find_transition(point.chart_id, to_chart)
        if tr is None:
            raise OutsideChartError(
                f"no transition from chart {point.chart_id} to chart {to_chart}"
            )
        return ChartPoint(to_chart, tr.map_coords(point.coords))


def _overlap_samples(conn, tr, want=20, attempts=500, seed=20240615):
    """Deterministic sample points in the from-chart box whose image lands
    in the to-chart box."""
    src = conn.chart(tr.from_chart)
    dst = conn.chart(tr.to_chart)
    rng = np.random.default_rng(seed + 17 * tr.from_chart + 31 * tr.to_chart)
    pts = []
    for _ in range(attempts):
        x = rng.uniform(src.lo, src.hi)
        try:
            y = tr.map_coords(x)
        except Exception:
            continue
        if dst.contains(y):
            pts.append((x, y))
            if len(pts) >= want:
                break
    return pts


def check_transition_compatibility(conn, tol=1e-8, samples=20):
    """Sampled check of A' = g^-1 A g + g^-1 dg on every declared overlap."""
    for tr in conn.transitions:
        pts = _overlap_samples(conn, tr, want=samples)
        if not pts:
            raise ValidationError(
                f"transition {tr.from_chart}->{tr.to_chart}: no overlap samples found"
            )
        src = conn.chart(tr.from_chart)
        dst = conn.chart(tr.to_chart)
        worst = 0.0
        for x, y in pts:
            X = x[None, :]
            J = tr.jacobian(x)
            gv, gg = tr.gauge.value_and_grad(X)
            g = gv[0]
            gi = np.linalg.inv(g)
            a_dst = np.stack([f.value(y[None, :])[0] for f in dst.coefficients])
            a_src = np.stack([f.value(X)[0] for f in src.coefficients])
            for mu in range(src.dim):
                lhs = np.einsum("n,nij->ij", J[:, mu], a_dst)
                rhs = gi @ a_src[mu] @ g + gi @ gg[0, mu]
                worst = max(worst, frobenius(lhs - rhs))
        if worst > tol:
            raise ValidationError(
                f"transition {tr.from_chart}->{tr.to_chart} violates the gauge "
                f"law by {worst:.3e} (tol {tol:.1e})"
            )


# --- pointwise operations ---------------------------------------------------------

def _require_inside(conn, x):
    chart = conn.chart(x.chart_id)
    if x.dim != chart.dim:
        raise ValidationError(
            f"point has {x.dim} coordinates, chart {x.chart_id} is "
            f"{chart.dim}-dimensional"
        )
    if not chart.contains(x.coords):
        raise OutsideChartError(
            f"point {np.array_str(np.asarray(x.coords))} outside chart {x.chart_id}"
        )
    return chart


def eval_connection(conn, x, v):
    """Pair the connection with a tangent vector: sum_mu A_mu(x) v^mu."""
    if v.base.chart_id != x.chart_id or np.max(np.abs(v.base.coords - x.coords)) > 1e-12:
        raise ValidationError("tangent vector is not based at the given point")
    chart = _require_inside(conn, x)
    X = np.asarray(x.coords, dtype=float)[None, :]
    acc = np.zeros((conn.group.k, conn.group.k))
    for mu in range(chart.dim):
        acc += chart.coefficients[mu].value(X)[0] * v.components[mu]
    if conn.group.orthogonal:
        acc = 0.5 * (acc - acc.T)
    return AlgebraElement(acc, conn.group)


@dataclass(frozen=True)
class CurvatureValue:
    """Curvature components F[mu][nu] at a point, stored for mu < nu;
    antisymmetry F[nu][mu] = -F[mu][nu] is implied by storage."""

    base: ChartPoint
    components: dict

    def matrix(self, mu, nu):
        if mu == nu:
            k = next(iter(self.components.values())).shape[0]
            return np.zeros((k, k))
        if mu < nu:
            return self.components[(mu, nu)]
        return -self.components[(nu, mu)]

    def max_norm(self):
        return max(frobenius(m) for m in self.components.values())


def curvature_at(conn, x):
    """F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu].

    Exact up to DSL derivative accuracy for expression-backed coefficients;
    central finite differences for callable-backed ones.
    """
    chart = _require_inside(conn, x)
    X = np.asarray(x.coords, dtype=float)[None, :]
    vals = []
    grads = []
    for mu in range(chart.dim):
        v, g = chart.coefficients[mu].value_and_grad(X)
        vals.append(v[0])
        grads.append(g[0])
    comps = {}
    for mu in range(chart.dim):
        for nu in range(mu + 1, chart.dim):
            f = grads[nu][mu] - grads[mu][nu] + vals[mu] @ vals[nu] - vals[nu] @ vals[mu]
            if conn.group.orthogonal:
                f = 0.5 * (f - f.T)  # discard roundoff outside the algebra
            AlgebraElement(f, conn.group)  # invariant check
            comps[(mu, nu)] = f
    return CurvatureValue(x, comps)


@dataclass(frozen=True)
class FlatnessGridReport:
    flat: bool
    max_norm: float
    worst_point: ChartPoint
    samples: int
    tol: float


def is_flat(conn, samples=7, tol=1e-6):
    """Grid test: flat iff max ||F(x)||_F over a uniform sample grid <= tol.

    ``samples`` counts grid points per axis, per chart.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    worst = 0.0
    worst_pt = None
    for chart in conn.charts:
        for pt in box_grid(chart.chart_id, chart.lo, chart.hi, samples):
            norm = curvature_at(conn, pt).max_norm()
            if norm > worst or worst_pt is None:
                worst, worst_pt = norm, pt
    return FlatnessGridReport(worst <= tol, worst, worst_pt, samples, tol)


# --- gauge transformation ----------------------------------------------------------

def _as_matrix_function(g, dim):
    if isinstance(g, MatrixFunction):
        return g
    return ExprMatrixFunction(g, dim)


def gauge_transform(conn, g, chart_id=None, fd_step=_FD_STEP):
    """Change of trivialization on one chart: A -> g^-1 A g + g^-1 dg.

    The result stores callable coefficients (derivatives by central
    differences).  Transition gauges touching the chart are adjusted so the
    compatibility law keeps holding.
    """
    if chart_id is None:
        if len(conn.charts) != 1:
            raise ValidationError("chart_id is required on a multi-chart connection")
        chart_id = conn.charts[0].chart_id
    chart = conn.chart(chart_id)
    gauge = _as_matrix_function(g, chart.dim)

    # sampled invertibility check
    rng = np.random.default_rng(97)
    sample = rng.uniform(chart.lo, chart.hi, size=(20, chart.dim))
    dets = np.linalg.det(gauge.value(sample))
    if np.min(np.abs(dets)) <= 1e-9:
        raise SingularGaugeError("gauge matrix is singular on the chart")

    new_coeffs = tuple(
        FiniteDifferenceGrad(
            _GaugeTransformedCoefficient(chart.coefficients[mu], gauge, mu),
            step=fd_step,
        )
        for mu in range(chart.dim)
    )
    new_charts = tuple(
        ChartSpec(c.chart_id, c.dim, c.lo, c.hi, new_coeffs)
        if c.chart_id == chart_id
        else c
        for c in conn.charts
    )

    # fiber coords on the chart change by q' = g^-1 q, so a transition gauge
    # h with q_to = h^-1 q_from becomes h' = g^-1 h on the from side and
    # h' = h (g o phi) on the to side
    new_transitions = []
    for tr in conn.transitions:
        if tr.from_chart == chart_id:
            h = _Product(_Inverse(gauge), tr.gauge)
            new_transitions.append(Transition(tr.from_chart, tr.to_chart, tr.coord_map, h))
        elif tr.to_chart == chart_id:
            composed = _ComposedWithMap(gauge, tr.coord_map, conn.chart(tr.from_chart).dim)
            h = _Product(tr.gauge, composed)
            new_transitions.append(Transition(tr.from_chart, tr.to_chart, tr.coord_map, h))
        else:
            new_transitions.append(tr)
    return ConnectionForm(conn.group, new_charts, tuple(new_transitions))


# --- built-in example connections ----------------------------------------------------

BUILTIN_NAMES = (
    "flat-so2",
    "abelian-area(f)",
    "constant-so3(s1,s2)",
    "levi-civita-s2-stereo",
    "levi-civita-s2-twochart",
    "pure-gauge",
)


def _zero_entries(k):
    return [[lit(0.0) for _ in range(k)] for _ in range(k)]


def _times_generator(scalar_expr, gen):
    """Entries of scalar_expr * gen for a constant generator matrix."""
    k = gen.shape[0]
    return [
        [lit(gen[i, j]) * scalar_expr if gen[i, j] != 0.0 else lit(0.0) for j in range(k)]
        for i in range(k)
    ]


def _so2_chart(chart_id, lo, hi, a1_scalar, a2_scalar):
    """SO(2) chart whose A_mu = (scalar expr) * J."""
    j = so2_generator()
    dim = 2
    coeffs = (
        ExprMatrixFunction(_times_generator(a1_scalar, j), dim),
        ExprMatrixFunction(_times_generator(a2_scalar, j), dim),
    )
    return ChartSpec(chart_id, dim, lo, hi, coeffs)


def _stereo_coefficients():
    """Levi-Civita coefficients of the round sphere in a stereographic
    chart (conformal factor 4 / (1 + |x|^2)^2), oriented so that a CCW
    latitude loop rotates frames by -2 pi (1 - cos theta0) mod 2 pi."""
    x1, x2 = var(0, 2), var(1, 2)
    denom = lit(1.0) + x1**2 + x2**2
    a1 = (lit(2.0) * x2) / denom
    a2 = (lit(-2.0) * x1) / denom
    return a1, a2


def _twochart_gauge_entries():
    """SO(2) gauge between the two oriented stereographic charts; the same
    rational formula works in both directions because the transition map is
    an involution."""
    x1, x2 = var(0, 2), var(1, 2)
    r2 = x1**2 + x2**2
    c = (x2**2 - x1**2) / r2
    s = (lit(2.0) * x1 * x2) / r2
    return [[c, s], [lit(-1.0) * s, c]]


def builtin_connection(name):
    """Factory of example connections.

    Accepted names: "flat-so2", "abelian-area(f)", "constant-so3(s1,s2)"
    (scalars optional), "levi-civita-s2-stereo", "levi-civita-s2-twochart",
    "pure-gauge".
    """
    m = re.fullmatch(r"\s*([a-z0-9-]+)\s*(?:\(([^)]*)\))?\s*", name)
    if not m:
        raise ValidationError(f"cannot parse builtin name {name!r}")
    base, argstr = m.group(1), m.group(2)
    args = []
    if argstr is not None and argstr.strip():
        try:
            args = [float(a) for a in argstr.split(",")]
        except ValueError:
            raise ValidationError(f"bad arguments in builtin name {name!r}") from None

    if base == "flat-so2":
        group = StructureGroup("SO", 2)
        chart = _so2_chart(0, [-2.0, -2.0], [2.0, 2.0], lit(0.0), lit(0.0))
        return ConnectionForm(group, (chart,))

    if base == "abelian-area":
        f = args[0] if args else 1.0
        group = StructureGroup("SO", 2)
        x1, x2 = var(0, 2), var(1, 2)
        # A = (f/2)(x1 dx2 - x2 dx1) J, so F_12 = f J everywhere
        chart = _so2_chart(
            0, [-2.0, -2.0], [2.0, 2.0], lit(-f / 2.0) * x2, lit(f / 2.0) * x1
        )
        return ConnectionForm(group, (chart,))

    if base == "constant-so3":
        s1 = args[0] if len(args) > 0 else 0.8
        s2 = args[1] if len(args) > 1 else 0.6
        group = StructureGroup("SO", 3)
        e1, e2, _ = so3_basis()
        coeffs = (
            ConstantMatrixFunction(s1 * e1, 2),
            ConstantMatrixFunction(s2 * e2, 2),
        )
        chart = ChartSpec(0, 2, [-2.0, -2.0], [2.0, 2.0], coeffs)
        return ConnectionForm(group, (chart,))

    if base == "levi-civita-s2-stereo":
        group = StructureGroup("SO", 2)
        a1, a2 = _stereo_coefficients()
        chart = _so2_chart(0, [-4.0, -4.0], [4.0, 4.0], a1, a2)
        return ConnectionForm(group, (chart,))

    if base == "levi-civita-s2-twochart":
        group = StructureGroup("SO", 2)
        a1, a2 = _stereo_coefficients()
        chart0 = _so2_chart(0, [-4.0, -4.0], [4.0, 4.0], a1, a2)
        chart1 = _so2_chart(1, [-4.0, -4.0], [4.0, 4.0], a1, a2)
        x1, x2 = var(0, 2), var(1, 2)
        r2 = x1**2 + x2**2
        coord_map = (x1 / r2, lit(-1.0) * x2 / r2)
        gauge = ExprMatrixFunction(_twochart_gauge_entries(), 2)
        transitions = (
            Transition(0, 1, coord_map, gauge),
            Transition(1, 0, coord_map, gauge),
        )
        return ConnectionForm(group, (chart0, chart1), transitions)

    if base == "pure-gauge":
        # gauge-trivial connection A = g^-1 dg with g = exp(x1 x2 J)
        flat = builtin_connection("flat-so2")
        x1, x2 = var(0, 2), var(1, 2)
        w = x1 * x2
        g = [[exprs.cos(w), lit(-1.0) * exprs.sin(w)], [exprs.sin(w), exprs.cos(w)]]
        return gauge_transform(flat, g)

    raise ValidationError(f"unknown builtin connection {name!r}")
