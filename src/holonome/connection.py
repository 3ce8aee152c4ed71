"""Connection forms on trivialized box charts.

A connection is stored locally as Lie-algebra-valued coefficient matrices
A_mu(x), one k x k matrix function per coordinate direction, per chart,
plus transition data (coordinate map and gauge matrix) between charts.
Across a transition with gauge g the coefficients obey

    A'[pulled back] = g^-1 A g + g^-1 dg,

which is sampled on chart overlaps at load time.  Fiber coordinates
transform as q' = g(x)^-1 q; the transport engine multiplies by that
factor when a path switches charts.

Coefficients are expression-backed, a constant one being a matrix of
literals, with exact derivatives through exprs.diff; any other
MatrixFunction supplies its own.  A chart compiles the field
M = sum_mu A_mu(x) xdot^mu of its expression-backed coefficients into one
exprs Program, which writes each entry of M as one row.  gauge_transform
applies the law above to expression entries, so a gauge-transformed chart
is an expression chart like any other: g^-1 is the adjugate over the
determinant, both by cofactor expansion, and dg comes from exprs.diff.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprs
from .errors import (
    DomainError,
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

_GAUGE_LAW_TOL = 1e-8  # largest gauge-law defect accepted on an overlap
_OVERLAP_SAMPLES = 20  # overlap points checked per transition
_OVERLAP_ATTEMPTS = 500  # candidate points drawn to find them
_OVERLAP_SEED = 20240615
# the entries (p, q) whose differences M[p, q] - M[q, p] are twice the
# coordinates of the skew part of a k x k field, on J for k = 2 and on
# E1, E2, E3 (groups.so3_basis) for k = 3
_SKEW_PAIRS = {2: ((1, 0),), 3: ((2, 1), (0, 2), (1, 0))}


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


def _square(rows, what):
    """rows as a tuple of k rows of k entries each, k >= 1, or
    ValidationError."""
    try:
        rows = tuple(tuple(row) for row in rows)
    except TypeError:
        rows = ()
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValidationError(f"{what} entries must form a k x k square")
    return rows


def _entry(e, dim):
    """An entry as an expression in dim coordinates: an Expr, or a real
    number as its literal."""
    if isinstance(e, Expr):
        return e.with_dim(dim)
    if isinstance(e, numbers.Real):
        return lit(e).with_dim(dim)
    raise ValidationError(
        f"an ExprMatrixFunction entry must be an expression or a real number, not {e!r}"
    )


class ExprMatrixFunction(MatrixFunction):
    """Entries given by DSL expressions or real numbers (literals);
    derivatives are exact."""

    def __init__(self, entries, dim):
        rows = _square(entries, "an ExprMatrixFunction's")
        self.entries = tuple(tuple(_entry(e, dim) for e in row) for row in rows)
        self.k = len(self.entries)
        self.dim = dim
        self._flat = tuple(e for row in self.entries for e in row)  # row-major

    @cached_property
    def _program(self):
        return exprs.Program(self._flat)

    @cached_property
    def _dual_program(self):
        return exprs.Program(self._flat, self.dim)

    def value(self, X):
        return exprs.evaluate_many(self._program, X).reshape(-1, self.k, self.k)

    def value_and_grad(self, X):
        v, g = exprs.evaluate_dual_many(self._dual_program, X)
        m, k = len(v), self.k
        grads = np.ascontiguousarray(np.moveaxis(g, 2, 1)).reshape(m, self.dim, k, k)
        return v.reshape(m, k, k), grads


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

    @cached_property
    def _terms(self):
        """The entries of M = sum_mu A_mu xdot^mu, row-major, as expressions
        over the coordinates x1..x<dim> and the velocities
        x<dim+1>..x<2 dim>: each sums the terms of the expression-backed
        coefficients in mu order, leaving out their zero entries, and is 0
        where none is left.  Also the (mu, coefficient) pairs of every
        other coefficient."""
        dim, k = self.dim, self.coefficients[0].k
        sums = [None] * (k * k)
        others = []
        for mu, f in enumerate(self.coefficients):
            if not isinstance(f, ExprMatrixFunction):
                others.append((mu, f))
                continue
            v = var(dim + mu, 2 * dim)
            for i, e in enumerate(f._flat):
                if e.ast[0] == "num" and e.ast[1] == 0.0:
                    continue
                sums[i] = e * v if sums[i] is None else sums[i] + e * v
        return [lit(0.0) if s is None else s for s in sums], tuple(others)

    @cached_property
    def _field(self):
        """The field program, one output per entry of M (_terms), and the
        (mu, coefficient) pairs of every other coefficient."""
        entries, others = self._terms
        return exprs.Program(entries), others

    @cached_property
    def _skew_program(self):
        """The skew field program on SO(2) and SO(3): output i is the
        difference M[p, q] - M[q, p] of the two entries' sums (_terms), for
        the i-th pair (p, q) of _SKEW_PAIRS."""
        entries, _ = self._terms
        k = self.coefficients[0].k
        return exprs.Program([entries[p * k + q] - entries[q * k + p] for p, q in _SKEW_PAIRS[k]])

    @cached_property
    def _homotopy_families(self):
        """flatness_verdict's three canned homotopy families in this chart
        (holonomy.standard_homotopy_families, 11 s samples each), built on
        first use and kept, as _field keeps the compiled field, so their
        endpoint checks and programs are compiled once per chart."""
        from .holonomy import _canned_families  # holonomy imports this module

        return _canned_families(self, 11)

    def field(self, X, V, out):
        """M = sum_mu A_mu(x) xdot^mu at the m points whose coordinates are
        the rows of X and whose velocities are the rows of V, both (dim, m),
        written into the contiguous (k, k, m) array out: the field program
        writes each entry's row, then every other coefficient adds its
        value(X) xdot^mu."""
        program, others = self._field
        rows = out.reshape(-1, out.shape[-1])
        program.run([*X, *V], rows)
        exprs._finite_or_raise(rows)
        for mu, f in others:
            out += np.moveaxis(f.value(X.T), 0, -1) * V[mu]

    def _skew_field(self, X, V, out):
        """The skew rows of the field on SO(2) and SO(3), k = 2 or 3: row i
        of the (r, m) array out, r = 1 or 3, is M[p, q] - M[q, p] for the
        i-th pair (p, q) of _SKEW_PAIRS, twice the i-th coordinate of the
        skew part of M on J, or on E1, E2, E3.  They are bit for bit the
        differences of the rows that field writes, but the skew program
        evaluates only the entries they read.  A chart with any other
        coefficient writes the whole field and subtracts."""
        k = self.coefficients[0].k
        if self._terms[1]:
            M = np.empty((k, k, out.shape[-1]))
            self.field(X, V, M)
            for row, (p, q) in zip(out, _SKEW_PAIRS[k]):
                np.subtract(M[p, q], M[q, p], out=row)
            return
        self._skew_program.run([*X, *V], out)
        exprs._finite_or_raise(out)


@dataclass(frozen=True)
class Transition:
    """Chart transition: coordinate map (Expr vector) and gauge matrix."""

    from_chart: int
    to_chart: int
    coord_map: tuple
    gauge: MatrixFunction

    def __post_init__(self):
        object.__setattr__(self, "coord_map", tuple(self.coord_map))

    @cached_property
    def _map_program(self):
        return exprs.Program(self.coord_map)

    @cached_property
    def _jacobian_program(self):
        """The coordinate map with its gradients in as many coordinates as
        it has components (ConnectionForm checks that both charts have that
        dimension)."""
        return exprs.Program(self.coord_map, len(self.coord_map))

    def map_coords(self, coords):
        return exprs.evaluate_many(self._map_program, np.asarray(coords, dtype=float)[None, :])[0]

    def jacobian(self, coords):
        x = np.asarray(coords, dtype=float)[None, :]
        return exprs.evaluate_dual_many(self._jacobian_program, x)[1][0]

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
        for tr in self.transitions:
            dims = (self.chart(tr.from_chart).dim, self.chart(tr.to_chart).dim)
            if dims != (len(tr.coord_map),) * 2:
                raise ValidationError(
                    f"transition {tr.from_chart}->{tr.to_chart}: its map has "
                    f"{len(tr.coord_map)} components between charts of dimension "
                    f"{dims[0]} and {dims[1]}"
                )
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


def _map_where_defined(program, X):
    """The rows of X at which the compiled coordinate map is defined, and
    their images.  A batch that raises DomainError is halved until the
    offending rows are isolated and dropped."""
    try:
        return X, exprs.evaluate_many(program, X)
    except DomainError:
        if len(X) == 1:
            return X[:0], np.empty((0, program.size))
        half = len(X) // 2
        Xa, Ya = _map_where_defined(program, X[:half])
        Xb, Yb = _map_where_defined(program, X[half:])
        return np.concatenate([Xa, Xb]), np.concatenate([Ya, Yb])


def _overlap_samples(conn, tr):
    """Deterministic sample points in the from-chart box whose image lands
    in the to-chart box: (points, images), at most _OVERLAP_SAMPLES rows."""
    src = conn.chart(tr.from_chart)
    dst = conn.chart(tr.to_chart)
    rng = np.random.default_rng(_OVERLAP_SEED + 17 * tr.from_chart + 31 * tr.to_chart)
    X = rng.uniform(src.lo, src.hi, (_OVERLAP_ATTEMPTS, src.dim))
    X, Y = _map_where_defined(tr._map_program, X)
    inside = dst.contains_many(Y)
    return X[inside][:_OVERLAP_SAMPLES], Y[inside][:_OVERLAP_SAMPLES]


def check_transition_compatibility(conn):
    """Sampled check of A' = g^-1 A g + g^-1 dg on every declared overlap."""
    for tr in conn.transitions:
        X, Y = _overlap_samples(conn, tr)
        if not len(X):
            raise ValidationError(
                f"transition {tr.from_chart}->{tr.to_chart}: no overlap samples found"
            )
        src = conn.chart(tr.from_chart)
        dst = conn.chart(tr.to_chart)
        _, J = exprs.evaluate_dual_many(tr._jacobian_program, X)  # J[p, nu, mu] = d y^nu / d x^mu
        g, dg = tr.gauge.value_and_grad(X)
        gi = np.linalg.inv(g)[:, None]
        a_dst = np.stack([f.value(Y) for f in dst.coefficients], axis=1)
        a_src = np.stack([f.value(X) for f in src.coefficients], axis=1)
        lhs = np.einsum("pnm,pnij->pmij", J, a_dst)
        rhs = gi @ a_src @ g[:, None] + gi @ dg
        worst = float(np.max(np.linalg.norm(lhs - rhs, axis=(-2, -1))))
        if worst > _GAUGE_LAW_TOL:
            raise ValidationError(
                f"transition {tr.from_chart}->{tr.to_chart} violates the gauge "
                f"law by {worst:.3e} (tol {_GAUGE_LAW_TOL:.1e})"
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
    """Pair the connection with a tangent vector: M = sum_mu A_mu(x) v^mu,
    the chart's field (ChartSpec.field) at the one point x with velocity
    v, after the checks that v is based at x and x lies inside its chart.
    On SO/U1 the roundoff of M is cleaned up to the skew matrix it must
    be."""
    if v.base.chart_id != x.chart_id or np.max(np.abs(v.base.coords - x.coords)) > 1e-12:
        raise ValidationError("tangent vector is not based at the given point")
    chart = _require_inside(conn, x)
    acc = np.empty((conn.group.k, conn.group.k, 1))
    chart.field(np.asarray(x.coords, dtype=float)[:, None], v.components[:, None], acc)
    acc = acc[..., 0]
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
            if not self.components:
                raise ValidationError(
                    "a one-dimensional chart stores no curvature component to size F[mu][mu] by"
                )
            k = next(iter(self.components.values())).shape[0]
            return np.zeros((k, k))
        if mu < nu:
            return self.components[(mu, nu)]
        return -self.components[(nu, mu)]

    def max_norm(self):
        return max((frobenius(m) for m in self.components.values()), default=0.0)


def _curvature(chart, X, orthogonal):
    """F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] for every mu < nu at
    an (m, n) array of points, as {(mu, nu): (m, k, k) array}."""
    vals, grads = zip(*(f.value_and_grad(X) for f in chart.coefficients))
    comps = {}
    for mu in range(chart.dim):
        for nu in range(mu + 1, chart.dim):
            f = grads[nu][:, mu] - grads[mu][:, nu] + vals[mu] @ vals[nu] - vals[nu] @ vals[mu]
            if orthogonal:
                f = 0.5 * (f - np.swapaxes(f, 1, 2))  # discard roundoff outside the algebra
            comps[(mu, nu)] = f
    return comps


def curvature_at(conn, x):
    """F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu].

    The derivatives are exact for expression-backed coefficients, through
    exprs.diff, and gauge_transform writes its coefficients as expressions;
    any other MatrixFunction supplies its own value_and_grad.
    """
    chart = _require_inside(conn, x)
    X = np.asarray(x.coords, dtype=float)[None, :]
    comps = {key: f[0] for key, f in _curvature(chart, X, conn.group.orthogonal).items()}
    for f in comps.values():
        AlgebraElement(f, conn.group)  # invariant check
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
        pts = box_grid(chart.chart_id, chart.lo, chart.hi, samples)
        comps = _curvature(chart, np.array([p.coords for p in pts]), conn.group.orthogonal)
        norms = np.zeros(len(pts))  # a one-dimensional chart has no components
        for f in comps.values():
            norms = np.maximum(norms, np.linalg.norm(f, axis=(1, 2)))
        i = int(np.argmax(norms))  # the first maximum, as in a scan
        if norms[i] > worst or worst_pt is None:
            worst, worst_pt = float(norms[i]), pts[i]
    return FlatnessGridReport(worst <= tol, worst, worst_pt, samples, tol)


# --- gauge transformation ----------------------------------------------------------

def _entries(f, what):
    """The entries of an ExprMatrixFunction.  Any other MatrixFunction is
    opaque to the symbolic gauge law and raises ValidationError."""
    if isinstance(f, ExprMatrixFunction):
        return f.entries
    raise ValidationError(
        f"{what} is an opaque {type(f).__name__}: gauge_transform needs "
        f"expression or numeric entries, or an ExprMatrixFunction"
    )


def _times(a, b):
    return Expr(exprs._times(a.ast, b.ast), max(a.dim, b.dim))


def _sum(terms):
    """The sum of expressions, leaving out literal zeros."""
    ast, dim = exprs._ZERO, 0
    for t in terms:
        ast, dim = exprs._plus(ast, t.ast), max(dim, t.dim)
    return Expr(ast, dim)


def _matmul(a, b):
    """The product of two k x k expression matrices."""
    k = len(a)
    return [[_sum(_times(a[i][l], b[l][j]) for l in range(k)) for j in range(k)] for i in range(k)]


def _det(m):
    """Determinant by cofactor expansion along the first row (1 for the
    empty matrix)."""
    return _sum(_times(m[0][j], _cofactor(m, 0, j)) for j in range(len(m))) if m else lit(1.0)


def _cofactor(m, i, j):
    """(-1)^(i+j) times the determinant of m without row i and column j."""
    d = _det([row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i])
    if (i + j) % 2 == 0:
        return d
    return lit(-d.ast[1]) if d.ast[0] == "num" else -d


def gauge_transform(conn, g, chart_id=None):
    """Change of trivialization on one chart: A -> g^-1 A g + g^-1 dg.

    g is given by k x k expression or numeric entries, or an
    ExprMatrixFunction, k the group's.  The law is applied to
    expressions: g^-1 = adj(g) / det(g), both by cofactor expansion, and
    dg from exprs.diff, so the new coefficients are ExprMatrixFunctions
    with exact values and derivatives.  Transition gauges touching the
    chart are adjusted so the compatibility law keeps holding.  A gauge, a
    coefficient of the chart or a transition gauge touching it that is any
    other MatrixFunction raises ValidationError.
    """
    if chart_id is None:
        if len(conn.charts) != 1:
            raise ValidationError("chart_id is required on a multi-chart connection")
        chart_id = conn.charts[0].chart_id
    chart = conn.chart(chart_id)
    if not isinstance(g, MatrixFunction):
        g = ExprMatrixFunction(g, chart.dim)
    k = conn.group.k
    if g.k != k:
        raise ValidationError(f"the gauge is {g.k}x{g.k}, the group needs {k}x{k}")
    gauge = _entries(g, "the gauge")
    adj = [[_cofactor(gauge, j, i) for j in range(k)] for i in range(k)]
    det = _sum(_times(gauge[0][j], adj[j][0]) for j in range(k)).with_dim(chart.dim)

    # sampled invertibility check
    rng = np.random.default_rng(97)
    sample = rng.uniform(chart.lo, chart.hi, size=(20, chart.dim))
    if np.min(np.abs(exprs.evaluate_many((det,), sample))) <= 1e-9:
        raise SingularGaugeError("gauge matrix is singular on the chart")

    def inverse_times(m):
        """g^-1 m, each entry of adj(g) m over det(g)."""
        return [[e if e.ast == exprs._ZERO else e / det for e in row] for row in _matmul(adj, m)]

    new_coeffs = []
    for mu, f in enumerate(chart.coefficients):
        ag = _matmul(_entries(f, f"chart {chart_id} coefficient A_{mu + 1}"), gauge)
        ag_dg = [  # A_mu g + d_mu g
            [_sum((x, exprs.diff(e, mu))) for x, e in zip(ag_row, g_row)]
            for ag_row, g_row in zip(ag, gauge)
        ]
        new_coeffs.append(ExprMatrixFunction(inverse_times(ag_dg), chart.dim))
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
        if chart_id not in (tr.from_chart, tr.to_chart):
            new_transitions.append(tr)
            continue
        h = _entries(tr.gauge, f"transition {tr.from_chart}->{tr.to_chart}'s gauge")
        if tr.from_chart == chart_id:
            h = inverse_times(h)
        if tr.to_chart == chart_id:
            h = _matmul(h, [[exprs.substitute(e, tr.coord_map) for e in row] for row in gauge])
        h = ExprMatrixFunction(h, conn.chart(tr.from_chart).dim)
        new_transitions.append(Transition(tr.from_chart, tr.to_chart, tr.coord_map, h))
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
            ExprMatrixFunction(s1 * e1, 2),
            ExprMatrixFunction(s2 * e2, 2),
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
