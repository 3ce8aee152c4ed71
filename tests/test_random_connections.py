"""Transport properties over random connections built from the DSL.

A random SO(2) connection has A_mu = p_mu(x) J and a random SO(3) one
A_mu = sum_a p_mu^a(x) E_a, each p a quadratic polynomial of the
coordinates plus a sine and a cosine term (the `angles` of the gauge
tests), on the box [-1.5, 1.5]^2.  Over those connections transport is
multiplicative over random splits, P(gamma^-1) P(gamma) = I, transport is
invariant under reparametrization, the holonomy of a loop based at x0
conjugates as g(x0)^-1 H g(x0) under a random gauge g, and the round trip
A -> P -> A recovers every coefficient within C h^2.  The one centred probe
of a table, lift_vector and horizontal_space gives the two-probe symmetric
difference to roundoff, on these connections and on the builtins.  The
skew rows that a pass reads on SO(2) and SO(3) are the differences of the
whole field's entries, bit for bit, also on a chart with an opaque
coefficient.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holonome.connection import (
    ChartSpec,
    ConnectionForm,
    ExprMatrixFunction,
    MatrixFunction,
    builtin_connection,
    gauge_transform,
)
from holonome.exprs import lit, parse, var
from holonome.exprs import sin as esin
from holonome.groups import (
    AlgebraElement,
    StructureGroup,
    frobenius,
    group_exp,
    identity_element,
    so2_generator,
    so3_basis,
)
from holonome.holonomy import holonomy
from holonome.paths import ChartPoint, TangentVector, arc_path, reparametrize, reverse_path, subpath
from holonome.reconstruction import horizontal_space, lift_vector, reconstruct_connection
from holonome.transport import SolverConfig, engine_oracle, transport_many

from oracles import two_probe_lift
from test_gauge_covariance import angles, gauges

CFG = SolverConfig(h=1e-3)
LO, HI = -1.5, 1.5
GENERATORS = {2: (so2_generator(),), 3: so3_basis()}


def _coefficient(ps, gens):
    """Entries of sum_a ps[a] gens[a], leaving out literal-zero terms."""
    k = len(gens[0])
    entries = []
    for i in range(k):
        entries.append([])
        for j in range(k):
            terms = [lit(g[i, j]) * p for p, g in zip(ps, gens) if g[i, j] != 0.0]
            entries[-1].append(sum(terms[1:], terms[0]) if terms else lit(0.0))
    return ExprMatrixFunction(entries, 2)


@st.composite
def connections(draw, k=None, scale=0.3):
    """A random SO(k) connection on one chart, [-1.5, 1.5]^2; k is 2 or 3,
    drawn when not given."""
    k = k or draw(st.sampled_from([2, 3]))
    gens = GENERATORS[k]
    coeffs = tuple(_coefficient([draw(angles(scale)) for _ in gens], gens) for _ in range(2))
    return ConnectionForm(StructureGroup("SO", k), (ChartSpec(0, 2, [LO] * 2, [HI] * 2, coeffs),))


def arcs(sweeps=st.floats(0.5, 2.0 * np.pi)):
    """A random arc inside the box: centre within 0.4 of the origin,
    radius from 0.2 to 0.9, sweep up to a full turn."""
    return st.builds(
        lambda centre, radius, theta0, sweep: arc_path(0, centre, radius, theta0, theta0 + sweep),
        st.lists(st.floats(-0.4, 0.4), min_size=2, max_size=2),
        st.floats(0.2, 0.9),
        st.floats(0.0, 2.0 * np.pi),
        sweeps,
    )


@seed(20261102)
@settings(max_examples=10, deadline=None)
@given(connections(), arcs(), st.floats(0.1, 0.9))
def test_transport_is_multiplicative_over_random_splits(conn, gamma, s):
    """P(gamma) = P(gamma|[s, 1]) P(gamma|[0, s]) within 1e-9."""
    parts = [gamma, subpath(gamma, 0.0, s), subpath(gamma, s, 1.0)]
    whole, left, right = transport_many(conn, parts, CFG)
    assert frobenius(whole.g.matrix - right.g.matrix @ left.g.matrix) <= 1e-9


@seed(20261103)
@settings(max_examples=10, deadline=None)
@given(connections(), arcs())
def test_reverse_path_cancels_on_random_connections(conn, gamma):
    """P(gamma^-1) P(gamma) = I within 1e-9."""
    fwd, back = transport_many(conn, [gamma, reverse_path(gamma)], CFG)
    assert frobenius(back.g.matrix @ fwd.g.matrix - np.eye(conn.group.k)) <= 1e-9


@seed(20261104)
@settings(max_examples=10, deadline=None)
@given(connections(), arcs(), st.sampled_from(["square", "wobble"]))
def test_transport_is_invariant_under_reparametrization(conn, gamma, kind):
    """P(gamma o alpha) = P(gamma) within 1e-9, for alpha = t^2 and for
    alpha = t - sin(2 pi t) / (4 pi), whose speed vanishes at both ends."""
    u = var(0)
    wobble = u - esin(lit(2.0 * np.pi) * u) / lit(4.0 * np.pi)
    alpha = parse("x1^2", 1) if kind == "square" else wobble
    base, moved = transport_many(conn, [gamma, reparametrize(gamma, alpha)], CFG)
    assert frobenius(moved.g.matrix - base.g.matrix) <= 1e-9


@seed(20261105)
@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(connections(k), gauges(k))),
    arcs(st.just(2.0 * np.pi)),
)
def test_holonomy_conjugates_under_a_random_gauge(case, loop):
    """The holonomy of a random circle based at x0, under the connection
    gauged by a random g, is g(x0)^-1 H g(x0) within 1e-8."""
    conn, entries = case
    g0 = ExprMatrixFunction(entries, 2).at(loop.segments[0].point_at(0.0))
    h_before = holonomy(conn, loop, CFG).g.matrix
    h_after = holonomy(gauge_transform(conn, entries), loop, CFG).g.matrix
    assert frobenius(h_after - g0.T @ h_before @ g0) <= 1e-8


ROUNDTRIP_C = 1.0


@seed(20261106)
@settings(max_examples=10, deadline=None)
@given(connections(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_round_trip_recovers_random_connections(conn, corners):
    """reconstruct_connection through the engine's own oracle (h = 0.02)
    recovers every coefficient on a random 2 x 2 grid in [-1, 1]^2 within
    C h^2 at probe steps 1e-2 and 1e-3, with no grid point dropped.
    C = 1.0: a sweep of 1300 drawn connections and grids read at most
    0.29 h^2 at both steps."""
    xs, ys = corners[:2], corners[2:]
    grid = [ChartPoint(0, [a, b]) for a in xs for b in ys]
    oracle = engine_oracle(conn, SolverConfig(h=0.02))
    for h in (1e-2, 1e-3):
        table = reconstruct_connection(oracle, grid, h, conn.group)
        assert not table.dropped
        for (i, mu), a in table.entries.items():
            want = conn.charts[0].coefficients[mu].at(grid[i].coords)
            assert frobenius(a - want) <= ROUNDTRIP_C * h * h


PROBE_BUILTINS = (
    "flat-so2", "abelian-area(1.5)", "constant-so3", "levi-civita-s2-stereo", "pure-gauge",
)


@seed(20261112)
@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.sampled_from(PROBE_BUILTINS).map(builtin_connection), connections()),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.floats(1e-6, 1e-2),
    st.integers(0, 2**32 - 1),
)
def test_one_centred_probe_is_the_two_probe_difference(conn, at_and_v, h, p_seed):
    """A table's entries, lift_vector and horizontal_space (at p = I and at
    a random p != I), each from one probe x - hv -> x + hv, equal the
    two-probe estimate log(U(+h) U(-h)^-1) / (2h) within 1e-14 / h, on
    the builtins and on random connections, with h in [1e-6, 1e-2].  The
    bound is the roundoff of a unit matrix, about 1e-16, divided by 2h,
    with room; the gap measured 1.3e-16 / h at most."""
    oracle = engine_oracle(conn, SolverConfig(h=0.02))
    group, k = conn.group, conn.group.k
    x, v = ChartPoint(0, at_and_v[:2]), np.array(at_and_v[2:])
    bound = 1e-14 / h
    table = reconstruct_connection(oracle, [x], h, group)
    assert not table.dropped
    for mu in range(2):
        want = -two_probe_lift(oracle, x, np.eye(2)[mu], h, np.eye(k))
        assert frobenius(table.entries[(0, mu)] - want) <= bound
    a = np.random.default_rng(p_seed).normal(size=(k, k))
    for p in (identity_element(group), group_exp(AlgebraElement(0.5 * (a - a.T), group))):
        basis = horizontal_space(oracle, x, p, h)
        for mu, lv in enumerate(basis.lifts):
            want = two_probe_lift(oracle, x, np.eye(2)[mu], h, p.matrix)
            assert frobenius(lv.vertical_part.matrix - want) <= bound
        lv = lift_vector(oracle, x, p, TangentVector(x, v), h)
        want = two_probe_lift(oracle, x, v, h, p.matrix)
        assert frobenius(lv.vertical_part.matrix - want) <= bound


# (p, q) for each generator: E[p, q] = 1 = -E[q, p]
SKEW_PAIRS = {2: ((1, 0),), 3: ((2, 1), (0, 2), (1, 0))}


def field_and_skew_rows(chart, rng, m=50):
    """The whole field M (ChartSpec.field), (k, k, m), and its skew rows
    (ChartSpec._skew_field), (r, m), at m random points of the box with
    random velocities."""
    k = chart.coefficients[0].k
    X, V = rng.uniform(LO, HI, (2, m)), rng.normal(size=(2, m))
    M, b = np.empty((k, k, m)), np.empty((len(SKEW_PAIRS[k]), m))
    chart.field(X, V, M)
    chart._skew_field(X, V, b)
    return M, b


@seed(20261120)
@settings(max_examples=20, deadline=None)
@given(connections(scale=1.0), st.integers(0, 2**32 - 1))
def test_skew_rows_are_the_field_differences_bit_for_bit(conn, rng_seed):
    """On random SO(2) and SO(3) connections, skew row i is
    M[p, q] - M[q, p] of the whole field, bit for bit, for the pair (p, q)
    of generator i, so that half the rows are the skew part's coordinates
    on J, or on E1, E2, E3."""
    k = conn.group.k
    M, b = field_and_skew_rows(conn.charts[0], np.random.default_rng(rng_seed))
    for row, (p, q) in zip(b, SKEW_PAIRS[k]):
        assert np.array_equal(row, M[p, q] - M[q, p])
    for gen, (p, q) in zip(GENERATORS[k], SKEW_PAIRS[k]):
        assert gen[p, q] == 1.0 and gen[q, p] == -1.0


class Opaque(MatrixFunction):
    """A coefficient with no expressions behind it: the values of base."""

    def __init__(self, base):
        self.base, self.dim, self.k = base, base.dim, base.k

    def value(self, X):
        return self.base.value(X)


@seed(20261121)
@settings(max_examples=6, deadline=None)
@given(connections(), arcs(), st.integers(0, 2**32 - 1))
def test_skew_rows_of_an_opaque_coefficient_come_from_the_whole_field(conn, gamma, rng_seed):
    """A chart whose second coefficient is opaque writes the whole field
    and subtracts: its skew rows are the field's differences bit for bit,
    and its transport equals that of the expression chart within 1e-12."""
    chart = conn.charts[0]
    a1, a2 = chart.coefficients
    opaque = ConnectionForm(conn.group, (ChartSpec(0, 2, chart.lo, chart.hi, (a1, Opaque(a2))),))
    M, b = field_and_skew_rows(opaque.charts[0], np.random.default_rng(rng_seed))
    for row, (p, q) in zip(b, SKEW_PAIRS[conn.group.k]):
        assert np.array_equal(row, M[p, q] - M[q, p])
    (want,), (got,) = (transport_many(c, [gamma], CFG) for c in (conn, opaque))
    assert frobenius(got.g.matrix - want.g.matrix) <= 1e-12
