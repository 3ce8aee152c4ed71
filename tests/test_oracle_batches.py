"""The lab asks its oracle in batches: homotopy scans, flatness verdicts and
axiom suites send every query through one oracle.many call when the oracle
has one, with the results of a path-by-path loop bit for bit, and
transport_many equals transport path by path across its batch cap."""

import ast
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import holonome
from holonome.connection import builtin_connection
from holonome.errors import OutsideChartError
from holonome.exprs import lit, parse, var
from holonome.exprs import sin as esin
from holonome.holonomy import (
    HomotopyFamily,
    flatness_verdict,
    homotopy_scan,
    standard_homotopy_families,
)
from holonome.paths import ChartPoint, arc_path, line_path
from holonome.transport import (
    AxiomSuite,
    SolverConfig,
    engine_oracle,
    standard_axiom_suite,
    transport,
    transport_many,
    verify_axioms,
)
from test_transport import bits

LAB_CFG = SolverConfig(h=1e-3)  # the shipped scenarios' step: four SO(2) paths per batch
CONNECTIONS = ("abelian-area(1.5)", "constant-so3", "pure-gauge")


class PlainOracle:
    """The engine's transport without a many method, recording every path
    it is asked for, in order."""

    def __init__(self, conn, cfg):
        self.inner, self.seen = engine_oracle(conn, cfg), []

    def __call__(self, gamma):
        self.seen.append(gamma)
        return self.inner(gamma)


class CountingOracle(PlainOracle):
    """The engine as oracle with its many method, counting many calls and
    recording the paths each call receives."""

    def __init__(self, conn, cfg):
        super().__init__(conn, cfg)
        self.batches = []

    def many(self, paths):
        self.batches.append(list(paths))
        return self.inner.many(paths)


@pytest.mark.parametrize("name", CONNECTIONS)
def test_homotopy_scan_same_bits_with_and_without_many(name):
    """One many call per scan, asked for the members a path-by-path scan
    asks for, in its order; the spread is the same float."""
    conn = builtin_connection(name)
    for family in standard_homotopy_families(conn):
        batched, plain = CountingOracle(conn, LAB_CFG), PlainOracle(conn, LAB_CFG)
        report = homotopy_scan(batched, family)
        assert homotopy_scan(plain, family) == report
        assert homotopy_scan(engine_oracle(conn, LAB_CFG), family) == report
        assert len(batched.batches) == 1 and batched.seen == []
        assert batched.batches[0] == plain.seen
        assert len(plain.seen) == family.s_samples


@pytest.mark.parametrize("name", CONNECTIONS)
def test_flatness_verdict_asks_all_members_in_one_call(name, monkeypatch):
    """flatness_verdict sends the 33 members of its three families through
    one many call, and reports bit for bit what a path-by-path oracle
    gives."""
    module = sys.modules["holonome.holonomy"]
    conn = builtin_connection(name)
    oracles = []

    def make(kind):
        def build(conn, cfg):
            oracles.append(kind(conn, cfg))
            return oracles[-1]

        return build

    monkeypatch.setattr(module, "engine_oracle", make(CountingOracle))
    batched = flatness_verdict(conn, LAB_CFG)
    monkeypatch.setattr(module, "engine_oracle", make(PlainOracle))
    plain = flatness_verdict(conn, LAB_CFG)
    monkeypatch.undo()
    assert batched.as_dict() == plain.as_dict() == flatness_verdict(conn, LAB_CFG).as_dict()
    counting, path_by_path = oracles
    assert len(counting.batches) == 1 and len(counting.batches[0]) == 33
    assert counting.batches[0] == path_by_path.seen


@pytest.mark.parametrize("name", CONNECTIONS + ("levi-civita-s2-stereo",))
def test_verify_axioms_same_bits_with_and_without_many(name):
    """One many call per suite, asked for the paths a check-by-check loop
    asks for, in its order; every deviation is the same float."""
    conn = builtin_connection(name)
    suite = standard_axiom_suite(conn)
    batched, plain = CountingOracle(conn, LAB_CFG), PlainOracle(conn, LAB_CFG)
    report = verify_axioms(batched, suite)
    assert verify_axioms(plain, suite).as_dict() == report.as_dict()
    assert verify_axioms(engine_oracle(conn, LAB_CFG), suite).as_dict() == report.as_dict()
    assert len(batched.batches) == 1 and batched.seen == []
    assert batched.batches[0] == plain.seen
    assert report.checks == 16 and report.passed


def test_verify_axioms_raises_the_first_failure_of_the_sequential_loop():
    """Two arcs of the suite bulge out of flat-so2's chart box [-2, 2]^2,
    each at its own point; the batched suite raises the first one's error,
    as the check-by-check loop does."""
    conn = builtin_connection("flat-so2")
    inside = line_path(ChartPoint(0, [0.0, 0.0]), [0.5, 0.5])
    first_off = arc_path(0, [1.5, 0.0], 1.0, -0.5 * np.pi, 0.5 * np.pi)
    second_off = arc_path(0, [0.0, -1.5], 0.8, np.pi, 2.0 * np.pi)
    back = line_path(ChartPoint(0, [0.5, 0.5]), [0.0, 0.0])
    suite = AxiomSuite(
        (inside, first_off, back, second_off), (parse("x1^2", 1),), ((inside, back),)
    )
    alone = []
    for gamma in (first_off, second_off):
        with pytest.raises(OutsideChartError) as err:
            transport(conn, gamma, LAB_CFG)
        alone.append(str(err.value))
    with pytest.raises(OutsideChartError) as sequential:
        verify_axioms(PlainOracle(conn, LAB_CFG), suite)
    with pytest.raises(OutsideChartError) as batched:
        verify_axioms(CountingOracle(conn, LAB_CFG), suite)
    assert str(batched.value) == str(sequential.value) == alone[0] != alone[1]


def test_homotopy_scan_raises_the_first_failing_member():
    """Members with larger s bulge farther out of the chart, so each
    failing member fails at its own point; a batched scan raises the first
    one's error, as the path-by-path scan does."""
    conn = builtin_connection("abelian-area(1.5)")
    t, s = var(0, 2), var(1, 2)
    family = HomotopyFamily(0, (t, lit(4.0) * s * esin(lit(np.pi) * t)), 6)
    alone = []
    for s_value in np.linspace(0.0, 1.0, 6)[3:5]:  # the first two that reach past x2 = 2
        with pytest.raises(OutsideChartError) as err:
            transport(conn, family.member(s_value), LAB_CFG)
        alone.append(str(err.value))
    with pytest.raises(OutsideChartError) as sequential:
        homotopy_scan(PlainOracle(conn, LAB_CFG), family)
    with pytest.raises(OutsideChartError) as batched:
        homotopy_scan(CountingOracle(conn, LAB_CFG), family)
    assert str(batched.value) == str(sequential.value) == alone[0] != alone[1]


class RefusingMany(PlainOracle):
    """An oracle whose many method fails as a whole, or answers one path
    too few: the lab then asks it path by path."""

    def __init__(self, conn, cfg, short):
        super().__init__(conn, cfg)
        self.short = short

    def many(self, paths):
        if self.short:
            return self.inner.many(paths[:-1])
        raise RuntimeError("no batches today")


@pytest.mark.parametrize("short", [False, True])
def test_a_failing_many_falls_back_to_the_path_by_path_loop(short):
    conn = builtin_connection("abelian-area(1.5)")
    suite = standard_axiom_suite(conn)
    oracle = RefusingMany(conn, LAB_CFG, short)
    plain = PlainOracle(conn, LAB_CFG)
    assert verify_axioms(oracle, suite).as_dict() == verify_axioms(plain, suite).as_dict()
    assert oracle.seen == plain.seen


# --- transport_many against transport, across the batch cap --------------------------


def _random_paths(rng, count):
    """Single-segment lines and arcs inside the box [-1.8, 1.8]^2."""
    paths = []
    for _ in range(count):
        if rng.random() < 0.5:
            a, b = rng.uniform(-1.8, 1.8, size=(2, 2))
            paths.append(line_path(ChartPoint(0, a), b))
        else:
            radius = rng.uniform(0.05, 0.8)
            centre = rng.uniform(-1.75 + radius, 1.75 - radius, size=2)
            th0, sweep = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
            paths.append(arc_path(0, centre, radius, th0, th0 + sweep))
    return paths


@seed(20261021)
@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(CONNECTIONS),
    st.sampled_from([1e-2, 2e-2]),
    st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)]),
    st.integers(0, 2**32 - 1),
)
def test_transport_many_equals_transport_across_the_batch_cap(name, h, size, rng_seed):
    """transport_many(conn, paths) is [transport(conn, gamma) ...] bit for
    bit on random lines and arcs.  Every path has the same step count, so
    one group holds them all, and size = (caps, extra) makes caps * cap +
    extra paths, where cap is the number of paths one batch holds
    (_batch_size)."""
    conn = builtin_connection(name)
    cfg = SolverConfig(h=h, project_every=4)
    module = sys.modules["holonome.transport"]
    cap = module._batch_size(conn, 0, module._step_count(1.0, h))
    paths = _random_paths(np.random.default_rng(rng_seed), size[0] * cap + size[1])
    assert [bits(r) for r in transport_many(conn, paths, cfg)] == [
        bits(transport(conn, gamma, cfg)) for gamma in paths
    ]


# --- one reader of an oracle's many method ---------------------------------------


def _many_reads(tree):
    """(enclosing function, line) of every read of an attribute named many
    in a module's AST: oracle.many loads and getattr(oracle, "many", ...)."""
    reads = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "many"
                and isinstance(node.ctx, ast.Load)):
            reads.append((func, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "many"):
            reads.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return reads


def test_only_the_asker_reads_an_oracles_many_method():
    """Every check asks its oracle through transport._asker: a scan of the
    package finds exactly one read of an oracle's many method, there."""
    package = pathlib.Path(holonome.__file__).parent
    reads = {
        path.name: _many_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    found = [(name, func) for name, hits in reads.items() for func, _ in hits]
    assert found == [("transport.py", "_asker")]
